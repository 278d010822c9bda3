"""Deterministic in-repo synthetic datasets; the test suite runs offline on these."""

import numpy as np

from .data import Dataset, attach_partitions, one_hot
from .numerics import RngState


def separable_blobs(n_train=200, n_val=0, n_test=0, gap=4.0, seed=0, name="blobs"):
    """Two unit-variance Gaussian blobs separated by ``gap`` along the diagonal.

    With the default gap the classes are linearly separable with high
    margin, which the tests certify independently with a perceptron.
    """
    total = n_train + n_val + n_test
    rng = RngState(seed)
    half = (total + 1) // 2
    pts = rng.gaussian(total, 2, mean=0.0, std=1.0)
    labels = np.zeros(total, dtype=np.int64)
    labels[half:] = 1
    pts[labels == 0] -= gap / 2.0
    pts[labels == 1] += gap / 2.0
    order = rng.shuffled(total)
    return _build(name, pts[order], labels[order], n_train, n_val, n_test)


def interleaved_arcs(n_train=400, n_val=200, n_test=200, noise=0.15, seed=7,
                     name="arcs"):
    """Two interleaved half-circle arcs with Gaussian jitter.

    Not linearly separable for small noise, so it rewards nonlinear
    feature extraction while staying desk-scale.
    """
    total = n_train + n_val + n_test
    rng = RngState(seed)
    half = (total + 1) // 2
    t0 = np.pi * rng.uniform(half, 1, 0.0, 1.0)[:, 0]
    t1 = np.pi * rng.uniform(total - half, 1, 0.0, 1.0)[:, 0]
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    pts = np.vstack([upper, lower])
    labels = np.concatenate([
        np.zeros(half, dtype=np.int64),
        np.ones(total - half, dtype=np.int64),
    ])
    pts += rng.gaussian(total, 2, mean=0.0, std=noise)
    order = rng.shuffled(total)
    return _build(name, pts[order], labels[order], n_train, n_val, n_test)


def _build(name, X, labels, n_train, n_val, n_test):
    partitions = {"train": np.arange(n_train)}
    if n_val:
        partitions["validation"] = np.arange(n_train, n_train + n_val)
    if n_test:
        partitions["test"] = np.arange(n_train + n_val, n_train + n_val + n_test)
    ds = Dataset(name, X, labels, one_hot(labels, 2), {})
    return attach_partitions(ds, partitions)


# kind -> generator; a run config's synthetic spec holds one of these
# kinds and keyword arguments of its generator
GENERATORS = {"blobs": separable_blobs, "arcs": interleaved_arcs}
