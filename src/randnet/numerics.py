"""Deterministic randomness, activations, dense-matrix helpers, ranks, BLAS threads.

Everything downstream (random layers, autoencoders, stacked nets) draws
its randomness through :class:`RngState`, a seeded PCG64 stream with
hash-based splitting, so a whole pipeline is a pure function of its
master seed. :func:`average_ranks` is the one ranking routine (AUC and
the Friedman ranks). :func:`blas_threads` sets the thread count of every
loaded OpenBLAS for the length of a ``with`` block: numpy's and scipy's
scipy-openblas, numpy 1.x's openblas64_ or a system build, each told by
the decoration of its symbol names, a rule the LAPACK binding in
:mod:`randnet.solvers` reads too.

Only numpy and ``scipy.special`` are imported here. No randnet module
imports scipy's stats subpackage: loading it would be about half of a
cold start.
"""

import ctypes
import hashlib
import logging
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.special import expit

log = logging.getLogger(__name__)


class ShapeError(ValueError):
    """Matrix dimensions do not line up."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


def check_finite(name, m):
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name} contains NaN or Inf entries")


def derive_seed(seed, *labels):
    """Derive a child seed from ``seed`` and a label path.

    SHA-256 over the decimal seed and the labels, truncated to 64 bits.
    The derivation depends only on the values, never on platform or on
    how many draws the parent stream has made, so any component can
    reconstruct its own stream from the master seed alone.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")


class RngState:
    """Seeded 64-bit PCG64 stream.

    The same (seed, draw sequence) produces bit-identical output on
    every platform. A state is single-owner: concurrent users must
    spawn their own child states instead of sharing one.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, *labels):
        """Independent child stream for (seed, labels); leaves this stream untouched."""
        return RngState(derive_seed(self.seed, *labels))

    def uniform(self, rows, cols, lo=-1.0, hi=1.0):
        """Matrix of i.i.d. uniform draws on [lo, hi]."""
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid shape ({rows}, {cols})")
        if not lo < hi:
            raise ValueError(f"empty uniform range [{lo}, {hi}]")
        return self._gen.uniform(lo, hi, size=(rows, cols))

    def gaussian(self, rows, cols, mean=0.0, std=1.0):
        """Matrix of i.i.d. Normal(mean, std^2) draws; std = 0 gives a constant matrix."""
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid shape ({rows}, {cols})")
        if std < 0:
            raise ValueError(f"negative std {std}")
        if std == 0:
            return np.full((rows, cols), float(mean))
        return self._gen.normal(mean, std, size=(rows, cols))

    def column_orders(self, rows, cols):
        """One independent random ordering of column indices per row."""
        return np.argsort(self._gen.random((rows, cols)), axis=1)

    def shuffled(self, n):
        """A random permutation of range(n)."""
        return self._gen.permutation(n)


_ACTIVATIONS = {
    "sigmoid": expit,
    "tanh": np.tanh,
    "relu": lambda m: np.maximum(m, 0.0),
    "linear": lambda m: m,
}

ACTIVATION_NAMES = tuple(sorted(_ACTIVATIONS))


def activate(name, m):
    """Apply the named activation elementwise; shape is preserved."""
    try:
        fn = _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {ACTIVATION_NAMES}"
        ) from None
    return fn(np.asarray(m, dtype=np.float64))


def concat_cols(parts):
    """Concatenate matrices left to right; all parts must share a row count."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_cols needs at least one matrix")
    rows = parts[0].shape[0]
    for i, part in enumerate(parts):
        if part.ndim != 2:
            raise ShapeError(f"part {i} is {part.ndim}-D, expected 2-D")
        if part.shape[0] != rows:
            raise ShapeError(f"part {i} has {part.shape[0]} rows, expected {rows}")
    if len(parts) == 1:
        return parts[0]
    return np.hstack(parts)


def average_ranks(x):
    """1-based ranks of a 1-D array; tied values share the mean of their positions.

    A group of t equal values occupying sorted positions e - t + 1 .. e
    gets rank e - (t - 1) / 2, which float64 holds exactly (an integer or
    an integer plus one half), so the result is bitwise that of
    ``rankdata(x, method="average")`` in scipy's stats subpackage.
    -0.0 and 0.0 tie. NaN or Inf raises :class:`NumericError` (a
    ``ValueError``).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"average_ranks needs a 1-D array, got {x.ndim}-D")
    check_finite("ranked values", x)
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


# (prefix, suffix) each OpenBLAS build puts around a routine's name: numpy 2's
# scipy-openblas64 (scipy_dpotrf_64_), scipy's scipy-openblas (scipy_dpotrf_), numpy
# 1.x's openblas64_ (dpotrf_64_), a system OpenBLAS (dpotrf_). 64_ marks 64-bit integers.
OPENBLAS_DECORATIONS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))
_THREAD_ROUTINES = ("openblas_get_num_threads", "openblas_set_num_threads")


def openblas_routine(lib, decoration, name):
    """lib's routine for a plain name (a Fortran one ends in "_"), or None."""
    return getattr(lib, f"{decoration[0]}{name}{decoration[1]}", None)


def loaded_openblas():
    """(file name, library, decoration) of every OpenBLAS mapped into this
    process, its decoration the first whose thread-count routines it exports."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh})
    except OSError:
        return []
    libs = []
    for path in paths:
        if "openblas" not in Path(path).name or ".so" not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # unmapped since, or not loadable by path
            continue
        for decoration in OPENBLAS_DECORATIONS:
            if all(openblas_routine(lib, decoration, name) for name in _THREAD_ROUTINES):
                libs.append((Path(path).name, lib, decoration))
                break
    return libs


def blas_libraries():
    """(file name, getter, setter) of the thread count of every loaded OpenBLAS."""
    libs = []
    for name, lib, decoration in loaded_openblas():
        getter, setter = (openblas_routine(lib, decoration, n) for n in _THREAD_ROUTINES)
        getter.argtypes, getter.restype = (), ctypes.c_int
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        libs.append((name, getter, setter))
    return libs


def blas_thread_counts():
    """Thread count each loaded OpenBLAS will use, by library file name."""
    return {name: getter() for name, getter, _ in blas_libraries()}


@contextmanager
def blas_threads(n):
    """Run the body with every loaded OpenBLAS at ``n`` threads, then restore.

    Each library gets back the count it had on entry, also when the body
    raises. With no OpenBLAS found this logs one line and changes nothing.
    """
    libs = blas_libraries()
    if not libs:
        log.info("no OpenBLAS thread control found; BLAS threads left as they are")
    saved = [(setter, getter()) for _, getter, setter in libs]
    try:
        for setter, _ in saved:
            setter(n)
        yield
    finally:
        for setter, count in saved:
            setter(count)
