"""Hyperparameter grids, validation-based selection, and evaluation metrics.

Selection never sees test rows: candidates are scored with the train
and validation partitions only, and the test slice is read strictly
after the winning configuration is fixed.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import PARTITION_ROLES
from .methods import (check_param, group_key, hidden_nodes, predict_group, predict_method,
                      resolve_params, train_group, train_method)
from .numerics import average_ranks

C_EXPONENTS = (-7, -5, -3, -1, 1, 3, 5, 7)


# the GridSpec field holding each searchable param's values
GRID_FIELDS = {"ae_width": "ae_widths", "clf_width": "clf_widths", "C": "C_values",
               "sigma": "sigma_values", "noise": "noise_values"}


@dataclass
class GridSpec:
    """Default search axes.

    ae_widths 10..200 step 10, classifier widths 100..2000 step 100,
    C (and kernel sigma) on the 10^x grid for odd x in [-7, 7], noise
    levels for the denoising variants. search is "stagewise" (the
    default; autoencoder axes first with the classifier pinned at 500
    nodes and C = 1, then classifier axes) or "full" for the complete
    cartesian product.
    """

    ae_widths: tuple = tuple(range(10, 201, 10))
    clf_widths: tuple = tuple(range(100, 2001, 100))
    C_values: tuple = tuple(10.0 ** x for x in C_EXPONENTS)
    sigma_values: tuple = tuple(10.0 ** x for x in C_EXPONENTS)
    noise_values: tuple = (0.05, 0.1, 0.15, 0.3, 0.5, 0.75)
    search: str = "stagewise"

    def __post_init__(self):
        for param, name in GRID_FIELDS.items():
            if not len(getattr(self, name)):
                raise ValueError(f"grid axis {name} is empty")
            for value in getattr(self, name):
                check_param(param, value)
        if self.search not in ("stagewise", "full"):
            raise ValueError(f"unknown search policy {self.search!r}")

    def axis(self, param):
        return getattr(self, GRID_FIELDS[param])


@dataclass
class EvalResult:
    dataset: str
    method: str
    params: dict
    val_accuracy: float
    test_accuracy: float
    auc: float | None
    hidden_nodes: int
    train_time_ms: float
    error: str | None = None


def accuracy(labels_true, labels_pred):
    labels_true = np.asarray(labels_true)
    labels_pred = np.asarray(labels_pred)
    if labels_true.shape != labels_pred.shape:
        raise ValueError("label vectors differ in length")
    return float(np.mean(labels_true == labels_pred))


def auc(scores, labels):
    """Mann-Whitney AUC: P(score_pos > score_neg) + P(equal) / 2.

    Computed from average ranks, which handles ties exactly; a NaN or
    Inf score raises ``ValueError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = average_ranks(scores)
    pos_rank_sum = float(np.sum(ranks[labels == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def expand_grid(grid, method, base_params=None):
    """Full cartesian grid over the axes the method uses, deterministic order."""
    configs = [resolve_params(method, base_params)]
    for axis in method.axes:
        configs = [dict(c, **{axis: v}) for c in configs for v in grid.axis(axis)]
    return configs


def evaluate_fixed(ds, method, params, seed, fit_roles=("train",),
                   score_roles=("validation", "test")):
    """Train on fit_roles at fixed hyperparameters; score each present score role.

    Returns (model, EvalResult); an absent role scores nan, and AUC is
    reported for the test role of a binary dataset when it holds both
    classes (None otherwise).
    """
    params = resolve_params(method, params)
    idx = np.concatenate([ds.partitions[role] for role in fit_roles])
    t0 = time.perf_counter()
    model = train_method(method, params, ds.X[idx], ds.Y[idx], seed)
    train_ms = (time.perf_counter() - t0) * 1000.0
    acc = {"validation": float("nan"), "test": float("nan")}
    auc_value = None
    for role in score_roles:
        if role in ds.partitions:
            X, _, y = ds.part(role)
            scores, pred = predict_method(model, X)
            acc[role] = accuracy(y, pred)
            if role == "test" and ds.n_classes == 2 and np.unique(y).size == 2:
                auc_value = auc(scores[:, 1], y)
    res = EvalResult(
        dataset=ds.name, method=method.name,
        params={k: params[k] for k in sorted(method.axes)},
        val_accuracy=acc["validation"], test_accuracy=acc["test"], auc=auc_value,
        hidden_nodes=hidden_nodes(method, params), train_time_ms=train_ms)
    return model, res


def grid_search(ds, method, grid, seeds, base_params=None,
                retrain_with_validation=False, map_fn=map):
    """Pick hyperparameters on validation accuracy, then evaluate on test.

    Candidates are trained on the train split with seeds[0] and scored
    on validation; the winner (ties: fewer hidden nodes, then earlier
    grid order) is retrained once per seed (optionally on train plus
    validation) and the test accuracy is averaged over seeds. Every fit,
    each candidate group and each seed's retrain, is a task of ``map_fn``
    (builtin ``map``'s contract), which a worker pool may run concurrently.
    """
    for role in PARTITION_ROLES:
        if role not in ds.partitions:
            raise ValueError(f"dataset {ds.name!r} has no {role!r} partition")
    base = resolve_params(method, base_params)
    Xtr, Ytr, _ = ds.part("train")
    Xva, _, yva = ds.part("validation")

    def pick(axes, stage_base):
        # (score, params) of the best candidate: max keeps the first of
        # equal keys, so ties fall to fewer hidden nodes, then grid order
        candidates = expand_grid(grid, replace(method, axes=axes), stage_base)
        scores = grouped_accuracy(method, candidates, Xtr, Ytr, Xva, yva, seeds[0],
                                  map_fn=map_fn)
        return max(zip(scores, candidates),
                   key=lambda sc: (sc[0], -hidden_nodes(method, sc[1])))

    if grid.search == "full" or "ae_width" not in method.axes:
        # shallow and kernel methods have a single stage either way
        score, params = pick(method.axes, base)
    else:
        # every axis but the classifier width with the classifier pinned,
        # then the classifier axes from the stage-1 winner
        _, params = pick(tuple(a for a in method.axes if a != "clf_width"),
                         dict(base, clf_width=500, C=1.0))
        score, params = pick(tuple(a for a in method.axes if a in ("clf_width", "C")),
                             params)

    # selection is complete; only now may test rows be read
    fit_roles = ("train", "validation") if retrain_with_validation else ("train",)
    runs = list(map_fn(lambda seed: evaluate_fixed(ds, method, params, seed, fit_roles,
                                                   ("test",))[1], seeds))
    return replace(
        runs[0],
        val_accuracy=score,
        test_accuracy=float(np.mean([r.test_accuracy for r in runs])),
        auc=None if runs[0].auc is None else float(np.mean([r.auc for r in runs])),
        train_time_ms=float(np.mean([r.train_time_ms for r in runs])),
    )


def grouped_accuracy(method, candidates, X, Y, X_score, y_score, seed, map_fn=map):
    """Accuracy on (X_score, y_score) of each candidate trained on (X, Y).

    Candidates with one group_key are fitted together (train_group: a C
    path for shallow methods, one autoencoder stack for every classifier
    width of a deep method) and scored together (predict_group); the
    accuracies are bitwise those of fitting each candidate alone. Each
    group is one ``map_fn`` task whose models die with it.
    """
    groups = {}
    for i, params in enumerate(candidates):
        groups.setdefault(group_key(method, params), []).append(i)

    def group_accuracy(members):
        models = train_group(method, [candidates[i] for i in members], X, Y, seed)
        return [accuracy(y_score, pred) for _, pred in predict_group(models, X_score)]

    scores = [None] * len(candidates)
    for members, accs in zip(groups.values(), map_fn(group_accuracy, groups.values())):
        for i, acc in zip(members, accs):
            scores[i] = acc
    return scores
