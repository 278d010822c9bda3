"""Mean-rank comparison of classifiers across datasets.

Friedman chi-square and its F correction, the Nemenyi critical
difference from an embedded table of critical values (Studentized range
at infinite degrees of freedom divided by sqrt(2), the standard
reference table), and pairwise better/worse/none calls. A mean-rank gap
exactly equal to the critical difference counts as significant (the
comparison is inclusive).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import fdtri

from .numerics import average_ranks

# critical values q_alpha for 2..20 compared methods
Q_TABLE = {
    0.05: (
        1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164,
        3.219, 3.268, 3.313, 3.354, 3.391, 3.426, 3.458, 3.489, 3.517, 3.544,
    ),
    0.10: (
        1.645, 2.052, 2.291, 2.459, 2.589, 2.693, 2.780, 2.855, 2.920,
        2.978, 3.030, 3.077, 3.120, 3.159, 3.196, 3.230, 3.261, 3.291, 3.319,
    ),
}


@dataclass
class RankTable:
    """Per-dataset accuracies and ranks (1 = best, ties averaged)."""

    accuracy: np.ndarray  # M datasets x m methods
    ranks: np.ndarray  # M x m
    mean_ranks: np.ndarray  # length m
    methods: tuple = ()

    @property
    def n_datasets(self):
        return self.accuracy.shape[0]

    @property
    def n_methods(self):
        return self.accuracy.shape[1]


@dataclass
class SignificanceMatrix:
    """entry[i, j] is better/worse/none for method i against method j."""

    entries: np.ndarray  # m x m object array of strings
    cd: float


def rank_rows(accuracy, methods=()):
    """Rank methods within each dataset, highest accuracy first.

    Rank 1 is the best method of a row and tied accuracies share the
    mean of their ranks (:func:`randnet.numerics.average_ranks` on the
    negated row). A NaN or Inf accuracy raises ``ValueError`` rather
    than turning the Friedman statistic into NaN.
    """
    accuracy = np.asarray(accuracy, dtype=np.float64)
    if accuracy.ndim != 2 or accuracy.shape[0] < 2 or accuracy.shape[1] < 2:
        raise ValueError("need at least 2 datasets and 2 methods")
    ranks = np.vstack([average_ranks(-row) for row in accuracy])
    return RankTable(accuracy, ranks, ranks.mean(axis=0), tuple(methods))


def _mean_ranks(mean_ranks):
    """The mean ranks as a float array and their count m."""
    mean_ranks = np.asarray(mean_ranks, dtype=np.float64)
    if mean_ranks.ndim != 1:
        raise ValueError(f"expected a 1-D array of mean ranks, got shape {mean_ranks.shape}")
    return mean_ranks, len(mean_ranks)


def friedman_chi2(mean_ranks, M):
    """chi2 = 12 M / (m (m + 1)) * (sum R_j^2 - m (m + 1)^2 / 4) over m methods."""
    mean_ranks, m = _mean_ranks(mean_ranks)
    if M < 2 or m < 2:
        raise ValueError("need M >= 2 datasets and m >= 2 methods")
    return float(
        12.0 * M / (m * (m + 1.0))
        * (np.sum(mean_ranks**2) - m * (m + 1.0) ** 2 / 4.0)
    )


def friedman_f(chi2, M, m):
    """F correction (M - 1) chi2 / (M (m - 1) - chi2) with its degrees of freedom.

    Returns (value, (m - 1, (m - 1)(M - 1))). chi2 reaches its maximum
    M (m - 1) when every dataset ranks the methods in the same strict
    order; F grows without bound as chi2 approaches it (Demsar, 2006), so
    there, or beyond it by rounding, the value is inf and the test rejects.
    """
    denom = M * (m - 1.0) - chi2
    value = (M - 1.0) * chi2 / denom if denom > 0 else np.inf
    return float(value), (m - 1, (m - 1) * (M - 1))


def f_critical(dof1, dof2, alpha=0.05):
    """Upper critical value of the F distribution with (dof1, dof2) degrees of freedom.

    The 1 - alpha quantile from ``scipy.special.fdtri`` (an inverse of
    the regularized incomplete beta function). The ``f.ppf`` of scipy's
    stats subpackage calls the same function with scale 1 and loc 0, so
    the value is bitwise the same.
    """
    return float(fdtri(dof1, dof2, 1.0 - alpha))


def nemenyi_q(m, alpha=0.05):
    if alpha not in Q_TABLE:
        raise ValueError(f"alpha must be one of {sorted(Q_TABLE)}, got {alpha}")
    if not 2 <= m <= 20:
        raise ValueError(f"critical values embedded for 2..20 methods, got {m}")
    return Q_TABLE[alpha][m - 2]


def nemenyi_cd(m, M, alpha=0.05):
    """CD = q_alpha * sqrt(m (m + 1) / (6 M))."""
    if M < 1:
        raise ValueError(f"need at least one dataset, got {M}")
    return nemenyi_q(m, alpha) * float(np.sqrt(m * (m + 1.0) / (6.0 * M)))


def pairwise_significance(mean_ranks, M, alpha=0.05):
    """better/worse where mean ranks differ by at least the critical difference."""
    mean_ranks, m = _mean_ranks(mean_ranks)
    cd = nemenyi_cd(m, M, alpha)
    entries = np.full((m, m), "none", dtype=object)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            gap = mean_ranks[i] - mean_ranks[j]
            if abs(gap) >= cd:
                entries[i, j] = "better" if gap < 0 else "worse"
    return SignificanceMatrix(entries, cd)


def significance_marks(sig):
    """Table view: s+ for better, s- for worse, blank otherwise."""
    marks = {"better": "s+", "worse": "s-", "none": ""}
    return np.vectorize(marks.get)(sig.entries)


def rank_report(table, alpha=0.05):
    """Everything cmd_stats prints: ranks, chi2, F, dof, critical values, CD."""
    M, m = table.n_datasets, table.n_methods
    chi2 = friedman_chi2(table.mean_ranks, M)
    f_value, dof = friedman_f(chi2, M, m)
    sig = pairwise_significance(table.mean_ranks, M, alpha)
    return {
        "chi2": chi2,
        "f_value": f_value,
        "dof": dof,
        "f_critical": f_critical(*dof, alpha=alpha),
        "cd": sig.cd,
        "alpha": alpha,
        "significance": sig,
    }


def report_markdown(table, report):
    """Human-readable summary mirroring the rank and significance tables."""
    lines = []
    names = table.methods or tuple(f"m{i}" for i in range(table.n_methods))
    order = np.argsort(table.mean_ranks)
    lines.append("| Method | Mean rank |")
    lines.append("| --- | --- |")
    for i in order:
        lines.append(f"| {names[i]} | {table.mean_ranks[i]:.4g} |")
    lines.append("")
    dof1, dof2 = report["dof"]
    lines.append(
        f"Friedman chi2 = {report['chi2']:.4f}, F = {report['f_value']:.4f} "
        f"with dof ({dof1}, {dof2}); critical F at alpha {report['alpha']} "
        f"= {report['f_critical']:.4f}; Nemenyi CD = {report['cd']:.4f}"
    )
    lines.append("")
    marks = significance_marks(report["significance"])
    header = "| |" + "|".join(names) + "|"
    lines.append(header)
    lines.append("| --- |" + "|".join("---" for _ in names) + "|")
    for i, name in enumerate(names):
        lines.append(f"| {name} |" + "|".join(marks[i]) + "|")
    return "\n".join(lines) + "\n"
