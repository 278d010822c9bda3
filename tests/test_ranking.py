import numpy as np
import pytest
from scipy.stats import f, studentized_range

from randnet.ranking import (
    Q_TABLE,
    f_critical,
    friedman_chi2,
    friedman_f,
    nemenyi_cd,
    nemenyi_q,
    pairwise_significance,
    rank_report,
    rank_rows,
    report_markdown,
    significance_marks,
)

# jointly computed mean ranks of all fifteen methods, best first
JOINT_RANKS = (3.1, 3.72, 3.87, 5.15, 5.22, 5.92, 6.62, 7.62, 8.5,
               10.15, 10.6, 11.22, 12.25, 12.95, 13.07)


def test_rank_rows_strict_ordering():
    t = rank_rows(np.array([[0.9, 0.8, 0.7], [0.7, 0.8, 0.9]]))
    np.testing.assert_array_equal(t.ranks[0], [1, 2, 3])
    np.testing.assert_array_equal(t.ranks[1], [3, 2, 1])


def test_rank_rows_rejects_nan_accuracy():
    # a NaN row would make every mean rank, and so chi2 and F, NaN
    with pytest.raises(ValueError, match="NaN or Inf"):
        rank_rows(np.array([[0.9, np.nan, 0.7], [0.7, 0.8, 0.9]]))


def test_rank_rows_tie_averaging():
    t = rank_rows(np.array([[0.9, 0.9, 0.7], [0.5, 0.6, 0.7]]))
    np.testing.assert_array_equal(t.ranks[0], [1.5, 1.5, 3])


def test_rank_rows_total_tie():
    t = rank_rows(np.array([[0.5, 0.5, 0.5, 0.5]] * 2))
    np.testing.assert_array_equal(t.ranks[0], [2.5] * 4)


def test_rank_rows_row_sums():
    rng = np.random.Generator(np.random.PCG64(0))
    acc = rng.uniform(0, 1, (6, 5))
    t = rank_rows(acc)
    np.testing.assert_allclose(t.ranks.sum(axis=1), np.full(6, 5 * 6 / 2))


def test_rank_rows_monotone_transform_invariance():
    rng = np.random.Generator(np.random.PCG64(1))
    acc = rng.uniform(0, 1, (5, 4))
    a = rank_rows(acc).ranks
    b = rank_rows(np.exp(3.0 * acc)).ranks
    np.testing.assert_array_equal(a, b)


def test_friedman_chi2_reported_values():
    assert friedman_chi2((3.9, 2.75, 1.8, 1.55), 20) == pytest.approx(40.98, abs=0.01)
    assert friedman_chi2((3.8, 2.95, 1.8, 1.45), 20) == pytest.approx(41.82, abs=0.01)
    assert friedman_chi2((3.77, 2.65, 1.95, 1.62), 20) == pytest.approx(31.95, abs=0.05)
    assert friedman_chi2(JOINT_RANKS, 20) == pytest.approx(171.24, abs=0.01)


def test_friedman_chi2_null_configuration():
    assert friedman_chi2((2.5, 2.5, 2.5, 2.5), 20) == pytest.approx(0.0, abs=1e-12)


def test_friedman_chi2_nonnegative():
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(20):
        acc = rng.uniform(0, 1, (6, 4))
        t = rank_rows(acc)
        assert friedman_chi2(t.mean_ranks, 6) >= -1e-12


@pytest.mark.parametrize("ranks", [np.full((4, 1), 2.5), np.full((2, 2), 1.5), np.float64(1.0)],
                         ids=["column", "matrix", "scalar"])
def test_mean_ranks_must_be_one_dimensional(ranks):
    # m is read from the mean ranks, so a table of another shape is refused
    with pytest.raises(ValueError, match="expected a 1-D array of mean ranks"):
        friedman_chi2(ranks, 20)
    with pytest.raises(ValueError, match="expected a 1-D array of mean ranks"):
        pairwise_significance(ranks, 20)


def test_friedman_f_reported_values():
    f1, dof1 = friedman_f(40.98, 20, 4)
    assert f1 == pytest.approx(40.93, abs=0.05)
    assert dof1 == (3, 57)
    f2, _ = friedman_f(41.82, 20, 4)
    assert f2 == pytest.approx(43.7, abs=0.05)
    f3, dof3 = friedman_f(171.24, 20, 15)
    assert f3 == pytest.approx(29.91, abs=0.05)
    assert dof3 == (14, 266)


def test_friedman_f_zero_and_saturation():
    value, _ = friedman_f(0.0, 20, 4)
    assert value == 0.0
    # chi2 = M (m - 1): every dataset ranks the methods alike, F is unbounded
    assert friedman_f(60.0, 20, 4) == (np.inf, (3, 57))


def test_f_critical_matches_reported():
    assert f_critical(3, 57) == pytest.approx(2.76, abs=0.01)
    assert f_critical(14, 266) == pytest.approx(1.72, abs=0.01)


def test_q_table_pinned_entries():
    assert nemenyi_q(4, 0.05) == 2.569
    assert nemenyi_q(15, 0.05) == 3.391


def test_q_table_matches_studentized_range():
    # embedded entries are q/sqrt(2) rounded to three decimals
    for alpha, row in Q_TABLE.items():
        for m, expected in zip(range(2, 21), row):
            q = studentized_range.ppf(1 - alpha, m, 1e9) / np.sqrt(2.0)
            assert q == pytest.approx(expected, abs=2e-3), (alpha, m)


def test_nemenyi_cd_reported_values():
    assert nemenyi_cd(4, 20, 0.05) == pytest.approx(1.04, abs=0.01)
    assert nemenyi_cd(15, 20, 0.05) == pytest.approx(4.79, abs=0.01)


def test_nemenyi_cd_vanishes_with_many_datasets():
    assert nemenyi_cd(4, 10**9, 0.05) < 1e-3


def test_nemenyi_cd_rejects_unsupported():
    with pytest.raises(ValueError):
        nemenyi_cd(4, 20, alpha=0.01)
    with pytest.raises(ValueError):
        nemenyi_cd(25, 20, alpha=0.05)


def test_pairwise_boundary_is_inclusive():
    cd = nemenyi_cd(2, 6, 0.05)
    sig = pairwise_significance((1.0, 1.0 + cd), 6)
    assert sig.entries[0, 1] == "better"
    assert sig.entries[1, 0] == "worse"


def test_pairwise_equal_ranks_none():
    sig = pairwise_significance((2.0, 2.0, 5.0), 20)
    assert sig.entries[0, 1] == "none"
    assert sig.entries[1, 0] == "none"


def test_pairwise_antisymmetry():
    rng = np.random.Generator(np.random.PCG64(3))
    ranks = np.sort(rng.uniform(1, 15, 15))
    sig = pairwise_significance(ranks, 20)
    flip = {"better": "worse", "worse": "better", "none": "none"}
    for i in range(15):
        for j in range(15):
            assert sig.entries[j, i] == flip[sig.entries[i, j]]


def test_joint_significance_matrix_regression():
    # the full fifteen-method better/worse pattern at CD 4.79
    sig = pairwise_significance(JOINT_RANKS, 20, 0.05)
    marks = significance_marks(sig)
    expected = np.full((15, 15), "", dtype=object)

    def plus(row, cols):
        for c in cols:
            expected[row, c] = "s+"
            expected[c, row] = "s-"

    plus(0, range(8, 15))
    plus(1, range(9, 15))
    plus(2, range(9, 15))
    plus(3, range(9, 15))
    plus(4, range(9, 15))
    plus(5, range(11, 15))
    plus(6, range(12, 15))
    plus(7, range(13, 15))
    np.testing.assert_array_equal(marks, expected)


def test_rank_report_and_markdown_roundtrip():
    acc = np.array([
        [0.9, 0.8, 0.7, 0.6],
        [0.85, 0.8, 0.75, 0.6],
        [0.9, 0.7, 0.8, 0.5],
    ])
    t = rank_rows(acc, methods=("a", "b", "c", "d"))
    report = rank_report(t)
    assert report["chi2"] == pytest.approx(
        friedman_chi2(t.mean_ranks, 3)
    )
    text = report_markdown(t, report)
    assert "Mean rank" in text
    assert "Nemenyi CD" in text


@pytest.mark.parametrize("alpha", [0.05, 0.10])
def test_f_critical_bitwise_f_ppf(alpha):
    # fdtri is the function f.ppf evaluates (with scale 1 and loc 0)
    d2 = np.arange(1, 401)
    for d1 in range(1, 20):
        ref = f.ppf(1.0 - alpha, d1, d2)
        ours = np.array([f_critical(d1, int(n), alpha) for n in d2])
        assert ours.tobytes() == ref.tobytes(), d1
