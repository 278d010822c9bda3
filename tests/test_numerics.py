import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from randnet.numerics import (
    NumericError,
    RngState,
    ShapeError,
    activate,
    average_ranks,
    concat_cols,
    derive_seed,
)


def test_uniform_range_and_shape():
    m = RngState(1).uniform(3, 4, -1.0, 1.0)
    assert m.shape == (3, 4)
    assert np.all(np.isfinite(m))
    assert np.all((m >= -1.0) & (m <= 1.0))


def test_uniform_rejects_empty_interval():
    with pytest.raises(ValueError):
        RngState(0).uniform(2, 2, 0.0, 0.0)
    with pytest.raises(ValueError):
        RngState(0).uniform(2, 2, 1.0, -1.0)


def test_uniform_rejects_bad_shape():
    with pytest.raises(ValueError):
        RngState(0).uniform(0, 3)


def test_uniform_deterministic():
    a = RngState(42).uniform(5, 5)
    b = RngState(42).uniform(5, 5)
    np.testing.assert_array_equal(a, b)


def test_gaussian_zero_std_is_constant():
    m = RngState(0).gaussian(2, 2, mean=0.0, std=0.0)
    np.testing.assert_array_equal(m, np.zeros((2, 2)))


def test_gaussian_rejects_negative_std():
    with pytest.raises(ValueError):
        RngState(0).gaussian(2, 2, std=-1.0)


def test_gaussian_moments():
    # 1e5 draws: standard error of the mean is ~0.0032, of the std ~0.0022
    m = RngState(7).gaussian(1000, 100, mean=0.0, std=1.0)
    assert abs(m.mean()) < 0.02
    assert abs(m.std() - 1.0) < 0.02


def test_gaussian_deterministic():
    a = RngState(9).gaussian(4, 4)
    b = RngState(9).gaussian(4, 4)
    np.testing.assert_array_equal(a, b)


def test_spawn_independent_of_parent_draws():
    parent = RngState(5)
    child_before = parent.spawn("layer", 0)
    parent.uniform(10, 10)
    child_after = parent.spawn("layer", 0)
    np.testing.assert_array_equal(
        child_before.uniform(3, 3), child_after.uniform(3, 3)
    )


def test_spawn_distinct_labels_distinct_streams():
    a = RngState(5).spawn("layer", 0).uniform(3, 3)
    b = RngState(5).spawn("layer", 1).uniform(3, 3)
    assert np.any(a != b)


def test_derive_seed_stable():
    assert derive_seed(42, "layer", 0) == derive_seed(42, "layer", 0)
    assert derive_seed(42, "layer", 0) != derive_seed(43, "layer", 0)


def test_activate_sigmoid_midpoint():
    out = activate("sigmoid", np.array([[0.0]]))
    assert out[0, 0] == 0.5


def test_activate_linear_identity():
    m = RngState(0).uniform(3, 3)
    np.testing.assert_array_equal(activate("linear", m), m)


def test_activate_relu():
    out = activate("relu", np.array([[-3.0, 3.0]]))
    np.testing.assert_array_equal(out, np.array([[0.0, 3.0]]))


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "linear"])
def test_activate_preserves_shape(name):
    m = RngState(3).gaussian(4, 7)
    assert activate(name, m).shape == (4, 7)


def test_activate_unknown_name():
    with pytest.raises(ValueError):
        activate("softplus", np.zeros((1, 1)))


def test_concat_cols_dimensions():
    a = np.ones((4, 2))
    b = np.zeros((4, 3))
    out = concat_cols([a, b])
    assert out.shape == (4, 5)
    np.testing.assert_array_equal(out[:, :2], a)
    np.testing.assert_array_equal(out[:, 2:], b)


def test_concat_cols_single_part_identity():
    a = np.ones((2, 2))
    assert concat_cols([a]) is a


def test_concat_cols_rejects_empty():
    with pytest.raises(ShapeError):
        concat_cols([])


def test_concat_cols_rejects_row_mismatch():
    with pytest.raises(ShapeError):
        concat_cols([np.ones((2, 2)), np.ones((3, 2))])


def test_concat_then_slice_roundtrip():
    rng = RngState(11)
    a = rng.uniform(6, 3)
    b = rng.uniform(6, 4)
    out = concat_cols([a, b])
    np.testing.assert_array_equal(out[:, :3], a)
    np.testing.assert_array_equal(out[:, 3:], b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-3, 3).map(float) | st.sampled_from([-0.0, 0.5, -2.5]),
                min_size=1, max_size=60))
def test_average_ranks_bitwise_rankdata(values):
    # a few distinct values make long runs of ties; -0.0 must tie with 0.0
    x = np.array(values)
    ours, ref = average_ranks(x), rankdata(x, method="average")
    assert ours.dtype == ref.dtype
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_average_ranks_rejects_non_finite(bad):
    with pytest.raises(NumericError, match="NaN or Inf"):
        average_ranks([0.5, bad, 0.1])


def test_average_ranks_rejects_2d():
    with pytest.raises(ShapeError):
        average_ranks(np.zeros((2, 2)))
