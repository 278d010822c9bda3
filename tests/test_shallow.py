import numpy as np
import pytest

from randnet.data import one_hot
from randnet.numerics import RngState, ShapeError
from randnet.shallow import elm_train, kelm_train, predict, rvfl_train
from randnet.solvers import KernelSpec, ridge_dual
from randnet.synthetic import separable_blobs

from oracles import perceptron_separable


@pytest.fixture(scope="module")
def blobs():
    ds = separable_blobs(n=200, seed=0)
    return ds.X, ds.Y, ds.labels


def test_blobs_certified_separable(blobs):
    X, _, labels = blobs
    assert perceptron_separable(X, np.where(labels == 1, 1, -1))


def test_rvfl_perfect_on_separable(blobs):
    X, Y, labels = blobs
    model = rvfl_train(X, Y, width=50, lam=1e-4, seed=3)
    _, pred = predict(model, X)
    assert np.mean(pred == labels) == 1.0


def test_rvfl_weight_rows(blobs):
    X = RngState(0).gaussian(40, 8)
    Y = one_hot(np.arange(40) % 3, 3)
    model = rvfl_train(X, Y, width=100, lam=0.1, seed=1)
    assert model.weights.shape == (108, 3)


def test_rvfl_deterministic(blobs):
    X, Y, _ = blobs
    a = rvfl_train(X, Y, width=30, lam=0.1, seed=7)
    b = rvfl_train(X, Y, width=30, lam=0.1, seed=7)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_elm_is_rvfl_without_direct_links(blobs):
    X, Y, _ = blobs
    elm = elm_train(X, Y, width=25, lam=0.1, seed=5)
    rvfl = rvfl_train(X, Y, width=25, lam=0.1, seed=5, direct_links=False)
    np.testing.assert_array_equal(elm.weights, rvfl.weights)
    np.testing.assert_array_equal(elm.layer.W, rvfl.layer.W)
    assert elm.weights.shape[0] == 25


def test_elm_perfect_on_separable(blobs):
    X, Y, labels = blobs
    model = elm_train(X, Y, width=50, lam=1e-4, seed=3)
    _, pred = predict(model, X)
    assert np.mean(pred == labels) == 1.0


def test_kelm_linear_matches_dual_ridge(blobs):
    X, Y, _ = blobs
    lam = 0.5
    model = kelm_train(X, Y, KernelSpec("linear"), lam)
    scores, _ = predict(model, X)
    np.testing.assert_allclose(scores, X @ ridge_dual(X, Y, lam), atol=1e-8)


def test_kelm_alpha_rows_match_samples(blobs):
    X, Y, _ = blobs
    model = kelm_train(X, Y, KernelSpec("rbf", sigma=1.0), 0.1)
    assert model.kernel_map.alpha.shape == (X.shape[0], Y.shape[1])


def test_kelm_single_point():
    X = np.array([[0.3, -0.2]])
    Y = np.array([[1.0, 0.0]])
    lam = 0.5
    model = kelm_train(X, Y, KernelSpec("rbf", sigma=1.0), lam)
    scores, _ = predict(model, X)
    np.testing.assert_allclose(scores, Y / (1.0 + lam))


def test_predict_argmax_and_tie_rule():
    assert np.argmax(np.array([[0.2, 0.9, -0.1]]), axis=1)[0] == 1
    assert np.argmax(np.array([[0.5, 0.5]]), axis=1)[0] == 0


def test_predict_shape_mismatch(blobs):
    X, Y, _ = blobs
    model = rvfl_train(X, Y, width=10, lam=0.1, seed=0)
    with pytest.raises(ShapeError):
        predict(model, np.ones((3, 5)))


def test_score_scaling_invariance(blobs):
    X, Y, labels = blobs
    a = rvfl_train(X, Y, width=30, lam=0.1, seed=9)
    b = rvfl_train(X, 10.0 * Y, width=30, lam=0.1, seed=9)
    sa, la = predict(a, X)
    sb, lb = predict(b, X)
    np.testing.assert_allclose(sb, 10.0 * sa, rtol=1e-9)
    np.testing.assert_array_equal(la, lb)


def test_train_accuracy_nondecreasing_in_width(blobs):
    X, Y, labels = blobs
    means = []
    for width in (5, 20, 50):
        accs = []
        for seed in range(10):
            model = rvfl_train(X, Y, width=width, lam=1e-4, seed=seed)
            _, pred = predict(model, X)
            accs.append(np.mean(pred == labels))
        means.append(np.mean(accs))
    assert means[0] <= means[1] + 1e-12
    assert means[1] <= means[2] + 1e-12
