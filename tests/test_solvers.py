import io
import logging
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from randnet import numerics, solvers
from randnet.numerics import NumericError, RngState, ShapeError, blas_libraries, blas_threads
from randnet.shallow import rvfl_train
from randnet.solvers import (
    ElasticNetConfig,
    KernelSpec,
    L1Config,
    RidgeConfig,
    admm_elastic_net,
    elastic_net_objective,
    fista_lasso,
    fit_kernel_map,
    kernel_matrix,
    krr_fit,
    lasso_objective,
    pinv_solve,
    ridge_dual,
    ridge_primal,
    ridge_solve,
    spectral_norm,
)

from oracles import lasso_coordinate_descent, lasso_objective_value, ridge_one_lam, shifted_solve


def random_problem(seed, n, p, k=3):
    rng = RngState(seed)
    return rng.gaussian(n, p), rng.gaussian(n, k)


# ---------------------------------------------------------------- ridge


def test_ridge_primal_identity_design():
    D = np.eye(2)
    Y = np.array([[1.0], [2.0]])
    beta = ridge_primal(D, Y, [1.0])[0]
    np.testing.assert_allclose(beta, np.array([[0.5], [1.0]]))


def test_ridge_rejects_nonpositive_lambda():
    D, Y = random_problem(0, 10, 3)
    with pytest.raises(ValueError):
        ridge_primal(D, Y, [0.0])
    with pytest.raises(ValueError):
        ridge_dual(D, Y, [-1.0])


def test_ridge_rejects_nonfinite():
    D, Y = random_problem(0, 10, 3)
    D[0, 0] = np.nan
    with pytest.raises(NumericError):
        ridge_primal(D, Y, [1.0])


def test_primal_dual_agree():
    for seed in range(5):
        D, Y = random_problem(seed, 50, 10)
        bp = ridge_primal(D, Y, [0.1])[0]
        bd = ridge_dual(D, Y, [0.1])[0]
        assert np.linalg.norm(bp - bd) <= 1e-8 * max(1.0, np.linalg.norm(bp))


def test_ridge_dual_single_sample():
    D = np.array([[1.0, 2.0, 2.0]])
    Y = np.array([[3.0]])
    beta = ridge_dual(D, Y, [1.0])[0]
    expected = D.T * 3.0 / (9.0 + 1.0)
    np.testing.assert_allclose(beta, expected)


def test_ridge_auto_dispatch_matches_both():
    D, Y = random_problem(3, 20, 40)  # n < p, auto picks dual
    auto = ridge_solve(D, Y, [0.5])[0]
    np.testing.assert_array_equal(auto, ridge_dual(D, Y, [0.5])[0])
    D2, Y2 = random_problem(4, 40, 20)
    auto2 = ridge_solve(D2, Y2, [0.5])[0]
    np.testing.assert_array_equal(auto2, ridge_primal(D2, Y2, [0.5])[0])


def test_zero_lam_is_rejected():
    # lam = 0 is the pseudoinverse, which only pinv_solve computes
    D, Y = random_problem(6, 20, 40)
    with pytest.raises(ValueError, match="lam must be > 0"):
        ridge_solve(D, Y, [0.0])
    with pytest.raises(ValueError, match="lam must be > 0"):
        RidgeConfig(lam=0.0)
    with pytest.raises(ValueError, match="lam must be > 0"):
        rvfl_train(D, Y, width=5, lam=[0.0], seed=0)


# ----------------------------------------------------------- pseudoinverse


def test_pinv_orthonormal_square():
    q, _ = np.linalg.qr(RngState(1).gaussian(4, 4))
    Y = RngState(2).gaussian(4, 2)
    np.testing.assert_allclose(pinv_solve(q, Y), q.T @ Y, atol=1e-12)


def test_pinv_zero_design_gives_zero():
    beta = pinv_solve(np.zeros((5, 3)), np.ones((5, 2)))
    np.testing.assert_array_equal(beta, np.zeros((3, 2)))


def test_pinv_matches_tiny_ridge():
    D, Y = random_problem(5, 50, 10)
    b_pinv = pinv_solve(D, Y)
    b_ridge = ridge_primal(D, Y, [1e-12])[0]
    assert np.linalg.norm(b_pinv - b_ridge) <= 1e-6 * np.linalg.norm(b_pinv)


def test_pinv_residual_is_minimal():
    D, Y = random_problem(6, 30, 8)
    beta = pinv_solve(D, Y)
    base = np.linalg.norm(D @ beta - Y)
    rng = RngState(7)
    for _ in range(10):
        e = rng.gaussian(*beta.shape) * 1e-4
        assert np.linalg.norm(D @ (beta + e) - Y) >= base - 1e-12


# ---------------------------------------------------------------- kernels


@pytest.mark.parametrize("n, d", [(20, 5), (2000, 2), (1000, 60)])  # large: threaded syrk
def test_rbf_unit_diagonal_and_symmetry(n, d, blas):
    # numpy forms X X' by syrk, exactly symmetric at every BLAS thread
    # count; K(X, X) relies on that and averages no triangles
    X = RngState(8).gaussian(n, d)
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=1.5))
    np.testing.assert_array_equal(np.diag(K), np.ones(n))
    np.testing.assert_array_equal(K, K.T)
    eigmin = np.linalg.eigvalsh(K).min()
    assert eigmin >= -1e-8 * K.shape[0]


def test_linear_kernel_is_inner_product():
    X1 = RngState(9).gaussian(6, 4)
    X2 = RngState(10).gaussian(3, 4)
    np.testing.assert_array_equal(
        kernel_matrix(X1, X2, KernelSpec("linear")), X1 @ X2.T
    )


def test_rbf_large_sigma_limit():
    X = RngState(11).uniform(10, 3, -1.0, 1.0)
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=1e6))
    np.testing.assert_allclose(K, np.ones_like(K), atol=1e-6)


def test_kernel_dimension_mismatch():
    with pytest.raises(ShapeError):
        kernel_matrix(np.ones((2, 3)), np.ones((2, 4)), KernelSpec("linear"))


def test_krr_identity_kernel():
    Y = RngState(12).gaussian(5, 2)
    alpha = krr_fit(np.eye(5), Y, [1.0])[0]
    np.testing.assert_allclose(alpha, Y / 2.0)


def test_krr_linear_matches_dual_ridge():
    D, Y = random_problem(13, 25, 6)
    Dstar = RngState(14).gaussian(10, 6)
    lam = 0.3
    alpha = krr_fit(kernel_matrix(D, D, KernelSpec("linear")), Y, [lam])[0]
    pred_krr = kernel_matrix(Dstar, D, KernelSpec("linear")) @ alpha
    pred_ridge = Dstar @ ridge_dual(D, Y, [lam])[0]
    assert np.linalg.norm(pred_krr - pred_ridge) <= 1e-8 * np.linalg.norm(pred_ridge)


def test_krr_huge_lambda_shrinks():
    Y = RngState(15).gaussian(8, 2)
    X = RngState(16).gaussian(8, 3)
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=1.0))
    alpha = krr_fit(K, Y, [1e9])[0]
    np.testing.assert_allclose(alpha, Y / 1e9, rtol=1e-6)
    assert np.linalg.norm(K @ alpha) < 1e-6


def test_krr_rejects_asymmetric():
    K = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        krr_fit(K, np.ones((2, 1)), [1.0])


def test_spectral_norm_matches_svd():
    for seed in range(4):
        H = RngState(seed).gaussian(15, 8)
        exact = np.linalg.svd(H, compute_uv=False)[0]
        assert abs(spectral_norm(H) - exact) <= 1e-4 * exact


# ------------------------------------------------------------------ FISTA


def test_fista_orthonormal_analytic():
    # identity design, target 1, lam 1: w = soft(1, 1/2) = 0.5
    H = np.eye(1)
    T = np.array([[1.0]])
    res = fista_lasso(H, T, L1Config(lam=1.0, tol=1e-14))
    assert res.converged
    np.testing.assert_allclose(res.weights, np.array([[0.5]]), atol=1e-8)


def test_fista_full_shrinkage():
    H, T = random_problem(20, 12, 5, k=2)
    lam = 2.0 * np.max(np.abs(H.T @ T)) + 1.0
    res = fista_lasso(H, T, L1Config(lam=lam))
    np.testing.assert_array_equal(res.weights, np.zeros_like(res.weights))


def test_fista_matches_coordinate_descent_oracle():
    H, T = random_problem(21, 30, 8, k=2)
    lam = 0.5
    res = fista_lasso(H, T, L1Config(lam=lam, max_iters=5000))
    w_cd = lasso_coordinate_descent(H, T, lam)
    gap = abs(res.objective - lasso_objective_value(H, T, w_cd, lam))
    assert gap <= 1e-6


def test_fista_objective_monotone_and_final_below_initial():
    H, T = random_problem(22, 40, 12, k=3)
    res = fista_lasso(H, T, L1Config(lam=0.2, max_iters=300))
    hist = np.array(res.history)
    diffs = np.diff(hist)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1])))
    assert hist[-1] <= hist[0]


def test_fista_unconverged_flag():
    H, T = random_problem(23, 30, 10)
    res = fista_lasso(H, T, L1Config(lam=0.01, max_iters=2, tol=1e-16))
    assert not res.converged
    assert res.iterations == 2


# ------------------------------------------------------------------- ADMM


def test_admm_pure_l1_matches_fista():
    H, T = random_problem(24, 30, 8, k=2)
    lam = 0.5
    fista = fista_lasso(H, T, L1Config(lam=lam, max_iters=5000))
    admm = admm_elastic_net(H, T, ElasticNetConfig(lam=lam, alpha_mix=1.0))
    assert abs(fista.objective - admm.objective) <= 1e-5


def test_admm_pure_l2_matches_ridge():
    # alpha_mix 0 leaves lam/2 ||W||^2, i.e. ridge at lam/2
    H, T = random_problem(25, 30, 8, k=2)
    lam = 0.8
    admm = admm_elastic_net(H, T, ElasticNetConfig(lam=lam, alpha_mix=0.0))
    ridge = ridge_primal(H, T, [lam / 2.0])[0]
    assert np.linalg.norm(admm.weights - ridge) <= 1e-8 * np.linalg.norm(ridge)


def test_admm_huge_lambda_shrinks_to_zero():
    H, T = random_problem(26, 20, 6)
    res = admm_elastic_net(H, T, ElasticNetConfig(lam=1e8, alpha_mix=0.5))
    np.testing.assert_array_equal(res.weights, np.zeros_like(res.weights))


def test_admm_residuals_respect_tolerances():
    H, T = random_problem(27, 25, 7, k=2)
    cfg = ElasticNetConfig(lam=0.3, alpha_mix=0.4)
    res = admm_elastic_net(H, T, cfg)
    if res.converged:
        size = np.sqrt(res.weights.size)
        assert res.primal_residual <= cfg.tol * (
            size + np.linalg.norm(res.weights)
        ) + 1e-12
    else:
        assert res.iterations == cfg.max_iters


def test_admm_unconverged_flag():
    H, T = random_problem(28, 25, 7)
    res = admm_elastic_net(
        H, T, ElasticNetConfig(lam=0.3, max_iters=2, tol=1e-16)
    )
    assert not res.converged


def test_objective_helpers_agree_at_alpha_one():
    H, T = random_problem(29, 10, 4)
    W = RngState(30).gaussian(4, 3)
    assert abs(
        elastic_net_objective(H, T, W, 0.7, 1.0) - lasso_objective(H, T, W, 0.7)
    ) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        L1Config(lam=0.0)
    with pytest.raises(ValueError):
        ElasticNetConfig(lam=1.0, alpha_mix=1.5)
    with pytest.raises(ValueError):
        KernelSpec("rbf", sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec("quadratic")


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("make", [
    lambda tol: L1Config(lam=1.0, tol=tol),
    lambda tol: ElasticNetConfig(lam=1.0, tol=tol),
], ids=["l1_tol", "elastic_tol"])
def test_config_rejects_unreachable_tolerance(make, tol):
    # a tolerance that is not finite and > 0 can never be met, so the
    # solver would spend its whole budget and return unconverged
    with pytest.raises(ValueError, match="must be > 0 and finite"):
        make(tol)


# ------------------------------------------------------ regularization path

PATH_LAMS = (1e3, 1e-7, 1.0, 1e-3, 1e-7)


@pytest.mark.parametrize("n,p", [(6, 10), (10, 6), (8, 8)])
def test_ridge_path_is_bitwise_per_lam(n, p):
    # one Gram matrix for the whole path; each fit must carry exactly the
    # bits of a fit from scratch at its lam, a repeated lam too
    D, Y = random_problem(7, n, p)
    path = ridge_solve(D, Y, list(PATH_LAMS))
    assert len(path) == len(PATH_LAMS)
    for lam, beta in zip(PATH_LAMS, path):
        assert beta.tobytes() == ridge_solve(D, Y, [lam])[0].tobytes()
        assert beta.tobytes() == ridge_one_lam(D, Y, lam).tobytes()


@pytest.mark.parametrize("solve", [ridge_primal, ridge_dual])
def test_ridge_systems_take_a_lam_sequence(solve):
    D, Y = random_problem(8, 7, 9)
    lams = [1e-7, 10.0, 1e-7]
    for lam, beta in zip(lams, solve(D, Y, lams)):
        assert beta.tobytes() == solve(D, Y, [lam])[0].tobytes()
    with pytest.raises(ValueError, match="lam must be > 0"):
        solve(D, Y, [1.0, 0.0])


def test_krr_path_is_bitwise_per_lam():
    rng = RngState(9)
    X, Y = rng.uniform(12, 3), rng.uniform(12, 2)
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=0.5))
    lams = [1e-7, 1.0, 1e3]
    for lam, alpha in zip(lams, krr_fit(K, Y, lams)):
        fresh = scipy.linalg.solve(K + lam * np.eye(12), Y, assume_a="pos")
        assert alpha.tobytes() == fresh.tobytes()
        assert alpha.tobytes() == krr_fit(K, Y, [lam])[0].tobytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), p=st.integers(1, 12), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       lams=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=4))
def test_ridge_primal_dual_path_agree(n, p, k, seed, lams):
    # primal and dual are the same solution through different systems;
    # with N(0, 1) designs of at most 12 x 12 and lam in [1e-2, 1e2] the
    # shifted Gram matrix has a condition number below ~1e4, so the two
    # must agree to 1e-9 of the largest weight; the path must equal the
    # system ridge_solve picks bit for bit
    D, Y = random_problem(seed, n, p, k)
    for lam, beta in zip(lams, ridge_solve(D, Y, lams)):
        bp, bd = ridge_primal(D, Y, [lam])[0], ridge_dual(D, Y, [lam])[0]
        assert beta.tobytes() == (bd if n < p else bp).tobytes()
        np.testing.assert_allclose(bd, bp, rtol=0,
                                   atol=1e-9 * max(1.0, float(np.max(np.abs(bp)))))


def test_cholesky_fallback_is_logged(caplog, monkeypatch):
    K = np.array([[0.0, 2.0], [2.0, 0.0]])  # symmetric, indefinite once shifted
    Y = np.array([[1.0], [0.0]])
    with caplog.at_level(logging.WARNING, logger="randnet.solvers"):
        krr_fit(np.eye(2), Y, [0.5])
        assert not caplog.records
        (alpha,) = krr_fit(K, Y, [0.5])
    np.testing.assert_allclose((K + 0.5 * np.eye(2)) @ alpha, Y, atol=1e-12)
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert "Cholesky failed on a 2 x 2 system" in record.getMessage()
    # K + 3 I is positive definite: on a path, in either order, it is
    # factored in the matrix whose upper triangle the failed factor of
    # K + 0.5 I overwrote in part
    for numpy_lapack in (solvers.NUMPY_LAPACK, None):
        monkeypatch.setattr(solvers, "NUMPY_LAPACK", numpy_lapack)
        alone = {lam: krr_fit(K, Y, [lam])[0].tobytes() for lam in (0.5, 3.0)}
        assert alone[0.5] == scipy.linalg.solve(K + 0.5 * np.eye(2), Y,
                                                assume_a="sym").tobytes()
        for lams in ([0.5, 3.0], [3.0, 0.5]):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="randnet.solvers"):
                path = krr_fit(K, Y, lams)
            assert [alpha.tobytes() for alpha in path] == [alone[lam] for lam in lams]
            assert len(caplog.records) == 1


def counted_mirrors(monkeypatch):
    """Count the calls of solvers._mirror_lower from here on."""
    calls = []
    mirror = solvers._mirror_lower
    monkeypatch.setattr(solvers, "_mirror_lower", lambda A: calls.append(1) or mirror(A))
    return calls


@pytest.mark.parametrize("n,p", [(30, 20), (20, 30)])
def test_exactly_symmetric_path_mirrors_only_after_a_factor(n, p, monkeypatch):
    # the Gram and kernel matrices come in exactly symmetric, so the first
    # shift is factored as it comes; each later one rebuilds the upper
    # triangle the factor before overwrote
    D, Y = random_problem(43, n, p)
    K = kernel_matrix(D, D, KernelSpec("rbf", sigma=3.0))
    lams = [1.0, 1e-3, 10.0, 1e-7, 0.1, 1e3, 3.0, 1e-2]
    calls = counted_mirrors(monkeypatch)
    for fit, A in ((ridge_primal, D), (ridge_dual, D), (krr_fit, K)):
        calls.clear()
        one = fit(A, Y, [lams[0]])
        assert len(calls) == 0
        path = fit(A, Y, lams)
        assert len(calls) == 7
        assert path[0].tobytes() == one[0].tobytes()


def test_near_symmetric_kernel_is_solved_on_its_upper_triangle(monkeypatch):
    X, Y = random_problem(44, 20, 4)
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=2.0))
    K_near = K + np.triu(RngState(45).uniform(20, 20, 0.0, 1e-12), 1)
    upper = np.triu(K_near) + np.triu(K_near, 1).T
    calls = counted_mirrors(monkeypatch)
    for lam in (1e-7, 1.0):
        (alpha,) = krr_fit(K_near, Y, [lam])
        assert alpha.tobytes() == shifted_solve(upper, Y, lam).tobytes()
    assert len(calls) == 2  # krr_fit's own, once per fit
    # a NaN on one side of the diagonal is refused, not mirrored away
    K_near[3, 1] = np.nan
    with pytest.raises(ValueError, match="Gram matrix contains NaN or Inf"):
        krr_fit(K_near, Y, [1.0])


# -------------------------------------------------- the Cholesky solve path

ORACLE_LAMS = [1e-7, 1.0, 1e3]


@pytest.fixture(params=[1, 2], ids=["blas1", "blas2"])
def blas(request):
    # the bits may depend on the thread count; each count must match scipy's
    with blas_threads(request.param):
        yield request.param


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n, p", [(6, 10), (10, 10), (10, 6), (40, 130), (130, 40),
                                  (600, 650)])  # 600: OpenBLAS's threaded potrf
def test_shifted_solves_are_bitwise_scipy_pos_solve(n, p, k, monkeypatch):
    # every closed-form fit, alone or on a path, carries exactly the bits
    # of scipy.linalg.solve(G + lam I, B, assume_a="pos"), and comes back
    # C-contiguous as that call returns it: at 1 and 2 BLAS threads, through
    # numpy's LAPACK and through the scipy path of a numpy built without one
    D, Y = random_problem(31, n, p, k)
    K = kernel_matrix(D, D, KernelSpec("rbf", sigma=3.0))
    # symmetric only within krr_fit's tolerance: the upper triangle is the one read
    K_near = K + np.triu(RngState(36).uniform(n, n, 0.0, 1e-12), 1)
    cases = [
        (lambda lam: ridge_primal(D, Y, lam), lambda lam: shifted_solve(D.T @ D, D.T @ Y, lam)),
        (lambda lam: ridge_dual(D, Y, lam), lambda lam: D.T @ shifted_solve(D @ D.T, Y, lam)),
        (lambda lam: krr_fit(K, Y, lam), lambda lam: shifted_solve(K, Y, lam)),
        (lambda lam: krr_fit(K_near, Y, lam), lambda lam: shifted_solve(K_near, Y, lam)),
    ]
    for numpy_lapack in (solvers.NUMPY_LAPACK, None):
        monkeypatch.setattr(solvers, "NUMPY_LAPACK", numpy_lapack)
        for threads in (1, 2):
            with blas_threads(threads):
                for fit, oracle in cases:
                    for lam, from_path in zip(ORACLE_LAMS, fit(ORACLE_LAMS)):
                        expected = oracle(lam)
                        for beta in (fit([lam])[0], from_path):
                            assert beta.flags["C_CONTIGUOUS"]
                            assert beta.tobytes() == expected.tobytes()


@pytest.mark.skipif(solvers.NUMPY_LAPACK is None, reason="numpy's BLAS exports no LAPACK")
@pytest.mark.parametrize("n, k", [(50, 2), (600, 50)])
def test_numpy_lapack_is_bitwise_scipy_lapack(n, k, blas):
    # the binding calls numpy's OpenBLAS; scipy's wrappers call scipy's own
    rng = RngState(34)
    A = rng.gaussian(n, n)
    G = A.T @ A + n * np.eye(n)
    G[0, 1] += 1e-12  # no longer exactly symmetric: the triangle read matters
    B = rng.gaussian(n, k)
    ours = solvers.NUMPY_LAPACK
    factor, info = ours.dpotrf(G)
    X, solve_info = ours.dpotrs(factor, B)
    # the one factor and solve, against scipy's posv and against its
    # cho_factor and cho_solve
    c, x, scipy_info = scipy.linalg.lapack.dposv(G, B)
    assert info == solve_info == scipy_info == 0
    assert np.triu(factor).tobytes() == np.triu(c).tobytes()
    assert X.flags["F_CONTIGUOUS"] and X.tobytes(order="A") == x.tobytes(order="A")
    cho = scipy.linalg.cho_factor(G)
    assert factor.tobytes(order="A") == cho[0].tobytes(order="A")
    assert factor.tobytes(order="A") == scipy.linalg.lapack.dpotrf(
        G, clean=0)[0].tobytes(order="A")
    assert X.tobytes(order="A") == scipy.linalg.cho_solve(cho, B).tobytes(order="A")
    # in place, a Fortran-order float64 matrix becomes that same factor
    work = np.asfortranarray(G)
    in_place, info = ours.dpotrf(work, overwrite_a=True)
    assert info == 0 and in_place is work
    assert work.tobytes(order="A") == factor.tobytes(order="A")
    for norm in ("1", "I"):
        assert ours.dlange(norm, G) == scipy.linalg.lapack.dlange(norm, G)
    anorm = ours.dlange("I", G)
    assert ours.dpocon(factor, anorm) == scipy.linalg.lapack.dpocon(c, anorm)


@pytest.mark.parametrize("n, p, k", [(100, 20, 5), (300, 60, 122)])
def test_admm_is_bitwise_on_either_lapack(n, p, k, blas, monkeypatch):
    H, T = random_problem(35, n, p, k)
    cfg = ElasticNetConfig(lam=0.3, alpha_mix=0.4, max_iters=60)
    ours = admm_elastic_net(H, T, cfg)
    monkeypatch.setattr(solvers, "NUMPY_LAPACK", None)
    theirs = admm_elastic_net(H, T, cfg)
    assert ours.weights.tobytes() == theirs.weights.tobytes()
    assert ((ours.iterations, ours.objective, ours.primal_residual, ours.dual_residual)
            == (theirs.iterations, theirs.objective, theirs.primal_residual,
                theirs.dual_residual))


def test_admm_failed_factor_raises(monkeypatch):
    # 2 H'H + I rounds to a singular matrix: the second pivot cancels to 0
    for numpy_lapack in (solvers.NUMPY_LAPACK, None):
        monkeypatch.setattr(solvers, "NUMPY_LAPACK", numpy_lapack)
        with pytest.raises(scipy.linalg.LinAlgError, match="2-th leading minor"):
            admm_elastic_net(np.array([[1e150, 1e150]]), np.array([[1.0]]),
                             ElasticNetConfig(lam=1.0))


def test_numpy_lapack_is_bound_on_ilp64_scipy_openblas():
    # the solves must not quietly fall back to scipy's second OpenBLAS
    # where numpy ships the ILP64 scipy-openblas that exports them
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if (blas.get("name") != "scipy-openblas"
            or "USE64BITINT" not in (blas.get("openblas configuration") or "")):
        pytest.skip("numpy is not built on ILP64 scipy-openblas")
    assert solvers.NUMPY_LAPACK is not None
    numpy_blas = [name for name, getter, _ in blas_libraries()
                  if getter.__name__ == "scipy_openblas_get_num_threads64_"]
    assert numpy_blas == [solvers.NUMPY_LAPACK.library]


# file name and (prefix, suffix) of the symbols of each OpenBLAS build
FAKE_BUILDS = {
    "libscipy_openblas64_.so": ("scipy_", "64_"),  # numpy 2
    "libscipy_openblas.so": ("scipy_", ""),  # scipy
    "libopenblas64_p-r0.so": ("", "64_"),  # numpy 1.x
    "libopenblas.so.0": ("", ""),  # a system build
}


class FakeOpenBlas:
    """A library exporting the thread-count routines, which keep a count,
    and the LAPACK routines the binding needs, under one decoration."""

    def __init__(self, prefix, suffix):
        self.threads = 4
        routines = {"openblas_get_num_threads": lambda: self.threads,
                    "openblas_set_num_threads": lambda n: setattr(self, "threads", n)}
        routines.update({f"{name}_": lambda *args: None for name in solvers._LAPACK_SIGNATURES})
        for name, fn in routines.items():
            setattr(self, f"{prefix}{name}{suffix}", fn)


def fake_walk(monkeypatch, libs):
    """Make the /proc/self/maps walk map and load exactly libs, {file name: library}."""
    maps = "".join(f"7f00-7f80 r-xp 00000000 08:01 42 /usr/lib/{name}\n" for name in libs)
    monkeypatch.setattr(numerics, "open", lambda path: io.StringIO(maps), raising=False)
    monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: libs[Path(path).name])


@pytest.mark.parametrize("build", sorted(FAKE_BUILDS))
def test_each_openblas_build_yields_its_thread_routines_and_ilp64_its_lapack(monkeypatch,
                                                                              build):
    prefix, suffix = FAKE_BUILDS[build]
    lib = FakeOpenBlas(prefix, suffix)
    fake_walk(monkeypatch, {build: lib})
    ((name, getter, setter),) = blas_libraries()
    assert name == build
    assert getter is getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
    assert setter is getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
    bound = solvers._bind_numpy_lapack()
    if suffix == "64_":  # the binding passes 64-bit integers
        assert bound.library == build
        assert all(fn is getattr(lib, f"{prefix}{routine}_{suffix}")
                   for routine, fn in bound._fn.items())
    else:
        assert bound is None
    delattr(lib, f"{prefix}dlange_{suffix}")
    assert solvers._bind_numpy_lapack() is None


def test_readme_names_exactly_the_bound_lapack_routines():
    # README's solver paragraph lists what the binding binds, no more and no less
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bound = re.search(r"The bound LAPACK routines are (.*?)\(", readme, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", bound)) == set(solvers._LAPACK_SIGNATURES)


def test_blas_threads_sets_every_library_the_walk_reports(monkeypatch):
    libs = {build: FakeOpenBlas(*decoration) for build, decoration in FAKE_BUILDS.items()}
    fake_walk(monkeypatch, libs)
    with blas_threads(3):
        assert {build: lib.threads for build, lib in libs.items()} == dict.fromkeys(libs, 3)
    assert {build: lib.threads for build, lib in libs.items()} == dict.fromkeys(libs, 4)


def test_ill_conditioned_solve_warns():
    with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
        krr_fit(np.diag([1.0, 1e-18]), np.ones((2, 1)), [1e-18])


class CountingLapack:
    """A LAPACK binding that counts the calls of each routine it passes on."""

    def __init__(self, lp):
        self.lp, self.calls = lp, {}

    def __getattr__(self, name):
        fn = getattr(self.lp, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


def ill_conditioned_messages(fit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit()
    return sorted(str(w.message) for w in caught
                  if issubclass(w.category, scipy.linalg.LinAlgWarning))


def test_path_warns_for_exactly_the_lams_a_one_lam_fit_warns_for(monkeypatch):
    # K's eigenvalues run from 3 down to 1e-30, so the condition number of
    # K + lam I falls with lam through 1 / eps; the path checks it from the
    # smallest lam up and stops at the first well-conditioned system
    K = np.diag(np.logspace(0, -30, 6))
    K[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    Y = np.ones((6, 2))
    lams = [1e-12, 1e-17, 1e-14, 1e-18, 1e-13, 1e-16, 1e-15]
    for numpy_lapack in (solvers.NUMPY_LAPACK, None):
        monkeypatch.setattr(solvers, "NUMPY_LAPACK", numpy_lapack)
        alone = [m for lam in lams for m in ill_conditioned_messages(
            lambda: krr_fit(K, Y, [lam]))]
        assert len(alone) == 3
        assert ill_conditioned_messages(lambda: krr_fit(K, Y, lams)) == sorted(alone)


def test_well_conditioned_path_estimates_the_condition_once(monkeypatch):
    D, Y = random_problem(40, 50, 8)
    lams = [10.0, 0.1, 1e3, 1.0, 3.0, 0.3, 1e2, 30.0]
    for lp in (solvers.NUMPY_LAPACK or scipy.linalg.lapack, scipy.linalg.lapack):
        counting = CountingLapack(lp)
        monkeypatch.setattr(solvers, "NUMPY_LAPACK", counting)
        ridge_primal(D, Y, lams)
        assert counting.calls == {"dlange": 1, "dpotrf": 8, "dpotrs": 8, "dpocon": 1}


@pytest.mark.parametrize("lams", [[1.0], [1e-7, 1.0, 1e3]], ids=["1lam", "3lam"])
def test_closed_form_fits_leave_their_inputs_unchanged(lams, monkeypatch):
    # every path factors in a matrix of its own, never in the caller's
    D, Y = random_problem(41, 150, 130)
    X = D[:, :6].copy()
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=2.0))
    K_near = K + np.triu(RngState(42).uniform(150, 150, 0.0, 1e-12), 1)
    fits = [(ridge_primal, D, Y), (ridge_dual, D, Y), (krr_fit, K, Y), (krr_fit, K_near, Y),
            (krr_fit, np.asfortranarray(K_near), Y),
            (lambda X, T, lam: fit_kernel_map(X, T, KernelSpec("rbf", sigma=2.0), lam), X, Y)]
    for numpy_lapack in (solvers.NUMPY_LAPACK, None):
        monkeypatch.setattr(solvers, "NUMPY_LAPACK", numpy_lapack)
        for fit, A, B in fits:
            before = (A.tobytes(order="A"), B.tobytes(order="A"))
            fit(A, B, lams)
            assert (A.tobytes(order="A"), B.tobytes(order="A")) == before


def traced_peak(fn):
    """Bytes fn allocates at its peak, beyond what was allocated before it ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_c_path_and_kernel_matrix_hold_few_n_by_n_matrices():
    # numpy reports its allocations to tracemalloc; 8 lams share one
    # n x n matrix, and the rbf kernel is built in its distance buffer
    D, Y = random_problem(43, 600, 650, 2)
    n_by_n = 600 * 600 * 8
    assert traced_peak(lambda: ridge_dual(D, Y, list(np.logspace(-3, 3, 8)))) <= 1.5 * n_by_n
    X = D[:, :20].copy()
    assert traced_peak(lambda: kernel_matrix(X, X, KernelSpec("rbf"))) <= 2.1 * n_by_n


def test_gram_overflow_is_rejected():
    # the design is finite, its Gram matrix is not
    D, Y = random_problem(32, 8, 5)
    D[0, 0] = 1e200
    for solve in (ridge_primal, ridge_dual):
        with pytest.raises(ValueError, match="NaN or Inf"), np.errstate(over="ignore"):
            solve(D, Y, [1.0])
    # NaN off the diagonal passes the symmetry check and the shifted
    # diagonal, so only the scan of the whole matrix sees it
    K = np.eye(3)
    K[0, 1] = K[1, 0] = np.nan
    with pytest.raises(ValueError, match="Gram matrix contains NaN or Inf"):
        krr_fit(K, np.ones((3, 1)), [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_lam_is_rejected(bad):
    D, Y = random_problem(33, 8, 5)
    for config in (RidgeConfig, L1Config, ElasticNetConfig):
        with pytest.raises(ValueError, match="lam must be"):
            config(lam=bad)
    for fit in (ridge_primal, ridge_dual, ridge_solve,
                lambda D, Y, lam: krr_fit(D @ D.T, Y, lam),
                lambda D, Y, lam: fit_kernel_map(D, Y, KernelSpec(), lam)):
        for lam in ([bad], [1.0, bad]):
            with pytest.raises(ValueError, match="lam must be > 0 and finite"):
                fit(D, Y, lam)
    # a config whose lam went bad after it was built
    for solver, config in ((fista_lasso, L1Config()), (admm_elastic_net, ElasticNetConfig())):
        config.lam = bad
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            solver(D, Y, config)


def test_admm_rejects_a_nonfinite_result():
    # H'T overflows while the factor of 2 H'H + rho I stays finite
    H, T = np.array([[1e150]]), np.array([[1e200]])
    with (pytest.raises(ValueError, match="elastic-net weights contains NaN or Inf"),
          np.errstate(all="ignore")):
        admm_elastic_net(H, T, ElasticNetConfig(lam=1.0, max_iters=5))
