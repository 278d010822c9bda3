import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from randnet.numerics import NumericError, RngState, ShapeError
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
    beta = ridge_primal(D, Y, 1.0)
    np.testing.assert_allclose(beta, np.array([[0.5], [1.0]]))


def test_ridge_rejects_nonpositive_lambda():
    D, Y = random_problem(0, 10, 3)
    with pytest.raises(ValueError):
        ridge_primal(D, Y, 0.0)
    with pytest.raises(ValueError):
        ridge_dual(D, Y, -1.0)


def test_ridge_rejects_nonfinite():
    D, Y = random_problem(0, 10, 3)
    D[0, 0] = np.nan
    with pytest.raises(NumericError):
        ridge_primal(D, Y, 1.0)


def test_primal_dual_agree():
    for seed in range(5):
        D, Y = random_problem(seed, 50, 10)
        bp = ridge_primal(D, Y, 0.1)
        bd = ridge_dual(D, Y, 0.1)
        assert np.linalg.norm(bp - bd) <= 1e-8 * max(1.0, np.linalg.norm(bp))


def test_ridge_dual_single_sample():
    D = np.array([[1.0, 2.0, 2.0]])
    Y = np.array([[3.0]])
    beta = ridge_dual(D, Y, 1.0)
    expected = D.T * 3.0 / (9.0 + 1.0)
    np.testing.assert_allclose(beta, expected)


def test_ridge_auto_dispatch_matches_both():
    D, Y = random_problem(3, 20, 40)  # n < p, auto picks dual
    auto = ridge_solve(D, Y, 0.5)
    np.testing.assert_array_equal(auto, ridge_dual(D, Y, 0.5))
    D2, Y2 = random_problem(4, 40, 20)
    auto2 = ridge_solve(D2, Y2, 0.5)
    np.testing.assert_array_equal(auto2, ridge_primal(D2, Y2, 0.5))


def test_zero_lam_is_rejected():
    # lam = 0 is the pseudoinverse, which only pinv_solve computes
    D, Y = random_problem(6, 20, 40)
    with pytest.raises(ValueError, match="lam must be > 0"):
        ridge_solve(D, Y, 0.0)
    with pytest.raises(ValueError, match="lam must be > 0"):
        RidgeConfig(lam=0.0)
    with pytest.raises(ValueError, match="lam must be > 0"):
        rvfl_train(D, Y, width=5, lam=0.0, seed=0)


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
    b_ridge = ridge_primal(D, Y, 1e-12)
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


def test_rbf_unit_diagonal_and_symmetry():
    X = RngState(8).gaussian(20, 5)
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=1.5))
    np.testing.assert_array_equal(np.diag(K), np.ones(20))
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
    alpha = krr_fit(np.eye(5), Y, 1.0)
    np.testing.assert_allclose(alpha, Y / 2.0)


def test_krr_linear_matches_dual_ridge():
    D, Y = random_problem(13, 25, 6)
    Dstar = RngState(14).gaussian(10, 6)
    lam = 0.3
    alpha = krr_fit(kernel_matrix(D, D, KernelSpec("linear")), Y, lam)
    pred_krr = kernel_matrix(Dstar, D, KernelSpec("linear")) @ alpha
    pred_ridge = Dstar @ ridge_dual(D, Y, lam)
    assert np.linalg.norm(pred_krr - pred_ridge) <= 1e-8 * np.linalg.norm(pred_ridge)


def test_krr_huge_lambda_shrinks():
    Y = RngState(15).gaussian(8, 2)
    X = RngState(16).gaussian(8, 3)
    K = kernel_matrix(X, X, KernelSpec("rbf", sigma=1.0))
    alpha = krr_fit(K, Y, 1e9)
    np.testing.assert_allclose(alpha, Y / 1e9, rtol=1e-6)
    assert np.linalg.norm(K @ alpha) < 1e-6


def test_krr_rejects_asymmetric():
    K = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        krr_fit(K, np.ones((2, 1)), 1.0)


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
    ridge = ridge_primal(H, T, lam / 2.0)
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
        assert res.primal_residual <= cfg.tol_primal * (
            size + np.linalg.norm(res.weights)
        ) + 1e-12
    else:
        assert res.iterations == cfg.max_iters


def test_admm_unconverged_flag():
    H, T = random_problem(28, 25, 7)
    res = admm_elastic_net(
        H, T, ElasticNetConfig(lam=0.3, max_iters=2, tol_primal=1e-16, tol_dual=1e-16)
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
    lambda tol: ElasticNetConfig(lam=1.0, tol_primal=tol),
    lambda tol: ElasticNetConfig(lam=1.0, tol_dual=tol),
], ids=["l1_tol", "elastic_tol_primal", "elastic_tol_dual"])
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
        assert beta.tobytes() == ridge_solve(D, Y, lam).tobytes()
        assert beta.tobytes() == ridge_one_lam(D, Y, lam).tobytes()


@pytest.mark.parametrize("solve", [ridge_primal, ridge_dual])
def test_ridge_systems_take_a_lam_sequence(solve):
    D, Y = random_problem(8, 7, 9)
    lams = [1e-7, 10.0, 1e-7]
    for lam, beta in zip(lams, solve(D, Y, lams)):
        assert beta.tobytes() == solve(D, Y, lam).tobytes()
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
        assert alpha.tobytes() == krr_fit(K, Y, lam).tobytes()


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
        bp, bd = ridge_primal(D, Y, lam), ridge_dual(D, Y, lam)
        assert beta.tobytes() == (bd if n < p else bp).tobytes()
        np.testing.assert_allclose(bd, bp, rtol=0,
                                   atol=1e-9 * max(1.0, float(np.max(np.abs(bp)))))


def test_cholesky_fallback_is_logged(caplog):
    K = np.array([[0.0, 2.0], [2.0, 0.0]])  # symmetric, indefinite once shifted
    Y = np.array([[1.0], [0.0]])
    with caplog.at_level(logging.WARNING, logger="randnet.solvers"):
        krr_fit(np.eye(2), Y, 0.5)
        assert not caplog.records
        alpha = krr_fit(K, Y, 0.5)
    np.testing.assert_allclose((K + 0.5 * np.eye(2)) @ alpha, Y, atol=1e-12)
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert "Cholesky failed on a 2 x 2 system" in record.getMessage()


# ------------------------------------------------------ the posv solve path

ORACLE_LAMS = [1e-7, 1.0, 1e3]


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n, p", [(6, 10), (10, 10), (10, 6), (40, 130), (130, 40)])
def test_shifted_solves_are_bitwise_scipy_pos_solve(n, p, k):
    # every closed-form fit, alone or on a path, carries exactly the bits
    # of scipy.linalg.solve(G + lam I, B, assume_a="pos"), and comes back
    # C-contiguous as that call returns it
    D, Y = random_problem(31, n, p, k)
    K = kernel_matrix(D, D, KernelSpec("rbf", sigma=3.0))
    cases = [
        (lambda lam: ridge_primal(D, Y, lam), lambda lam: shifted_solve(D.T @ D, D.T @ Y, lam)),
        (lambda lam: ridge_dual(D, Y, lam), lambda lam: D.T @ shifted_solve(D @ D.T, Y, lam)),
        (lambda lam: krr_fit(K, Y, lam), lambda lam: shifted_solve(K, Y, lam)),
    ]
    for fit, oracle in cases:
        for lam, from_path in zip(ORACLE_LAMS, fit(ORACLE_LAMS)):
            expected = oracle(lam)
            for beta in (fit(lam), from_path):
                assert beta.flags["C_CONTIGUOUS"]
                assert beta.tobytes() == expected.tobytes()


def test_ill_conditioned_solve_warns():
    with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
        krr_fit(np.diag([1.0, 1e-18]), np.ones((2, 1)), 1e-18)


def test_gram_overflow_is_rejected():
    # the design is finite, its Gram matrix is not
    D, Y = random_problem(32, 8, 5)
    D[0, 0] = 1e200
    for solve in (ridge_primal, ridge_dual):
        with pytest.raises(ValueError, match="NaN or Inf"), np.errstate(over="ignore"):
            solve(D, Y, 1.0)
    # NaN off the diagonal passes the symmetry check and the shifted
    # diagonal, so only the scan of the whole matrix sees it
    K = np.eye(3)
    K[0, 1] = K[1, 0] = np.nan
    with pytest.raises(ValueError, match="Gram matrix contains NaN or Inf"):
        krr_fit(K, np.ones((3, 1)), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_lam_is_rejected(bad):
    D, Y = random_problem(33, 8, 5)
    for config in (RidgeConfig, L1Config, ElasticNetConfig):
        with pytest.raises(ValueError, match="lam must be"):
            config(lam=bad)
    for fit in (ridge_primal, ridge_dual, ridge_solve,
                lambda D, Y, lam: krr_fit(D @ D.T, Y, lam),
                lambda D, Y, lam: fit_kernel_map(D, Y, KernelSpec(), lam)):
        for lam in (bad, [1.0, bad]):
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
