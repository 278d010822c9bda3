"""Closed-form and iterative regression solvers.

Ridge in primal and dual form, Moore-Penrose least squares, kernel
ridge, FISTA for l1-penalized problems, and ADMM for the elastic net.
All objectives use the convention ``||A W - T||^2 + penalty`` with no
1/2 on the quadratic term; soft-threshold levels therefore carry a
factor of 1/2 relative to the textbook lasso.

The closed-form fits (``ridge_primal``, ``ridge_dual``, ``ridge_solve``,
``krr_fit``, ``fit_kernel_map``) take ``lam`` as one value or as a
sequence. A sequence returns a list with one fit per value, and the
work that does not depend on lam (the Gram or kernel matrix, the
right-hand side) is done once; each fit is bitwise the one its lam gives
alone.

Every shifted system is solved by LAPACK ``posv`` (Cholesky factor and
solve, upper triangle; Anderson et al., LAPACK Users' Guide, 1999), the
same ``potrf`` + ``potrs`` that ``scipy.linalg.solve(assume_a="pos")``
runs, so the bits are the same. The matrix and right-hand side are
checked for finiteness once per path, not once per lam. A reciprocal
condition number below machine epsilon emits scipy's ``LinAlgWarning``,
and a failed Cholesky logs a warning and solves the system as symmetric
indefinite instead.
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .numerics import ShapeError, check_finite

log = logging.getLogger(__name__)


@dataclass
class RidgeConfig:
    """l2 penalty weight, finite and > 0 (pinv_solve is the lam -> 0 limit)."""

    lam: float = 1.0

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"ridge lam must be > 0 and finite, got {self.lam}")


@dataclass
class L1Config:
    lam: float = 1.0
    max_iters: int = 2000
    tol: float = 1e-10  # relative objective change

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"l1 lam must be > 0 and finite, got {self.lam}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be > 0 and finite, got {self.tol}")


@dataclass
class ElasticNetConfig:
    lam: float = 1.0
    alpha_mix: float = 0.5  # proportion of l1 in the penalty
    max_iters: int = 5000
    tol_primal: float = 1e-10
    tol_dual: float = 1e-10

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"elastic-net lam must be > 0 and finite, got {self.lam}")
        if not 0.0 <= self.alpha_mix <= 1.0:
            raise ValueError(f"alpha_mix must be in [0, 1], got {self.alpha_mix}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("tol_primal", "tol_dual"):
            tol = getattr(self, name)
            if not 0 < tol < np.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {tol}")


@dataclass
class KernelSpec:
    kind: str = "rbf"  # rbf | linear
    sigma: float = 1.0  # rbf bandwidth

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.sigma <= 0:
            raise ValueError(f"rbf sigma must be > 0, got {self.sigma}")


@dataclass
class FistaResult:
    weights: np.ndarray
    converged: bool
    iterations: int
    objective: float
    history: list  # accepted objective values, first entry is the start


@dataclass
class AdmmResult:
    weights: np.ndarray
    converged: bool
    iterations: int
    objective: float
    primal_residual: float
    dual_residual: float


def _sym_solve(G, B):
    # G is symmetric and, with the ridge shift, positive definite; fall
    # back to the generic symmetric path if Cholesky objects. posv hands
    # the solution back in Fortran order; it is returned C-contiguous as
    # scipy.linalg.solve returns it, since products with it round by layout.
    factor, X, info = lapack.dposv(G, B)
    if info < 0:
        raise ValueError(f"LAPACK dposv: argument {-info} has an illegal value")
    if info > 0:
        log.warning("Cholesky failed on a %d x %d system; "
                    "solving it as symmetric indefinite", *G.shape)
        return scipy.linalg.solve(G, B, assume_a="sym")
    # G.T is the Fortran-order view of G, so dlange reads it uncopied;
    # G is symmetric, so its 1-norm is the same
    rcond, _ = lapack.dpocon(factor, lapack.dlange("1", G.T))
    if rcond < np.finfo(np.float64).eps:
        warnings.warn(f"An ill-conditioned matrix detected: rcond = {rcond:.6g}.",
                      scipy.linalg.LinAlgWarning, stacklevel=2)
    return np.ascontiguousarray(X)


def _lams(lam):
    return list(lam) if np.ndim(lam) else [lam]


def _one_or_all(lam, fits):
    return fits if np.ndim(lam) else fits[0]


def _shifted_solves(G, B, lams):
    """Solve (G + lam I) X = B for each lam, reusing G.

    The diagonal is set from a copy of G's own before each solve, the
    same addition ``G[idx] += lam`` makes on a fresh G, so every solve
    sees the matrix a one-lam fit would build.
    """
    check_finite("Gram matrix", G)
    check_finite("right-hand side", B)
    idx = np.diag_indices_from(G)
    d0 = G[idx]  # advanced indexing copies
    solutions = []
    for lam in lams:
        diagonal = d0 + lam
        check_finite("shifted Gram diagonal", diagonal)
        G[idx] = diagonal
        solutions.append(_sym_solve(G, B))
    return solutions


def _check_lams(lam, context=""):
    if not all(0 < value < np.inf for value in _lams(lam)):
        raise ValueError(f"lam must be > 0 and finite{context}, got {lam}")


def _check_regression_args(D, Y, lam):
    if D.ndim != 2 or Y.ndim != 2:
        raise ShapeError("design and target must both be 2-D")
    if D.shape[0] != Y.shape[0]:
        raise ShapeError(f"design has {D.shape[0]} rows but target has {Y.shape[0]}")
    check_finite("design matrix", D)
    check_finite("target matrix", Y)
    _check_lams(lam, " (use pinv_solve for lam = 0)")


def ridge_primal(D, Y, lam):
    """Beta = (D'D + lam I)^-1 D'Y via a symmetric positive-definite solve."""
    _check_regression_args(D, Y, lam)
    return _one_or_all(lam, _shifted_solves(D.T @ D, D.T @ Y, _lams(lam)))


def ridge_dual(D, Y, lam):
    """Beta = D'(DD' + lam I)^-1 Y; same solution, n-by-n system."""
    _check_regression_args(D, Y, lam)
    return _one_or_all(lam, [D.T @ A for A in _shifted_solves(D @ D.T, Y, _lams(lam))])


def ridge_solve(D, Y, lam):
    """Closed-form readout: ridge with lam > 0 on whichever of the two
    equivalent systems is smaller.

    Given a sequence, this is the regularization path: every lam shares
    one Gram matrix.
    """
    solve = ridge_dual if D.shape[0] < D.shape[1] else ridge_primal
    return solve(D, Y, lam)


def pinv_solve(D, Y):
    """Minimum-norm least-squares solution via SVD.

    Singular values below max(n, p) * eps relative to the largest are
    treated as zero, so rank deficiency never raises.
    """
    if D.ndim != 2 or Y.ndim != 2:
        raise ShapeError("design and target must both be 2-D")
    if D.shape[0] != Y.shape[0]:
        raise ShapeError(f"design has {D.shape[0]} rows but target has {Y.shape[0]}")
    check_finite("design matrix", D)
    check_finite("target matrix", Y)
    rcond = max(D.shape) * np.finfo(np.float64).eps
    beta, _, _, _ = np.linalg.lstsq(D, Y, rcond=rcond)
    return beta


def kernel_matrix(X1, X2, spec):
    """K[i, j] = k(x1_i, x2_j) for the given kernel spec.

    For rbf, k(x, y) = exp(-||x - y||^2 / (2 sigma^2)). Passing the same
    array object for X1 and X2 guarantees an exactly symmetric matrix
    with unit diagonal.
    """
    if X1.ndim != 2 or X2.ndim != 2 or X1.shape[1] != X2.shape[1]:
        raise ShapeError(
            f"kernel inputs must share the feature dimension, got {X1.shape} and {X2.shape}"
        )
    if spec.kind == "linear":
        return X1 @ X2.T
    sq = (
        np.sum(X1 * X1, axis=1)[:, None]
        + np.sum(X2 * X2, axis=1)[None, :]
        - 2.0 * (X1 @ X2.T)
    )
    np.maximum(sq, 0.0, out=sq)
    if X1 is X2:
        np.fill_diagonal(sq, 0.0)
        sq = 0.5 * (sq + sq.T)
    return np.exp(-sq / (2.0 * spec.sigma**2))


def krr_fit(K, Y, lam):
    """Representer coefficients Alpha solving (K + lam I) Alpha = Y.

    KernelMap.apply predicts on new rows with these coefficients.
    """
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ShapeError(f"kernel matrix must be square, got {K.shape}")
    if Y.ndim != 2 or Y.shape[0] != K.shape[0]:
        raise ShapeError("target rows must match the kernel matrix")
    _check_lams(lam)
    scale = max(1.0, float(np.max(np.abs(K))))
    if float(np.max(np.abs(K - K.T))) > 1e-8 * scale:
        raise ValueError("kernel matrix is not symmetric within tolerance")
    return _one_or_all(lam, _shifted_solves(K.copy(), Y, _lams(lam)))


@dataclass
class KernelMap:
    """Kernel-ridge map Z -> K(Z, anchors) @ alpha."""

    spec: KernelSpec
    anchors: np.ndarray  # training rows
    alpha: np.ndarray  # representer coefficients, one column per target

    def apply(self, Z):
        return kernel_matrix(Z, self.anchors, self.spec) @ self.alpha


def fit_kernel_map(X, T, spec, lam):
    """Kernel ridge from the rows of X to the rows of T."""
    _check_lams(lam, " for the kernel variant")
    alphas = krr_fit(kernel_matrix(X, X, spec), T, _lams(lam))
    # anchors are a copy, so applying the map to the training array never
    # hits the same-object symmetrization fast path and drifts from a
    # loaded model
    anchors = X.copy()
    return _one_or_all(lam, [KernelMap(spec, anchors, alpha) for alpha in alphas])


def spectral_norm(H, iters=50, tol=1e-6):
    """Largest singular value of H by power iteration on the smaller Gram matrix."""
    n, p = H.shape
    G = H.T @ H if p <= n else H @ H.T
    dim = G.shape[0]
    v = np.full(dim, 1.0 / np.sqrt(dim))
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        lam_new = float(v @ w)  # Rayleigh quotient, ||v|| = 1
        v = w / norm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def lasso_objective(H, T, W, lam):
    R = H @ W - T
    return float(np.sum(R * R) + lam * np.sum(np.abs(W)))


def fista_lasso(H, T, cfg):
    """min ||H W - T||^2 + lam ||W||_1 by accelerated proximal gradient.

    Parameters
    ----------
    H : ndarray, n x p design
    T : ndarray, n x k target
    cfg : L1Config

    Fixed step 1/L with L = 2 * sigma_max(H)^2 from power iteration
    (padded by 1% against underestimation; the fixed point is the same
    for any valid step). Nesterov momentum t_{k+1} = (1 + sqrt(1 +
    4 t_k^2)) / 2 with a function restart whenever the momentum step
    would increase the objective, and soft threshold at lam * step.
    Exhausting max_iters returns the best iterate flagged unconverged
    rather than raising.
    """
    _check_regression_args(H, T, cfg.lam)
    p, k = H.shape[1], T.shape[1]
    W = np.zeros((p, k))
    obj = lasso_objective(H, T, W, cfg.lam)
    history = [obj]
    sigma = spectral_norm(H)
    if sigma == 0.0:
        # zero design: the penalty alone is minimized at W = 0
        return FistaResult(W, True, 0, obj, history)
    step = 1.0 / (2.0 * sigma * sigma * 1.01)
    thresh = cfg.lam * step
    HtH = H.T @ H
    HtT = H.T @ T
    V = W
    t = 1.0
    best_obj, best_w = obj, W
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        grad = 2.0 * (HtH @ V - HtT)
        W_new = soft_threshold(V - step * grad, thresh)
        obj_new = lasso_objective(H, T, W_new, cfg.lam)
        if obj_new > obj:
            # momentum overshoot: restart from the last accepted iterate
            t = 1.0
            grad = 2.0 * (HtH @ W - HtT)
            W_new = soft_threshold(W - step * grad, thresh)
            obj_new = lasso_objective(H, T, W_new, cfg.lam)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        V = W_new + ((t - 1.0) / t_next) * (W_new - W)
        t = t_next
        done = abs(obj - obj_new) <= cfg.tol * max(1.0, abs(obj))
        W, obj = W_new, obj_new
        history.append(obj)
        if obj < best_obj:
            best_obj, best_w = obj, W
        if done:
            converged = True
            break
    return FistaResult(best_w, converged, iterations, best_obj, history)


def elastic_net_objective(H, T, W, lam, alpha_mix):
    R = H @ W - T
    penalty = alpha_mix * np.sum(np.abs(W)) + 0.5 * (1.0 - alpha_mix) * np.sum(W * W)
    return float(np.sum(R * R) + lam * penalty)


def admm_elastic_net(H, T, cfg):
    """min ||H W - T||^2 + lam (a ||W||_1 + (1-a)/2 ||W||_2^2) by ADMM.

    Parameters
    ----------
    H : ndarray, n x p design
    T : ndarray, n x k target
    cfg : ElasticNetConfig

    Consensus splitting W = Z with the ADMM penalty rho = lam: the W
    update reuses a cached Cholesky factor of (2 H'H + rho I), the Z
    update is the elastic-net proximal map, and U accumulates the scaled
    dual. Terminates when the primal residual ||W - Z|| and dual
    residual rho ||Z - Z_prev|| both fall under their tolerances;
    otherwise returns the last iterate flagged unconverged.
    """
    _check_regression_args(H, T, cfg.lam)
    p, k = H.shape[1], T.shape[1]
    rho = cfg.lam
    G = 2.0 * (H.T @ H)
    G[np.diag_indices_from(G)] += rho
    factor = scipy.linalg.cho_factor(G)
    HtT2 = 2.0 * (H.T @ T)
    l1 = cfg.lam * cfg.alpha_mix
    l2 = cfg.lam * (1.0 - cfg.alpha_mix)
    Z = np.zeros((p, k))
    U = np.zeros((p, k))
    size = np.sqrt(p * k)
    r = s = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        # the factor comes from checked inputs; a non-finite iterate
        # propagates into Z, which is checked once after the loop
        W = scipy.linalg.cho_solve(factor, HtT2 + rho * (Z - U), check_finite=False)
        Z_prev = Z
        Z = soft_threshold(W + U, l1 / rho) / (1.0 + l2 / rho)
        U = U + W - Z
        r = float(np.linalg.norm(W - Z))
        s = rho * float(np.linalg.norm(Z - Z_prev))
        eps_pri = cfg.tol_primal * (size + max(np.linalg.norm(W), np.linalg.norm(Z)))
        eps_dual = cfg.tol_dual * (size + rho * np.linalg.norm(U))
        if r <= eps_pri and s <= eps_dual:
            converged = True
            break
    check_finite("elastic-net weights", Z)
    obj = elastic_net_objective(H, T, Z, cfg.lam, cfg.alpha_mix)
    return AdmmResult(Z, converged, iterations, obj, r, s)
