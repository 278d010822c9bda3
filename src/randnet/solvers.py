"""Closed-form and iterative regression solvers.

Ridge in primal and dual form, Moore-Penrose least squares, kernel
ridge, FISTA for l1-penalized problems, and ADMM for the elastic net.
All objectives use the convention ``||A W - T||^2 + penalty`` with no
1/2 on the quadratic term; soft-threshold levels therefore carry a
factor of 1/2 relative to the textbook lasso.

The closed-form fits (``ridge_primal``, ``ridge_dual``, ``ridge_solve``,
``krr_fit``, ``fit_kernel_map``) fit a regularization path, as glmnet
does (Friedman et al., 2010): ``lam`` is a sequence of values and the
result a list with one fit per value, in order; one fit is the path
``[lam]``. The work that does not depend on lam (the Gram or kernel
matrix, the right-hand side) is done once per path, and each fit is
bitwise the one its lam gives alone.

Every symmetric positive-definite system, each shifted system here and
ADMM's W-update, is solved by LAPACK ``potrf`` + ``potrs`` (Cholesky
factor and solve, upper triangle; Anderson et al., LAPACK Users' Guide,
1999), the pair that ``scipy.linalg.solve(assume_a="pos")`` runs, so the
bits are the same. A path's matrix and right-hand side are checked for
finiteness once, not once per lam, and every lam is factored in the one
n x n matrix the path owns. A shifted system whose reciprocal condition
number falls below machine epsilon emits scipy's ``LinAlgWarning``; the
estimate runs from the smallest lam up until one system is well
conditioned. A system whose Cholesky fails logs a warning and is solved
as symmetric indefinite instead, by ``scipy.linalg.solve``.

The LAPACK routines are those of numpy's own OpenBLAS, bound through
ctypes, so that every product and every solve runs in one BLAS thread
pool. scipy links a second OpenBLAS with its own pool; when a call into
one library ends, its worker keeps spinning and takes a core from the
other's next call. numpy's is the loaded OpenBLAS with 64-bit integers
that exports them (see :func:`randnet.numerics.loaded_openblas`); where
none does (a numpy built on another BLAS), the same routines run through
``scipy.linalg.lapack``. That path, the warning and the fallback import
``scipy.linalg`` only when they run: a process that takes none of them
never maps its 6 MB.
"""

import ctypes
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .data import POSITIVE, check_fields, integer, is_number, one_of
from .numerics import ShapeError, check_finite, loaded_openblas, openblas_routine

log = logging.getLogger(__name__)


@dataclass
class RidgeConfig:
    """l2 penalty weight, finite and > 0 (pinv_solve is the lam -> 0 limit)."""

    lam: float = 1.0

    def __post_init__(self):
        check_fields(self, {"lam": POSITIVE}, "ridge ")


@dataclass
class L1Config:
    lam: float = 1.0
    max_iters: int = 2000
    tol: float = 1e-10  # relative objective change

    def __post_init__(self):
        check_fields(self, {"lam": POSITIVE, "max_iters": integer(1), "tol": POSITIVE}, "l1 ")


@dataclass
class ElasticNetConfig:
    lam: float = 1.0
    alpha_mix: float = 0.5  # proportion of l1 in the penalty
    max_iters: int = 5000
    tol: float = 1e-10  # relative primal and dual residual

    def __post_init__(self):
        mix = (lambda v: is_number(v) and 0 <= v <= 1, "in [0, 1]")
        check_fields(self, {"lam": POSITIVE, "alpha_mix": mix, "max_iters": integer(1),
                            "tol": POSITIVE}, "elastic-net ")


@dataclass
class KernelSpec:
    kind: str = "rbf"  # rbf | linear
    sigma: float = 1.0  # rbf bandwidth

    def __post_init__(self):
        check_fields(self, {"kind": one_of("rbf", "linear"), "sigma": POSITIVE}, "kernel ")


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


def _lapack_array(a, copy, square=False):
    """a as a float64 Fortran-order matrix, a fresh one if copy (LAPACK overwrites it)."""
    a = (np.array if copy else np.asarray)(a, dtype=np.float64, order="F")
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        raise ShapeError(f"LAPACK needs a {'square ' if square else ''}matrix, got {a.shape}")
    return a


def _int(value):
    return ctypes.byref(ctypes.c_int64(value))


_CHAR, _INT, _ARRAY = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
_DOUBLE, _LENGTH = ctypes.POINTER(ctypes.c_double), ctypes.c_size_t
# argument types as gfortran passes them, a character's length last
_LAPACK_SIGNATURES = {
    "dpotrf": (_CHAR, _INT, _ARRAY, _INT, _INT, _LENGTH),
    "dpotrs": (_CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT, _LENGTH),
    "dpocon": (_CHAR, _INT, _ARRAY, _INT, _DOUBLE, _DOUBLE, _ARRAY, _ARRAY, _INT, _LENGTH),
    "dlange": (_CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _LENGTH),
}


class _NumpyLapack:
    """LAPACK routines of numpy's OpenBLAS with the call signatures of
    their ``scipy.linalg.lapack`` namesakes, upper triangle only.

    The library uses 64-bit integers. Like scipy's wrappers, each routine
    overwrites fresh Fortran-order copies and returns them, unless
    ``overwrite_a`` lets ``dpotrf`` factor a Fortran-order float64 matrix
    in place; ``dpotrf`` leaves the lower triangle as it was, as scipy's
    does at ``clean=0``, the one value it takes.
    """

    def __init__(self, library, routines):
        self.library = library  # file name, for the record
        for name, fn in routines.items():
            fn.argtypes, fn.restype = _LAPACK_SIGNATURES[name], None
        routines["dlange"].restype = ctypes.c_double
        self._fn = routines

    def dpotrf(self, a, overwrite_a=False, clean=0):
        c, info = _lapack_array(a, copy=not overwrite_a, square=True), ctypes.c_int64()
        n = c.shape[0]
        self._fn["dpotrf"](b"U", _int(n), c.ctypes.data, _int(max(1, n)), ctypes.byref(info), 1)
        return c, info.value

    def dpotrs(self, c, b):
        c = _lapack_array(c, copy=False, square=True)
        x, info, n = _lapack_array(b, copy=True), ctypes.c_int64(), c.shape[0]
        if x.shape[0] != n:
            raise ShapeError(f"dpotrs: right-hand side has {x.shape[0]} rows, not {n}")
        self._fn["dpotrs"](b"U", _int(n), _int(x.shape[1]), c.ctypes.data, _int(max(1, n)),
                           x.ctypes.data, _int(max(1, n)), ctypes.byref(info), 1)
        return x, info.value

    def dpocon(self, c, anorm):
        c = _lapack_array(c, copy=False, square=True)
        rcond, info = ctypes.c_double(), ctypes.c_int64()
        n = c.shape[0]
        work, iwork = np.empty(3 * n), np.empty(n, np.int64)
        self._fn["dpocon"](b"U", _int(n), c.ctypes.data, _int(max(1, n)),
                           ctypes.byref(ctypes.c_double(anorm)), ctypes.byref(rcond),
                           work.ctypes.data, iwork.ctypes.data, ctypes.byref(info), 1)
        return rcond.value, info.value

    def dlange(self, norm, a):
        a = _lapack_array(a, copy=False)
        m, n = a.shape
        work = np.empty(m)  # read by the "I" norm only
        return self._fn["dlange"](norm.encode(), _int(m), _int(n), a.ctypes.data,
                                  _int(max(1, m)), work.ctypes.data, 1)


def _bind_numpy_lapack():
    """LAPACK of the loaded ILP64 OpenBLAS (numpy's), or None where none exports it."""
    for library, lib, decoration in loaded_openblas():
        routines = {name: openblas_routine(lib, decoration, f"{name}_")
                    for name in _LAPACK_SIGNATURES}
        if decoration[1] == "64_" and all(routines.values()):
            return _NumpyLapack(library, routines)
    return None


NUMPY_LAPACK = _bind_numpy_lapack()


def _lapack():
    if NUMPY_LAPACK is None:
        from scipy.linalg import lapack
        return lapack
    return NUMPY_LAPACK


def _mirror_lower(A):
    """Copy A's strict lower triangle onto its strict upper one, 64 rows at a time."""
    for c in range(0, len(A), 64):
        A[c:c + 64, c + 64:] = A[c + 64:, c:c + 64].T
        block = A[c:c + 64, c:c + 64]
        upper = np.triu_indices(len(block), 1)
        block[upper] = block.T[upper]


def _shifted_solves(A, B, lams):
    """Solve (G + lam I) X = B for each lam by LAPACK potrf + potrs, in A.

    A is a Fortran-order matrix the path owns and overwrites, and it comes
    in exactly symmetric: the caller mirrors a G symmetric only within a
    tolerance onto the triangle it means. potrf factors the upper triangle
    and never touches the strict lower one, so before each later lam (and
    before the symmetric-indefinite fallback) the upper triangle is rebuilt
    from it, and before every lam the diagonal is set from a copy of G's
    own, the same addition ``G[idx] += lam`` makes on a fresh G: every
    solve sees the matrix a one-lam fit would build. The lams run from the
    smallest up, and the condition estimate only until one system is well
    conditioned, since the condition number of G + lam I falls as lam
    grows. The solutions come back in the order of lams and C-contiguous,
    as scipy.linalg.solve returns them, since products with them round by
    layout.
    """
    check_finite("Gram matrix", A)
    check_finite("right-hand side", B)
    A, B = _lapack_array(A, copy=False, square=True), np.asfortranarray(B)
    idx = np.diag_indices_from(A)
    d0 = A[idx]  # advanced indexing copies
    lp = _lapack()
    solutions, conditioned = [None] * len(lams), False
    for rank, i in enumerate(np.argsort(lams, kind="stable")):
        diagonal = d0 + lams[i]
        check_finite("shifted Gram diagonal", diagonal)
        if rank:  # the factor before overwrote the upper triangle
            _mirror_lower(A)
        A[idx] = diagonal
        if not conditioned:
            anorm = lp.dlange("1", A)  # as scipy.linalg.solve takes it
        _, info = lp.dpotrf(A, overwrite_a=True, clean=0)
        if info < 0:
            raise ValueError(f"LAPACK dpotrf: argument {-info} has an illegal value")
        if info > 0:
            log.warning("Cholesky failed on a %d x %d system; "
                        "solving it as symmetric indefinite", *A.shape)
            from scipy.linalg import solve
            _mirror_lower(A)
            A[idx] = diagonal
            solutions[i] = solve(A, B, assume_a="sym")
            continue
        X, _ = lp.dpotrs(A, B)
        if not conditioned:
            rcond, _ = lp.dpocon(A, anorm)
            conditioned = not rcond < np.finfo(np.float64).eps
            if not conditioned:
                from scipy.linalg import LinAlgWarning
                warnings.warn(f"An ill-conditioned matrix detected: rcond = {rcond:.6g}.",
                              LinAlgWarning, stacklevel=2)
        solutions[i] = np.ascontiguousarray(X)
    return solutions


def _check_lams(lams):
    if not all(0 < value < np.inf for value in lams):
        raise ValueError(f"lam must be > 0 and finite, got {lams}")


def _check_regression_args(D, Y, lam):
    if D.ndim != 2 or Y.ndim != 2:
        raise ShapeError("design and target must both be 2-D")
    if D.shape[0] != Y.shape[0]:
        raise ShapeError(f"design has {D.shape[0]} rows but target has {Y.shape[0]}")
    check_finite("design matrix", D)
    check_finite("target matrix", Y)
    _check_lams(lam)


def _gram(A):
    """A A' as a Fortran-order view. numpy forms a matrix times its own
    transpose with syrk and mirrors the triangle it computed, so the
    product is exactly symmetric and its transpose is the same matrix."""
    return (A @ A.T).T


def ridge_primal(D, Y, lam):
    """Beta = (D'D + lam I)^-1 D'Y at each lam of the path, by symmetric
    positive-definite solves."""
    _check_regression_args(D, Y, lam)
    return _shifted_solves(_gram(D.T), D.T @ Y, lam)


def ridge_dual(D, Y, lam):
    """Beta = D'(DD' + lam I)^-1 Y at each lam of the path; same solution,
    n-by-n system."""
    _check_regression_args(D, Y, lam)
    return [D.T @ A for A in _shifted_solves(_gram(D), Y, lam)]


def ridge_solve(D, Y, lam):
    """Closed-form readout along the path lam, every value > 0, on whichever
    of the two equivalent systems is smaller; every lam shares one Gram matrix."""
    solve = ridge_dual if D.shape[0] < D.shape[1] else ridge_primal
    return solve(D, Y, lam)


def pinv_solve(D, Y):
    """Minimum-norm least-squares solution via SVD.

    Singular values below max(n, p) * eps relative to the largest are
    treated as zero, so rank deficiency never raises.
    """
    _check_regression_args(D, Y, lam=())  # no ridge shift to check
    rcond = max(D.shape) * np.finfo(np.float64).eps
    beta, _, _, _ = np.linalg.lstsq(D, Y, rcond=rcond)
    return beta


def kernel_matrix(X1, X2, spec):
    """K[i, j] = k(x1_i, x2_j) for the given kernel spec.

    For rbf, k(x, y) = exp(-||x - y||^2 / (2 sigma^2)). Passing the same
    array object for X1 and X2 gives an exactly symmetric matrix (numpy
    forms X X' by syrk, as in :func:`_gram`) with unit diagonal. The rbf
    matrix is exponentiated in its own squared-distance buffer.
    """
    if X1.ndim != 2 or X2.ndim != 2 or X1.shape[1] != X2.shape[1]:
        raise ShapeError(
            f"kernel inputs must share the feature dimension, got {X1.shape} and {X2.shape}"
        )
    if spec.kind == "linear":
        return X1 @ X2.T
    sq = X1 @ X2.T
    sq *= 2.0
    norms = np.sum(X1 * X1, axis=1)[:, None] + np.sum(X2 * X2, axis=1)[None, :]
    np.subtract(norms, sq, out=sq)
    np.maximum(sq, 0.0, out=sq)
    if X1 is X2:
        np.fill_diagonal(sq, 0.0)
    sq /= -2.0 * spec.sigma**2  # -sq / (2 sigma^2), bit for bit
    return np.exp(sq, out=sq)


def krr_fit(K, Y, lam):
    """Representer coefficients Alpha solving (K + lam I) Alpha = Y at each
    lam of the path.

    KernelMap.apply predicts on new rows with these coefficients. K is
    left as it is: the path factors one copy of it, and a K symmetric only
    within 1e-8 of its largest entry is solved on its upper triangle.
    """
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ShapeError(f"kernel matrix must be square, got {K.shape}")
    if Y.ndim != 2 or Y.shape[0] != K.shape[0]:
        raise ShapeError("target rows must match the kernel matrix")
    _check_lams(lam)
    # K.T in Fortran order, a flat copy of K: its strict lower triangle
    # holds K's strict upper one, the triangle the solves read, mirrored
    # onto the upper one where K is symmetric only within tolerance
    A = np.array(K.T, order="F")
    if not all(np.array_equal(A[:, c:c + 64], A[c:c + 64].T) for c in range(0, len(A), 64)):
        check_finite("Gram matrix", A)  # before the mirror hides a NaN
        scale = max(1.0, float(np.max(np.abs(A))))
        if float(np.max(np.abs(A - A.T))) > 1e-8 * scale:
            raise ValueError("kernel matrix is not symmetric within tolerance")
        _mirror_lower(A)
    return _shifted_solves(A, Y, lam)


@dataclass
class KernelMap:
    """Kernel-ridge map Z -> K(Z, anchors) @ alpha."""

    spec: KernelSpec
    anchors: np.ndarray  # training rows
    alpha: np.ndarray  # representer coefficients, one column per target

    def apply(self, Z):
        return kernel_matrix(Z, self.anchors, self.spec) @ self.alpha


def fit_kernel_map(X, T, spec, lam):
    """Kernel ridge from the rows of X to the rows of T, one map per lam of the path."""
    alphas = krr_fit(kernel_matrix(X, X, spec), T, lam)
    # anchors are a copy, so applying the map to the training array never
    # hits the same-object diagonal zeroing and drifts from a
    # loaded model
    anchors = X.copy()
    return [KernelMap(spec, anchors, alpha) for alpha in alphas]


def spectral_norm(H):
    """Largest singular value of H by power iteration on the smaller Gram
    matrix, at most 50 steps, until the eigenvalue moves by at most 1e-6 of itself."""
    n, p = H.shape
    G = H.T @ H if p <= n else H @ H.T
    dim = G.shape[0]
    v = np.full(dim, 1.0 / np.sqrt(dim))
    lam = 0.0
    for _ in range(50):
        w = G @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        lam_new = float(v @ w)  # Rayleigh quotient, ||v|| = 1
        v = w / norm
        if abs(lam_new - lam) <= 1e-6 * max(abs(lam_new), 1e-300):
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
    _check_regression_args(H, T, [cfg.lam])
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
    _check_regression_args(H, T, [cfg.lam])
    p, k = H.shape[1], T.shape[1]
    rho = cfg.lam
    G = 2.0 * _gram(H.T)  # Fortran order, so LAPACK factors it in place
    G[np.diag_indices_from(G)] += rho
    check_finite("elastic-net Gram matrix", G)
    lp = _lapack()
    factor, info = lp.dpotrf(G, overwrite_a=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the elastic-net "
                                    "Gram matrix is not positive definite")
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
        W, _ = lp.dpotrs(factor, HtT2 + rho * (Z - U))
        Z_prev = Z
        Z = soft_threshold(W + U, l1 / rho) / (1.0 + l2 / rho)
        U = U + W - Z
        r = float(np.linalg.norm(W - Z))
        s = rho * float(np.linalg.norm(Z - Z_prev))
        eps_pri = cfg.tol * (size + max(np.linalg.norm(W), np.linalg.norm(Z)))
        eps_dual = cfg.tol * (size + rho * np.linalg.norm(U))
        if r <= eps_pri and s <= eps_dual:
            converged = True
            break
    check_finite("elastic-net weights", Z)
    obj = elastic_net_objective(H, T, Z, cfg.lam, cfg.alpha_mix)
    return AdmmResult(Z, converged, iterations, obj, r, s)
