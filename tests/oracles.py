"""Independent reference implementations used only to check the real solvers.

These deliberately share no code with the package's solvers: the lasso
oracle is plain cyclic coordinate descent, the ridge oracle forms a
fresh Gram matrix for every lam, and the separability certificate is a
perceptron run to zero errors. The grid-search oracle is the naive loop
the grouped fits (C paths, shared autoencoder stacks) replace: it trains
and scores every candidate on its own through the package's one-model
entry points.
"""

import numpy as np
import scipy.linalg


def lasso_coordinate_descent(H, T, lam, sweeps=50000, kkt_tol=1e-9):
    """Cyclic coordinate descent for min ||H W - T||^2 + lam ||W||_1.

    With the un-halved quadratic term the coordinate update is
    w_j = soft(g_j, lam / 2) / G_jj with G the Gram matrix. Sweeps stop
    once the subgradient optimality conditions hold to kkt_tol:
    |g + lam sign(w)| on the support, |g| <= lam off it.
    """
    p = H.shape[1]
    k = T.shape[1]
    G = H.T @ H
    HtT = H.T @ T
    diag = np.diag(G).copy()
    W = np.zeros((p, k))
    GW = np.zeros((p, k))
    for _ in range(sweeps):
        for j in range(p):
            if diag[j] == 0.0:
                continue
            rho = HtT[j] - GW[j] + diag[j] * W[j]
            new = np.sign(rho) * np.maximum(np.abs(rho) - lam / 2.0, 0.0) / diag[j]
            delta = new - W[j]
            if np.any(delta != 0.0):
                GW += np.outer(G[:, j], delta)
                W[j] = new
        grad = 2.0 * (GW - HtT)
        on = W != 0.0
        viol = np.max(np.abs(grad[on] + lam * np.sign(W[on]))) if np.any(on) else 0.0
        off = np.max(np.maximum(np.abs(grad[~on]) - lam, 0.0)) if np.any(~on) else 0.0
        if max(viol, off) <= kkt_tol * max(1.0, lam):
            break
    return W


def lasso_objective_value(H, T, W, lam):
    R = H @ W - T
    return float(np.sum(R * R) + lam * np.sum(np.abs(W)))


def perceptron_separable(X, y, max_epochs=2000):
    """Certify linear separability: True iff a perceptron reaches zero errors.

    y must be +/-1. Termination within max_epochs is a constructive
    certificate; non-termination proves nothing, so keep test data easy.
    """
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    w = np.zeros(Xb.shape[1])
    for _ in range(max_epochs):
        errors = 0
        for i in range(Xb.shape[0]):
            if y[i] * (Xb[i] @ w) <= 0:
                w += y[i] * Xb[i]
                errors += 1
        if errors == 0:
            return True
    return False


def auc_brute_force(scores, labels):
    """AUC as the literal average over all positive/negative pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def shifted_solve(G, B, lam):
    """(G + lam I)^-1 B through scipy's positive-definite solve, on a
    fresh copy of G with lam added to its diagonal."""
    G = G.copy()
    G[np.diag_indices_from(G)] += lam
    return scipy.linalg.solve(G, B, assume_a="pos")


def ridge_one_lam(D, Y, lam):
    """One ridge fit from scratch: a fresh Gram matrix of the smaller
    system with lam added to its diagonal."""
    if D.shape[0] < D.shape[1]:
        return D.T @ shifted_solve(D @ D.T, Y, lam)
    return shifted_solve(D.T @ D, D.T @ Y, lam)


def validation_scores_per_candidate(ds, method, candidates, seed):
    """Validation accuracy of each candidate, trained and scored alone."""
    from randnet.methods import predict_method, train_method
    from randnet.selection import accuracy

    Xtr, Ytr, _ = ds.part("train")
    Xva, _, yva = ds.part("validation")
    return [accuracy(yva, predict_method(train_method(method, params, Xtr, Ytr, seed),
                                         Xva)[1])
            for params in candidates]


def grid_search_per_candidate(ds, method, grid, seeds, base_params=None,
                              retrain_with_validation=False):
    """Grid search with every candidate trained and scored alone.

    A stagewise search of a deep method first picks every axis but the
    classifier width at clf_width = 500 and C = 1, then the classifier
    width and C from that winner. Returns (params, validation accuracy,
    mean test accuracy, mean AUC or None); ties fall to fewer hidden
    nodes, then earlier grid order.
    """
    from dataclasses import replace

    from randnet.methods import hidden_nodes
    from randnet.selection import evaluate_fixed, expand_grid

    def pick(axes, base):
        candidates = expand_grid(grid, replace(method, axes=axes), base)
        scores = validation_scores_per_candidate(ds, method, candidates, seeds[0])
        best = None
        for params, score in zip(candidates, scores):
            key = (score, -hidden_nodes(method, params))
            if best is None or key > best[0]:
                best = (key, params)
        return best[0][0], best[1]

    if grid.search == "full" or "ae_width" not in method.axes:
        score, params = pick(method.axes, base_params)
    else:
        _, params = pick(tuple(a for a in method.axes if a != "clf_width"),
                         dict(base_params or {}, clf_width=500, C=1.0))
        score, params = pick(tuple(a for a in method.axes if a in ("clf_width", "C")),
                             params)
    fit_roles = ("train", "validation") if retrain_with_validation else ("train",)
    runs = [evaluate_fixed(ds, method, params, seed, fit_roles, ("test",))[1]
            for seed in seeds]
    mean_auc = float(np.mean([r.auc for r in runs])) if ds.n_classes == 2 else None
    return (runs[0].params, score,
            float(np.mean([r.test_accuracy for r in runs])), mean_auc)
