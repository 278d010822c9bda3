"""Workload definitions: the program inputs each workload generates from its seed.

Every workload hands ``randnet`` a run config (synthetic datasets whose
draws are seeded from the workload seed); ``train_serve`` also gets a
fresh arcs draw, scaled as its training data was, to predict as a
closed-loop stream of fixed-size batches from one client.

Why these workloads:

* ``shallow_grid`` -- ridge Gram + solve and ``activate`` dominate: every
  C value redraws the same random layer, so a regularization path or
  nested layers act here. No autoencoder or iterative solver runs.
* ``deep_grid`` -- FISTA, ADMM, ``lasso_objective``, autoencoder
  training, dense concatenation and the harness's cell threads on top
  of multithreaded BLAS dominate; large ridge solves are minor.
* ``train_serve`` -- the forward path (``model_io``, ``encode``,
  ``deep_features``, ``activate``, ``concat_cols``, ``shallow.predict``)
  does almost all the work and the solvers almost none, so a training
  side change that costs inference shows here.
"""

import hashlib

DEFAULT_SEED = 0


def derive(seed, label):
    """A 31-bit input seed for one named input of the workload seed."""
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _arcs(seed, n_train, n_val, n_test):
    return {"name": "arcs",
            "synthetic": {"kind": "arcs", "n_train": n_train, "n_val": n_val,
                          "n_test": n_test, "noise": 0.15,
                          "seed": derive(seed, "arcs")}}


# solver_iters 100 (default 500) cuts the FISTA/ADMM budget so two or three
# repetitions fit the run length. Nearly every decoder then stops at the
# budget rather than on its tolerance, so the solver work per seed is
# fixed; the solvers still take the largest share of a cell.
DEEP_PARAMS = {"layers": 3, "ae_width": 20, "clf_width": 500, "C": 1.0,
               "solver_iters": 100}
# A full search, not the default stagewise one: stage 2 of a stagewise
# search runs at the stage-1 winner's autoencoder width, so the work of a
# repetition would depend on which width the seed's data favours (up to
# 1.5x between seeds). The full grid fits every candidate on every seed.
DEEP_GRID = {"ae_widths": [20, 60], "clf_widths": [500, 1000], "C_values": [1.0, 100.0],
             "noise_values": [0.1, 0.3], "search": "full"}


def _blobs(seed, name):
    return {"name": name,
            "synthetic": {"kind": "blobs", "n_train": 200, "n_val": 100,
                          "n_test": 100, "seed": derive(seed, name)}}


# Three small blobs draws beside arcs, not one: ``randnet stats`` raises,
# by design, when every dataset ranks the methods in the same strict order
# (the Friedman chi2 reaches M (m - 1) and the F correction is undefined).
# With arcs and one blobs draw it took only blobs giving three distinct
# test accuracies in arcs' order: blobs gave distinct ones on 4 of 300
# seeds, always with kelm first, as arcs tends to. Every further draw has
# to do the same, so with three draws it takes a few seeds in a million.
BLOBS = ("blobs", "blobs_b", "blobs_c")


def _shallow_grid(seed):
    # The width axis is thinned to {500, 2000} to fit the run length;
    # rvfl and elm keep the default 8-value C axis.
    widths = {"clf_widths": [500, 2000]}
    return {
        "seeds": [derive(seed, "model") % 1000],
        "scaling": "minmax",
        "parallelism": 1,
        "datasets": [_arcs(seed, 2000, 1000, 1000)] + [_blobs(seed, n) for n in BLOBS],
        "methods": [
            {"name": "rvfl", "params": {"clf_width": 500, "C": 100.0}, "grid": widths},
            {"name": "elm", "params": {"clf_width": 500, "C": 100.0}, "grid": widths},
            {"name": "kelm", "params": {"sigma": 1.0, "C": 100.0},
             "grid": {"sigma_values": [0.1, 1.0], "C_values": [1.0, 1000.0]}},
        ],
    }


def _deep_grid(seed):
    return {
        "seeds": [derive(seed, "model") % 1000],
        "scaling": "minmax",
        "parallelism": 2,
        "datasets": [_arcs(seed, 1000, 500, 500)],
        "methods": [{"name": name, "params": DEEP_PARAMS, "grid": DEEP_GRID}
                    for name in ("deep_rvfl_dense_l1", "deep_rvfl_dense_elastic",
                                 "deep_rvfl_dense_denoise_l2")],
    }


def _train_serve(seed):
    return {
        "seeds": [derive(seed, "model") % 1000],
        "scaling": "minmax",
        "parallelism": 1,
        "datasets": [_arcs(seed, 2000, 500, 500)],
        "methods": [{"name": "deep_rvfl_dense_l2",
                     "params": {"layers": 3, "ae_width": 50, "clf_width": 500,
                                "C": 100.0}}],
    }


# bench: the CLI calls of a grid workload; serve: (method trained at its
# fixed params, rows per batch, batches) for train_serve; heavy: spans
# that must record calls in a traced run.
WORKLOADS = {
    "shallow_grid": {
        "config": _shallow_grid,
        "bench": ("bench", "stats"),
        "serve": None,
        "heavy": ("harness.run_bench", "harness.run_stats",
                  "selection.grid_search", "methods.train_method",
                  "shallow.rvfl_train", "shallow.kelm_train",
                  "solvers.ridge_primal", "solvers.ridge_dual",
                  "solvers.kernel_matrix", "solvers.krr_fit",
                  "numerics.activate", "ranking.rank_rows",
                  "config.load_config"),
    },
    "deep_grid": {
        "config": _deep_grid,
        "bench": ("bench",),
        "serve": None,
        "heavy": ("harness.run_bench", "selection.grid_search",
                  "deep.deep_train", "autoencoders.rand_ae_train",
                  "solvers.fista_lasso", "solvers.lasso_objective",
                  "solvers.admm_elastic_net", "autoencoders.encode",
                  "numerics.concat_cols", "deep.deep_features",
                  "data.fit_apply_scaling"),
    },
    "train_serve": {
        "config": _train_serve,
        "bench": (),
        "serve": ("deep_rvfl_dense_l2", 256, 1000),
        "heavy": ("harness.run_train", "model_io.save_model",
                  "model_io.load_model", "methods.predict_method",
                  "deep.deep_features", "autoencoders.encode",
                  "numerics.activate", "numerics.concat_cols",
                  "shallow.predict", "config.load_config"),
    },
}
