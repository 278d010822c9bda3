"""Acceptance suite: one test per criterion, each timed against its budget.

The conftest hook prints one [acceptance] PASS/FAIL line per test.
"""

import json
import time

import numpy as np
import pytest

from randnet import (
    DeepConfig,
    ElasticNetConfig,
    KernelSpec,
    L1Config,
    RidgeConfig,
    RngState,
    admm_elastic_net,
    deep_train,
    elm_train,
    fista_lasso,
    friedman_chi2,
    friedman_f,
    kernel_matrix,
    krr_fit,
    nemenyi_cd,
    pairwise_significance,
    ridge_dual,
    ridge_primal,
    rvfl_train,
)
from randnet.autoencoders import AutoencoderSpec
from randnet.cli import main
from randnet.config import load_config
from randnet.data import fit_apply_scaling
from randnet.harness import TIME_COLUMNS, read_results_csv, run_bench
from randnet.methods import get_method, predict_method, train_method
from randnet.ranking import nemenyi_q, significance_marks
from randnet.selection import GridSpec, accuracy, grid_search
from randnet.synthetic import interleaved_arcs, separable_blobs

from oracles import lasso_coordinate_descent, lasso_objective_value


class budget:
    """Assert the wrapped block stays under its stated runtime limit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"
        return False


def test_criterion_1_statistics_reproduction():
    with budget(1.0):
        chi2_a = friedman_chi2((3.9, 2.75, 1.8, 1.55), 20)
        assert chi2_a == pytest.approx(40.98, abs=0.01)
        f_a, dof = friedman_f(chi2_a, 20, 4)
        assert f_a == pytest.approx(40.93, abs=0.05)
        assert dof == (3, 57)

        chi2_b = friedman_chi2((3.8, 2.95, 1.8, 1.45), 20)
        assert chi2_b == pytest.approx(41.82, abs=0.01)
        f_b, _ = friedman_f(chi2_b, 20, 4)
        assert f_b == pytest.approx(43.7, abs=0.05)

        chi2_c = friedman_chi2((3.77, 2.65, 1.95, 1.62), 20)
        assert chi2_c == pytest.approx(31.95, abs=0.05)


def test_criterion_2_critical_differences():
    with budget(1.0):
        assert nemenyi_q(4, 0.05) == 2.569
        assert nemenyi_q(15, 0.05) == 3.391
        assert nemenyi_cd(4, 20, 0.05) == pytest.approx(1.04, abs=0.01)
        assert nemenyi_cd(15, 20, 0.05) == pytest.approx(4.79, abs=0.01)


# jointly computed mean ranks of the fifteen compared methods, and the
# published better/worse pattern among them
JOINT_RANKS = (3.1, 3.72, 3.87, 5.15, 5.22, 5.92, 6.62, 7.62, 8.5,
               10.15, 10.6, 11.22, 12.25, 12.95, 13.07)


def expected_significance_pattern():
    expected = np.full((15, 15), "", dtype=object)
    better_cols = {0: range(8, 15), 1: range(9, 15), 2: range(9, 15),
                   3: range(9, 15), 4: range(9, 15), 5: range(11, 15),
                   6: range(12, 15), 7: range(13, 15)}
    for row, cols in better_cols.items():
        for c in cols:
            expected[row, c] = "s+"
            expected[c, row] = "s-"
    return expected


def test_criterion_3_significance_matrix_regression():
    with budget(1.0):
        sig = pairwise_significance(JOINT_RANKS, 20, 0.05)
        assert sig.cd == pytest.approx(4.79, abs=0.01)
        np.testing.assert_array_equal(significance_marks(sig),
                                      expected_significance_pattern())


def test_criterion_4_solver_oracle_equivalence():
    with budget(30.0):
        for i in range(20):
            rng = RngState(1000 + i)
            n = 25 + (i * 7) % 36
            p = min(5 + (i * 13) % 51, n)
            k = 1 + i % 4
            H = rng.gaussian(n, p)
            T = rng.gaussian(n, k)
            lam = (0.5, 5.0)[i % 2]

            bp = ridge_primal(H, T, [lam])[0]
            bd = ridge_dual(H, T, [lam])[0]
            assert np.linalg.norm(bp - bd) <= 1e-8 * np.linalg.norm(bp)

            fista = fista_lasso(H, T, L1Config(lam=lam, max_iters=10000,
                                               tol=1e-14))
            w_cd = lasso_coordinate_descent(H, T, lam)
            gap = abs(fista.objective - lasso_objective_value(H, T, w_cd, lam))
            assert gap <= 1e-6

            tight = dict(max_iters=20000, tol=1e-12)
            a0 = admm_elastic_net(H, T, ElasticNetConfig(lam=lam, alpha_mix=0.0,
                                                         **tight))
            ridge_ref = ridge_primal(H, T, [lam / 2.0])[0]
            assert (np.linalg.norm(a0.weights - ridge_ref)
                    <= 1e-8 * np.linalg.norm(ridge_ref))
            a1 = admm_elastic_net(H, T, ElasticNetConfig(lam=lam, alpha_mix=1.0,
                                                         **tight))
            assert abs(a1.objective - fista.objective) <= 1e-5

            alpha = krr_fit(kernel_matrix(H, H, KernelSpec("linear")), T, [lam])[0]
            Hs = rng.gaussian(10, p)
            pred_krr = kernel_matrix(Hs, H, KernelSpec("linear")) @ alpha
            pred_ridge = Hs @ bd
            assert (np.linalg.norm(pred_krr - pred_ridge)
                    <= 1e-8 * np.linalg.norm(pred_ridge))


def test_criterion_5_architecture_degeneracy():
    with budget(30.0):
        ds = separable_blobs(n=200, seed=0)
        X, Y = ds.X, ds.Y

        def specs(widths):
            return [AutoencoderSpec(width=w, reg=RidgeConfig(lam=0.1)) for w in widths]

        # denoising at zero intensity is bitwise the plain dense stack
        params = {"layers": 3, "ae_width": 15, "clf_width": 40, "C": 10.0}
        dense = train_method(get_method("deep_rvfl_dense_l2"), params, X, Y, 21)
        zeroed = train_method(get_method("deep_rvfl_dense_denoise_l2"),
                              dict(params, noise=0.0), X, Y, 21)
        for a, b in zip(dense.encoders, zeroed.encoders):
            np.testing.assert_array_equal(a.decoder, b.decoder)
        np.testing.assert_array_equal(dense.classifier.weights,
                                      zeroed.classifier.weights)

        # the ELM is the RVFL with its direct links ablated
        elm = elm_train(X, Y, width=30, lam=[0.1], seed=22)[0]
        ablated = rvfl_train(X, Y, width=30, lam=[0.1], seed=22,
                             direct_links=False)[0]
        np.testing.assert_array_equal(elm.layer.W, ablated.layer.W)
        np.testing.assert_array_equal(elm.layer.b, ablated.layer.b)
        np.testing.assert_array_equal(elm.weights, ablated.weights)

        # plain and direct connectivity differ only at the classifier
        widths = (10, 15, 20)
        plain = deep_train(X, Y, DeepConfig(layers=specs(widths), seed=23,
                                            connectivity="plain", clf_width=40))
        direct = deep_train(X, Y, DeepConfig(layers=specs(widths), seed=23,
                                             connectivity="direct", clf_width=40))
        for a, b in zip(plain.encoders, direct.encoders):
            np.testing.assert_array_equal(a.decoder, b.decoder)

        # dense dimension ledger
        from randnet.deep import deep_features

        d = X.shape[1]
        for L in (1, 2, 3):
            ws = widths[:L]
            model = deep_train(X, Y, DeepConfig(layers=specs(ws), seed=24,
                                                connectivity="dense",
                                                clf_width=30))
            assert deep_features(model, X).shape[1] == d + sum(ws)
            assert model.classifier.weights.shape[0] == 30 + d + sum(ws)


def test_criterion_6_capacity_ordering_on_arcs():
    # the published accuracy tables are not bit-reproducible; the frozen
    # substitute property is the capacity ordering on the bundled arcs
    with budget(120.0):
        ds = interleaved_arcs(n_train=400, n_val=0, n_test=200, noise=0.15,
                              seed=7)
        ds, _ = fit_apply_scaling(ds, "minmax")
        Xtr, Ytr, _ = ds.part("train")
        Xte, _, yte = ds.part("test")
        deep_method = get_method("deep_rvfl_dense_l2")
        shallow_method = get_method("rvfl")
        deep_params = {"layers": 3, "ae_width": 50, "clf_width": 500, "C": 100.0}
        shallow_params = {"clf_width": 500, "C": 100.0}
        deep_accs, shallow_accs = [], []
        for seed in range(10):
            model = train_method(deep_method, deep_params, Xtr, Ytr, seed)
            deep_accs.append(accuracy(yte, predict_method(model, Xte)[1]))
            model = train_method(shallow_method, shallow_params, Xtr, Ytr, seed)
            shallow_accs.append(accuracy(yte, predict_method(model, Xte)[1]))
        deep_mean = float(np.mean(deep_accs))
        shallow_mean = float(np.mean(shallow_accs))
        assert deep_mean >= shallow_mean - 0.01
        assert deep_mean >= 0.90
        assert shallow_mean >= 0.90


BENCH_CONFIG = """\
output_dir: out
seeds: [0, 1]
scaling: minmax
datasets:
  - name: arcs
    synthetic: {kind: arcs, n_train: 120, n_val: 60, n_test: 60, noise: 0.15, seed: 7}
  - name: blobs
    synthetic: {kind: blobs, n_train: 80, n_val: 40, n_test: 40, seed: 3}
methods:
  - name: rvfl
    params: {clf_width: 80, C: 100.0}
    grid: {clf_widths: [40, 80], C_values: [0.1, 100.0]}
  - name: deep_rvfl_dense_l2
    params: {layers: 2, ae_width: 15, clf_width: 80, C: 100.0}
    grid: {ae_widths: [10, 15], clf_widths: [80], C_values: [100.0]}
"""


def _csv_without_time_columns(path):
    rows = read_results_csv(path)
    kept = [c for c in rows[0] if c not in TIME_COLUMNS]
    return "\n".join(",".join(row[c] for c in kept) for row in rows)


def test_criterion_7_protocol_hygiene(tmp_path, interrupt_after):
    with budget(60.0):
        # canary: garbage in the test rows must not move selection
        from dataclasses import replace

        ds = separable_blobs(n=120, n_val=40, n_test=40, seed=2)
        grid = GridSpec(ae_widths=(10,), clf_widths=(50, 100),
                        C_values=(0.1, 100.0), sigma_values=(1.0,),
                        noise_values=(0.1,))
        method = get_method("rvfl")
        clean = grid_search(ds, method, grid, seeds=[0])
        X_bad = ds.X.copy()
        X_bad[ds.partitions["test"]] = 1e9
        dirty = grid_search(replace(ds, X=X_bad), method, grid, seeds=[0])
        assert dirty.params == clean.params
        assert dirty.val_accuracy == clean.val_accuracy
        assert dirty.test_accuracy != clean.test_accuracy

        # bench resume reproduces the uninterrupted run byte for byte
        # once the wall-clock time column is stripped
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(BENCH_CONFIG)
        cfg = load_config(cfg_path)
        ref = run_bench(cfg, tmp_path / "ref")
        with interrupt_after(2), pytest.raises(KeyboardInterrupt):
            run_bench(cfg, tmp_path / "resumed")
        manifest = json.loads(
            (tmp_path / "resumed" / "bench_manifest.json").read_text())
        assert len(manifest["cells"]) == 2
        resumed = run_bench(cfg, tmp_path / "resumed", resume=True)
        assert (_csv_without_time_columns(ref)
                == _csv_without_time_columns(resumed))


def test_criterion_8_end_to_end_determinism(tmp_path):
    with budget(30.0):
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(BENCH_CONFIG)
        for out in ("a", "b"):
            code = main(["train", "--config", str(cfg_path),
                         "--dataset", "arcs", "--method", "deep_rvfl_dense_l2",
                         "--out", str(tmp_path / out), "--seed", "0"])
            assert code == 0
        name = "arcs__deep_rvfl_dense_l2__seed0.rnm"
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
