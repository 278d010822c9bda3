import copy
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randnet.harness
import randnet.numerics
from randnet.cli import main
from randnet.config import ConfigError, load_config
from randnet.data import DataFormatError, load_manifest
from randnet.harness import (
    TIME_COLUMNS,
    accuracy_matrix,
    read_results_csv,
    run_bench,
    run_stats,
    run_sweep,
    run_train,
)
from randnet.methods import DEFAULT_PARAMS
from randnet.numerics import blas_thread_counts, blas_threads

from oracles import sweep_per_point

CONFIG = """\
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
  - name: kelm
    params: {sigma: 1.0, C: 1.0}
    grid: {sigma_values: [1.0], C_values: [1.0, 100.0]}
"""


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(CONFIG)
    return p


def strip_time(rows):
    return [{k: v for k, v in r.items() if k not in TIME_COLUMNS} for r in rows]


# ------------------------------------------------------------------ config


def test_load_config_valid(config_path):
    cfg = load_config(config_path)
    assert [d.name for d in cfg.datasets] == ["arcs", "blobs"]
    assert cfg.seeds == [0, 1]
    assert cfg.grid_for(cfg.methods[0]).clf_widths == (40, 80)


def test_config_unknown_top_key(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("datasets: [{name: a, synthetic: {kind: blobs}}]\n"
                 "methods: [{name: rvfl}]\nspeed: 9\n")
    with pytest.raises(ConfigError, match="unknown key 'speed'"):
        load_config(p)


def test_config_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("datasets:\n  - name: a\n    synthetic: {kind: blobs}\n"
                 "methods:\n  - name: not_a_method\n")
    with pytest.raises(ConfigError, match=r"line 5"):
        load_config(p)


def test_config_rejects_manifest_and_synthetic(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("datasets: [{name: a, manifest: m.yaml, synthetic: {kind: blobs}}]\n"
                 "methods: [{name: rvfl}]\n")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(p)


@pytest.mark.parametrize("kind, key", [("blobs", "noise: 0.3"), ("arcs", "gap: 2.0")],
                         ids=["blobs_noise", "arcs_gap"])
def test_config_rejects_synthetic_key_of_other_kind(tmp_path, kind, key):
    # the generator of this kind takes no such argument, so it would be ignored
    p = tmp_path / "bad.yaml"
    p.write_text(f"datasets: [{{name: a, synthetic: {{kind: {kind}, {key}}}}}]\n"
                 "methods: [{name: rvfl}]\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key.split(':')[0]}'"):
        load_config(p)


@pytest.mark.parametrize("grid, message", [
    ("{C_values: []}", "grid axis C_values is empty"),
    ("{search: bogus}", "unknown search policy 'bogus'"),
    ("{C_values: [1.0, 0]}", "param C must be a number > 0, got 0"),
    ("{C_values: [1.0, .inf]}", "param C must be finite, got inf"),
    ("{sigma_values: [.nan]}", "param sigma must be finite, got nan"),
    ("{clf_widths: [0]}", "param clf_width must be an integer >= 1"),
], ids=["empty_C_values", "bogus_search", "zero_C_value", "inf_C_value", "nan_sigma_value",
        "zero_width"])
def test_config_validates_grid_at_load(tmp_path, grid, message):
    p = tmp_path / "bad.yaml"
    p.write_text("datasets:\n  - {name: a, synthetic: {kind: blobs}}\n"
                 f"methods:\n  - name: rvfl\n    grid: {grid}\n")
    with pytest.raises(ConfigError, match=message) as err:
        load_config(p)
    assert "at methods[0].grid (line 5)" in str(err.value)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("params, message", [
    ("{activation: bogus}", "param activation must be one of"),
    ("{C: 0}", "param C must be a number > 0, got 0"),
    ("{sigma: -1.0}", "param sigma must be a number > 0"),
    ("{clf_width: 2.5}", "param clf_width must be an integer >= 1"),
    ("{layers: 0}", "param layers must be an integer >= 1"),
    ("{solver_iters: true}", "param solver_iters must be an integer >= 1"),
    ("{noise: -0.1}", "param noise must be a number >= 0"),
    ("{alpha_mix: 1.5}", r"param alpha_mix must be a number in \[0, 1\]"),
    ("{C: .inf}", "param C must be finite, got inf"),
    ("{sigma: .inf}", "param sigma must be finite, got inf"),
    ("{noise: .inf}", "param noise must be finite, got inf"),
], ids=["activation", "C", "sigma", "clf_width", "layers", "solver_iters", "noise",
        "alpha_mix", "C_inf", "sigma_inf", "noise_inf"])
def test_config_validates_param_values_at_load(tmp_path, params, message):
    # a bad value used to load and fail every cell of its method at run time
    key = params[1:].split(":")[0]
    p = tmp_path / "bad.yaml"
    p.write_text("datasets:\n  - {name: a, synthetic: {kind: blobs}}\n"
                 f"methods:\n  - name: rvfl\n    params: {params}\n")
    with pytest.raises(ConfigError, match=message) as err:
        load_config(p)
    assert f"at methods[0].params.{key} (line 5)" in str(err.value)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("seeds, synthetic, message, where", [
    ("[-1]", "kind: arcs", "seed must be an integer >= 0, got -1", "seeds[0] (line 1)"),
    ("[0, true]", "kind: arcs", "seed must be an integer >= 0, got True",
     "seeds[1] (line 1)"),
    ("[0]", "kind: arcs, seed: -1", "synthetic seed must be an integer >= 0, got -1",
     "datasets[0].synthetic.seed (line 3)"),
    ("[0]", "kind: arcs, noise: -1", "synthetic noise must be a finite number >= 0, got -1",
     "datasets[0].synthetic.noise (line 3)"),
    ("[0]", "kind: arcs, noise: .nan",
     "synthetic noise must be a finite number >= 0, got nan",
     "datasets[0].synthetic.noise (line 3)"),
    ("[0]", "kind: arcs, n_train: 0", "synthetic n_train must be an integer >= 1, got 0",
     "datasets[0].synthetic.n_train (line 3)"),
    ("[0]", "kind: arcs, n_val: -1", "synthetic n_val must be an integer >= 0, got -1",
     "datasets[0].synthetic.n_val (line 3)"),
    ("[0]", "kind: blobs, n_test: 2.5",
     "synthetic n_test must be an integer >= 0, got 2.5",
     "datasets[0].synthetic.n_test (line 3)"),
    ("[0]", "kind: blobs, gap: .inf", "synthetic gap must be a finite number, got inf",
     "datasets[0].synthetic.gap (line 3)"),
], ids=["negative_seed", "bool_seed", "synthetic_seed", "noise", "nan_noise", "n_train",
        "n_val", "n_test", "gap"])
def test_config_validates_seeds_and_synthetic_values_at_load(tmp_path, seeds, synthetic,
                                                             message, where):
    # each used to load, then fail every cell (bench exited 0) or the run (exit 1)
    p = tmp_path / "bad.yaml"
    p.write_text(f"seeds: {seeds}\ndatasets:\n  - {{name: a, synthetic: {{{synthetic}}}}}\n"
                 "methods:\n  - name: rvfl\n")
    with pytest.raises(ConfigError, match=re.escape(message)) as err:
        load_config(p)
    assert f"at {where}" in str(err.value)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("text, message, where", [
    ("parallelism: true\n", "parallelism must be an integer >= 1, got True",
     "parallelism (line 1)"),
    ("output_dir: 5\n", "output_dir must be a directory name, got 5", "output_dir (line 1)"),
    ("datasets: [{name: [1], synthetic: {kind: arcs}}]\n",
     "name must be a string, got [1]", "datasets[0].name (line 1)"),
    ("methods: [{name: [1]}]\n", "name must be one of [", "methods[0].name (line 1)"),
    ("datasets: [{name: a, manifest: 5}]\n", "manifest must be a file name, got 5",
     "datasets[0].manifest (line 1)"),
], ids=["bool_parallelism", "number_output_dir", "list_dataset_name", "list_method_name",
        "number_manifest"])
def test_config_validates_top_values_and_entry_names_at_load(tmp_path, text, message, where):
    # a bool counted as an integer, the number loaded, the lists failed
    # with "unhashable type" and the manifest number in bench (exit 1)
    base = {"datasets": "[{name: a, synthetic: {kind: arcs}}]\n",
            "methods": "[{name: rvfl}]\n"}
    key = text.split(":")[0]
    p = tmp_path / "bad.yaml"
    p.write_text(text + "".join(f"{k}: {v}" for k, v in base.items() if k != key))
    with pytest.raises(ConfigError, match=re.escape(message)) as err:
        load_config(p)
    assert f"at {where}" in str(err.value)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()


# a run config and a manifest that each hold every key their loader accepts
RUN_DOC = {
    "output_dir": "out", "seeds": [0, 1], "parallelism": 1, "scaling": "minmax",
    "retrain_with_validation": False,
    "datasets": [
        {"name": "arcs", "synthetic": {"kind": "arcs", "n_train": 20, "n_val": 10,
                                       "n_test": 10, "noise": 0.1, "seed": 7}},
        {"name": "blobs", "synthetic": {"kind": "blobs", "n_train": 20, "n_val": 10,
                                        "n_test": 10, "gap": 4.0, "seed": 3}},
        {"name": "toy", "manifest": "toy.yaml"},
    ],
    "methods": [{"name": "rvfl", "params": dict(DEFAULT_PARAMS),
                 "grid": {"ae_widths": [10], "clf_widths": [20], "C_values": [1.0],
                          "sigma_values": [1.0], "noise_values": [0.1], "search": "full"}}],
}
MANIFEST_DOC = {"name": "toy", "csv": {"path": "toy.csv", "label_col": -1, "header": False,
                                       "delimiter": ","},
                "partitions": {"train": "train.txt", "validation": "valid.txt",
                               "test": "test.txt"},
                "disjoint": True}


def key_paths(node, path=()):
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["", "\0", "a\0b", ".", "-", 10 ** 400, -10 ** 400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    (d / "toy.csv").write_text("".join(f"{i},{-i},{i % 2}\n" for i in range(12)))
    for name, rows in (("train", range(6)), ("valid", range(6, 9)), ("test", range(9, 12))):
        (d / f"{name}.txt").write_text("".join(f"{i}\n" for i in rows))
    return d


LOADERS = {"run": (RUN_DOC, load_config, ConfigError),
           "manifest": (MANIFEST_DOC, load_manifest, DataFormatError)}
KEY_PATHS = [(name, path) for name, (doc, *_) in LOADERS.items() for path in key_paths(doc)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(where=st.sampled_from(KEY_PATHS), value=YAML_VALUES)
# an int beyond the float range made math.isfinite raise OverflowError,
# and a NUL in a file name made Path.read_text raise a plain ValueError
@example(where=("run", ("datasets", 1, "synthetic", "gap")), value=10 ** 400)
@example(where=("run", ("methods", 0, "params", "C")), value=-10 ** 400)
@example(where=("manifest", ("csv", "path")), value="a\0b")
def test_loaders_raise_only_their_own_errors(doc_dir, where, value):
    # any YAML value at any key path is loaded or refused with the
    # loader's own error, never a TypeError from deep inside it
    name, path = where
    doc, loader, errors = LOADERS[name]
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    target = doc_dir / f"{name}.yaml"
    target.write_text(yaml.safe_dump(doc))
    try:
        loader(target)
    except errors:
        pass


def test_config_rejects_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("datasets: [unclosed\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(p)


def bench_toy_manifest(tmp_path, partitions):
    """Exit code of `randnet bench` on a 12-row manifest dataset, and its out dir."""
    (tmp_path / "toy.csv").write_text("".join(f"{i},{-i},{i % 2}\n" for i in range(12)))
    for name, rows in (("train", range(6)), ("valid", range(6, 9)), ("test", range(9, 12))):
        (tmp_path / f"{name}.txt").write_text("".join(f"{i}\n" for i in rows))
    (tmp_path / "toy.yaml").write_text(f"csv: {{path: toy.csv}}\npartitions: {partitions}\n")
    p = tmp_path / "run.yaml"
    p.write_text("seeds: [0]\ndatasets: [{name: toy, manifest: toy.yaml}]\n"
                 "methods: [{name: rvfl, grid: {clf_widths: [5], C_values: [1.0]}}]\n")
    out = tmp_path / "bench"
    return main(["bench", "--config", str(p), "--out", str(out)]), out


def test_bench_rejects_manifest_with_unknown_role(tmp_path, capsys):
    # "valid" is no role: loaded, it would fail every cell for want of a
    # validation partition while the run exits 0
    code, out = bench_toy_manifest(
        tmp_path, "{train: train.txt, valid: valid.txt, test: test.txt}")
    assert code == 2
    assert "unknown key 'valid'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_bench_rejects_dataset_without_validation_partition(tmp_path, capsys):
    # grid search selects on validation: without it every cell would fail
    code, out = bench_toy_manifest(tmp_path, "{train: train.txt, test: test.txt}")
    assert code == 2
    assert "dataset 'toy' lacks partition roles ['validation']" in capsys.readouterr().err
    assert not (out / "results.csv").exists()
    assert not (out / "bench_manifest.json").exists()


@pytest.mark.parametrize("partitions, message", [
    ("{train: 5, validation: valid.txt, test: test.txt}",
     "partitions.train must be a file name, got 5"),
    ("{train: train.txt, validation: valid.txt, test: test.txt}\ndisjoint: 'no'",
     "disjoint must be true or false, got 'no'"),
], ids=["partition_file_number", "disjoint_string"])
def test_bench_rejects_badly_typed_manifest_value(tmp_path, capsys, partitions, message):
    # the number failed the run with exit code 1; the string counted as true
    code, out = bench_toy_manifest(tmp_path, partitions)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half of a cold start; nothing in randnet needs it
    code = ("import sys, randnet, randnet.cli, randnet.model_io; "
            "print('scipy.stats' in sys.modules)")
    src = str(Path(randnet.harness.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------- train


def test_run_train_writes_model_and_metrics(config_path, tmp_path):
    cfg = load_config(config_path)
    out = tmp_path / "out"
    model_path, res = run_train(cfg, "blobs", "rvfl", out)
    assert model_path.exists()
    rows = read_results_csv(out / "train_metrics.csv")
    assert len(rows) == 1
    assert rows[0]["dataset"] == "blobs"
    assert float(rows[0]["test_accuracy"]) == res.test_accuracy


def test_run_train_deterministic_bytes(config_path, tmp_path):
    cfg = load_config(config_path)
    p1, _ = run_train(cfg, "arcs", "deep_rvfl_dense_l2", tmp_path / "a")
    p2, _ = run_train(cfg, "arcs", "deep_rvfl_dense_l2", tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_train_exit_codes(config_path, tmp_path):
    ok = main(["train", "--config", str(config_path), "--dataset", "blobs",
               "--method", "rvfl", "--out", str(tmp_path / "o")])
    assert ok == 0
    bad = main(["train", "--config", str(config_path), "--dataset", "blobs",
                "--method", "perceptron", "--out", str(tmp_path / "o")])
    assert bad == 2


def test_cli_train_rejects_negative_seed(config_path, tmp_path, capsys):
    # it used to fail in the random stream with exit code 1
    out = tmp_path / "o"
    assert main(["train", "--config", str(config_path), "--dataset", "blobs",
                 "--method", "rvfl", "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- bench


def test_bench_cell_count_and_schema(config_path, tmp_path):
    cfg = load_config(config_path)
    results = run_bench(cfg, tmp_path / "bench")
    rows = read_results_csv(results)
    assert len(rows) == 6  # 2 datasets x 3 methods
    assert list(rows[0]) == ["dataset", "method", "params", "val_accuracy",
                             "test_accuracy", "auc", "hidden_nodes",
                             "train_time_ms", "error"]
    assert all(r["hidden_nodes"] for r in rows)


def test_bench_resume_equals_uninterrupted(config_path, tmp_path):
    cfg = load_config(config_path)
    ref = run_bench(cfg, tmp_path / "ref")
    with pytest.raises(KeyboardInterrupt):
        run_bench(cfg, tmp_path / "int", _fail_after=2)
    manifest = json.loads((tmp_path / "int" / "bench_manifest.json").read_text())
    assert len(manifest["cells"]) == 2
    resumed = run_bench(cfg, tmp_path / "int", resume=True)
    assert strip_time(read_results_csv(ref)) == strip_time(read_results_csv(resumed))


def test_torn_manifest_write_keeps_previous_manifest(config_path, tmp_path, monkeypatch):
    cfg = load_config(config_path)
    ref = run_bench(cfg, tmp_path / "ref")
    out = tmp_path / "int"
    with pytest.raises(KeyboardInterrupt):
        run_bench(cfg, out, _fail_after=2)
    manifest_path = out / "bench_manifest.json"
    before = manifest_path.read_bytes()

    def torn_dump(obj, fh, **kwargs):
        text = json.dumps(obj, **kwargs)
        fh.write(text[:len(text) // 2])
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            run_bench(cfg, out, resume=True)
    # the failed write left neither a torn manifest nor its temporary file
    assert manifest_path.read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["bench_manifest.json"]
    resumed = run_bench(cfg, out, resume=True)
    assert strip_time(read_results_csv(ref)) == strip_time(read_results_csv(resumed))


def test_bench_resume_rejects_config_change(config_path, tmp_path):
    cfg = load_config(config_path)
    with pytest.raises(KeyboardInterrupt):
        run_bench(cfg, tmp_path / "int", _fail_after=1)
    cfg.seeds = [5]
    with pytest.raises(ConfigError, match="different config"):
        run_bench(cfg, tmp_path / "int", resume=True)


def test_bench_parallel_matches_sequential(config_path, tmp_path):
    cfg = load_config(config_path)
    seq = run_bench(cfg, tmp_path / "seq")
    cfg.parallelism = 4
    par = run_bench(cfg, tmp_path / "par")
    assert strip_time(read_results_csv(seq)) == strip_time(read_results_csv(par))


DENSE_DEEP = """\
seeds: [0]
scaling: minmax
parallelism: 2
datasets:
  - name: arcs
    synthetic: {kind: arcs, n_train: 200, n_val: 100, n_test: 100, noise: 0.15, seed: 7}
methods:
"""
# large enough that the serial run's Gram and FISTA products use
# several BLAS threads
DENSE_DEEP_GRID = ("    params: {layers: 2, ae_width: 20, clf_width: 100, C: 1.0, "
                   "solver_iters: 20}\n"
                   "    grid: {ae_widths: [10, 30], clf_widths: [100, 200], "
                   "C_values: [1.0, 100.0], noise_values: [0.1, 0.3]}\n")


def test_bench_parallel_pinned_matches_serial_dense_deep(tmp_path):
    # FISTA, ADMM and the Cholesky solves run under the BLAS pin
    p = tmp_path / "deep.yaml"
    p.write_text(DENSE_DEEP + "".join(
        f"  - name: {name}\n" + DENSE_DEEP_GRID
        for name in ("deep_rvfl_dense_l1", "deep_rvfl_dense_elastic",
                     "deep_rvfl_dense_denoise_l2")))
    cfg = load_config(p)
    par = run_bench(cfg, tmp_path / "par")
    cfg.parallelism = 1
    seq = run_bench(cfg, tmp_path / "seq")
    rows = strip_time(read_results_csv(seq))
    assert not any(r["error"] for r in rows)
    assert strip_time(read_results_csv(par)) == rows


def test_bench_pins_blas_threads_in_cells_and_restores(config_path, tmp_path,
                                                       monkeypatch):
    inside = []
    grid_search = randnet.harness.grid_search

    def recording(*args, **kwargs):
        inside.append(blas_thread_counts())
        return grid_search(*args, **kwargs)

    monkeypatch.setattr(randnet.harness, "grid_search", recording)
    cfg = load_config(config_path)
    cfg.parallelism = 2
    # start from a count the pin never sets, so a missed restore shows
    with blas_threads(3):
        before = blas_thread_counts()
        assert before and set(before.values()) == {3}
        run_bench(cfg, tmp_path / "ok")
        assert blas_thread_counts() == before
        with pytest.raises(KeyboardInterrupt):
            run_bench(cfg, tmp_path / "int", _fail_after=2)
        assert blas_thread_counts() == before
    pinned = max(1, os.cpu_count() // 2)
    assert len(inside) >= 6
    assert all(counts == dict.fromkeys(before, pinned) for counts in inside)


def fake_blas(calls):
    return lambda: [("libfake_openblas.so", lambda: 2, calls.append)]


def test_bench_serial_never_sets_blas_threads(config_path, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(randnet.numerics, "blas_libraries", fake_blas(calls))
    cfg = load_config(config_path)
    run_bench(cfg, tmp_path / "seq")
    assert calls == []
    cfg.parallelism = 2
    run_bench(cfg, tmp_path / "par")
    assert calls == [max(1, os.cpu_count() // 2), 2]


def test_bench_without_known_blas_logs_once(config_path, tmp_path, monkeypatch,
                                            caplog):
    monkeypatch.setattr(randnet.numerics, "blas_libraries", lambda: [])
    cfg = load_config(config_path)
    cfg.parallelism = 2
    with caplog.at_level(logging.INFO, logger="randnet.numerics"):
        results = run_bench(cfg, tmp_path / "bench")
    (record,) = [r for r in caplog.records if r.name == "randnet.numerics"]
    assert "no OpenBLAS" in record.getMessage()
    assert not any(r["error"] for r in read_results_csv(results))


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_bench_rejects_parallel_below_one(config_path, tmp_path, value, capsys):
    rc = main(["bench", "--config", str(config_path), "--out", str(tmp_path / "b"),
               "--parallel", value])
    assert rc == 2
    assert "--parallel" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bench_records_failed_cells_and_continues(config_path, tmp_path):
    cfg = load_config(config_path)
    # sabotage one method via a non-axis param the grid cannot override
    cfg.methods[0].params["activation"] = "bogus"
    results = run_bench(cfg, tmp_path / "bench")
    rows = read_results_csv(results)
    assert len(rows) == 6
    failed = [r for r in rows if r["error"]]
    completed = [r for r in rows if not r["error"]]
    assert len(failed) == 2 and len(completed) == 4


# ------------------------------------------------------------------- stats


def test_stats_outputs(config_path, tmp_path):
    cfg = load_config(config_path)
    results = run_bench(cfg, tmp_path / "bench")
    out = run_stats(results, tmp_path / "stats")
    assert out["ranks"].exists()
    assert out["significance"].exists()
    assert "chi2" in out["stats"]
    text = out["report"].read_text()
    assert "Mean rank" in text


def test_stats_missing_cell_listed(tmp_path):
    rows = [
        {"dataset": "a", "method": "x", "test_accuracy": "0.9", "error": ""},
        {"dataset": "a", "method": "y", "test_accuracy": "0.8", "error": ""},
        {"dataset": "b", "method": "x", "test_accuracy": "0.7", "error": ""},
    ]
    with pytest.raises(ValueError, match="b/y"):
        accuracy_matrix(rows)


def test_stats_single_method_rejected(config_path, tmp_path):
    cfg = load_config(config_path)
    cfg.methods = cfg.methods[:1]
    results = run_bench(cfg, tmp_path / "bench")
    with pytest.raises(ValueError, match="2 methods"):
        run_stats(results, tmp_path / "stats")


# published 20-dataset accuracy table for the four l1-regularized deep
# nets, columns: plain / direct / dense / dense+denoise
L1_TABLE = [
    (63.77, 64.6, 66.48, 66.28),
    (72.12, 72.2, 72.79, 72.9),
    (89.2, 89.68, 89.82, 89.45),
    (99.0, 99.25, 99.2, 99.19),
    (61.24, 61.47, 61.93, 61.93),
    (54.08, 54.82, 55.43, 55.53),
    (90.68, 91.57, 92.37, 92.33),
    (82.39, 82.82, 82.2, 82.91),
    (68.87, 70.28, 71.7, 71.28),
    (93.15, 95.34, 95.45, 95.56),
    (82.4, 82.59, 82.97, 83.19),
    (78.7, 83.33, 83.8, 83.41),
    (98.32, 98.68, 99.3, 99.32),
    (92.06, 92.94, 93.33, 93.92),
    (95.28, 96.1, 96.62, 96.79),
    (92.67, 93.41, 93.61, 93.96),
    (89.46, 89.24, 90.91, 90.91),
    (86.16, 86.72, 86.36, 86.58),
    (86.08, 86.28, 86.86, 86.48),
    (55.49, 55.6, 58.78, 59.19),
]


def write_published_results(path):
    """L1_TABLE as a results CSV, accuracies as fractions."""
    from randnet.harness import RESULT_COLUMNS, write_results_csv

    methods = ("helm_l1", "deep_rvfl_direct_l1", "deep_rvfl_dense_l1",
               "deep_rvfl_dense_denoise_l1")
    rows = []
    for i, accs in enumerate(L1_TABLE):
        for m, acc in zip(methods, accs):
            row = {col: "" for col in RESULT_COLUMNS}
            row.update(dataset=f"d{i:02d}", method=m,
                       test_accuracy=repr(acc / 100.0))
            rows.append(row)
    write_results_csv(rows, path)
    return path


def test_stats_on_published_accuracy_table(tmp_path):
    # the published accuracy matrix reproduces its published mean ranks
    # and test statistics through the full stats command path
    results = write_published_results(tmp_path / "results.csv")
    out = run_stats(results, tmp_path / "stats")
    table = out["table"]
    np.testing.assert_allclose(table.mean_ranks, [3.9, 2.75, 1.8, 1.55],
                               atol=0.01)
    assert out["stats"]["chi2"] == pytest.approx(40.98, abs=0.01)
    assert out["stats"]["f_value"] == pytest.approx(40.93, abs=0.05)
    assert out["stats"]["dof"] == (3, 57)


def test_stats_consistent_with_ranking_ops(config_path, tmp_path):
    from randnet.ranking import friedman_chi2, rank_rows

    cfg = load_config(config_path)
    results = run_bench(cfg, tmp_path / "bench")
    out = run_stats(results, tmp_path / "stats")
    _, _, matrix = accuracy_matrix(read_results_csv(results))
    table = rank_rows(matrix)
    assert out["stats"]["chi2"] == pytest.approx(
        friedman_chi2(table.mean_ranks, *matrix.shape))


class TornFile:
    """A file whose first write lands half of its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)


@pytest.mark.parametrize("target", ["ranks.csv", "significance.csv", "report.md",
                                    "sweep_blobs__rvfl.csv"])
def test_torn_stats_or_sweep_write_keeps_previous_file(config_path, tmp_path,
                                                       monkeypatch, target):
    import randnet.model_io

    cfg = load_config(config_path)
    results = write_published_results(tmp_path / "results.csv")
    out = tmp_path / "out"

    def write_all():
        run_stats(results, out)
        run_sweep(cfg, "blobs", "rvfl", ("C",), out)

    write_all()
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def torn_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return TornFile(fh) if target in Path(path).name else fh

    with monkeypatch.context() as patch:
        patch.setattr(randnet.model_io, "open", torn_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_all()
    # the failed write left neither a torn file nor its temporary file
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ------------------------------------------------------------------- sweep


def test_sweep_row_counts(config_path, tmp_path):
    cfg = load_config(config_path)
    path = run_sweep(cfg, "blobs", "rvfl", ("C",), tmp_path / "sweep")
    rows = read_results_csv(path)
    assert len(rows) == 2  # configured C grid has two points
    path = run_sweep(cfg, "blobs", "deep_rvfl_dense_l2", ("N", "C"),
                     tmp_path / "sweep2")
    rows = read_results_csv(path)
    assert len(rows) == 2 * 1
    assert all(r["accuracy"] != "" for r in rows)


SWEEP_CONFIG = """\
seeds: [4]
datasets:
  - name: arcs
    synthetic: {kind: arcs, n_train: 80, n_val: 20, n_test: 60, noise: 0.2, seed: 5}
  - name: blobs
    synthetic: {kind: blobs, n_train: 200, n_val: 20, n_test: 60, gap: 1.0, seed: 6}
methods:
  - name: rvfl
    params: {clf_width: 120}
    grid: {C_values: [0.01, 1.0, 100.0, 1.0e+6, 1.0]}
  - name: deep_rvfl_dense_denoise_l1
    params: {layers: 2, clf_width: 40, solver_iters: 20}
    grid: {ae_widths: [4, 8], C_values: [1.0, 100.0], noise_values: [0.1, 0.3]}
  - name: ml_kelm
    params: {sigma: 1.0}
    grid: {C_values: [1.0, 100.0]}
"""


@pytest.mark.parametrize("dataset, method, axes", [
    ("arcs", "rvfl", ("C",)),
    ("blobs", "rvfl", ("C",)),
    ("arcs", "deep_rvfl_dense_denoise_l1", ("N", "C", "nu")),
    ("arcs", "ml_kelm", ("L", "C")),
], ids=["rvfl_dual", "rvfl_primal", "deep_denoise_l1", "ml_kelm"])
def test_sweep_equals_per_point_oracle(tmp_path, dataset, method, axes):
    # the sweep fits the points of a group together (a C path on 80 rows
    # at 122 design columns, the dual system, or on 200 rows, the primal);
    # its file must be byte for byte that of training every point alone
    p = tmp_path / "sweep.yaml"
    p.write_text(SWEEP_CONFIG)
    cfg = load_config(p)
    path = run_sweep(cfg, dataset, method, axes, tmp_path / "sweep")
    assert path.read_bytes() == sweep_per_point(cfg, dataset, method, axes).encode()


def test_sweep_rejects_unknown_axis(config_path, tmp_path):
    cfg = load_config(config_path)
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(cfg, "blobs", "rvfl", ("Q",), tmp_path / "sweep")


def test_sweep_noise_axis_total(config_path, tmp_path):
    # accuracy is defined (never NaN) down to near-zero corruption
    cfg = load_config(config_path)
    cfg.methods[1].name = "deep_rvfl_dense_denoise_l2"
    cfg.methods[1].grid["noise_values"] = [0.001, 0.05, 0.3]
    path = run_sweep(cfg, "arcs", "deep_rvfl_dense_denoise_l2", ("nu",),
                     tmp_path / "sweep")
    rows = read_results_csv(path)
    assert len(rows) == 3
    assert all(np.isfinite(float(r["accuracy"])) for r in rows)


def test_cli_stats_rejects_unsupported_alpha(tmp_path, capsys):
    # the Nemenyi table has two levels; another one failed the run (exit 1)
    results = write_published_results(tmp_path / "results.csv")
    assert main(["stats", "--results", str(results), "--out", str(tmp_path / "s"),
                 "--alpha", "2"]) == 2
    assert "--alpha must be one of [0.05, 0.1], got 2.0" in capsys.readouterr().err
    assert not (tmp_path / "s" / "ranks.csv").exists()


def test_cli_sweep_and_stats_commands(config_path, tmp_path):
    assert main(["bench", "--config", str(config_path),
                 "--out", str(tmp_path / "b")]) == 0
    assert main(["stats", "--results", str(tmp_path / "b" / "results.csv"),
                 "--out", str(tmp_path / "s")]) == 0
    assert main(["sweep", "--config", str(config_path), "--dataset", "blobs",
                 "--method", "rvfl", "--axes", "C",
                 "--out", str(tmp_path / "w")]) == 0
