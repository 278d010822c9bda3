"""Command orchestration: single trainings, benchmark sweeps, and reports.

A bench run keeps a manifest next to its results CSV recording the
config hash and every completed (dataset, method) cell with its row, so
an interrupted run resumed with the same config reproduces the
uninterrupted CSV byte for byte (wall-clock time columns aside). All
file writes funnel through one lock, and every file written here (the
manifest, the result, stats and sweep files, the models) replaces its
old version atomically.
"""

import csv
import hashlib
import itertools
import json
import logging
import os
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ConfigError
from .data import MAPPING, PARTITION_ROLES, STRING, checked, fit_apply_scaling, load_manifest
from .methods import get_method
from .model_io import replace_atomically, save_model
from .numerics import blas_thread_counts, blas_threads
from .ranking import rank_report, rank_rows, report_markdown, significance_marks
from .selection import EvalResult, evaluate_fixed, grid_search, grouped_accuracy
from .solvers import NUMPY_LAPACK
from .synthetic import interleaved_arcs, separable_blobs

log = logging.getLogger("randnet")

RESULT_COLUMNS = tuple(f.name for f in fields(EvalResult))
TIME_COLUMNS = ("train_time_ms",)

SWEEP_AXES = {"L": "layers", "N": "ae_width", "C": "C", "nu": "noise"}

# the bench manifest; manifests written before the BLAS facts lack them
_BENCH_MANIFEST_RULES = {"config_hash": STRING, "cells": MAPPING, "blas_threads": MAPPING,
                         "lapack_library": (lambda v: v is None or isinstance(v, str),
                                            "a string or null")}
_CELL_ROW_RULES = dict.fromkeys(RESULT_COLUMNS, STRING)


def materialize_dataset(decl, cfg):
    """Load or generate one dataset and apply train-fitted scaling."""
    if decl.synthetic is not None:
        # the config admits only the generator's own keys; seed defaults to 0
        spec = dict(decl.synthetic)
        spec.setdefault("seed", 0)
        if spec.pop("kind") == "blobs":
            ds = separable_blobs(n=spec.pop("n_train", 200), **spec, name=decl.name)
        else:
            ds = interleaved_arcs(**spec, name=decl.name)
    else:
        ds = load_manifest(cfg.base_dir / decl.manifest)
        ds.name = decl.name
    if cfg.scaling != "none":
        ds, _ = fit_apply_scaling(ds, cfg.scaling)
    return ds


def _format_cell(value):
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def result_row(res):
    return {col: _format_cell(getattr(res, col)) for col in RESULT_COLUMNS}


def _write_csv(path, header, rows):
    """Write mappings over header as CSV rows; a key outside header raises,
    a missing key writes ""."""
    with replace_atomically(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


def write_results_csv(rows, path):
    _write_csv(path, RESULT_COLUMNS, rows)


def read_results_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def config_hash(cfg):
    doc = {
        "datasets": [(d.name, d.manifest, d.synthetic) for d in cfg.datasets],
        "methods": [(m.name, m.params, m.grid) for m in cfg.methods],
        "seeds": cfg.seeds,
        "scaling": cfg.scaling,
        "retrain_with_validation": cfg.retrain_with_validation,
    }
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def run_train(cfg, dataset_name, method_name, out_dir, seed=None):
    """Train one model at the configured fixed hyperparameters.

    Writes the model container and appends one metrics row; the model
    file bytes depend only on (config, seed, BLAS build, thread count).
    """
    ds, method, mdecl = _cell(cfg, dataset_name, method_name)
    seed = cfg.seeds[0] if seed is None else seed
    model, res = evaluate_fixed(ds, method, mdecl.params, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / f"{dataset_name}__{method_name}__seed{seed}.rnm"
    save_model(model, model_path)
    metrics_path = out_dir / "train_metrics.csv"
    rows = read_results_csv(metrics_path) if metrics_path.exists() else []
    rows.append(result_row(res))
    write_results_csv(rows, metrics_path)
    log.info("trained %s on %s: test accuracy %.4f",
             method_name, dataset_name, res.test_accuracy)
    return model_path, res


def _find(decls, name, what):
    for d in decls:
        if d.name == name:
            return d
    raise ConfigError(f"{what} {name!r} is not declared in the config")


def _cell(cfg, dataset_name, method_name):
    """(materialized dataset, method, method declaration) of one config cell."""
    decl = _find(cfg.datasets, dataset_name, "dataset")
    mdecl = _find(cfg.methods, method_name, "method")
    return materialize_dataset(decl, cfg), get_method(method_name), mdecl


def _ranked_maps(pool):
    """rank -> a map (builtin map's contract) whose tasks run on pool, an
    idle worker taking the waiting task of the lowest rank first."""
    waiting, tickets = queue.PriorityQueue(), itertools.count()

    def run_lowest():
        *_, future, fn, item = waiting.get()
        if future.set_running_or_notify_cancel():
            try:
                future.set_result(fn(item))
            except BaseException as exc:  # raised again where the result is read
                future.set_exception(exc)

    def submit(rank, fn, item):
        future = Future()
        waiting.put((rank, next(tickets), future, fn, item))
        pool.submit(run_lowest)
        return future

    def results(futures):
        try:
            yield from (future.result() for future in futures)
        finally:  # after a raise, the tasks not yet started never start
            for future in futures:
                future.cancel()

    return lambda rank: lambda fn, items: results([submit(rank, fn, i) for i in items])


def read_bench_manifest(path):
    """The bench manifest at path, each cell a complete row under its own
    key; anything else raises a ConfigError naming path."""
    def fail(message, _=None):
        return ConfigError(f"{path}: {message}")

    try:
        manifest = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise fail(f"not a readable bench manifest ({type(exc).__name__}: {exc})") from None
    if not isinstance(manifest, dict):
        raise fail("bench manifest must be a mapping")
    checked(manifest, _BENCH_MANIFEST_RULES, fail, required=("config_hash", "cells"))
    for key, row in manifest["cells"].items():
        if not isinstance(row, dict):
            raise fail(f"cell {key} must be a mapping, got {row!r}")
        checked(row, _CELL_ROW_RULES, fail, required=RESULT_COLUMNS, subject=f"cell {key} ")
        if key != f"{row['dataset']}::{row['method']}":
            raise fail(f"cell {key} holds the row of {row['dataset']}::{row['method']}")
    return manifest


def run_bench(cfg, out_dir, resume=False):
    """Grid search over every (dataset, method) cell; resumable.

    Failed cells are recorded with their error string and the run
    continues. With parallelism > 1 every fit (each candidate group and
    each per-seed retrain) is a task on one pool of ``parallelism``
    workers, which take the tasks in cell order, while ``parallelism``
    driver threads run the cells' grid searches. BLAS runs at
    cpu_count // parallelism threads meanwhile (restored afterwards), so
    the bits of a parallel run depend on the core count and a resume on
    another machine can mix cells computed at different thread counts;
    the manifest records the BLAS facts, and a resume that meets others
    logs a warning. The output order is canonical."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    manifest_path = out_dir / "bench_manifest.json"
    digest = config_hash(cfg)
    manifest = {}
    if resume and manifest_path.exists():
        manifest = read_bench_manifest(manifest_path)
        if manifest["config_hash"] != digest:
            raise ConfigError(
                "bench manifest belongs to a different config; refusing to resume"
            )
        log.info("resuming: %d cells already complete", len(manifest["cells"]))
    completed = manifest.get("cells", {})

    datasets = {}
    for decl in cfg.datasets:
        ds = datasets[decl.name] = materialize_dataset(decl, cfg)
        missing = [r for r in PARTITION_ROLES if r not in ds.partitions]
        if missing:
            # grid search needs all three; every cell of this dataset would fail
            raise ConfigError(f"dataset {decl.name!r} lacks partition roles {missing}; "
                              f"bench needs all of {list(PARTITION_ROLES)}")

    cells = [(d.name, m.name) for d in cfg.datasets for m in cfg.methods]
    lock = threading.Lock()

    def run_cell(cell, map_fn=map):
        ds_name, m_name = cell
        mdecl = _find(cfg.methods, m_name, "method")
        method = get_method(m_name)
        try:
            res = grid_search(
                datasets[ds_name], method, cfg.grid_for(mdecl), cfg.seeds,
                base_params=mdecl.params,
                retrain_with_validation=cfg.retrain_with_validation, map_fn=map_fn)
            row = result_row(res)
        except Exception as exc:  # partial-failure policy: record and go on
            log.warning("cell %s/%s failed: %s", ds_name, m_name, exc)
            row = {col: "" for col in RESULT_COLUMNS}
            row.update(dataset=ds_name, method=m_name, error=str(exc))
        with lock:
            completed[f"{ds_name}::{m_name}"] = row
            with replace_atomically(manifest_path) as fh:
                json.dump({"config_hash": digest, "cells": completed, **facts}, fh,
                          sort_keys=True, indent=1)
        return row

    pending = [c for c in cells if f"{c[0]}::{c[1]}" not in completed]
    # each fit gets its share of the cores for BLAS; the pin encloses both
    # pools, so the old counts return only after every thread joined
    with (blas_threads(max(1, (os.cpu_count() or 1) // cfg.parallelism))
          if cfg.parallelism > 1 else nullcontext()):
        facts = {"blas_threads": blas_thread_counts(),
                 "lapack_library": NUMPY_LAPACK.library if NUMPY_LAPACK else None}
        recorded = {key: manifest.get(key) for key in facts}
        if completed and recorded != facts:
            log.warning("resuming at other BLAS facts than the manifest records "
                        "(%s, now %s); cells may mix thread counts", recorded, facts)
            facts = recorded  # the facts of the first cells, so every resume warns
        if cfg.parallelism > 1 and pending:
            # drivers only expand grids and pick winners; workers run every
            # fit and never submit, so no task waits on its own pool. Each
            # driver holds copies of its cell's rows, hence no more drivers
            # than workers. Ranks start fits in cell order whichever driver
            # submits first, so cells finish, and reach the manifest, in order.
            with (ThreadPoolExecutor(cfg.parallelism) as workers,
                  ThreadPoolExecutor(cfg.parallelism) as drivers):
                ranked = map(_ranked_maps(workers), itertools.count())  # one rank per cell
                list(drivers.map(run_cell, pending, ranked))
        else:
            for cell in pending:
                run_cell(cell)

    rows = [completed[f"{d}::{m}"] for d, m in cells]
    write_results_csv(rows, results_path)
    return results_path


def accuracy_matrix(rows):
    """(datasets, methods, M x m matrix) from results rows; missing or repeated cells raise."""
    datasets = list(dict.fromkeys(row["dataset"] for row in rows))
    methods = list(dict.fromkeys(row["method"] for row in rows))
    seen, cell = set(), {}
    for row in rows:
        key = (row["dataset"], row["method"])
        if key in seen:
            raise ValueError(f"results hold more than one row for {key[0]}/{key[1]}")
        seen.add(key)
        if not row.get("error") and row["test_accuracy"] != "":
            cell[key] = float(row["test_accuracy"])
    missing = [(d, m) for d in datasets for m in methods if (d, m) not in cell]
    if missing:
        raise ValueError(
            "incomplete accuracy matrix; missing or failed cells: "
            + ", ".join(f"{d}/{m}" for d, m in sorted(missing))
        )
    matrix = np.array([[cell[(d, m)] for m in methods] for d in datasets])
    return datasets, methods, matrix


def run_stats(results_path, out_dir, alpha=0.05):
    """Rank report, test statistics, and the significance matrix as files."""
    rows = read_results_csv(results_path)
    if not rows:
        raise ValueError(f"{results_path} holds no result rows")
    _, methods, matrix = accuracy_matrix(rows)
    table = rank_rows(matrix, methods=tuple(methods))
    report = rank_report(table, alpha)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ranks_path = out_dir / "ranks.csv"
    _write_csv(ranks_path, ["method", "mean_rank"],
               ({"method": methods[i], "mean_rank": repr(float(table.mean_ranks[i]))}
                for i in np.argsort(table.mean_ranks)))

    sig_path = out_dir / "significance.csv"
    marks = significance_marks(report["significance"])
    _write_csv(sig_path, [""] + methods,
               ({"": name, **dict(zip(methods, marks[i]))} for i, name in enumerate(methods)))

    md_path = out_dir / "report.md"
    with replace_atomically(md_path) as fh:
        fh.write(report_markdown(table, report))
    return {"ranks": ranks_path, "significance": sig_path, "report": md_path,
            "stats": report, "table": table}


def run_sweep(cfg, dataset_name, method_name, axes, out_dir):
    """Sensitivity sweep: test accuracy at every point of the chosen axes.

    Axes come from {L, N, C, nu}; the remaining hyperparameters stay at
    the method's configured fixed values and training uses the first
    configured seed.
    """
    for axis in axes:
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {axis!r}; expected a subset of "
                f"{sorted(SWEEP_AXES)}")
    if not axes or len(set(axes)) < len(axes):
        raise ConfigError(f"sweep needs at least one axis, each named once; got {list(axes)}")
    ds, method, mdecl = _cell(cfg, dataset_name, method_name)
    grid = cfg.grid_for(mdecl)
    points = [{}]
    for axis in axes:
        param = SWEEP_AXES[axis]
        values = (1, 2, 3) if param == "layers" else grid.axis(param)
        points = [dict(p, **{param: v}) for p in points for v in values]
    if "test" not in ds.partitions:
        raise ConfigError(f"dataset {dataset_name!r} has no test partition to sweep")
    Xtr, Ytr, _ = ds.part("train")
    Xte, _, yte = ds.part("test")
    scores = grouped_accuracy(method, [dict(mdecl.params, **p) for p in points],
                              Xtr, Ytr, Xte, yte, cfg.seeds[0])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / f"sweep_{dataset_name}__{method_name}.csv"
    _write_csv(sweep_path, list(axes) + ["accuracy"],
               ({**{a: _format_cell(point[SWEEP_AXES[a]]) for a in axes}, "accuracy": repr(score)}
                for point, score in zip(points, scores)))
    return sweep_path
