"""One benchmark child: import randnet, run one workload repetition, report.

Usage: python3 benchmarks/child.py JOB.json RESULT.json

The parent records the spawn time; this process reports the monotonic
time at which ``randnet`` was imported and ready (the set-up phase),
then runs the workload through randnet's public entry points
(``randnet.cli.main``, ``load_model``, ``predict_method``) and writes
its timings, resource use and outputs to RESULT.json. A ``setup`` job
stops after reporting readiness and the machine facts.
"""

import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def blas_facts():
    """BLAS build and the thread count each loaded OpenBLAS will use."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name and ".so" in path:
                libs.add(path)
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": threads}


def machine_facts():
    import numpy
    import scipy

    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_facts()}


def warm_blas(seconds):
    """Keep every BLAS thread busy for a while after the set-up probes.

    On a virtual machine an idle vCPU is slow to come back: the first
    second of multithreaded BLAS after a few idle seconds ran at a
    quarter of its speed. The single-threaded import probes leave the
    second vCPU idle, so without this the first repetition of a run
    would start colder than the rest.
    """
    import numpy as np

    a = np.ones((600, 600))
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        a @ a


def results_without_times(path, time_columns):
    """results.csv with its wall-clock columns dropped, as CSV text."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    keep = [c for c in rows[0] if c not in time_columns] if rows else []
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=keep, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue(), sum(1 for r in rows if r["error"]), len(rows)


def serve_inputs(cfg, seed, rows):
    """Scaled test split and a fresh arcs stream, scaled by the train-fitted map."""
    from randnet.config import load_config
    from randnet.data import fit_apply_scaling
    from randnet.harness import materialize_dataset
    from randnet.synthetic import interleaved_arcs

    run_cfg = load_config(cfg)
    decl = next(d for d in run_cfg.datasets if d.name == "arcs")
    ds = materialize_dataset(decl, run_cfg)
    Xte, _, yte = ds.part("test")
    spec = dict(decl.synthetic)
    raw = interleaved_arcs(n_train=spec["n_train"], n_val=spec["n_val"],
                           n_test=spec["n_test"], noise=spec["noise"],
                           seed=spec["seed"])
    _, stats = fit_apply_scaling(raw, run_cfg.scaling)
    stream = interleaved_arcs(n_train=rows, n_val=0, n_test=0, noise=spec["noise"],
                              seed=seed)
    return Xte, yte, stats.apply(stream.X), stream.labels


def serve(model, X, batch_rows, batches):
    """Closed loop, one client: the next batch is sent when the last returns.

    A failed batch is counted and the stream goes on; its rows keep the
    label -1, so every other row stays aligned with its input.
    """
    import numpy as np
    from randnet import methods

    latencies = []
    labels = np.full(batch_rows * batches, -1, dtype=np.int64)
    scores_sum = scores_abs = 0.0
    failed = 0
    for i in range(batches):
        rows = slice(i * batch_rows, (i + 1) * batch_rows)
        t0 = time.perf_counter()
        try:
            scores, pred = methods.predict_method(model, X[rows])
        except Exception as exc:
            print(f"batch {i} failed: {exc}", file=sys.stderr)
            failed += 1
            continue
        latencies.append(time.perf_counter() - t0)
        labels[rows] = pred
        scores_sum += float(np.sum(scores))
        scores_abs += float(np.sum(np.abs(scores)))
    return latencies, labels, scores_sum, scores_abs, failed


def run_grid(job, cli_call, work, stop_tracing):
    """bench (and stats) on the run config; returns timings and outputs."""
    from randnet.harness import TIME_COLUMNS

    cfg = job["config_path"]
    stats = "stats" in job["bench"]
    t0 = time.perf_counter()
    cli_call("bench", "--config", cfg, "--out", str(work / "bench"))
    # stats fails on a results file with a failed cell; that counts as
    # one more failure of the repetition, not as a lost run
    stats_ok = stats and cli_call("stats", "--results", str(work / "bench" / "results.csv"),
                                  "--out", str(work / "bench"), fatal=False)
    wall = time.perf_counter() - t0
    stop_tracing()
    text, failed_cells, cells = results_without_times(
        work / "bench" / "results.csv", TIME_COLUMNS)
    outputs = {"results": text}
    if stats_ok:
        for name in ("report.md", "ranks.csv", "significance.csv"):
            outputs[name] = (work / "bench" / name).read_text()
    return {"wall_s": wall, "cells": cells + stats,
            "failed_cells": failed_cells + (stats and not stats_ok), "outputs": outputs}


def run_serve(job, cli_call, work, inputs, stop_tracing):
    """One train call, then load the model and serve the stream."""
    import numpy as np
    from randnet import methods, model_io
    from randnet.harness import read_results_csv

    method, batch_rows, batches = job["serve"]
    Xte, yte, stream, stream_y = inputs
    t0 = time.perf_counter()
    cli_call("train", "--config", job["config_path"], "--dataset", "arcs",
             "--method", method, "--out", str(work / "models"))
    t1 = time.perf_counter()
    model = model_io.load_model(next((work / "models").glob("*.rnm")))
    latencies, labels, scores_sum, scores_abs, failed = serve(
        model, stream, batch_rows, batches)
    t2 = time.perf_counter()
    stop_tracing()

    # outputs for the correctness check; nothing below is timed or traced
    _, loaded_pred = methods.predict_method(model, Xte)
    trained = read_results_csv(work / "models" / "train_metrics.csv")[-1]
    served = labels >= 0
    outputs = {
        "labels_sha256": hashlib.sha256(labels.astype("<i8").tobytes()).hexdigest(),
        "rows": int(np.count_nonzero(served)),
        "scores_sum": scores_sum,
        "scores_abs_sum": scores_abs,
        "stream_accuracy": float(np.mean(labels[served] == stream_y[served]))
        if served.any() else 0.0,
        "train_test_accuracy": trained["test_accuracy"],
        "loaded_test_accuracy": repr(float(np.mean(loaded_pred == yte))),
    }
    return {"wall_s": t2 - t0, "train_s": t1 - t0, "serve_s": t2 - t1,
            "latencies": latencies, "failed_batches": failed, "outputs": outputs}


def run(job, ready):
    from randnet import cli

    work = Path(job["workdir"])
    inputs = None
    if job["serve"]:
        _, batch_rows, batches = job["serve"]
        inputs = serve_inputs(job["config_path"], job["stream_seed"], batch_rows * batches)

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.recording = True

    # entry points are looked up at call time, so the tracer's wrappers apply
    def cli_call(*argv, fatal=True):
        rc = cli.main(list(argv))
        if rc != 0 and fatal:
            raise RuntimeError(f"randnet {argv[0]} exited with {rc}")
        return rc == 0

    def stop_tracing():
        if tracer is not None:
            tracer.recording = False

    if job["serve"]:
        out = run_serve(job, cli_call, work, inputs, stop_tracing)
    else:
        out = run_grid(job, cli_call, work, stop_tracing)
    if tracer is not None:
        tracer.dump(work / "trace.jsonl")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(ready=ready, cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0)
    return out


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    import randnet  # noqa: F401  the set-up phase ends once the package is ready
    import randnet.cli  # noqa: F401
    import randnet.model_io  # noqa: F401

    ready = time.monotonic()
    src = Path(job["src"]).resolve()
    if Path(randnet.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported randnet from {randnet.__file__}, expected {src}")
    if job["kind"] == "setup":
        result = {"ready": ready}
        if job.get("facts"):
            result["facts"] = machine_facts()
        if job.get("warm_s"):
            warm_blas(job["warm_s"])
    else:
        result = run(job, ready)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
