"""randnet benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 benchmarks/run.py --workload shallow_grid --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all       # every workload, one table

Run from the root of a source checkout; ``randnet`` is imported from its
``src/`` directory, never from an installed copy. Each repetition of a
workload runs in a fresh child process (``benchmarks/child.py``) whose
environment has ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` removed, so BLAS runs at its library default as it
does in a user's shell. Repetitions run back to back (closed loop, one
client) until ``--seconds`` have passed, at least two of them; every
reported time is the median over the run's repetitions (batch latency
percentiles are taken per repetition of 1000 batches, then the median),
and set-up time is the median over every child the run spawned,
including three children that only import the package.

With ``--trace 0`` the last line of output is the JSON result with the
gated end-to-end metrics; ``error_rate`` and, for ``train_serve``,
``train_s`` and the ``predict_*`` metrics are printed above it. With ``--trace 1`` repetitions
alternate between untraced and traced children, and the JSON carries
the per-layer metrics of the traced ones plus ``trace.overhead_share``.
Every run checks the program's outputs: against the committed reference
(``benchmarks/reference/``) for the default seed, and for every seed
across all of the run's repetitions, traced and untraced alike.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, CoverageError, check_heavy, layer_metrics, read_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, derive  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_REPS = 2
WARM_S = 1.5  # BLAS warm-up after the last probe; see child.warm_blas
CHILD_TIMEOUT_S = 150
SCORE_RTOL = 1e-9  # score checksums may differ in summation order only
MIN_STREAM_ACCURACY = 0.9  # arcs with noise 0.15 is learnable far beyond this
WORK = ROOT / ".bench_work"

# The gated metrics (BENCHMARK.json end_to_end), then the train_serve
# metrics that every run of it prints but leaves out of the JSON result.
# On a shared 2-vCPU virtual machine, whose speed drifts by 20-30% over
# minutes while other tenants load it, the 0.1-0.3 s train call (even as
# a median of five calls per repetition), batch latencies and stream
# throughput spread (quartile distance over median, 10 seeds) up to 0.31,
# 0.36 and 0.25, and p99 up to 1.0 -- at or beyond the largest bound a
# gated metric may have (0.25). The serve loop is still gated through
# train_serve's wall_s, which it dominates.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
SERVE_METRICS = (("train_s", "s"), ("predict_rows_per_s", "rows/s"),
                 ("predict_p50_ms", "ms"), ("predict_p99_ms", "ms"))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(blas_threads):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    if blas_threads is not None:
        env.update({k: str(blas_threads) for k in BLAS_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def spawn(job, workdir, env):
    """Run one child to completion; returns its result with the set-up time."""
    workdir.mkdir(parents=True, exist_ok=True)
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job))
    with open(workdir / "child.log", "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or not result_path.exists():
        tail = (workdir / "child.log").read_text()[-2000:]
        raise BenchError(f"child {workdir.name} exited with {rc}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - started
    return result


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(reps, setups):
    """Medians over the run; batch latency percentiles are taken per rep.

    p99 is taken only from reps with at least 1000 served batches, so at
    least ten samples lie beyond it; with none it is reported as None.
    """
    med = statistics.median
    metrics = {
        "setup_s": med(setups),
        "wall_s": med(r["wall_s"] for r in reps),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }
    if "latencies" not in reps[0]:
        return metrics
    served = [r for r in reps if r["latencies"]]
    full = [r for r in served if len(r["latencies"]) >= 1000]
    metrics.update({
        "train_s": med(r["train_s"] for r in reps),
        "predict_rows_per_s": med(r["outputs"]["rows"] / r["serve_s"] for r in reps),
        "predict_p50_ms": 1e3 * med(percentile(r["latencies"], 50) for r in served)
        if served else None,
        "predict_p99_ms": 1e3 * med(percentile(r["latencies"], 99) for r in full)
        if full else None,
    })
    return metrics


def reference_path(workload):
    return HERE / "reference" / f"{workload}.json"


def same(got, want):
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= SCORE_RTOL * max(1.0, abs(want))
    return got == want


def mismatches(reps, reference):
    """Output-check failures: a list of one-line reasons, empty when correct."""
    problems = []
    first = reps[0]["outputs"]
    for i, rep in enumerate(reps):
        out = rep["outputs"]
        if "stream_accuracy" in out:
            if out["loaded_test_accuracy"] != out["train_test_accuracy"]:
                problems.append(f"rep {i}: loaded model scores "
                                f"{out['loaded_test_accuracy']} on test, training "
                                f"reported {out['train_test_accuracy']}")
            if out["stream_accuracy"] < MIN_STREAM_ACCURACY:
                problems.append(f"rep {i}: stream accuracy {out['stream_accuracy']:.4f}")
        diff = sorted(k for k in first if not same(out.get(k), first[k]))
        if diff:
            problems.append(f"rep {i} (trace {rep['trace']}) differs from rep 0 "
                            f"(trace {reps[0]['trace']}) in {diff}")
    if reference is not None:
        diff = sorted(k for k in reference if not same(first.get(k), reference[k]))
        if diff:
            problems.append(f"outputs differ from the committed reference in {diff}")
    return problems


def git_head():
    """HEAD's commit and whether src/ differs from it; Nones without git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        changed = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                 capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(changed.strip())


def machine(facts, seed, blas_threads):
    sha, src_modified = git_head()
    return dict(facts, git_sha=sha, src_modified=src_modified, workload_seed=seed,
                blas_env_stripped=[k for k in BLAS_ENV if k in os.environ],
                blas_env_set={k: str(blas_threads) for k in BLAS_ENV}
                if blas_threads is not None else {})


def run_workload(name, seed, seconds, trace, blas_threads=None, record=False):
    spec = WORKLOADS[name]
    if not (ROOT / "src" / "randnet" / "__init__.py").exists():
        raise BenchError(f"no randnet sources under {ROOT / 'src'}")
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = child_env(blas_threads)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.yaml"
    run_dir.mkdir(parents=True)
    config = spec["config"](seed)
    config["output_dir"] = str(run_dir / "out")
    config_path.write_text(json.dumps(config, indent=1))  # YAML reads JSON

    try:
        setups, facts = [], None
        for i in range(SETUP_PROBES):
            probe = spawn({"kind": "setup", "src": str(ROOT / "src"), "facts": i == 0,
                           "warm_s": WARM_S if i == SETUP_PROBES - 1 else 0},
                          run_dir / f"setup{i}", env)
            setups.append(probe["setup_s"])
            facts = facts or probe.get("facts")

        reps = []
        deadline = time.monotonic() + seconds
        while len(reps) < MIN_REPS or time.monotonic() < deadline:
            traced = bool(trace) and len(reps) % 2 == 1
            workdir = run_dir / f"rep{len(reps)}"
            job = {"kind": "workload", "src": str(ROOT / "src"), "workdir": str(workdir),
                   "config_path": str(config_path), "trace": traced,
                   "bench": spec["bench"], "serve": spec["serve"],
                   "stream_seed": derive(seed, "stream")}
            rep = spawn(job, workdir, env)
            rep["trace"] = int(traced)
            if traced:
                spans = read_spans(workdir / "trace.jsonl")
                check_heavy(spans, spec["heavy"])
                rep["layers"] = layer_metrics(spans, config["parallelism"])
            setups.append(rep["setup_s"])
            reps.append(rep)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reference = None
    if record:
        reference_path(name).write_text(json.dumps(reps[0]["outputs"], indent=1) + "\n")
    elif seed == DEFAULT_SEED:
        reference = json.loads(reference_path(name).read_text())
    problems = mismatches(reps, reference)
    result = {"workload": name, "reps": len(reps), "children": len(setups),
              "machine": machine(facts, seed, blas_threads),
              "rep_wall_s": [round(r["wall_s"], 4) for r in reps]}
    if trace:
        traced = [r for r in reps if r["trace"]]
        differ = [m for m, _, computed in LAYER_METRICS if computed
                  and len({r["layers"][m] for r in traced}) > 1]
        if differ:
            problems.append(f"computed counts differ between traced reps: {differ}")
        layers = {m: statistics.median(r["layers"][m] for r in traced)
                  for m, _, _ in LAYER_METRICS}
        untraced_wall = statistics.median(r["wall_s"] for r in reps if not r["trace"])
        layers["trace.overhead_share"] = (
            statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1.0)
        result["layers"] = layers
    else:
        result["end_to_end"] = end_to_end(reps, setups)
    attempted = sum(r.get("cells", 0) + len(r.get("latencies", ())) + r.get("failed_batches", 0)
                    for r in reps)
    failed = sum(r.get("failed_cells", 0) + r.get("failed_batches", 0) for r in reps)
    result.update(attempted=attempted, failed=failed + len(problems), problems=problems)
    result["error_rate"] = result["failed"] / attempted
    return result


def run_seconds():
    """The run length BENCHMARK.json fixes, the default of ``--seconds``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def contract_line(result, trace):
    if trace:
        units = dict((m, u) for m, u, _ in LAYER_METRICS)
        units["trace.overhead_share"] = "ratio"
        values = result["layers"]
    else:
        units = dict(END_TO_END)
        values = result["end_to_end"]
    return json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    })


def report(result, trace):
    print(f"== {result['workload']}: {result['reps']} reps, "
          f"{result['children']} children, seed {result['machine']['workload_seed']}, "
          f"wall_s per rep {result['rep_wall_s']}")
    if trace:
        units = dict((m, u) for m, u, _ in LAYER_METRICS)
        for metric, value in result["layers"].items():
            print(f"  {metric:<40} {value:>14.6g} {units.get(metric, 'ratio')}")
    else:
        for metric, unit in END_TO_END + SERVE_METRICS:
            if metric not in result["end_to_end"]:
                continue
            value = result["end_to_end"][metric]
            shown = "unavailable" if value is None else f"{value:.6g}"
            print(f"  {metric:<22} {shown:>14} {unit}")
    print(f"  {'error_rate':<22} {result['error_rate']:>14.6g} fraction "
          f"({result['failed']} of {result['attempted']})")
    verdict = "PASS" if not result["problems"] and result["failed"] == 0 else "FAIL"
    print(f"  output check: {verdict}")
    for problem in result["problems"]:
        print(f"    {problem}")
    print("  machine: " + json.dumps(result["machine"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write the outputs of this run as the reference "
                             "for the default seed")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("--record-reference needs the default seed")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    line = None
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  record=args.record_reference)
            report(result, args.trace)
            line = contract_line(result, args.trace)
    except (BenchError, CoverageError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
