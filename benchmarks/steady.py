"""Steadiness check: run workloads over several seeds and report each metric's spread.

    python3 benchmarks/steady.py --seeds 1-10 [--workload deep_grid ...] [--sets 2] [--trace]

For each workload and end-to-end metric it prints the median of the
per-seed values and their spread, (Q3 - Q1) / median with the quartiles
of ``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json, for every metric, ``setup_s`` included. A spread at or
above its bound fails the check (exit code 1); one below a third of its
bound is marked ``steady``, one in between ``within``. With ``--sets 2``
the seeds are run twice, and no metric's median may worsen from the
first set to the second by more than its bound. With ``--trace``
each seed is run traced twice instead, and every computed per-layer
count must repeat exactly between the two runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed:\n{proc.stdout}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_spreads(spec, workload, runs):
    """Print each metric's median and spread for one set of runs; True if all hold."""
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[name]["value"] for r in runs]
        s = spread(values)
        flag = "steady" if s < bound / 3 else "within" if s < bound else "FAIL"
        ok = ok and flag != "FAIL"
        print(f"  {workload:<13} {name:<20} median {statistics.median(values):>12.5g} "
              f"spread {s:6.3f} bound {bound:5.3f} {flag}", flush=True)
    return ok


def check_shift(spec, workload, first, second):
    """Each metric's median may not worsen from the first set to the second by its bound."""
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        m1 = statistics.median(r[name]["value"] for r in first)
        m2 = statistics.median(r[name]["value"] for r in second)
        worse = (m2 - m1 if metric["better"] == "lower" else m1 - m2) / m1
        flag = "ok" if worse <= bound else "FAIL"
        ok = ok and flag == "ok"
        print(f"  {workload:<13} {name:<20} median {m1:>12.5g} -> {m2:<12.5g} "
              f"worse by {worse:+.3f} bound {bound:5.3f} {flag}", flush=True)
    return ok


def check_counts(spec, workload, seeds):
    """Run each seed traced twice; every computed count must repeat exactly."""
    ok = True
    computed = [m for m, _, c in LAYER_METRICS if c]
    for seed in seeds:
        a, b = (run_once(spec, workload, seed, 1)["metrics"] for _ in range(2))
        differ = [m for m in computed if a[m]["value"] != b[m]["value"]]
        overhead = [a["trace.overhead_share"]["value"], b["trace.overhead_share"]["value"]]
        print(f"{workload} seed {seed}: computed counts "
              f"{'differ: ' + str(differ) if differ else 'repeat exactly'}; "
              f"overhead {overhead}", flush=True)
        ok = ok and not differ
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--sets", type=int, default=1,
                        help="sets of runs over the seeds; with 2, also compare their medians")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.trace:
        return 0 if all([check_counts(spec, w, seeds) for w in workloads]) else 1
    sets = []
    for i in range(args.sets):
        runs = {w: [] for w in workloads}
        for workload in workloads:
            for seed in seeds:
                runs[workload].append(run_once(spec, workload, seed, 0)["metrics"])
                print(f"set {i + 1} {workload} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.5g}" for m, v in runs[workload][-1].items()),
                      flush=True)
        sets.append(runs)
    ok = True
    for i, runs in enumerate(sets):
        print(f"set {i + 1}: spread over seeds {args.seeds}")
        for workload in workloads:
            ok = check_spreads(spec, workload, runs[workload]) and ok
    for i in range(1, len(sets)):
        print(f"set {i + 1} against set 1: medians")
        for workload in workloads:
            ok = check_shift(spec, workload, sets[0][workload], sets[i][workload]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
