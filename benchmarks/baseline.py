"""Write a BENCH_<topic>.json: every workload's end-to-end metrics plus machine facts.

    python3 benchmarks/baseline.py --out benchmarks/BENCH_baseline.json

Runs each workload once at the default seed with BLAS at its library
default (the gated configuration), then once more with one BLAS thread
(``blas_threads=1``), which is informational and ungated: it records
the size of the effect a BLAS thread policy could have.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_seconds, run_workload  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def entry(result):
    return {"end_to_end": result["end_to_end"], "error_rate": result["error_rate"],
            "output_check": "PASS" if not result["problems"] else result["problems"],
            "reps": result["reps"], "machine": result["machine"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    args = parser.parse_args()
    doc = {"seed": DEFAULT_SEED, "seconds": args.seconds, "blas_default": {},
           "blas_threads_1": {}}
    for name in WORKLOADS:
        doc["blas_default"][name] = entry(run_workload(name, DEFAULT_SEED, args.seconds, 0))
        doc["blas_threads_1"][name] = entry(
            run_workload(name, DEFAULT_SEED, args.seconds, 0, blas_threads=1))
        print(f"{name}: done", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
