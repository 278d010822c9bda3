"""The bits on record: SHA-256s of what randnet writes, per BLAS build.

    python tests/bits_record.py     # add this build's entries to bits_record.json

For each BLAS thread count in ``THREADS`` a child process, started with
``OPENBLAS_NUM_THREADS`` at that count, trains every method once on a
small arcs fixture and saves its model file, then runs the demo bench
(``configs/demo.yaml``) and ``stats`` on its results. The record keeps
the SHA-256 of each model file, of the demo ``results.csv`` without its
time columns, and of the three ``stats`` files.

The bits depend on the BLAS build, so the record is keyed by the
configuration string of numpy's OpenBLAS as it reads at run time
(version, build options and the DYNAMIC_ARCH core it chose), then by the
thread count the child's OpenBLAS reports. The script adds the entries
of a build the record lacks and refuses to change an entry it holds;
``test_bits_record.py`` checks a run against it.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
RECORD = TESTS / "bits_record.json"
DEMO_CONFIG = ROOT / "configs" / "demo.yaml"
THREADS = (1, 2)
CHILD_TIMEOUT_S = 120

FIXTURE_PARAMS = "{layers: 2, ae_width: 10, clf_width: 60, solver_iters: 50}"
FIXTURE = """\
seeds: [0]
datasets:
  - name: arcs
    synthetic: {kind: arcs, n_train: 150, n_val: 60, n_test: 60, noise: 0.15, seed: 7}
methods:
"""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def without_time_columns(path):
    """The bytes of a results CSV with its time columns dropped."""
    from randnet.harness import TIME_COLUMNS

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIME_COLUMNS]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def blas_build():
    """(configuration string, thread count) of numpy's OpenBLAS, the
    library that runs every product and solve, or None where numpy's
    BLAS is no OpenBLAS that exports LAPACK."""
    import ctypes

    from randnet.numerics import blas_thread_counts, loaded_openblas, openblas_routine
    from randnet.solvers import NUMPY_LAPACK

    for name, lib, decoration in loaded_openblas():
        if NUMPY_LAPACK is not None and name == NUMPY_LAPACK.library:
            config = openblas_routine(lib, decoration, "openblas_get_config")
            config.argtypes, config.restype = (), ctypes.c_char_p
            return config().decode(), blas_thread_counts()[name]
    return None


def child_report(work):
    """Train and save every method, run the demo bench and stats, all in
    ``work``, and print the build and each file's SHA-256 as JSON."""
    from randnet.cli import main
    from randnet.methods import METHODS

    work = Path(work)
    config = work / "fixture.yaml"
    config.write_text(FIXTURE + "".join(f"  - name: {name}\n    params: {FIXTURE_PARAMS}\n"
                                        for name in METHODS))
    files = {}
    for name in METHODS:
        if main(["train", "--config", str(config), "--dataset", "arcs", "--method", name,
                 "--out", str(work / "models")]):
            raise RuntimeError(f"randnet train failed for {name}")
        model = f"arcs__{name}__seed0.rnm"
        files[f"models/{model}"] = sha256((work / "models" / model).read_bytes())
    demo = work / "demo"
    if (main(["bench", "--config", str(DEMO_CONFIG), "--out", str(demo)])
            or main(["stats", "--results", str(demo / "results.csv"), "--out", str(demo)])):
        raise RuntimeError("the demo bench or stats failed")
    files["demo/results.csv"] = sha256(without_time_columns(demo / "results.csv"))
    for name in ("ranks.csv", "significance.csv", "report.md"):
        files[f"demo/{name}"] = sha256((demo / name).read_bytes())
    print(json.dumps({"build": blas_build(), "files": files}))


def start_child(work, threads):
    """A child that runs child_report in work/threads<threads> at that BLAS thread count."""
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(TESTS), os.environ.get("PYTHONPATH")) if p)
    child_work = Path(work) / f"threads{threads}"
    child_work.mkdir(parents=True)
    code = f"import bits_record; bits_record.child_report({str(child_work)!r})"
    # files, not pipes: a child blocked on a full pipe would stall the other
    with open(child_work / "out", "w") as out, open(child_work / "err", "w") as err:
        return child_work, subprocess.Popen([sys.executable, "-c", code], env=env,
                                            stdout=out, stderr=err)


def measure(work):
    """{(configuration string, thread count): {file: SHA-256}}, one child per
    count in THREADS, the children running side by side."""
    children = [start_child(work, threads) for threads in THREADS]
    runs = {}
    try:
        for child_work, child in children:
            if child.wait(timeout=CHILD_TIMEOUT_S):
                raise RuntimeError(f"bits child failed:\n{(child_work / 'err').read_text()}")
            report = json.loads((child_work / "out").read_text().splitlines()[-1])
            if report["build"] is not None:
                runs[tuple(report["build"])] = report["files"]
    finally:
        for _, child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return runs


def read_record():
    return json.loads(RECORD.read_text()) if RECORD.exists() else {}


def main(work):
    record = read_record()
    for (config, threads), files in measure(work).items():
        held = record.setdefault(config, {}).setdefault(str(threads), files)
        if held != files:
            changed = sorted(name for name in set(held) | set(files)
                             if held.get(name) != files.get(name))
            sys.exit(f"bits differ from the record at {config!r}, {threads} threads: "
                     f"{', '.join(changed)}; an entry on record is never changed")
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{RECORD}: " + "; ".join(f"{config!r} at {', '.join(sorted(by_threads))} threads"
                                     for config, by_threads in record.items()))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
