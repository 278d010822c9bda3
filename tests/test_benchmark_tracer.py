"""The traced benchmark wraps public randnet functions by name.

A renamed or deleted public function makes ``Tracer().install()``
raise, so this check runs it the way the benchmark does: in a fresh
interpreter with ``src`` on the path. The traced deep_grid workload
needs its heavy layers (``deep.deep_train``, ``autoencoders.rand_ae_train``)
recorded under grid search, which a second check runs the same way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = (
    "import sys; sys.path.insert(0, 'benchmarks'); "
    "from tracer import Tracer; Tracer().install()"
)


def test_tracer_installs_on_every_traced_name():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# A tiny full-grid deep search under the tracer, its spans written to the
# path in argv[1]: prints, as JSON, how many
# deep_train spans ran under grid_search and the rand_ae_train keys of
# the candidate fits (those not under the final per-seed evaluate_fixed,
# which the tracer records as harness.evaluate_fixed).
DEEP_GRID_TRACE = """
import json, sys
sys.path.insert(0, 'benchmarks')
from tracer import SpanIndex, Tracer, read_spans
tracer = Tracer()
tracer.install()
from randnet.methods import get_method
from randnet.selection import GridSpec, grid_search
from randnet.synthetic import interleaved_arcs
ds = interleaved_arcs(n_train=60, n_val=30, n_test=30, seed=1)
grid = GridSpec(ae_widths=(5, 10), clf_widths=(20, 40), C_values=(1.0, 100.0),
                search='full')
tracer.recording = True
grid_search(ds, get_method('deep_rvfl_dense_l1'), grid, seeds=[0],
            base_params={'layers': 2, 'solver_iters': 20})
tracer.recording = False
tracer.dump(sys.argv[1])
ix = SpanIndex(read_spans(sys.argv[1]))
print(json.dumps({
    'deep_train_in_search': sum(
        1 for s in ix.named('deep.deep_train')
        if ix.has_ancestor(s, ('selection.grid_search',))),
    'candidate_ae_keys': [
        s['counts']['key'] for s in ix.named('autoencoders.rand_ae_train')
        if not ix.has_ancestor(s, ('harness.evaluate_fixed',))],
}))
"""


def test_traced_deep_grid_trains_each_stack_once(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", DEEP_GRID_TRACE,
                           str(tmp_path / "trace.jsonl")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # 2 ae widths x 2 C values: four stacks of two layers, one final retrain
    assert seen["deep_train_in_search"] == 5
    keys = seen["candidate_ae_keys"]
    assert len(keys) == 8
    assert len(set(keys)) == len(keys)
