"""The traced benchmark wraps public randnet functions by name.

A renamed or deleted public function makes ``Tracer().install()``
raise, so this check runs it the way the benchmark does: in a fresh
interpreter with ``src`` on the path. The traced deep_grid workload
needs its heavy layers (``deep.deep_train``, ``autoencoders.rand_ae_train``)
recorded under grid search, which a second check runs the same way. A
third runs every benchmark workload, shrunken, under the tracer and
requires each of its heavy layers to record a call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# One benchmark workload, shrunken, under the tracer: its run config at
# 60 training rows with small widths, run through cli.main as the
# benchmark child runs it (train_serve: train, then load_model and
# predict_method), then check_heavy on the workload's heavy spans. The
# shallow widths 30 and 90 lie below and above 60 rows, so both
# ridge_primal and ridge_dual run. argv: workload name, scratch dir.
WORKLOAD_TRACE = """
import sys
from pathlib import Path
sys.path.insert(0, 'benchmarks')
import yaml
from tracer import Tracer, check_heavy, read_spans
from workloads import WORKLOADS
tracer = Tracer()
tracer.install()
from randnet import methods, model_io
from randnet.cli import main
from randnet.synthetic import interleaved_arcs

name, work = sys.argv[1], Path(sys.argv[2])
workload = WORKLOADS[name]
cfg = workload['config'](0)
for ds in cfg['datasets']:
    ds['synthetic'].update(n_train=60, n_val=30, n_test=30)
for m in cfg['methods']:
    params, grid = m.setdefault('params', {}), m.setdefault('grid', {})
    for key, value in (('ae_width', 5), ('clf_width', 30), ('solver_iters', 10)):
        if key in params:
            params[key] = value
    for key, value in (('ae_widths', [5, 8]), ('clf_widths', [30, 90])):
        if key in grid:
            grid[key] = value
    grid.setdefault('C_values', [1.0, 100.0])
config = work / 'run.yaml'
config.write_text(yaml.safe_dump(cfg))
out = work / 'out'
tracer.recording = True
for command in workload['bench']:
    args = ['--results', str(out / 'results.csv')] if command == 'stats' else ['--config', str(config)]
    assert main([command, *args, '--out', str(out)]) == 0, command
if workload['serve']:
    method = workload['serve'][0]
    assert main(['train', '--config', str(config), '--dataset', 'arcs', '--method', method,
                 '--out', str(out)]) == 0
    model = model_io.load_model(next(out.glob('*.rnm')))
    methods.predict_method(model, interleaved_arcs(n_train=16, n_val=0, n_test=0).X)
tracer.recording = False
tracer.dump(work / 'trace.jsonl')
spans = read_spans(work / 'trace.jsonl')
check_heavy(spans, workload['heavy'])
print(len(spans))
"""


@pytest.mark.parametrize("workload", ["shallow_grid", "deep_grid", "train_serve"])
def test_shrunken_workload_records_every_heavy_span(tmp_path, workload):
    # a refactor that stops calling a traced heavy layer fails the traced
    # benchmark run with CoverageError; this finds it in a few seconds
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", WORKLOAD_TRACE, workload, str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) > 0  # spans recorded
