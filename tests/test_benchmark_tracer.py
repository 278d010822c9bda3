"""The traced benchmark wraps public randnet functions by name.

A renamed or deleted public function makes ``Tracer().install()``
raise, so this check runs it the way the benchmark does: in a fresh
interpreter with ``src`` on the path.
"""

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
