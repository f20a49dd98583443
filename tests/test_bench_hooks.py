"""The benchmark tracer still finds every name it hooks in the package.

``bench/tracing.py`` wraps functions by name and attaches its exact counters
to named spans.  Installing it in a fresh interpreter (so the shims never
reach this test process) fails if a hooked name is gone, and every counter
hook must sit on a span that the install created.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps(sorted(set(tracing.POST_HOOKS) - set(tracer.names))))
"""


def test_bench_tracer_installs_and_every_post_hook_has_its_span():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
