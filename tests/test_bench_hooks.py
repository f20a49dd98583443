"""The benchmark tracer still finds every name it hooks in the package.

``bench/tracing.py`` wraps functions by name and attaches its exact counters
to named spans.  Installing it in a fresh interpreter (so the shims never
reach this test process) fails if a hooked name is gone, and every counter
hook must sit on a span that the install created.  A traced enumeration
must count one protocol call per leaf.
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


TRACED_ENUMERATION = """
import json
import tracing
from uqres import protocols, qkernel
tracer = tracing.Tracer()
tracing.install(tracer)
tracer.op_id = 0
protocols.enumerate_runs(
    lambda src: protocols.pmqc_run(qkernel.plus_state(2), [["H"]], source=src))
print(json.dumps(tracer.counters))
"""


def run_with_tracer(script: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_tracer_installs_and_every_post_hook_has_its_span():
    assert run_with_tracer(SCRIPT) == []


def test_traced_enumeration_counts_one_protocol_call_per_leaf():
    counters = run_with_tracer(TRACED_ENUMERATION)
    assert counters["leaves"] == 16
    assert counters["protocol_calls"] == counters["leaves"]
