"""uqres benchmark: one closed-loop client, one process, seeded inputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload dense-cap --seed 1 --seconds 20 --trace 0

Workloads: dense-cap, branch-circuits, protocol-enumeration (see NOTES.md).
Each op is one call to ``uqres.cli.main(argv)`` or to a library function;
the next op starts only when the previous one has returned and its output
has been checked against an independent oracle.  Checks run with the clock
stopped, and the run executes whole op cycles until the summed op time
reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times one
untraced cycle, installs the span shims of ``tracing.py`` and prints the
per-layer metrics, per op cycle, plus the tracing overhead.  The last line of
standard output is the JSON result; a fuller record, with the environment,
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread.  On a shared 2-core machine the default two threads made
# dense-cap faster but far less steady: p50 quartile spread 17% over 3 seeds,
# against 3.6% over 5 seeds with one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def import_program():
    """Import uqres from this checkout's ``src`` and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "uqres", "__init__.py")):
        sys.exit(f"bench: no uqres sources under {SRC}")
    sys.path.insert(0, SRC)
    import uqres
    import uqres.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(uqres.__file__)) != os.path.join(SRC, "uqres"):
        sys.exit(f"bench: imported uqres from {uqres.__file__}, not from {SRC}")
    return uqres


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing numpy and ``uqres.cli``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, uqres.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "l3_cache": l3}


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tally:
    """Attempted and failed ops; a failure is an exception, a non-zero exit or a bad output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def record(self, slot, raw=None, error: BaseException | None = None) -> bool:
        self.attempted += 1
        if error is None:
            try:
                slot.check(slot.payload(raw))
                return True
            except Exception as exc:    # a malformed output is a failed op, not a crash
                error = exc
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(f"{slot.kind} {slot.size}: "
                                       f"{type(error).__name__}: {error}")
        return False


def run_op(slot, tracer=None, op_id: int = -1):
    """Time one op; returns (seconds, raw result or None, exception or None)."""
    raw = err = None
    span = None
    if tracer is not None:
        tracer.op_id = op_id
        span = tracer.begin(tracer.name_id(f"op.{slot.kind}"))
    t0 = time.perf_counter()
    try:
        raw = slot.run()
    except Exception as exc:    # any exception is a failed op, counted in error_rate
        err = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
        tracer.op_id = -1
    return dt, raw, err


def run_cycles(wl, ctx, tally, seconds: float, tracer=None):
    """Closed loop over whole cycles (at least one) until the op time reaches ``seconds``."""
    latencies, per_cycle = [], []
    while not per_cycle or sum(per_cycle) < seconds:
        busy = 0.0
        for slot in wl.cycle:
            gc.collect()
            dt, raw, err = run_op(slot, tracer, len(latencies))
            latencies.append((dt, f"{slot.kind} {slot.size}"))
            busy += dt
            tally.record(slot, raw, err)
            ctx.discard_outputs()
        per_cycle.append(busy)
    return latencies, per_cycle


def setup(uq, name: str, seed: int, run_dir: str):
    """Seeded input generation plus warm-up, repeated; returns (workload, ctx, times, warm)."""
    import workloads
    times, wl, ctx, warm = [], None, None, []
    for rep in range(SETUP_REPEATS):
        if ctx is not None:
            ctx.discard_outputs()
            shutil.rmtree(ctx.root)
        t0 = time.perf_counter()
        ctx = workloads.Context(Path(run_dir) / f"setup{rep}", uq)
        wl = workloads.WORKLOADS[name](seed, ctx)
        warm = [(slot, slot.run()) for slot in wl.warmup]
        times.append(time.perf_counter() - t0)
    warm = [(slot, slot.payload(raw)) for slot, raw in warm]
    ctx.discard_outputs()
    return wl, ctx, times, warm


def self_test(warm) -> tuple[int, int]:
    """Feed one genuine and one perturbed output of every warm-up slot to the checker.

    Returns (perturbed results given, perturbed results counted as failed);
    every genuine output must pass, or the self-test counts as failed.
    """
    import oracles
    genuine, corrupted = Tally(), Tally()
    for slot, payload in warm:
        for tally, given in ((genuine, payload), (corrupted, oracles.perturb(payload))):
            tally.record(dataclasses.replace(slot, payload=lambda _, given=given: given))
    caught = corrupted.failed if genuine.failed == 0 else 0
    return corrupted.attempted, caught


def layer_metrics(tracer, cycles: int, traced_busy: float, untraced_cycle: float) -> dict:
    import tracing as tr
    t = tr.SpanTable(tracer)
    c = tracer.counters
    per = 1.0 / cycles
    validate = [f"qkernel.{k}" for k in ("HilbertSpec", "StateVector", "DensityOperator",
                                         "UnitaryOp", "QuantumChannel")]
    validate_s = t.inclusive(*validate)
    protocol_calls = c.get("protocol_calls", 0.0)
    leaves = c.get("leaves", 0.0)
    m = {
        "qkernel.validate_s": (validate_s * per, "s/cycle"),
        "qkernel.validate_calls": (t.calls(*validate) * per, "count/cycle"),
        "qkernel.validate_share": (validate_s / traced_busy, "ratio"),
        "qkernel.validate_work_d3": (c.get("validate_work_d3", 0.0) * per, "d3/cycle"),
        "qkernel.entropy_s": (t.inclusive("qkernel.von_neumann_entropy") * per, "s/cycle"),
        "qkernel.apply_on_wires_calls": (t.calls("qkernel.apply_on_wires") * per,
                                         "count/cycle"),
        "qkernel.apply_on_wires_s": (t.inclusive("qkernel.apply_on_wires") * per, "s/cycle"),
        "qkernel.embed_operator_calls": (t.calls("qkernel.embed_operator") * per,
                                         "count/cycle"),
        "qkernel.embed_operator_s": (t.inclusive("qkernel.embed_operator") * per, "s/cycle"),
        "measures.coherence_calls": (t.calls(*COHERENCE) * per, "count/cycle"),
        "measures.coherence_s": (t.self_s(*COHERENCE) * per, "s/cycle"),
        "interference.power_calls": (t.calls("interference.interference_power") * per,
                                     "count/cycle"),
        "interference.power_s": (t.self_s("interference.interference_power") * per,
                                 "s/cycle"),
        "interference.columns": (c.get("columns", 0.0) * per, "count/cycle"),
        "hamiltonian.trotter_s": (t.inclusive("hamiltonian.trotter_error") * per, "s/cycle"),
        "circuits.simulate_s": (t.inclusive("circuits.simulate") * per, "s/cycle"),
        "circuits.branch_kraus_s": (t.inclusive("circuits.branch_kraus") * per, "s/cycle"),
        "circuits.induced_channel_s": (t.inclusive("circuits.induced_channel") * per,
                                       "s/cycle"),
        "circuits.branches": (c.get("branches", 0.0) * per, "count/cycle"),
        "mps.prepare_s": (t.inclusive("mps.contract", "mps.sequential_prepare",
                                      "mps.cluster_state") * per, "s/cycle"),
        "protocols.enumerate_s": (t.inclusive("protocols.enumerate_runs") * per, "s/cycle"),
        "protocols.protocol_calls": (protocol_calls * per, "count/cycle"),
        "protocols.leaves": (leaves * per, "count/cycle"),
        "protocols.leaf_ratio": (leaves / protocol_calls if protocol_calls else 0.0,
                                 "ratio"),
        "protocols.register_measure_calls": (t.calls("protocols.Register.measure") * per,
                                             "count/cycle"),
        "protocols.register_measure_s": (t.inclusive("protocols.Register.measure") * per,
                                         "s/cycle"),
        "protocols.max_live_qubits": (tracer.maxima.get("max_live_qubits", 0.0), "qubits"),
        "cli.decode_s": (t.self_s(*DECODE) * per, "s/cycle"),
        "cli.input_bytes": (c.get("input_bytes", 0.0) * per, "B/cycle"),
        "cli.encode_s": (t.self_s(*ENCODE) * per, "s/cycle"),
        "cli.report_bytes": (c.get("report_bytes", 0.0) * per, "B/cycle"),
        "cli.overhead_s": ((t.self_s("cli.main") + t.inclusive("cli.build_parser")) * per,
                           "s/cycle"),
        "trace.wall_s": (traced_busy * per, "s/cycle"),
        "trace.overhead_s": (traced_busy * per - untraced_cycle, "s/cycle"),
        "trace.overhead_share": ((traced_busy * per - untraced_cycle) / untraced_cycle,
                                 "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


COHERENCE = ("measures.l1_coherence", "measures.log_coherence", "measures.rel_ent_coherence")
DECODE = ("cli._load_json", "cli.vector_from_json", "cli.density_from_json",
          "cli.matrix_from_json", "circuits.circuit_from_json",
          "hamiltonian.termsum_from_json", "mps.mps_from_json")
ENCODE = ("cli._emit", "cli._report", "cli.vector_to_json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["dense-cap", "branch-circuits", "protocol-enumeration"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    uq = import_program()
    import_s = import_seconds()
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}-{time.time_ns()}")
    try:
        wl, ctx, setup_times, warm = setup(uq, args.workload, args.seed, run_dir)
        setup_s = import_s + statistics.median(setup_times)
        tally = Tally()
        if args.trace:
            import tracing as tr
            _, (ref_busy,) = run_cycles(wl, ctx, tally, 0.0)
            tracer = tr.Tracer()
            tr.install(tracer)
            lat, per_cycle = run_cycles(wl, ctx, tally, args.seconds, tracer)
            metrics = layer_metrics(tracer, len(per_cycle), sum(per_cycle), ref_busy)
        else:
            lat, per_cycle = run_cycles(wl, ctx, tally, args.seconds)
        busy, cycles = sum(per_cycle), len(per_cycle)
        selftest_given, selftest_caught = self_test(warm)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    by_size = {}
    for dt, label in lat:
        by_size.setdefault(label, []).append(dt * 1e3)
    srt = sorted(dt for dt, _ in lat)
    n = len(srt)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "throughput_ops_s": (n / busy, "ops/s"),
        "latency_p50_ms": (nearest_rank(srt, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (nearest_rank(srt, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    env = environment()
    above_p90 = sum(1 for v in srt if v > nearest_rank(srt, 0.9))
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} ops in "
          f"{cycles} cycles of {len(wl.cycle)}, {busy:.3f} s of op time")
    for key, (value, unit) in e2e.items():
        extra = ""
        if key == "latency_p50_ms":
            extra = f" (n={n})"
        elif key == "latency_p90_ms":
            extra = f" (n={n}, {above_p90} ops above it)"
        elif key == "error_rate":
            extra = f" ({tally.failed} of {tally.attempted} ops failed)"
        print(f"{key} = {value:.6g} {unit}{extra}")
    for failure in tally.first_failures:
        print(f"FAILED {failure}")
    selftest_ok = selftest_given > 0 and selftest_caught == selftest_given
    print(f"checker self-test: {selftest_caught} of {selftest_given} corrupted results "
          f"counted as failures")

    if args.trace:
        for key, m in metrics.items():
            print(f"{key} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()
                   if k != "error_rate"}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "ops": n, "cycles": cycles,
              "cycle_busy_s": per_cycle, "import_s": import_s,
              "setup_repeats_s": setup_times,
              "latency_ms_by_size": {k: {"n": len(v), "median": statistics.median(v)}
                                     for k, v in sorted(by_size.items())},
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "selftest": {"given": selftest_given, "caught": selftest_caught},
              "failures": tally.first_failures, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}")
    with open(base + ".json.tmp", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    os.replace(base + ".json.tmp", base + ".json")
    if args.trace:
        tracer.write(base + "-spans.npz")
    print(json.dumps({"correct": tally.failed == 0 and selftest_ok,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
