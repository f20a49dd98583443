"""Span tracer installed from outside the program.

``install(tracer)`` wraps every public function and every dataclass
constructor of each ``uqres`` module, plus a few named private choke points,
with a timing shim.  ``src/`` is not edited: the shims replace module and
class attributes at run time, in every ``uqres`` module that holds a
reference to the same function object.

A span is (op id, name, start, end, parent).  Spans are kept in compact
in-memory arrays while the run lasts and written out once, when it ends.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("qkernel", "measures", "interference", "wigner", "circuits", "mps",
           "protocols", "hamiltonian", "algorithms", "cli")

# Private or method choke points that the layer metrics need, beyond the
# public functions and dataclass constructors wrapped generically.
EXTRA_SPANS = (
    ("cli", "_load_json"), ("cli", "_emit"), ("cli", "_report"),
    ("protocols", "Register.measure"), ("qkernel", "StateVector.density"),
    ("qkernel", "DensityOperator.eigenvalues"),
)


class Tracer:
    """Append-only span store plus exact counters, all in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.op = array.array("i")
        self.parent = array.array("i")
        self.t0 = array.array("q")
        self.t1 = array.array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @property
    def on(self) -> bool:
        return self.op_id >= 0

    def begin(self, nid: int) -> int:
        idx = len(self.t0)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.t1.append(0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "t0": np.frombuffer(self.t0, dtype=np.int64).copy(),
                "t1": np.frombuffer(self.t1, dtype=np.int64).copy()}

    def write(self, path: str) -> None:
        """Write the span table (names index the ``names`` array) as one .npz file."""
        tmp = path + ".tmp.npz"
        np.savez(tmp, names=np.array(self.names), **self.arrays())
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Shims
# ---------------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, fn, span: str, post=None):
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        idx = tracer.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if post is not None:
            post(tracer, args, kwargs, out)
        return out

    return shim


def _count_wrapper(tracer: Tracer, fn, post):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        out = fn(*args, **kwargs)
        if tracer.on:
            post(tracer, args, kwargs, out)
        return out

    return shim


def _dim_cubed(tracer, args, kwargs, out):
    self = args[0]
    tracer.count("validate_work_d3", float(self.spec.total_dim) ** 3)


def _file_bytes(tracer, args, kwargs, out):
    tracer.count("input_bytes", os.path.getsize(args[0]))


def _report_bytes(tracer, args, kwargs, out):
    out_path = args[0].out
    if out_path:
        tracer.count("report_bytes", os.path.getsize(out_path))


def _result_len(key):
    def post(tracer, args, kwargs, out):
        tracer.count(key, len(out))
    return post


def _live_qubits(tracer, args, kwargs, out):
    tracer.peak("max_live_qubits", args[0].max_live_qubits)


# Exact counters attached to spans (span name -> post hook).
POST_HOOKS = {
    "qkernel.DensityOperator": _dim_cubed,
    "qkernel.UnitaryOp": _dim_cubed,
    "cli._load_json": _file_bytes,
    "cli._emit": _report_bytes,
    "circuits.simulate": _result_len("branches"),
    "circuits.branch_kraus": _result_len("branches"),
    "protocols.enumerate_runs": _result_len("leaves"),
    "protocols.PMQCResult": _live_qubits,
}

# Counters without a span (module, attribute, hook).
COUNT_ONLY = (
    ("interference", "_column_outputs", _result_len("columns")),
    ("protocols", "ReplaySource.__init__",
     lambda tracer, args, kwargs, out: tracer.count("protocol_calls")),
)


def _resolve(mod, dotted):
    owner, _, attr = dotted.rpartition(".")
    return (getattr(mod, owner) if owner else mod), attr


def install(tracer: Tracer) -> None:
    """Install the shims into every ``uqres`` module listed in ``MODULES``."""
    mods = {m: importlib.import_module(f"uqres.{m}") for m in MODULES}
    replaced: dict[int, object] = {}

    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            span = f"{short}.{name}"
            if inspect.isfunction(obj):
                replaced[id(obj)] = _span_wrapper(tracer, obj, span, POST_HOOKS.get(span))
            elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                obj.__init__ = _span_wrapper(tracer, obj.__init__, span,
                                             POST_HOOKS.get(span))

    for short, dotted in EXTRA_SPANS:
        owner, attr = _resolve(mods[short], dotted)
        fn = getattr(owner, attr)
        span = f"{short}.{dotted}"
        shim = _span_wrapper(tracer, fn, span, POST_HOOKS.get(span))
        if inspect.isclass(owner):
            setattr(owner, attr, shim)
        else:
            replaced[id(fn)] = shim

    for short, dotted, post in COUNT_ONLY:
        owner, attr = _resolve(mods[short], dotted)
        fn = getattr(owner, attr)
        shim = _count_wrapper(tracer, fn, post)
        if inspect.isclass(owner):
            setattr(owner, attr, shim)
        else:
            replaced[id(fn)] = shim

    # Rebind every module-level reference to a wrapped function object, so
    # names imported with ``from .x import f`` are traced as well.
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            shim = replaced.get(id(obj))
            if shim is not None:
                setattr(mod, name, shim)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class SpanTable:
    """Vectorised views over a finished span table."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur = (a["t1"] - a["t0"]).astype(np.float64) * 1e-9
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - child

    def _mask(self, names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def _outermost(self, names) -> np.ndarray:
        """Spans named in ``names`` that have no ancestor named in ``names``."""
        in_set = self._mask(names)
        covered = np.zeros_like(in_set)
        p = self.parent.copy()
        live = p >= 0
        while live.any():
            covered[live] |= in_set[p[live]]
            p[live] = self.parent[p[live]]
            live = p >= 0
        return in_set & ~covered

    def calls(self, *names) -> int:
        return int(self._mask(names).sum())

    def inclusive(self, *names) -> float:
        """Wall time covered by the named spans, counting nested ones once."""
        return float(self.dur[self._outermost(names)].sum())

    def self_s(self, *names) -> float:
        return float(self.self_time[self._mask(names)].sum())
