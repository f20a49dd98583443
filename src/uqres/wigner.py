"""Discrete Wigner functions for a single odd-prime-dimension qudit.

Phase-point construction (fixed so tables are bit-for-bit reproducible):
Weyl displacement operators T_(q,p) = w^{2^{-1} q p} X^q Z^p with w = e^{2 pi i/d}
and 2^{-1} the inverse of 2 mod d; A_0 = (1/d) sum_u T_u (the parity operator);
A_u = T_u A_0 T_u†.  Then W_rho(q, p) = (1/d) tr(A_(q,p) rho).

Sum negativity is the total weight of negative Wigner entries and mana is
log2(2N + 1), additive on the (single-qudit) free set of stabilizer states,
all of which have nonnegative Wigner functions.

Qubit magic has no Wigner-based monotone here (even dimensions are rejected);
:func:`qubit_magic_coherence_proxy` reports the l1 coherence of the state as
the contextuality-style proxy instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import measures as ms
from . import qkernel as qk
from .qkernel import DensityOperator, HilbertSpec, InvariantError, StateVector


def is_odd_prime(d: int) -> bool:
    if d < 3 or d % 2 == 0:
        return False
    return all(d % k for k in range(3, int(math.isqrt(d)) + 1, 2))


def _require_odd_prime(d: int):
    if not is_odd_prime(d):
        raise InvariantError(f"dimension {d} is not an odd prime")


@dataclass(frozen=True)
class WignerTable:
    """d x d real quasiprobability grid W(q, p), normalized to 1."""

    d: int
    values: np.ndarray

    def __post_init__(self):
        _require_odd_prime(self.d)
        vals = np.asarray(self.values, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.d, self.d):
            raise InvariantError(f"Wigner table shape {vals.shape}, expected ({self.d}, {self.d})")
        total = float(vals.sum())
        qk._require_close(total, 1.0, qk.ATOL, f"Wigner table sums to {total!r}, expected 1")


@dataclass(frozen=True)
class StabilizerStateSet:
    """All pure single-qudit stabilizer states for odd prime d (d(d+1) of them)."""

    d: int
    n: int
    states: tuple[StateVector, ...]

    def __post_init__(self):
        if self.n != 1:
            raise InvariantError("only single-qudit stabilizer sets are supported")
        _require_odd_prime(self.d)
        for s in self.states:
            table = wigner_function(s.density(), self.d)
            if table.values.min() < -1e-10:
                raise InvariantError("stabilizer state with negative Wigner entry")


def weyl_operator(d: int, q: int, p: int) -> np.ndarray:
    """Displacement T_(q,p) = w^{2^{-1} q p} X^q Z^p."""
    _require_odd_prime(d)
    w = np.exp(2j * np.pi / d)
    half = pow(2, -1, d)
    xq = np.linalg.matrix_power(qk.shift_x(d), q % d)
    zp = np.linalg.matrix_power(qk.clock_z(d), p % d)
    return w ** ((half * q * p) % d) * (xq @ zp)


@lru_cache(maxsize=None)
def phase_point_operators(d: int) -> tuple[np.ndarray, ...]:
    """All d^2 phase-point operators A_(q,p), indexed row-major by (q, p)."""
    _require_odd_prime(d)
    a0 = sum(weyl_operator(d, q, p) for q in range(d) for p in range(d)) / d
    ops = []
    for q in range(d):
        for p in range(d):
            t = weyl_operator(d, q, p)
            a = t @ a0 @ t.conj().T
            a.setflags(write=False)
            ops.append(a)
    return tuple(ops)


def wigner_function(rho: DensityOperator | StateVector, d: int) -> WignerTable:
    """W(q, p) = (1/d) tr(A_(q,p) rho) for a single qudit of odd prime dimension d."""
    if isinstance(rho, StateVector):
        rho = rho.density()
    _require_odd_prime(d)
    if rho.spec.dims != (d,):
        raise InvariantError(f"state dims {rho.spec.dims} are not a single dim-{d} qudit")
    ops = phase_point_operators(d)
    vals = np.array([np.trace(a @ rho.matrix).real for a in ops]).reshape(d, d) / d
    table = WignerTable(d, vals)
    qk._require_close(d * (vals ** 2).sum(), rho.purity(), 1e-9,
                      "Wigner purity identity d * sum W^2 = tr rho^2 violated")
    return table


def sum_negativity(table: WignerTable) -> float:
    """N = sum of |W(u)| over the strictly negative entries."""
    vals = table.values
    return float(-vals[vals < 0].sum())


def mana(rho: DensityOperator | StateVector, d: int) -> float:
    """M(rho) = log2(2 N(rho) + 1)."""
    return float(np.log2(2.0 * sum_negativity(wigner_function(rho, d)) + 1.0))


@lru_cache(maxsize=None)
def stabilizer_states(d: int) -> StabilizerStateSet:
    """The d(d+1) single-qudit stabilizer states: eigenbases of the d+1 Weyl classes.

    Bases are the computational basis (Z eigenbasis) plus, for each a in Z_d, the
    basis with vectors v_(a,b)[x] = w^{a x^2 + b x} / sqrt(d) — the eigenbasis of
    X Z^{2a} (2a covers all residues since d is odd).
    """
    _require_odd_prime(d)
    spec = HilbertSpec((d,))
    w = np.exp(2j * np.pi / d)
    states = [qk.basis_state(spec, i) for i in range(d)]
    x = np.arange(d)
    for a in range(d):
        for b in range(d):
            amps = w ** ((a * x * x + b * x) % d) / math.sqrt(d)
            states.append(StateVector(spec, amps))
    return StabilizerStateSet(d, 1, tuple(states))


def qubit_magic_coherence_proxy(rho: DensityOperator | StateVector) -> float:
    """l1 coherence as the qubit-magic proxy (no qubit Wigner monotone exists here)."""
    return ms.l1_coherence(rho)
