"""Discrete Wigner functions for a single odd-prime-dimension qudit.

The phase-point operators A_(q,p)|y> = w^{2p(q-y)} |2q - y>, w = e^{2 pi i/d}
(Wootters 1987; Gross, J. Math. Phys. 47, 122107, 2006) give the closed form
W(q, p) = (1/d) tr(A_(q,p) rho) = (1/d) sum_x w^{-2px} rho_{q+x, q-x}: one index
gather (psi_{q+x} psi*_{q-x} for a pure state, with no density matrix) and one
FFT along x.  That is O(d^2 log d) time and O(d^2) memory per table.

Sum negativity is the total weight of negative Wigner entries and mana is
log2(2N + 1) (Veitch, Mousavian, Gottesman and Emerson, NJP 16, 013009, 2014),
additive on the (single-qudit) free set of stabilizer states, all of which
have nonnegative Wigner functions.

Qubit magic has no Wigner-based monotone here (even dimensions are rejected);
:func:`qubit_magic_coherence_proxy` reports the l1 coherence of the state as
the contextuality-style proxy instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if any(s.spec.dims != (self.d,) for s in self.states):
            raise InvariantError(f"stabilizer states must be single dim-{self.d} qudits")
        psi = np.array([s.amplitudes for s in self.states]).reshape(-1, self.d)
        for i in range(0, len(psi), self.d):    # d tables per FFT: d^3 entries, not d^4
            if _pure_values(psi[i:i + self.d]).min() < -1e-10:
                raise InvariantError("stabilizer state with negative Wigner entry")


def _fold(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices ((q + x) mod d, (q - x) mod d) over the (q, x) grid."""
    k = np.arange(d)
    return (k[:, None] + k) % d, (k[:, None] - k) % d


def _fft_values(g: np.ndarray) -> np.ndarray:
    """W(q, p) = (1/d) sum_x w^{-2px} g[..., q, x]: one FFT along x, read at column 2p."""
    d = g.shape[-1]
    return np.fft.fft(g)[..., (2 * np.arange(d)) % d].real / d


def _pure_values(psi: np.ndarray) -> np.ndarray:
    """Wigner values of the pure states on the last axis of ``psi``."""
    plus, minus = _fold(psi.shape[-1])
    return _fft_values(psi[..., plus] * psi[..., minus].conj())


def weyl_operator(d: int, q: int, p: int) -> np.ndarray:
    """Displacement T_(q,p) = w^{2^{-1} q p} X^q Z^p: |y> -> w^{2^{-1} q p + p y} |y + q>."""
    _require_odd_prime(d)
    y = np.arange(d)
    t = np.zeros((d, d), dtype=complex)
    t[(y + q) % d, y] = np.exp(2j * np.pi * ((pow(2, -1, d) * q * p + p * y) % d) / d)
    return t


def wigner_function(rho: DensityOperator | StateVector, d: int) -> WignerTable:
    """W(q, p) = (1/d) sum_x w^{-2 p x} rho_{q+x, q-x} for one qudit of odd prime dimension d."""
    _require_odd_prime(d)
    if rho.spec.dims != (d,):
        raise InvariantError(f"state dims {rho.spec.dims} are not a single dim-{d} qudit")
    if isinstance(rho, StateVector):
        vals, purity = _pure_values(rho.amplitudes), 1.0
    else:
        vals, purity = _fft_values(rho.matrix[_fold(d)]), rho.purity()
    table = WignerTable(d, vals)
    qk._require_close(d * (vals ** 2).sum(), purity, 1e-9,
                      "Wigner purity identity d * sum W^2 = tr rho^2 violated")
    return table


def sum_negativity(table: WignerTable) -> float:
    """N = sum of |W(u)| over the strictly negative entries."""
    vals = table.values
    return float(-vals[vals < 0].sum())


def mana(table: WignerTable) -> float:
    """M = log2(2 N + 1) of the table's sum negativity N."""
    return float(np.log2(2.0 * sum_negativity(table) + 1.0))


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
