"""Static resource measures for states.

Coherence family (l1, logarithmic, relative-entropy), entanglement entropy of
pure bipartitions, and generic distance-based resource measures evaluated
against finite free-set samples.

Coherence is always relative to the computational basis; pass a basis-change
unitary explicitly to measure in another basis.  Minimizations over infinite
free sets are implemented in closed form where one exists (relative-entropy
coherence over incoherent states) and as finite-sample upper bounds elsewhere;
a :class:`MeasureReport` built from a sampled minimization sets
``upper_bound=True``.

Each coherence measure takes one of two exact routes, chosen by the type of
its argument:

  - A :class:`StateVector` takes the pure-state closed forms (Baumgratz,
    Cramer and Plenio, PRL 113, 140401, 2014), in O(d) time with no d x d
    matrix.  With moduli a = |basis† psi| (or |psi| without a basis):
    l1 = (sum a_i)^2 - sum a_i^2, log = log2(l1 + 1) and C_r = H(a_i^2).
  - A :class:`DensityOperator` takes the dense route: |rho_ij| summed off the
    diagonal, and S(dephased rho) - S(rho) from the spectrum.

:func:`entanglement_entropy` is the Shannon entropy of the squared Schmidt
coefficients: the singular values of psi reshaped to (d_cut x d_rest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qkernel as qk
from .qkernel import DensityOperator, HilbertSpec, InvariantError, StateVector


@dataclass(frozen=True)
class FreeSetSample:
    """Finite list of free-state representatives sharing one HilbertSpec."""

    states: tuple[DensityOperator, ...]
    label: str = ""

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise InvariantError("free-set sample must be nonempty")
        spec = states[0].spec.dims
        if any(s.spec.dims != spec for s in states):
            raise InvariantError("free-set sample states must share one HilbertSpec")

    @property
    def spec(self) -> HilbertSpec:
        return self.states[0].spec


@dataclass(frozen=True)
class MeasureReport:
    """One evaluated measure: name, value (bits or dimensionless), basis, tolerance."""

    measure: str
    value: float
    basis: str = "computational"
    tolerance: float = 1e-10
    upper_bound: bool = False

    def __post_init__(self):
        if self.value < -1e-12:
            raise InvariantError(f"measure value {self.value!r} below -1e-12")
        # Clamp float dust so downstream consumers see a clean nonnegative value.
        object.__setattr__(self, "value", max(self.value, 0.0))

    def to_dict(self) -> dict:
        return {"measure": self.measure, "value": self.value, "basis": self.basis,
                "tolerance": self.tolerance, "upper_bound": self.upper_bound}


def _as_density(rho) -> DensityOperator:
    if isinstance(rho, StateVector):
        return rho.density()
    if isinstance(rho, DensityOperator):
        return rho
    raise InvariantError(f"expected a state, got {type(rho).__name__}")


def _maybe_rotate(rho: DensityOperator, basis: np.ndarray | None) -> DensityOperator:
    if basis is None:
        return rho
    b = np.asarray(basis, dtype=complex)
    return DensityOperator(rho.spec, b.conj().T @ rho.matrix @ b)


def _pure_moduli(psi: StateVector, basis: np.ndarray | None) -> np.ndarray:
    """|basis† psi| (or |psi|); the rotated vector is checked like any raw state."""
    if basis is None:
        return np.abs(psi.amplitudes)
    b = np.asarray(basis, dtype=complex)
    return np.abs(StateVector(psi.spec, b.conj().T @ psi.amplitudes).amplitudes)


# ---------------------------------------------------------------------------
# Coherence family
# ---------------------------------------------------------------------------

def l1_coherence(rho, basis: np.ndarray | None = None) -> float:
    """C(rho) = sum of |rho_ij| over i != j; (sum a)^2 - sum a^2 for a pure state."""
    if isinstance(rho, StateVector):
        a = _pure_moduli(rho, basis)
        return float(a.sum() ** 2 - (a * a).sum())
    rho = _maybe_rotate(_as_density(rho), basis)
    m = np.abs(rho.matrix)
    return float(m.sum() - np.trace(m))


def log_coherence(rho, basis: np.ndarray | None = None) -> float:
    """Q(rho) = log2(C(rho) + 1); additive on tensor products, maximum log2 d."""
    return float(np.log2(l1_coherence(rho, basis) + 1.0))


def rel_ent_coherence(rho, basis: np.ndarray | None = None) -> float:
    """C_r(rho) = S(dephased rho) - S(rho) in bits; H(a^2) for a pure state."""
    if isinstance(rho, StateVector):
        a = _pure_moduli(rho, basis)
        # 0.0 first, so that the entropy -0.0 of a basis state reads 0.0.
        return max(0.0, qk.shannon_entropy(a * a))
    rho = _maybe_rotate(_as_density(rho), basis)
    s_diag = qk.shannon_entropy(np.clip(np.diag(rho.matrix).real, 0.0, None))
    value = s_diag - qk.von_neumann_entropy(rho)
    return max(float(value), 0.0)


def entanglement_entropy(psi: StateVector, cut) -> float:
    """Entropy of the reduced state on the ``cut`` subsystems of a pure state.

    Computed from the Schmidt coefficients, without forming |psi><psi|.
    """
    if not isinstance(psi, StateVector):
        raise InvariantError("entanglement_entropy requires a pure StateVector")
    keep = qk._keep_set(psi.spec, cut)
    dims = psi.spec.dims
    rest = [k for k in range(len(dims)) if k not in keep]
    d_cut = int(np.prod([dims[k] for k in keep]))
    m = np.transpose(psi.amplitudes.reshape(dims), keep + rest).reshape(d_cut, -1)
    schmidt = np.linalg.svd(m, compute_uv=False)
    return qk.shannon_entropy(schmidt ** 2)


# ---------------------------------------------------------------------------
# Distance-based measures
# ---------------------------------------------------------------------------

def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) || rho - sigma ||_1."""
    diff = rho.matrix - sigma.matrix
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho || sigma) = tr rho (log2 rho - log2 sigma); +inf outside sigma's support."""
    vals_r, vecs_r = np.linalg.eigh(rho.matrix)
    vals_r = np.clip(vals_r, 0.0, None)
    vals_s, vecs_s = np.linalg.eigh(sigma.matrix)
    vals_s = np.clip(vals_s, 0.0, None)
    # Overlap of rho's support with sigma's kernel decides finiteness.
    kernel = vecs_s[:, vals_s <= 1e-12]
    if kernel.size:
        weight = sum(p * float(np.linalg.norm(kernel.conj().T @ vecs_r[:, i]) ** 2)
                     for i, p in enumerate(vals_r) if p > 1e-12)
        if weight > 1e-10:
            return float("inf")
    term_r = float(sum(p * np.log2(p) for p in vals_r if p > 0))
    support = vals_s > 1e-12
    log_sigma = (vecs_s[:, support] * np.log2(vals_s[support])) @ vecs_s[:, support].conj().T
    term_s = float(np.trace(rho.matrix @ log_sigma).real)
    return term_r - term_s


_METRICS = {"trace": trace_distance, "relative_entropy": relative_entropy}


def distance_resource(rho, free: FreeSetSample, metric: str = "trace") -> float:
    """Min over free-sample members of the chosen distance.

    This is an upper bound on the true infimum over the full free set; only the
    sampled representatives are searched.
    """
    rho = _as_density(rho)
    if metric not in _METRICS:
        raise InvariantError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
    if rho.spec.dims != free.spec.dims:
        raise InvariantError("state and free-set sample live on different spaces")
    d = _METRICS[metric]
    return min(d(rho, sigma) for sigma in free.states)


def set_distance(resources, free: FreeSetSample, metric: str = "trace") -> float:
    """Max over resource states of min over free states (finite-sample set distance)."""
    resources = [_as_density(r) for r in resources]
    if not resources:
        raise InvariantError("set_distance needs a nonempty resource list")
    return max(distance_resource(r, free, metric) for r in resources)


def incoherent_sample(d: int, include_mixed: bool = True, label: str = "incoherent") -> FreeSetSample:
    """Basis projectors (plus the maximally mixed state) as an incoherent free sample."""
    spec = HilbertSpec((d,))
    states = [qk.basis_state(spec, i).density() for i in range(d)]
    if include_mixed:
        states.append(qk.maximally_mixed(d))
    return FreeSetSample(tuple(states), label=label)
