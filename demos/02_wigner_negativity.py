"""Discrete Wigner functions, sum negativity and mana for a qutrit.

Stabilizer states have nonnegative Wigner functions, so their mana vanishes;
negativity is the resource that stabilizer operations cannot create.  The
negativity of any state is also bounded by its l1 coherence.
"""

import numpy as np

from uqres import measures as ms
from uqres import qkernel as qk
from uqres import wigner as wg

d = 3

# The maximally mixed qutrit has a flat table.
flat = wg.wigner_function(qk.maximally_mixed(d), d)
print("W(1/3):")
print(np.round(flat.values, 4))

# A basis state occupies one phase-space line.
table0 = wg.wigner_function(qk.basis_state(qk.HilbertSpec((d,)), 0), d)
print("\nW(|0><0|):")
print(np.round(table0.values, 4))

# All d(d+1) stabilizer states are nonnegative, hence mana 0.
stab = wg.stabilizer_states(d)
print(f"\n{len(stab.states)} qutrit stabilizer states, "
      f"max mana = {max(wg.mana(wg.wigner_function(s, d)) for s in stab.states):.2e}")

# The "most magic" direction: strange states show up under random search.
rng = np.random.default_rng(1)
best_state, best_neg = None, 0.0
for _ in range(500):
    psi = qk.random_state((d,), rng)
    neg = wg.sum_negativity(wg.wigner_function(psi, d))
    if neg > best_neg:
        best_state, best_neg = psi, neg
print(f"best negativity over 500 random qutrits: N = {best_neg:.4f}, "
      f"mana = {np.log2(2 * best_neg + 1):.4f}")

# Negativity never exceeds coherence.
print("\nN(psi) <= C(psi) on 10 random states:")
for _ in range(10):
    psi = qk.random_state((d,), rng)
    n = wg.sum_negativity(wg.wigner_function(psi, d))
    c = ms.l1_coherence(psi)
    print(f"  N = {n:.4f}  <=  C = {c:.4f}")

# Covariance: displacing the state translates the table.
psi = qk.random_state((d,), rng)
base = wg.wigner_function(psi, d).values
shifted = qk.apply_unitary(psi, wg.weyl_operator(d, 1, 2))
moved = wg.wigner_function(shifted, d).values
print("\ncovariance check (entrywise match):",
      np.abs(moved - np.roll(np.roll(base, 1, axis=0), 2, axis=1)).max())
