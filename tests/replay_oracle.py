"""Test oracle: exhaustive protocol enumeration by replay from the root.

This engine forks by exception: when a run's prescribed prefix is used up,
the next draw raises ``_Fork`` with its allowed outcomes, the partial run is
thrown away, and each longer prefix is replayed from the start.  It calls a
protocol 2L - 1 times for L leaves and keeps the leaves in depth-first order,
the higher outcome of each draw first, and forks under the same
``qkernel.PRUNE`` rule as the engine.  ``uqres.protocols.enumerate_runs``
runs each call to a leaf instead and is checked against this engine.
"""

import numpy as np

from uqres import protocols as pr
from uqres import qkernel as qk


class _Fork(Exception):
    def __init__(self, options):
        self.options = options


class ReplaySource(pr.OutcomeSource):
    """Follows a prescribed outcome prefix, forking when the prefix runs out."""

    def __init__(self, prefix: tuple[int, ...]):
        self.prefix = prefix
        self.pos = 0
        self.probability = 1.0
        self.path: list[tuple[str, int]] = []

    def draw(self, label, probs):
        p = np.asarray(probs, dtype=float)
        if self.pos >= len(self.prefix):
            raise _Fork([k for k in range(len(p)) if p[k] > qk.PRUNE])
        k = self.prefix[self.pos]
        self.pos += 1
        self.probability *= float(p[k])
        self.path.append((label, k))
        return k


def enumerate_runs(protocol_fn):
    """Run ``protocol_fn(source)`` over every outcome path; returns [(prob, result)]."""
    results = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        src = ReplaySource(prefix)
        try:
            res = protocol_fn(src)
        except _Fork as f:
            stack.extend(prefix + (k,) for k in f.options)
            continue
        results.append((src.probability, res))
    return results
