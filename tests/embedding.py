"""Test oracle: an operator on a wire subset embedded into the full space.

The package never builds these d x d matrices; it applies every operator on
its own wires.  This is the reference those wire-local routes are checked
against.
"""

import numpy as np


def embed_operator(m: np.ndarray, wires, dims) -> np.ndarray:
    """Full-space matrix of ``m`` acting on ``wires`` (in the given order)."""
    dims = tuple(int(d) for d in dims)
    wires = [int(w) for w in wires]
    n = len(dims)
    assert len(set(wires)) == len(wires) and all(0 <= w < n for w in wires)
    d_sub = int(np.prod([dims[w] for w in wires]))
    assert m.shape == (d_sub, d_sub)
    rest = [w for w in range(n) if w not in wires]
    big = np.kron(m, np.eye(int(np.prod([dims[w] for w in rest])) if rest else 1))
    # big acts on subsystem order wires + rest; permute back to natural order.
    order = wires + rest
    perm = np.argsort(order)
    src_dims = [dims[w] for w in order]
    tens = big.reshape(src_dims + src_dims)
    tens = np.transpose(tens, list(perm) + [p + n for p in perm])
    d = int(np.prod(dims))
    return tens.reshape(d, d)
