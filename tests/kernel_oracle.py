"""Test oracle: the wire-local kernel with its index bookkeeping done in numpy.

This is ``qkernel.apply_on_wires`` as it was before its permutations and
sub-dimension moved to plain Python.  Both must return the same bits: the
same ``m @ flat`` on the same array.  The protocol enumeration oracle shares
the package kernel, so only this copy pins the kernel's bits.
"""

import numpy as np


def apply_on_wires(amps: np.ndarray, m: np.ndarray, wires, dims) -> np.ndarray:
    """Apply an operator on a wire subset to raw amplitudes (no copy of m).

    ``amps`` has shape (D,) + batch: axis 0 is the composite index over
    ``dims`` and every trailing batch column is transformed alike.
    """
    dims = tuple(int(d) for d in dims)
    wires = [int(w) for w in wires]
    n = len(dims)
    batch = amps.shape[1:]
    tens = amps.reshape(dims + batch)
    rest = [w for w in range(n) if w not in wires]
    perm = wires + rest + list(range(n, n + len(batch)))
    tens = np.transpose(tens, perm)
    d_sub = int(np.prod([dims[w] for w in wires]))
    flat = tens.reshape(d_sub, -1)
    flat = m @ flat
    out_dims = [dims[w] for w in perm[:n]] + list(batch)
    tens = flat.reshape(out_dims)
    tens = np.transpose(tens, np.argsort(perm))
    return tens.reshape(amps.shape)
