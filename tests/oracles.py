"""Reference constructions that the tests check the package against.

Explicit factor-permutation matrices stand beside the package's
index-level permute_factors, and the defining operator rebuilt from a
map's action on matrix units stands beside the stored one.  Neither is
needed by the package itself.
"""

import numpy as np

from sepcert.posmaps import apply_map
from sepcert.tensorops import FactorError


def factor_permutation_operator(space, perm):
    """Unitary that maps |i_perm[0], i_perm[1], ...> onto |i_0, i_1, ...>.

    perm lists, for each output slot, which input factor lands there.  All
    permuted slots must carry equal dimensions pairwise where they move.
    """
    dims = space.factor_dims
    f = len(dims)
    if sorted(perm) != list(range(f)):
        raise FactorError(f"{perm} is not a permutation of 0..{f - 1}")
    for out_slot, in_factor in enumerate(perm):
        if dims[out_slot] != dims[in_factor]:
            raise FactorError(
                f"cannot move factor {in_factor} (dim {dims[in_factor]}) into "
                f"slot {out_slot} (dim {dims[out_slot]})",
                factor=in_factor,
                size=dims[in_factor],
            )
    d = space.dim
    eye = np.eye(d).reshape(dims + dims)
    # P[(r), (c)] = prod_s delta(r_s, c_perm[s]), so the column axis feeding
    # old factor t must sit at position perm^-1(t)
    inv = [0] * f
    for slot, factor in enumerate(perm):
        inv[factor] = slot
    axes = list(range(f)) + [f + inv[s] for s in range(f)]
    return eye.transpose(axes).reshape(d, d)


def swap_operator(space, i, j):
    """Self-inverse Hermitian unitary exchanging factors i and j."""
    space.check_factor(i)
    space.check_factor(j)
    dims = space.factor_dims
    if dims[i] != dims[j]:
        raise FactorError(
            f"cannot swap factor {i} (dim {dims[i]}) with factor {j} "
            f"(dim {dims[j]}): dimensions differ",
            factor=j,
            size=dims[j],
        )
    perm = list(range(space.nfactors))
    perm[i], perm[j] = perm[j], perm[i]
    return factor_permutation_operator(space, perm)


def operator_from_map(lmap):
    """Rebuild the defining operator from the map's action on matrix units."""
    din, dout = lmap.in_dim, lmap.out_dim
    out = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for j in range(din):
            unit = np.zeros((din, din), dtype=complex)
            unit[i, j] = 1.0
            out[i * dout : (i + 1) * dout, j * dout : (j + 1) * dout] = apply_map(
                lmap, unit
            )
    return out
