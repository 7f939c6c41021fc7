"""Reference constructions that the tests check the package against.

Explicit factor-permutation matrices stand beside the package's
index-level permute_factors, and the defining operator rebuilt from a
map's action on matrix units stands beside the stored one.  Separable
states come from explicit product ensembles, which also give their level-k
extensions, and the 4x4 family has its exact witness here.  None of these
is needed by the package itself.
"""

from dataclasses import dataclass

import numpy as np

from sepcert.hierarchy import DensityMatrix
from sepcert.posmaps import apply_map
from sepcert.tensorops import FactorError, TensorSpace


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


def _proj(vec):
    return np.outer(vec, vec.conj())


@dataclass
class ProductEnsemble:
    """Explicit separable decomposition: weights with local pure states."""

    weights: list
    a_states: list
    b_states: list

    def __post_init__(self):
        if not (len(self.weights) == len(self.a_states) == len(self.b_states)):
            raise ValueError("ensemble lists must have equal length")
        w = np.asarray(self.weights, dtype=float)
        if (w < 0).any():
            raise ValueError("ensemble weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {w.sum()!r}, not 1")
        self.a_states = [
            np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in self.a_states
        ]
        self.b_states = [
            np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in self.b_states
        ]


def from_ensemble(ensemble):
    da = len(ensemble.a_states[0])
    db = len(ensemble.b_states[0])
    m = np.zeros((da * db, da * db), dtype=complex)
    for w, a, b in zip(ensemble.weights, ensemble.a_states, ensemble.b_states):
        m += w * _proj(np.kron(a, b))
    return DensityMatrix(m, TensorSpace([da, db]))


def separable_extension(ensemble, k):
    """Explicit level-k extension of an ensemble state.

    Ordering [A, B, A^(k-1)]: the original pair first, then the extra
    copies, each carrying the same local pure state as the first factor.
    Returns (matrix, space).
    """
    da = len(ensemble.a_states[0])
    db = len(ensemble.b_states[0])
    dims = [da, db] + [da] * (k - 1)
    n = int(np.prod(dims))
    m = np.zeros((n, n), dtype=complex)
    for w, a, b in zip(ensemble.weights, ensemble.a_states, ensemble.b_states):
        v = np.kron(np.kron(a, b), _power_vec(a, k - 1))
        m += w * _proj(v)
    return m, TensorSpace(dims)


def _power_vec(a, l):
    out = np.ones(1, dtype=complex)
    for _ in range(l):
        out = np.kron(out, a)
    return out


def random_product_ensemble(d_a, d_b, terms, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.random(terms)
    w /= w.sum()
    avs = rng.standard_normal((terms, d_a)) + 1j * rng.standard_normal((terms, d_a))
    bvs = rng.standard_normal((terms, d_b)) + 1j * rng.standard_normal((terms, d_b))
    return ProductEnsemble(list(w), list(avs), list(bvs))


def gisin_family_witness():
    """Exact witness for the 4x4 family: expectation -2(sqrt(2)-1)/(2+alpha)."""

    def k(i, j):
        return np.eye(16, dtype=complex)[4 * i + j]

    w = _proj(k(2, 2) - k(0, 0))
    w += _proj(k(2, 2) - k(1, 1))
    w += _proj(k(3, 3) - k(0, 1))
    w += _proj(k(3, 3) - k(1, 0))
    w += _proj(k(2, 3)) + _proj(k(3, 2))
    w -= _proj(k(2, 2)) + _proj(k(3, 3))
    return w, TensorSpace([4, 4])
