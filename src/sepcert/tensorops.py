"""Linear algebra on tensor-product spaces.

Everything in this package works with explicit tensor factorizations: a matrix
never knows its own factor structure, so every operation takes a TensorSpace
describing how the ambient space splits into factors.  Matrices are dense
numpy arrays, complex128 unless stated otherwise.

The symmetric subspace of k copies of C^d, of dimension binom(d+k-1, k),
is indexed by the sorted k-multisets over range(d) (multisets), in
lexicographic order.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement
import math

import numpy as np

from . import tolerances as policy


class FactorError(ValueError):
    """A matrix does not match the tensor space, or a factor index is bad."""

    def __init__(self, message, factor=None, size=None):
        super().__init__(message)
        self.factor = factor
        self.size = size


@dataclass(frozen=True)
class TensorSpace:
    """An ordered tensor factorization; factor 0 is the leftmost factor."""

    factor_dims: tuple

    def __init__(self, factor_dims):
        dims = tuple(int(d) for d in factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise FactorError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self):
        return int(np.prod(self.factor_dims))

    @property
    def nfactors(self):
        return len(self.factor_dims)

    def check_factor(self, which):
        if not 0 <= which < self.nfactors:
            raise FactorError(
                f"factor index {which} out of range for space with "
                f"{self.nfactors} factors",
                factor=which,
            )

    def check_matrix(self, mat):
        d = self.dim
        if mat.shape != (d, d):
            raise FactorError(
                f"matrix of shape {mat.shape} does not act on this space "
                f"(factors {self.factor_dims}, total dimension {d})",
                size=mat.shape,
            )


def check_hermitian(mat, what="matrix"):
    """Reject (never symmetrize) inputs that are not Hermitian, and
    inputs with an infinite or NaN entry.

    The tolerance is relative:
    ||M - M^dag||_F <= policy.HERMITIAN * max(1, ||M||_F).
    """
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} is not finite")
    dev = np.linalg.norm(mat - mat.conj().T)
    scale = max(1.0, np.linalg.norm(mat))
    if dev > policy.HERMITIAN * scale:
        raise ValueError(
            f"{what} is not Hermitian: deviation {dev:.3e} exceeds "
            f"{policy.HERMITIAN:.1e} relative tolerance"
        )


def partial_transpose(mat, space, which):
    """Transpose a single tensor factor of a square matrix.

    The operation is an involution and preserves trace, Hermiticity and
    Frobenius norm.  `which` follows the space's factor ordering (0 is the
    leftmost factor).
    """
    space.check_factor(which)
    space.check_matrix(mat)
    dims = space.factor_dims
    f = len(dims)
    t = np.asarray(mat).reshape(dims + dims)
    perm = list(range(2 * f))
    perm[which], perm[f + which] = perm[f + which], perm[which]
    return t.transpose(perm).reshape(space.dim, space.dim)


def partial_trace(mat, space, which):
    """Trace out a set of factors; returns a matrix on the remaining factors.

    Tracing out every factor is allowed and produces a 1x1 matrix.
    """
    which = {int(w) for w in (which if np.iterable(which) else [which])}
    for w in which:
        space.check_factor(w)
    space.check_matrix(mat)
    dims = space.factor_dims
    f = len(dims)
    t = np.asarray(mat).reshape(dims + dims)
    # trace the highest factor index first so lower axis numbers stay valid
    removed = 0
    for w in sorted(which, reverse=True):
        nleft = f - removed
        t = np.trace(t, axis1=w, axis2=nleft + w)
        removed += 1
    keep = [d for i, d in enumerate(dims) if i not in which]
    dkeep = int(np.prod(keep)) if keep else 1
    return t.reshape(dkeep, dkeep)


def permute_factors(mat, space, perm):
    """Conjugate a matrix by the factor permutation: rows and columns move."""
    space.check_matrix(mat)
    dims = space.factor_dims
    f = len(dims)
    if sorted(perm) != list(range(f)):
        raise FactorError(f"{perm} is not a permutation of 0..{f - 1}")
    t = np.asarray(mat).reshape(dims + dims)
    axes = list(perm) + [f + p for p in perm]
    new_dims = [dims[p] for p in perm]
    d = space.dim
    return t.transpose(axes).reshape(d, d), TensorSpace(new_dims)


def symmetric_subspace_dim(d, k):
    """Dimension of the symmetric subspace of k copies of C^d."""
    return math.comb(d + k - 1, k)


@dataclass
class OperatorBasis:
    """Hermitian operator basis: first element is identity-like with unit
    trace, the rest are traceless and orthonormal (Tr[s_i s_j] = delta_ij
    for i, j >= 1, and Tr[s_1 s_j] = 0 for j >= 1)."""

    dim: int
    elements: list


def hermitian_basis(d):
    """Orthogonal Hermitian basis of d x d matrices.

    Element 0 is identity/d (trace one).  Then the d-1 normalized traceless
    diagonal matrices, then for each pair a < b the symmetric and
    antisymmetric off-diagonal pair.  d^2 elements in total.
    """
    out = [np.eye(d, dtype=complex) / d]
    for l in range(1, d):
        v = np.zeros(d)
        v[:l] = 1.0
        v[l] = -l
        m = np.diag(v) / np.sqrt(l * (l + 1))
        out.append(m.astype(complex))
    for a in range(d):
        for b in range(a + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[a, b] = x[b, a] = 1 / np.sqrt(2)
            out.append(x)
            y = np.zeros((d, d), dtype=complex)
            y[a, b] = -1j / np.sqrt(2)
            y[b, a] = 1j / np.sqrt(2)
            out.append(y)
    return OperatorBasis(dim=d, elements=out)


def multisets(n, k):
    """Sorted k-multisets over range(n), lexicographic."""
    return list(combinations_with_replacement(range(n), k))


def multiset_arrangements(mu):
    """Number of distinct arrangements of the multiset mu."""
    k = len(mu)
    total = math.factorial(k)
    for v in set(mu):
        total //= math.factorial(mu.count(v))
    return total
