"""Tensor-space operations against independent oracles.

The oracles here are deliberately written loop-by-loop (no reshape tricks) so
they share no code path with the implementation.
"""

import math

import numpy as np
import pytest

from oracles import (
    factor_permutation_operator,
    partial_transpose_multi,
    swap_operator,
    symmetric_isometry,
)
from sepcert.tensorops import (
    FactorError,
    TensorSpace,
    check_hermitian,
    hermitian_basis,
    multiset_arrangements,
    multisets,
    partial_trace,
    partial_transpose,
    permute_factors,
    symmetric_subspace_dim,
)


def rand_matrix(dims, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if hermitian:
        m = (m + m.conj().T) / 2
    return m


def pt_oracle(mat, dims, which):
    """Entry-by-entry partial transpose over factor `which`."""
    d = int(np.prod(dims))
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            ri = list(np.unravel_index(r, dims))
            ci = list(np.unravel_index(c, dims))
            ri[which], ci[which] = ci[which], ri[which]
            out[np.ravel_multi_index(ri, dims), np.ravel_multi_index(ci, dims)] = mat[
                r, c
            ]
    return out


def ptrace_oracle(mat, dims, which):
    """Loop-based partial trace over the factor set `which`."""
    keep = [i for i in range(len(dims)) if i not in which]
    kdims = [dims[i] for i in keep] or [1]
    dk = int(np.prod(kdims))
    out = np.zeros((dk, dk), dtype=complex)
    tdims = [dims[i] for i in which]
    for r in range(dk):
        for c in range(dk):
            rk = np.unravel_index(r, kdims) if keep else ()
            ck = np.unravel_index(c, kdims) if keep else ()
            for t in range(int(np.prod(tdims)) if which else 1):
                ti = np.unravel_index(t, tdims) if which else ()
                ri = [0] * len(dims)
                ci = [0] * len(dims)
                for pos, i in enumerate(keep):
                    ri[i] = rk[pos]
                    ci[i] = ck[pos]
                for pos, i in enumerate(sorted(which)):
                    ri[i] = ti[pos]
                    ci[i] = ti[pos]
                out[r, c] += mat[
                    np.ravel_multi_index(ri, dims), np.ravel_multi_index(ci, dims)
                ]
    return out


def test_partial_transpose_matches_oracle():
    for dims in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 2)]:
        sp = TensorSpace(dims)
        m = rand_matrix(dims, seed=7)
        for w in range(len(dims)):
            got = partial_transpose(m, sp, w)
            want = pt_oracle(m, dims, w)
            np.testing.assert_allclose(got, want, atol=1e-14)


def test_partial_transpose_involution_and_preservation():
    sp = TensorSpace([3, 4])
    m = rand_matrix((3, 4), seed=3, hermitian=True)
    for w in (0, 1):
        t = partial_transpose(m, sp, w)
        np.testing.assert_allclose(partial_transpose(t, sp, w), m, atol=1e-14)
        assert abs(np.trace(t) - np.trace(m)) < 1e-13
        assert abs(np.linalg.norm(t) - np.linalg.norm(m)) < 1e-12
        check_hermitian(t)


def test_partial_transpose_bad_factor():
    sp = TensorSpace([2, 2])
    m = rand_matrix((2, 2), seed=0)
    with pytest.raises(FactorError) as err:
        partial_transpose(m, sp, 2)
    assert "2" in str(err.value)
    with pytest.raises(FactorError):
        partial_transpose(np.eye(5), sp, 0)


def test_transposes_on_disjoint_factors_commute():
    dims = (2, 3, 2)
    sp = TensorSpace(dims)
    m = rand_matrix(dims, seed=11)
    a = partial_transpose(partial_transpose(m, sp, 0), sp, 2)
    b = partial_transpose(partial_transpose(m, sp, 2), sp, 0)
    np.testing.assert_allclose(a, b, atol=1e-14)
    np.testing.assert_allclose(partial_transpose_multi(m, sp, {0, 2}), a, atol=1e-14)


def test_partial_trace_matches_oracle():
    for dims in [(2, 3), (2, 2, 3), (3, 2, 2)]:
        sp = TensorSpace(dims)
        m = rand_matrix(dims, seed=5)
        subsets = [{0}, {len(dims) - 1}, set(range(len(dims)))]
        if len(dims) == 3:
            subsets.append({0, 2})
        for which in subsets:
            got = partial_trace(m, sp, which)
            want = ptrace_oracle(m, dims, which)
            np.testing.assert_allclose(got, want, atol=1e-13)


def test_full_partial_trace_is_scalar():
    sp = TensorSpace([2, 2])
    m = rand_matrix((2, 2), seed=1)
    out = partial_trace(m, sp, {0, 1})
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(m)) < 1e-13


def test_partial_trace_commutes_with_disjoint_transpose():
    dims = (2, 3, 2)
    sp = TensorSpace(dims)
    m = rand_matrix(dims, seed=9)
    a = partial_trace(partial_transpose(m, sp, 0), sp, {1})
    b = partial_transpose(partial_trace(m, sp, {1}), TensorSpace([2, 2]), 0)
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_swap_operator_properties():
    sp = TensorSpace([3, 2, 3])
    p = swap_operator(sp, 0, 2)
    np.testing.assert_allclose(p @ p, np.eye(18), atol=1e-14)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
    # action on a product vector
    rng = np.random.default_rng(2)
    x, y, z = rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(3)
    v = np.kron(np.kron(x, y), z)
    np.testing.assert_allclose(p @ v, np.kron(np.kron(z, y), x), atol=1e-13)


def test_swap_operator_rejects_unequal_dims():
    sp = TensorSpace([2, 3])
    with pytest.raises(FactorError) as err:
        swap_operator(sp, 0, 1)
    assert "dim" in str(err.value)


def test_factor_permutation_cycles():
    sp = TensorSpace([2, 2, 2])
    p = factor_permutation_operator(sp, [1, 2, 0])
    rng = np.random.default_rng(4)
    x, y, z = (rng.standard_normal(2) for _ in range(3))
    v = np.kron(np.kron(x, y), z)
    np.testing.assert_allclose(p @ v, np.kron(np.kron(y, z), x), atol=1e-13)
    np.testing.assert_allclose(p @ p @ p, np.eye(8), atol=1e-14)
    # conjugation by the operator agrees with the index-level permutation
    m = rand_matrix((2, 2, 2), seed=6)
    got = p @ m @ p.conj().T
    want, _ = permute_factors(m, sp, [1, 2, 0])
    np.testing.assert_allclose(got, want, atol=1e-13)


def perm_sum_projector(d, k):
    """Oracle: average of all k! permutation operators."""
    from itertools import permutations

    sp = TensorSpace([d] * k)
    acc = np.zeros((d**k, d**k))
    for perm in permutations(range(k)):
        acc += factor_permutation_operator(sp, list(perm)).real
    return acc / math.factorial(k)


def test_symmetric_projector_equals_permutation_average():
    for d, k in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]:
        b = symmetric_isometry(d, k)
        got = b @ b.T
        want = perm_sum_projector(d, k)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_symmetric_projector_rank_formula():
    # closed-form oracle via permutation cycle counting:
    # Tr[projector] = (1/k!) sum_sigma d^(cycles of sigma)
    from itertools import permutations

    def cycle_count(perm):
        seen, cycles = set(), 0
        for start in range(len(perm)):
            if start in seen:
                continue
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
        return cycles

    for d in range(2, 5):
        for k in range(2, 9):
            tr = sum(
                d ** cycle_count(p) for p in permutations(range(k))
            ) / math.factorial(k)
            assert round(tr) == symmetric_subspace_dim(d, k) == math.comb(d + k - 1, k)
    # materialized check at d=3, k=8 (rank 45): the projector trace equals the
    # squared Frobenius norm of the isometry
    b = symmetric_isometry(3, 8)
    assert b.shape == (3**8, 45)
    assert abs(np.linalg.norm(b) ** 2 - 45) < 1e-10
    np.testing.assert_allclose(b.T @ b, np.eye(45), atol=1e-13)
    b = symmetric_isometry(3, 2)
    p = b @ b.T
    assert abs(np.trace(p) - 6) < 1e-12
    np.testing.assert_allclose(p @ p, p, atol=1e-13)


def test_hermitian_basis_gram():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert len(basis.elements) == d * d
        assert abs(np.trace(basis.elements[0]) - 1) < 1e-14
        np.testing.assert_allclose(
            basis.elements[0], np.eye(d) / d, atol=1e-14
        )
        gram = np.array(
            [
                [np.trace(a @ b).real for b in basis.elements]
                for a in basis.elements
            ]
        )
        want = np.eye(d * d)
        want[0, 0] = 1 / d  # identity element has Tr[(1/d)^2] = 1/d
        np.testing.assert_allclose(gram, want, atol=1e-13)
        for s in basis.elements[1:]:
            assert abs(np.trace(s)) < 1e-14
            check_hermitian(s)


def test_multiset_helpers():
    ms = multisets(3, 2)
    assert len(ms) == 6
    assert ms[0] == (0, 0)
    assert multiset_arrangements((0, 0, 1)) == 3
    assert multiset_arrangements((0, 1, 2)) == 6
    assert multiset_arrangements((1, 1)) == 1
    assert sum(multiset_arrangements(m) for m in multisets(3, 4)) == 3**4


def test_check_hermitian_rejects():
    m = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(ValueError):
        check_hermitian(m)
    check_hermitian(np.eye(3))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_check_hermitian_rejects_non_finite_entries(entry):
    m = np.eye(3, dtype=complex)
    m[0, 0] = entry
    with pytest.raises(ValueError, match="operator is not finite"):
        check_hermitian(m, what="operator")
