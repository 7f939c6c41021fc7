"""Solver checks against constructions with known answers.

Independent oracles used here:
  * diagonal-matrix problems are linear programs, solved with scipy's
    linprog for comparison;
  * feasible instances are built from a known strictly feasible point;
  * infeasible instances are built around a planted certificate (a positive
    definite Z0 orthogonal to every direction with Tr[F0 Z0] < 0);
  * the Schur complement is compared with its dense definition
    M_ij = Re Tr[F_i S^-1 F_j Z];
  * the stacked step-length test is compared with one scipy
    solve_triangular pair and one eigvalsh call per matrix.
"""

import collections
import inspect
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.optimize import linprog

from sepcert import sdp
from sepcert.hierarchy import ExtensionSpec, build_extension_problem
from sepcert.states import choi_family_state, random_state
from sepcert.sdp import (
    FEASIBLE,
    INFEASIBLE,
    MARGINAL,
    SdpProblem,
    SolverTolerances,
    feasibility_margin,
    schur_block,
    schur_stacks,
    schur_workspace,
    solve,
    verify_certificate,
)


def herm(m):
    return (m + m.conj().T) / 2


def rand_herm(n, rng, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return herm(m) * scale


def test_scalar_objective_example():
    # minimize x subject to x - 1 >= 0: optimum exactly 1
    p = SdpProblem(
        f0s=[np.array([[-1.0 + 0j]])],
        fs=[np.array([[[1.0 + 0j]]])],
        c=np.array([1.0]),
    )
    out = solve(p)
    assert out.status == FEASIBLE
    assert abs(out.x[0] - 1.0) < 1e-6
    assert abs(out.gap) < 1e-7


def test_margin_of_identity_block():
    p = SdpProblem(
        f0s=[np.eye(2, dtype=complex)],
        fs=[np.zeros((0, 2, 2), dtype=complex)],
        c=np.zeros(0),
    )
    out = feasibility_margin(p)
    assert out.status == FEASIBLE
    assert abs(out.margin_t - (-1.0)) < 1e-6


def test_margin_of_negated_identity_block():
    p = SdpProblem(
        f0s=[-np.eye(2, dtype=complex)],
        fs=[np.zeros((0, 2, 2), dtype=complex)],
        c=np.zeros(0),
    )
    out = feasibility_margin(p)
    assert out.status == INFEASIBLE
    assert abs(out.margin_t - 1.0) < 1e-6
    # the analytic center of the dual optimal face is identity/2
    np.testing.assert_allclose(out.z_blocks[0], np.eye(2) / 2, atol=1e-6)
    check = verify_certificate(p, out.z_blocks)
    assert check.passed


def test_weakly_infeasible_problem_is_marginal():
    # F(x) = [[x, 1], [1, 0]] can be made PSD only in the limit x -> inf
    f0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    f1 = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
    p = SdpProblem(f0s=[f0], fs=[f1], c=np.zeros(1))
    out = feasibility_margin(p)
    assert out.status == MARGINAL
    assert abs(out.margin_t) < 1e-7


def test_unbounded_margin_stops_on_a_verified_feasible_point():
    # a 3x3 block with four random Hermitian directions and a 1x1 block
    # where every direction is 1: some combination is positive definite
    # on both, so t -> -inf, and the solve used to overflow into a bare
    # ValueError after about 90 iterations
    rng = np.random.default_rng(3)
    f0 = rand_herm(3, rng)
    fs = np.stack([rand_herm(3, rng) for _ in range(4)])
    p = SdpProblem(
        f0s=[f0, np.ones((1, 1), dtype=complex)],
        fs=[fs, np.ones((4, 1, 1), dtype=complex)],
        c=np.zeros(4),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = feasibility_margin(p)
    assert out.status == FEASIBLE and out.diagnostics["unbounded"]
    assert out.iterations < 20 and out.z_blocks is None
    # F(x) > 0 from the data alone, and the margin is what x attains
    lam = min(
        np.linalg.eigvalsh(f0b + np.tensordot(out.x, fsb, axes=1))[0]
        for f0b, fsb in zip(p.f0s, [fs, np.ones((4, 1, 1))])
    )
    assert lam > 0
    assert out.margin_t == pytest.approx(-lam, rel=1e-9)


def diagonal_problem(rng, m=3, rows=8):
    a = rng.standard_normal((rows, m))
    xhat = rng.standard_normal(m)
    slack = rng.uniform(0.5, 1.5, size=rows)
    f0diag = slack - a @ xhat
    # box rows keep the objective bounded
    box_a = np.vstack([np.eye(m), -np.eye(m)])
    box_f0 = np.full(2 * m, 10.0)
    a_all = np.vstack([a, box_a])
    f0_all = np.concatenate([f0diag, box_f0])
    n = len(f0_all)
    f0 = np.diag(f0_all).astype(complex)
    fs = np.zeros((m, n, n), dtype=complex)
    for i in range(m):
        fs[i] = np.diag(a_all[:, i])
    c = rng.standard_normal(m)
    return SdpProblem(f0s=[f0], fs=[fs], c=c), a_all, f0_all, c


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_diagonal_problems_match_linprog(seed):
    rng = np.random.default_rng(seed)
    p, a_all, f0_all, c = diagonal_problem(rng)
    out = solve(p)
    assert out.status == FEASIBLE
    ref = linprog(c, A_ub=-a_all, b_ub=f0_all, bounds=[(None, None)] * len(c))
    assert ref.status == 0
    assert abs(c @ out.x - ref.fun) < 1e-6


def feasible_instance(rng, m=4, sizes=(5, 3)):
    fs = [np.stack([rand_herm(n, rng) for _ in range(m)]) for n in sizes]
    xhat = rng.standard_normal(m)
    f0s = []
    for b, n in enumerate(sizes):
        bulk = rand_herm(n, rng)
        psd = bulk @ bulk.conj().T + 0.3 * np.eye(n)
        f0s.append(psd - np.tensordot(xhat, fs[b], axes=1))
    return SdpProblem(f0s=f0s, fs=fs, c=np.zeros(m))


def infeasible_instance(rng, m=4, sizes=(5, 3)):
    # plant a certificate: Z0 > 0 blockwise, all directions trace-orthogonal
    # to it, and Tr[F0 Z0] < 0; then F(x) >= 0 is impossible for every x
    z0 = []
    for n in sizes:
        g = rand_herm(n, rng)
        z0.append(g @ g.conj().T + 0.2 * np.eye(n))
    fs = []
    raw = [np.stack([rand_herm(n, rng) for _ in range(m)]) for n in sizes]
    # orthogonalize the direction tuple against Z0 in the direct-sum pairing
    ips = np.zeros(m)
    for b in range(len(sizes)):
        ips += np.einsum("ipq,qp->i", raw[b], z0[b]).real
    znorm = sum((z0[b] * z0[b].conj().T.T).sum().real for b in range(len(sizes)))
    for b, n in enumerate(sizes):
        fs.append(raw[b] - np.multiply.outer(ips / znorm, z0[b]))
    f0s = []
    target = -rng.uniform(1.0, 2.0)
    shift = []
    for b, n in enumerate(sizes):
        shift.append(rand_herm(n, rng))
    val = sum(np.einsum("pq,qp->", shift[b], z0[b]).real for b in range(len(sizes)))
    for b, n in enumerate(sizes):
        f0s.append(shift[b] + (target - val) / znorm * z0[b])
    return SdpProblem(f0s=f0s, fs=fs, c=np.zeros(m))


@pytest.mark.parametrize("seed", list(range(10)))
def test_constructed_feasible_instances(seed):
    rng = np.random.default_rng(100 + seed)
    p = feasible_instance(rng)
    out = feasibility_margin(p)
    assert out.status == FEASIBLE
    for b, f0 in enumerate(p.f0s):
        fx = f0 + (p.fs[b].T @ out.x).reshape(f0.shape)
        assert np.linalg.eigvalsh(herm(fx))[0] >= -1e-9


@pytest.mark.parametrize("seed", list(range(10)))
def test_constructed_infeasible_instances(seed):
    rng = np.random.default_rng(200 + seed)
    p = infeasible_instance(rng)
    out = feasibility_margin(p)
    assert out.status == INFEASIBLE
    check = verify_certificate(p, out.z_blocks)
    assert check.passed
    assert check.min_eigenvalue >= -1e-8
    assert check.constraint_violation <= 1e-8
    assert check.objective_value <= -1e-7


def test_weak_duality_on_accepted_iterates():
    # whenever both residuals are at feasibility level, the primal-dual pair
    # must satisfy weak duality up to the gap tolerance
    rng = np.random.default_rng(7)
    problems = [feasible_instance(rng), infeasible_instance(rng)]
    p_obj, _, _, _ = diagonal_problem(rng)
    problems.append(p_obj)
    for p in problems:
        rows = []
        solve(p, trace=rows.append)
        for row in rows:
            if row["pinf"] <= 1e-9 and row["dinf"] <= 1e-9:
                scale = max(1.0, abs(row["pobj"]), abs(row["dobj"]))
                assert row["gap"] >= -1e-8 * scale


def test_deterministic_rerun():
    rng = np.random.default_rng(11)
    p = feasible_instance(rng)
    out1 = feasibility_margin(p)
    out2 = feasibility_margin(p)
    assert out1.x.tobytes() == out2.x.tobytes()
    assert out1.margin_t == out2.margin_t
    assert all(
        (a == b).all() for a, b in zip(out1.z_blocks, out2.z_blocks)
    )


def test_complex_data_handled_natively():
    rng = np.random.default_rng(21)
    p = feasible_instance(rng, m=3, sizes=(4,))
    # make it genuinely complex: conjugate by a random unitary
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rot = lambda m: q @ m @ q.conj().T
    p2 = SdpProblem(
        f0s=[rot(p.f0s[0])],
        fs=[np.stack([rot(f) for f in p.fs[0].toarray().reshape(3, 4, 4)])],
        c=np.zeros(3),
    )
    out = feasibility_margin(p2)
    assert out.status == FEASIBLE
    assert out.diagnostics["real_path"] is False
    # margins agree with the unrotated problem (unitary invariance)
    base = feasibility_margin(p)
    assert abs(out.margin_t - base.margin_t) < 1e-6


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        SdpProblem(f0s=[bad], fs=[np.zeros((0, 2, 2), dtype=complex)], c=np.zeros(0))
    with pytest.raises(ValueError):
        SdpProblem(
            f0s=[np.eye(2, dtype=complex)],
            fs=[bad[None]],
            c=np.zeros(1),
        )


def test_real_fast_path_matches_complex_path():
    rng = np.random.default_rng(31)
    # real problem plus a purely imaginary direction with zero coefficient
    m, n = 3, 5
    fs_real = np.stack([herm(rng.standard_normal((n, n))).astype(complex) for _ in range(m)])
    x = rng.standard_normal(m)
    f0 = (
        herm(rng.standard_normal((n, n))) @ herm(rng.standard_normal((n, n))).T
    )
    f0 = (f0 @ f0.T + 0.2 * np.eye(n)).astype(complex) - np.tensordot(x, fs_real, axes=1)
    imag_dir = np.zeros((n, n), dtype=complex)
    imag_dir[0, 1] = 1j
    imag_dir[1, 0] = -1j
    fs_all = np.concatenate([fs_real, imag_dir[None]], axis=0)
    p = SdpProblem(f0s=[f0], fs=[fs_all], c=np.zeros(4))
    out = feasibility_margin(p)
    assert out.diagnostics["real_path"] is True
    assert out.status == FEASIBLE
    # dropping the imaginary direction must not hurt the certificate pairing
    assert abs(np.einsum("pq,qp->", imag_dir, out.z_blocks[0]).real) < 1e-12


@pytest.mark.parametrize("complex_data", [False, True])
def test_schur_block_matches_dense_definition(complex_data, monkeypatch):
    rng = np.random.default_rng(41 + complex_data)
    m, n = 7, 6

    def rand(shape):
        out = rng.standard_normal(shape)
        if complex_data:
            out = out + 1j * rng.standard_normal(shape)
        return out

    fs = rand((m, n, n))
    fs[rng.random((m, n, n)) < 0.6] = 0
    fs = (fs + fs.conj().transpose(0, 2, 1)) / 2
    g = rand((n, n))
    s = g @ g.conj().T + 0.5 * np.eye(n)
    g = rand((n, n))
    z = g @ g.conj().T + 0.5 * np.eye(n)
    sinv = np.linalg.inv(s)
    dense = np.array(
        [[np.trace(fs[i] @ sinv @ fs[j] @ z).real for j in range(m)] for i in range(m)]
    )
    fmat = SdpProblem(f0s=[s], fs=[fs], c=np.zeros(m)).fs[0]

    def assemble():
        stacks = schur_stacks(fmat, n)
        out = np.zeros((m, m))
        schur_block(stacks, sinv, z, out, schur_workspace([stacks], z.dtype))
        return [fperm.shape[0] // n for fperm in stacks[2]], out

    widths, whole = assemble()
    assert widths == [m]
    assert np.abs(whole - dense).max() <= 1e-12 * np.abs(dense).max()
    # three columns per chunk: m = 7 splits 3 + 3 + 1
    monkeypatch.setattr(
        sdp, "SCHUR_CHUNK_BYTES", 3 * fmat.dtype.itemsize * n * n + 1
    )
    widths, chunked = assemble()
    assert widths == [3, 3, 1]
    assert np.abs(chunked - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs(chunked - whole).max() <= 1e-14 * np.abs(whole).max()


def test_certificate_check_rejects_small_defects():
    # each defect breaks exactly one of the three certificate conditions
    f0s = [-np.eye(2, dtype=complex), -np.eye(1, dtype=complex)]
    fs = [
        np.array([np.diag([1.0, -1.0]), [[0, 1j], [-1j, 0]]], dtype=complex),
        np.zeros((2, 1, 1), dtype=complex),
    ]
    p = SdpProblem(f0s=f0s, fs=fs, c=np.zeros(2))
    z = [np.eye(2) / 3, np.eye(1) / 3]
    assert verify_certificate(p, z).passed
    violated = verify_certificate(p, [np.diag([1 / 3 + 5e-7, 1 / 3 - 5e-7]), z[1]])
    assert not violated.passed
    assert violated.constraint_violation == pytest.approx(1e-6, rel=1e-6)
    assert violated.min_eigenvalue > 0
    negative = verify_certificate(p, [z[0], np.array([[-1e-6]])])
    assert not negative.passed
    assert negative.min_eigenvalue == pytest.approx(-1e-6, rel=1e-9)
    assert negative.constraint_violation == 0


@pytest.mark.parametrize(
    "where, build",
    [
        ("block 1", lambda: SdpProblem(
            f0s=[np.eye(2, dtype=complex), np.diag([1.0, np.nan]).astype(complex)],
            fs=[np.zeros((0, 2, 2)), np.zeros((0, 2, 2))],
            c=np.zeros(0),
        )),
        ("block 0", lambda: SdpProblem(
            f0s=[np.eye(2, dtype=complex)],
            fs=[np.array([[[np.inf, 0.0], [0.0, 1.0]]])],
            c=np.zeros(1),
        )),
        ("coefficient 1", lambda: SdpProblem(
            f0s=[np.eye(2, dtype=complex)],
            fs=[np.array([np.eye(2), np.diag([1.0, -1.0])])],
            c=np.array([0.0, np.nan]),
        )),
    ],
)
def test_non_finite_problem_data_is_rejected(where, build):
    with pytest.raises(ValueError, match=f"{where}.*not finite"):
        build()


def test_transposed_stacks_share_the_stack_arrays():
    p = SdpProblem(
        f0s=[np.eye(2, dtype=complex)],
        fs=[np.array([np.eye(2), np.diag([1.0, -1.0])])],
        c=np.zeros(2),
    )
    (ft,) = p.fs.transposed()
    assert p.fs.transposed()[0] is ft
    assert ft.shape == (4, 2)
    for mine, stack in ((ft.data, p.fs[0].data), (ft.indices, p.fs[0].indices)):
        assert np.shares_memory(mine, stack)
    assert np.array_equal(ft.toarray(), p.fs[0].toarray().T)


def test_stacks_with_unsorted_indices_keep_their_entries():
    # every row's column indices in reverse order, as a sparse product
    # can leave them
    rng = np.random.default_rng(0)
    n = 4
    dense = np.array([rand_herm(n, rng).reshape(-1) for _ in range(3)])
    block = sps.csr_array(
        (dense[:, ::-1].ravel(), np.tile(np.arange(n * n)[::-1], 3),
         np.arange(0, 3 * n * n + 1, n * n)),
        shape=dense.shape,
    )
    assert not block.has_canonical_format
    stacks = sdp.DirectionStacks([block])
    re_max, im_max = stacks.row_maxima()
    assert np.array_equal(stacks[0].toarray(), dense)
    assert np.array_equal(re_max, np.abs(dense.real).max(axis=1))
    assert np.array_equal(im_max, np.abs(dense.imag).max(axis=1))


def test_stacked_step_lengths_equal_the_per_block_ones():
    rng = np.random.default_rng(5)

    def rand(n, dtype):
        out = rng.standard_normal((n, n))
        return out + 1j * rng.standard_normal((n, n)) if dtype is complex else out

    def pair(n, dtype):
        g = rand(n, dtype)
        chol = np.linalg.cholesky(g @ g.conj().T + 0.1 * np.eye(n))
        return chol, herm(rand(n, dtype)) * rng.choice([0.05, 3.0])

    # stacks of shape (2, g, n, n), as the solver passes one side class
    every = []
    for n, dtype, g in [(3, float, 2), (5, complex, 2), (1, float, 3),
                        (4, complex, 1), (1, complex, 2)]:
        pairs = [[pair(n, dtype) for _ in range(g)] for _ in range(2)]
        chols = np.array([[c for c, _ in row] for row in pairs])
        deltas = np.array([[d for _, d in row] for row in pairs])
        steps = sdp._max_step(np.linalg.inv(chols), deltas)
        reference = []
        for row in pairs:
            lams = []
            for chol, delta in row:
                y = sla.solve_triangular(chol, delta, lower=True)
                y = sla.solve_triangular(chol, y.conj().T, lower=True).conj().T
                lams.append(np.linalg.eigvalsh(herm(y))[0])
            lam = min(lams)
            reference.append(1.0 if lam >= -1e-14 else min(1.0, -1.0 / lam))
        assert np.allclose(steps, reference, rtol=1e-12, atol=0)
        every += steps
    # a direction that keeps X positive for every step: alpha = 1
    inverse = np.linalg.inv(pair(3, float)[0])
    assert sdp._max_step(inverse[None, None], np.eye(3)[None, None]) == [1.0]
    assert min(every) < 0.5


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_solver_calls_scipy_linalg_only_for_the_schur_system(monkeypatch):
    problem, _ = build_extension_problem(
        choi_family_state(3.5), ExtensionSpec(k=2, ppt=True)
    )
    calls = collections.Counter()
    for name in dir(sla):
        fn = getattr(sla, name)
        if inspect.isfunction(fn):
            monkeypatch.setattr(sla, name, _counting(calls, name, fn))
    out = feasibility_margin(problem)
    factors = out.iterations - 1  # the last iteration only tests convergence
    # block-level work goes to numpy's batched linear algebra
    assert dict(calls) == {"cho_factor": factors, "cho_solve": 2 * factors}


@pytest.mark.parametrize(
    "rho, real_path, iterations, margin",
    [
        (choi_family_state(3.5), True, 9, 0.0059912060021329785),
        (random_state(2, 3, seed=0), False, 9, 0.03519932626255439),
        (choi_family_state(2.5), True, 8, -1.0938397204139063e-09),
    ],
    ids=["real", "complex", "marginal"],
)
def test_frozen_iteration_counts_and_margins(rho, real_path, iterations, margin):
    problem, _ = build_extension_problem(rho, ExtensionSpec(k=2, ppt=True))
    out = feasibility_margin(problem)
    assert out.diagnostics["real_path"] is real_path
    assert out.iterations == iterations
    assert abs(out.margin_t - margin) <= 1e-12
