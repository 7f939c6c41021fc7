"""Extension-hierarchy checks against independent oracles.

Level 1 is completely characterized by eigenvalues of the state and of its
partial transpose, which gives an exact external oracle for verdicts and
margins.  Higher levels are pinned through closed-form problem sizes, exact
margins for the maximally mixed state, verdict monotonicity along the
ladder, and direct re-verification of returned extensions.  The package
poses every level on the symmetric subspace of the copies; the same test
on the full copy space (tests/oracles.py) is an independent build whose
verdicts must agree, with equal margins at level 1 where the two spaces
coincide.
"""

import gc
import math
import sys
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import (
    from_ensemble,
    full_extension_checks,
    full_extension_problem,
    full_extension_verdict,
    lift_extension,
    partial_transpose_multi,
    random_product_ensemble,
    swap_operator,
    symmetric_isometry,
    trace_down_coefficients,
)
from sepcert import hierarchy, sdp
from sepcert.hierarchy import (
    ENTANGLED,
    MARGINAL,
    SEPARABLE_CONSISTENT,
    AssemblyError,
    DensityMatrix,
    ExtensionShape,
    ExtensionSpec,
    build_extension_problem,
    check_extension_properties,
    free_direction_count,
    required_resources,
    run_ladder,
    run_test,
    transpose_descriptors,
)
from sepcert.states import (
    choi_family_state,
    max_entangled,
    maximally_mixed,
    random_state,
)
from sepcert.tensorops import (
    TensorSpace,
    hermitian_basis,
    partial_trace,
    partial_transpose,
    symmetric_subspace_dim,
)


def ppt_min_eigenvalue(rho):
    pt = partial_transpose(rho.matrix, rho.space, 0)
    return float(np.linalg.eigvalsh(pt)[0])


# ---------------------------------------------------------------------------
# problem shapes


def test_descriptor_count_is_levels_plus_one():
    for k in range(1, 7):
        assert len(transpose_descriptors(k, True)) == k + 1
        assert len(transpose_descriptors(k, False)) == 1


def test_descriptor_sets_small_levels():
    assert transpose_descriptors(1, True) == [(0, False), (1, False)]
    assert transpose_descriptors(2, True) == [(0, False), (1, False), (0, True)]
    assert transpose_descriptors(3, True) == [
        (0, False),
        (1, False),
        (2, False),
        (0, True),
    ]


def test_problem_sizes_3x3_level2():
    full = full_extension_problem(maximally_mixed(3, 3), 2)
    assert full.m == 324
    assert full.block_sizes == [27, 27, 27]
    res = required_resources(3, 3, ExtensionSpec(k=2))
    assert res["free_directions"] == 243
    assert res["block_sides"] == [18, 27, 18]
    assert res["block_labels"] == ["plain", "ta1", "tb"]


def test_problem_sizes_2x2_level3_reduced():
    res = required_resources(2, 2, ExtensionSpec(k=3))
    assert res["free_directions"] == 48
    assert res["block_sides"] == [8, 12, 12, 8]


def test_size_formulas_match_closed_forms():
    # the package: (dim Sym_k ^2 - d_a^2) d_b^2 over a symmetric-subspace
    # ambient; the full-space oracle: (multichoose(d_a^2, k) - d_a^2) d_b^2
    # over the full copy space
    for d_a in (2, 3, 4):
        for d_b in (2, 3):
            for k in range(1, 6):
                ds = symmetric_subspace_dim(d_a, k)
                assert ds == math.comb(d_a + k - 1, k)
                m_red = free_direction_count(d_a, d_b, k)
                assert m_red == (ds**2 - d_a**2) * d_b**2
                spec = ExtensionSpec(k=k, ppt=True)
                res = required_resources(d_a, d_b, spec)
                assert res["free_directions"] == m_red
                expect_sides = [
                    symmetric_subspace_dim(d_a, l)
                    * symmetric_subspace_dim(d_a, k - l)
                    * d_b
                    for l, _ in transpose_descriptors(k, True)
                ]
                assert res["block_sides"] == expect_sides
    for d_a, d_b, k in ((2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)):
        m_full = full_extension_problem(maximally_mixed(d_a, d_b), k).m
        assert m_full == (math.comb(d_a**2 + k - 1, k) - d_a**2) * d_b**2


def test_resource_estimate_covers_traced_peak():
    # the estimate describes a solve on every free direction of the shape,
    # which a dense state gets; the family state is solved on its torus-
    # invariant directions, a second case under the same bound
    for rho, reduced in ((random_state(3, 3, seed=2), False),
                         (choi_family_state(3.5), True)):
        for k in (2, 3):
            spec = ExtensionSpec(k=k)
            # another shape first, so the traced build starts from nothing cached
            build_extension_problem(maximally_mixed(2, 2), ExtensionSpec(k=1))
            tracemalloc.start()
            try:
                problem, shape = build_extension_problem(rho, spec)
                sdp.feasibility_margin(problem)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (problem.invariant is not None) == reduced
            assert (problem.m < shape.m) == reduced
            assert required_resources(3, 3, spec)["stack_bytes"] >= peak
        if not reduced:
            # at k = 3 even real arithmetic assembles the side-54 blocks of
            # all 819 directions in 5 chunks
            stacks = sdp.schur_stacks(problem.fs.with_margin()[1].real, 54)
            assert problem.m == 819
            assert problem.block_sizes == [30, 54, 54, 30] and len(stacks[2]) == 5


def test_level6_without_ppt_fits_the_budget():
    res = required_resources(3, 3, ExtensionSpec(k=6, ppt=False))
    assert res["block_sides"] == [84]
    assert res["stack_bytes"] < hierarchy.MEMORY_BUDGET_BYTES


def test_level5_with_ppt_fits_the_budget():
    res = required_resources(3, 3, ExtensionSpec(k=5))
    assert res["block_sides"] == [63, 135, 180, 180, 63, 135]
    assert res["stack_bytes"] < hierarchy.MEMORY_BUDGET_BYTES


def test_level1_reduced_matches_plain_ppt_sizes():
    res = required_resources(3, 3, ExtensionSpec(k=1))
    assert res["free_directions"] == 0
    assert res["block_sides"] == [9, 9]
    full = full_extension_problem(maximally_mixed(3, 3), 1)
    assert full.m == 0
    assert full.block_sizes == [9, 9]


def test_directions_are_swap_invariant_and_trace_down_to_zero():
    # exhaustive structural check on the smallest nontrivial instance: each
    # plain-block direction lifted from Sym_2 x B to the full copy space
    rho = random_state(2, 2, seed=5)
    problem, _ = build_extension_problem(rho, ExtensionSpec(k=2))
    space = TensorSpace([2, 2, 2])
    swap = swap_operator(space, 0, 1)
    lift = np.kron(symmetric_isometry(2, 2), np.eye(2))
    side = problem.f0s[0].shape[0]
    assert problem.fs[0].shape[0] == 20
    for j in range(problem.fs[0].shape[0]):
        compressed = problem.fs[0][[j]].toarray().reshape(side, side)
        direction = lift @ compressed @ lift.conj().T
        assert np.abs(direction).max() > 1e-3
        traced = partial_trace(direction, space, {1})
        assert np.abs(traced).max() < 1e-12
        assert np.abs(swap @ direction @ swap - direction).max() < 1e-12


def test_directions_on_3x3_level3_are_swap_invariant_and_trace_down_to_zero():
    # the same exhaustive check on every one of the 819 plain-block
    # directions of 3x3 at level 3, whose null basis has all three kinds of
    # vectors (units differing in two slots, two-term differences, and
    # diagonal echelon vectors)
    rho = random_state(3, 3, seed=2)
    problem, _ = build_extension_problem(rho, ExtensionSpec(k=3))
    space = TensorSpace([3, 3, 3, 3])
    swaps = [swap_operator(space, 0, 1), swap_operator(space, 1, 2)]
    lift = np.kron(symmetric_isometry(3, 3), np.eye(3))
    side = problem.f0s[0].shape[0]
    assert problem.fs[0].shape[0] == 819
    worst = 0.0
    for j in range(problem.fs[0].shape[0]):
        compressed = problem.fs[0][[j]].toarray().reshape(side, side)
        direction = lift @ compressed @ lift.conj().T
        assert np.abs(direction).max() > 1e-3
        worst = max(worst, np.abs(partial_trace(direction, space, {1, 2})).max())
        for swap in swaps:
            worst = max(worst, np.abs(swap @ direction @ swap - direction).max())
    assert worst < 1e-12


@pytest.mark.parametrize(
    "d, k", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (3, 6)]
)
def test_trace_down_coefficients_match_the_embedding_loop(d, k):
    closed = hierarchy._trace_down_coefficients(d, k)
    loop = trace_down_coefficients(d, k)
    assert closed.shape == loop.shape
    assert np.abs(closed - loop).max() <= 1e-14


@pytest.mark.parametrize("d, k", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2), (3, 4)])
def test_null_basis_spans_the_trace_down_null_space(d, k):
    # every A_v traces down to zero on the full copy space, and the A_v are
    # linearly independent over the reals, so their number m / d_b^2 =
    # dsym^2 - d^2 (the trace-down map is onto Herm(A)) is the rank, and
    # they span the whole null space; each stores at most max(4, d + 1)
    # coefficients, of magnitude at most one
    dsym = symmetric_subspace_dim(d, k)
    null = hierarchy._null_basis(d, k)
    assert null.shape[0] == free_direction_count(d, 1, k) == dsym**2 - d**2
    mats = null.toarray().reshape(-1, dsym, dsym)
    assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))
    real = np.concatenate([mats.real, mats.imag], axis=1).reshape(len(mats), -1)
    assert np.linalg.matrix_rank(real) == len(mats)
    assert np.diff(null.indptr).max() <= max(4, d + 1)
    assert np.abs(null.data).max() <= 1.0
    iso = symmetric_isometry(d, k)
    space = TensorSpace([d] * k)
    for a in mats:
        traced = partial_trace(iso @ a @ iso.T, space, set(range(1, k)))
        assert np.abs(traced).max() < 1e-14


def test_sparse_stacks_equal_dense_constructions():
    # direction (v, j) of every block is A_v x e_j, A_v from the null
    # basis carried to the block's copy side, e_j a diagonal unit or an
    # off-diagonal basis pair of B (transposed on tb blocks); built densely
    # here entry for entry through the isometries and partial transposes
    d_a, d_b, k = 2, 2, 3
    rho = random_state(d_a, d_b, seed=9)
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=k))
    assert [d.label for d in shape.descriptors] == ["plain", "ta1", "ta2", "tb"]
    dsym = symmetric_subspace_dim(d_a, k)
    amats = hierarchy._null_basis(d_a, k).toarray().reshape(-1, dsym, dsym)
    units = [np.diag(e).astype(complex) for e in np.eye(d_b)]
    units += hermitian_basis(d_b).elements[d_b:]
    iso_k = symmetric_isometry(d_a, k)
    space = TensorSpace([d_a] * k)
    for desc, fmat in zip(shape.descriptors, problem.fs):
        l = desc.a_transposed
        comp = np.kron(
            symmetric_isometry(d_a, l) if l else np.eye(1),
            symmetric_isometry(d_a, k - l) if k > l else np.eye(1),
        )
        bmats = [e.T if desc.b_transposed else e for e in units]
        dense = np.array(
            [
                np.kron(
                    comp.T
                    @ partial_transpose_multi(iso_k @ a @ iso_k.T, space, set(range(l)))
                    @ comp,
                    e,
                )
                for a in amats
                for e in bmats
            ]
        ).reshape(shape.m, -1)
        stored = fmat.toarray()
        assert fmat.shape == dense.shape
        assert fmat.nnz == np.count_nonzero(dense)
        assert np.array_equal(stored != 0, dense != 0)
        assert np.abs(stored - dense).max() < 1e-15


def test_stored_entries_are_counted_exactly_and_stay_small():
    # the count runs on the patterns before the build; at the parent
    # construction (dense null vectors, Gell-Mann B basis) these two shapes
    # stored 139,120 and 124,098 entries
    for d_a, d_b, k in ((3, 3, 3), (4, 4, 2), (2, 3, 4)):
        spec = ExtensionSpec(k=k)
        shape = ExtensionShape(d_a, d_b, spec)
        counted = required_resources(d_a, d_b, spec)["stored_entries"]
        assert counted == [stack.nnz for stack in shape.stacks]
        if d_a == d_b:
            assert sum(counted) <= 60_000
    # a problem refused on its Schur matrix and images alone is not counted
    res = required_resources(4, 4, ExtensionSpec(k=4))
    assert res["stored_entries"] is None
    assert res["stack_bytes"] > hierarchy.MEMORY_BUDGET_BYTES


def test_adjointness_check_covers_every_block():
    # the build checks dual_pairing against pinned_blocks over all blocks,
    # so a 1e-6 skew of the transposed block ta1 fails it
    class SkewedShape(ExtensionShape):
        def pinned_blocks(self, rho_mat):
            blocks = super().pinned_blocks(rho_mat)
            blocks[1] = blocks[1] * (1 + 1e-6)
            return blocks

    spec = ExtensionSpec(k=2)
    ExtensionShape(2, 2, spec)
    with pytest.raises(AssemblyError, match="adjoint"):
        SkewedShape(2, 2, spec)


def test_trace_down_rank_deficit_is_an_assembly_error(monkeypatch):
    # the trace-down map onto Herm(A) is surjective; a partial trace that
    # drops the off-diagonal part (rows 2 and 3 of the A basis) leaves it
    # rank 2 of 4 for d_a = 2
    exact = hierarchy._trace_down_coefficients

    def diagonal_trace(d, k):
        lmat = exact(d, k)
        lmat[d:] = 0
        return lmat

    monkeypatch.setattr(hierarchy, "_trace_down_coefficients", diagonal_trace)
    with pytest.raises(AssemblyError, match="rank 2, expected 4"):
        ExtensionShape(2, 2, ExtensionSpec(k=2))


def test_fixed_part_traces_down_to_state():
    # the plain F0 block lifted to the full copy space is an extension
    # candidate: it reproduces rho on tracing out the second copy
    rho = random_state(3, 2, seed=8)
    problem, _ = build_extension_problem(rho, ExtensionSpec(k=2))
    fixed, space = lift_extension(problem.f0s[0], 3, 2, 2)
    assert fixed.shape == (18, 18)
    traced = partial_trace(fixed, space, {1})
    assert np.abs(traced - rho.matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# one assembly per problem shape


def test_states_of_one_shape_share_one_assembly():
    rhos = [random_state(2, 3, seed=s) for s in (31, 32)]
    spec = ExtensionSpec(k=2)
    problems = [build_extension_problem(rho, spec)[0] for rho in rhos]
    assert problems[0].fs is problems[1].fs
    assert all(a is b for a, b in zip(problems[0].fs, problems[1].fs))
    assert not np.array_equal(problems[0].f0s[0], problems[1].f0s[0])
    for rho, problem in zip(rhos, problems):
        fresh = ExtensionShape(2, 3, spec)
        assert fresh.stacks is not problem.fs
        for f0, g0 in zip(problem.f0s, fresh.pinned_blocks(rho.matrix)):
            assert np.array_equal(f0, g0)
        for fmat, gmat in zip(problem.fs, fresh.stacks):
            assert fmat.shape == gmat.shape
            assert np.array_equal(fmat.toarray(), gmat.toarray())


def test_building_another_shape_releases_the_previous_one():
    problem = build_extension_problem(random_state(2, 2, seed=4), ExtensionSpec(k=2))[0]
    sdp.feasibility_margin(problem)  # builds the solver layouts too
    refs = [weakref.ref(problem.fs), weakref.ref(problem.fs.with_margin())]
    refs += [weakref.ref(stack) for stack in problem.fs]
    del problem
    build_extension_problem(random_state(2, 2, seed=4), ExtensionSpec(k=3))
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_concurrent_callers_build_one_shape_and_one_set_of_layouts(monkeypatch):
    shapes, relayouts = [], []

    class CountingShape(ExtensionShape):
        def __init__(self, *args):
            shapes.append(args)
            super().__init__(*args)

    def counting_schur_stacks(fmat, n, _orig=sdp.schur_stacks):
        relayouts.append(n)
        return _orig(fmat, n)

    # leave a different shape in the memo, so the threads race to build
    build_extension_problem(maximally_mixed(2, 2), ExtensionSpec(k=1))
    monkeypatch.setattr(hierarchy, "ExtensionShape", CountingShape)
    monkeypatch.setattr(sdp, "schur_stacks", counting_schur_stacks)
    spec = ExtensionSpec(k=2)
    rhos = [random_state(2, 2, seed=40 + i) for i in range(6)]

    def job(rho):
        problem = build_extension_problem(rho, spec)[0]
        return problem, sdp.feasibility_margin(problem).margin_t

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(rhos)) as pool:
            futures = [pool.submit(job, rho) for rho in rhos]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(shapes) == 1
    stacks = results[0][0].fs
    assert all(problem.fs is stacks for problem, _ in results)
    # one Schur layout per side class; a dense state keeps each block whole
    assert sorted(relayouts) == sorted(set(stacks.sides))
    for problem, margin in results:
        assert sdp.feasibility_margin(problem).margin_t == margin


# ---------------------------------------------------------------------------
# level-1 verdicts against the eigenvalue oracle


def test_bell_state_level1():
    rho = max_entangled(2)
    rep = run_test(rho, ExtensionSpec(k=1))
    assert rep.status == ENTANGLED
    # the margin equals -lambda_min of the partial transpose, which is -1/2
    assert abs(rep.margin - 0.5) < 1e-7
    assert rep.witness is not None
    assert rep.certificate_check.passed
    assert rep.witness.value < -1e-6


def test_choi_family_npt_outside_window():
    for alpha in (0.5, 4.5):
        rep = run_test(choi_family_state(alpha), ExtensionSpec(k=1))
        assert rep.status == ENTANGLED


def test_level1_margin_matches_eigenvalue_oracle():
    rho = random_state(2, 3, seed=42)
    rep = run_test(rho, ExtensionSpec(k=1))
    oracle = -min(ppt_min_eigenvalue(rho), np.linalg.eigvalsh(rho.matrix)[0])
    assert abs(rep.margin - oracle) < 1e-7


def test_level1_verdicts_match_exact_ppt_characterization():
    # 2x2 and 2x3 are exactly the dimensions where the partial-transpose
    # eigenvalue sign decides separability, so the verdict has an exact
    # oracle there
    for d_a, d_b in ((2, 2), (2, 3)):
        entangled = separable = skipped = 0
        for i in range(100):
            rank = None if i % 10 < 8 else 2 + (i % 2)
            rho = random_state(d_a, d_b, rank=rank, seed=1000 * d_b + i)
            if i % 10 in (4, 5, 6, 7):
                # pull toward the maximally mixed state so the positive
                # side of the characterization is exercised too
                n = d_a * d_b
                rho = DensityMatrix(
                    0.45 * rho.matrix + 0.55 * np.eye(n) / n, rho.space
                )
            lam = min(ppt_min_eigenvalue(rho), float(np.linalg.eigvalsh(rho.matrix)[0]))
            rep = run_test(rho, ExtensionSpec(k=1))
            if lam < -1e-6:
                assert rep.status == ENTANGLED, (d_a, d_b, i, lam, rep.status)
                entangled += 1
            elif lam > 1e-6:
                assert rep.status == SEPARABLE_CONSISTENT, (d_a, d_b, i, lam, rep.status)
                separable += 1
            else:
                # inside the margin band no verdict is owed
                skipped += 1
        assert entangled >= 10 and separable >= 10
        assert skipped <= 5


def test_level1_margin_invariant_under_local_unitaries():
    rng = np.random.default_rng(77)
    rho = random_state(2, 2, rank=2, seed=3)
    base = run_test(rho, ExtensionSpec(k=1)).margin
    for _ in range(5):
        ua = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        ub = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        u = np.kron(ua, ub)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, rho.space)
        rep = run_test(rotated, ExtensionSpec(k=1))
        assert abs(rep.margin - base) < 1e-7


# ---------------------------------------------------------------------------
# exact margins at higher levels


def test_maximally_mixed_margins_are_exact_rationals():
    # frozen oracles; the level-1 value is -lambda_min = -1/9, and the
    # margin is measured on Sym_k x B, so level 2 gives -1/36 where the
    # full copy space gives -1/27 (next test)
    rho = maximally_mixed(3, 3)
    rep = run_test(rho, ExtensionSpec(k=1))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-1 / 9)) < 1e-8
    rep = run_test(rho, ExtensionSpec(k=2))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-1 / 36)) < 1e-7
    rep = run_test(rho, ExtensionSpec(k=3))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-1 / 90)) < 1e-7


def test_maximally_mixed_unreduced_level2_margin():
    # the full-space oracle measures the margin in the full copy space, so
    # the optimal value differs from the package's while the verdict agrees
    status, margin = full_extension_verdict(maximally_mixed(3, 3), 2)
    assert status == SEPARABLE_CONSISTENT
    assert abs(margin - (-1 / 27)) < 1e-7


def test_isotropic_level1_margin_analytic():
    # p |phi+><phi+| + (1-p) 1/9 has partial-transpose eigenvalue
    # (1 - p(d+1))/d^2, strictly positive below p = 1/4
    p = 0.24
    bell = max_entangled(3)
    m = p * bell.matrix + (1 - p) * np.eye(9) / 9
    rho = DensityMatrix(m, bell.space)
    rep = run_test(rho, ExtensionSpec(k=1))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-(1 - 4 * p) / 9)) < 1e-8
    rep = run_test(
        DensityMatrix(0.3 * bell.matrix + 0.7 * np.eye(9) / 9, bell.space),
        ExtensionSpec(k=1),
    )
    assert rep.status == ENTANGLED


# ---------------------------------------------------------------------------
# corpus: monotonicity and agreement with the full-space oracle


def build_corpus():
    states = []
    for s in range(8):
        states.append(random_state(2, 2, seed=s))
    for s in range(4):
        states.append(random_state(2, 3, seed=100 + s))
    for s in range(3):
        states.append(random_state(2, 2, rank=2, seed=200 + s))
    for dims, seed, terms in (((2, 2), 300, 12), ((2, 3), 301, 16), ((3, 3), 302, 24)):
        ens = random_product_ensemble(*dims, terms=terms, seed=seed)
        rho = from_ensemble(ens)
        n = rho.matrix.shape[0]
        # keep separable entries strictly inside the set so the verdict is
        # not at the mercy of the margin band
        m = 0.9 * rho.matrix + 0.1 * np.eye(n) / n
        states.append(DensityMatrix(m, rho.space))
    bell = max_entangled(2)
    for p in (0.9, 0.2):
        states.append(
            DensityMatrix(p * bell.matrix + (1 - p) * np.eye(4) / 4, bell.space)
        )
    assert len(states) == 20
    return states


CORPUS = build_corpus()


def test_ladder_is_monotone_on_corpus():
    for idx, rho in enumerate(CORPUS):
        lad = run_ladder(rho, k_max=2)
        statuses = [r.status for r in lad.reports]
        # early termination puts any entangled verdict last
        for s in statuses[:-1]:
            assert s != ENTANGLED, (idx, statuses)
        for chk in lad.monotonicity_checks:
            assert chk["passed"], (idx, chk)
        assert lad.final_status == statuses[-1]


def test_entangled_states_stay_entangled_one_level_up():
    for idx, rho in enumerate(CORPUS):
        rep1 = run_test(rho, ExtensionSpec(k=1))
        if rep1.status != ENTANGLED or rep1.margin < 1e-4:
            continue
        rep2 = run_test(rho, ExtensionSpec(k=2))
        assert rep2.status == ENTANGLED, (idx, rep1.margin, rep2.status)


def test_reduced_and_unreduced_verdicts_agree_on_corpus():
    for idx, rho in enumerate(CORPUS):
        a = run_test(rho, ExtensionSpec(k=2))
        status, margin = full_extension_verdict(rho, 2)
        assert a.status == status, (idx, a.status, status, a.margin, margin)


def test_level1_margins_equal_the_full_space_oracle_on_corpus():
    # Sym_1 is A itself, so at level 1 both builds pose the same problem
    for idx, rho in enumerate(CORPUS):
        a = run_test(rho, ExtensionSpec(k=1))
        status, margin = full_extension_verdict(rho, 1)
        assert a.status == status, (idx, a.status, status)
        assert abs(a.margin - margin) < 1e-8, (idx, a.margin, margin)


# ---------------------------------------------------------------------------
# returned extensions


def test_feasible_report_carries_verified_extension():
    ens = random_product_ensemble(2, 2, terms=10, seed=17)
    rho = from_ensemble(ens)
    rho = DensityMatrix(0.85 * rho.matrix + 0.15 * np.eye(4) / 4, rho.space)
    rep = run_test(rho, ExtensionSpec(k=2))
    assert rep.status == SEPARABLE_CONSISTENT
    assert rep.extension_checks["passed"]
    assert rep.extension_checks["trace_down_deviation"] < 1e-7
    assert rep.extension_checks["min_transpose_eigenvalue"] > -1e-7
    # the extension is kept on Sym_2(A) x B, of side 3 * 2
    assert rep.extension.shape == (6, 6)
    assert abs(np.trace(rep.extension).real - 1.0) < 1e-8


def test_check_extension_properties_flags_bad_candidates():
    rho = random_state(2, 2, seed=9)
    rho = DensityMatrix(0.2 * rho.matrix + 0.8 * np.eye(4) / 4, rho.space)
    good = run_test(rho, ExtensionSpec(k=2)).extension
    assert check_extension_properties(good, rho, 2, ppt=True)["passed"]
    # the first two rows are |00> x |0> and |00> x |1>
    bad = good + 0.05 * np.diag([1.0, -1.0, 0, 0, 0, 0])
    chk = check_extension_properties(bad, rho, 2, ppt=True)
    assert not chk["passed"]
    assert abs(chk["trace_down_deviation"] - 0.05) < 1e-12


def _agrees_with_the_full_space_oracle(rho, report):
    """The block-coordinate re-check of a feasible report against the
    full-space oracle on the lifted extension."""
    k, ppt = report.spec.k, report.spec.ppt
    block = check_extension_properties(report.extension, rho, k, ppt)
    assert block == report.extension_checks
    ext, space = lift_extension(report.extension, rho.dim_a, rho.dim_b, k)
    full = full_extension_checks(ext, space, rho, ppt)
    assert block["passed"] == full["passed"]
    assert full["swap_deviation"] < 1e-12
    assert abs(block["trace_down_deviation"] - full["trace_down_deviation"]) <= 1e-12
    # above level 1 the plain block misses the antisymmetric part of the
    # copies, so the full transposes are the blocks padded with zeros
    block_min = block["min_transpose_eigenvalue"]
    if k > 1:
        block_min = min(block_min, 0.0)
    assert abs(block_min - full["min_transpose_eigenvalue"]) <= 1e-12
    # block by block, too: the minimum over the level does not see a block
    # whose spectrum another block repeats
    for l, b in transpose_descriptors(k, ppt):
        image = hierarchy._copy_image(rho.dim_a, k, l)
        got = np.linalg.eigvalsh(
            hierarchy._map_copies(report.extension, image, rho.dim_b, transpose_b=b)
        )
        got = np.sort(np.concatenate([got, np.zeros(space.dim - len(got))]))
        which = set(range(l)) | ({k} if b else set())
        want = np.linalg.eigvalsh(partial_transpose_multi(ext, space, which))
        assert np.abs(got - want).max() <= 1e-12, (l, b)


def test_block_recheck_matches_the_full_space_oracle_on_corpus():
    feasible = 0
    for rho in CORPUS:
        for rep in run_ladder(rho, k_max=2).reports:
            if rep.status == SEPARABLE_CONSISTENT:
                _agrees_with_the_full_space_oracle(rho, rep)
                feasible += 1
    assert feasible >= 8


@pytest.mark.parametrize(
    "d_a, d_b, k", [(2, 4, 1), (2, 4, 2), (2, 4, 3), (2, 4, 4), (3, 3, 2), (3, 3, 3)]
)
def test_block_recheck_matches_the_full_space_oracle(d_a, d_b, k):
    ens = random_product_ensemble(d_a, d_b, terms=2 * d_a * d_b, seed=40 + k)
    rho = from_ensemble(ens)
    n = rho.matrix.shape[0]
    rho = DensityMatrix(0.9 * rho.matrix + 0.1 * np.eye(n) / n, rho.space)
    rep = run_test(rho, ExtensionSpec(k=k))
    assert rep.status == SEPARABLE_CONSISTENT
    _agrees_with_the_full_space_oracle(rho, rep)


@pytest.mark.parametrize("d_a, d_b, k", [(2, 4, 4), (3, 3, 3)])
def test_one_copy_trace_equals_the_partial_trace_of_the_lift(d_a, d_b, k):
    n = symmetric_subspace_dim(d_a, k) * d_b
    rng = np.random.default_rng(k)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = x + x.conj().T
    traced = hierarchy._map_copies(x, hierarchy._trace_one_copy(d_a, k), d_b)
    lifted, space = lift_extension(x, d_a, d_b, k)
    want = partial_trace(lifted, space, {k - 1})
    got, _ = lift_extension(traced, d_a, d_b, k - 1)
    assert np.abs(got - want).max() <= 1e-12


def test_level_beyond_the_dense_isometry_builds_and_rechecks():
    # the full copy space of 2x2 at level 15, of side 2^15 * 2, is never
    # formed; the problem has one block of side 16 * 2
    shape = ExtensionShape(2, 2, ExtensionSpec(k=15, ppt=False))
    assert shape.m == 1008
    assert [d.side for d in shape.descriptors] == [32]
    # level 11 with partial transposes: full side 4096
    rep = run_test(maximally_mixed(2, 2), ExtensionSpec(k=11))
    assert rep.status == SEPARABLE_CONSISTENT
    assert rep.extension_checks["passed"]
    assert rep.extension.shape == (24, 24)


# ---------------------------------------------------------------------------
# degenerate and invalid inputs


def test_singular_state_on_the_boundary_is_marginal():
    # a pure product state is separable but has no strictly positive
    # extension, so the margin optimum is exactly zero
    v = np.zeros(4)
    v[0] = 1.0
    rho = DensityMatrix(np.outer(v, v), TensorSpace([2, 2]))
    rep = run_test(rho, ExtensionSpec(k=1))
    assert rep.status == MARGINAL
    assert abs(rep.margin) < 1e-7


def test_state_validation_rejects_bad_inputs():
    space = TensorSpace([2, 2])
    good = np.eye(4) / 4
    with pytest.raises(ValueError):
        DensityMatrix(good + 1e-6 * np.diag([1, -1, 0, 0]) * 1j, space)
    with pytest.raises(ValueError):
        DensityMatrix(good * 1.5, space)
    bad = np.diag([0.6, 0.5, -0.1, 0.0])
    with pytest.raises(ValueError):
        DensityMatrix(bad, space)
    with pytest.raises(Exception):
        DensityMatrix(np.eye(4) / 4, TensorSpace([2, 2, 2]))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_state_validation_rejects_non_finite_entries(entry):
    m = np.eye(4) / 4
    m[1, 2] = m[2, 1] = entry
    with pytest.raises(ValueError, match="state is not finite"):
        DensityMatrix(m, TensorSpace([2, 2]))


def test_state_validation_clips_rounding_debris_with_warning():
    space = TensorSpace([2, 2])
    m = np.diag([0.4, 0.3, 0.3 + 5e-11, -5e-11])
    with pytest.warns(UserWarning):
        rho = DensityMatrix(m, space)
    vals = np.linalg.eigvalsh(rho.matrix)
    assert vals[0] >= -1e-15
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


def test_state_validation_stays_quiet_on_machine_noise():
    space = TensorSpace([2, 2])
    m = np.diag([0.4, 0.3, 0.3 + 1e-14, -1e-14])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DensityMatrix(m, space)


def test_extension_spec_validation():
    with pytest.raises(ValueError):
        ExtensionSpec(k=0)
    with pytest.raises(ValueError):
        ExtensionSpec(k=1, ppt=False)
    spec = ExtensionSpec(k=2, ppt=False)
    assert transpose_descriptors(spec.k, spec.ppt) == [(0, False)]
    # the symmetric-subspace build is the only one
    with pytest.raises(TypeError):
        ExtensionSpec(k=2, reduced=False)


def test_oversized_problems_are_rejected_with_estimate():
    # 3x3 at level 7 with PPT blocks is over the memory budget
    rho = random_state(3, 3, seed=1)
    with pytest.raises(AssemblyError) as err:
        build_extension_problem(rho, ExtensionSpec(k=7))
    res = err.value.resources
    assert res is not None
    assert res["stack_bytes"] > hierarchy.MEMORY_BUDGET_BYTES
    # Sym_l x Sym_(7-l) x B for l = 0, ..., 4 and, with B, l = 0, 1, 2
    assert res["block_sides"] == [108, 252, 378, 450, 450, 108, 252, 378]


def test_nonppt_mode_runs_and_is_weaker():
    # without transpose blocks the level-2 test cannot see this famously
    # bound-entangled family member
    rep = run_test(choi_family_state(3.5), ExtensionSpec(k=2, ppt=False))
    assert rep.status != ENTANGLED
