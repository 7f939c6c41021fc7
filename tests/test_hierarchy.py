"""Extension-hierarchy checks against independent oracles.

Level 1 is completely characterized by eigenvalues of the state and of its
partial transpose, which gives an exact external oracle for verdicts and
margins.  Higher levels are pinned through closed-form problem sizes, exact
margins for the maximally mixed state (cross-checked between the reduced
and unreduced assemblies), verdict monotonicity along the ladder, and
direct re-verification of returned extensions.
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

from oracles import from_ensemble, random_product_ensemble, swap_operator
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
    partial_transpose_multi,
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
    res = required_resources(3, 3, ExtensionSpec(k=2, reduced=False))
    assert res["free_directions"] == 324
    assert res["block_sides"] == [27, 27, 27]
    res = required_resources(3, 3, ExtensionSpec(k=2, reduced=True))
    assert res["free_directions"] == 243
    assert res["block_sides"] == [18, 27, 18]
    assert res["block_labels"] == ["plain", "ta1", "tb"]


def test_problem_sizes_2x2_level3_reduced():
    res = required_resources(2, 2, ExtensionSpec(k=3, reduced=True))
    assert res["free_directions"] == 48
    assert res["block_sides"] == [8, 12, 12, 8]


def test_size_formulas_match_closed_forms():
    # reduced: (dim Sym_k ^2 - d_a^2) d_b^2 over a symmetric-subspace
    # ambient; unreduced: (multichoose(d_a^2, k) - d_a^2) d_b^2 over the
    # full copy space
    for d_a in (2, 3, 4):
        for d_b in (2, 3):
            for k in range(1, 6):
                ds = symmetric_subspace_dim(d_a, k)
                assert ds == math.comb(d_a + k - 1, k)
                m_red = free_direction_count(d_a, d_b, k, True)
                assert m_red == (ds**2 - d_a**2) * d_b**2
                m_full = free_direction_count(d_a, d_b, k, False)
                assert m_full == (math.comb(d_a**2 + k - 1, k) - d_a**2) * d_b**2
                spec = ExtensionSpec(k=k, ppt=True, reduced=True)
                res = required_resources(d_a, d_b, spec)
                assert res["free_directions"] == m_red
                expect_sides = [
                    symmetric_subspace_dim(d_a, l)
                    * symmetric_subspace_dim(d_a, k - l)
                    * d_b
                    for l, _ in transpose_descriptors(k, True)
                ]
                assert res["block_sides"] == expect_sides


def test_resource_estimate_covers_traced_peak():
    spec = ExtensionSpec(k=2)
    rho = choi_family_state(3.5)
    # another shape first, so the traced build starts from nothing cached
    build_extension_problem(maximally_mixed(2, 2), ExtensionSpec(k=1))
    tracemalloc.start()
    try:
        problem, _ = build_extension_problem(rho, spec)
        sdp.feasibility_margin(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert required_resources(3, 3, spec)["stack_bytes"] >= peak


def test_level1_reduced_matches_plain_ppt_sizes():
    for reduced in (True, False):
        res = required_resources(3, 3, ExtensionSpec(k=1, reduced=reduced))
        assert res["free_directions"] == 0
        assert res["block_sides"] == [9, 9]


def test_directions_are_swap_invariant_and_trace_down_to_zero():
    # exhaustive structural check on the smallest nontrivial instance
    rho = random_state(2, 2, seed=5)
    problem, _ = build_extension_problem(rho, ExtensionSpec(k=2, reduced=False))
    space = TensorSpace([2, 2, 2])
    swap = swap_operator(space, 0, 1)
    assert problem.fs[0].shape[0] == 24
    for j in range(problem.fs[0].shape[0]):
        direction = problem.fs[0][[j]].toarray().reshape(8, 8)
        traced = partial_trace(direction, space, {1})
        assert np.abs(traced).max() < 1e-12
        assert np.abs(swap @ direction @ swap - direction).max() < 1e-12


def test_sparse_stacks_equal_dense_constructions():
    # reduced mode: direction (v, j) of every block is A_v x sigma_j
    # (sigma_j^T on tb blocks), built densely here entry for entry
    rho = random_state(2, 2, seed=9)
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=3))
    assert [d.label for d in shape.descriptors] == ["plain", "ta1", "ta2", "tb"]
    basis_b = hermitian_basis(2).elements
    for desc, fmat in zip(shape.descriptors, problem.fs):
        astack = shape._acomp[desc.a_transposed]
        bmats = [sj.T if desc.b_transposed else sj for sj in basis_b]
        dense = np.array(
            [
                np.kron(np.tensordot(v, astack, axes=1), sj)
                for v in shape._nullmat
                for sj in bmats
            ]
        ).reshape(shape.m, -1)
        assert fmat.shape == dense.shape
        assert fmat.nnz == np.count_nonzero(dense)
        assert np.array_equal(fmat.toarray(), dense)
    # unreduced mode: each transposed block is the plain stack with every
    # direction partially transposed
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=3, reduced=False))
    space = shape.extension_space()
    side = space.dim
    plain = problem.fs[0].toarray().reshape(shape.m, side, side)
    for desc, fmat in zip(shape.descriptors[1:], problem.fs[1:]):
        which = set(range(desc.a_transposed)) | ({3} if desc.b_transposed else set())
        dense = np.array([partial_transpose_multi(f, space, which) for f in plain])
        assert np.array_equal(fmat.toarray(), dense.reshape(shape.m, -1))


def test_adjointness_check_covers_every_block():
    # the build checks dual_pairing against pinned_blocks over all blocks,
    # so a 1e-6 skew of the transposed block ta1 fails it in both modes
    class SkewedShape(ExtensionShape):
        def pinned_blocks(self, rho_mat):
            blocks = super().pinned_blocks(rho_mat)
            blocks[1] = blocks[1] * (1 + 1e-6)
            return blocks

    for reduced in (True, False):
        spec = ExtensionSpec(k=2, reduced=reduced)
        ExtensionShape(2, 2, spec)
        with pytest.raises(AssemblyError, match="adjoint"):
            SkewedShape(2, 2, spec)


def test_fixed_part_traces_down_to_state():
    rho = random_state(3, 2, seed=8)
    problem, _ = build_extension_problem(rho, ExtensionSpec(k=2, reduced=False))
    space = TensorSpace([3, 3, 2])
    traced = partial_trace(problem.f0s[0], space, {1})
    assert np.abs(traced - rho.matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# one assembly per problem shape


def test_states_of_one_shape_share_one_assembly():
    rhos = [random_state(2, 3, seed=s) for s in (31, 32)]
    for reduced in (True, False):
        spec = ExtensionSpec(k=2, reduced=reduced)
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
    assert len(relayouts) == len(stacks)
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
            rep = run_test(rho, ExtensionSpec(k=1), keep_extension=False)
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
    base = run_test(rho, ExtensionSpec(k=1), keep_extension=False).margin
    for _ in range(5):
        ua = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        ub = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        u = np.kron(ua, ub)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, rho.space)
        rep = run_test(rotated, ExtensionSpec(k=1), keep_extension=False)
        assert abs(rep.margin - base) < 1e-7


# ---------------------------------------------------------------------------
# exact margins at higher levels


def test_maximally_mixed_margins_are_exact_rationals():
    # frozen oracles; the level-2 value is cross-checked between the two
    # assembly modes below, and the level-1 value is -lambda_min = -1/9
    rho = maximally_mixed(3, 3)
    rep = run_test(rho, ExtensionSpec(k=1))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-1 / 9)) < 1e-8
    rep = run_test(rho, ExtensionSpec(k=2, reduced=True))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-1 / 36)) < 1e-7
    rep = run_test(rho, ExtensionSpec(k=3, reduced=True))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-1 / 90)) < 1e-7


def test_maximally_mixed_unreduced_level2_margin():
    # the unreduced body measures the margin in the full copy space, so the
    # optimal value differs from the reduced one while the verdict agrees
    rep = run_test(maximally_mixed(3, 3), ExtensionSpec(k=2, reduced=False))
    assert rep.status == SEPARABLE_CONSISTENT
    assert abs(rep.margin - (-1 / 27)) < 1e-7


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
# corpus: monotonicity and mode agreement


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
        rep1 = run_test(rho, ExtensionSpec(k=1), keep_extension=False)
        if rep1.status != ENTANGLED or rep1.margin < 1e-4:
            continue
        rep2 = run_test(rho, ExtensionSpec(k=2), keep_extension=False)
        assert rep2.status == ENTANGLED, (idx, rep1.margin, rep2.status)


def test_reduced_and_unreduced_verdicts_agree_on_corpus():
    for idx, rho in enumerate(CORPUS):
        a = run_test(rho, ExtensionSpec(k=2, reduced=True), keep_extension=False)
        b = run_test(rho, ExtensionSpec(k=2, reduced=False), keep_extension=False)
        assert a.status == b.status, (idx, a.status, b.status, a.margin, b.margin)


# ---------------------------------------------------------------------------
# returned extensions


def test_feasible_report_carries_verified_extension():
    ens = random_product_ensemble(2, 2, terms=10, seed=17)
    rho = from_ensemble(ens)
    rho = DensityMatrix(0.85 * rho.matrix + 0.15 * np.eye(4) / 4, rho.space)
    rep = run_test(rho, ExtensionSpec(k=2, reduced=True))
    assert rep.status == SEPARABLE_CONSISTENT
    assert rep.extension is not None
    assert rep.extension_checks["passed"]
    assert rep.extension_checks["trace_down_deviation"] < 1e-7
    assert rep.extension_checks["swap_deviation"] < 1e-7
    assert rep.extension_checks["min_transpose_eigenvalue"] > -1e-7
    # the reconstruction really lives in the full copy space
    assert rep.extension.shape == (8, 8)
    assert abs(np.trace(rep.extension).real - 1.0) < 1e-8


def test_extension_recheck_skip_is_recorded():
    rho = maximally_mixed(2, 2)
    rep = run_test(rho, ExtensionSpec(k=2), keep_extension=False)
    assert rep.extension is None
    assert "skipped" in rep.metadata["extension_recheck"]


def test_check_extension_properties_flags_bad_candidates():
    rho = random_state(2, 2, seed=9)
    problem, _ = build_extension_problem(rho, ExtensionSpec(k=2, reduced=False))
    space = TensorSpace([2, 2, 2])
    good = problem.f0s[0]
    bad = good + 0.05 * np.diag([1.0, -1.0, 0, 0, 0, 0, 0, 0])
    chk = check_extension_properties(bad, space, rho, ppt=True)
    assert not chk["passed"]


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


def test_oversized_problems_are_rejected_with_estimate():
    rho = random_state(3, 3, seed=1)
    with pytest.raises(AssemblyError) as err:
        build_extension_problem(rho, ExtensionSpec(k=8, reduced=False))
    assert err.value.resources is not None
    assert err.value.resources["block_sides"][0] == 3**8 * 3


def test_nonppt_mode_runs_and_is_weaker():
    # without transpose blocks the level-2 test cannot see this famously
    # bound-entangled family member
    rep = run_test(choi_family_state(3.5), ExtensionSpec(k=2, ppt=False))
    assert rep.status != ENTANGLED
