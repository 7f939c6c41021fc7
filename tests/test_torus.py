"""Torus-invariant states posed on their invariant directions.

The oracle throughout is the full problem: the same F0 blocks on every
free direction of the level, the stacks of ExtensionShape(d_a, d_b,
spec) with no grading, as the package poses a state without a torus.
Invariance of the posed directions is checked on each block against
weights worked out here from the block's basis, and the invariant count
against the sector sizes of Sym_k(A) x B and of A x B.
"""

import glob
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sepcert import hierarchy, sdp
from sepcert.cli import main
from sepcert.matio import save_matrix
from sepcert import tolerances as policy
from sepcert.hierarchy import (
    DensityMatrix,
    ExtensionShape,
    ExtensionSpec,
    build_extension_problem,
    run_test,
    torus_grading,
)
from sepcert.states import (
    choi_family_state,
    gisin_family_state,
    maximally_mixed,
    random_state,
)
from sepcert.tensorops import multisets
from sepcert.witness import scale_state


def occupations(d, k):
    return np.array([[ms.count(a) for a in range(d)] for ms in multisets(d, k)],
                    dtype=np.int64).reshape(-1, d)


def full_shape(rho, spec):
    return ExtensionShape(rho.dim_a, rho.dim_b, spec)


def full_problem(problem, rho, spec):
    full = full_shape(rho, spec)
    return sdp.SdpProblem(f0s=problem.f0s, fs=full.stacks)


def torus_dimension(rho):
    grading = torus_grading(rho)
    return 0 if grading is None else grading.shape[1] - 2


CASES = {
    "choi-2.5-k2": (lambda: choi_family_state(2.5), 2),
    "choi-3.5-k2": (lambda: choi_family_state(3.5), 2),
    "choi-4.0-k2": (lambda: choi_family_state(4.0), 2),
    "choi-3.5-k3": (lambda: choi_family_state(3.5), 3),
    "gisin-3.0-k2": (lambda: gisin_family_state(3.0), 2),
    "filtered-choi-k2": (lambda: scale_state(choi_family_state(3.5), 0.5), 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reduced_solve_matches_the_full_problem(case):
    make, k = CASES[case]
    rho = make()
    spec = ExtensionSpec(k=k)
    problem, shape = build_extension_problem(rho, spec)
    assert problem.m < shape.m
    full = full_problem(problem, rho, spec)
    assert full.m == shape.m
    reduced_out = sdp.feasibility_margin(problem)
    full_out = sdp.feasibility_margin(full)
    assert reduced_out.status == full_out.status
    assert reduced_out.iterations == full_out.iterations
    assert abs(reduced_out.margin_t - full_out.margin_t) <= 1e-9
    if reduced_out.status == sdp.INFEASIBLE:
        # the certificate of the reduced problem is one of the full problem,
        # and the check without stacks reads the full problem's violation
        z = reduced_out.z_blocks
        check = sdp.verify_certificate(full, z)
        assert check.passed
        violation = shape.pairing_violation(z)
        assert violation <= policy.CERT_TOL
        assert violation == pytest.approx(check.constraint_violation, rel=1e-3, abs=1e-15)


def block_weights(desc, d_a, d_b, k):
    """Torus weight of each basis vector of a block: a transposed copy or
    a transposed B carries the conjugate phase."""
    l = desc.a_transposed
    left, right = occupations(d_a, l), occupations(d_a, k - l)
    b = np.eye(d_b, dtype=np.int64) * (-1 if desc.b_transposed else 1)
    wa = -left[:, None, :] + right[None, :, :]
    wa = np.broadcast_to(wa.reshape(-1, 1, d_a), (len(left) * len(right), d_b, d_a))
    wb = np.broadcast_to(b[None], (len(left) * len(right), d_b, d_b))
    return np.concatenate([wa, wb], axis=2).reshape(-1, d_a + d_b)


def mixed_weight_rows(shape):
    """Rows of the blocks of shape.stacks, summed over the blocks, whose
    entries carry weights other than one w and its negative, w the weight
    of the row's first entry."""
    total = 0
    for desc, stack in zip(shape.descriptors, shape.stacks):
        weights = block_weights(desc, shape.d_a, shape.d_b, shape.k)
        coo = stack.tocoo()
        r, s = np.divmod(coo.col, desc.side)
        diff = weights[r] - weights[s]
        _, start, count = np.unique(coo.row, return_index=True, return_counts=True)
        w = np.repeat(diff[start], count, axis=0)
        off = (diff != w).any(axis=1) & (diff != -w).any(axis=1)
        total += len(np.unique(coo.row[off]))
    return total


@pytest.mark.parametrize(
    "rho, k",
    [(choi_family_state(3.5), 3), (gisin_family_state(3.0), 2),
     (maximally_mixed(2, 4), 3)],
    ids=["3x3-k3", "4x4-k2", "2x4-k3"],
)
def test_every_direction_carries_one_weight_up_to_sign(rho, k):
    # each direction is a weight vector plus its adjoint, so the torus
    # reduction is a row selection; a basis of products of two Hermitian
    # parts mixed w_A + w_B with w_A - w_B in 2016, 2808 and 480 block rows here
    spec = ExtensionSpec(k=k)
    full = full_shape(rho, spec)
    assert mixed_weight_rows(full) == 0
    # the weight the package records for each direction, before any block
    # is built, is the one its entries carry in the plain block, up to sign
    recorded = np.vstack([
        np.hstack([np.repeat(kind.weight_a, kind.width, axis=0),
                   np.tile(kind.weight_b, (kind.vecs.shape[0], 1))])
        for kind in hierarchy._directions(rho.dim_a, rho.dim_b, k)
    ])
    assert len(recorded) == full.m
    desc, stack = full.descriptors[0], full.stacks[0]
    weights = block_weights(desc, rho.dim_a, rho.dim_b, k)
    coo = stack.tocoo()
    r, s = np.divmod(coo.col, desc.side)
    diff = weights[r] - weights[s]
    w = recorded[coo.row]
    assert np.array_equal(np.unique(coo.row), np.arange(full.m))
    assert ((diff == w).all(axis=1) | (diff == -w).all(axis=1)).all()


def sector_square_sum(labels):
    return sum(n * n for n in Counter(map(tuple, labels)).values())


@pytest.mark.parametrize("case", ["choi-3.5-k3", "gisin-3.0-k2"])
def test_invariant_directions_are_invariant_and_counted(case):
    make, k = CASES[case]
    rho = make()
    grading = torus_grading(rho)
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=k))
    d_a, d_b = rho.dim_a, rho.dim_b
    for desc, stack in zip(shape.descriptors, problem.fs):
        labels = block_weights(desc, d_a, d_b, k) @ grading
        coo = stack.tocoo()
        r, s = np.divmod(coo.col, desc.side)
        assert (labels[r] == labels[s]).all(), desc.label
    # invariant Hermitian operators on Sym_k x B, less those on A x B that
    # the trace-down constraint pins
    eye_b = np.eye(d_b, dtype=np.int64)
    sym = np.concatenate(
        [np.repeat(occupations(d_a, k), d_b, axis=0),
         np.tile(eye_b, (len(occupations(d_a, k)), 1))], axis=1)
    ab = np.concatenate(
        [np.repeat(np.eye(d_a, dtype=np.int64), d_b, axis=0),
         np.tile(eye_b, (d_a, 1))], axis=1)
    expected = sector_square_sum(sym @ grading) - sector_square_sum(ab @ grading)
    assert problem.m == expected


@pytest.mark.parametrize("case", ["choi-3.5-k3", "gisin-3.0-k2"])
def test_reduced_image_is_the_full_image_of_the_lift(case):
    # the posed stacks are, bit for bit, the rows of the full stacks whose
    # entries all keep the torus weight, as worked out from the block basis
    make, k = CASES[case]
    rho = make()
    spec = ExtensionSpec(k=k)
    problem, shape = build_extension_problem(rho, spec)
    full = full_shape(rho, spec)
    desc, stack = full.descriptors[0], full.stacks[0]
    labels = block_weights(desc, rho.dim_a, rho.dim_b, k) @ torus_grading(rho)
    coo = stack.tocoo()
    r, s = np.divmod(coo.col, desc.side)
    moved = np.unique(coo.row[(labels[r] != labels[s]).any(axis=1)])
    keep = np.setdiff1d(np.arange(full.m), moved)
    assert problem.fs is shape.stacks and len(keep) == problem.m
    for posed, whole in zip(shape.stacks, full.stacks):
        rows = whole[keep]
        assert posed.shape == rows.shape
        assert np.array_equal(posed.indptr, rows.indptr)
        assert np.array_equal(posed.indices, rows.indices)
        assert np.array_equal(posed.data, rows.data)


def test_pairing_violation_checks_every_free_direction(monkeypatch):
    # a certificate forged off the torus: block-0 entries (0, 1) and (1, 0)
    # pair basis vectors of different weights, so no posed direction sees
    # them, while the full problem's violation and the stackless check do.
    # The identity added keeps the forgery PSD and pairs to zero with every
    # direction, which is traceless
    rho, spec = choi_family_state(3.5), ExtensionSpec(k=2)
    problem, shape = build_extension_problem(rho, spec)
    full = full_problem(problem, rho, spec)
    z = sdp.feasibility_margin(problem).z_blocks
    forged = [np.array(block, dtype=complex) for block in z]
    forged[0][0, 1] += 1e-6
    forged[0][1, 0] += 1e-6
    forged[0] += 1e-6 * np.eye(len(forged[0]))
    posed = sdp.verify_certificate(problem, forged)
    assert posed.passed and posed.constraint_violation < 1e-12
    violation = shape.pairing_violation(forged)
    assert violation > policy.CERT_TOL
    assert violation == pytest.approx(
        sdp.verify_certificate(full, forged).constraint_violation, rel=1e-6
    )
    assert violation == pytest.approx(7.07e-7, rel=1e-3)

    # run_test rejects the forged certificate, and names the violation
    solve = sdp.feasibility_margin

    def forging(*args, **kwargs):
        out = solve(*args, **kwargs)
        out.z_blocks = forged
        return out

    monkeypatch.setattr(sdp, "feasibility_margin", forging)
    with pytest.raises(hierarchy.SolverFailure, match="constraint_violation=7.07"):
        run_test(rho, spec)


def test_gradings_of_the_two_families():
    choi = torus_grading(choi_family_state(3.5))
    gisin = torus_grading(gisin_family_state(3.0))
    assert choi.shape[1] - 2 == 2 and gisin.shape[1] - 2 == 2
    # choi: phases exp(i phi) x exp(-i phi), up to the two global phases
    for gen in choi.T:
        phi, psi = gen[:3], gen[3:]
        assert len(set(phi + psi)) == 1
    # gisin: phi_0 = phi_1 and psi_0 = psi_1 on every generator
    assert (gisin[0] == gisin[1]).all() and (gisin[4] == gisin[5]).all()
    # a state with no exact zeros has only the global phases
    assert torus_grading(random_state(3, 3, seed=3)) is None


def test_gradings_are_shared_by_states_with_one_zero_pattern():
    # the points of the choi family share their zeros, so they share one
    # read-only grading; another pattern gets its own
    first = torus_grading(choi_family_state(3.5))
    assert torus_grading(choi_family_state(2.5)) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 7
    other = torus_grading(maximally_mixed(3, 3))
    assert other is not first and other.shape != first.shape
    assert not other.flags.writeable
    # the same pattern with other values on another state is still shared
    filtered = torus_grading(scale_state(choi_family_state(3.5), 0.5))
    assert filtered is first


def test_partial_torus_keeps_single_off_diagonal_units():
    # with phi_0 = phi_1 the A units |...0><...1| are invariant on their
    # own: some posed direction has an off-diagonal A part and a diagonal
    # B unit, by the weight its entries carry in the plain block, which the
    # choi torus never keeps
    def single_offdiagonal_rows(rho):
        problem, shape = build_extension_problem(rho, ExtensionSpec(k=2))
        desc, stack = shape.descriptors[0], problem.fs[0]
        weights = block_weights(desc, rho.dim_a, rho.dim_b, 2)
        coo = stack.tocoo()
        r, s = np.divmod(coo.col, desc.side)
        diff = weights[r] - weights[s]
        wa, wb = diff[:, :rho.dim_a], diff[:, rho.dim_a:]
        return len(np.unique(coo.row[wa.any(axis=1) & ~wb.any(axis=1)]))

    assert single_offdiagonal_rows(gisin_family_state(3.0)) > 0
    assert single_offdiagonal_rows(choi_family_state(3.5)) == 0


def test_a_tiny_entry_in_place_of_a_zero_shrinks_the_torus():
    # rho[(0,1),(1,2)] = 1e-14 ties phi_0 + psi_1 to phi_1 + psi_2: the
    # torus loses a dimension, and the verdict still equals the full one
    mat = choi_family_state(3.5).matrix.copy()
    mat[1, 5] = mat[5, 1] = 1e-14
    rho = DensityMatrix(mat, choi_family_state(3.5).space)
    assert torus_dimension(rho) == 1
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=2))
    assert 21 < problem.m < shape.m
    full_out = sdp.feasibility_margin(full_problem(problem, rho, ExtensionSpec(k=2)))
    report = run_test(rho, ExtensionSpec(k=2))
    assert full_out.status == sdp.INFEASIBLE
    assert report.status == hierarchy.ENTANGLED
    assert abs(report.margin - full_out.margin_t) <= 1e-9
    assert report.metadata["torus_dimension"] == 1


def test_dense_state_keeps_the_full_problem_bit_for_bit():
    rho = random_state(3, 3, seed=11)
    spec = ExtensionSpec(k=2)
    problem, shape = build_extension_problem(rho, spec)
    assert shape.grading is None
    assert problem.fs is shape.stacks and problem.m == shape.m
    plain = sdp.SdpProblem(f0s=shape.pinned_blocks(rho.matrix), fs=shape.stacks)
    expected = sdp.feasibility_margin(plain)
    report = run_test(rho, spec)
    assert report.margin == expected.margin_t
    assert report.iterations == expected.iterations
    assert report.metadata["torus_dimension"] == 0
    assert report.metadata["invariant_directions"] == shape.m


def test_run_test_evidence_lives_on_the_full_problem(monkeypatch):
    gradings = []

    def counting_grading(rho, _orig=hierarchy.torus_grading):
        gradings.append(rho)
        return _orig(rho)

    monkeypatch.setattr(hierarchy, "torus_grading", counting_grading)
    report = run_test(choi_family_state(3.5), ExtensionSpec(k=2))
    # the lift comes with the problem, not from grading rho again
    assert len(gradings) == 1
    assert report.status == hierarchy.ENTANGLED
    meta = report.metadata
    assert (meta["torus_dimension"], meta["free_directions"],
            meta["invariant_directions"]) == (2, 243, 21)
    assert report.certificate_check.passed
    # the witness is checked against the unreduced state's problem
    assert report.witness.value < 0
    # a feasible verdict carries the extension on the full directions,
    # re-checked; a diagonal state is invariant under every diagonal phase
    report = run_test(maximally_mixed(3, 3), ExtensionSpec(k=2))
    assert report.status == hierarchy.SEPARABLE_CONSISTENT
    assert report.metadata["torus_dimension"] == 4
    assert report.metadata["invariant_directions"] < report.metadata["free_directions"]
    assert report.extension_checks["passed"]
    assert abs(report.margin - (-1 / 36)) < 1e-7


def test_sweep_points_share_one_reduction(monkeypatch):
    builds = []

    def counting_shape(*args, _orig=hierarchy.ExtensionShape):
        builds.append(args)
        return _orig(*args)

    # an empty shape memo, so the threads race to build
    monkeypatch.setattr(hierarchy, "_shape_memo", {})
    monkeypatch.setattr(hierarchy, "ExtensionShape", counting_shape)
    spec = ExtensionSpec(k=2)
    alphas = [3.2, 3.4, 3.6, 3.8]

    def job(alpha):
        return build_extension_problem(choi_family_state(alpha), spec)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(alphas)) as pool:
            problems = list(pool.map(job, alphas))
    finally:
        sys.setswitchinterval(interval)
    # the points share their zeros, so one grading and one posed shape
    assert len(builds) == 1
    assert all(p.fs is problems[0].fs for p in problems)
    assert problems[0].m == 21


def test_choi_sweep_report_is_job_count_invariant(tmp_path, capsys):
    argv = ["sweep", "choi", "--from", "2.5", "--to", "4.0", "--step", "0.5",
            "--k", "2"]
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(argv + ["--out", str(out), "--jobs", jobs]) == 0
        (path,) = glob.glob(os.path.join(out, "sweep-*.txt"))
        with open(path) as fh:
            texts.append([ln for ln in fh if not ln.startswith("created: ")])
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_trace_prints_the_direction_counts(tmp_path, capsys):
    path = str(tmp_path / "choi.mat")
    rho = choi_family_state(3.5)
    save_matrix(path, rho.matrix, rho.space, "state")
    assert main(["test", path, "--k", "2", "--trace", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert ("trace: k=2 torus_dimension=2 free_directions=243 "
            "invariant_directions=21") in err.splitlines()
