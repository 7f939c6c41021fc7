"""Torus-invariant states solved on their invariant directions.

The oracle throughout is the full problem: the same F0 blocks on every
free direction of the shape (shape.stacks), as the package posed it
before the reduction.  Invariance of the reduced directions is checked
on each block against weights worked out here from the block's basis,
and the invariant count against the sector sizes of Sym_k(A) x B and of
A x B.
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
from sepcert.hierarchy import (
    DensityMatrix,
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


def full_problem(problem, shape):
    return sdp.SdpProblem(f0s=problem.f0s, fs=shape.stacks, c=np.zeros(shape.m))


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
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=k))
    assert problem.m < shape.m
    full = full_problem(problem, shape)
    reduced_out = sdp.feasibility_margin(problem)
    full_out = sdp.feasibility_margin(full)
    assert reduced_out.status == full_out.status
    assert reduced_out.iterations == full_out.iterations
    assert abs(reduced_out.margin_t - full_out.margin_t) <= 1e-9
    if reduced_out.status == sdp.INFEASIBLE:
        # the certificate of the reduced problem is one of the full problem
        assert sdp.verify_certificate(full, reduced_out.z_blocks).passed


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
    make, k = CASES[case]
    rho = make()
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=k))
    lift = shape.invariant_directions(torus_grading(rho)).lift
    assert np.abs((lift @ lift.T).toarray() - np.eye(problem.m)).max() < 1e-15
    x = np.random.default_rng(5).standard_normal(problem.m)
    for red, full in zip(problem.fs, shape.stacks):
        np.testing.assert_allclose(red.T @ x, full.T @ (lift.T @ x), rtol=0, atol=1e-14)


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


def test_partial_torus_keeps_single_off_diagonal_units():
    # with phi_0 = phi_1 the A units |...0><...1| are invariant on their
    # own: some kept direction has an off-diagonal A factor and a diagonal
    # B unit, which the choi torus never keeps
    def single_offdiagonal_rows(rho):
        problem, shape = build_extension_problem(rho, ExtensionSpec(k=2))
        lift = shape.invariant_directions(torus_grading(rho)).lift
        wa, wb = shape._weights
        singles = lift.indices[lift.indptr[:-1][np.diff(lift.indptr) == 1]]
        v, j = np.divmod(singles, len(wb))
        return int((wa[v].any(axis=1) & ~wb[j].any(axis=1)).sum())

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
    full_out = sdp.feasibility_margin(full_problem(problem, shape))
    report = run_test(rho, ExtensionSpec(k=2))
    assert full_out.status == sdp.INFEASIBLE
    assert report.status == hierarchy.ENTANGLED
    assert abs(report.margin - full_out.margin_t) <= 1e-9
    assert report.metadata["torus_dimension"] == 1


def test_dense_state_keeps_the_full_problem_bit_for_bit():
    rho = random_state(3, 3, seed=11)
    spec = ExtensionSpec(k=2)
    problem, shape = build_extension_problem(rho, spec)
    assert problem.fs is shape.stacks and problem.invariant is None
    plain = sdp.SdpProblem(
        f0s=shape.pinned_blocks(rho.matrix), fs=shape.stacks, c=np.zeros(shape.m)
    )
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

    def counting_map(*args, _orig=hierarchy._invariant_map):
        builds.append(args)
        return _orig(*args)

    # leave another shape in the memo, so the threads race to build
    build_extension_problem(random_state(2, 2, seed=1), ExtensionSpec(k=1))
    monkeypatch.setattr(hierarchy, "_invariant_map", counting_map)
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
    assert len(builds) == 1
    assert all(p.invariant is problems[0].invariant for p in problems)
    assert all(p.fs is problems[0].invariant.stacks for p in problems)


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
