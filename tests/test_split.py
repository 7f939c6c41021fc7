"""Every LMI block solved as the connected components of its sparsity
pattern, with the components batched by side.

The oracle is the same problem under a random unitary congruence of each
block, F -> U F U^dag (orthogonal for real data, so the arithmetic stays
real).  The interior-point iteration is covariant under it, so the rotated
problem runs the same iterations, while its blocks are dense and so stay
whole.  The components themselves are worked out here from the problem
data with scipy's connected_components.
"""

import collections
import glob
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csgraph

from oracles import from_ensemble, random_product_ensemble
from sepcert import sdp
from sepcert.cli import main
from sepcert.hierarchy import ExtensionSpec, build_extension_problem
from sepcert.matio import save_matrix
from sepcert.states import choi_family_state, gisin_family_state, random_state


def random_unitary(n, rng, real):
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated(problem, seed, real):
    """problem with block b under the congruence by a random unitary U_b."""
    rng = np.random.default_rng(seed)
    f0s, stacks = [], []
    for f0, stack, n in zip(problem.f0s, problem.fs, problem.block_sizes):
        u = random_unitary(n, rng, real)
        dense = stack.toarray().reshape(-1, n, n)
        rot = u @ dense @ u.conj().T
        stacks.append((rot + rot.conj().transpose(0, 2, 1)) / 2)
        g0 = u @ f0 @ u.conj().T
        f0s.append((g0 + g0.conj().T) / 2)
    return sdp.SdpProblem(f0s=f0s, fs=stacks, c=np.zeros(problem.m))


def component_labels(problem):
    """Per block, the component of each index: connected components of the
    pattern of F0, of every direction and of the diagonal."""
    labels = []
    for f0, stack, n in zip(problem.f0s, problem.fs, problem.block_sizes):
        pattern = (f0 != 0) | np.eye(n, dtype=bool)
        pattern.flat[stack.indices] = True
        labels.append(csgraph.connected_components(pattern, directed=False)[1])
    return labels


def assert_same_run(split_out, whole_out):
    assert split_out.status == whole_out.status
    assert split_out.iterations == whole_out.iterations
    assert split_out.diagnostics["real_path"] == whole_out.diagnostics["real_path"]
    assert abs(split_out.margin_t - whole_out.margin_t) <= 1e-12 * max(
        1.0, abs(whole_out.margin_t)
    )


def ensemble_2x4():
    return from_ensemble(random_product_ensemble(2, 4, terms=12, seed=3))


CASES = {
    "choi-2.5-k2": (lambda: choi_family_state(2.5), 2, True),
    "choi-3.5-k2": (lambda: choi_family_state(3.5), 2, True),
    "choi-3.5-k3": (lambda: choi_family_state(3.5), 3, True),
    "gisin-3.0-k2": (lambda: gisin_family_state(3.0), 2, True),
    "ensemble-2x4-k3": (ensemble_2x4, 3, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_split_solve_matches_the_rotated_whole_blocks(case):
    make, k, real = CASES[case]
    problem, _ = build_extension_problem(make(), ExtensionSpec(k=k))
    split_out = sdp.feasibility_margin(problem)
    whole = rotated(problem, seed=k, real=real)
    whole_out = sdp.feasibility_margin(whole)
    assert whole_out.diagnostics["side_classes"] == dict(
        collections.Counter(problem.block_sizes)
    )
    assert_same_run(split_out, whole_out)
    classes = split_out.diagnostics["side_classes"]
    assert sum(s * g for s, g in classes.items()) == sum(problem.block_sizes)
    if case.startswith("ensemble"):
        # a dense state keeps one component per block
        assert classes == dict(collections.Counter(problem.block_sizes))
    else:
        assert sum(classes.values()) > len(problem.block_sizes)
    # the dual comes back in the caller's layout, exactly zero off the
    # components
    for z, lab in zip(split_out.z_blocks, component_labels(problem)):
        assert z.shape == (len(lab), len(lab))
        assert not np.any(z[lab[:, None] != lab[None, :]])
    if split_out.status == sdp.INFEASIBLE:
        assert sdp.verify_certificate(problem, split_out.z_blocks).passed


def test_component_labels_match_scipy():
    rng = np.random.default_rng(4)
    cases = []
    for n in (1, 2, 7, 40, 120):
        for density in (0.0, 0.01, 0.05, 0.3):
            adjacency = rng.random((n, n)) < density
            cases.append(adjacency | adjacency.T | np.eye(n, dtype=bool))
    # a path visiting the vertices in scrambled order
    path = np.eye(60, dtype=bool)
    order = rng.permutation(60)
    path[order[:-1], order[1:]] = path[order[1:], order[:-1]] = True
    cases.append(path)
    # one direction of each edge only: the labels must not depend on it
    upper = np.triu(rng.random((50, 50)) < 0.03)
    cases.append(upper)
    cases.append(upper.T)
    for adjacency in cases:
        expected = csgraph.connected_components(adjacency, directed=False)[1]
        assert np.array_equal(sdp._component_labels(adjacency), expected)


def test_unmirrored_tiny_entries_join_their_components():
    # Hermitian within tolerance, not exactly: block 0's F0 and one of
    # block 1's directions each carry a 1e-14 entry whose mirror is 0
    n, m = 4, 3
    f0a = np.diag([1.0, -0.5, 2.0, 0.3])
    f0a[0, 1] = 1e-14
    f0b = np.diag([0.4, 1.5, -0.2, 0.9])
    dirs = np.zeros((m, n, n))
    for i in range(m):
        dirs[i, i, i], dirs[i, i + 1, i + 1] = 1.0, -1.0
    dirs_b = dirs.copy()
    dirs_b[1, 3, 2] = 1e-14
    problem = sdp.SdpProblem(f0s=[f0a, f0b], fs=[dirs, dirs_b], c=np.zeros(m))
    out = sdp.feasibility_margin(problem)
    # block 0: {0, 1}, {2}, {3}; block 1: {0}, {1}, {2, 3}
    assert out.diagnostics["side_classes"] == {1: 4, 2: 2}
    whole_out = sdp.feasibility_margin(rotated(problem, seed=2, real=True))
    assert whole_out.diagnostics["side_classes"] == {n: 2}
    assert_same_run(out, whole_out)


def test_blocks_of_side_one_are_one_class():
    # a linear program: min t with f0_b + sum_i x_i f_ib + t >= 0, bounded
    # below by directions orthogonal to a positive w
    rng = np.random.default_rng(8)
    nb, m = 7, 3
    f0 = rng.standard_normal(nb)
    w = rng.uniform(0.5, 1.5, nb)
    f = rng.standard_normal((m, nb))
    f -= np.outer(f @ w / (w @ w), w)
    problem = sdp.SdpProblem(
        f0s=[np.array([[v]]) for v in f0],
        fs=[f[:, b].reshape(m, 1, 1) for b in range(nb)],
        c=np.zeros(m),
    )
    out = sdp.feasibility_margin(problem)
    assert out.diagnostics["side_classes"] == {1: nb}
    ref = linprog(
        np.r_[np.zeros(m), 1.0],
        A_ub=-np.c_[f.T, np.ones(nb)],
        b_ub=f0,
        bounds=[(None, None)] * (m + 1),
    )
    assert ref.status == 0
    assert out.status == (sdp.FEASIBLE if ref.fun < 0 else sdp.INFEASIBLE)
    assert abs(out.margin_t - ref.fun) < 1e-7


def test_components_of_distinct_sides_in_one_block():
    # one side-10 block holding components of sides 1, 2, 3 and 4 on
    # interleaved indices, with complex data
    rng = np.random.default_rng(9)
    sides, m = (4, 1, 3, 2), 5
    order = rng.permutation(sum(sides))
    n = len(order)

    def block_diagonal():
        out = np.zeros((n, n), dtype=complex)
        lo = 0
        for s in sides:
            idx = order[lo:lo + s]
            g = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
            out[np.ix_(idx, idx)] = g + g.conj().T
            lo += s
        return out

    problem = sdp.SdpProblem(
        f0s=[block_diagonal()],
        fs=[np.array([block_diagonal() for _ in range(m)])],
        c=np.zeros(m),
    )
    out = sdp.feasibility_margin(problem)
    assert out.diagnostics["side_classes"] == {1: 1, 2: 1, 3: 1, 4: 1}
    assert not out.diagnostics["real_path"]
    whole_out = sdp.feasibility_margin(rotated(problem, seed=1, real=False))
    assert whole_out.diagnostics["side_classes"] == {n: 1}
    assert_same_run(out, whole_out)
    if out.z_blocks is not None:
        (lab,) = component_labels(problem)
        assert not np.any(out.z_blocks[0][lab[:, None] != lab[None, :]])


def test_cholesky_runs_twice_per_side_class_and_iteration(monkeypatch):
    problem, _ = build_extension_problem(choi_family_state(3.5), ExtensionSpec(k=3))
    calls = []

    def counting(a, _orig=np.linalg.cholesky, **kwargs):
        calls.append(a.shape)
        return _orig(a, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    out = sdp.feasibility_margin(problem)
    classes = out.diagnostics["side_classes"]
    # 39 components of side at most 15 in 7 classes
    assert sum(classes.values()) == 39 and len(classes) == 7
    factors = out.iterations - 1  # the last iteration only tests convergence
    assert len(calls) == 2 * len(classes) * factors
    assert {shape[1:] for shape in calls} == {(s, s) for s in classes}


def test_concurrent_sweep_points_share_one_split(monkeypatch):
    builds = []

    class CountingSplit(sdp.BlockSplit):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    # leave another shape in the memo, so the threads race on new stacks
    build_extension_problem(random_state(2, 2, seed=1), ExtensionSpec(k=1))
    monkeypatch.setattr(sdp, "BlockSplit", CountingSplit)
    spec = ExtensionSpec(k=2)
    alphas = [3.2, 3.4, 3.6, 3.8]

    def job(alpha):
        problem = build_extension_problem(choi_family_state(alpha), spec)[0]
        return problem, sdp.feasibility_margin(problem)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(alphas)) as pool:
            futures = [pool.submit(job, alpha) for alpha in alphas]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    classes = results[0][1].diagnostics["side_classes"]
    for problem, out in results:
        assert out.diagnostics["side_classes"] == classes
        again = sdp.feasibility_margin(problem)
        assert (again.iterations, again.margin_t) == (out.iterations, out.margin_t)


def test_split_sweep_report_is_job_count_invariant(tmp_path, capsys):
    argv = ["sweep", "choi", "--from", "2.5", "--to", "3.5", "--step", "0.5",
            "--k", "3"]
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(argv + ["--out", str(out), "--jobs", jobs]) == 0
        (path,) = glob.glob(os.path.join(out, "sweep-*.txt"))
        with open(path) as fh:
            texts.append([ln for ln in fh if not ln.startswith("created: ")])
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_trace_prints_the_side_classes(tmp_path, capsys):
    path = str(tmp_path / "choi.mat")
    rho = choi_family_state(3.5)
    save_matrix(path, rho.matrix, rho.space, "state")
    assert main(["ladder", path, "--kmax", "2", "--trace", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    # level 1 is the plain PPT test on A x B, sides 9 and 9
    assert "trace: k=1 side_classes=1:9,2:3,3:1" in lines
    assert "trace: k=2 side_classes=1:2,3:2,4:2,5:4,6:1,7:3" in lines
