"""Points of one shape solved in lockstep: hierarchy.run_tests batches
consecutive states, and each point's outcome must be the one it gets
alone, bit for bit, whatever the batch holds or however --jobs cuts it."""

import glob
import re
import threading

import numpy as np
import pytest

from sepcert import hierarchy, sdp
from sepcert.cli import main
from sepcert.hierarchy import DensityMatrix, ExtensionSpec, run_test, run_tests
from sepcert.states import choi_family_state, max_entangled
from sepcert.tensorops import TensorSpace
from sepcert.witness import scale_state

SPEC = ExtensionSpec(k=2)
# the two sweeps of the threshold-scan benchmark: the choi window, whose
# marginal points 2.0-3.0 sit among entangled ones, and the filtered family
ALPHAS = [round(1.5 + 0.25 * i, 12) for i in range(13)]
GAMMAS = [round(0.2 + 0.1 * i, 12) for i in range(9)]


def _families():
    base = choi_family_state(3.5)
    return [
        [choi_family_state(a) for a in ALPHAS],
        [scale_state(base, g) for g in GAMMAS],
    ]


def _signature(rep):
    witness = None if rep.witness is None else rep.witness.matrix.tobytes()
    return rep.status, repr(rep.margin), rep.iterations, witness


@pytest.fixture(scope="module")
def alone():
    return [[_signature(run_test(rho, SPEC)) for rho in family] for family in _families()]


def test_a_batch_gives_each_point_its_lone_outcome(alone, monkeypatch):
    sizes = []
    solve = sdp.feasibility_margin

    def spy(problem, **kwargs):
        sizes.append(len(problem) if isinstance(problem, list) else 1)
        return solve(problem, **kwargs)

    monkeypatch.setattr(sdp, "feasibility_margin", spy)
    for family, want in zip(_families(), alone):
        assert [_signature(rep) for rep in run_tests(family, SPEC)] == want
    assert sizes == [len(ALPHAS), len(GAMMAS)]
    assert run_tests([], SPEC) == []
    statuses = [sig[0] for sig in alone[0]]
    assert statuses.count("marginal") == 5 and statuses.count("entangled") == 8
    # the points stop at different iterations, so the batch shrinks
    assert len({sig[2] for sig in alone[0]}) > 1


def test_a_small_memory_budget_cuts_the_batches(alone, monkeypatch):
    family = _families()[0]
    shape = hierarchy.build_extension_problem(family[0], SPEC)[1]
    shared, one = (
        hierarchy.required_resources(3, 3, SPEC, shape.grading, points)["stack_bytes"]
        for points in (0, 1)
    )
    monkeypatch.setattr(hierarchy, "MEMORY_BUDGET_BYTES", shared + 2 * (one - shared) + 1)
    sizes = []
    solve = sdp.feasibility_margin

    def spy(problem, **kwargs):
        sizes.append(len(problem) if isinstance(problem, list) else 1)
        return solve(problem, **kwargs)

    monkeypatch.setattr(sdp, "feasibility_margin", spy)
    assert [_signature(rep) for rep in run_tests(family, SPEC)] == alone[0]
    assert sizes == [2] * 6 + [1]


def test_parallel_parts_share_the_memory_budget(alone, monkeypatch):
    # two parts run at once, so each batch is sized to half the budget:
    # with room for four points, no more than four are in flight together
    family = _families()[0]
    shape = hierarchy.build_extension_problem(family[0], SPEC)[1]
    shared, one = (
        hierarchy.required_resources(3, 3, SPEC, shape.grading, points)["stack_bytes"]
        for points in (0, 1)
    )
    monkeypatch.setattr(hierarchy, "MEMORY_BUDGET_BYTES", shared + 4 * (one - shared) + 1)
    lock, sizes, flight = threading.Lock(), [], [0, 0]
    solve = sdp.feasibility_margin

    def spy(problem, **kwargs):
        size = len(problem) if isinstance(problem, list) else 1
        with lock:
            sizes.append(size)
            flight[0] += size
            flight[1] = max(flight)
        try:
            return solve(problem, **kwargs)
        finally:
            with lock:
                flight[0] -= size

    monkeypatch.setattr(sdp, "feasibility_margin", spy)
    assert [_signature(rep) for rep in run_tests(family, SPEC, jobs=2)] == alone[0]
    assert sorted(sizes) == [1] + [2] * 6
    assert flight[1] <= 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_points_decided_at_zero_leave_the_batch(jobs, monkeypatch):
    # 2x2 isotropic states, separable up to p = 1/3: the separable points
    # here have a positive definite pinned extension and are decided at
    # x = 0, the entangled ones are solved; the two alternate, so that
    # every part holds both
    family = [
        DensityMatrix(p * max_entangled(2).matrix + (1 - p) * np.eye(4) / 4,
                      TensorSpace([2, 2]))
        for p in (0.0, 0.4, 0.1, 0.5, 0.2, 0.6, 0.3, 0.35)
    ]
    want = [_signature(run_test(rho, SPEC)) for rho in family]
    assert [sig[2] == 0 for sig in want] == [True, False] * 4
    solved = []
    run = sdp._run

    def spy(tol, trace, problems, floors=None):
        solved.append(len(problems))
        return run(tol, trace, problems, floors)

    monkeypatch.setattr(sdp, "_run", spy)
    assert [_signature(rep) for rep in run_tests(family, SPEC, jobs=jobs)] == want
    # only the entangled points reach the solver, as one batch per part
    assert solved == [4 // jobs] * jobs


def _rows(out_dir):
    (path,) = glob.glob(str(out_dir / "sweep-*.txt"))
    return re.findall(r"^  (\d\.\d+e\+00)  (\w+)  (\S+)$", open(path).read(), re.M)


def test_a_sub_range_prints_the_rows_of_the_full_sweep(tmp_path, capsys):
    base = ["sweep", "choi", "--step", "0.25", "--k", "2"]
    assert main(base + ["--from", "1.5", "--to", "4.5", "--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--from", "2.0", "--to", "3.0", "--jobs", "2",
                        "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    full, part = _rows(tmp_path / "a"), _rows(tmp_path / "b")
    assert len(full) == 13 and len(part) == 5
    assert part == full[2:7]
    assert all(status == "marginal" for _, status, _ in part)


def test_a_point_that_breaks_down_leaves_the_batch(monkeypatch):
    # point 1's slack loses positive definiteness at the third iteration,
    # before any of its iterates is usable: it ends with its own
    # SdpNumericalError, which feasibility_margin raises, while point 0
    # runs on, alone in the batch, to its lone outcome
    problems = [hierarchy.build_extension_problem(choi_family_state(a), SPEC)[0]
                for a in (1.5, 3.5)]
    alone = sdp.feasibility_margin(problems[0])
    cholesky, traced, failed = np.linalg.cholesky, [], []

    def failing(a, **kwargs):
        if a.ndim == 4 and len(traced) == 4 and not failed:
            failed.append(a)  # the first class of both rows' slacks
            raise np.linalg.LinAlgError("not positive definite")
        if failed and a.ndim == 3 and np.shares_memory(a, failed[0][1]):
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    states = sdp._run(sdp.SolverTolerances(), traced.append, problems)
    assert states[1]["error"].iteration == 3
    assert (states[0]["status"], states[0]["iterations"]) == ("converged", alone.iterations)
    assert np.array_equal(states[0]["x"][:-1], alone.x)
    traced.clear()
    failed.clear()
    with pytest.raises(sdp.SdpNumericalError, match="lost positive definiteness"):
        sdp.feasibility_margin(problems, trace=traced.append)
