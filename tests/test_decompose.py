"""Decomposability classifier tests.

Exact reference values used below:
  - Z = identity on 2x2: every state gives Tr[Z rho] = 1, so epsilon = 1
    and eta = epsilon - Tr[Z]/4 = 0.
  - Z = 1 - |phi+><phi+| on 2x2: states with positive partial transpose
    have overlap at most 1/2 with the maximally entangled state, and the
    bound is attained, so epsilon = 1/2.
  - Z = SWAP on 3x3: SWAP is 3 times the partial transpose of the
    maximally entangled projector, so Tr[SWAP rho] >= 0 on the positive
    partial transpose cone with equality at rho = |01><01|.  epsilon = 0
    exactly: the operator sits on the decomposability boundary and the
    refusal band applies.  Adding t*identity shifts epsilon to t.
  - Z = 1 - 2|01><01|: the minimum over valid states is attained at the
    product state |01>, giving epsilon = -1.
"""

import numpy as np
import pytest

from oracles import swap_operator
from sepcert import sdp
from sepcert import tolerances as policy
from sepcert.decompose import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    MARGINAL,
    decompose,
    extract_edge_state,
)
from sepcert.hierarchy import (
    ENTANGLED,
    DensityMatrix,
    ExtensionSpec,
    SolverFailure,
    run_test,
)
from sepcert.states import choi_family_state, choi_family_witness, max_entangled
from sepcert.tensorops import FactorError, TensorSpace, partial_transpose

SP22 = TensorSpace([2, 2])
SP33 = TensorSpace([3, 3])


@pytest.fixture(scope="module")
def choi_run():
    report = run_test(choi_family_state(3.5), ExtensionSpec(k=2))
    assert report.status == ENTANGLED
    return report


@pytest.fixture(scope="module")
def witness_split(choi_run):
    w = choi_run.witness
    return w, decompose(w.matrix, w.space)


def test_identity_is_decomposable_with_zero_eta():
    report = decompose(np.eye(4), SP22)
    assert report.verdict == DECOMPOSABLE
    assert abs(report.eta) < 1e-8
    assert abs(report.epsilon - 1.0) < 1e-8
    assert report.rho_opt is None
    assert report.diagnostics["canonical_residual"] < 1e-8


def test_projector_complement_reaches_the_overlap_bound():
    z = np.eye(4) - max_entangled(2).matrix
    report = decompose(z, SP22)
    assert report.verdict == DECOMPOSABLE
    assert abs(report.epsilon - 0.5) < 1e-7


def test_swap_sits_on_the_boundary():
    report = decompose(swap_operator(SP33, 0, 1), SP33)
    assert report.verdict == MARGINAL
    assert abs(report.epsilon) < 1e-8
    assert abs(report.eta + 1 / 3) < 1e-8
    # the split itself is still exact at the boundary
    assert report.diagnostics["canonical_residual"] < 1e-7
    assert report.diagnostics["p_min_eigenvalue"] > -1e-7
    assert report.diagnostics["q_min_eigenvalue"] > -1e-7


def test_shifted_swap_moves_off_the_boundary():
    z = swap_operator(SP22, 0, 1) + 0.1 * np.eye(4)
    report = decompose(z, SP22)
    assert report.verdict == DECOMPOSABLE
    assert abs(report.epsilon - 0.1) < 1e-7


def test_positive_definite_operator_is_decomposable():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    z = g @ g.conj().T
    z = z / np.trace(z).real + 0.3 * np.eye(4)
    report = decompose(z, SP22)
    assert report.verdict == DECOMPOSABLE
    lam_min = np.linalg.eigvalsh(z)[0]
    assert report.epsilon >= lam_min - 1e-7
    assert report.diagnostics["p_min_eigenvalue"] > -1e-7
    assert report.diagnostics["q_min_eigenvalue"] > -1e-7


def test_operator_negative_on_a_product_state():
    z = np.eye(4) - 2.0 * np.diag([0.0, 1.0, 0.0, 0.0])
    report = decompose(z, SP22)
    assert report.verdict == INDECOMPOSABLE
    assert abs(report.epsilon + 1.0) < 1e-7
    # the minimizer is the product state |01>
    diag = np.diag(report.rho_opt.matrix).real
    assert np.abs(diag - np.array([0, 1, 0, 0.0])).max() < 1e-6


def test_epsilon_scales_linearly():
    z = np.eye(4) - 2.0 * np.diag([0.0, 1.0, 0.0, 0.0])
    one = decompose(z, SP22)
    two = decompose(2.0 * z, SP22)
    assert abs(two.epsilon - 2.0 * one.epsilon) < 1e-6


def test_analytic_witness_is_indecomposable():
    w, space = choi_family_witness()
    report = decompose(w, space)
    assert report.verdict == INDECOMPOSABLE
    # the witness reaches (3 - 4)/7 on a positive-partial-transpose state,
    # so the minimum is at least that negative
    assert report.epsilon <= -1 / 7 + 1e-6
    d = report.diagnostics
    assert d["rho_opt_min_eigenvalue"] > -1e-9
    assert d["rho_opt_transpose_min_eigenvalue"] > -1e-9
    assert abs(d["rho_opt_value"] - report.epsilon) < 1e-6
    assert d["cross_check_gap"] < 1e-6


def test_canonical_split_reconstructs_the_input():
    w, space = choi_family_witness()
    report = decompose(w, space)
    recon = (
        report.p_opt
        + partial_transpose(report.q_opt, space, 0)
        + report.epsilon * np.eye(space.dim)
    )
    assert np.abs(recon - w).max() < 1e-7 * max(1.0, np.abs(w).max())


def test_extracted_witness_yields_bound_entanglement(witness_split):
    w, report = witness_split
    assert report.verdict == INDECOMPOSABLE
    d = report.diagnostics
    assert d["rho_opt_min_eigenvalue"] > -1e-9
    assert d["rho_opt_transpose_min_eigenvalue"] > -1e-9
    rho = report.rho_opt
    value = np.trace(w.matrix @ rho.matrix).real
    assert value < -1e-9

    state, diag = extract_edge_state(report)
    assert diag["p_range_residual"] <= 1e-6
    assert diag["q_range_residual"] <= 1e-6
    assert diag["rank_rho"] < 9

    # the detected state has a positive partial transpose, so level 1
    # cannot flag it, but the level that produced the witness does
    assert run_test(rho, ExtensionSpec(k=1)).status != ENTANGLED
    redetect = run_test(rho, ExtensionSpec(k=2))
    assert redetect.status == ENTANGLED
    assert redetect.margin > 1e-6


def test_dual_and_primal_runs_agree(witness_split):
    _, report = witness_split
    d = report.diagnostics
    assert d["cross_check_gap"] < 1e-6
    assert d["dual_vs_primal_state_gap"] < 1e-4
    assert d["canonical_residual"] < 1e-7


def test_edge_extraction_requires_a_detecting_state():
    report = decompose(np.eye(4), SP22)
    with pytest.raises(ValueError):
        extract_edge_state(report)


def test_input_validation():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1j
    with pytest.raises(ValueError):
        decompose(bad, SP22)
    with pytest.raises(FactorError):
        decompose(np.eye(9), SP22)
    with pytest.raises(ValueError):
        decompose(np.eye(8), TensorSpace([2, 2, 2]))


def test_tolerances_are_forwarded():
    # a looser gap stops both solves earlier, and the cross-check of the
    # two optima loosens with it
    default = decompose(np.eye(4), SP22)
    loose = sdp.SolverTolerances(gap_tol=1e-3, feas_tol=1e-4)
    report = decompose(np.eye(4), SP22, tolerances=loose)
    assert report.verdict == DECOMPOSABLE
    assert report.diagnostics["cross_check_gap"] > policy.DECOMPOSE_AGREEMENT
    for name in ("split_iterations", "state_iterations"):
        assert report.diagnostics[name] < default.diagnostics[name]


def test_disagreement_message_shows_both_optima_in_full(monkeypatch):
    monkeypatch.setattr(policy, "DECOMPOSE_AGREEMENT", 0.0)
    with pytest.raises(SolverFailure) as err:
        decompose(np.eye(4), SP22)
    eps = err.value.outcome.x[0]
    # epsilon = 1 up to the solver's last digits, which three digits hide
    assert str(float(-eps)) in str(err.value)
    assert "vs 1.0 (difference " in str(err.value)
