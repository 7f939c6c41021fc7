"""Decomposability analysis of witness candidates.

A Hermitian operator Z is decomposable when it splits as P + Q^{T_A} with
both parts positive semidefinite; such operators cannot detect any state
whose partial transpose is positive.  Writing P + Q^{T_A} = Z + c*identity
and pushing c as low as the two positivity constraints allow turns the
question into a small semidefinite program whose optimal value -c equals

    epsilon = min { Tr[Z rho] : rho >= 0, rho^{T_A} >= 0, Tr rho = 1 },

the worst value Z takes on any state that survives the partial-transpose
test.  epsilon > 0 certifies decomposability (shift P by epsilon), while
epsilon < 0 exhibits a concrete positive-partial-transpose state that Z
detects, so Z is indecomposable and that state is bound entangled.  Both
sides of this equality are solved and cross-checked; the detecting state
is read off the dual multipliers of the decomposition-side run.

Tolerances assume Z is normalized to about unit spectral radius, which is
how extracted witnesses arrive here.
"""

from dataclasses import dataclass, field

import numpy as np

from . import sdp
from . import tolerances as policy
from .hierarchy import DensityMatrix, SolverFailure
from .tensorops import (
    TensorSpace,
    check_hermitian,
    hermitian_basis,
    partial_transpose,
)

DECOMPOSABLE = "decomposable"
INDECOMPOSABLE = "indecomposable"
MARGINAL = "marginal"


@dataclass
class DecompositionReport:
    eta: float
    epsilon: float
    verdict: str
    p_opt: np.ndarray
    q_opt: np.ndarray
    space: TensorSpace
    rho_opt: DensityMatrix = None
    diagnostics: dict = field(default_factory=dict)


def _check_input(z, space):
    z = np.asarray(z, dtype=complex)
    if space.nfactors != 2:
        raise ValueError(
            f"decomposability is a bipartite question, got factors "
            f"{space.factor_dims}"
        )
    space.check_matrix(z)
    check_hermitian(z, what="decomposability input")
    return (z + z.conj().T) / 2


def _split_form(z, space, tol):
    """min c over P = Z + c 1 - Y >= 0, Q = Y^{T_A} >= 0; returns the run."""
    d = space.dim
    basis = hermitian_basis(d)
    nb = len(basis.elements)
    f0s = [z.copy(), np.zeros((d, d), dtype=complex)]
    fs0 = np.zeros((nb + 1, d, d), dtype=complex)
    fs1 = np.zeros((nb + 1, d, d), dtype=complex)
    fs0[0] = np.eye(d)
    for a, el in enumerate(basis.elements):
        fs0[a + 1] = -el
        fs1[a + 1] = partial_transpose(el, space, 0)
    c = np.zeros(nb + 1)
    c[0] = 1.0
    problem = sdp.SdpProblem(f0s=f0s, fs=[fs0, fs1], c=c)
    out = sdp.solve(problem, tolerances=tol)
    if out.status != sdp.FEASIBLE:
        raise SolverFailure(
            f"decomposition-side solve ended with status {out.status}",
            outcome=out,
        )
    cval = out.x[0]
    y = np.tensordot(out.x[1:], np.stack(basis.elements), axes=1)
    p = z + cval * np.eye(d) - y
    q = partial_transpose(y, space, 0)
    return cval, p, q, out


def _state_form(z, space, tol):
    """min Tr[Z rho] over rho >= 0, rho^{T_A} >= 0, Tr rho = 1."""
    d = space.dim
    basis = hermitian_basis(d)
    traceless = basis.elements[1:]
    nb = len(traceless)
    f0s = [np.eye(d, dtype=complex) / d, np.eye(d, dtype=complex) / d]
    fs0 = np.stack(traceless).astype(complex)
    fs1 = np.stack(
        [partial_transpose(el, space, 0) for el in traceless]
    ).astype(complex)
    c = np.array([np.trace(z @ el).real for el in traceless])
    problem = sdp.SdpProblem(f0s=f0s, fs=[fs0, fs1], c=c)
    out = sdp.solve(problem, tolerances=tol)
    if out.status != sdp.FEASIBLE:
        raise SolverFailure(
            f"state-side solve ended with status {out.status}", outcome=out
        )
    rho = f0s[0] + np.tensordot(out.x, fs0, axes=1)
    value = np.trace(z).real / d + float(c @ out.x)
    return value, rho, out


def decompose(z, space, tolerances=None):
    """Classify Z and return the canonical split plus the detecting state.

    The verdict follows the sign of epsilon with a refusal band around
    zero.  For indecomposable Z the report carries rho_opt, the positive
    partial-transpose state achieving Tr[Z rho_opt] = epsilon < 0.
    """
    z = _check_input(z, space)
    d = space.dim
    cval, p, q, split_out = _split_form(z, space, tolerances)
    epsilon = -cval
    eta = epsilon - np.trace(z).real / d
    state_val, rho_primal, state_out = _state_form(z, space, tolerances)
    agreement = abs(epsilon - state_val)
    # each solve stops within its gap tolerance of the optimum, so the
    # cross-check loosens with a gap looser than the default
    gap_tol = (tolerances or sdp.SolverTolerances()).gap_tol
    bound = policy.DECOMPOSE_AGREEMENT * max(1.0, gap_tol / policy.GAP_TOL)
    if agreement > bound * max(1.0, float(np.abs(z).max())):
        raise SolverFailure(
            f"the two decomposability programs disagree: {float(epsilon)} vs "
            f"{float(state_val)} (difference {float(agreement)})",
            outcome=split_out,
        )

    # P + Q^{T_A} equals Z + c 1 by construction, so with epsilon = -c the
    # residual of Z - (P + epsilon 1) - Q^{T_A} only measures rounding
    canon = z - (p + epsilon * np.eye(d)) - partial_transpose(q, space, 0)
    canonical_residual = float(np.abs(canon).max())

    if abs(epsilon) < policy.REFUSAL_BAND:
        verdict = MARGINAL
    elif epsilon > 0:
        verdict = DECOMPOSABLE
    else:
        verdict = INDECOMPOSABLE

    diagnostics = {
        "epsilon_split": epsilon,
        "epsilon_state": state_val,
        "cross_check_gap": agreement,
        "canonical_residual": canonical_residual,
        "p_min_eigenvalue": float(np.linalg.eigvalsh((p + p.conj().T) / 2)[0]),
        "q_min_eigenvalue": float(np.linalg.eigvalsh((q + q.conj().T) / 2)[0]),
        "split_iterations": split_out.iterations,
        "state_iterations": state_out.iterations,
    }

    rho_opt = None
    if verdict == INDECOMPOSABLE:
        # dual multipliers of the split form are (rho, rho^{T_A}); fall
        # back to the state-side optimizer if the duals are degenerate
        zb = split_out.z_blocks[0]
        tr = np.trace(zb).real
        cand = zb / tr if tr > policy.DUAL_TRACE_FLOOR else rho_primal
        raw = (cand + cand.conj().T) / 2
        raw /= np.trace(raw).real
        raw_ta = partial_transpose(raw, space, 0)
        diagnostics["rho_opt_min_eigenvalue"] = float(np.linalg.eigvalsh(raw)[0])
        diagnostics["rho_opt_transpose_min_eigenvalue"] = float(
            np.linalg.eigvalsh(raw_ta)[0]
        )
        diagnostics["rho_opt_value"] = float(np.trace(z @ raw).real)
        dual_primal_gap = float(np.abs(raw - rho_primal).max())
        diagnostics["dual_vs_primal_state_gap"] = dual_primal_gap
        vals, vecs = np.linalg.eigh(raw)
        m = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        m /= np.trace(m).real
        rho_opt = DensityMatrix(m, space)

    return DecompositionReport(
        eta=float(eta),
        epsilon=float(epsilon),
        verdict=verdict,
        p_opt=p,
        q_opt=q,
        space=space,
        rho_opt=rho_opt,
        diagnostics=diagnostics,
    )


def _numerical_rank(mat):
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > policy.EDGE_RANK_CUTOFF * s[0]).sum())


def extract_edge_state(report):
    """Pull the detecting state out of a report with range diagnostics.

    Complementary slackness makes the range of P_opt orthogonal to the
    range of rho_opt, and the range of Q_opt orthogonal to the range of
    rho_opt^{T_A}; the residuals quantify how well the solver achieved
    that, and the ranks locate the state on the boundary structure.
    """
    if report.rho_opt is None:
        raise ValueError(
            "edge-state extraction needs an indecomposable report with "
            "rho_opt attached"
        )
    rho = report.rho_opt.matrix
    rho_ta = partial_transpose(rho, report.space, 0)
    p, q = report.p_opt, report.q_opt
    pn = np.linalg.norm(p)
    qn = np.linalg.norm(q)
    rn = np.linalg.norm(rho)
    p_resid = float(np.linalg.norm(p @ rho) / (pn * rn)) if pn * rn > 0 else 0.0
    q_resid = (
        float(np.linalg.norm(q @ rho_ta) / (qn * np.linalg.norm(rho_ta)))
        if qn > 0
        else 0.0
    )
    diagnostics = {
        "p_range_residual": p_resid,
        "q_range_residual": q_resid,
        "rank_rho": _numerical_rank(rho),
        "rank_rho_transpose": _numerical_rank(rho_ta),
        "rank_p": _numerical_rank(p),
        "rank_q": _numerical_rank(q),
    }
    return report.rho_opt, diagnostics
