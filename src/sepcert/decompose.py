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
detects, so Z is indecomposable and that state is bound entangled.

The split side is posed as the margin problem the solver answers for the
hierarchy: F0 = (2Z, 0) and one direction (-e_a, e_a^{T_A}) per Hermitian
basis element e_a.  With Y' = (Y + t 1)/2 its constraints read
P = Z + t 1 - Y' >= 0 and Q = Y'^{T_A} >= 0, so its optimum is -epsilon,
and its dual blocks are (rho, rho^{T_A})/2 for the minimizing state.  One
solve decides, and each verdict rests on an object checked on its own:
decomposable on an explicit split whose parts are positive semidefinite,
indecomposable on a certificate that passes sdp.verify_certificate.

Tolerances assume Z is normalized to about unit spectral radius, which is
how extracted witnesses arrive here.
"""

import functools
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


@functools.lru_cache(maxsize=8)
def _split_stacks(d_a, d_b):
    """The directions of the split form on d_a x d_b, (-e_a, e_a^{T_A})
    over the Hermitian basis e_a, as checked sdp.DirectionStacks, and the
    basis.  They do not depend on Z, so every call on one shape shares
    them, and the solver layouts the stacks memoise.  Cached and
    read-only, like hierarchy._torus_grading."""
    space = TensorSpace([d_a, d_b])
    d = space.dim
    basis = np.stack(hermitian_basis(d).elements).astype(complex)
    basis.flags.writeable = False
    transposed = np.stack([partial_transpose(el, space, 0) for el in basis])
    stacks = sdp.DirectionStacks.from_blocks([-basis, transposed], [d, d], d * d)
    return stacks, basis


def _min_eigenvalue(mat):
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])


def decompose(z, space, tolerances=None):
    """Classify Z and return the canonical split plus the detecting state.

    The verdict is the margin solve's: feasible is decomposable once the
    split P + epsilon 1 + Q^{T_A} passes its check, infeasible is
    indecomposable once the dual certificate passes
    sdp.verify_certificate, and marginal (|epsilon| inside the refusal
    band) stays marginal.  Any other status, or a failed check, raises
    SolverFailure.  For indecomposable Z the report carries rho_opt, the
    positive partial-transpose state achieving Tr[Z rho_opt] = epsilon < 0.
    """
    z = _check_input(z, space)
    d = space.dim
    stacks, basis = _split_stacks(*space.factor_dims)
    problem = sdp.SdpProblem(f0s=[2 * z, np.zeros((d, d), dtype=complex)], fs=stacks)
    out = sdp.feasibility_margin(problem, tolerances=tolerances)
    if out.status not in (sdp.FEASIBLE, sdp.INFEASIBLE, sdp.MARGINAL):
        raise SolverFailure(
            f"decomposition solve ended with status {out.status}", outcome=out
        )
    t = out.diagnostics["t_primal"]
    epsilon = -t
    eta = epsilon - np.trace(z).real / d
    y = np.tensordot(out.x, basis, axes=1)
    eye = np.eye(d)
    p = (2 * z - y + t * eye) / 2
    q = (partial_transpose(y, space, 0) + t * eye) / 2
    p_min, q_min = _min_eigenvalue(p), _min_eigenvalue(q)
    # Z = (P + (epsilon - s) 1) + (Q + s 1)^{T_A}, s = max(0, -lambda_min(Q)),
    # splits Z into two PSD parts exactly when this slack is positive
    slack = p_min + epsilon - max(0.0, -q_min)
    diagnostics = {
        "split_slack": slack,
        "p_min_eigenvalue": p_min,
        "q_min_eigenvalue": q_min,
        "split_iterations": out.iterations,
        # the state form is not solved; perfbench/spans.py adds this count
        "state_iterations": 0,
    }

    rho_opt = None
    if out.status == sdp.MARGINAL:
        verdict = MARGINAL
    elif out.status == sdp.FEASIBLE:
        if not slack > 0:
            raise SolverFailure(
                "decomposable verdict, but the split fails its check: "
                f"P + (epsilon - s) 1 has smallest eigenvalue {slack:.3e}",
                outcome=out,
            )
        verdict = DECOMPOSABLE
    else:
        check = sdp.verify_certificate(problem, out.z_blocks)
        if not check.passed:
            raise SolverFailure(
                "indecomposable verdict, but the certificate fails its check "
                f"(smallest eigenvalue {check.min_eigenvalue:.3e}, pairing "
                f"violation {check.constraint_violation:.3e}, value "
                f"{check.objective_value:.3e})",
                outcome=out,
            )
        verdict = INDECOMPOSABLE
        diagnostics["pairing_violation"] = check.constraint_violation
        # the dual blocks are (rho, rho^{T_A})/2 for the minimizing state
        raw = (out.z_blocks[0] + out.z_blocks[0].conj().T) / 2
        raw /= np.trace(raw).real
        raw_ta = partial_transpose(raw, space, 0)
        diagnostics["rho_opt_min_eigenvalue"] = float(np.linalg.eigvalsh(raw)[0])
        diagnostics["rho_opt_transpose_min_eigenvalue"] = float(
            np.linalg.eigvalsh(raw_ta)[0]
        )
        diagnostics["rho_opt_value"] = float(np.trace(z @ raw).real)
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
