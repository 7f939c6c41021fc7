"""Positive maps, their defining operators, and positivity certification.

A linear map between matrix algebras is stored through its defining
operator L on the [input, output] tensor space, with the action recovered
as Lambda(rho) = Tr_in[L (rho^T x 1_out)].  Hermitian operators that take
negative product-state values correspond exactly to maps that are positive
but not completely positive, which is what turns entanglement witnesses
into map-positivity questions and back.

Composing a map with the symmetric k-copy embedding of its output space
gives a computable ladder: if the composed operator is positive
semidefinite at any k, the underlying map is positive.  The ladder also
drives the threshold sweep, where the largest mixing weight alpha keeping
(1 - alpha) * reference + alpha * candidate certified at level k is a
generalized eigenvalue problem rather than a semidefinite program.

Both are solved one torus-weight class at a time: the exact zeros of a
defining operator make it invariant under a torus of diagonal phases
(hierarchy._torus_grading), basis vector (b, mu) of the composed operator
has weight phi_b + mu . psi, and every entry between two weights is a sum
of exact zeros, so no tolerance decides the blocks.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as policy
from .hierarchy import SolverFailure, _occupations, _torus_grading, _trace_down
from .tensorops import (
    TensorSpace,
    check_hermitian,
    partial_trace,
    permute_factors,
    symmetric_subspace_dim,
)
from .witness import minimize_on_products

COMPLETELY_POSITIVE = "completely_positive"
CERTIFIED = "strictly_positive_certified"
NOT_POSITIVE = "not_positive"
UNDETERMINED = "undetermined"

COMPOSED_CAP = 4000


@dataclass
class LinearMap:
    """A Hermiticity-preserving linear map via its defining operator."""

    in_dim: int
    out_dim: int
    choi: np.ndarray

    def __post_init__(self):
        self.choi = np.asarray(self.choi, dtype=complex)
        d = self.in_dim * self.out_dim
        if self.choi.shape != (d, d):
            raise ValueError(
                f"defining operator has shape {self.choi.shape}, expected "
                f"{(d, d)} for dimensions {self.in_dim} -> {self.out_dim}"
            )
        check_hermitian(self.choi, what="defining operator")

    @property
    def space(self):
        return TensorSpace([self.in_dim, self.out_dim])


@dataclass
class PositivityReport:
    verdict: str
    choi_min_eigenvalue: float
    k_max: int
    per_k_min_eigenvalues: dict = field(default_factory=dict)
    k_certified: int = None
    violation_input: np.ndarray = None
    violation_eigenvalue: float = None
    product_search_min: float = None


def apply_map(lmap, rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (lmap.in_dim, lmap.in_dim):
        raise ValueError(
            f"input of shape {rho.shape} does not match the map's input "
            f"dimension {lmap.in_dim}"
        )
    lifted = lmap.choi @ np.kron(rho.T, np.eye(lmap.out_dim))
    return partial_trace(lifted, lmap.space, {0})


def map_from_witness(w, space, direction="a_to_b"):
    """Read a Hermitian bipartite operator as a map in either direction.

    The same operator defines two maps: one taking the first factor to the
    second and one the other way around.  Both are positive exactly when
    the operator is nonnegative on product states.
    """
    w = np.asarray(w, dtype=complex)
    space.check_matrix(w)
    if space.nfactors != 2:
        raise ValueError("witness operators live on a two-factor space")
    check_hermitian(w, what="witness operator")
    d_a, d_b = space.factor_dims
    if direction == "a_to_b":
        return LinearMap(in_dim=d_a, out_dim=d_b, choi=w)
    if direction == "b_to_a":
        flipped, _ = permute_factors(w, space, [1, 0])
        return LinearMap(in_dim=d_b, out_dim=d_a, choi=flipped)
    raise ValueError(f"unknown direction {direction!r}")


def tracial_map(d):
    """rho -> Tr[rho] * 1/d; unital, completely positive, full rank."""
    return LinearMap(in_dim=d, out_dim=d, choi=np.eye(d * d, dtype=complex) / d)


def normalize_unital(lmap):
    """Rescale so the map sends the identity to the identity.

    Only a scalar rescale is attempted; if the partial trace of the
    defining operator over the input factor is not proportional to the
    identity, no scalar works and the call fails.
    """
    t_in = partial_trace(lmap.choi, lmap.space, {0})
    lam = np.trace(t_in).real / lmap.out_dim
    if abs(lam) < policy.UNITAL_ZERO:
        raise ValueError("map annihilates the identity, cannot normalize")
    dev = np.abs(t_in - lam * np.eye(lmap.out_dim)).max()
    if dev > policy.SELF_CHECK * abs(lam):
        raise ValueError(
            f"image of the identity deviates from a multiple of the "
            f"identity by {dev:.2e}; scalar normalization cannot fix that"
        )
    return LinearMap(lmap.in_dim, lmap.out_dim, lmap.choi / lam)


def compose_with_symmetric_embedding(lmap, k):
    """Defining operator of the map followed by symmetric k-copy embedding.

    The output factor is extended to k copies, projected onto their
    symmetric subspace, and compressed to the occupation-number basis.
    The result lives on [input, sym_k(output)] and equals the map's own
    operator at k = 1.  It is (id x T^T)(L), T the sparse trace-down map
    Tr_(2..k) from operators on Sym_k(output) to those on the output
    (hierarchy._trace_down); entry by entry, with mu, nu sorted multisets,

        C[(b, mu), (b', nu)] = sum sqrt(mu_a nu_c) / k * L[(b, a), (b', c)]

    over the (a, c) with mu - a = nu - c, in ascending order.  This is the
    occupation-basis form of sandwiching L x 1^(k-1) between symmetric
    projectors, checked against the explicit construction in the tests.
    The coefficients are real, so a map whose defining operator has no
    imaginary part gets a real composed operator, and its eigenproblems run
    in real arithmetic.
    """
    if k < 1:
        raise ValueError(f"copy count must be at least 1, got {k}")
    din, dout = lmap.in_dim, lmap.out_dim
    s_dim = symmetric_subspace_dim(dout, k)
    side = din * s_dim
    if side > COMPOSED_CAP:
        raise ValueError(
            f"composed operator side {side} exceeds the size cap "
            f"{COMPOSED_CAP}"
        )
    choi = lmap.choi if lmap.choi.imag.any() else lmap.choi.real
    # row (b, b') holds the (dout, dout) block L[(b, .), (b', .)]
    blocks = choi.reshape(din, dout, din, dout).transpose(0, 2, 1, 3)
    comp = blocks.reshape(din * din, dout * dout) @ _trace_down(dout, k)
    comp = comp.reshape(din, din, s_dim, s_dim).transpose(0, 2, 1, 3)
    return comp.reshape(side, side)


def _weight_classes(pattern, din, dout, k):
    """The composed basis (b, mu), index b * dsym + mu, grouped by torus
    weight phi_b + mu . psi, (phi, psi) the hierarchy._torus_grading of a
    defining operator whose nonzero entries are pattern: one (count, n)
    array of ascending indices per class side n, or None (one class) when
    the operator has no torus."""
    grading = _torus_grading(din, dout, pattern.tobytes())
    if grading is None:
        return None
    weights = grading[:din, None] + (_occupations(dout, k) @ grading[din:])[None]
    _, labels = np.unique(weights.reshape(-1, grading.shape[1]), axis=0, return_inverse=True)
    sides = np.bincount(labels)[labels]
    order = np.lexsort((labels, sides))
    cuts = np.flatnonzero(np.diff(sides[order])) + 1
    return [idx.reshape(-1, sides[idx[0]]) for idx in np.split(order, cuts)]


def _class_blocks(comp, classes):
    """comp's diagonal blocks on the weight classes, one (count, n, n)
    stack per class side, or [comp] for one class.  Every entry between
    two classes is exactly zero; a nonzero one left out of the blocks
    raises SolverFailure."""
    if classes is None:
        return [comp]
    blocks = [comp[idx[:, :, None], idx[:, None, :]] for idx in classes]
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(comp):
        raise SolverFailure("composed operator has an entry between two torus-weight classes")
    return blocks


def _composed_minimum(lmap, k):
    """Minimum eigenvalue of the level-k composed operator: the minimum
    over its torus-weight classes, one batched eigvalsh per class side."""
    comp = compose_with_symmetric_embedding(lmap, k)
    classes = _weight_classes(lmap.choi != 0, lmap.in_dim, lmap.out_dim, k)
    return min(float(np.linalg.eigvalsh(b)[..., 0].min()) for b in _class_blocks(comp, classes))


def check_strict_positivity(lmap, k_max=8, samples=10000, seed=1234):
    """Certify positivity through the embedding ladder or exhibit a violation.

    A semidefinite defining operator settles complete positivity at once.
    Otherwise a sampled and polished search over pure inputs looks for a
    state the map sends to something with a negative eigenvalue; finding
    one refutes positivity.  Failing that, the composed operator is
    checked at each k up to k_max, and semidefiniteness at any level
    certifies the map positive (_composed_minimum, class by class).  When
    neither side resolves, the verdict is left undetermined: absence of a
    sampled violation is not proof.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    choi_min = float(np.linalg.eigvalsh(lmap.choi)[0])
    report = PositivityReport(
        verdict=UNDETERMINED, choi_min_eigenvalue=choi_min, k_max=k_max
    )
    if choi_min >= -policy.PSD_SLACK:
        report.verdict = COMPLETELY_POSITIVE
        return report

    search = minimize_on_products(
        lmap.choi, lmap.space, samples=samples, seed=seed
    )
    report.product_search_min = search["min_value"]
    if search["min_value"] < -policy.VIOLATION:
        # <a x b| L |a x b> = <b| map(conj(a) conj(a)^dag) |b>
        x = np.conj(search["state_a"])
        sigma = np.outer(x, x.conj())
        mapped_min = float(np.linalg.eigvalsh(apply_map(lmap, sigma))[0])
        report.verdict = NOT_POSITIVE
        report.violation_input = sigma
        report.violation_eigenvalue = mapped_min
        return report

    for k in range(1, k_max + 1):
        lam = _composed_minimum(lmap, k)
        report.per_k_min_eigenvalues[k] = lam
        if lam >= -policy.PSD_SLACK:
            report.verdict = CERTIFIED
            report.k_certified = k
            return report
    return report


def alpha_threshold(map0, map1, k):
    """Largest alpha keeping the level-k composed blend semidefinite.

    With C0, C1 the composed operators of the two maps, the threshold is
    1 / lambda_max(C0^{-1/2} (C0 - C1) C0^{-1/2}) whenever that largest
    eigenvalue is positive, and 1 otherwise.  Symmetric whitening needs
    C0 positive definite, checked on every class before any is whitened.
    Both operators split on the torus-weight classes of the union of the
    two maps' nonzero patterns; lambda_max is the largest over the classes.
    """
    if (map0.in_dim, map0.out_dim) != (map1.in_dim, map1.out_dim):
        raise ValueError("threshold maps must share input and output dimensions")
    pattern = (map0.choi != 0) | (map1.choi != 0)
    classes = _weight_classes(pattern, map0.in_dim, map0.out_dim, k)
    c0 = _class_blocks(compose_with_symmetric_embedding(map0, k), classes)
    c1 = _class_blocks(compose_with_symmetric_embedding(map1, k), classes)
    eigs = [np.linalg.eigh(b) for b in c0]
    lowest = min(vals[..., 0].min() for vals, _ in eigs)
    if lowest <= policy.POSITIVE_DEFINITE * max(max(vals.max() for vals, _ in eigs), 1.0):
        raise ValueError(
            "reference operator is not positive definite at this level; "
            "rescale the reference map (for example blend in a tracial "
            "part) before sweeping"
        )
    lam_max = -np.inf
    for (vals, vecs), b0, b1 in zip(eigs, c0, c1):
        white = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().mT
        pencil = white @ (b0 - b1) @ white.conj().mT
        top = np.linalg.eigvalsh((pencil + pencil.conj().mT) / 2)[..., -1]
        lam_max = max(lam_max, float(top.max()))
    if lam_max <= 0:
        return 1.0
    return 1.0 / lam_max


def threshold_sweep(map0, map1, k_max=8):
    """alpha thresholds for k = 1 .. k_max, as a list of (k, alpha_k)."""
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    return [(k, alpha_threshold(map0, map1, k)) for k in range(1, k_max + 1)]


def threshold_family():
    """The reference pair for the d = 3 threshold sweep.

    Returns the tracial map together with the unital map defined by the
    analytic two-qutrit witness from the states catalog; blending them
    traces out the classic ladder of certification thresholds.
    """
    from .states import choi_family_witness

    w, space = choi_family_witness()
    return tracial_map(3), normalize_unital(map_from_witness(w, space))
