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
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as policy
from .tensorops import (
    TensorSpace,
    check_hermitian,
    multiset_arrangements,
    multisets,
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
    operator at k = 1.  Entry formula, with mu, nu sorted multisets and
    N the arrangement count:

        C[(b, mu), (b', nu)] = sum_tau N(tau) / sqrt(N(mu) N(nu))
                               * L[(b, mu - tau), (b', nu - tau)]

    where tau runs over the common (k-1)-sub-multisets.  This is the
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
    idx, n_tau, inv_sqrt_n = _embedding_index(dout, k)
    choi = lmap.choi if lmap.choi.imag.any() else lmap.choi.real
    # blocks[a, c] is the (din, din) block L[(., a), (., c)]
    blocks = choi.reshape(din, dout, din, dout).transpose(1, 3, 0, 2)
    comp = np.zeros((din, s_dim, din, s_dim), dtype=choi.dtype)
    # one tau at a time: its terms land on distinct entries, so every
    # entry sums its terms in the order of tau
    for mu, count in zip(idx, n_tau):
        coef = (count * inv_sqrt_n[mu])[:, None] * inv_sqrt_n[mu][None, :]
        comp[:, mu[:, None], :, mu[None, :]] += coef[:, :, None, None] * blocks
    return comp.reshape(side, side)


@functools.lru_cache(maxsize=32)
def _embedding_index(dout, k):
    """The index arrays of compose_with_symmetric_embedding's entry
    formula: row r of idx holds the positions of tau + a among the
    k-multisets, a = 0..dout-1, for the r-th (k-1)-multiset tau, n_tau[r]
    is N(tau), and inv_sqrt_n holds 1/sqrt(N(mu)) for every k-multiset.
    Read-only, since callers share them."""
    mu_index = {mu: pos for pos, mu in enumerate(multisets(dout, k))}
    taus = multisets(dout, k - 1)
    arrays = (
        np.array(
            [[mu_index[tuple(sorted(tau + (a,)))] for a in range(dout)] for tau in taus]
        ),
        np.array([multiset_arrangements(tau) for tau in taus]),
        np.array(
            [1.0 / math.sqrt(multiset_arrangements(mu)) for mu in multisets(dout, k)]
        ),
    )
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def check_strict_positivity(lmap, k_max=8, samples=10000, seed=1234):
    """Certify positivity through the embedding ladder or exhibit a violation.

    A semidefinite defining operator settles complete positivity at once.
    Otherwise a sampled and polished search over pure inputs looks for a
    state the map sends to something with a negative eigenvalue; finding
    one refutes positivity.  Failing that, the composed operator is
    checked at each k up to k_max, and semidefiniteness at any level
    certifies the map positive.  When neither side resolves, the verdict
    is left undetermined: absence of a sampled violation is not proof.
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
        comp = compose_with_symmetric_embedding(lmap, k)
        lam = float(np.linalg.eigvalsh(comp)[0])
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
    C0 positive definite.
    """
    if (map0.in_dim, map0.out_dim) != (map1.in_dim, map1.out_dim):
        raise ValueError("threshold maps must share input and output dimensions")
    c0 = compose_with_symmetric_embedding(map0, k)
    c1 = compose_with_symmetric_embedding(map1, k)
    vals, vecs = np.linalg.eigh(c0)
    if vals[0] <= policy.POSITIVE_DEFINITE * max(vals[-1], 1.0):
        raise ValueError(
            "reference operator is not positive definite at this level; "
            "rescale the reference map (for example blend in a tracial "
            "part) before sweeping"
        )
    white = (vecs / np.sqrt(vals)) @ vecs.conj().T
    pencil = white @ (c0 - c1) @ white.conj().T
    lam_max = float(np.linalg.eigvalsh((pencil + pencil.conj().T) / 2)[-1])
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
