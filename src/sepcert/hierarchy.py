"""Separability tests from symmetric extensions with positive partial
transposes.

A bipartite state rho on A x B is separable iff for every k it admits an
extension rho~ to k copies of A (ordering here: A_1 ... A_k, B) that

  * is invariant under every permutation of the A copies,
  * reproduces rho when the extra copies are traced out, and
  * stays positive under every partial transpose.

For fixed k the existence of such an extension is a semidefinite
feasibility problem; failure proves entanglement and the dual certificate
converts into an entanglement witness.  The family of tests is monotone in
k and detects every entangled state at some finite level.

Partial transposes over subsets of the copies collapse, by permutation
invariance and by invariance of positivity under global transposition, to
k+1 inequivalent blocks: the plain extension, transposition of l copies of
A for l = 1..ceil(k/2), and transposition of B together with l copies of A
for l = 0..k-ceil(k/2)-1.

The problem is posed on the symmetric subspace of the copies: every
separable state has a Bose-symmetric extension, supported on Sym_k(A) x B,
so asking for one keeps the test sound and never makes it weaker, while it
shrinks every block.  A transposed block with l transposed copies is
then supported on Sym_l x Sym_(k-l) x B.  The free directions are
A_v x e_j: A_v runs over a sparse basis of the null space of the
trace-down map on Hermitian operators of Sym_k(A), built from matrix
units of the occupation basis with a few coefficients each, and e_j over
the diagonal units and off-diagonal pairs of B.  Every entry of a
transposed block's copy side comes from one entry of A_v, so the stacks
store only what the units put there, and their size is known exactly
before they are built.  The pinned part is the minimum-norm
symmetric-subspace solution of the trace-down constraint.

Every feasible verdict is re-checked on its evidence, at every level and
in the same coordinates (check_extension_properties).  The plain block
X = F0_0 + sum_i x_i F_i,0 is the extension compressed onto
Sym_k(A) x B, so it is permutation invariant by construction; its
trace-down is a closed-form one-copy trace on the occupation basis,
applied k - 1 times and compared with rho, and each partial transpose
is X carried to its block's copy side, whose smallest eigenvalue is
taken.  Nothing is lifted to the full copy space, of side d_a^k d_b.

A state whose exactly-zero entries make it invariant under a torus of
diagonal phases U_A x U_B (torus_grading) is solved on the invariant
free directions only.  Averaging an extension over the torus keeps the
three properties and, rho being invariant, the traced-down state, so an
invariant extension exists whenever any does, and the verdict and margin
do not change.  Every A_v and every e_j is built from matrix units of
one torus weight, so each invariant direction is one A_v x e_j or a
+-1/sqrt2 sum of two (_invariant_map).  Only exact zeros count, decided
in integer arithmetic: a tiny entry is a constraint like any other, and
a state without zeros keeps every direction.  Certificates, witnesses
and extensions are checked on the full problem.
"""

import functools
import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from . import sdp
from . import tolerances as policy
from .tensorops import (
    FactorError,
    TensorSpace,
    check_hermitian,
    hermitian_basis,
    multisets,
    symmetric_subspace_dim,
)

SEPARABLE_CONSISTENT = "separable_consistent"
ENTANGLED = "entangled"
MARGINAL = "marginal"

AMBIENT_CAP = 4000
MEMORY_BUDGET_BYTES = 2_500_000_000


class AssemblyError(ValueError):
    """Problem too large or structurally inconsistent; carries resources."""

    def __init__(self, message, resources=None):
        super().__init__(message)
        self.resources = resources


class SolverFailure(RuntimeError):
    def __init__(self, message, outcome=None):
        super().__init__(message)
        self.outcome = outcome


@dataclass
class DensityMatrix:
    """Validated bipartite state: Hermitian, unit trace, PSD.

    Eigenvalues in (-policy.PSD_SLACK, -policy.QUIET_CLIP) are treated as
    rounding debris: clipped to zero with a warning and the state
    renormalized.  Anything below -policy.PSD_SLACK is rejected.
    """

    matrix: np.ndarray
    space: TensorSpace

    def __post_init__(self):
        if self.space.nfactors != 2:
            raise FactorError(
                f"a bipartite state needs exactly 2 factors, got "
                f"{self.space.factor_dims}"
            )
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.space.check_matrix(self.matrix)
        check_hermitian(self.matrix, what="state")
        tr = np.trace(self.matrix).real
        if abs(tr - 1.0) > policy.PSD_SLACK:
            raise ValueError(f"state trace is {tr!r}, not 1")
        vals, vecs = np.linalg.eigh(self.matrix)
        if vals[0] < -policy.PSD_SLACK:
            raise ValueError(
                f"state has negative eigenvalue {vals[0]:.3e} beyond tolerance"
            )
        if vals[0] < -policy.QUIET_CLIP:
            # visible rounding debris: clip, renormalize, and say so; smaller
            # noise is left alone to keep constructions quiet
            warnings.warn(
                f"clipping negative eigenvalue {vals[0]:.3e} of a state "
                "(within rounding tolerance)",
                stacklevel=2,
            )
            vals = np.clip(vals, 0.0, None)
            m = (vecs * vals) @ vecs.conj().T
            self.matrix = m / np.trace(m).real

    @property
    def dim_a(self):
        return self.space.factor_dims[0]

    @property
    def dim_b(self):
        return self.space.factor_dims[1]


@dataclass(frozen=True)
class ExtensionSpec:
    """Level and options of one extension test.

    k = 1 with ppt is the plain positive-partial-transpose test; k = 1
    without ppt would test nothing, so it is rejected.
    """

    k: int
    ppt: bool = True
    # not a field: perfbench/spans.py reads it into its per-case key
    reduced = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"extension level must be >= 1, got {self.k}")
        if self.k == 1 and not self.ppt:
            raise ValueError("level 1 without partial transposes tests nothing")


@dataclass
class BlockDescriptor:
    a_transposed: int
    b_transposed: bool
    label: str
    side: int


def transpose_descriptors(k, ppt):
    """The k+1 inequivalent transpose classes (including the plain one)."""
    descs = [(0, False)]
    if ppt:
        descs += [(l, False) for l in range(1, k // 2 + k % 2 + 1)]
        descs += [(l, True) for l in range(0, k - (k // 2 + k % 2))]
    return descs


def _desc_label(l, b):
    if l == 0 and not b:
        return "plain"
    parts = []
    if l:
        parts.append(f"ta{l}")
    if b:
        parts.append("tb")
    return "".join(parts)


def free_direction_count(d_a, d_b, k):
    return (symmetric_subspace_dim(d_a, k) ** 2 - d_a**2) * d_b**2


def required_resources(d_a, d_b, spec):
    """Arithmetic estimate of the assembled problem's memory and cost.

    Every direction is A_v x e_j with A_v from the sparse null basis
    (_null_basis) carried to the block's copy side and e_j a B unit, so
    each block's stored entries are counted exactly from the patterns
    (_stored_entries) before anything is built.  stack_bytes counts

      * the CSR stacks five times over: as assembled, with the margin
        direction appended, their real copy, and the two re-layouts the
        solver multiplies with (the packed stack of sdp.BlockSplit and
        the chunks of sdp.schur_stacks);
      * the dense images of the Hermitian basis of Sym_k(A) on each copy
        side, which the pinned part and the witness map are built from;
      * the Schur assembly workspace of the largest chunk (sdp.schur_block
        over c_b = sdp.schur_chunk(m + 1, n_b**2, 16) direction columns): the
        two reused (n_b^2, c_b) arrays, the fresh sparse product of the
        same size, and the (m, c_b) contraction (blocks of one side share
        a chunk, which then holds fewer columns);
      * the m x m Schur matrix and its Cholesky factor;
      * the product basis of A x B that the per-state step contracts rho
        against.

    A problem whose Schur matrix and images alone are over
    MEMORY_BUDGET_BYTES is refused whatever its stacks hold, so they are
    left uncounted (the count itself takes memory in proportion to the
    images): stored_entries is None, and stack_bytes and the flops are
    lower bounds.  Complex values are assumed throughout.
    schur_flops_per_iteration is sum_b (2 m n_b^3 + 2 nnz_b (m + n_b)):
    the dense S^-1 product, and the two sparse products with the stack,
    F Z and the trace pairing, for blocks that stay whole; the solver cuts
    a block whose pattern allows it into smaller components, which costs
    less.
    """
    k = spec.k
    m = free_direction_count(d_a, d_b, k)
    descs = transpose_descriptors(k, spec.ppt)
    sides_a = {
        l: symmetric_subspace_dim(d_a, l) * symmetric_subspace_dim(d_a, k - l)
        for l, _ in descs
    }
    sides = [sides_a[l] * d_b for l, _ in descs]
    schur_bytes = 2 * 8 * m * m
    image_bytes = 16 * symmetric_subspace_dim(d_a, k) ** 2 * sum(
        s * s for s in sides_a.values()
    )
    counted = schur_bytes + image_bytes <= MEMORY_BUDGET_BYTES
    nnz = _stored_entries(d_a, d_b, k, spec.ppt) if counted else (0,) * len(descs)
    csr_bytes = 5 * sum(20 * z + 4 * m * n for z, n in zip(nnz, sides))
    workspace_bytes = max(
        16 * sdp.schur_chunk(m + 1, n * n, 16) * (3 * n * n + m) for n in sides
    )
    pair_bytes = 16 * (d_a * d_b) ** 4
    return {
        "free_directions": m,
        "block_sides": sides,
        "block_labels": [_desc_label(l, b) for l, b in descs],
        "stored_entries": list(nnz) if counted else None,
        "stack_bytes": (
            csr_bytes + image_bytes + workspace_bytes + schur_bytes + pair_bytes
        ),
        "schur_flops_per_iteration": float(
            sum(2 * m * n**3 + 2 * z * (m + n) for z, n in zip(nnz, sides))
        ),
    }


@functools.lru_cache(maxsize=64)
def _stored_entries(d_a, d_b, k, ppt):
    """Stored entries of each block's direction stack, from the patterns.

    Each entry of a block's copy side comes from one unit |mu><nu|
    (_copy_image), and the units of one null vector differ, so A_v has
    as many entries in the block as the image rows of its units hold.
    The B units hold one entry on the diagonal and two off it.
    """
    units = _null_basis(d_a, k).indices
    b_entries = d_b + 2 * d_b * (d_b - 1)
    return tuple(
        int(np.diff(_copy_image(d_a, k, l).indptr)[units].sum()) * b_entries
        for l, _ in transpose_descriptors(k, ppt)
    )


def _occupations(d, k):
    """Occupation vectors of the sorted k-multisets over range(d), one row
    each, in the lexicographic order of multisets(d, k)."""
    ms = multisets(d, k)
    ms = np.array(ms, dtype=int).reshape(len(ms), k)
    return (ms[:, :, None] == np.arange(d)).sum(axis=1)


def _occupation_index(d, k, occ):
    """Position among the k-multisets over range(d) of each occupation
    vector along the last axis of occ."""
    radix = (k + 1) ** np.arange(d)
    codes = _occupations(d, k) @ radix
    order = np.argsort(codes)
    return order[np.searchsorted(codes, occ @ radix, sorter=order)]


def _null_basis(d, k):
    """Sparse basis of the null space of the trace-down map Tr_(2..k) on
    Hermitian operators of Sym_k(C^d).

    Returns a CSR matrix of shape (dsym^2 - d^2, dsym^2): row v holds the
    coefficients of A_v over the matrix units |mu><nu| of the occupation
    basis (column mu * dsym + nu).  Tr_(2..k) |mu><nu| is
    sqrt(mu_a nu_b) / k |a><b| when mu = kappa + a and nu = kappa + b for
    one (k-1)-multiset kappa, and zero otherwise, so the null space has a
    basis of three kinds of vectors:

      * (|mu><nu| + h.c.) / sqrt2 and (-i|mu><nu| + h.c.) / sqrt2 for
        multisets that differ in two or more slots;
      * within one class a < b of units U_kappa = |kappa + a><kappa + b|
        of trace-down weight w_kappa = sqrt(mu_a nu_b) / k, the same two
        Hermitian parts of U_kappa - (w_kappa / w_0) U_0, U_0 the first
        unit of largest weight in the class;
      * |mu><mu| - sum_a (mu_a / k) |k a><k a| for every mu that is not a
        pure k a: an echelon basis of the null space of the occupation
        count on the diagonal.

    Each vector stores at most max(4, d + 1) coefficients, all of
    magnitude at most one.
    """
    occ = _occupations(d, k)
    n = len(occ)
    # off-diagonal terms: coefficient c of |p><q| in pair t, whose real
    # and imaginary Hermitian parts are two directions
    mu, nu = np.triu_indices(n, 1)
    far = np.nonzero(np.abs(occ[mu] - occ[nu]).sum(axis=1) > 2)[0]
    pair, p, q, c = [np.arange(len(far))], [mu[far]], [nu[far]], [np.ones(len(far))]
    kappa = _occupations(d, k - 1)
    eye = np.eye(d, dtype=int)
    npairs = len(far)
    for a, b in zip(*np.triu_indices(d, 1)):
        pa = _occupation_index(d, k, kappa + eye[a])
        qb = _occupation_index(d, k, kappa + eye[b])
        w = np.sqrt((kappa[:, a] + 1) * (kappa[:, b] + 1)) / k
        top = np.argmax(w)
        rest = np.delete(np.arange(len(w)), top)
        ids = npairs + np.arange(len(rest))
        npairs += len(rest)
        pair += [ids, ids]
        p += [pa[rest], np.full(len(rest), pa[top])]
        q += [qb[rest], np.full(len(rest), qb[top])]
        c += [np.ones(len(rest)), -w[rest] / w[top]]
    pair, p, q = (np.concatenate(x) for x in (pair, p, q))
    c = np.concatenate(c) / np.sqrt(2)

    pure = np.argmax(occ == k, axis=0)  # position of the multiset k a
    mixed = np.nonzero(occ.max(axis=1) < k)[0]
    row, letter = np.nonzero(occ[mixed])
    ndiag = len(mixed)
    real, imag = ndiag + 2 * pair, ndiag + 2 * pair + 1
    rows = np.concatenate([np.arange(ndiag), row, real, real, imag, imag])
    upper, lower = p * n + q, q * n + p
    cols = np.concatenate(
        [mixed * (n + 1), pure[letter] * (n + 1), upper, lower, upper, lower]
    )
    vals = np.concatenate(
        [np.ones(ndiag), -occ[mixed[row], letter] / k, c, c, -1j * c, 1j * c]
    )
    return sps.csr_array((vals, (rows, cols)), shape=(ndiag + 2 * npairs, n * n))


def _trace_down_coefficients(d, k):
    """The trace-down map Tr_(2..k) from Hermitian operators of Sym_k(C^d)
    to those of C^d, in bases: column i expands Tr_(2..k) s_i, s_i the
    Hermitian basis of Sym_k, over that of C^d in dual normalization (row
    0 the plain trace, row a the pairing with sigma_a).

    Tr_(2..k) |kappa + a><kappa + b| = sqrt(mu_a nu_b) / k |a><b| with
    mu = kappa + a and nu = kappa + b, for every (k-1)-multiset kappa;
    every other unit traces down to zero, and each (mu, nu, a, b) comes
    from one kappa.
    """
    n = symmetric_subspace_dim(d, k)
    kappa = _occupations(d, k - 1)
    a, b = np.divmod(np.arange(d * d), d)
    eye = np.eye(d, dtype=int)
    mu = _occupation_index(d, k, kappa[:, None, :] + eye[a])
    nu = _occupation_index(d, k, kappa[:, None, :] + eye[b])
    weight = np.sqrt((kappa[:, a] + 1) * (kappa[:, b] + 1)) / k
    rows = np.broadcast_to(np.arange(d * d), weight.shape)
    trace_down = sps.csr_array(
        (weight.ravel(), (rows.ravel(), (mu * n + nu).ravel())), shape=(d * d, n * n)
    )
    svecs = np.stack(hermitian_basis(n).elements).reshape(n * n, n * n)
    # Tr[t sigma_a] is the row-major vec of t against that of sigma_a^T
    pair = np.stack(
        [np.eye(d)] + [s.T for s in hermitian_basis(d).elements[1:]]
    ).reshape(d * d, d * d)
    return (pair @ (trace_down @ svecs.T)).real


@functools.lru_cache(maxsize=64)
def _copy_image(d, k, l):
    """The map X -> comp^T PT_(1..l)(iso X iso^T) comp from operators X on
    Sym_k(C^d) to the copy side of the block with l transposed copies, as
    a sparse (dsym^2, side^2) matrix acting on row-major vecs; iso is the
    isometry of Sym_k and comp that of Sym_l x Sym_(k-l).

    Sym_k sits in Sym_l x Sym_(k-l) through the overlaps
    <alpha, beta | alpha + beta> = sqrt(N(alpha) N(beta) / N(alpha + beta)),
    N the arrangement count.  Entry [(a, b), (a', b')] of the image is
    X[mu, nu] times two overlaps, with mu = a' + b and nu = a + b' (a, a'
    in Sym_l, b, b' in Sym_(k-l)): each entry of the image comes from
    exactly one entry of X.  Cached: the stack build, _stored_entries and
    the extension re-check share one matrix per (d, k, l) and only read it.
    """
    occ_l, occ_r = _occupations(d, l), _occupations(d, k - l)
    sums = occ_l[:, None, :] + occ_r[None, :, :]
    fact = np.array([float(math.factorial(i)) for i in range(k + 1)])

    def arrangements(occ):
        return fact[occ.sum(axis=-1)] / fact[occ].prod(axis=-1)

    coef = np.sqrt(
        arrangements(occ_l)[:, None] * arrangements(occ_r)[None, :] / arrangements(sums)
    )
    idx = _occupation_index(d, k, sums)
    n_l, n_r = idx.shape
    dsym = symmetric_subspace_dim(d, k)
    ra, rb, ca, cb = np.indices((n_l, n_r, n_l, n_r)).reshape(4, -1)
    side = n_l * n_r
    rows = idx[ca, rb] * dsym + idx[ra, cb]
    return sps.csr_array(
        (coef[ca, rb] * coef[ra, cb], (rows, np.arange(side * side))),
        shape=(dsym * dsym, side * side),
    )


@functools.lru_cache(maxsize=64)
def _trace_one_copy(d, k):
    """The trace over one copy, from operators on Sym_k(C^d) to operators
    on Sym_(k-1)(C^d), as a sparse (dsym_k^2, dsym_(k-1)^2) matrix acting
    on row-major vecs as _copy_image does.

    Splitting off the last copy, |mu> = sum_c sqrt(mu_c / k) |mu - c> x |c>,
    so Tr_k |mu><nu| = sum_c sqrt(mu_c nu_c) / k |mu - c><nu - c|.  Cached
    and read-only, like _copy_image.
    """
    occ = _occupations(d, k)
    n, n_low = len(occ), symmetric_subspace_dim(d, k - 1)
    eye = np.eye(d, dtype=int)
    rows, cols, vals = [], [], []
    for c in range(d):
        has = np.flatnonzero(occ[:, c])
        low = _occupation_index(d, k - 1, occ[has] - eye[c])
        mu, nu = np.divmod(np.arange(len(has) ** 2), len(has))
        rows.append(has[mu] * n + has[nu])
        cols.append(low[mu] * n_low + low[nu])
        vals.append(np.sqrt(occ[has[mu], c] * occ[has[nu], c]) / k)
    return sps.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n_low * n_low),
    )


def _map_copies(ext, cmap, d_b, transpose_b=False):
    """Apply cmap, a map on the copy side given as a sparse (n^2, n'^2)
    matrix on row-major vecs (_copy_image, _trace_one_copy), to an
    operator on (copy side of n) x B, one B entry at a time; B is
    transposed as well when transpose_b is set."""
    n, n_out = math.isqrt(cmap.shape[0]), math.isqrt(cmap.shape[1])
    vecs = ext.reshape(n, d_b, n, d_b).transpose(0, 2, 1, 3).reshape(n * n, -1)
    out = (cmap.T @ vecs).reshape(n_out, n_out, d_b, d_b)
    axes = (0, 3, 1, 2) if transpose_b else (0, 2, 1, 3)
    return out.transpose(axes).reshape(n_out * d_b, n_out * d_b)


def _unit_weights(vecs, occ):
    """Torus weight of each row of a direction basis built from matrix
    units |mu><nu| of a basis whose vector mu carries the weight occ[mu].

    Rows whose units are all diagonal come first and have weight zero.
    The others come in neighbours (N + N^dag) c and (-iN + iN^dag) c,
    whose sum with i times the second is 2c N exactly; every unit of N
    has the weight occ[mu] - occ[nu], which both rows get.
    """
    vecs = sps.csr_array(vecs)
    coo = vecs.tocoo()
    mu, nu = np.divmod(coo.col, len(occ))
    ndiag = len(vecs.indptr) - 1 - len(np.unique(coo.row[mu != nu]))
    real = np.arange(ndiag, vecs.shape[0], 2)
    units = vecs[real] + 1j * vecs[real + 1]
    units.eliminate_zeros()
    mu, nu = np.divmod(units.indices[units.indptr[:-1]], len(occ))
    weights = np.zeros((vecs.shape[0], occ.shape[1]), dtype=np.int64)
    weights[real] = weights[real + 1] = occ[mu] - occ[nu]
    return weights


def torus_grading(rho):
    """Integer generators of the largest torus of diagonal phases
    U_A x U_B that leaves rho invariant, or None when it holds only the
    phases that leave every state invariant.

    U_A = diag(exp(i phi)) and U_B = diag(exp(i psi)) leave rho invariant
    iff phi_i + psi_j = phi_k + psi_l for every nonzero entry
    rho[(i, j), (k, l)]; only exact zeros lift a constraint.  The
    constraint vectors are integer, and their span is brought to reduced
    row echelon form exactly, in integer arithmetic, with primitive rows
    and positive pivots, which is unique for the span.  The returned
    (d_a + d_b, r) array holds, one per free column of that form, the
    primitive integer solution that is positive there; its first d_a rows
    pair with phi, the rest with psi.  A weight w (an integer vector over
    the same d_a + d_b slots) is invariant iff w @ grading == 0.  Every
    state is invariant under phi = 1 and under psi = 1, so the torus has
    dimension r - 2, and None stands for r = 2.
    """
    d_a, d_b = rho.dim_a, rho.dim_b
    n = d_a + d_b
    rows, cols = np.nonzero(rho.matrix)
    (ia, ib), (ka, kb) = np.divmod(rows, d_b), np.divmod(cols, d_b)
    eye_a, eye_b = np.eye(d_a, dtype=np.int64), np.eye(d_b, dtype=np.int64)
    diffs = np.hstack([eye_a[ia] - eye_a[ka], eye_b[ib] - eye_b[kb]])
    echelon = {}  # pivot column -> primitive row, zero on the other pivots
    for v in np.unique(diffs, axis=0).tolist():
        for p, row in echelon.items():
            if v[p]:
                v = [row[p] * a - v[p] * b for a, b in zip(v, row)]
        g = math.gcd(*v)
        if not g:
            continue
        p = next(i for i, a in enumerate(v) if a)
        v = [a // g if v[p] > 0 else -a // g for a in v]
        for q, row in echelon.items():
            if row[p]:
                row = [v[p] * a - row[p] * b for a, b in zip(row, v)]
                g = math.gcd(*row)
                echelon[q] = [a // g for a in row]
        echelon[p] = v
        if len(echelon) == n - 2:
            return None
    gens = []
    for f in (c for c in range(n) if c not in echelon):
        scale = math.lcm(*(row[p] for p, row in echelon.items()))
        gen = [0] * n
        gen[f] = scale
        for p, row in echelon.items():
            gen[p] = -row[f] * scale // row[p]
        g = math.gcd(*gen)
        gens.append([a // g for a in gen])
    return np.array(gens, dtype=np.int64).T


def _invariant_map(wa, wb, grading):
    """Sparse map T whose rows are an orthonormal basis of the directions
    A_v x e_j (row v * len(wb) + j of the stacks) invariant under the
    torus of grading, wa and wb the weights of the A_v and e_j
    (_unit_weights).

    A direction with a weight-zero factor is a weight vector itself, kept
    when its weight is invariant.  Two neighbour pairs (N + N^dag) and
    (-iN + iN^dag) on A and (e + e^dag) and (-ie + ie^dag) on B span the
    Hermitian parts of N x e and of N x e^dag; the sum or difference of
    two of their four products gives each, so a pair of pairs contributes
    all four products, two +-1/sqrt2 sums, or nothing, by which of the
    two weights is invariant.  Rows follow their first direction.
    """
    d_a, nb = wa.shape[1], len(wb)
    la, lb = wa @ grading[:d_a], wb @ grading[d_a:]
    single_a, single_b = ~wa.any(axis=1), ~wb.any(axis=1)
    heads, cols, vals = [], [], []

    def add(head, col, val):
        heads.append(head)
        cols.append(col)
        vals.append(np.broadcast_to(val, col.shape))

    v, j = np.nonzero(
        (single_a[:, None] | single_b[None, :])
        & ~(la[:, None, :] + lb[None, :, :]).any(axis=2)
    )
    add(v * nb + j, v * nb + j, 1.0)
    ra, rb = np.flatnonzero(~single_a)[::2], np.flatnonzero(~single_b)[::2]
    same = ~(la[ra][:, None, :] + lb[rb][None, :, :]).any(axis=2)
    flip = ~(la[ra][:, None, :] - lb[rb][None, :, :]).any(axis=2)
    t, u = np.nonzero(same & flip)
    for da in (0, 1):
        for db in (0, 1):
            col = (ra[t] + da) * nb + rb[u] + db
            add(col, col, 1.0)
    # N x e invariant: (Re x Re - Im x Im) and (Re x Im + Im x Re);
    # N x e^dag invariant: the same with the signs flipped
    t, u = np.nonzero(same ^ flip)
    root = 1 / np.sqrt(2)
    sign = np.where(same[t, u], -root, root)
    rr = ra[t] * nb + rb[u]
    add(rr, rr, root)
    add(rr, rr + nb + 1, sign)
    add(rr + 1, rr + 1, root)
    add(rr + 1, rr + nb, -sign)
    row_heads, rows = np.unique(np.concatenate(heads), return_inverse=True)
    return sps.csr_array(
        (np.concatenate(vals), (rows, np.concatenate(cols))),
        shape=(len(row_heads), len(wa) * nb),
    )


def _kron_stack(avecs, side_a, bmats):
    """CSR direction stack whose row a*len(bmats) + j is vec(A_a x B_j).

    avecs[a] is the row-major vec of the side_a x side_a matrix A_a.  The
    sparse Kronecker product of the two vec stacks holds every product
    entry; one fixed column permutation turns its (a1, a2, b1, b2) column
    order into the row-major vec order (a1, b1, a2, b2) of A_a x B_j.
    Only exact zeros are left out.
    """
    d_b = bmats[0].shape[0]
    side = side_a * d_b
    kron = sps.kron(
        sps.csr_array(avecs),
        sps.csr_array(np.stack([bm.ravel() for bm in bmats])),
        format="coo",
    )
    cols = np.arange(side * side).reshape(side_a, d_b, side_a, d_b)
    cols = cols.transpose(0, 2, 1, 3).ravel()[kron.col]
    return sps.csr_array((kron.data, (kron.row, cols)), shape=kron.shape)


def _kron_sum(amats, bmats):
    """sum_n amats[n] x bmats[n] as one dense matrix.

    The products and the sum over n are elementwise and run in the order
    of n, so the result equals accumulating np.kron terms one at a time.
    """
    sa, sb = amats.shape[1], bmats.shape[1]
    terms = amats[:, :, None, :, None] * bmats[:, None, :, None, :]
    return terms.sum(axis=0).reshape(sa * sb, sa * sb)


def _combine_copies(coef, astack):
    """The matrices sum_i coef[i, j] A_i for every column j, one
    vector-matrix product per column."""
    ns, sa, _ = astack.shape
    return np.matmul(coef.T[:, None, :], astack.reshape(ns, -1)).reshape(-1, sa, sa)


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def _block_pairings(z, astack, bmats):
    """Re Tr[(A_i x B_j) Z] for every pair, as a (len(astack), len(bmats))
    array."""
    side_a, side_b = astack.shape[1], bmats.shape[1]
    z4 = np.asarray(z).reshape(side_a, side_b, side_a, side_b)
    pair = np.empty((len(astack), len(bmats)))
    for j, bm in enumerate(bmats):
        vb = np.einsum("aibj,ji->ab", z4, bm)
        pair[:, j] = np.einsum("spq,qp->s", astack, vb).real
    return pair


@dataclass
class InvariantDirections:
    """The torus-invariant part of a shape's free directions: lift is
    the sparse (m_inv, m) map T whose rows are orthonormal combinations
    of the directions, stacks the DirectionStacks T @ stack_b.  A
    solution x of a problem on stacks is T^T x on the full directions."""

    torus_dimension: int
    lift: sps.csr_array
    stacks: sdp.DirectionStacks


@dataclass
class ExtensionProblem(sdp.SdpProblem):
    """A level-k problem as build_extension_problem poses it: on every
    free direction of its shape when invariant is None, else on
    invariant.stacks, the directions invariant under rho's torus."""

    invariant: InvariantDirections = None


class ExtensionShape:
    """The part of a level-k extension problem that does not depend on rho.

    rho enters only through the trace-down constraint, which pins the F0
    blocks.  Everything else is fixed by (d_a, d_b, k, ppt): the
    trace-down map and its pseudo-inverses, the copy-side images of the
    Hermitian basis of Sym_k(A) that the pinned part is built from, the
    block descriptors and the direction stacks (one sdp.DirectionStacks,
    built from the sparse null basis).  The adjointness check
    runs once here.  pinned_blocks is the per-state step, and
    invariant_directions the per-torus one.
    """

    def __init__(self, d_a, d_b, spec):
        self.d_a = d_a
        self.d_b = d_b
        self.spec = spec
        self.k = spec.k
        self.descriptors = []
        res = required_resources(d_a, d_b, spec)
        side_cap = max(res["block_sides"])
        if side_cap > AMBIENT_CAP:
            raise AssemblyError(
                f"largest block side {side_cap} exceeds the cap {AMBIENT_CAP}",
                resources=res,
            )
        if res["stack_bytes"] > MEMORY_BUDGET_BYTES:
            raise AssemblyError(
                f"assembled problem would need about {res['stack_bytes'] / 1e9:.1f} "
                "GB of working memory",
                resources=res,
            )
        stacks = self._build_stacks()
        self.stacks = sdp.DirectionStacks.from_blocks(
            stacks, [d.side for d in self.descriptors], self.m
        )
        self._check_adjointness()
        self._lock = threading.Lock()
        self._invariant = None  # (grading key, InvariantDirections)

    # -- construction ----------------------------------------------------

    def _build_stacks(self):
        """Directions compressed onto the symmetric subspace; returns the
        block stacks."""
        d_a, d_b, k = self.d_a, self.d_b, self.k
        dsym = symmetric_subspace_dim(d_a, k)
        basis_a = hermitian_basis(d_a)
        basis_b = hermitian_basis(d_b)
        sbasis = hermitian_basis(dsym)
        self._sbasis = sbasis
        ns = dsym**2

        # column i expands Tr_{2..k} s_i over the A basis
        lmat = _trace_down_coefficients(d_a, k)

        # parity split: each s_i (and each row's basis element) is either
        # purely real or purely imaginary, and the two sectors decouple
        col_par = np.array(
            [np.abs(s.imag).max() > policy.ZERO_PART for s in sbasis.elements]
        )
        row_par = np.array(
            [np.abs(s.imag).max() > policy.ZERO_PART for s in basis_a.elements]
        )
        off = np.abs(lmat[np.ix_(row_par, ~col_par)]).max() if row_par.any() else 0.0
        off2 = np.abs(lmat[np.ix_(~row_par, col_par)]).max()
        if max(off, off2) > policy.PARITY_LEAK:
            raise AssemblyError(
                f"trace-down map mixes parity sectors (off-block {max(off, off2):.2e})"
            )

        pinvs = {}
        rank_total = 0
        for par in (False, True):
            rows = np.nonzero(row_par == par)[0]
            cols = np.nonzero(col_par == par)[0]
            block = lmat[np.ix_(rows, cols)]
            sv = np.linalg.svd(block, compute_uv=False)
            tol = policy.RANK_CUTOFF * (sv[0] if sv.size else 1.0)
            rank_total += int((sv > tol).sum())
            pinv = np.linalg.pinv(block, rcond=policy.RANK_CUTOFF)
            pinvs[par] = (rows, cols, pinv)
        if rank_total != d_a**2:
            # the trace-down map onto Herm(A) is surjective
            raise AssemblyError(
                f"trace-down map has rank {rank_total}, expected {d_a**2}"
            )
        self._pinvs = pinvs
        null = _null_basis(d_a, k)
        self.m = null.shape[0] * d_b**2

        # copy sides: for l transposed copies, Sym_k-supported operators
        # land in Sym_l x Sym_(k-l); _acomp[l] holds the image of each s_i
        descs = transpose_descriptors(k, self.spec.ppt)
        images = {l: _copy_image(d_a, k, l) for l in sorted({l for l, _ in descs})}
        svecs = np.stack(sbasis.elements).reshape(ns, ns)
        self._acomp = {
            l: np.ascontiguousarray((image.T @ svecs.T).T).reshape(
                ns, math.isqrt(image.shape[1]), -1
            )
            for l, image in images.items()
        }

        # B side of the pinned part: sigma_j, or sigma_j^T on tb blocks
        bstack = np.stack(basis_b.elements)
        self._bstacks = {
            False: bstack,
            True: np.ascontiguousarray(bstack.transpose(0, 2, 1)),
        }
        # the product basis sigma_a x sigma_j of A x B (row a * d_b^2 + j)
        # and its squared norms, which turn trace pairings with it into
        # expansion coefficients
        astack = np.stack(basis_a.elements)
        self._pair_basis = (
            astack[:, None, :, None, :, None] * bstack[None, :, None, :, None, :]
        ).reshape(d_a**2 * d_b**2, d_a * d_b, d_a * d_b)
        weights_a, weights_b = np.ones(d_a**2), np.ones(d_b**2)
        weights_a[0], weights_b[0] = 1.0 / d_a, 1.0 / d_b
        self._pair_weights = np.outer(weights_a, weights_b)

        # direction (v, j) of every block is A_v x e_j: A_v from the sparse
        # null basis carried to the block's copy side, e_j a diagonal unit
        # or an off-diagonal pair of B (transposed on tb blocks)
        units = np.stack(
            [np.diag(e).astype(complex) for e in np.eye(d_b)]
            + basis_b.elements[d_b:]
        )
        stacks = []
        for l, b in descs:
            side_a = self._acomp[l].shape[1]
            bmats = units.transpose(0, 2, 1) if b else units
            stacks.append(_kron_stack(null @ images[l], side_a, bmats))
            self.descriptors.append(
                BlockDescriptor(l, b, _desc_label(l, b), side_a * d_b)
            )
        # torus weights of the A_v and of the e_j, for invariant_directions
        self._weights = (
            _unit_weights(null, _occupations(d_a, k)),
            _unit_weights(units.reshape(d_b**2, -1), np.eye(d_b, dtype=np.int64)),
        )
        return stacks

    def _check_adjointness(self):
        """dual_pairing must be the exact adjoint of pinned_blocks in the
        trace pairing,

            sum_b Re Tr[pinned_blocks(y)[b] V_b] = Re Tr[y dual_pairing(V)],

        verified on a random Hermitian y on A x B and one random Hermitian
        V_b per block."""
        rng = np.random.default_rng(12345)
        y = _random_hermitian(rng, self.d_a * self.d_b)
        vs = [_random_hermitian(rng, d.side) for d in self.descriptors]
        lhs = sum(
            np.einsum("pq,qp->", f0, v).real
            for f0, v in zip(self.pinned_blocks(y), vs)
        )
        rhs = np.einsum("pq,qp->", y, self.dual_pairing(vs)).real
        scale = max(1.0, abs(lhs), abs(rhs))
        if abs(lhs - rhs) > policy.SELF_CHECK * scale:
            raise AssemblyError(
                f"embedding adjoint mismatch: {lhs!r} vs {rhs!r}"
            )

    def invariant_directions(self, grading):
        """The free directions invariant under the torus of grading
        (torus_grading), as an InvariantDirections.

        One entry is kept, replaced when another grading comes, so the
        points of a sweep share one set of reduced stacks and solver
        layouts; the lock makes concurrent callers wait for one build.
        """
        key = (grading.shape, grading.tobytes())
        with self._lock:
            if self._invariant is None or self._invariant[0] != key:
                self._invariant = None
                lift = _invariant_map(*self._weights, grading)
                stacks = sdp.DirectionStacks.from_blocks(
                    [lift @ stack for stack in self.stacks],
                    self.stacks.sides,
                    lift.shape[0],
                )
                self._invariant = (
                    key,
                    InvariantDirections(grading.shape[1] - 2, lift, stacks),
                )
            return self._invariant[1]

    # -- the per-state step ---------------------------------------------

    def pinned_blocks(self, rho_mat):
        """The F0 blocks of the problem for the state rho_mat."""
        y0 = self._pinned_coefficients(rho_mat)
        return [
            _kron_sum(
                _combine_copies(y0, self._acomp[d.a_transposed]),
                self._bstacks[d.b_transposed],
            )
            for d in self.descriptors
        ]

    # -- trace-down helpers ---------------------------------------------

    def _pinned_coefficients(self, mat):
        """Coefficients y[i, j] over s_i x sigma_j solving the trace-down
        constraint for mat, minimum norm within the symmetric support."""
        # expansion R[a, j] of mat over the product basis sigma_a x sigma_j
        rcoef = np.einsum("pq,nqp->n", mat, self._pair_basis).real.reshape(
            self._pair_weights.shape
        ) / self._pair_weights
        y = np.zeros((len(self._sbasis.elements), self.d_b**2))
        for rows, cols, pinv in self._pinvs.values():
            y[cols] += pinv @ rcoef[rows]
        return y

    def _adjoint_from_pairings(self, pair):
        """Map per-(s_i, sigma_j) trace pairings back to an A x B matrix
        through the transposed pseudo-inverse of the trace-down map."""
        rows, coefs = [], []
        for prow, cols, pinv in self._pinvs.values():
            rows.append(prow)
            coefs.append((pinv.T @ pair[cols]) / self._pair_weights[prow])
        d = self.d_a * self.d_b
        pairs = self._pair_basis.reshape(self.d_a**2, self.d_b**2, d, d)
        return (
            np.concatenate(coefs).ravel()[:, None, None]
            * pairs[np.concatenate(rows)].reshape(-1, d, d)
        ).sum(axis=0)

    def dual_pairing(self, z_blocks):
        """Witness operator (unnormalized) from certificate blocks.

        Un-transposes each dual block in its own coordinates and applies the
        adjoint of the pinned-part embedding.  Works entirely in compressed
        coordinates.
        """
        pair = sum(
            _block_pairings(
                z, self._acomp[desc.a_transposed], self._bstacks[desc.b_transposed]
            )
            for desc, z in zip(self.descriptors, z_blocks)
        )
        return self._adjoint_from_pairings(pair)


_shape_lock = threading.Lock()
_shape_memo = None  # (key, ExtensionShape) of the last shape built


def extension_shape(d_a, d_b, spec):
    """The ExtensionShape for (d_a, d_b, spec), reused while consecutive
    callers ask for the same one.

    One entry is kept: it is released before a different shape is built,
    so the memo never holds two shapes.  The lock makes concurrent callers
    that want the same shape wait for a single build.
    """
    global _shape_memo
    key = (d_a, d_b, spec)
    with _shape_lock:
        if _shape_memo is None or _shape_memo[0] != key:
            _shape_memo = None
            _shape_memo = (key, ExtensionShape(d_a, d_b, spec))
        return _shape_memo[1]


def build_extension_problem(rho, spec):
    """Assemble the level-k feasibility problem; returns (problem, shape).

    The rho-independent part comes from extension_shape, so states of one
    shape in a row share it.  When rho is invariant under a torus of
    diagonal phases (torus_grading), the problem is posed on the
    invariant directions only (ExtensionShape.invariant_directions), with
    the same F0 blocks, and problem.invariant holds them; otherwise on all
    of shape.stacks, and problem.invariant is None.
    """
    shape = extension_shape(rho.dim_a, rho.dim_b, spec)
    grading = torus_grading(rho)
    invariant = None if grading is None else shape.invariant_directions(grading)
    fs = shape.stacks if invariant is None else invariant.stacks
    problem = ExtensionProblem(
        f0s=shape.pinned_blocks(rho.matrix),
        fs=fs,
        c=np.zeros(fs.m),
        invariant=invariant,
    )
    return problem, shape


def check_extension_properties(ext, rho, k, ppt, tol=policy.RECHECK):
    """Direct verification of a level-k extension ext of rho, given in
    the coordinates the problem is solved in: an operator on
    Sym_k(A) x B, the plain block F0_0 + sum_i x_i F_i,0.

    The extension it stands for on the full copy space, ext lifted
    through the isometry of Sym_k(A), is invariant under every
    permutation of the copies by construction.  Its trace-down is the
    one-copy trace (_trace_one_copy) applied k - 1 times, compared with
    rho.  Each partial transpose of the level is formed on its block's
    copy side (_copy_image, with B transposed on tb blocks): on the full
    copy space it is that block padded with zeros, so their smallest
    eigenvalues agree wherever the full one is negative.

    Returns the largest trace-down deviation, the smallest eigenvalue
    over the partial transposes of the level (only the plain block when
    ppt is off), and whether both are within tol.
    """
    d_a, d_b = rho.dim_a, rho.dim_b
    traced = ext
    for copies in range(k, 1, -1):
        traced = _map_copies(traced, _trace_one_copy(d_a, copies), d_b)
    trace_dev = float(np.abs(traced - rho.matrix).max())
    min_eig = np.inf
    for l, b in transpose_descriptors(k, ppt):
        block = _map_copies(ext, _copy_image(d_a, k, l), d_b, transpose_b=b)
        block = (block + block.conj().T) / 2
        min_eig = min(min_eig, float(np.linalg.eigvalsh(block)[0]))
    return {
        "trace_down_deviation": trace_dev,
        "min_transpose_eigenvalue": min_eig,
        "passed": bool(trace_dev <= tol and min_eig >= -tol),
    }


@dataclass
class TestReport:
    spec: ExtensionSpec
    status: str
    margin: float
    iterations: int
    solver_status: str
    metadata: dict
    extension: np.ndarray = None
    extension_checks: dict = None
    dual_blocks: list = None
    certificate_check: object = None
    witness: object = None


def run_test(rho, spec, tolerances=None, trace=None):
    """Run one level of the hierarchy and package the evidence.

    Infeasibility yields a verified certificate plus an extracted witness;
    feasibility yields the extension itself, on Sym_k(A) x B, re-checked
    directly against the defining properties (check_extension_properties)
    in those coordinates, at every level.
    """
    problem, shape = build_extension_problem(rho, spec)
    invariant = problem.invariant
    outcome = sdp.feasibility_margin(problem, tolerances=tolerances, trace=trace)
    if invariant is not None:
        outcome.x = invariant.lift.T @ outcome.x
    metadata = {
        "torus_dimension": 0 if invariant is None else invariant.torus_dimension,
        "free_directions": shape.m,
        "invariant_directions": problem.m,
        "block_sides": [d.side for d in shape.descriptors],
        "block_labels": [d.label for d in shape.descriptors],
        "solver": dict(outcome.diagnostics),
    }
    common = dict(
        spec=spec,
        margin=outcome.margin_t,
        iterations=outcome.iterations,
        solver_status=outcome.status,
        metadata=metadata,
    )
    if outcome.status == sdp.FEASIBLE:
        f0 = problem.f0s[0]
        ext = f0 + (shape.stacks.transposed()[0] @ outcome.x).reshape(f0.shape)
        checks = check_extension_properties(ext, rho, spec.k, spec.ppt)
        if not checks["passed"]:
            raise SolverFailure(
                f"extension re-check failed: {checks}", outcome=outcome
            )
        return TestReport(
            status=SEPARABLE_CONSISTENT,
            extension=ext,
            extension_checks=checks,
            **common,
        )
    if outcome.status == sdp.INFEASIBLE:
        from . import witness as witness_mod

        full = problem
        if invariant is not None:
            full = sdp.SdpProblem(
                f0s=problem.f0s, fs=shape.stacks, c=np.zeros(shape.m)
            )
        check = sdp.verify_certificate(full, outcome.z_blocks)
        if not check.passed:
            raise SolverFailure(
                f"infeasibility claimed but certificate failed independent "
                f"verification: {check}",
                outcome=outcome,
            )
        wit = witness_mod.extract_witness(shape, full, rho, outcome.z_blocks)
        report = TestReport(status=ENTANGLED, **common)
        report.dual_blocks = outcome.z_blocks
        report.certificate_check = check
        report.witness = wit
        return report
    if outcome.status == sdp.MARGINAL:
        return TestReport(status=MARGINAL, **common)
    raise SolverFailure(
        f"solver did not reach a verdict (status {outcome.status}, "
        f"{outcome.iterations} iterations, diagnostics {outcome.diagnostics})",
        outcome=outcome,
    )


@dataclass
class LadderReport:
    reports: list
    final_status: str
    monotonicity_checks: list = field(default_factory=list)


def run_ladder(rho, k_max, ppt=True, tolerances=None, trace=None):
    """Run levels 1..k_max, stopping early once entanglement is certified.

    A marginal level does not terminate the ladder.  At each feasible level
    above the first, the reported extension traced down by one copy is
    checked to be a valid extension one level below (monotonicity).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    reports = []
    mono = []
    for k in range(1, k_max + 1):
        spec = ExtensionSpec(k=k, ppt=ppt)
        rep = run_test(rho, spec, tolerances=tolerances, trace=trace)
        reports.append(rep)
        if rep.status == SEPARABLE_CONSISTENT and k > 1:
            traced = _map_copies(
                rep.extension, _trace_one_copy(rho.dim_a, k), rho.dim_b
            )
            chk = check_extension_properties(traced, rho, k - 1, ppt)
            mono.append({"level": k, **chk})
            if not chk["passed"]:
                raise SolverFailure(
                    f"monotonicity violated at level {k}: traced-down "
                    f"extension fails level {k - 1} properties: {chk}"
                )
        if rep.status == ENTANGLED:
            break
    return LadderReport(
        reports=reports, final_status=reports[-1].status, monotonicity_checks=mono
    )
