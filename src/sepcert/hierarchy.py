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
then supported on Sym_l x Sym_(k-l) x B.  The free directions come
from a sparse basis of the null space of the trace-down map on
operators of Sym_k(A), built from matrix units of the occupation basis
with a few coefficients each: D_r x e_j for the diagonal null vectors
D_r, e_j a diagonal unit or an off-diagonal pair of B, and the two
Hermitian parts of U_t x E for the off-diagonal ones U_t, E any unit of
B.  Every entry of a transposed block's copy side comes from one entry
of an operator on Sym_k(A), so the stacks store only what the units put
there, and their size is known exactly before they are built.  The
pinned part is the minimum-norm solution X0 = T^T (T T^T)^-1 rho of the
trace-down constraint on Sym_k(A) x B, one B entry at a time, T the
sparse unit map of the trace-down (_trace_down); T T^T is a scalar on
every off-diagonal unit of A and d_a x d_a on the diagonal ones.  So
every entry of X0 comes from rho entries of its own torus weight
(below), and X0 is exactly zero between basis vectors of different
weights.  The witness map is the exact adjoint of the pinned part, built
from the same unit maps.

Every feasible verdict is re-checked on its evidence, at every level and
in the same coordinates (check_extension_properties).  The plain block
X = F0_0 + sum_i x_i F_i,0 is the extension compressed onto
Sym_k(A) x B, so it is permutation invariant by construction; its
trace-down is a closed-form one-copy trace on the occupation basis,
applied k - 1 times and compared with rho, and each partial transpose
is X carried to its block's copy side, whose smallest eigenvalue is
taken.  Nothing is lifted to the full copy space, of side d_a^k d_b.

A state whose exactly-zero entries make it invariant under a torus of
diagonal phases U_A x U_B (torus_grading) is posed on the invariant
free directions only.  Averaging an extension over the torus keeps the
three properties and, rho being invariant, the traced-down state, so an
invariant extension exists whenever any does, and the verdict and margin
do not change.  Every D_r and U_t is built from matrix units of one
torus weight, and every direction is the Hermitian part of its product
with a unit of B, so it carries one weight up to sign, known before any
block is built (_directions): the gate counts and the build makes only
the directions whose weight the torus fixes.  Only exact zeros count,
decided in integer arithmetic, and a state without zeros is posed on
every direction.  A certificate is checked on every free direction,
posed or not, without any stack (ExtensionShape.pairing_violation).
"""

import functools
import math
import threading
import warnings
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

from . import sdp
from . import tolerances as policy
from .tensorops import (
    FactorError,
    TensorSpace,
    check_hermitian,
    multisets,
    symmetric_subspace_dim,
)

SEPARABLE_CONSISTENT = "separable_consistent"
ENTANGLED = "entangled"
MARGINAL = "marginal"

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


def required_resources(d_a, d_b, spec, grading=None, points=1):
    """Arithmetic estimate of the posed problem's memory and cost: on
    every free direction without a grading, else on those whose weight the
    grading fixes (_posed), which free_directions counts.

    Each direction is built from the sparse null basis (_null_basis)
    carried to the block's copy side and from units of B, so each block's
    stored entries are counted exactly from the patterns
    (_entries_per_direction) before anything is built.  stack_bytes counts,
    for the given number of points of this shape solved in lockstep
    (run_tests), once

      * the CSR stacks four times over, at 24 bytes per stored entry and
        8 per row: as assembled, the transient copy of one block's posed
        rows that sdp.BlockSplit reads (all blocks counted), and the two
        layouts the solver multiplies with (the packed stack of
        sdp.BlockSplit, the margin direction appended, and the chunks of
        sdp.schur_stacks, n_b rows per direction);

    and once per point

      * 32 packed block-diagonal matrices for the iterates and the step;
      * the dense transients of the largest Schur assembly chunk
        (sdp.schur_chunk(m + 1, e, 16) columns for the e = g n^2 entries
        of the g blocks of side n), about sdp.SCHUR_CHUNK_BYTES;
      * the (m + 1) x (m + 1) Schur matrix, factored in place.

    The pinned part and the witness map act through the sparse unit maps
    the stacks are built from (_trace_down, _copy_image), which hold no
    more entries than the blocks themselves, so they are not counted.  A
    problem whose Schur matrix alone is over MEMORY_BUDGET_BYTES is
    refused whatever its stacks hold, so they are left uncounted:
    stored_entries is None, and stack_bytes and the flops are lower
    bounds.  Complex values are assumed throughout.
    schur_flops_per_iteration is sum_b (2 m n_b^3 + 2 nnz_b (m + n_b)):
    the dense S^-1 product, and the two sparse products with the stack,
    F Z and the trace pairing, for blocks that stay whole; the solver cuts
    a block whose pattern allows it into smaller components, which costs
    less.
    """
    k = spec.k
    posed = slice(None) if grading is None else _posed(d_a, d_b, k, grading)
    m = free_direction_count(d_a, d_b, k) if grading is None else int(posed.sum())
    descs = transpose_descriptors(k, spec.ppt)
    sides = [
        symmetric_subspace_dim(d_a, l) * symmetric_subspace_dim(d_a, k - l) * d_b
        for l, _ in descs
    ]
    schur_bytes = 8 * (m + 1) ** 2
    counted = schur_bytes <= MEMORY_BUDGET_BYTES
    nnz = [
        int(_entries_per_direction(d_a, d_b, k, l)[posed].sum()) if counted else 0
        for l, _ in descs
    ]
    csr_bytes = 4 * sum(24 * z + 8 * m * n for z, n in zip(nnz, sides))
    iterate_bytes = 32 * 16 * sum(n * n for n in sides)
    workspace_bytes = max(
        16 * sdp.schur_chunk(m + 1, e, 16) * (3 * e + m + 1)
        for e in (sides.count(n) * n * n for n in sides)
    )
    return {
        "free_directions": m,
        "block_sides": sides,
        "block_labels": [_desc_label(l, b) for l, b in descs],
        "stored_entries": nnz if counted else None,
        "stack_bytes": csr_bytes + points * (iterate_bytes + workspace_bytes + schur_bytes),
        "schur_flops_per_iteration": float(
            sum(2 * m * n**3 + 2 * z * (m + n) for z, n in zip(nnz, sides))
        ),
    }


_Kind = namedtuple("_Kind", "vecs width adjoint bdir brow bcol bval weight_a weight_b")


@functools.lru_cache(maxsize=64)
def _directions(d_a, d_b, k):
    """The two kinds of free direction of level k, D_r x e with e = E_jj
    or the Gell-Mann pair of a < b, and U_t x E + h.c. and -i U_t x E + h.c.
    for every unit E = |a><b| of B.  Each kind holds its A rows (null
    vectors over the units of Sym_k(A)), width B directions per row, whether
    the adjoint is added, the direction, row, column and value of every B
    entry, and the torus weights of the rows and of the B directions.
    Direction (r, s) of a kind is number offset + r * width + s, offset the
    count of the kinds before it; its weight is that of its first unit on A
    and first entry on B, which every other entry carries too, or its
    negative in the adjoint part.  Cached and read-only: the build, the
    gate and the certificate check share it.
    """
    diag, upper = _null_basis(d_a, k)
    nb = d_b * d_b
    j, (a, b) = np.arange(d_b), np.triu_indices(d_b, 1)
    pair, root = d_b + 2 * np.arange(len(a)), np.full(len(a), 1 / np.sqrt(2))
    ua, ub = np.divmod(np.arange(nb), d_b)
    occ, eye = _occupations(d_a, k), np.eye(d_b, dtype=np.int64)
    kinds = []
    for vecs, width, adjoint, bdir, brow, bcol, bval in (
        (diag, nb, False, np.concatenate([j, pair, pair, pair + 1, pair + 1]),
         np.concatenate([j, a, b, a, b]), np.concatenate([j, b, a, b, a]),
         np.concatenate([np.ones(d_b), root, root, -1j * root, 1j * root])),
        (upper, 2 * nb, True, np.arange(2 * nb), np.repeat(ua, 2),
         np.repeat(ub, 2), np.tile([1, -1j], nb)),
    ):
        mu, nu = np.divmod(vecs.indices[vecs.indptr[:-1]], len(occ))
        first = np.unique(bdir, return_index=True)[1]
        kinds.append(_Kind(vecs, width, adjoint, bdir, brow, bcol, bval,
                           occ[mu] - occ[nu], eye[brow[first]] - eye[bcol[first]]))
    return tuple(kinds)


def _posed(d_a, d_b, k, grading):
    """Whether the torus of grading (torus_grading) fixes each free
    direction, in direction order: w @ grading == 0 for its weight w."""
    return np.concatenate([
        ~((kind.weight_a @ grading[:d_a])[:, None, :]
          + (kind.weight_b @ grading[d_a:])[None, :, :]).any(axis=2).ravel()
        for kind in _directions(d_a, d_b, k)
    ])


@functools.lru_cache(maxsize=64)
def _entries_per_direction(d_a, d_b, k, l):
    """Stored entries of each free direction in the block with l
    transposed copies, from the patterns.  Each entry of a block's copy
    side comes from one unit |mu><nu| (_copy_image), and the units of one
    null vector differ, so a D_r or U_t has as many entries in the block
    as the image rows of its units hold; D_r x e holds that many times
    one entry of B for a diagonal e and two for a pair, U_t x E + h.c.
    twice, its two terms sharing no entry.  Cached and read-only.
    """
    per_unit = np.diff(_copy_image(d_a, k, l).indptr)  # one column per unit
    counts = []
    for kind in _directions(d_a, d_b, k):
        per_row = np.add.reduceat(per_unit[kind.vecs.indices], kind.vecs.indptr[:-1])
        per_dir = np.bincount(kind.bdir, minlength=kind.width) * (1 + kind.adjoint)
        counts.append(np.outer(per_row, per_dir).ravel())
    return np.concatenate(counts)


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


@functools.lru_cache(maxsize=64)
def _null_basis(d, k):
    """Sparse basis of the null space of the trace-down map Tr_(2..k) on
    operators of Sym_k(C^d), as two CSR matrices over the matrix units
    |mu><nu| of the occupation basis (column mu * dsym + nu), each row
    the coefficients of one operator.  Tr_(2..k) |mu><nu| is
    sqrt(mu_a nu_b) / k |a><b| when mu = kappa + a and nu = kappa + b for
    one (k-1)-multiset kappa, and zero otherwise, so the null space has a
    basis of three kinds of vectors:

      * |mu><mu| - sum_a (mu_a / k) |k a><k a| for every mu that is not a
        pure k a: an echelon basis of the null space of the occupation
        count on the diagonal, the rows D_r of the first matrix;
      * |mu><nu| / sqrt2 for mu < nu multisets that differ in two or more
        slots;
      * within one class a < b of units U_kappa = |kappa + a><kappa + b|
        of trace-down weight w_kappa = sqrt(mu_a nu_b) / k,
        (U_kappa - (w_kappa / w_0) U_0) / sqrt2, U_0 the first unit of
        largest weight in the class.

    The last two kinds are the rows U_t of the second matrix, each
    strictly upper triangular and made of units of one torus weight; with
    the D_r, the Hermitian parts U_t + U_t^dag and -i U_t + i U_t^dag span
    the Hermitian null space.  A D_r stores at most d + 1 coefficients
    and a U_t at most two, all real and of magnitude at most one.  Cached
    and read-only, like _copy_image.
    """
    occ = _occupations(d, k)
    n = len(occ)
    # off-diagonal terms: coefficient c of |p><q| in class t
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
    upper = sps.csr_array(
        (np.concatenate(c) / np.sqrt(2), (pair, p * n + q)), shape=(npairs, n * n)
    )

    pure = np.argmax(occ == k, axis=0)  # position of the multiset k a
    mixed = np.nonzero(occ.max(axis=1) < k)[0]
    row, letter = np.nonzero(occ[mixed])
    ndiag = len(mixed)
    rows = np.concatenate([np.arange(ndiag), row])
    cols = np.concatenate([mixed, pure[letter]]) * (n + 1)
    vals = np.concatenate([np.ones(ndiag), -occ[mixed[row], letter] / k])
    diag = sps.csr_array((vals, (rows, cols)), shape=(ndiag, n * n))
    return diag, upper


@functools.lru_cache(maxsize=64)
def _trace_down(d, k):
    """The trace-down map Tr_(2..k) from operators on Sym_k(C^d) to those
    on C^d, as a sparse real (d^2, dsym^2) matrix T on row-major vecs:
    vec(Tr_(2..k) X) = T vec(X), X on the occupation basis.

    Tr_(2..k) |kappa + a><kappa + b| = sqrt(mu_a nu_b) / k |a><b| with
    mu = kappa + a and nu = kappa + b, for every (k-1)-multiset kappa;
    every other unit traces down to zero, and each (mu, nu, a, b) comes
    from one kappa.  So two rows a != b and a' != b' share no column
    unless (a, b) = (a', b'), and T T^T is a scalar on every off-diagonal
    unit and a d x d block on the diagonal ones.  Cached and read-only,
    like _copy_image.
    """
    n = symmetric_subspace_dim(d, k)
    kappa = _occupations(d, k - 1)
    a, b = np.divmod(np.arange(d * d), d)
    eye = np.eye(d, dtype=int)
    mu = _occupation_index(d, k, kappa[:, None, :] + eye[a])
    nu = _occupation_index(d, k, kappa[:, None, :] + eye[b])
    weight = np.sqrt((kappa[:, a] + 1) * (kappa[:, b] + 1)) / k
    rows = np.broadcast_to(np.arange(d * d), weight.shape)
    return sps.csr_array(
        (weight.ravel(), (rows.ravel(), (mu * n + nu).ravel())), shape=(d * d, n * n)
    )


@functools.lru_cache(maxsize=64)
def _copy_image(d, k, l):
    """The map X -> comp^T PT_(1..l)(iso X iso^T) comp from operators X on
    Sym_k(C^d) to the copy side of the block with l transposed copies, as
    a sparse (side^2, dsym^2) matrix M on row-major vecs, vec(image) =
    M vec(X), in CSC form; iso is the isometry of Sym_k and comp that of
    Sym_l x Sym_(k-l).

    Sym_k sits in Sym_l x Sym_(k-l) through the overlaps
    <alpha, beta | alpha + beta> = sqrt(N(alpha) N(beta) / N(alpha + beta)),
    N the arrangement count.  Entry [(a, b), (a', b')] of the image is
    X[mu, nu] times two overlaps, with mu = a' + b and nu = a + b' (a, a'
    in Sym_l, b, b' in Sym_(k-l)): each entry of the image comes from
    exactly one entry of X.  Cached: the stack build, the entry count and
    the extension re-check share one matrix per (d, k, l) and only read it.
    Its transpose, a CSR view of the same arrays, is the adjoint's map.
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
    ).T


@functools.lru_cache(maxsize=64)
def _trace_one_copy(d, k):
    """The trace over one copy, from operators on Sym_k(C^d) to operators
    on Sym_(k-1)(C^d), as a sparse (dsym_(k-1)^2, dsym_k^2) matrix acting
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
    ).T


def _map_copies(ext, cmap, d_b, transpose_b=False):
    """Apply cmap, a map from operators on C^n to those on C^n' given as
    an (n'^2, n^2) matrix on row-major vecs (_copy_image, _trace_one_copy,
    a map ExtensionShape holds, or a transpose of one), to an operator on
    C^n x B, one B entry at a time; B is transposed as well when
    transpose_b is set."""
    n_out, n = math.isqrt(cmap.shape[0]), math.isqrt(cmap.shape[1])
    vecs = ext.reshape(n, d_b, n, d_b).transpose(0, 2, 1, 3).reshape(n * n, -1)
    out = (cmap @ vecs).reshape(n_out, n_out, d_b, d_b)
    axes = (0, 3, 1, 2) if transpose_b else (0, 2, 1, 3)
    return out.transpose(axes).reshape(n_out * d_b, n_out * d_b)


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
    dimension r - 2, and None stands for r = 2.  Cached on the zero
    pattern, so states that share their zeros share one read-only array.
    """
    return _torus_grading(rho.dim_a, rho.dim_b, (rho.matrix != 0).tobytes())


@functools.lru_cache(maxsize=64)
def _torus_grading(d_a, d_b, pattern):
    """torus_grading of the states whose nonzero entries are pattern, the
    bytes of a boolean (d_a d_b, d_a d_b) array."""
    n = d_a + d_b
    rows, cols = np.nonzero(np.frombuffer(pattern, bool).reshape(d_a * d_b, -1))
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
    grading = np.array(gens, dtype=np.int64).T
    grading.flags.writeable = False
    return grading


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class ExtensionShape:
    """The part of a level-k extension problem that does not depend on rho.

    rho enters only through the trace-down constraint, which pins the F0
    blocks, and through its torus (grading, from torus_grading, or None).
    Everything else is fixed by (d_a, d_b, k, ppt, grading): the map
    T^T (T T^T)^-1, T the trace-down map on the units of Sym_k(A), its Gram
    factored once (a Gram that is not positive definite is an
    AssemblyError: T must be onto the operators on A); the copy maps of
    the blocks (_copy_image); the block descriptors; and stacks, one
    sdp.DirectionStacks of the posed directions (those the torus fixes,
    every one without it), built in one pass per block.  Each map, and
    the transpose the adjoint applies, is held as _map_copies applies it,
    so no call transposes a sparse matrix.  m counts every free direction,
    stacks.m the posed ones, which the gate counts.  pinned_blocks is the
    per-state step, dual_pairing its adjoint, extension the extension a
    solution stands for, and pairing_violation checks a certificate on
    every free direction.
    """

    def __init__(self, d_a, d_b, spec, grading=None):
        self.d_a = d_a
        self.d_b = d_b
        self.spec = spec
        self.k = spec.k
        self.grading = grading
        self.m = free_direction_count(d_a, d_b, spec.k)
        self.descriptors = []
        res = required_resources(d_a, d_b, spec, grading)
        if res["stack_bytes"] > MEMORY_BUDGET_BYTES:
            raise AssemblyError(
                f"assembled problem would need about {res['stack_bytes'] / 1e9:.1f} "
                "GB of working memory",
                resources=res,
            )
        self.stacks = sdp.DirectionStacks(self._build_stacks())
        # the plain block's directions as columns, for extension
        self._plain = self.stacks[0].T
        self._check_adjointness()

    # -- construction ----------------------------------------------------

    def _build_stacks(self):
        """The posed directions compressed onto the symmetric subspace, and
        the pinned-part map; returns the block stacks."""
        d_a, d_b, k = self.d_a, self.d_b, self.k
        trace_down = _trace_down(d_a, k)
        try:
            factor = np.linalg.cholesky((trace_down @ trace_down.T).toarray())
        except np.linalg.LinAlgError:
            raise AssemblyError(
                "trace-down Gram T T^T is not positive definite: the map is "
                "not onto the operators on A"
            ) from None
        # T^T (T T^T)^-1 takes rho to the minimum-norm solution of the
        # trace-down constraint, one B entry at a time; its transpose is the
        # adjoint's map.  Every map is held as _map_copies applies it
        self._pin = sps.csr_array(sla.cho_solve((factor, True), trace_down.toarray())).T
        self._pin_adjoint = self._pin.T
        # with a grading, each posed direction's number among them; only the
        # A rows that hold one are carried to the copy sides
        posed = None if self.grading is None else _posed(d_a, d_b, k, self.grading)
        number = None if posed is None else np.cumsum(posed) - 1
        m = self.m if posed is None else int(posed.sum())

        # each block in one pass, from the entries of the A rows carried
        # to its copy side, B transposed on tb blocks.  The adjoint of
        # U_t x E sits at the transposed positions: its weight is the
        # negative of a nonzero one, so the two share no entry
        descs = transpose_descriptors(k, self.spec.ppt)
        self._images = {l: _copy_image(d_a, k, l) for l, _ in descs}
        self._adjoints = {l: image.T for l, image in self._images.items()}
        stacks = []
        for l, tb in descs:
            side_a = math.isqrt(self._images[l].shape[0])
            side = side_a * d_b
            parts, offset = [], 0
            for kind in _directions(d_a, d_b, k):
                brow, bcol = (kind.bcol, kind.brow) if tb else (kind.brow, kind.bcol)
                size = kind.vecs.shape[0] * kind.width
                vecs, used = kind.vecs, None
                if posed is not None:
                    used = posed[offset:offset + size].reshape(-1, kind.width)
                    used = np.flatnonzero(used.any(axis=1))
                    vecs = vecs[used]
                coo = (vecs @ self._adjoints[l]).tocoo()
                r, s = np.divmod(coo.col, side_a)
                arow = coo.row if used is None else used[coo.row]
                row = (offset + arow[:, None] * kind.width + kind.bdir).ravel()
                p = (r[:, None] * d_b + brow).ravel()
                q = (s[:, None] * d_b + bcol).ravel()
                val = (coo.data[:, None] * kind.bval).ravel()
                if posed is not None:
                    keep = posed[row]
                    row, p, q, val = number[row[keep]], p[keep], q[keep], val[keep]
                parts.append((row, p * side + q, val))
                if kind.adjoint:
                    parts.append((row, q * side + p, val.conj()))
                offset += size
            rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
            stacks.append(sps.csr_array((vals, (rows, cols)), shape=(m, side * side)))
            self.descriptors.append(BlockDescriptor(l, tb, _desc_label(l, tb), side))
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

    # -- the per-state step ---------------------------------------------

    def pinned_blocks(self, rho_mat):
        """The F0 blocks of the problem for the state rho_mat: the
        minimum-norm solution X0 = T^T (T T^T)^-1 rho of the trace-down
        constraint on Sym_k(A) x B, carried to each block's copy side."""
        ext = _map_copies(rho_mat, self._pin, self.d_b)
        return [
            _map_copies(ext, self._images[d.a_transposed], self.d_b, d.b_transposed)
            for d in self.descriptors
        ]

    def extension(self, f0, x):
        """The plain block F0_0 + sum_i x_i F_i,0 of the posed directions:
        the extension on Sym_k(A) x B that x stands for."""
        return f0 + (self._plain @ x).reshape(f0.shape)

    def dual_pairing(self, z_blocks, image=None):
        """Witness operator (unnormalized) from certificate blocks: the
        exact adjoint of pinned_blocks in the trace pairing.

        A map X -> M^T vec(X) on row-major vecs has the adjoint
        V -> (unvec M vec(V^T))^T.  So the transposed copy map of each
        block, applied to Z_b^T one B entry at a time (B transposed back
        on tb blocks), gives the transpose of the block's adjoint image on
        Sym_k(A) x B (adjoint_image, or image when given); the transposed
        pinned-part map (T T^T)^-1 T takes their sum to A x B, and one
        more transpose gives the adjoint.
        """
        if image is None:
            image = self.adjoint_image(z_blocks)
        return _map_copies(image, self._pin_adjoint, self.d_b).T

    def adjoint_image(self, z_blocks):
        """The transpose of Y = sum_b Gamma_b^dag(Z_b) on Sym_k(A) x B,
        Gamma_b the map X -> F_b of block b: the transposed copy map of
        each block applied to Z_b^T one B entry at a time, B transposed
        back on tb blocks."""
        return sum(
            _map_copies(np.asarray(z).T, self._adjoints[d.a_transposed], self.d_b,
                        d.b_transposed)
            for d, z in zip(self.descriptors, z_blocks)
        )

    def pairing_violation(self, z_blocks, image=None):
        """max_i |Re Tr[F_i Z]| over every free direction of the level,
        posed or not, without any direction stack.  F_i is V x E carried to
        the blocks, V a null-basis row and E a B part (_directions), plus
        its adjoint or not, so Tr[F_i Z] is Tr[(V x E) Y], or twice its real
        part, with Y = sum_b Gamma_b^dag(Z_b), the first half of
        dual_pairing.  Z enters through its Hermitian part, which keeps
        Re Tr[F_i Z], the pairing sdp.verify_certificate checks; image,
        when given, is the adjoint_image of Hermitian z_blocks.
        """
        d_b, n = self.d_b, symmetric_subspace_dim(self.d_a, self.k)
        if image is None:
            image = self.adjoint_image([(z + np.conj(z).T) / 2 for z in map(np.asarray, z_blocks)])
        # Y^T, entry [(mu, nu), (a, b)] the pairing of |mu><nu| x |a><b| with Y
        y = image.reshape(n, d_b, n, d_b)
        y = y.transpose(0, 2, 1, 3).reshape(n * n, d_b * d_b)
        worst = 0.0
        for kind in _directions(self.d_a, d_b, self.k):
            bpart = np.zeros((d_b * d_b, kind.width), dtype=complex)
            np.add.at(bpart, (kind.brow * d_b + kind.bcol, kind.bdir), kind.bval)
            pairs = (1 + kind.adjoint) * ((kind.vecs @ y) @ bpart).real
            worst = max(worst, float(np.abs(pairs).max(initial=0.0)))
        return worst


_shape_lock = threading.Lock()
# key -> (ExtensionShape, its shared bytes), least recently used first
_shape_memo = {}


def extension_shape(d_a, d_b, spec, grading=None):
    """The ExtensionShape for (d_a, d_b, spec, grading), reused whenever a
    caller asks for one that is kept: the points of a sweep, which share
    their zeros and so their grading, and runs that alternate a few shapes.

    Shapes are kept within MEMORY_BUDGET_BYTES, by the gate's own
    estimates.  Before a shape is built, the least recently used ones are
    released until the bytes the kept ones share among their points
    (required_resources at points=0) and the full estimate of the new one
    fit the budget together.  The lock makes concurrent callers that want
    the same shape wait for a single build.
    """
    torus = None if grading is None else (grading.shape, grading.tobytes())
    key = (d_a, d_b, spec, torus)
    with _shape_lock:
        if key not in _shape_memo:
            need = required_resources(d_a, d_b, spec, grading)["stack_bytes"]
            # a shape over the budget on its own is refused by its gate, and
            # releases nothing
            while _shape_memo and need <= MEMORY_BUDGET_BYTES < need + sum(
                kept for _, kept in _shape_memo.values()
            ):
                del _shape_memo[next(iter(_shape_memo))]
            shared = required_resources(d_a, d_b, spec, grading, points=0)["stack_bytes"]
            _shape_memo[key] = (ExtensionShape(d_a, d_b, spec, grading), shared)
        # most recently used last
        _shape_memo[key] = _shape_memo.pop(key)
        return _shape_memo[key][0]


def build_extension_problem(rho, spec):
    """Assemble the level-k feasibility problem; returns (problem, shape).

    The problem is posed on shape.stacks: the directions invariant under
    rho's torus of diagonal phases (torus_grading), or every free
    direction when rho has none.  The rho-independent part comes from
    extension_shape, so states of one shape and torus in a row share it.
    """
    shape = extension_shape(rho.dim_a, rho.dim_b, spec, torus_grading(rho))
    problem = sdp.SdpProblem(f0s=shape.pinned_blocks(rho.matrix), fs=shape.stacks)
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
    return run_tests([rho], spec, tolerances=tolerances, trace=trace)[0]


def run_tests(rhos, spec, tolerances=None, trace=None, jobs=1):
    """run_test on each state; returns the reports in order.

    The states are cut into jobs contiguous parts, run on as many threads.
    Within a part, consecutive states of one shape, as the points of a
    sweep, are solved in lockstep (sdp.feasibility_margin on their list),
    as many at a time as fit the part's share of MEMORY_BUDGET_BYTES: the
    shared stacks count once, and each point of every part in flight adds
    the per-point terms of required_resources.  Each report is the one its
    state gets alone, however the states are cut.
    """
    rhos = list(rhos)
    jobs = max(1, min(jobs, len(rhos)))

    def part_reports(part):
        reports, batch = [], []

        def flush():
            # a lone problem goes bare, so that a wrapper of
            # feasibility_margin sees the problem as run_test hands it over
            problems = [problem for _, problem, _ in batch]
            solve = functools.partial(sdp.feasibility_margin, tolerances=tolerances, trace=trace)
            outcomes = solve(problems) if len(problems) > 1 else [solve(problems[0])]
            reports.extend(_report(*point, spec, out) for point, out in zip(batch, outcomes))
            batch.clear()

        for rho in part:
            problem, shape = build_extension_problem(rho, spec)
            if batch and (shape is not batch[0][2] or len(batch) == size):
                flush()
            if not batch and len(part) > 1:
                shared, one = (
                    required_resources(shape.d_a, shape.d_b, spec, shape.grading, points)
                    ["stack_bytes"] for points in (0, 1)
                )
                size = max(1, (MEMORY_BUDGET_BYTES - shared) // (jobs * (one - shared)))
            batch.append((rho, problem, shape))
        if batch:
            flush()
        return reports

    if jobs == 1:
        return part_reports(rhos)
    parts = [rhos[i * len(rhos) // jobs:(i + 1) * len(rhos) // jobs] for i in range(jobs)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return [rep for part in pool.map(part_reports, parts) for rep in part]


def _report(rho, problem, shape, spec, outcome):
    """The TestReport of rho's problem from the outcome of its solve."""
    metadata = {
        "torus_dimension": 0 if shape.grading is None else shape.grading.shape[1] - 2,
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
        ext = shape.extension(problem.f0s[0], outcome.x)
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

        # PSD and the objective on the posed problem, the pairing with every
        # free direction from the shape; the solver's blocks are exactly
        # Hermitian, so one adjoint image serves the pairing and the witness
        check = sdp.verify_certificate(problem, outcome.z_blocks)
        image = shape.adjoint_image(outcome.z_blocks)
        violation = shape.pairing_violation(outcome.z_blocks, image)
        check = replace(check, constraint_violation=violation,
                        passed=check.passed and violation <= policy.CERT_TOL)
        if not check.passed:
            raise SolverFailure(
                f"infeasibility claimed but certificate failed independent "
                f"verification: {check}",
                outcome=outcome,
            )
        wit = witness_mod.extract_witness(shape, problem, rho, outcome.z_blocks, image)
        return TestReport(status=ENTANGLED, dual_blocks=outcome.z_blocks,
                          certificate_check=check, witness=wit, **common)
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
    """Run levels 1..k_max, or 2..k_max without partial transposes (level
    1 would test nothing), stopping early once entanglement is certified.

    A marginal level does not terminate the ladder.  At each feasible level
    above the first, the reported extension traced down by one copy is
    checked to be a valid extension one level below (monotonicity).
    """
    first = 1 if ppt else 2
    if k_max < first:
        raise ValueError(f"k_max must be at least {first}, got {k_max}")
    reports = []
    mono = []
    for k in range(first, k_max + 1):
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
