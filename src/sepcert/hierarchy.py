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
then supported on Sym_l x Sym_(k-l) x B.  Free directions are a Hermitian
basis of operators on Sym_k(A) tensored with a basis of B, restricted to
the null space of the trace-down map; the pinned part is the
minimum-norm symmetric-subspace solution of the trace-down constraint.
"""

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
    partial_trace,
    partial_transpose_multi,
    permute_factors,
    symmetric_isometry,
    symmetric_subspace_dim,
)

SEPARABLE_CONSISTENT = "separable_consistent"
ENTANGLED = "entangled"
MARGINAL = "marginal"

AMBIENT_CAP = 4000
MEMORY_BUDGET_BYTES = 2_500_000_000
RECHECK_CAP = 2000


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

    Every direction is A x sigma_j with sigma_j from hermitian_basis(d_b)
    and A a side_a x side_a matrix on the copies, so a block stores at
    most (m / d_b^2) * side_a^2 * (entries of the whole B basis) values;
    that bound stands in for the block's nnz.  stack_bytes counts

      * the CSR stacks five times over: as assembled, with the margin
        direction appended, their real copy, and the two re-layouts the
        Schur assembly multiplies with (sdp.schur_stacks);
      * the dense A factors the build hands to the Kronecker product
        (held twice);
      * the Schur assembly workspace of the largest chunk (sdp.schur_block
        over c_b = sdp.schur_chunk(m + 1, n_b, 16) direction columns): the
        two reused (n_b^2, c_b) arrays, the fresh sparse product of the
        same size, and the (m, c_b) contraction;
      * the m x m Schur matrix and its Cholesky factor;
      * the product basis of A x B that the per-state step contracts rho
        against.

    Complex values are assumed throughout.  schur_flops_per_iteration is
    sum_b (2 m n_b^3 + 2 m nnz_b): the dense S^-1 product plus the sparse
    trace pairing.
    """
    k = spec.k
    m = free_direction_count(d_a, d_b, k)
    descs = transpose_descriptors(k, spec.ppt)
    sides_a = [
        symmetric_subspace_dim(d_a, l) * symmetric_subspace_dim(d_a, k - l)
        for l, _ in descs
    ]
    sides = [s * d_b for s in sides_a]
    groups = m // d_b**2
    b_entries = sum(int(np.count_nonzero(e)) for e in hermitian_basis(d_b).elements)
    nnz = [groups * s**2 * b_entries for s in sides_a]
    csr_bytes = 5 * sum(20 * z + 4 * m * n for z, n in zip(nnz, sides))
    factor_bytes = 2 * 16 * groups * max(sides_a) ** 2
    workspace_bytes = max(
        16 * sdp.schur_chunk(m + 1, n, 16) * (3 * n * n + m) for n in sides
    )
    schur_bytes = 2 * 8 * m * m
    pair_bytes = 16 * (d_a * d_b) ** 4
    return {
        "free_directions": m,
        "block_sides": sides,
        "block_labels": [_desc_label(l, b) for l, b in descs],
        "stack_bytes": (
            csr_bytes + factor_bytes + workspace_bytes + schur_bytes + pair_bytes
        ),
        "schur_flops_per_iteration": float(
            sum(2 * m * n**3 + 2 * m * z for z, n in zip(nnz, sides))
        ),
    }


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


class ExtensionShape:
    """The part of a level-k extension problem that does not depend on rho.

    rho enters only through the trace-down constraint, which pins the F0
    blocks.  Everything else is fixed by (d_a, d_b, k, ppt): the
    trace-down map and its pseudo-inverses, the null-space basis of the
    free directions, the copy-side compressors, the block descriptors and
    the direction stacks (one sdp.DirectionStacks).  The adjointness check
    runs once here.  pinned_blocks is the per-state step.
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

    # -- construction ----------------------------------------------------

    def _build_stacks(self):
        """Directions compressed onto the symmetric subspace; returns the
        block stacks."""
        d_a, d_b, k = self.d_a, self.d_b, self.k
        dsym = symmetric_subspace_dim(d_a, k)
        basis_a = hermitian_basis(d_a)
        basis_b = hermitian_basis(d_b)
        self._iso_k = iso_k = symmetric_isometry(d_a, k)
        sbasis = hermitian_basis(dsym)
        self._sbasis = sbasis
        ns = dsym**2

        # trace-down coefficients: column i expands Tr_{2..k}[B s_i B^dag]
        # over the A basis (dual normalization: row 0 is the plain trace)
        copies_space = TensorSpace([d_a] * k)
        lmat = np.empty((d_a**2, ns))
        for i, s in enumerate(sbasis.elements):
            emb = iso_k @ s @ iso_k.conj().T
            t = partial_trace(emb, copies_space, set(range(1, k)))
            lmat[0, i] = np.trace(t).real
            for a in range(1, d_a**2):
                lmat[a, i] = np.einsum("pq,qp->", t, basis_a.elements[a]).real

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

        null_cols = []
        pinvs = {}
        rank_total = 0
        for par in (False, True):
            rows = np.nonzero(row_par == par)[0]
            cols = np.nonzero(col_par == par)[0]
            block = lmat[np.ix_(rows, cols)]
            _, sv, vt = np.linalg.svd(block, full_matrices=True)
            tol = policy.RANK_CUTOFF * (sv[0] if sv.size else 1.0)
            rank = int((sv > tol).sum())
            rank_total += rank
            pinv = np.linalg.pinv(block, rcond=policy.RANK_CUTOFF)
            pinvs[par] = (rows, cols, pinv)
            for row in vt[rank:]:
                v = np.zeros(ns)
                v[cols] = row
                null_cols.append(v)
        if rank_total != d_a**2:
            # the trace-down map onto Herm(A) is surjective
            raise AssemblyError(
                f"trace-down map has rank {rank_total}, expected {d_a**2}"
            )
        nullmat = np.array(null_cols)  # (n_null, ns)
        self._nullmat = nullmat
        self._pinvs = pinvs
        self.m = len(null_cols) * d_b**2

        # per-descriptor compressors of the copy side: for l transposed
        # copies, Sym_k-supported operators land in Sym_l x Sym_(k-l)
        descs = transpose_descriptors(k, self.spec.ppt)
        self._acomp = {}
        for l in sorted({l for l, _ in descs}):
            if l == 0:
                self._acomp[0] = np.stack([s.copy() for s in sbasis.elements])
                continue
            iso_l = symmetric_isometry(d_a, l)
            iso_rest = symmetric_isometry(d_a, k - l) if k > l else np.eye(1)
            comp = np.kron(iso_l, iso_rest)  # columns span the support
            stack = np.empty((ns, comp.shape[1], comp.shape[1]), dtype=complex)
            for i, s in enumerate(sbasis.elements):
                emb = iso_k @ s @ iso_k.T
                t = partial_transpose_multi(emb, copies_space, set(range(l)))
                stack[i] = comp.T @ t @ comp
                if i in (0, ns - 1):
                    resid = np.linalg.norm(t - comp @ stack[i] @ comp.T)
                    if resid > policy.SELF_CHECK * max(1.0, np.linalg.norm(t)):
                        raise AssemblyError(
                            f"support of the {l}-copy transposed block leaks "
                            f"out of the predicted subspace (residual {resid:.2e})"
                        )
            self._acomp[l] = stack

        # B side of direction (v, j): sigma_j, or sigma_j^T on tb blocks
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

        # direction (v, j) of every block is A_v x sigma_j
        stacks = []
        for l, b in descs:
            astack = self._acomp[l]
            side_a = astack.shape[1]
            avecs = np.array(
                [np.tensordot(v, astack, axes=1).ravel() for v in nullmat]
            ).reshape(len(nullmat), side_a * side_a)
            stacks.append(_kron_stack(avecs, side_a, self._bstacks[b]))
            self.descriptors.append(
                BlockDescriptor(l, b, _desc_label(l, b), side_a * d_b)
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

    def extension_space(self):
        """The full copy space A_1 ... A_k, B of the extension."""
        return TensorSpace([self.d_a] * self.k + [self.d_b])

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

    def extension_matrix(self, problem, x):
        """Extension on the full copy space from the solver variables x of
        a problem of this shape.

        The plain block of the problem is the extension compressed onto
        Sym_k(A) x B, so reconstruction is a contraction against the
        direction stack plus a lift through the symmetric-subspace
        isometry.
        """
        x = np.asarray(x, dtype=float)
        comp = problem.f0s[0].astype(complex, copy=True)
        if x.size:
            comp += (problem.fs[0].T @ x).reshape(comp.shape)
        lift = np.kron(self._iso_k, np.eye(self.d_b))
        return lift @ comp @ lift.conj().T

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
    shape in a row share it.
    """
    shape = extension_shape(rho.dim_a, rho.dim_b, spec)
    problem = sdp.SdpProblem(
        f0s=shape.pinned_blocks(rho.matrix), fs=shape.stacks, c=np.zeros(shape.m)
    )
    return problem, shape


def check_extension_properties(ext, ext_space, rho, ppt, tol=policy.RECHECK):
    """Direct verification of the three defining extension properties.

    Returns a dict of worst-case deviations: copy-swap symmetry, trace-down
    distance to rho, and the smallest eigenvalue over the partial
    transposes of the level (only the plain block when ppt is off).
    """
    k = ext_space.nfactors - 1
    swap_dev = 0.0
    for i in range(k - 1):
        perm = list(range(k + 1))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        swapped, _ = permute_factors(ext, ext_space, perm)
        swap_dev = max(swap_dev, float(np.abs(swapped - ext).max()))
    traced = partial_trace(ext, ext_space, set(range(1, k)))
    trace_dev = float(np.abs(traced - rho.matrix).max())
    min_eig = np.inf
    for l, b in transpose_descriptors(k, ppt):
        # block (l, b) transposes the first l copies, and B when b is set
        which = set(range(l)) | ({k} if b else set())
        block = partial_transpose_multi(ext, ext_space, which)
        block = (block + block.conj().T) / 2
        min_eig = min(min_eig, float(np.linalg.eigvalsh(block)[0]))
    ok = swap_dev <= tol and trace_dev <= tol and min_eig >= -tol
    return {
        "swap_deviation": swap_dev,
        "trace_down_deviation": trace_dev,
        "min_transpose_eigenvalue": min_eig,
        "passed": bool(ok),
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
    extension_space: TensorSpace = None
    extension_checks: dict = None
    dual_blocks: list = None
    certificate_check: object = None
    witness: object = None


def run_test(rho, spec, tolerances=None, trace=None, keep_extension=True):
    """Run one level of the hierarchy and package the evidence.

    Infeasibility yields a verified certificate plus an extracted witness;
    feasibility yields the extension itself, re-checked directly against
    the three defining properties (when it fits in memory).
    """
    problem, shape = build_extension_problem(rho, spec)
    outcome = sdp.feasibility_margin(problem, tolerances=tolerances, trace=trace)
    metadata = {
        "free_directions": shape.m,
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
        report = TestReport(status=SEPARABLE_CONSISTENT, **common)
        full_side = rho.dim_a**spec.k * rho.dim_b
        if keep_extension and full_side <= RECHECK_CAP:
            ext = shape.extension_matrix(problem, outcome.x)
            checks = check_extension_properties(
                ext, shape.extension_space(), rho, spec.ppt
            )
            if not checks["passed"]:
                raise SolverFailure(
                    f"extension re-check failed: {checks}", outcome=outcome
                )
            report.extension = ext
            report.extension_space = shape.extension_space()
            report.extension_checks = checks
        else:
            reason = (
                "disabled by caller"
                if not keep_extension
                else f"full copy-space side {full_side} exceeds {RECHECK_CAP}"
            )
            metadata["extension_recheck"] = "skipped, " + reason
        return report
    if outcome.status == sdp.INFEASIBLE:
        from . import witness as witness_mod

        check = sdp.verify_certificate(problem, outcome.z_blocks)
        if not check.passed:
            raise SolverFailure(
                f"infeasibility claimed but certificate failed independent "
                f"verification: {check}",
                outcome=outcome,
            )
        wit = witness_mod.extract_witness(shape, problem, rho, outcome.z_blocks)
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
        if rep.status == SEPARABLE_CONSISTENT and k > 1 and rep.extension is not None:
            ext_space = rep.extension_space
            traced = partial_trace(rep.extension, ext_space, {k - 1})
            sub_space = TensorSpace([rho.dim_a] * (k - 1) + [rho.dim_b])
            chk = check_extension_properties(traced, sub_space, rho, ppt)
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
