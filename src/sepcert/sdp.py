"""Semidefinite programming over Hermitian matrix blocks with sparse
direction storage.

Problems are feasibility questions for a linear matrix inequality

    F(x) = F0 + sum_i x_i F_i  >=  0,

where all matrices are Hermitian and block diagonal (each block given
separately).  The solver answers them through the margin problem

    minimize t   subject to   F(x) + t * 1 >= 0,

which is always strictly feasible; its optimum t* is negative exactly when
F(x) >= 0 has a strictly feasible point, and when t* > 0 the dual optimizer
is a certificate of infeasibility: Z >= 0 with Tr[F_i Z] = 0 for all i,
Tr Z = 1 and Tr[F0 Z] = -t* < 0, which contradicts F(x) >= 0 for every x.
A verdict needs only the sign of t* beyond the refusal band, so a problem
whose F0 clears the band is decided at x = 0 without iterating, on the
checked bound t* <= -lambda_min(F0).

The solver is a primal-dual path-following method with the HKM direction and
a Mehrotra-style predictor-corrector step, run from the customary infeasible
start (x = 0, slack beta * identity with beta = 1 + ||F0||, dual identity
scaled to meet the trace constraints in least squares).  Complex Hermitian
data is handled natively; when F0 is real and every direction purely real
or purely imaginary (a purely imaginary direction can be dropped: a real
dual matrix satisfies its constraint automatically and a real-restricted
primal loses nothing), the iteration runs in real symmetric arithmetic,
which is noticeably faster.

Direction matrices are stored sparse: each block's stack F_1..F_m is one
compressed-sparse-row (CSR) matrix of shape (m, n^2) whose row i is the
row-major vec of F_i.  The stacks of all blocks form one DirectionStacks
object, which problems differing only in F0 share.  The solver holds one
layout derived from them, the BlockSplit below: it reads the posed rows
of the caller's stacks (their real parts on the real path) and appends
the identity as the last direction, the margin's, so no other copy
of the stacks is made.  Checks made from the problem data read the
caller's stacks, through their transposes (views of the same arrays).

The solver splits every block into the connected components of its exact
sparsity pattern: F0_b, the union of the direction supports in block b,
and the diagonal (Gatermann & Parrilo, "Symmetry groups, semidefinite
programs, and sums of squares", J. Pure Appl. Algebra 192, 2004, exploit
the same block-diagonal structure).  F(x) is block diagonal over the
components for every x, and so is every iterate, so the split is exact.
Components of equal side form a side class, stored as one (g, s, s)
stack, and the classes lie one after another in one packed vector
(BlockSplit, built once per stacks, posed rows and partition).  Per
iteration, each class's S and Z are factored once (Cholesky) and their
triangular factors inverted once; S^-1, the direction solves and the
step-length eigenvalues are batched calls over the class's stack.  The
components of side 1 are diagonal, so their class runs elementwise: a
square root, a reciprocal, products, and each entry its own eigenvalue,
the bits LAPACK gives.
Residuals, updates and Hermitian parts act on the packed vector at once,
and so do the sparse products with the directions (F(x), the trace
pairings and the margin solve's dual projection), through the split's
packed stack.  The number of calls per iteration thus grows with the
side classes, not with the components; a dense state keeps one
component per block.

The Schur complement is assembled per class as in Fujisawa, Kojima &
Nakata ("Exploiting sparsity in primal-dual interior-point methods for
SDP", Math. Program. 79, 1997): one sparse product with Z, one batched
dense product with S^-1, and one sparse contraction against the stack.
The assembly runs over chunks of direction columns, so its dense
transients come to about SCHUR_CHUNK_BYTES, whatever m is.  Each solve
allocates one Fortran-ordered m x m buffer per point, which every
iteration assembles into and factors in place with LAPACK's potrf, then
solves with potrs: both are bound once per solve (scipy's
get_lapack_funcs) and called with the arguments scipy's cho_factor and
cho_solve pass, and neither copies the matrix.  The finite checks run
once per iteration: on the assembled Schur matrices, through their least
and largest entries, so that no mask is allocated; on the factors and
the iterates; and on the directions.

Problems that differ only in F0 (the points of a sweep) with one split
run in lockstep as one batch (feasibility_margin on a list): the
iterates carry a leading batch axis, of length 1 for a lone problem, so
each per-class call above takes every point's stacks, while each point
keeps its own Schur matrix, residuals, stopping tests and best iterate
and leaves when it stops.
Reductions over a point run per row with the kernels of a lone solve, so
no digit of a point's outcome depends on its batch.

The dual is unpacked once, at the end, into the caller's block layout,
exactly zero off the components; x comes back on the caller's
directions.

Everything is deterministic: no randomness, fixed starting point.
"""

import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

from . import tolerances as policy
from .tensorops import check_hermitian

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
MARGINAL = "marginal"
ITER_LIMIT = "iter_limit"

# bytes of one Schur assembly chunk's dense transients (see schur_chunk)
SCHUR_CHUNK_BYTES = 4 << 20


@dataclass
class SolverTolerances:
    """The convergence tolerances a caller may set; every other threshold
    is fixed in sepcert.tolerances."""

    gap_tol: float = policy.GAP_TOL
    feas_tol: float = policy.FEAS_TOL


class SdpNumericalError(RuntimeError):
    """Breakdown inside the interior-point iteration."""

    def __init__(self, message, iteration=None, diagnostics=None):
        super().__init__(message)
        self.iteration = iteration
        self.diagnostics = diagnostics or {}


def _herm(mat):
    return (mat + mat.conj().T) / 2


def _row_maxima(stack, values):
    """The largest of values (one per stored entry of a canonical CSR
    stack, or one row each) in each row of the stack; 0 in empty rows."""
    out = np.zeros((stack.shape[0],) + values.shape[1:])
    rows = np.flatnonzero(np.diff(stack.indptr))
    if rows.size:
        out[rows] = np.maximum.reduceat(values, stack.indptr[rows])
    return out


def _vec_transpose(n):
    """Column order that maps the row-major vec of X to that of X^T."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def _require_finite(arrays):
    """The finite check scipy's linear-algebra wrappers make on their
    inputs, with the error they raise."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _component_labels(adjacency):
    """The connected component of each vertex of a boolean adjacency
    matrix, its edges taken both ways, numbered by smallest vertex.

    Every vertex points at a root, at first itself.  Each round hooks the
    root at one end of every edge onto the root at the other end when
    that is smaller, then points every vertex straight at its root, so
    every tree with a smaller neighbouring root merges; the rounds end
    when no edge joins two trees.  Hooking needs every edge in both
    directions: Hermitian data within tolerance may carry a tiny entry
    whose mirror is exactly zero.
    """
    heads, tails = np.nonzero(adjacency | adjacency.T)
    roots = np.arange(len(adjacency))
    while True:
        np.minimum.at(roots, roots[heads], roots[tails])
        while not np.array_equal(roots[roots], roots):
            roots = roots[roots]
        if np.array_equal(roots[heads], roots[tails]):
            return np.unique(roots, return_inverse=True)[1]


class DirectionStacks(Sequence):
    """The direction stacks of every block, plus what the solver derives
    from them alone.

    Item b is block b's CSR stack of shape (m, n_b**2).  Problems that
    differ only in F0 can share one instance: the row maxima and the
    block splits the solver needs are built on first use, once even under
    concurrent callers, and live exactly as long as the stacks.  The
    constructor brings each CSR block to canonical form in place and
    trusts it otherwise (finite, Hermitian directions); from_blocks
    converts and checks it.
    """

    def __init__(self, blocks):
        self._blocks = list(blocks)
        for stack in self._blocks:
            # canonical: row_maxima reads each entry once, and split reads
            # the sorted indices
            stack.sum_duplicates()
        self.sides = [math.isqrt(stack.shape[1]) for stack in self._blocks]
        self._lock = threading.Lock()
        self._cache = {}

    @classmethod
    def from_blocks(cls, stacks, sides, m):
        """Convert dense (m, n, n) or sparse stacks to CSR and check that
        every direction is finite and Hermitian (rejected when not)."""
        blocks = []
        for b, (stack, n) in enumerate(zip(stacks, sides)):
            if not sps.issparse(stack):
                stack = np.asarray(stack)
                if stack.shape != (m, n, n):
                    raise ValueError(
                        f"block {b}: direction stack has shape {stack.shape}, "
                        f"expected {(m, n, n)}"
                    )
                stack = stack.reshape(m, n * n)
            stack = sps.csr_array(stack)
            if stack.shape != (m, n * n):
                raise ValueError(
                    f"block {b}: direction stack has shape {stack.shape}, "
                    f"expected {(m, n * n)}"
                )
            if not np.isfinite(stack.data).all():
                raise ValueError(f"block {b}: direction stack is not finite")
            stack.sum_duplicates()
            if m:
                dev = stack - stack[:, _vec_transpose(n)].conj()
                devs = _row_maxima(dev, np.abs(dev.data))
                scales = np.maximum(1.0, _row_maxima(stack, np.abs(stack.data)))
                bad = np.nonzero(devs > policy.HERMITIAN * scales)[0]
                if bad.size:
                    raise ValueError(
                        f"block {b}: direction {bad[0]} is not Hermitian "
                        f"(deviation {devs[bad[0]]:.2e})"
                    )
            blocks.append(stack)
        return cls(blocks)

    def __getitem__(self, index):
        return self._blocks[index]

    def __len__(self):
        return len(self._blocks)

    @property
    def m(self):
        return self._blocks[0].shape[0]

    def _cached(self, key, build):
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    def row_maxima(self):
        """Largest real and largest imaginary entry magnitude per direction,
        over all blocks."""
        def scan():
            maxima = np.zeros((self.m, 2))
            for stack in self._blocks:
                parts = np.abs(np.stack([stack.data.real, stack.data.imag], axis=1))
                maxima = np.maximum(maxima, _row_maxima(stack, parts))
            return maxima[:, 0], maxima[:, 1]

        return self._cached("rows", scan)

    def split(self, f0s, keep=None):
        """The BlockSplit of problems with constant blocks f0s, posed on
        the real parts of the directions listed in keep (on every
        direction as it is when keep is None), then on the identity, the
        margin direction: block b cut along the connected components of
        the pattern of f0s[b], of every posed direction and of the diagonal.
        Built once per posed rows and partition, which sweep points with
        one F0 pattern share."""
        posed = None if keep is None else keep.tobytes()

        def scan():
            out = []
            for stack, n in zip(self._blocks, self.sides):
                support = np.eye(n, dtype=bool)
                support.flat[(stack if keep is None else stack[keep]).indices] = True
                out.append(support)
            return out

        # the margin direction lies on the diagonal, which every support
        # holds, so supports and labels do not depend on it
        patterns = [f0 != 0 for f0 in f0s]
        supports = self._cached(("supports", posed), scan)
        key = ("labels", posed, *(p.tobytes() for p in patterns))
        labels = self._cached(key, lambda: [
            _component_labels(support | pattern)
            for support, pattern in zip(supports, patterns)
        ])
        key = ("split", posed, *(lab.tobytes() for lab in labels))
        return self._cached(key, lambda: BlockSplit(self._blocks, labels, keep))


class BlockSplit:
    """Blocks cut into the connected components of their sparsity pattern,
    the components grouped into side classes, and the posed directions on
    them: the solver's one layout of a problem's directions.

    blocks are the caller's CSR stacks, and labels[b] numbers the
    component of each index of block b.  A component keeps its indices
    in increasing order; the components of one side s form a class,
    stored as one C-ordered (g, s, s) stack, and the classes lie one after
    another in one packed vector of length N.  The posed directions are
    the real parts of the rows listed in keep (every row, as it is, when
    keep is None), then the identity, the margin direction, its entries
    after each block's own.  Fields: classes, the packed range and stack shape
    (lo, hi, (g, s, s)) of each class; stack, the posed directions on the
    packed vector, a CSC array of shape (m, N); schur, the schur_stacks
    of each class, on its column range of stack; dest, the position of
    each packed entry in the blocks' row-major vecs laid end to end; diag,
    the packed positions of the diagonal; and the index arrays that herm
    and block_norms use.
    """

    def __init__(self, blocks, labels, keep=None):
        sides = [len(lab) for lab in labels]
        starts = np.cumsum([0] + [n * n for n in sides])
        # by side; sorted() is stable, so by block and index within a side
        comps = sorted(
            (
                (idx.size, b, idx)
                for b, lab in enumerate(labels)
                for idx in (np.flatnonzero(lab == c) for c in range(lab.max() + 1))
            ),
            key=lambda comp: comp[0],
        )
        counts = {}
        dest, owner, transpose, diag = [], [], [], []
        offset = 0
        for s, b, idx in comps:
            counts[s] = counts.get(s, 0) + 1
            local = np.arange(s * s).reshape(s, s)
            dest.append(starts[b] + (idx[:, None] * sides[b] + idx).ravel())
            owner.append(np.full(s * s, b))
            transpose.append(offset + local.T.ravel())
            diag.append(offset + np.diagonal(local))
            offset += s * s
        self.classes = []
        lo = 0
        for s, g in counts.items():
            self.classes.append((lo, lo + g * s * s, (g, s, s)))
            lo += g * s * s
        self.sides = sides
        self.starts = starts
        self.dest = np.concatenate(dest)
        self.owner = np.concatenate(owner)
        self.transpose = np.concatenate(transpose)
        self.diag = np.concatenate(diag)
        packed = np.full(starts[-1], -1)
        packed[self.dest] = np.arange(offset)
        m = blocks[0].shape[0] if keep is None else len(keep)
        data, rows, cols = [], [], []
        for start, stack, n in zip(starts, blocks, sides):
            # one block's posed rows at a time
            coo = (stack if keep is None else stack[keep].real).tocoo()
            data.append(coo.data)
            rows.append(coo.row)
            cols.append(packed[start + coo.col])
            data.append(np.ones(n))
            rows.append(np.full(n, m))
            cols.append(packed[start + np.arange(n) * (n + 1)])
        self.stack = sps.csc_array(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(m + 1, offset),
        )
        self._stack_t = self.stack.T
        self.schur = []
        ptr = self.stack.indptr
        for lo, hi, (_, s, _) in self.classes:
            a, z = ptr[lo], ptr[hi]
            columns = sps.csc_array(
                (self.stack.data[a:z], self.stack.indices[a:z], ptr[lo:hi + 1] - a),
                shape=(self.stack.shape[0], hi - lo),
            )
            self.schur.append(schur_stacks(columns, s))

    @property
    def side_classes(self):
        """{side: number of components} over the classes."""
        return {s: g for _, _, (g, s, _) in self.classes}

    def pack(self, mats):
        """The packed vector of block matrices mats."""
        return np.concatenate([np.ravel(mat) for mat in mats])[self.dest]

    def unpack(self, packed):
        """The complex block matrices of a packed vector, zero off the
        components."""
        flat = np.zeros(self.starts[-1], complex)
        flat[self.dest] = packed
        return [
            flat[lo:hi].reshape(n, n)
            for lo, hi, n in zip(self.starts, self.starts[1:], self.sides)
        ]

    def views(self, packed):
        """The (..., g, s, s) stack of each class in packed vectors (the
        last axis); a list of per-class stacks passes through."""
        if isinstance(packed, list):
            return packed
        lead = packed.shape[:-1]
        return [packed[..., lo:hi].reshape(lead + shape) for lo, hi, shape in self.classes]

    def matmul(self, a, b):
        """The packed products of pairs of block-diagonal matrices, each
        given packed or as per-class stacks."""
        a, b = self.views(a), self.views(b)
        out = np.empty(a[0].shape[:-3] + (self.dest.size,), np.result_type(a[0], b[0]))
        for x, y, o in zip(a, b, self.views(out)):
            np.matmul(x, y, out=o)
        return out

    def herm(self, packed):
        """The Hermitian part of packed matrices."""
        return (packed + packed.take(self.transpose, axis=-1).conj()) / 2

    def identity(self, dtype):
        """The packed identity."""
        out = np.zeros(self.dest.size, dtype)
        out[self.diag] = 1
        return out

    def combine(self, x):
        """sum_i x_i F_i, packed, for x or each row of x."""
        return (self._stack_t @ x.T).T

    def trace_pairs(self, packed):
        """Re Tr[F_i U] for every direction, U given packed (or one U per
        row): F_i is Hermitian, so this is Re sum_pq F_i[p, q] conj(U[p, q])."""
        return (self.stack @ packed.conj().T).real.T

    def block_norms(self, packed):
        """The Frobenius norm of each caller block of each row of packed."""
        sq = (packed * packed.conj()).real
        return np.sqrt([np.bincount(self.owner, row, minlength=len(self.sides)) for row in sq])


@dataclass
class SdpProblem:
    """Block-diagonal LMI data.

    f0s[b] is the constant matrix of block b; fs holds the direction
    stacks, item b being one CSR matrix of shape (m, n_b**2) whose row i is
    the row-major vec of F_i.  fs may be a DirectionStacks shared with
    other problems (trusted: checked by from_blocks when made from one,
    finite and Hermitian by construction otherwise) or a list of CSR or
    dense (m, n_b, n_b) stacks, converted and checked once.  All matrices
    must be finite and Hermitian (checked, rejected when not).
    """

    f0s: list
    fs: Sequence

    def __post_init__(self):
        if len(self.f0s) != len(self.fs):
            raise ValueError("f0s and fs must list the same blocks")
        for b, f0 in enumerate(self.f0s):
            n = f0.shape[0]
            if f0.shape != (n, n):
                raise ValueError(f"block {b}: constant matrix is not square")
            check_hermitian(f0, what=f"block {b}: constant matrix")
        sides = self.block_sizes
        if not isinstance(self.fs, DirectionStacks):
            self.fs = DirectionStacks.from_blocks(self.fs, sides, self.fs[0].shape[0])
        elif self.fs.sides != sides:
            raise ValueError(
                f"shared direction stacks lie on blocks {self.fs.sides}, "
                f"expected {sides}"
            )

    @property
    def m(self):
        return self.fs.m

    @property
    def block_sizes(self):
        return [f0.shape[0] for f0 in self.f0s]


@dataclass
class SdpOutcome:
    status: str
    x: np.ndarray
    z_blocks: list
    margin_t: float
    gap: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


@dataclass
class CertificateCheck:
    passed: bool
    min_eigenvalue: float
    constraint_violation: float
    objective_value: float


def _real_directions(f0s, fs):
    """Detect an equivalent real-symmetric problem.

    fs is a DirectionStacks.  Returns keep, the directions the real
    problem is posed on, or None.  Directions that are purely imaginary
    Hermitian are dropped: any real symmetric matrix is orthogonal to them
    in the trace pairing, and restricting the primal to the kept
    directions is lossless because the real part of any feasible F(x) is
    again feasible with the same margin.  The margin direction, the
    identity, is real.
    """
    for f0 in f0s:
        if np.abs(f0.imag).max() > policy.ZERO_PART * max(1.0, np.abs(f0).max()):
            return None
    re_max, im_max = fs.row_maxima()
    scales = np.maximum(1.0, np.maximum(re_max, im_max))
    real = im_max <= policy.ZERO_PART * scales
    droppable = re_max <= policy.ZERO_PART * scales
    if not np.all(real | droppable):
        return None
    return np.nonzero(real)[0]


def _max_step(inverses, deltas):
    """Step lengths for lists of stacks of shape (..., g, n, n), one per
    side class: item [...] is the largest alpha <= 1 with
    X + alpha*delta >= 0 for every pair there over the classes, X = L L^dag
    given by the inverse L^-1 of its Cholesky factor in inverses and delta
    at the same place in deltas.

    The smallest eigenvalue of L^-1 delta L^-dag decides; each class's
    stack goes to np.linalg.eigvalsh at once, which reads the lower
    triangle of each Hermitian product.  A side-1 class's entry is its
    own eigenvalue.
    """
    lams = functools.reduce(np.minimum, (
        (inv * delta * inv.conj()).real[..., 0, 0].min(axis=-1) if inv.shape[-1] == 1
        else np.linalg.eigvalsh(inv @ delta @ inv.conj().swapaxes(-1, -2))[..., 0].min(axis=-1)
        for inv, delta in zip(inverses, deltas)
    ))
    return np.minimum(1.0, -1.0 / np.minimum(lams, -1e-14))


def _cholesky(stack):
    """np.linalg.cholesky of a stack of (s, s) Hermitian matrices.  At
    s = 1 the factor is the square root of the entry's real part, LAPACK's
    bits: an entry <= 0 is refused, and a NaN passes."""
    if stack.shape[-1] > 1:
        return np.linalg.cholesky(stack)
    if (stack.real <= 0).any():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return np.sqrt(stack.real).astype(stack.dtype, copy=False)


def _inverses(chols):
    """The inverses of one class's Cholesky factors, a stack of shape
    (2, ..., s, s) holding those of S first and those of Z second, and
    S^-1 = L^-dag L^-1.  At s = 1 they are a reciprocal and a product,
    LAPACK's bits."""
    if chols.shape[-1] == 1:
        inv = 1 / chols
        return inv, inv[0].conj() * inv[0]
    inv = np.linalg.inv(chols)
    return inv, inv[0].conj().swapaxes(-1, -2) @ inv[0]


def schur_chunk(m, entries, itemsize):
    """Direction columns w per Schur assembly chunk with m directions of
    entries dense entries each (n^2 for a side-n block, g*s^2 for a class
    of g side-s components): as many as keep schur_block's 3 * entries * w
    dense entries and (m, w) pairing within SCHUR_CHUNK_BYTES at itemsize
    bytes per entry, at least one and at most m."""
    return max(1, min(m, SCHUR_CHUNK_BYTES // (itemsize * (3 * entries + m))))


def schur_stacks(fmat, n):
    """The re-layouts of a class's stack that schur_block uses.

    fmat, of shape (m, g*n*n), holds each direction on g side-n
    components, their row-major vecs one after another (g = 1 for a
    whole block).  Returns (fmat, chunk, fperms): the directions are split
    into runs of chunk consecutive rows (the last one may be shorter), and
    fperms[j] holds run j = rows lo..hi-1 as a (g*n*w, g*n) matrix,
    w = hi - lo, whose row (c*n + p)*w + (i - lo) is row p of F_i on
    component c, placed in columns c*n..c*n + n - 1.  With the
    components' Z stacked as a (g*n, n) array, fperms[j] @ Z read as a
    (g, n, w*n) array is [F_lo Z | ... | F_(hi-1) Z] on each component.
    """
    m, entries = fmat.shape
    g = entries // (n * n)
    chunk = schur_chunk(m, entries, fmat.dtype.itemsize)
    coo = sps.coo_array(fmat)
    comp, rest = np.divmod(coo.col, n * n)
    rows = comp * n + rest // n
    cols = comp * n + rest % n
    fperms = []
    for lo in range(0, m, chunk):
        width = min(chunk, m - lo)
        run = (coo.row >= lo) & (coo.row < lo + width)
        fperms.append(sps.csr_array(
            (coo.data[run], (rows[run] * width + coo.row[run] - lo, cols[run])),
            shape=(g * n * width, g * n),
        ))
    return fmat, chunk, fperms


def schur_workspace(stacks, dtype, points=1):
    """The two flat arrays schur_block works in, large enough for the
    chunks of every class in stacks (a list of schur_stacks) and points."""
    size = max((fmat.shape[1] * chunk for fmat, chunk, _ in stacks), default=0)
    return np.empty(points * size, dtype), np.empty(points * size, dtype)


def schur_block(stacks, sinv, z, out, work):
    """Add one class's share M_ij = Re Tr[F_i S^-1 F_j Z] of the Schur
    complement into the (m, m) array out, or into each of a batch's
    (B, m, m).

    stacks is schur_stacks(fmat, n); sinv and z are the class's (g, n, n)
    stacks (or (n, n) matrices when g = 1), batched like out, and work a
    schur_workspace pair that fits stacks and the batch, of a dtype that
    holds S^-1 F_j Z.  Per chunk of columns j, G_j = S^-1 F_j Z is one
    sparse product, on every point's Z side by side, and one batched dense
    product into work[0]; conj(G_j[p, q]) on component c is then copied to
    row (c*n + p)*n + q, column j of a (g*n^2, w) view of work[1] per
    point, so that the trace pairing with every F_i,
    Re Tr[F_i G_j] = Re sum F_i[p, q] conj(G_j[p, q]) for Hermitian F_i,
    is one sparse product, added into out[..., chunk] (both triangles;
    the solver factors the upper one in place).
    """
    fmat, chunk, fperms = stacks
    m = fmat.shape[0]
    n = z.shape[-1]
    g = fmat.shape[1] // (n * n)
    out = out.reshape(-1, m, m)
    b = len(out)
    # the points' Z side by side, the components of each stacked
    zs = z.reshape(b, g * n, n).transpose(1, 0, 2).reshape(g * n, b * n)
    sinv = sinv.reshape(b, g, n, n)
    for lo, fperm in zip(range(0, m, chunk), fperms):
        width = fperm.shape[0] // (g * n)
        size = b * g * n * width * n
        fz = (fperm @ zs).reshape(g, n, width, b, n).transpose(3, 0, 1, 2, 4)
        if b > 1:
            # each point's F_j Z laid out whole in work[1], for the dense
            # product; a lone point's already is, and copying it anyway
            # costs a Schur-bound solve about 5%
            laid = work[1][:size].reshape(fz.shape)
            np.copyto(laid, fz)
            fz = laid
        prod = work[0][:size].reshape(b, g, n, width * n)
        np.matmul(sinv, fz.reshape(b, g, n, width * n), out=prod)
        # freed before the next product is allocated, so the heap reuses it
        del fz
        gt = work[1][:size].reshape(g, n, n, b, width)
        np.conjugate(prod.reshape(b, g, n, width, n).transpose(1, 2, 4, 0, 3), out=gt)
        out[:, :, lo:lo + width] += (
            (fmat @ gt.reshape(g * n * n, b * width)).real
            .reshape(m, b, width).transpose(1, 0, 2)
        )


def _project_dual_constraints(split, c, z):
    """Minimal-norm correction of the packed Z onto the subspace
    Tr[F_i Z] = c_i of the directions posed on split.

    Stalled runs leave the dual constraints satisfied only to the residual
    floor (around 1e-8); the certificate tolerance sits right there, so a
    single least-squares projection removes the violation without moving
    the certificate by more than the violation itself.  Every entry of a
    direction lies on the components, so the Gram of the packed stack is
    that of the blocks.
    """
    resid = c - split.trace_pairs(z)
    gram = (split.stack @ split.stack.T.conj()).real
    try:
        fact = sla.cho_factor(gram.toarray(order="F"), overwrite_a=True)
        lam = sla.cho_solve(fact, resid)
    except np.linalg.LinAlgError:  # the failed factor overwrote its copy
        lam = np.linalg.lstsq(gram.toarray(), resid, rcond=None)[0]
    return split.herm(z + split.combine(lam))


def _rowdot(a, b):
    """Re <a_j, b_j> of each pair of rows, one np.vdot per row, so that no
    point's value depends on its batch."""
    return np.fromiter(map(np.vdot, a, b), np.result_type(a, b), len(a)).real


def _solve_core(split, points, c, tol, trace_cb=None, floors=None):
    """Interior-point loop on the directions posed on split, with
    objective c on them, for points that differ only in their constant
    blocks (points[j] lists those of point j), run in lockstep as one
    batch: the iterates carry a leading batch axis, of length 1 for a
    lone point.  Returns each point's raw final state, in order;
    trace_cb, when given, receives each iteration's row of each point.

    x is on the posed directions and the dual z comes back packed.
    floors[j] is an objective value that only an unbounded problem reaches
    at a feasible point: point j stops with status "unbounded" at its
    first iterate below it whose F(x) has no negative eigenvalue.  A point
    whose iteration breaks down holds its SdpNumericalError under "error".
    """
    m = len(c)
    ntot = sum(split.sides)
    fixed = np.stack([split.pack(f0s) for f0s in points])
    floors = np.full(len(points), -np.inf) if floors is None else np.asarray(floors)
    dtype = np.result_type(fixed.dtype, split.stack.dtype)
    # per solve, not cached on split: concurrent solves share it
    work = schur_workspace(split.schur, dtype, len(points))
    # one Fortran-ordered m x m Schur matrix per point, factored in place by
    # LAPACK with the arguments scipy's cho_factor and cho_solve pass
    schur = np.empty((len(points), m, m)).transpose(0, 2, 1)
    potrf, potrs = sla.get_lapack_funcs(("potrf", "potrs"), (schur[0],))

    # the start's beta = 1 + ||F0|| is also the primal residual's scale
    scale = np.array(
        [1.0 + np.sqrt(sum(np.linalg.norm(f0) ** 2 for f0 in f0s)) for f0s in points]
    )
    x = np.zeros((len(points), m))
    eye = split.identity(fixed.dtype)
    slack = scale[:, None] * eye

    tvec = split.trace_pairs(eye)
    denom = tvec @ tvec
    tau = (c @ tvec) / denom if denom > 1e-300 else 1.0
    if not np.isfinite(tau) or tau <= 1e-10:
        tau = 1.0
    zdual = np.tile(tau * eye, (len(points), 1))

    c_scale = 1.0 + (np.abs(c).max() if m else 0.0)
    frac = 0.98
    live = np.arange(len(points))  # the point of each row
    keep = np.ones(len(points), bool)  # the rows that go on
    stalls = np.zeros(len(points), int)
    floor_hits = np.zeros(len(points), int)
    # each point's best iterate so far and what scored it; an infinite
    # score stands for none
    best = {key: np.full(len(points), np.inf)
            for key in ("score", "gscale", "gap", "pinf", "dinf", "mu")}
    best.update(x=np.zeros_like(x), z=np.zeros_like(zdual))
    results = [None] * len(points)
    rows = {}  # this iteration's record of each row, one array per field

    def row(j):
        return {"iteration": it, **{key: val[j] for key, val in rows.items()}}

    def trace(j):
        if trace_cb is not None:
            trace_cb(row(j))

    def usable(p):
        # point p's best iterate is good enough for residual-based
        # post-processing even though the strict convergence test did not fire
        return (
            (best["pinf"][p] <= policy.USABLE_RESIDUAL)
            & (best["dinf"][p] <= policy.USABLE_RESIDUAL)
            & (np.abs(best["gap"][p]) <= policy.USABLE_GAP * best["gscale"][p])
        )

    def min_eigenvalue(packed):
        return min(
            np.linalg.eigvalsh(v)[:, 0].min() for v in split.views(split.herm(packed))
        )

    def finish(j, status):
        # row j leaves with the iterate it holds, or with its point's best
        # one when that scores better and the loop did not converge
        p = live[j]
        out = dict(x=x[j].copy(), z=zdual[j].copy(), gap=rows["gap"][j],
                   pinf=rows["pinf"][j], dinf=rows["dinf"][j], mu=rows["mu"][j])
        if status not in ("converged", "unbounded"):
            cur_score = max(out["pinf"], out["dinf"])
            if np.isfinite(out["gap"]):
                cur_score = max(cur_score, abs(out["gap"]) / best["gscale"][p])
            if best["score"][p] < cur_score:
                out = {key: best[key][p].copy() for key in out}
        results[p] = dict(out, status=status, iterations=it)
        keep[j] = False

    def breakdown(j, message):
        if usable(live[j]):
            # so close to the boundary that factorization noise flips
            # eigenvalue signs; the best iterate seen is already good
            # enough for residual-based classification, so stop
            trace(j)
            finish(j, "stalled")
        else:
            results[live[j]] = {
                "error": SdpNumericalError(message, iteration=it, diagnostics=row(j))
            }
            keep[j] = False

    def drop():
        # the rows that go on, alone
        nonlocal live, x, slack, zdual, fixed, rp, rd, keep
        if keep.all():
            return
        live, x, slack, zdual, fixed, rp, rd = (
            a[keep] for a in (live, x, slack, zdual, fixed, rp, rd)
        )
        for key in rows:
            rows[key] = rows[key][keep]
        keep = keep[keep]

    def newton_step():
        """The predictor-corrector step of every row, or None when the
        factorizations of some rows broke down (breakdown)."""
        sviews, zviews = split.views(slack), split.views(zdual)
        try:
            chols = [_cholesky(v) for v in sviews]
            cholz = [_cholesky(v) for v in zviews]
        except np.linalg.LinAlgError:  # find the rows that broke
            for j, (s_j, z_j) in enumerate(zip(slack, zdual)):
                try:
                    [_cholesky(v) for v in split.views(s_j) + split.views(z_j)]
                except np.linalg.LinAlgError:
                    breakdown(j, "slack or dual iterate lost positive definiteness")
            return None
        _require_finite([*chols, *cholz, slack, zdual])
        # per class, the inverse factors of S (first) and Z (second); S^-1
        pairs = [_inverses(np.stack(pair)) for pair in zip(chols, cholz)]
        inverses, sinv = [inv for inv, _ in pairs], [si for _, si in pairs]
        rpz = split.matmul(split.views(rp), zviews)

        # Schur complement M_ij = sum Re Tr[F_i S^-1 F_j Z] (symmetric
        # positive definite) of each row over the classes, factored in
        # place; a failed factorization has overwritten it, so the
        # jittered retry assembles that row's again, alone
        def assemble(sel):
            schur[sel].fill(0)
            for stacks, si, z in zip(split.schur, sinv, zviews):
                schur_block(stacks, si[sel], z[sel], schur[sel], work)

        assemble(slice(0, len(live)))
        # one finite check of every row's Schur matrix, on its extremes,
        # which a NaN or an infinity reaches: no mask is allocated
        assembled = schur[:len(live)]
        _require_finite([assembled.min(), assembled.max()])
        facts = []
        for j in range(len(live)):
            for jitter in (0, 1e-12):
                if jitter:
                    assemble(slice(j, j + 1))
                    schur[j][np.diag_indices(m)] += jitter * max(1.0, np.trace(schur[j]) / m)
                fact, info = potrf(schur[j], lower=False, overwrite_a=True, clean=False)
                if not info:
                    facts.append(fact)
                    break
            else:
                breakdown(j, "Schur complement lost positive definiteness")
        if not keep.all():
            return None

        def direction(kmat):
            v0 = kmat - rpz
            # Re Tr[F_i U] with U = S^-1 (K - Rp Z)
            rhs = split.trace_pairs(split.matmul(sinv, v0)) - rd
            dx = np.array([
                potrs(fact, r, lower=False, overwrite_b=False)[0] for fact, r in zip(facts, rhs)
            ])
            ds = split.combine(dx) + rp
            v = kmat - split.matmul(ds, zviews)
            dz = split.herm(split.matmul(sinv, v))
            _require_finite([v0, v, ds, dz])
            return dx, ds, dz

        def max_steps(ds, dz):
            # the (primal, dual) steps of the rows
            return _max_step(inverses, split.views(np.stack((ds, dz))))

        # predictor (affine scaling: K = -S Z)
        sz = split.matmul(sviews, zviews)
        dx_a, ds_a, dz_a = direction(-sz)
        ap_a, ad_a = max_steps(ds_a, dz_a)
        mu_aff = _rowdot(zdual + ad_a[:, None] * dz_a, slack + ap_a[:, None] * ds_a) / ntot
        sigma = np.array([
            min(1.0, max(0.0, (max(aff, 0.0) / mu_j) ** 3)) if mu_j > 0 else 0.0
            for aff, mu_j in zip(mu_aff, rows["mu"])
        ])

        # corrector: K = sigma mu 1 - S Z - dS_a dZ_a
        kc = -sz
        kc.T[split.diag] += sigma * rows["mu"]
        kc -= split.matmul(ds_a, dz_a)
        dx, ds, dz = direction(kc)
        return dx, ds, dz, sigma, np.minimum(1.0, frac * max_steps(ds, dz))

    rp = rd = None
    it = 0
    for it in range(1, policy.MAX_ITER + 1):
        if not keep.any():
            break
        drop()
        fx = fixed + split.combine(x)
        rp = fx - slack
        rd = c - split.trace_pairs(zdual)
        # Tr[S Z] and Tr[F0 Z] as sums of S[p, q] conj(Z[p, q]): Z is
        # Hermitian
        pobj = np.array([c @ xj for xj in x])
        dobj = -_rowdot(zdual, fixed)
        rows = dict(
            mu=_rowdot(zdual, slack) / ntot, gap=pobj - dobj, pobj=pobj, dobj=dobj,
            pinf=split.block_norms(rp).max(axis=1) / scale[live],
            dinf=np.abs(rd).max(axis=1, initial=0.0) / c_scale,
        )
        gap, pinf, dinf = rows["gap"], rows["pinf"], rows["dinf"]
        gscale = np.maximum(1.0, np.maximum(np.abs(pobj), np.abs(dobj)))
        score = np.maximum(np.maximum(pinf, dinf), np.abs(gap) / gscale)
        better = score < best["score"][live]
        update = dict(rows, score=score, gscale=gscale, x=x, z=zdual)
        for key in best:
            best[key][live[better]] = update[key][better]
        converged = (pinf <= tol.feas_tol) & (dinf <= tol.feas_tol) & (
            np.abs(gap) <= tol.gap_tol * gscale
        )
        unbounded = np.zeros_like(converged)
        for j in np.flatnonzero(~converged & (pobj < floors[live])):
            unbounded[j] = min_eigenvalue(fx[j]) >= 0
        # near-degenerate optima floor the dual residual a hair above
        # feas_tol while complementarity keeps collapsing; once mu sits
        # orders below anything the tolerances can use, more iterations
        # only invite factorization failure
        floored = usable(live) & (rows["mu"] <= 1e-11 * gscale)
        floor_hits[live] = np.where(floored, floor_hits[live] + 1, 0)
        stalled = ~converged & ~unbounded & (floor_hits[live] >= 2)
        for j in np.flatnonzero(converged | unbounded | stalled):
            trace(j)
            finish(j, "converged" if converged[j] else "unbounded" if unbounded[j] else "stalled")

        # the step of the rows that go on; rows whose factorizations break
        # down leave too, and the others take the step again without them
        step = None
        while step is None and keep.any():
            drop()
            step = newton_step()
        if step is None:
            break

        dx, ds, dz, sigma, alphas = step
        alpha_p, alpha_d = alphas
        rows.update(sigma=sigma, alpha_p=alpha_p, alpha_d=alpha_d)
        stalls[live] = np.where((alpha_p < 1e-8) & (alpha_d < 1e-8), stalls[live] + 1, 0)
        for j in range(len(live)):
            trace(j)
            if stalls[live[j]] >= 3:
                finish(j, ITER_LIMIT)
        # the rows that stall leave with their iterate before the update
        x = x + alpha_p[:, None] * dx
        slack = split.herm(slack + alpha_p[:, None] * ds)
        zdual = split.herm(zdual + alpha_d[:, None] * dz)

    for j in np.flatnonzero(keep):
        finish(j, ITER_LIMIT)
    return results


def _run(tol, trace_cb, problems, floors=None):
    """Solve the margin problems of problems, which share their stacks,
    each in real arithmetic when _real_directions allows it; the problems
    of one split and F0 dtype run as one batch of _solve_core.

    Returns, per problem, _solve_core's state plus split, the objective c
    it solved with and the diagnostics; x is on the caller's directions,
    the margin last, and z stays packed on split.
    """
    if any(problem.fs is not problems[0].fs for problem in problems):
        raise ValueError("the problems of one solve must share their direction stacks")
    batches = {}
    for i, problem in enumerate(problems):
        f0s = problem.f0s
        keep = _real_directions(f0s, problem.fs)
        if keep is not None:
            f0s = [f0.real.copy() for f0 in f0s]
        split = problem.fs.split(f0s, keep)
        batch = batches.setdefault((split, np.result_type(*f0s)), (keep, [], []))
        batch[1].append(i)
        batch[2].append(f0s)
    out = [None] * len(problems)
    for (split, _), (keep, members, points) in batches.items():
        # minimize the margin, the last posed direction
        c = np.zeros(split.stack.shape[0])
        c[-1] = 1.0
        states = _solve_core(
            split, points, c, tol, trace_cb,
            None if floors is None else [floors[i] for i in members],
        )
        for i, res in zip(members, states):
            out[i] = res
            if "error" in res:
                continue
            if keep is not None:
                x = np.zeros(problems[i].m + 1)
                x[np.append(keep, problems[i].m)] = res["x"]
                res["x"] = x
            res.update(split=split, c=c, diagnostics={
                "pinf": res["pinf"],
                "dinf": res["dinf"],
                "mu": res["mu"],
                "real_path": keep is not None,
                "side_classes": split.side_classes,
            })
    return out


def _lmi_spectra(problem, x):
    """The eigenvalues of each block of F(x), from the problem data: the
    caller's stacks, through their transposes (views of the same arrays)."""
    return [
        np.linalg.eigvalsh(_herm(f0 + (fmat.T @ x).reshape(f0.shape)))
        for f0, fmat in zip(problem.f0s, problem.fs)
    ]


def feasibility_margin(problem, tolerances=None, trace=None):
    """Decide feasibility of F(x) >= 0 through the margin problem.

    Each problem is first tested at x = 0 (_at_zero).  When F0 clears the
    refusal band, (0, -lambda_min(F0)) is a feasible point, so
    t* <= -lambda_min(F0) <= -REFUSAL_BAND: the verdict is feasible, with
    x = 0, that checked bound as the margin, 0 iterations, a NaN gap and
    no dual.  No infeasible problem passes, since F0 would be feasible.

    Every other problem is solved, and its verdict is backed from both
    sides: infeasibility requires the dual bound -Tr[F0 Z] (valid for any
    dual-feasible Z with unit trace) to clear the margin tolerance,
    feasibility requires the primal point to do so, and when both optima
    are pinched inside the band the answer is marginal.

    The margin is unbounded below when some combination of the F_i is
    positive definite.  Otherwise a unit-trace Z >= 0 with Tr[F_i Z] = 0
    for every i exists and gives t >= -Tr[F0 Z] >= -||F0|| for every
    feasible (x, t), so the solve stops at the first feasible iterate
    below -(1 + ||F0||).  Its x is checked as x = 0 is (_checked_point);
    SdpNumericalError is raised when the check fails.

    problem may also be a list of problems that share one DirectionStacks;
    their outcomes come back in order, each the one its problem gets alone
    (the solved ones run as one batch of _solve_core), and the first whose
    solve broke down raises its error.
    """
    problems = problem if isinstance(problem, list) else [problem]
    outcomes = [_at_zero(p) for p in problems]
    solved = [i for i, out in enumerate(outcomes) if out is None]
    if solved:
        floors = [-1.0 - np.sqrt(sum(np.linalg.norm(f0) ** 2 for f0 in problems[i].f0s))
                  for i in solved]
        states = _run(tolerances or SolverTolerances(), trace,
                      [problems[i] for i in solved], floors)
        for i, res in zip(solved, states):
            outcomes[i] = _margin_outcome(problems[i], res)
    return outcomes if isinstance(problem, list) else outcomes[0]


def _at_zero(problem):
    """The outcome of the problem at x = 0 when every F0_b - REFUSAL_BAND * 1
    has a Cholesky factor (the first block without one ends the test) and
    _checked_point passes; None otherwise."""
    for f0 in problem.f0s:
        try:
            np.linalg.cholesky(f0 - policy.REFUSAL_BAND * np.eye(len(f0)))
        except np.linalg.LinAlgError:
            return None
    return _checked_point(problem, np.zeros(problem.m), 0, np.nan, {})


def _checked_point(problem, x, iterations, gap, diagnostics):
    """The feasible outcome at x when every eigenvalue of F(x), from the
    problem data, clears REFUSAL_BAND: margin -lambda_min(F(x)), which x
    attains, and no dual; None otherwise.  diagnostics gains
    min_eigenvalue either way."""
    lam = min(float(e[0]) for e in _lmi_spectra(problem, x))
    diagnostics.update(min_eigenvalue=lam)
    if lam < policy.REFUSAL_BAND:
        return None
    return SdpOutcome(status=FEASIBLE, x=x, z_blocks=None, margin_t=-lam, gap=gap,
                      iterations=iterations, diagnostics=diagnostics)


def _margin_outcome(problem, res):
    """The outcome of a margin problem from its solve's final state."""
    if "error" in res:
        raise res["error"]
    m = problem.m
    diagnostics = res["diagnostics"]
    if res["status"] == "unbounded":
        diagnostics.update(unbounded=True)
        out = _checked_point(problem, res["x"][:m], res["iterations"], res["gap"], diagnostics)
        if out is None:
            raise SdpNumericalError(
                "margin unbounded below, but F(x) at the stopping point does not clear "
                f"the refusal band (smallest eigenvalue {diagnostics['min_eigenvalue']:.3e})",
                iteration=res["iterations"], diagnostics=diagnostics,
            )
        return out

    t_primal = float(res["x"][m])
    split, z = res["split"], res["z"]
    viol = res["c"] - split.trace_pairs(z)
    if np.abs(viol).max() > 0.25 * policy.CERT_TOL:
        z = _project_dual_constraints(split, res["c"], z)
    zraw = split.unpack(z)
    zsum = sum(np.trace(z).real for z in zraw)
    zblocks = [z / zsum for z in zraw]
    t_dual = -sum((problem.f0s[b] * zblocks[b].T).sum().real for b in range(len(zblocks)))
    x = res["x"][:m]
    diagnostics.update(t_primal=t_primal, t_dual=t_dual)
    converged = res["status"] == "converged"
    residuals_ok = (
        res["pinf"] <= policy.USABLE_RESIDUAL and res["dinf"] <= policy.USABLE_RESIDUAL
    )
    margin_t = (t_primal + t_dual) / 2

    if (converged or residuals_ok) and t_dual >= policy.REFUSAL_BAND:
        status = INFEASIBLE
    elif (converged or residuals_ok) and t_primal <= -policy.REFUSAL_BAND:
        status = FEASIBLE
    elif (
        (converged or residuals_ok)
        and abs(t_primal) < policy.REFUSAL_BAND
        and abs(t_dual) < policy.REFUSAL_BAND
    ):
        status = MARGINAL
    else:
        status = ITER_LIMIT
    return SdpOutcome(
        status=status,
        x=x,
        z_blocks=zblocks,
        margin_t=margin_t,
        gap=res["gap"],
        iterations=res["iterations"],
        diagnostics=diagnostics,
    )


def verify_certificate(problem, z_blocks):
    """Independent check of an infeasibility certificate.

    Recomputes, from the problem data alone: the smallest eigenvalue over
    the certificate blocks, the largest violation of Tr[F_i Z] = 0 (one
    sparse product per block), and the value Tr[F0 Z] (which must be
    strictly negative).
    """
    min_eig = min(
        float(np.linalg.eigvalsh(_herm(np.asarray(z)))[0]) for z in z_blocks
    )
    traces = np.zeros(problem.m)
    for fmat, z in zip(problem.fs, z_blocks):
        traces += (fmat @ np.asarray(z).T.ravel()).real
    viol = float(np.abs(traces).max()) if problem.m else 0.0
    value = sum(
        (problem.f0s[b] * np.asarray(z_blocks[b]).T).sum().real
        for b in range(len(z_blocks))
    )
    passed = (
        min_eig >= -policy.CERT_TOL
        and viol <= policy.CERT_TOL
        and value <= -policy.REFUSAL_BAND
    )
    return CertificateCheck(
        passed=passed,
        min_eigenvalue=min_eig,
        constraint_violation=viol,
        objective_value=value,
    )
