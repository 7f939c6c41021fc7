"""Semidefinite programming over Hermitian matrix blocks with sparse
direction storage.

Problems come in the standard linear-matrix-inequality form

    minimize    c . x
    subject to  F(x) = F0 + sum_i x_i F_i  >=  0,

where all matrices are Hermitian and block diagonal (each block given
separately).  The dual is

    maximize   -Tr[F0 Z]
    subject to  Tr[F_i Z] = c_i,   Z >= 0.

Pure feasibility questions (c = 0) are answered through the margin problem

    minimize t   subject to   F(x) + t * 1 >= 0,

which is always strictly feasible; its optimum t* is negative exactly when
F(x) >= 0 has a strictly feasible point, and when t* > 0 the dual optimizer
is a certificate of infeasibility: Z >= 0 with Tr[F_i Z] = 0 for all i,
Tr Z = 1 and Tr[F0 Z] = -t* < 0, which contradicts F(x) >= 0 for every x.

The solver is a primal-dual path-following method with the HKM direction and
a Mehrotra-style predictor-corrector step, run from the customary infeasible
start (x = 0, slack beta * identity with beta = 1 + ||F0||, dual identity
scaled to meet the trace constraints in least squares).  Complex Hermitian
data is handled natively; when every constraint matrix is purely real (or
purely imaginary with a vanishing objective coefficient, in which case the
direction can be dropped: a real dual matrix satisfies its constraint
automatically and a real-restricted primal loses nothing), the iteration
runs in real symmetric arithmetic, which is noticeably faster.

Direction matrices are stored sparse: each block's stack F_1..F_m is one
compressed-sparse-row (CSR) matrix of shape (m, n^2) whose row i is the
row-major vec of F_i.  The stacks of all blocks form one DirectionStacks
object, which problems differing only in F0 share; the layouts derived
from the stacks (among them each stack's transpose, a view of the same
arrays) are built once per object.

The solver splits every block into the connected components of its exact
sparsity pattern: F0_b, the union of the direction supports in block b,
and the diagonal (Gatermann & Parrilo, "Symmetry groups, semidefinite
programs, and sums of squares", J. Pure Appl. Algebra 192, 2004, exploit
the same block-diagonal structure).  F(x) is block diagonal over the
components for every x, and so is every iterate, so the split is exact.
Components of equal side form a side class, stored as one (g, s, s)
stack, and the classes lie one after another in one packed vector
(BlockSplit, built once per stacks and partition).  Per iteration, each
class's S and Z are factored once (Cholesky) and their triangular
factors inverted once; S^-1, the direction solves and the step-length
eigenvalues are batched calls over the class's stack.  Residuals,
updates and Hermitian parts act on the packed vector at once, and so do
the sparse products with the directions (F(x) and the trace pairings),
through one packed copy of all stacks.  The number of calls per
iteration thus grows with the side classes, not with the components; a
dense state keeps one component per block.

The Schur complement is assembled per class as in Fujisawa, Kojima &
Nakata ("Exploiting sparsity in primal-dual interior-point methods for
SDP", Math. Program. 79, 1997): one sparse product with Z, one batched
dense product with S^-1, and one sparse contraction against the stack.
The assembly runs over chunks of direction columns, so its dense
workspace is two arrays of about SCHUR_CHUNK_BYTES each, whatever m is;
each solve allocates them once and reuses them for every chunk, class and
iteration.  The finite checks run once per iteration, on the factors,
the iterates and the directions.  The Schur matrix alone goes through
scipy's cho_factor and cho_solve.

The solution comes back in the caller's block layout, exactly zero off
the components.

Everything is deterministic: no randomness, fixed starting point.
"""

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

# bytes of one Schur assembly workspace array (see schur_chunk)
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


def _row_absmax(mat):
    """Largest entry magnitude in each row of a sparse matrix."""
    return abs(mat).max(axis=1).toarray().ravel()


def _vec_transpose(n):
    """Column order that maps the row-major vec of X to that of X^T."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def _combine(x, fmat_t, n):
    """sum_i x_i F_i as a dense n x n matrix, from the transposed stack
    (DirectionStacks.transposed)."""
    return (fmat_t @ x).reshape(n, n)


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
    """The direction stacks of every block, plus the layouts derived from
    them alone.

    Item b is block b's CSR stack of shape (m, n_b**2).  Problems that
    differ only in F0 can share one instance: the re-layouts the solver
    needs (the margin direction appended, the real parts, the transposes,
    the block splits) are built on first use, once even under concurrent
    callers, and live exactly as long as the stacks.  The constructor
    brings each CSR block to canonical form in place and trusts it
    otherwise (finite, Hermitian directions); from_blocks converts and
    checks it.
    """

    def __init__(self, blocks):
        self._blocks = list(blocks)
        for stack in self._blocks:
            # sorted indices: row_maxima's scan of stack.real sorts a copy
            # of the indices in place under data it shares with the stack
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
            if m:
                devs = _row_absmax(stack - stack[:, _vec_transpose(n)].conj())
                scales = np.maximum(1.0, _row_absmax(stack))
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

    def with_margin(self):
        """The stacks with the identity appended as one more direction."""
        return self._cached("margin", lambda: DirectionStacks(
            sps.vstack([stack, sps.csr_array(np.eye(n).reshape(1, -1))], format="csr")
            for stack, n in zip(self._blocks, self.sides)
        ))

    def row_maxima(self):
        """Largest real and largest imaginary entry magnitude per direction,
        over all blocks."""
        def scan():
            re_max = np.zeros(self.m)
            im_max = np.zeros(self.m)
            for stack in self._blocks:
                re_max = np.maximum(re_max, _row_absmax(stack.real))
                im_max = np.maximum(im_max, _row_absmax(stack.imag))
            return re_max, im_max

        return self._cached("rows", scan)

    def real_rows(self, keep):
        """Real parts of the directions listed in keep."""
        keep = np.asarray(keep, dtype=int)
        return self._cached(("real", keep.tobytes()), lambda: DirectionStacks(
            stack[keep].real for stack in self._blocks
        ))

    def transposed(self):
        """Each block's stack transposed, (n_b**2, m): a CSC view that
        shares the CSR stack's arrays."""
        return self._cached("transposed", lambda: [stack.T for stack in self._blocks])

    def split(self, f0s):
        """The BlockSplit of problems on these stacks with constant blocks
        f0s: block b cut along the connected components of the pattern of
        f0s[b], of every direction and of the diagonal.  Built once per
        partition, which sweep points with one F0 pattern share."""

        def scan():
            out = []
            for stack, n in zip(self._blocks, self.sides):
                support = np.eye(n, dtype=bool)
                support.flat[stack.indices] = True
                out.append(support)
            return out

        patterns = [f0 != 0 for f0 in f0s]
        supports = self._cached("supports", scan)
        labels = self._cached(("labels", *(p.tobytes() for p in patterns)), lambda: [
            _component_labels(support | pattern)
            for support, pattern in zip(supports, patterns)
        ])
        key = ("split", *(lab.tobytes() for lab in labels))
        return self._cached(key, lambda: BlockSplit(self._blocks, labels))


class BlockSplit:
    """Blocks cut into the connected components of their sparsity pattern,
    the components grouped into side classes.

    labels[b] numbers the component of each index of block b.  A
    component keeps its indices in increasing order; the components of
    one side s form a class, stored as one C-ordered (g, s, s) stack, and
    the classes lie one after another in one packed vector of length N.
    Fields: classes, the packed range and stack shape (lo, hi, (g, s, s))
    of each class; stack, every block's directions on the packed vector,
    a CSC array of shape (m, N); schur, the schur_stacks of each class,
    on its column range of stack; dest, the
    position of each packed entry in the blocks' row-major vecs laid end
    to end; diag, the packed positions of the diagonal; and the index
    arrays that herm and block_norms use.
    """

    def __init__(self, blocks, labels):
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
        coos = [stack.tocoo() for stack in blocks]
        self.stack = sps.csc_array(
            (
                np.concatenate([coo.data for coo in coos]),
                (
                    np.concatenate([coo.row for coo in coos]),
                    np.concatenate([
                        packed[start + coo.col] for start, coo in zip(starts, coos)
                    ]),
                ),
            ),
            shape=(blocks[0].shape[0], offset),
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
        """The block matrices of a packed vector, zero off the components."""
        flat = np.zeros(self.starts[-1], packed.dtype)
        flat[self.dest] = packed
        return [
            flat[lo:hi].reshape(n, n)
            for lo, hi, n in zip(self.starts, self.starts[1:], self.sides)
        ]

    def views(self, packed):
        """The (g, s, s) stack of each class in a packed vector; a list of
        per-class stacks passes through."""
        if isinstance(packed, list):
            return packed
        return [packed[lo:hi].reshape(shape) for lo, hi, shape in self.classes]

    def matmul(self, a, b):
        """The packed product of two block-diagonal matrices, each given
        packed or as per-class stacks."""
        a, b = self.views(a), self.views(b)
        out = np.empty(self.dest.size, np.result_type(a[0], b[0]))
        for x, y, o in zip(a, b, self.views(out)):
            np.matmul(x, y, out=o)
        return out

    def herm(self, packed):
        """The Hermitian part of a packed matrix."""
        return (packed + packed[self.transpose].conj()) / 2

    def identity(self, dtype):
        """The packed identity."""
        out = np.zeros(self.dest.size, dtype)
        out[self.diag] = 1
        return out

    def combine(self, x):
        """sum_i x_i F_i, packed."""
        return self._stack_t @ x

    def trace_pairs(self, packed):
        """Re Tr[F_i U] for every direction, U given packed: F_i is
        Hermitian, so this is Re sum_pq F_i[p, q] conj(U[p, q])."""
        return (self.stack @ packed.conj()).real

    def block_norms(self, packed):
        """The Frobenius norm of each caller block of a packed matrix."""
        sq = (packed * packed.conj()).real
        return np.sqrt(np.bincount(self.owner, sq, minlength=len(self.sides)))


@dataclass
class SdpProblem:
    """Block-diagonal LMI data.

    f0s[b] is the constant matrix of block b; fs holds the direction
    stacks, item b being one CSR matrix of shape (m, n_b**2) whose row i is
    the row-major vec of F_i.  fs may be a DirectionStacks shared with
    other problems (checked once when it was made) or a list of CSR or
    dense (m, n_b, n_b) stacks, converted once.  All matrices must be
    finite and Hermitian, and c finite (checked, rejected when not).
    """

    f0s: list
    fs: Sequence
    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        m = len(self.c)
        bad = np.nonzero(~np.isfinite(self.c))[0]
        if bad.size:
            raise ValueError(f"objective coefficient {bad[0]} is not finite")
        if len(self.f0s) != len(self.fs):
            raise ValueError("f0s and fs must list the same blocks")
        for b, f0 in enumerate(self.f0s):
            n = f0.shape[0]
            if f0.shape != (n, n):
                raise ValueError(f"block {b}: constant matrix is not square")
            check_hermitian(f0, what=f"block {b}: constant matrix")
        sides = self.block_sizes
        if not isinstance(self.fs, DirectionStacks):
            self.fs = DirectionStacks.from_blocks(self.fs, sides, m)
        elif self.fs.m != m or self.fs.sides != sides:
            raise ValueError(
                f"shared direction stacks hold {self.fs.m} directions on blocks "
                f"{self.fs.sides}, expected {m} on {sides}"
            )

    @property
    def m(self):
        return len(self.c)

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


def _structured_real_reduction(f0s, fs, c):
    """Detect an equivalent real-symmetric problem.

    fs is a DirectionStacks.  Returns (real_f0s, real_fs, keep) or None.
    Directions that are purely imaginary Hermitian and carry a
    (numerically) zero objective coefficient are dropped: any real
    symmetric matrix is orthogonal to them in the trace pairing, and
    restricting the primal to the kept directions is lossless because the
    real part of any feasible F(x) is again feasible with the same
    objective value.
    """
    for f0 in f0s:
        if np.abs(f0.imag).max() > policy.ZERO_PART * max(1.0, np.abs(f0).max()):
            return None
    real_f0s = [f0.real.copy() for f0 in f0s]
    if len(c) == 0:
        return real_f0s, fs.real_rows([]), []
    re_max, im_max = fs.row_maxima()
    scales = np.maximum(1.0, np.maximum(re_max, im_max))
    c_scale = max(1.0, np.abs(c).max())
    real = im_max <= policy.ZERO_PART * scales
    droppable = (re_max <= policy.ZERO_PART * scales) & (
        np.abs(c) <= policy.ZERO_PART * c_scale
    )
    if not np.all(real | droppable) or not real.any():
        return None
    keep = np.nonzero(real)[0]
    return real_f0s, fs.real_rows(keep), keep


def _max_step(inverses, deltas):
    """Step lengths for stacks of shape (k, g, n, n): item j is the
    largest alpha <= 1 with X + alpha*delta >= 0 for each of the g pairs
    of stack j, X = L L^dag given by the inverse L^-1 of its Cholesky
    factor in inverses and delta at the same place in deltas.

    The smallest eigenvalue of L^-1 delta L^-dag decides; the whole stack
    goes to np.linalg.eigvalsh at once, which reads the lower triangle of
    each Hermitian product.
    """
    y = inverses @ deltas @ inverses.conj().swapaxes(-1, -2)
    lams = np.linalg.eigvalsh(y)[..., 0].min(axis=-1)
    return [1.0 if lam >= -1e-14 else min(1.0, -1.0 / lam) for lam in lams]


def _trace_pairs(fmat, z):
    """Tr[F_i Z] for the whole direction stack (fmat is (m, n*n))."""
    return (fmat @ z.T.ravel()).real


def schur_chunk(m, entries, itemsize):
    """Direction columns per Schur assembly chunk with m directions of
    entries dense entries each (n^2 for a side-n block, g*s^2 for a class
    of g side-s components): as many as fit in SCHUR_CHUNK_BYTES at
    itemsize bytes per entry, at least one and at most m."""
    return max(1, min(m, SCHUR_CHUNK_BYTES // (itemsize * entries)))


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


def schur_workspace(stacks, dtype):
    """The two flat arrays schur_block works in, large enough for the
    chunks of every class in stacks (a list of schur_stacks)."""
    size = max((fmat.shape[1] * chunk for fmat, chunk, _ in stacks), default=0)
    return np.empty(size, dtype), np.empty(size, dtype)


def schur_block(stacks, sinv, z, out, work):
    """Add one class's share M_ij = Re Tr[F_i S^-1 F_j Z] of the Schur
    complement into the (m, m) array out.

    stacks is schur_stacks(fmat, n); sinv and z are the class's (g, n, n)
    stacks (or (n, n) matrices when g = 1), and work a schur_workspace
    pair that fits stacks, of a dtype that holds S^-1 F_j Z.  Per chunk of
    columns j, G_j = S^-1 F_j Z is one sparse product and one batched
    dense product into work[0]; conj(G_j[p, q]) on component c is then
    copied to row (c*n + p)*n + q, column j of a (g*n^2, w) view of
    work[1], so that the trace pairing with every F_i,
    Re Tr[F_i G_j] = Re sum F_i[p, q] conj(G_j[p, q]) for Hermitian F_i,
    is one sparse product, added into out[:, chunk].
    """
    fmat, chunk, fperms = stacks
    n = z.shape[-1]
    g = fmat.shape[1] // (n * n)
    zs = z.reshape(g * n, n)
    sinv = sinv.reshape(g, n, n)
    for lo, fperm in zip(range(0, fmat.shape[0], chunk), fperms):
        width = fperm.shape[0] // (g * n)
        prod = work[0][: g * n * width * n].reshape(g, n, width * n)
        np.matmul(sinv, (fperm @ zs).reshape(g, n, width * n), out=prod)
        gt = work[1][: g * n * n * width].reshape(g, n, n, width)
        np.conjugate(prod.reshape(g, n, width, n).transpose(0, 1, 3, 2), out=gt)
        out[:, lo:lo + width] += (fmat @ gt.reshape(g * n * n, width)).real


def _project_dual_constraints(fs_list, c, z_blocks):
    """Minimal-norm correction of Z onto the subspace Tr[F_i Z] = c_i.

    Stalled runs leave the dual constraints satisfied only to the residual
    floor (around 1e-8); the certificate tolerance sits right there, so a
    single least-squares projection removes the violation without moving
    the certificate by more than the violation itself.
    """
    m = len(c)
    resid = np.asarray(c, dtype=float).copy()
    gram = np.zeros((m, m))
    for fmat, fmat_t, z in zip(fs_list, fs_list.transposed(), z_blocks):
        resid -= _trace_pairs(fmat, np.asarray(z))
        gram += (fmat @ fmat_t.conj()).real.toarray()
    try:
        lam = sla.cho_solve(sla.cho_factor(gram), resid)
    except np.linalg.LinAlgError:
        lam = np.linalg.lstsq(gram, resid, rcond=None)[0]
    out = []
    for fmat_t, z in zip(fs_list.transposed(), z_blocks):
        z = np.asarray(z)
        out.append(_herm(z + _combine(lam, fmat_t, z.shape[0])))
    return out


def _solve_core(f0s, fs, c, tol, trace_cb=None, floor=-np.inf):
    """Interior-point loop over a DirectionStacks fs.  Returns the raw
    final state; trace_cb, when given, receives each iteration's row.

    The iterates live on the packed components of fs.split(f0s); x, the
    slack and the dual come back with the blocks unpacked.  floor is an
    objective value that only an unbounded problem reaches at a feasible
    point: the loop stops with status "unbounded" at the first iterate
    below it whose F(x) has no negative eigenvalue.
    """
    m = len(c)
    split = fs.split(f0s)
    ntot = sum(split.sides)
    fixed = split.pack(f0s)
    dtype = np.result_type(fixed.dtype, split.stack.dtype)
    # per solve, not cached on fs: concurrent solves share the stacks
    work = schur_workspace(split.schur, dtype)
    trace_cb = trace_cb or (lambda row: None)

    beta = 1.0 + np.sqrt(sum(np.linalg.norm(f0) ** 2 for f0 in f0s))
    x = np.zeros(m)
    eye = split.identity(fixed.dtype)
    slack = beta * eye

    tvec = split.trace_pairs(eye)
    denom = tvec @ tvec
    tau = (c @ tvec) / denom if denom > 1e-300 else 1.0
    if not np.isfinite(tau) or tau <= 1e-10:
        tau = 1.0
    zdual = tau * eye

    f0_scale = 1.0 + np.sqrt(sum(np.linalg.norm(f0) ** 2 for f0 in f0s))
    c_scale = 1.0 + (np.abs(c).max() if m else 0.0)
    frac = 0.98
    status = ITER_LIMIT
    stalls = 0
    floor_hits = 0
    best = None
    it = 0
    pinf = dinf = gap = mu = np.inf

    def iterate_usable(rec):
        # good enough for residual-based post-processing even though the
        # strict convergence test did not fire
        return (
            rec is not None
            and rec["pinf"] <= policy.USABLE_RESIDUAL
            and rec["dinf"] <= policy.USABLE_RESIDUAL
            and abs(rec["gap"]) <= policy.USABLE_GAP * rec["gscale"]
        )

    def min_eigenvalue(packed):
        return min(
            np.linalg.eigvalsh(v)[:, 0].min() for v in split.views(split.herm(packed))
        )

    for it in range(1, policy.MAX_ITER + 1):
        fx = fixed + split.combine(x)
        rp = fx - slack
        rd = c - split.trace_pairs(zdual)
        # Tr[S Z] and Tr[F0 Z] as sums of S[p, q] conj(Z[p, q]): Z is
        # Hermitian
        mu = np.vdot(zdual, slack).real / ntot
        pobj = float(c @ x)
        dobj = -np.vdot(zdual, fixed).real
        gap = pobj - dobj
        pinf = split.block_norms(rp).max() / f0_scale
        dinf = (np.abs(rd).max() / c_scale) if m else 0.0
        row = {
            "iteration": it,
            "mu": mu,
            "gap": gap,
            "pobj": pobj,
            "dobj": dobj,
            "pinf": pinf,
            "dinf": dinf,
        }
        gscale = max(1.0, abs(pobj), abs(dobj))
        score = max(pinf, dinf, abs(gap) / gscale)
        if best is None or score < best["score"]:
            # held by reference: every iteration binds x, slack and zdual
            # to new arrays and never writes into old ones
            best = {
                "score": score,
                "x": x,
                "slack": slack,
                "z": zdual,
                "gap": gap,
                "pinf": pinf,
                "dinf": dinf,
                "mu": mu,
                "gscale": gscale,
            }
        if (
            pinf <= tol.feas_tol
            and dinf <= tol.feas_tol
            and abs(gap) <= tol.gap_tol * gscale
        ):
            trace_cb(row)
            status = "converged"
            break
        if pobj < floor and min_eigenvalue(fx) >= 0:
            trace_cb(row)
            status = "unbounded"
            break

        # near-degenerate optima floor the dual residual a hair above
        # feas_tol while complementarity keeps collapsing; once mu sits
        # orders below anything the tolerances can use, more iterations
        # only invite factorization failure
        if iterate_usable(best) and mu <= 1e-11 * gscale:
            floor_hits += 1
        else:
            floor_hits = 0
        if floor_hits >= 2:
            trace_cb(row)
            status = "stalled"
            break

        try:
            chols = [np.linalg.cholesky(v) for v in split.views(slack)]
            cholz = [np.linalg.cholesky(v) for v in split.views(zdual)]
        except np.linalg.LinAlgError:
            if iterate_usable(best):
                # so close to the boundary that factorization noise flips
                # eigenvalue signs; the best iterate seen is already good
                # enough for residual-based classification, so stop
                trace_cb(row)
                status = "stalled"
                break
            raise SdpNumericalError(
                "slack or dual iterate lost positive definiteness",
                iteration=it,
                diagnostics=row,
            ) from None
        _require_finite([*chols, *cholz, slack, zdual])
        # per class, the inverse factors of S (first) and Z (second); S^-1
        inverses = [np.linalg.inv(np.stack(pair)) for pair in zip(chols, cholz)]
        sinv = [inv[0].conj().swapaxes(-1, -2) @ inv[0] for inv in inverses]
        zviews = split.views(zdual)
        rpz = split.matmul(split.views(rp), zviews)

        # Schur complement M_ij = sum Re Tr[F_i S^-1 F_j Z] (symmetric
        # positive definite) over the classes
        schur = np.zeros((m, m))
        for stacks, si, z in zip(split.schur, sinv, zviews):
            schur_block(stacks, si, z, schur, work)
        schur = (schur + schur.T) / 2
        try:
            schur_fact = sla.cho_factor(schur)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * max(1.0, np.trace(schur) / max(m, 1))
            try:
                schur_fact = sla.cho_factor(schur + jitter * np.eye(m))
            except np.linalg.LinAlgError:
                if iterate_usable(best):
                    trace_cb(row)
                    status = "stalled"
                    break
                raise SdpNumericalError(
                    "Schur complement lost positive definiteness",
                    iteration=it,
                    diagnostics=row,
                ) from None

        def direction(kmat):
            v0 = kmat - rpz
            # Re Tr[F_i U] with U = S^-1 (K - Rp Z)
            rhs = split.trace_pairs(split.matmul(sinv, v0)) - rd
            dx = sla.cho_solve(schur_fact, rhs)
            ds = split.combine(dx) + rp
            v = kmat - split.matmul(ds, zviews)
            dz = split.herm(split.matmul(sinv, v))
            _require_finite([v0, v, ds, dz])
            return dx, ds, dz

        def max_steps(ds, dz):
            steps = [
                _max_step(inv, np.stack(pair))
                for inv, pair in zip(inverses, zip(split.views(ds), split.views(dz)))
            ]
            return min(s[0] for s in steps), min(s[1] for s in steps)

        # predictor (affine scaling: K = -S Z)
        sz = split.matmul(split.views(slack), zviews)
        dx_a, ds_a, dz_a = direction(-sz)
        ap_a, ad_a = max_steps(ds_a, dz_a)
        mu_aff = np.vdot(zdual + ad_a * dz_a, slack + ap_a * ds_a).real / ntot
        mu_aff = max(mu_aff, 0.0)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector: K = sigma mu 1 - S Z - dS_a dZ_a
        kc = -sz
        kc[split.diag] += sigma * mu
        kc -= split.matmul(ds_a, dz_a)
        dx, ds, dz = direction(kc)
        alpha_p, alpha_d = max_steps(ds, dz)
        alpha_p = min(1.0, frac * alpha_p)
        alpha_d = min(1.0, frac * alpha_d)
        row["sigma"] = sigma
        row["alpha_p"] = alpha_p
        row["alpha_d"] = alpha_d
        trace_cb(row)

        if alpha_p < 1e-8 and alpha_d < 1e-8:
            stalls += 1
            if stalls >= 3:
                break
        else:
            stalls = 0
        x = x + alpha_p * dx
        slack = split.herm(slack + alpha_p * ds)
        zdual = split.herm(zdual + alpha_d * dz)

    if status not in ("converged", "unbounded") and best is not None:
        cur_score = max(pinf, dinf)
        if np.isfinite(gap):
            cur_score = max(cur_score, abs(gap) / best["gscale"])
        if best["score"] < cur_score:
            x, slack, zdual = best["x"], best["slack"], best["z"]
            gap, pinf, dinf, mu = (
                best["gap"],
                best["pinf"],
                best["dinf"],
                best["mu"],
            )
    return {
        "status": status,
        "x": x,
        "z": split.unpack(zdual),
        "slack": split.unpack(slack),
        "iterations": it,
        "gap": gap,
        "pinf": pinf,
        "dinf": dinf,
        "mu": mu,
        "side_classes": split.side_classes,
    }


def _run(tol, trace_cb, f0s, fs, c, floor=-np.inf):
    """Dispatch to real or complex arithmetic and embed the solution back."""
    red = _structured_real_reduction(f0s, fs, c)
    if red is None:
        res = _solve_core(f0s, fs, c, tol, trace_cb, floor)
        res["real_path"] = False
        return res
    rf0s, rfs, keep = red
    res = _solve_core(
        rf0s, rfs, np.asarray(c)[keep] if len(c) else c, tol, trace_cb, floor
    )
    x = np.zeros(len(c))
    if len(keep):
        x[keep] = res["x"]
    res["x"] = x
    res["z"] = [z.astype(complex) for z in res["z"]]
    res["slack"] = [s.astype(complex) for s in res["slack"]]
    res["real_path"] = True
    return res


def solve(problem, tolerances=None, trace=None):
    """Solve an objective problem to the duality-gap tolerance.

    Problems with an identically zero objective are feasibility questions
    and are routed through feasibility_margin.
    """
    tol = tolerances or SolverTolerances()
    if problem.m == 0 or not np.any(problem.c):
        return feasibility_margin(problem, tolerances=tolerances, trace=trace)
    res = _run(tol, trace, problem.f0s, problem.fs, problem.c)
    diagnostics = {
        "pinf": res["pinf"],
        "dinf": res["dinf"],
        "mu": res["mu"],
        "real_path": res["real_path"],
        "side_classes": res["side_classes"],
    }
    status = ITER_LIMIT
    if res["status"] == "converged":
        status = FEASIBLE
    elif res["status"] == "stalled":
        # the loop hit its numerical floor; accept the point only if the
        # linear matrix inequality verifies directly from the problem data
        lam = min(
            float(np.linalg.eigvalsh(_herm(f0 + _combine(res["x"], fmat_t, len(f0))))[0])
            for f0, fmat_t in zip(problem.f0s, problem.fs.transposed())
        )
        if lam >= -tol.feas_tol:
            status = FEASIBLE
            diagnostics["early_stop"] = "stalled at the residual floor"
    return SdpOutcome(
        status=status,
        x=res["x"],
        z_blocks=res["z"],
        margin_t=None,
        gap=res["gap"],
        iterations=res["iterations"],
        diagnostics=diagnostics,
    )


def feasibility_margin(problem, tolerances=None, trace=None):
    """Decide feasibility of F(x) >= 0 through the margin problem.

    The verdict is backed from both sides: infeasibility requires the dual
    bound -Tr[F0 Z] (valid for any dual-feasible Z with unit trace) to clear
    the margin tolerance, feasibility requires the primal point to do so,
    and when both optima are pinched inside the band the answer is marginal.

    The margin is unbounded below when some combination of the F_i is
    positive definite.  Otherwise a unit-trace Z >= 0 with Tr[F_i Z] = 0
    for every i exists and gives t >= -Tr[F0 Z] >= -||F0|| for every
    feasible (x, t), so the solve stops at the first feasible iterate
    below -(1 + ||F0||).  The verdict there is feasible once F(x) is
    verified positive definite from the problem data, with the margin
    -lambda_min(F(x)) that this x attains and no dual certificate;
    SdpNumericalError is raised when it is not.
    """
    m = problem.m
    aug_fs = problem.fs.with_margin()
    aug_c = np.zeros(m + 1)
    aug_c[m] = 1.0
    floor = -1.0 - np.sqrt(sum(np.linalg.norm(f0) ** 2 for f0 in problem.f0s))
    res = _run(
        tolerances or SolverTolerances(), trace, problem.f0s, aug_fs, aug_c, floor
    )
    diagnostics = {
        "pinf": res["pinf"],
        "dinf": res["dinf"],
        "mu": res["mu"],
        "real_path": res["real_path"],
        "side_classes": res["side_classes"],
    }
    if res["status"] == "unbounded":
        return _unbounded_margin(problem, res, diagnostics)

    t_primal = float(res["x"][m])
    zraw = res["z"]
    viol = aug_c.copy()
    for b in range(len(zraw)):
        viol -= _trace_pairs(aug_fs[b], np.asarray(zraw[b]))
    if np.abs(viol).max() > 0.25 * policy.CERT_TOL:
        zraw = _project_dual_constraints(aug_fs, aug_c, zraw)
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


def _unbounded_margin(problem, res, diagnostics):
    """The feasible verdict of a margin problem whose solve stopped below
    its floor, after checking F(x) > 0 block by block."""
    x = res["x"][: problem.m]
    eigs = [
        np.linalg.eigvalsh(_herm(f0 + _combine(x, fmat_t, len(f0))))
        for f0, fmat_t in zip(problem.f0s, problem.fs.transposed())
    ]
    lam = min(float(e[0]) for e in eigs)
    top = max(float(e[-1]) for e in eigs)
    diagnostics.update(unbounded=True, min_eigenvalue=lam)
    if lam <= policy.POSITIVE_DEFINITE * max(1.0, top):
        raise SdpNumericalError(
            "margin unbounded below, but F(x) at the stopping point is not "
            f"positive definite (smallest eigenvalue {lam:.3e})",
            iteration=res["iterations"],
            diagnostics=diagnostics,
        )
    return SdpOutcome(
        status=FEASIBLE,
        x=x,
        z_blocks=None,
        margin_t=-lam,
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
        traces += _trace_pairs(fmat, np.asarray(z))
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
