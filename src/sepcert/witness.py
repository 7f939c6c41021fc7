"""Entanglement witnesses from infeasibility certificates.

When a level-k extension problem is infeasible, the dual certificate blocks
combine into an observable Z on A x B with Tr[rho Z] < 0 and nonnegative
expectation on every product state.  Nonnegativity has an explicit algebraic
form: the product expectation times <x|x>^(k-1) equals a sum of quadratic
forms of the certificate blocks over product vectors whose transposed slots
carry conjugated entries.  Both facts are checked numerically here rather
than assumed.

Also provides the local filtering family rho -> (A_g x 1) rho (A_g x 1)^dag
with A_g = diag(1, g, ..., g), along which `sweep choi-scaled` scans the
level-k verdict.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as policy
from .tensorops import (
    TensorSpace,
    multiset_arrangements,
    multisets,
    symmetric_subspace_dim,
)


class WitnessExtractionError(RuntimeError):
    pass


@dataclass
class Witness:
    """Normalized witness operator plus the certificate it came from.

    The operator is scaled so its largest eigenvalue magnitude is 1; the
    stored dual blocks carry the same scaling, which keeps the
    sum-of-squares identity exact for the pair.
    """

    matrix: np.ndarray
    space: TensorSpace
    level: int
    descriptors: list
    blocks: list
    value: float
    pairing_residual: float

    @property
    def dim_a(self):
        return self.space.factor_dims[0]

    @property
    def dim_b(self):
        return self.space.factor_dims[1]


def extract_witness(shape, problem, rho, z_blocks, image=None):
    """Build a witness from certificate blocks of the extension problem of
    rho, assembled on shape (image, when given, is their
    shape.adjoint_image).

    Each dual block is un-transposed in its own coordinates and the adjoint
    of the pinned-part embedding maps the sum back to A x B.  The identity
    Tr[rho Z~] = sum_b Tr[F0_b Z_b] must hold to policy.SELF_CHECK; the
    result is normalized to unit spectral radius together with its blocks.
    """
    raw = shape.dual_pairing(z_blocks, image)
    herm_dev = np.abs(raw - raw.conj().T).max()
    raw = (raw + raw.conj().T) / 2
    objective = sum(
        np.einsum("pq,qp->", f0, np.asarray(z)).real
        for f0, z in zip(problem.f0s, z_blocks)
    )
    on_state = np.einsum("pq,qp->", rho.matrix, raw).real
    residual = abs(on_state - objective)
    tol = policy.SELF_CHECK
    if residual > tol * max(1.0, abs(objective)) or herm_dev > tol:
        raise WitnessExtractionError(
            f"witness pairing inconsistent with the certificate: "
            f"Tr[rho Z] = {on_state!r} vs dual objective {objective!r} "
            f"(residual {residual:.2e}, hermiticity {herm_dev:.2e})"
        )
    scale = float(np.abs(np.linalg.eigvalsh(raw)).max())
    if scale <= 0:
        raise WitnessExtractionError("certificate maps to the zero operator")
    return Witness(
        matrix=raw / scale,
        space=TensorSpace([shape.d_a, shape.d_b]),
        level=shape.k,
        descriptors=list(shape.descriptors),
        blocks=[np.asarray(z) / scale for z in z_blocks],
        value=on_state / scale,
        pairing_residual=residual,
    )


# -- product-state diagnostics ------------------------------------------


def _haar_vectors(rng, n, d):
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _polish_products(z4, ys, iters=60):
    """Alternating smallest-eigenvector descent on the product expectation,
    advancing every starting pair at once.

    Each row of ys seeds one descent: x is the lowest eigenvector of the
    operator y leaves on A, then y the lowest one of what x leaves on B.  A
    row stops once its value changes by at most 1e-14 relative; the others
    go on, for at most iters rounds.  The stacked contractions and
    eigensolvers do per row what one pair at a time would, so every row's
    value and vectors are those of a separate descent.  Returns the values
    and the final x and y, one row per start.
    """
    n = len(ys)
    xs = np.empty((n, z4.shape[0]), dtype=complex)
    ys = np.array(ys, dtype=complex)
    vals = np.empty(n)
    active = np.arange(n)
    for step in range(iters):
        y = ys[active]
        mx = np.einsum("abcd,nb,nd->nac", z4, y.conj(), y)
        mx = (mx + mx.conj().transpose(0, 2, 1)) / 2
        x = np.linalg.eigh(mx)[1][:, :, 0]
        my = np.einsum("abcd,na,nc->nbd", z4, x.conj(), x)
        my = (my + my.conj().transpose(0, 2, 1)) / 2
        y = np.linalg.eigh(my)[1][:, :, 0]
        new = np.einsum("na,nb,abcd,nc,nd->n", x.conj(), y.conj(), z4, x, y).real
        old = vals[active]
        xs[active], ys[active], vals[active] = x, y, new
        if step:
            moving = np.abs(old - new) > 1e-14 * np.maximum(1.0, np.abs(new))
            active = active[moving]
            if not len(active):
                break
    return vals, xs, ys


def minimize_on_products(mat, space, samples=10000, seed=1234, polish=50):
    """Minimum of <x y| mat |x y> over unit product vectors.

    Random sampling followed by alternating eigenvector descent from the
    most promising starting points.  Deterministic for a fixed seed.
    """
    da, db = space.factor_dims
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_pair = None
    chunk = 2000
    done = 0
    keep_vals, keep_ys = [], []
    while done < samples:
        n = min(chunk, samples - done)
        xs = _haar_vectors(rng, n, da)
        ys = _haar_vectors(rng, n, db)
        v = _row_kron(xs, ys)
        vals = np.einsum("ni,ni->n", v.conj(), v @ mat.T).real
        order = np.argsort(vals)
        top = order[: max(1, polish // 4)]
        keep_vals.append(vals[top])
        keep_ys.append(ys[top])
        if vals[order[0]] < best_val:
            best_val = float(vals[order[0]])
            best_pair = (xs[order[0]], ys[order[0]])
        done += n
    sampled_min = best_val
    starts = np.argsort(np.concatenate(keep_vals), kind="stable")[:polish]
    if len(starts):
        vals, xs, ys = _polish_products(
            mat.reshape(da, db, da, db), np.concatenate(keep_ys)[starts]
        )
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_pair = (xs[i], ys[i])
    return {
        "min_value": best_val,
        "sampled_min": sampled_min,
        "state_a": best_pair[0],
        "state_b": best_pair[1],
        "samples": samples,
    }


# -- sum-of-squares identity --------------------------------------------


def _compress_power(vecs, l):
    """Symmetric-subspace coordinates of the l-fold tensor power of each row."""
    n, d = vecs.shape
    if l == 0:
        return np.ones((n, 1), dtype=complex)
    out = np.empty((n, symmetric_subspace_dim(d, l)), dtype=complex)
    for pos, mu in enumerate(multisets(d, l)):
        # complex products spelled out in real arithmetic, which rounds
        # like a product of two complex scalars (numpy's complex array
        # loop may fuse the multiply and add)
        re, im = np.ones(n), np.zeros(n)
        for idx in mu:
            vr, vi = vecs[:, idx].real, vecs[:, idx].imag
            re, im = re * vr - im * vi, re * vi + im * vr
        scale = math.sqrt(multiset_arrangements(mu))
        out.real[:, pos] = scale * re
        out.imag[:, pos] = scale * im
    return out


def _row_vdot(a, b):
    """np.vdot of each row of a with the same row of b."""
    return np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0]


def _row_kron(a, b):
    """Row-wise Kronecker product of two stacks of vectors."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _block_vectors(witness, desc, x, y):
    """Product vectors in the coordinates of one certificate block,
    Sym_l x Sym_(k-l) x B, one row per row of x and y.

    Transposed slots carry conjugated entries: the first `a_transposed`
    copies use conj(x) and the B slot uses conj(y) when B is transposed.
    """
    l = desc.a_transposed
    yv = y.conj() if desc.b_transposed else y
    left = _compress_power(x.conj(), l)
    right = _compress_power(x, witness.level - l)
    return _row_kron(_row_kron(left, right), yv)


def verify_ksos_identity(witness, samples=1000, seed=7):
    """Check the algebraic nonnegativity identity on random product vectors.

    For unnormalized x, y the identity reads

        <x y| Z |x y> * <x|x>^(k-1) = sum_b <v_b| W_b |v_b>

    up to the dual residual of the certificate.  Returns the worst relative
    residual over the sample.  All samples are evaluated in one batch,
    with stacked vector and matrix-vector products, so each sample's
    residual is the number a one-vector-at-a-time evaluation gives.
    """
    rng = np.random.default_rng(seed)
    da, db = witness.space.factor_dims
    k = witness.level
    z4 = witness.matrix.reshape(da, db, da, db)
    g = rng.standard_normal((samples, 2 * da + 2 * db))
    x = g[:, :da] + 1j * g[:, da : 2 * da]
    y = g[:, 2 * da : 2 * da + db] + 1j * g[:, 2 * da + db :]
    xx = _row_vdot(x, x).real
    yy = _row_vdot(y, y).real
    lhs = (
        np.einsum("na,nb,abcd,nc,nd->n", x.conj(), y.conj(), z4, x, y).real
        * xx ** (k - 1)
    )
    rhs = np.zeros(samples)
    for desc, block in zip(witness.descriptors, witness.blocks):
        v = _block_vectors(witness, desc, x, y)
        wv = np.matmul(np.asarray(block), v[:, :, None])[:, :, 0]
        rhs += _row_vdot(v, wv).real
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), xx**k * yy)
    worst = float(np.max(np.abs(lhs - rhs) / denom, initial=0.0))
    return {"max_relative_residual": worst, "samples": samples}


# -- local filtering family ---------------------------------------------


def _filter_matrix(d, gamma):
    if gamma <= 0:
        raise ValueError(f"filter strength must be positive, got {gamma}")
    return np.diag([1.0] + [float(gamma)] * (d - 1))


def scale_state(rho, gamma):
    """Filtered state (A_g x 1) rho (A_g x 1)^dag, renormalized."""
    from .hierarchy import DensityMatrix

    a = _filter_matrix(rho.dim_a, gamma)
    op = np.kron(a, np.eye(rho.dim_b))
    m = op @ rho.matrix @ op.conj().T
    return DensityMatrix(m / np.trace(m).real, rho.space)
