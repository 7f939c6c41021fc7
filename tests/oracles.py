"""Reference constructions that the tests check the package against.

Explicit factor-permutation matrices stand beside the package's
index-level permute_factors, and the defining operator rebuilt from a
map's action on matrix units stands beside the stored one.  Separable
states come from explicit product ensembles, which also give their level-k
extensions, and the 4x4 family has its exact witness here.  The extension
test is also posed on the full copy space, without the package's
symmetric-subspace reduction, as a dense problem built from the averaged
embedding of the state, and the trace-down map is built by embedding
and partially tracing one basis element at a time.  The symmetric
isometry lifts the package's compressed extensions to the full copy
space, where the defining properties are checked factor by factor.
The detection threshold along the filter family is bracketed by
bisection over run_test, and the filter is transported onto witnesses.
The worst value of an operator on states with a positive partial
transpose is bracketed by bisection over margin solves posed on the
states themselves, the other side of decompose's split form.  The
positivity ladder's minimum and the threshold pencil are taken on the
whole composed operators, beside the package's torus-weight classes.
The margin optimum is solved for whatever F0 holds, where the package
decides a positive definite F0 at x = 0 on a checked bound.
None of these is needed by the package itself.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from sepcert import hierarchy, sdp
from sepcert import tolerances as policy
from sepcert.hierarchy import (
    ENTANGLED,
    MARGINAL,
    SEPARABLE_CONSISTENT,
    DensityMatrix,
    transpose_descriptors,
)
from sepcert.posmaps import apply_map, compose_with_symmetric_embedding
from sepcert.witness import _filter_matrix, scale_state
from sepcert.tensorops import (
    FactorError,
    TensorSpace,
    hermitian_basis,
    partial_trace,
    partial_transpose,
    permute_factors,
    symmetric_subspace_dim,
)


def factor_permutation_operator(space, perm):
    """Unitary that maps |i_perm[0], i_perm[1], ...> onto |i_0, i_1, ...>.

    perm lists, for each output slot, which input factor lands there.  All
    permuted slots must carry equal dimensions pairwise where they move.
    """
    dims = space.factor_dims
    f = len(dims)
    if sorted(perm) != list(range(f)):
        raise FactorError(f"{perm} is not a permutation of 0..{f - 1}")
    for out_slot, in_factor in enumerate(perm):
        if dims[out_slot] != dims[in_factor]:
            raise FactorError(
                f"cannot move factor {in_factor} (dim {dims[in_factor]}) into "
                f"slot {out_slot} (dim {dims[out_slot]})",
                factor=in_factor,
                size=dims[in_factor],
            )
    d = space.dim
    eye = np.eye(d).reshape(dims + dims)
    # P[(r), (c)] = prod_s delta(r_s, c_perm[s]), so the column axis feeding
    # old factor t must sit at position perm^-1(t)
    inv = [0] * f
    for slot, factor in enumerate(perm):
        inv[factor] = slot
    axes = list(range(f)) + [f + inv[s] for s in range(f)]
    return eye.transpose(axes).reshape(d, d)


def swap_operator(space, i, j):
    """Self-inverse Hermitian unitary exchanging factors i and j."""
    space.check_factor(i)
    space.check_factor(j)
    dims = space.factor_dims
    if dims[i] != dims[j]:
        raise FactorError(
            f"cannot swap factor {i} (dim {dims[i]}) with factor {j} "
            f"(dim {dims[j]}): dimensions differ",
            factor=j,
            size=dims[j],
        )
    perm = list(range(space.nfactors))
    perm[i], perm[j] = perm[j], perm[i]
    return factor_permutation_operator(space, perm)


def partial_transpose_multi(mat, space, which_set):
    """Transpose several factors at once (composition of single transposes)."""
    out = mat
    for w in sorted(set(which_set)):
        out = partial_transpose(out, space, w)
    return out


def _multiset_index(d, k):
    """All d^k index tuples, each mapped to its sorted-multiset id.

    Returns (multisets, inverse, counts): the lexicographic list of sorted
    k-tuples over range(d), the multiset id of every raw tuple, and the
    number of arrangements of each multiset.
    """
    grids = np.indices((d,) * k).reshape(k, -1).T  # (d^k, k), rows are tuples
    srt = np.sort(grids, axis=1)
    multisets, inverse, counts = np.unique(
        srt, axis=0, return_inverse=True, return_counts=True
    )
    return multisets, inverse.ravel(), counts


_ISOMETRY_CAP = 20000


def symmetric_isometry(d, k):
    """Isometry from the occupation-number basis into (C^d)^(x k).

    Columns are indexed by sorted multisets in lexicographic order; column mu
    is the normalized sum over all distinct arrangements of mu.  B^dag B = 1
    and B B^dag is the symmetric projector.  Real-valued.
    """
    if d**k > _ISOMETRY_CAP:
        raise FactorError(
            f"symmetric isometry for d={d}, k={k} needs ambient dimension "
            f"{d**k}, beyond the dense cap {_ISOMETRY_CAP}"
        )
    _, inverse, counts = _multiset_index(d, k)
    nrows = d**k
    ncols = len(counts)
    b = np.zeros((nrows, ncols))
    b[np.arange(nrows), inverse] = 1.0 / np.sqrt(counts[inverse])
    return b


def operator_from_map(lmap):
    """Rebuild the defining operator from the map's action on matrix units."""
    din, dout = lmap.in_dim, lmap.out_dim
    out = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for j in range(din):
            unit = np.zeros((din, din), dtype=complex)
            unit[i, j] = 1.0
            out[i * dout : (i + 1) * dout, j * dout : (j + 1) * dout] = apply_map(
                lmap, unit
            )
    return out


def _proj(vec):
    return np.outer(vec, vec.conj())


@dataclass
class ProductEnsemble:
    """Explicit separable decomposition: weights with local pure states."""

    weights: list
    a_states: list
    b_states: list

    def __post_init__(self):
        if not (len(self.weights) == len(self.a_states) == len(self.b_states)):
            raise ValueError("ensemble lists must have equal length")
        w = np.asarray(self.weights, dtype=float)
        if (w < 0).any():
            raise ValueError("ensemble weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {w.sum()!r}, not 1")
        self.a_states = [
            np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in self.a_states
        ]
        self.b_states = [
            np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in self.b_states
        ]


def from_ensemble(ensemble):
    da = len(ensemble.a_states[0])
    db = len(ensemble.b_states[0])
    m = np.zeros((da * db, da * db), dtype=complex)
    for w, a, b in zip(ensemble.weights, ensemble.a_states, ensemble.b_states):
        m += w * _proj(np.kron(a, b))
    return DensityMatrix(m, TensorSpace([da, db]))


def separable_extension(ensemble, k):
    """Explicit level-k extension of an ensemble state.

    Ordering [A, B, A^(k-1)]: the original pair first, then the extra
    copies, each carrying the same local pure state as the first factor.
    Returns (matrix, space).
    """
    da = len(ensemble.a_states[0])
    db = len(ensemble.b_states[0])
    dims = [da, db] + [da] * (k - 1)
    n = int(np.prod(dims))
    m = np.zeros((n, n), dtype=complex)
    for w, a, b in zip(ensemble.weights, ensemble.a_states, ensemble.b_states):
        v = np.kron(np.kron(a, b), _power_vec(a, k - 1))
        m += w * _proj(v)
    return m, TensorSpace(dims)


def _power_vec(a, l):
    out = np.ones(1, dtype=complex)
    for _ in range(l):
        out = np.kron(out, a)
    return out


def random_product_ensemble(d_a, d_b, terms, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.random(terms)
    w /= w.sum()
    avs = rng.standard_normal((terms, d_a)) + 1j * rng.standard_normal((terms, d_a))
    bvs = rng.standard_normal((terms, d_b)) + 1j * rng.standard_normal((terms, d_b))
    return ProductEnsemble(list(w), list(avs), list(bvs))


def gisin_family_witness():
    """Exact witness for the 4x4 family: expectation -2(sqrt(2)-1)/(2+alpha)."""

    def k(i, j):
        return np.eye(16, dtype=complex)[4 * i + j]

    w = _proj(k(2, 2) - k(0, 0))
    w += _proj(k(2, 2) - k(1, 1))
    w += _proj(k(3, 3) - k(0, 1))
    w += _proj(k(3, 3) - k(1, 0))
    w += _proj(k(2, 3)) + _proj(k(3, 2))
    w -= _proj(k(2, 2)) + _proj(k(3, 3))
    return w, TensorSpace([4, 4])


# -- the extension test on the full copy space ------------------------------


def averaged_embedding(rho_mat, d_a, d_b, k):
    """Pinned part of the extension in full coordinates A_1 ... A_k, B.

    Places rho at each copy slot in turn (identity elsewhere), averages, and
    subtracts the overcounted product part.  Traces down to rho over copies
    2..k, is permutation symmetric, and is rho itself for k = 1.
    """
    n = d_a**k * d_b
    out = np.zeros((n, n), dtype=complex)
    placed = np.kron(rho_mat, np.eye(d_a ** (k - 1)))  # factors A, B, A^(k-1)
    space = TensorSpace([d_a, d_b] + [d_a] * (k - 1))
    for slot in range(k):
        # the placed A goes to `slot`, the extra copies fill the other
        # slots in order, and B goes last
        rest = iter(range(2, k + 1))
        perm = [0 if s == slot else next(rest) for s in range(k)] + [1]
        out += permute_factors(placed, space, perm)[0]
    out /= d_a ** (k - 1)
    rho_b = partial_trace(rho_mat, TensorSpace([d_a, d_b]), {0})
    out -= (k - 1) / d_a**k * np.kron(np.eye(d_a**k), rho_b)
    return out


def lift_extension(ext, d_a, d_b, k):
    """An operator on Sym_k(A) x B, such as a reported extension, carried
    to the full copy space A_1 ... A_k, B; returns (matrix, space)."""
    lift = np.kron(symmetric_isometry(d_a, k), np.eye(d_b))
    return lift @ ext @ lift.conj().T, TensorSpace([d_a] * k + [d_b])


def full_extension_checks(ext, space, rho, ppt, tol=policy.RECHECK):
    """The defining extension properties checked on the full copy space,
    factor by factor: copy-swap symmetry, the trace-down distance to rho,
    and the smallest eigenvalue over the partial transposes of the level
    (only the plain block when ppt is off)."""
    k = space.nfactors - 1
    swap_dev = 0.0
    for i in range(k - 1):
        perm = list(range(k + 1))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        swapped, _ = permute_factors(ext, space, perm)
        swap_dev = max(swap_dev, float(np.abs(swapped - ext).max()))
    traced = partial_trace(ext, space, set(range(1, k)))
    trace_dev = float(np.abs(traced - rho.matrix).max())
    min_eig = np.inf
    for l, b in transpose_descriptors(k, ppt):
        # block (l, b) transposes the first l copies, and B when b is set
        which = set(range(l)) | ({k} if b else set())
        block = partial_transpose_multi(ext, space, which)
        block = (block + block.conj().T) / 2
        min_eig = min(min_eig, float(np.linalg.eigvalsh(block)[0]))
    ok = swap_dev <= tol and trace_dev <= tol and min_eig >= -tol
    return {
        "swap_deviation": swap_dev,
        "trace_down_deviation": trace_dev,
        "min_transpose_eigenvalue": min_eig,
        "passed": bool(ok),
    }


def full_directions(d_a, d_b, k):
    """Free directions of the full-space extension, as a list of matrices.

    Each is a product of k elements of the Hermitian basis of A summed over
    its distinct arrangements, tensored with an element of the Hermitian
    basis of B.  Products with k - 1 or more identity factors carry the
    pinned trace-down part and are left out; every other one traces down
    to zero.
    """
    basis_a = hermitian_basis(d_a).elements
    basis_b = hermitian_basis(d_b).elements
    out = []
    for mu in itertools.combinations_with_replacement(range(d_a**2), k):
        if mu.count(0) >= k - 1:
            continue
        sym = sum(
            functools.reduce(np.kron, [basis_a[i] for i in arrangement])
            for arrangement in set(itertools.permutations(mu))
        )
        out.extend(np.kron(sym, sigma) for sigma in basis_b)
    return out


def full_extension_problem(rho, k, ppt=True):
    """The level-k extension problem of rho on the full copy space.

    Every block of the package's problem appears here with side
    d_a^k * d_b: the averaged embedding and each direction under the
    block's partial transpose (the first l copies, and B when b is set).
    The stacks are dense (m, n, n) arrays.
    """
    d_a, d_b = rho.dim_a, rho.dim_b
    space = TensorSpace([d_a] * k + [d_b])
    n = space.dim
    pinned = averaged_embedding(rho.matrix, d_a, d_b, k)
    directions = full_directions(d_a, d_b, k)
    f0s, fs = [], []
    for l, b in transpose_descriptors(k, ppt):
        which = set(range(l)) | ({k} if b else set())
        f0s.append(partial_transpose_multi(pinned, space, which))
        fs.append(
            np.array(
                [partial_transpose_multi(f, space, which) for f in directions]
            ).reshape(len(directions), n, n)
        )
    return sdp.SdpProblem(f0s=f0s, fs=fs)


_VERDICTS = {
    sdp.FEASIBLE: SEPARABLE_CONSISTENT,
    sdp.INFEASIBLE: ENTANGLED,
    sdp.MARGINAL: MARGINAL,
}


def full_extension_verdict(rho, k, ppt=True):
    """(status, margin) of the full-space test, the status named as
    run_test names its verdicts."""
    outcome = sdp.feasibility_margin(full_extension_problem(rho, k, ppt))
    return _VERDICTS.get(outcome.status, outcome.status), outcome.margin_t


def trace_down_coefficients(d, k):
    """The trace-down map Tr_(2..k) in the package's bases, one basis
    element at a time: each Hermitian basis element s_i of Sym_k(C^d) is
    embedded in the full copy space and partially traced, and the result
    is expanded over the Hermitian basis of C^d (row 0 the plain trace)."""
    iso = symmetric_isometry(d, k)
    basis_a = hermitian_basis(d)
    sbasis = hermitian_basis(symmetric_subspace_dim(d, k))
    copies = TensorSpace([d] * k)
    lmat = np.empty((d * d, len(sbasis.elements)))
    for i, s in enumerate(sbasis.elements):
        t = partial_trace(iso @ s @ iso.conj().T, copies, set(range(1, k)))
        lmat[0, i] = np.trace(t).real
        for a in range(1, d * d):
            lmat[a, i] = np.einsum("pq,qp->", t, basis_a.elements[a]).real
    return lmat


def margin_optimum(problem, tolerances=None):
    """The outcome sdp.feasibility_margin gives problem when it is solved,
    from a direct sdp._run: the margin optimum, also where F0 clears the
    refusal band and x = 0 would decide."""
    floor = -1.0 - np.sqrt(sum(np.linalg.norm(f0) ** 2 for f0 in problem.f0s))
    (res,) = sdp._run(tolerances or sdp.SolverTolerances(), None, [problem], [floor])
    return sdp._margin_outcome(problem, res)


def find_gamma_star(
    rho,
    spec,
    tolerances=None,
    resolution=5e-3,
    gamma_hi=1.0,
    gamma_floor=0.02,
):
    """Detection threshold along the filtering family by bisection.

    The state must be detected (Entangled) at gamma_hi.  Probes shrink
    gamma geometrically until the verdict flips, then bisection tightens
    the bracket to the requested resolution.  A Marginal verdict is
    retried at slightly offset points and, if persistent, counted on the
    undetected side so the reported threshold never overclaims detection.
    """
    evaluations = []

    def verdict(g):
        status = hierarchy.run_test(
            scale_state(rho, g), spec, tolerances=tolerances
        ).status
        evaluations.append((g, status))
        return status

    def detected(g):
        status = verdict(g)
        if status == hierarchy.MARGINAL:
            for bump in (1, 2, 3):
                status = verdict(g - bump * resolution / 3.0)
                if status != hierarchy.MARGINAL:
                    break
        return status == hierarchy.ENTANGLED

    if not detected(gamma_hi):
        raise ValueError(
            f"state is not detected at gamma = {gamma_hi}; no threshold to find"
        )
    hi = gamma_hi
    lo = None
    g = gamma_hi
    while g > gamma_floor:
        g *= 0.7
        if detected(g):
            hi = g
        else:
            lo = g
            break
    if lo is None:
        raise ValueError(
            f"still detected at gamma = {g:.4f}; no undetected end of the "
            "bracket above the floor"
        )
    while hi - lo > resolution:
        mid = (hi + lo) / 2
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return {
        "gamma_star": (hi + lo) / 2,
        "bracket": (lo, hi),
        "evaluations": evaluations,
    }


def scale_witness(mat, space, gamma):
    """Witness transported against the filter: pairings keep their sign.

    Tr[scale_state(rho, g) scale_witness(Z, g)] is a positive multiple of
    Tr[rho Z], and product expectations transform by positive factors, so
    detection and positivity are preserved along the family.
    """
    da, db = space.factor_dims
    inv = _filter_matrix(da, gamma)
    np.fill_diagonal(inv, 1.0 / np.diag(inv))
    op = np.kron(inv, np.eye(db))
    return op.conj().T @ mat @ op


def state_form_epsilon(z, space, resolution=1e-9):
    """min Tr[Z rho] over states rho with rho >= 0 and rho^{T_A} >= 0.

    A state is rho(x) = 1/d + sum_a x_a e_a over the traceless Hermitian
    basis.  For a level gamma, the margin problem on the blocks rho(x),
    rho(x)^{T_A} and the 1 x 1 block gamma - Tr[Z rho(x)] is strictly
    feasible exactly when gamma lies above the minimum, and a feasible x
    is a state whose value bounds the minimum from above.  Bisection on
    the sign of the margin brackets the minimum to resolution.  Returns
    (minimum, a state within resolution of it).
    """
    d = space.dim
    traceless = np.stack(hermitian_basis(d).elements[1:])
    values = np.einsum("pq,aqp->a", z, traceless).real
    stacks = sdp.DirectionStacks.from_blocks(
        [traceless,
         np.stack([partial_transpose(el, space, 0) for el in traceless]),
         -values.reshape(-1, 1, 1).astype(complex)],
        [d, d, 1], len(traceless),
    )
    base = np.eye(d, dtype=complex) / d
    offset = np.trace(z).real / d
    spectrum = np.linalg.eigvalsh(z)
    lo, hi = spectrum[0], spectrum[-1]
    best = base
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        problem = sdp.SdpProblem(
            f0s=[base, base, np.array([[mid - offset]], dtype=complex)], fs=stacks
        )
        out = sdp.feasibility_margin(problem)
        if out.margin_t < 0:
            best = base + np.tensordot(out.x, traceless, axes=1)
            hi = min(mid, offset + float(values @ out.x))
        else:
            lo = mid
    return (lo + hi) / 2, best


# -- the positivity ladder on the whole composed operator ---------------------


def composed_minimum(lmap, k):
    """Minimum eigenvalue of the level-k composed operator, one eigvalsh
    of the whole matrix."""
    return float(np.linalg.eigvalsh(compose_with_symmetric_embedding(lmap, k))[0])


def pencil_threshold(map0, map1, k):
    """Largest alpha keeping (1 - alpha) C0 + alpha C1 semidefinite at
    level k, from the whole composed operators: 1 / lambda_max of the
    pencil whitened by C0^(-1/2), or 1 when that is not positive."""
    c0 = compose_with_symmetric_embedding(map0, k)
    c1 = compose_with_symmetric_embedding(map1, k)
    vals, vecs = np.linalg.eigh(c0)
    if vals[0] <= policy.POSITIVE_DEFINITE * max(vals[-1], 1.0):
        raise ValueError("reference operator is not positive definite")
    white = (vecs / np.sqrt(vals)) @ vecs.conj().T
    pencil = white @ (c0 - c1) @ white.conj().T
    lam_max = float(np.linalg.eigvalsh((pencil + pencil.conj().T) / 2)[-1])
    return 1.0 if lam_max <= 0 else 1.0 / lam_max
