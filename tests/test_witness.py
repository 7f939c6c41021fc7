"""Witness extraction, certification, and the state-scaling search.

Oracles: extracted witnesses are validated on the state that
produced them and on sampled product states; the squared-overlap identity
ties the full-space witness back to its certificate blocks at random
product inputs, which is an independent reconstruction of both sides.
"""

import math

import numpy as np
import pytest

from oracles import averaged_embedding, gisin_family_witness
from sepcert.hierarchy import (
    ENTANGLED,
    DensityMatrix,
    ExtensionSpec,
    run_test,
)
from sepcert.states import choi_family_state, max_entangled, random_state
from sepcert.tensorops import (
    TensorSpace,
    multiset_arrangements,
    multisets,
    partial_trace,
    symmetric_subspace_dim,
)
from sepcert.witness import (
    WitnessExtractionError,
    _polish_products,
    extract_witness,
    find_gamma_star,
    minimize_on_products,
    scale_state,
    scale_witness,
    verify_ksos_identity,
)


def rand_herm(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def entangled_report(alpha=3.5):
    rep = run_test(choi_family_state(alpha), ExtensionSpec(k=2))
    assert rep.status == ENTANGLED
    return rep


REPORT_35 = entangled_report()


# ---------------------------------------------------------------------------
# the full-space embedding of the oracle


def test_averaged_embedding_traces_down_to_state():
    for d_a, d_b, k in ((2, 2, 2), (2, 3, 3), (3, 2, 2)):
        rho = random_state(d_a, d_b, seed=11)
        emb = averaged_embedding(rho.matrix, d_a, d_b, k)
        space = TensorSpace([d_a] * k + [d_b])
        traced = partial_trace(emb, space, set(range(1, k)))
        assert np.abs(traced - rho.matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# extraction


def test_extracted_witness_detects_its_state():
    wit = REPORT_35.witness
    rho = choi_family_state(3.5)
    assert wit.value < -1e-6
    direct = np.trace(wit.matrix @ rho.matrix).real
    assert abs(direct - wit.value) < 1e-9
    assert wit.pairing_residual < 1e-9
    # normalized to unit spectral radius
    vals = np.linalg.eigvalsh(wit.matrix)
    assert abs(max(abs(vals[0]), abs(vals[-1])) - 1.0) < 1e-10
    assert np.abs(wit.matrix - wit.matrix.conj().T).max() < 1e-12


def test_extracted_witness_level1():
    rep = run_test(max_entangled(2), ExtensionSpec(k=1))
    wit = rep.witness
    # for the Bell state the normalized level-1 witness reaches value -1
    assert abs(wit.value + 1.0) < 1e-8
    assert wit.level == 1


def test_extraction_rejects_zero_blocks():
    rep = entangled_report(4.0)
    from sepcert.hierarchy import build_extension_problem

    rho = choi_family_state(4.0)
    problem, shape = build_extension_problem(rho, ExtensionSpec(k=2))
    zeros = [np.zeros((d.side, d.side), dtype=complex) for d in shape.descriptors]
    with pytest.raises(WitnessExtractionError):
        extract_witness(shape, problem, rho, zeros)


# ---------------------------------------------------------------------------
# certification


def test_ksos_identity_on_extracted_witness():
    res = verify_ksos_identity(REPORT_35.witness, samples=400, seed=3)
    assert res["max_relative_residual"] < 1e-8


def test_ksos_identity_level1():
    rep = run_test(random_state(2, 3, rank=2, seed=21), ExtensionSpec(k=1))
    assert rep.status == ENTANGLED
    res = verify_ksos_identity(rep.witness, samples=300, seed=9)
    assert res["max_relative_residual"] < 1e-8


def _ksos_residual_per_sample(witness, samples, seed):
    """The k-SOS identity evaluated one product vector at a time: the
    reference for the batched verify_ksos_identity."""

    def power(vec, l):
        out = np.empty(symmetric_subspace_dim(len(vec), l), dtype=complex)
        for pos, mu in enumerate(multisets(len(vec), l)):
            prod = 1.0 + 0j
            for idx in mu:
                prod = prod * vec[idx]
            out[pos] = math.sqrt(multiset_arrangements(mu)) * prod
        return out if l else np.ones(1, dtype=complex)

    def block_vector(desc, x, y):
        k, l = witness.level, desc.a_transposed
        yv = y.conj() if desc.b_transposed else y
        return np.kron(np.kron(power(x.conj(), l), power(x, k - l)), yv)

    rng = np.random.default_rng(seed)
    da, db = witness.space.factor_dims
    k = witness.level
    z4 = witness.matrix.reshape(da, db, da, db)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        y = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        lhs = (
            np.einsum("a,b,abcd,c,d->", x.conj(), y.conj(), z4, x, y).real
            * np.vdot(x, x).real ** (k - 1)
        )
        rhs = 0.0
        for desc, block in zip(witness.descriptors, witness.blocks):
            v = block_vector(desc, x, y)
            rhs += np.vdot(v, np.asarray(block) @ v).real
        denom = max(abs(lhs), abs(rhs), np.vdot(x, x).real ** k * np.vdot(y, y).real)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def test_ksos_batch_equals_per_sample_evaluation():
    # the batch reorders no arithmetic, so the residual is the same number
    witnesses = [REPORT_35.witness] + [
        run_test(random_state(d_a, d_b, seed=3), ExtensionSpec(k=k)).witness
        for d_a, d_b, k in ((2, 2, 3), (2, 3, 2))
    ]
    for wit in witnesses:
        for samples, seed in ((200, 7), (150, 31)):
            res = verify_ksos_identity(wit, samples=samples, seed=seed)
            assert res["max_relative_residual"] == _ksos_residual_per_sample(
                wit, samples, seed
            )


def test_product_minimum_nonnegative_for_extracted_witness():
    wit = REPORT_35.witness
    res = minimize_on_products(wit.matrix, wit.space, samples=3000, seed=12)
    assert res["min_value"] > -1e-9
    # the polished minimum never sits above the raw sampled one
    assert res["min_value"] <= res["sampled_min"] + 1e-12


def _polish_pair(z4, x, y, iters=60):
    """The alternating descent one starting pair at a time: the reference
    for the batched _polish_products."""
    val = None
    for _ in range(iters):
        mx = np.einsum("abcd,b,d->ac", z4, y.conj(), y)
        mx = (mx + mx.conj().T) / 2
        w, v = np.linalg.eigh(mx)
        x = v[:, 0]
        my = np.einsum("abcd,a,c->bd", z4, x.conj(), x)
        my = (my + my.conj().T) / 2
        w, v = np.linalg.eigh(my)
        y = v[:, 0]
        new = np.einsum("a,b,abcd,c,d->", x.conj(), y.conj(), z4, x, y).real
        if val is not None and abs(val - new) <= 1e-14 * max(1.0, abs(new)):
            val = new
            break
        val = new
    return val, x, y


def _product_value(mat, x, y):
    v = np.kron(x, y)
    return np.vdot(v, mat @ v).real


def test_product_minimization_is_seeded():
    rng = np.random.default_rng(8)
    indefinite = rand_herm(6, rng)
    indefinite -= np.trace(indefinite).real * np.eye(6) / 6
    operators = [
        (REPORT_35.witness.matrix, REPORT_35.witness.space),
        gisin_family_witness(),
        (indefinite, TensorSpace([2, 3])),
    ]
    for mat, space in operators:
        # 500 samples is below one sampling chunk
        a = minimize_on_products(mat, space, samples=500, seed=5, polish=8)
        b = minimize_on_products(mat, space, samples=500, seed=5, polish=8)
        assert a["min_value"] == b["min_value"]
        assert np.array_equal(a["state_a"], b["state_a"])
        assert a["min_value"] <= a["sampled_min"]
        assert abs(
            a["min_value"] - _product_value(mat, a["state_a"], a["state_b"])
        ) < 1e-12

        # without polishing the sampled minimum is the answer
        c = minimize_on_products(mat, space, samples=500, seed=5, polish=0)
        assert c["min_value"] == c["sampled_min"] == a["sampled_min"]
        assert abs(
            c["min_value"] - _product_value(mat, c["state_a"], c["state_b"])
        ) < 1e-12

        # every start of the batched descent is the one-pair descent, bit
        # for bit, whichever round it settles in
        da, db = space.factor_dims
        z4 = mat.reshape(da, db, da, db)
        starts = np.random.default_rng(3)
        xs = starts.standard_normal((50, da)) + 1j * starts.standard_normal((50, da))
        ys = starts.standard_normal((50, db)) + 1j * starts.standard_normal((50, db))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        vals, px, py = _polish_products(z4, ys)
        for i in range(50):
            val, x, y = _polish_pair(z4, xs[i], ys[i])
            assert vals[i] == val
            assert np.array_equal(px[i], x) and np.array_equal(py[i], y)


def test_product_minimum_finds_negative_directions_of_non_witnesses():
    # a generic indefinite operator is not a witness and the search says so
    rng = np.random.default_rng(8)
    mat = rand_herm(6, rng)
    mat -= np.trace(mat).real * np.eye(6) / 6
    space = TensorSpace([2, 3])
    res = minimize_on_products(mat, space, samples=800, seed=2, polish=10)
    assert res["min_value"] < -1e-4


# ---------------------------------------------------------------------------
# the scaling family


def test_scale_state_roundtrip_and_covariance():
    rho = choi_family_state(3.5)
    gamma = 0.3
    scaled = scale_state(rho, gamma)
    assert abs(np.trace(scaled.matrix).real - 1.0) < 1e-12
    w = REPORT_35.witness
    wg = scale_witness(w.matrix, w.space, gamma)
    # conjugating the witness by the inverse filter preserves the sign and,
    # up to the renormalization of the state, the value itself
    f = np.diag([1.0, gamma, gamma])
    fmat = np.kron(f, np.eye(3))
    norm = np.trace(fmat @ rho.matrix @ fmat).real
    lhs = np.trace(wg @ scaled.matrix).real
    rhs = np.trace(w.matrix @ rho.matrix).real / norm
    assert abs(lhs - rhs) < 1e-10


def test_scale_state_identity_gamma():
    rho = choi_family_state(2.5)
    scaled = scale_state(rho, 1.0)
    assert np.abs(scaled.matrix - rho.matrix).max() < 1e-12


def test_scale_state_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        scale_state(choi_family_state(2.5), 0.0)
    with pytest.raises(ValueError):
        scale_state(choi_family_state(2.5), -0.5)


def test_gamma_search_brackets_are_nested():
    rho = choi_family_state(3.0001)
    spec = ExtensionSpec(k=2)
    coarse = find_gamma_star(rho, spec, resolution=0.1)
    fine = find_gamma_star(rho, spec, resolution=5e-3)
    c_lo, c_hi = coarse["bracket"]
    f_lo, f_hi = fine["bracket"]
    assert c_hi - c_lo <= 0.1 + 1e-9
    assert f_hi - f_lo <= 5e-3 + 1e-9
    assert c_lo <= f_lo + 1e-9
    assert f_hi <= c_hi + 1e-9


def test_gamma_search_reports_missing_sign_change():
    # a pure entangled state stays entangled under every invertible local
    # filter, so the level-1 verdict never flips and the search must say so
    with pytest.raises(ValueError):
        find_gamma_star(max_entangled(2), ExtensionSpec(k=1), gamma_floor=0.05)
