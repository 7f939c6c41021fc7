"""Positive-map toolkit tests.

Reference ladder for the qutrit threshold sweep (largest mixing weight
certified at each copy count):
  k:      1     2        3        4        5        6        7         8
  alpha:  0.4   0.58769  0.68556  0.72727  0.77663  0.80766  0.823529  0.846137
The k = 1 value is exact: the unital witness map has minimum eigenvalue
-1/2, so the blend stays semidefinite up to alpha = 1/(1 + 3/2) = 2/5.

The composed transpose map on qutrits has minimum eigenvalue exactly -1/k
at every level: positive but not strictly positive, so the ladder tightens
forever without certifying.
"""

import math
import warnings

import numpy as np
import pytest

from oracles import (
    composed_minimum,
    gisin_family_witness,
    operator_from_map,
    pencil_threshold,
    swap_operator,
    symmetric_isometry,
)
from sepcert import posmaps
from sepcert.cli import main
from sepcert.hierarchy import SolverFailure
from sepcert.matio import save_matrix
from sepcert.posmaps import (
    CERTIFIED,
    COMPLETELY_POSITIVE,
    NOT_POSITIVE,
    UNDETERMINED,
    LinearMap,
    _composed_minimum,
    _weight_classes,
    alpha_threshold,
    apply_map,
    check_strict_positivity,
    compose_with_symmetric_embedding,
    map_from_witness,
    normalize_unital,
    threshold_family,
    threshold_sweep,
    tracial_map,
)
from sepcert.states import choi_family_witness
from sepcert.tensorops import (
    TensorSpace,
    multisets,
    symmetric_subspace_dim,
)

REFERENCE_LADDER = [
    0.4,
    0.58769,
    0.68556,
    0.72727,
    0.77663,
    0.80766,
    0.823529,
    0.846137,
]


def table1_blend(alpha):
    """(1 - alpha) * tracial + alpha * unital witness map on qutrits."""
    m0, m1 = threshold_family()
    return LinearMap(3, 3, (1.0 - alpha) * m0.choi + alpha * m1.choi)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def test_swap_operator_defines_the_transpose():
    sp = TensorSpace([3, 3])
    tmap = LinearMap(3, 3, swap_operator(sp, 0, 1))
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(apply_map(tmap, m) - m.T).max() < 1e-12


def test_unnormalized_maxent_defines_the_identity_map():
    d = 3
    ident_choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            ident_choi[i * d + i, j * d + j] = 1.0
    imap = LinearMap(d, d, ident_choi)
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.abs(apply_map(imap, m) - m).max() < 1e-12


def test_tracial_map_action():
    tm = tracial_map(3)
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 3)
    out = apply_map(tm, m)
    assert np.abs(out - np.trace(m) * np.eye(3) / 3).max() < 1e-12
    assert np.abs(apply_map(tm, np.eye(3)) - np.eye(3)).max() < 1e-12


def test_operator_round_trip_through_the_action():
    rng = np.random.default_rng(3)
    for din, dout in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(3):
            L = random_hermitian(rng, din * dout)
            lmap = LinearMap(din, dout, L)
            assert np.abs(operator_from_map(lmap) - L).max() < 1e-12


def test_matrix_element_formula_on_units():
    # <k| map(|i><j|) |l> must equal L[(i,k),(j,l)]
    rng = np.random.default_rng(4)
    din, dout = 3, 2
    L = random_hermitian(rng, din * dout)
    lmap = LinearMap(din, dout, L)
    for i in range(din):
        for j in range(din):
            unit = np.zeros((din, din))
            unit[i, j] = 1.0
            img = apply_map(lmap, unit)
            for kk in range(dout):
                for ll in range(dout):
                    assert (
                        abs(img[kk, ll] - L[i * dout + kk, j * dout + ll]) < 1e-12
                    )


def test_witness_map_directions():
    w, sp = choi_family_witness()
    fwd = map_from_witness(w, sp)
    assert np.abs(fwd.choi - w).max() == 0
    rev = map_from_witness(w, sp, "b_to_a")
    wr = rev.choi.reshape(3, 3, 3, 3)
    wf = w.reshape(3, 3, 3, 3)
    assert np.abs(wr - wf.transpose(1, 0, 3, 2)).max() < 1e-14
    with pytest.raises(ValueError):
        map_from_witness(w, sp, "sideways")


def test_psd_operator_gives_completely_positive_map():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    lmap = LinearMap(2, 3, g @ g.conj().T)
    report = check_strict_positivity(lmap, samples=500)
    assert report.verdict == COMPLETELY_POSITIVE


def test_unital_normalization():
    w, sp = choi_family_witness()
    lmap = normalize_unital(map_from_witness(w, sp))
    assert np.abs(apply_map(lmap, np.eye(3)) - np.eye(3)).max() < 1e-12
    assert np.abs(lmap.choi - w / 2).max() < 1e-14

    lopsided = LinearMap(2, 2, np.diag([1.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        normalize_unital(lopsided)


def test_composition_matches_explicit_isometry_sandwich():
    rng = np.random.default_rng(6)
    for din, dout, k in [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 2, 4)]:
        L = random_hermitian(rng, din * dout)
        lmap = LinearMap(din, dout, L)
        comb = compose_with_symmetric_embedding(lmap, k)
        assert comb.dtype == complex
        v = symmetric_isometry(dout, k)
        lift = np.kron(np.eye(din), v)
        explicit = lift.conj().T @ np.kron(L, np.eye(dout ** (k - 1))) @ lift
        assert np.abs(comb - explicit).max() < 1e-12


def composition_term_by_term(lmap, k):
    """The entry formula of compose_with_symmetric_embedding applied one
    term at a time: (a, c) in ascending order, then tau over the
    (k-1)-multisets, each term weighted by the trace-down weight
    sqrt(mu_a nu_c) / k of mu = tau + a and nu = tau + c."""
    din, dout = lmap.in_dim, lmap.out_dim
    s_dim = symmetric_subspace_dim(dout, k)
    mu_index = {mu: pos for pos, mu in enumerate(multisets(dout, k))}
    choi = lmap.choi if lmap.choi.imag.any() else lmap.choi.real
    lr = choi.reshape(din, dout, din, dout)
    comp = np.zeros((din, s_dim, din, s_dim), dtype=choi.dtype)
    for a in range(dout):
        for c in range(dout):
            for tau in multisets(dout, k - 1):
                mu = mu_index[tuple(sorted(tau + (a,)))]
                nu = mu_index[tuple(sorted(tau + (c,)))]
                coef = math.sqrt((tau.count(a) + 1) * (tau.count(c) + 1)) / k
                comp[:, mu, :, nu] += coef * lr[:, a, :, c]
    return comp.reshape(din * s_dim, din * s_dim)


def test_composition_equals_the_term_by_term_loop():
    # the sparse product sums each entry's terms in the loop's order, so
    # the two agree bit for bit, complex and real, up to the 4x4 map at k = 8
    rng = np.random.default_rng(11)
    for din, dout, ks in [(2, 3, range(1, 6)), (3, 3, (2, 4)), (4, 4, (8,))]:
        L = random_hermitian(rng, din * dout)
        for choi in (L, L.real):
            lmap = LinearMap(din, dout, choi)
            for k in ks:
                comp = compose_with_symmetric_embedding(lmap, k)
                ref = composition_term_by_term(lmap, k)
                assert comp.dtype == ref.dtype
                assert np.array_equal(comp.view(np.uint8), ref.view(np.uint8))


def test_real_maps_compose_in_real_arithmetic():
    # every coefficient of the composition is real and a complex product
    # with a real coefficient rounds its two parts separately, so the real
    # part of a complex construction depends on the real part of the
    # defining operator alone: it is the complex construction of the real map
    rng = np.random.default_rng(9)
    for din, dout in [(2, 2), (2, 3), (3, 3)]:
        L = random_hermitian(rng, din * dout)
        real_map = LinearMap(din, dout, L.real)
        complex_map = LinearMap(din, dout, L)
        for k in range(1, 5):
            real = compose_with_symmetric_embedding(real_map, k)
            comp = compose_with_symmetric_embedding(complex_map, k)
            assert real.dtype == np.float64 and comp.dtype == complex
            assert np.abs(comp.imag).max() > 0
            assert np.array_equal(real, comp.real)


def test_composition_level_one_is_the_operator_itself():
    rng = np.random.default_rng(7)
    L = random_hermitian(rng, 6)
    lmap = LinearMap(2, 3, L)
    assert np.abs(compose_with_symmetric_embedding(lmap, 1) - L).max() == 0


def test_composed_tracial_map_is_scaled_identity():
    for k in [1, 2, 4]:
        comp = compose_with_symmetric_embedding(tracial_map(3), k)
        side = 3 * symmetric_subspace_dim(3, k)
        assert np.abs(comp - np.eye(side) / 3).max() < 1e-12


def test_composition_preserves_repeated_diagonal():
    # the all-(i) multiset diagonal entry survives composition unchanged,
    # which is why a non-semidefinite input can never compose to a
    # semidefinite operator through a larger k alone
    rng = np.random.default_rng(8)
    din, dout, k = 2, 3, 3
    L = random_hermitian(rng, din * dout)
    lmap = LinearMap(din, dout, L)
    comp = compose_with_symmetric_embedding(lmap, k)
    s_dim = symmetric_subspace_dim(dout, k)
    mu_list = multisets(dout, k)
    for i in range(dout):
        mu = mu_list.index((i,) * k)
        for b in range(din):
            assert (
                abs(comp[b * s_dim + mu, b * s_dim + mu] - L[b * dout + i, b * dout + i])
                < 1e-12
            )


def test_composition_size_cap():
    lmap = tracial_map(6)
    with pytest.raises(ValueError):
        compose_with_symmetric_embedding(lmap, 8)
    with pytest.raises(ValueError):
        compose_with_symmetric_embedding(lmap, 0)


def test_violation_search_finds_nonpositive_map():
    z = np.eye(4) - 2.0 * np.diag([0.0, 1.0, 0.0, 0.0])
    report = check_strict_positivity(LinearMap(2, 2, z), samples=2000)
    assert report.verdict == NOT_POSITIVE
    sigma = report.violation_input
    assert np.linalg.eigvalsh(sigma)[0] > -1e-12
    assert report.violation_eigenvalue <= -1e-9
    lam = np.linalg.eigvalsh(apply_map(LinearMap(2, 2, z), sigma))[0]
    assert abs(lam - report.violation_eigenvalue) < 1e-9


def test_transpose_map_stays_undetermined():
    sp = TensorSpace([3, 3])
    tmap = LinearMap(3, 3, swap_operator(sp, 0, 1))
    report = check_strict_positivity(tmap, k_max=6, samples=3000)
    assert report.verdict == UNDETERMINED
    assert report.product_search_min > -1e-9
    # minimum eigenvalue of the composed operator is exactly -1/k
    for k, lam in report.per_k_min_eigenvalues.items():
        assert abs(lam + 1.0 / k) < 1e-12


def test_blend_certification_climbs_the_ladder():
    below = check_strict_positivity(table1_blend(0.39), k_max=2, samples=500)
    assert below.verdict == COMPLETELY_POSITIVE
    above = check_strict_positivity(table1_blend(0.41), k_max=4, samples=500)
    assert above.verdict == CERTIFIED
    assert above.k_certified == 2
    higher = check_strict_positivity(table1_blend(0.6), k_max=4, samples=500)
    assert higher.verdict == CERTIFIED
    assert higher.k_certified == 3


def test_certification_is_monotone_in_k():
    mixed = table1_blend(0.45)
    lam2 = np.linalg.eigvalsh(compose_with_symmetric_embedding(mixed, 2))[0]
    lam3 = np.linalg.eigvalsh(compose_with_symmetric_embedding(mixed, 3))[0]
    assert lam2 >= -1e-10
    assert lam3 >= -1e-10


def test_threshold_ladder_matches_reference():
    m0, m1 = threshold_family()
    sweep = threshold_sweep(m0, m1, k_max=8)
    values = [a for _, a in sweep]
    assert abs(values[0] - 0.4) < 1e-10
    for got, want in zip(values, REFERENCE_LADDER):
        assert abs(got - want) < 1e-3
    diffs = np.diff(values)
    assert (diffs > 0).all()


def test_threshold_requires_definite_reference():
    lop = LinearMap(2, 2, np.diag([1.0, 0, 0, 0]))
    other = tracial_map(2)
    with pytest.raises(ValueError):
        alpha_threshold(lop, other, 1)
    with pytest.raises(ValueError):
        alpha_threshold(tracial_map(2), tracial_map(3), 1)


def ladder_maps():
    """Maps whose composed operators split into torus-weight classes, in
    both directions for the witnesses, and one dense map without a torus."""
    rng = np.random.default_rng(21)
    b, a = np.divmod(np.arange(6), 3)
    # complex, and invariant under phi_b = b, psi_a = a: entries only
    # between (b, a) and (b', c) with b + a = b' + c
    invariant = random_hermitian(rng, 6) * ((b + a)[:, None] == (b + a)[None, :])
    maps = {
        "swap": LinearMap(3, 3, swap_operator(TensorSpace([3, 3]), 0, 1)),
        "invariant": LinearMap(2, 3, invariant),
        "torus-free": LinearMap(2, 3, random_hermitian(rng, 6)),
    }
    for name, (w, sp) in (("choi", choi_family_witness()), ("gisin", gisin_family_witness())):
        for direction in ("a_to_b", "b_to_a"):
            maps[f"{name}-{direction}"] = map_from_witness(w, sp, direction)
    return maps


LADDER_MAPS = ladder_maps()


def classes_of(lmap, k):
    return _weight_classes(lmap.choi != 0, lmap.in_dim, lmap.out_dim, k)


def class_labels(classes, side):
    """The class of each composed basis index; every index in exactly one."""
    label = np.full(side, -1)
    first = 0
    for idx in classes:
        assert (label[idx] == -1).all() and (np.diff(idx, axis=1) > 0).all()
        label[idx] = first + np.arange(len(idx))[:, None]
        first += len(idx)
    assert (label >= 0).all()
    return label


@pytest.mark.parametrize("name", LADDER_MAPS)
def test_class_minimum_matches_the_whole_operator(name):
    lmap = LADDER_MAPS[name]
    assert (classes_of(lmap, 8) is None) == (name == "torus-free")
    for k in range(1, 9):
        assert abs(_composed_minimum(lmap, k) - composed_minimum(lmap, k)) < 1e-12


@pytest.mark.parametrize("name", [n for n in LADDER_MAPS if n != "torus-free"])
def test_composed_operator_vanishes_between_classes(name):
    lmap = LADDER_MAPS[name]
    for k in (1, 2, 5, 8):
        comp = compose_with_symmetric_embedding(lmap, k)
        label = class_labels(classes_of(lmap, k), len(comp))
        assert label.max() > 0
        assert (comp[label[:, None] != label[None, :]] == 0).all()


def test_class_counts_at_level_eight():
    # 63 classes at k = 8 for both families: side 135 in classes of at
    # most 3 for choi, side 660 in classes of at most 34 for gisin
    for name, side, widest in (("choi-a_to_b", 135, 3), ("gisin-a_to_b", 660, 34)):
        classes = classes_of(LADDER_MAPS[name], 8)
        assert sum(idx.size for idx in classes) == side
        assert sum(len(idx) for idx in classes) == 63
        assert max(idx.shape[1] for idx in classes) == widest


def test_threshold_matches_the_whole_pencil():
    m0, m1 = threshold_family()
    for k in range(1, 13):
        assert abs(alpha_threshold(m0, m1, k) - pencil_threshold(m0, m1, k)) < 1e-12
    # a dense candidate leaves one class, and a complex invariant one splits
    rng = np.random.default_rng(22)
    pairs = (
        (tracial_map(3), LinearMap(3, 3, random_hermitian(rng, 9))),
        (LinearMap(2, 3, np.eye(6) / 3), LADDER_MAPS["invariant"]),
    )
    for ref, cand in pairs:
        for k in range(1, 5):
            assert abs(alpha_threshold(ref, cand, k) - pencil_threshold(ref, cand, k)) < 1e-12


def test_indefinite_reference_raises_before_whitening():
    lop = LinearMap(2, 2, np.diag([1.0, 0, 0, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 3):
            with pytest.raises(ValueError, match="not positive definite"):
                alpha_threshold(lop, tracial_map(2), k)


def test_entry_between_classes_is_a_solver_failure(monkeypatch, tmp_path):
    swap = LADDER_MAPS["swap"]
    compose = posmaps.compose_with_symmetric_embedding

    def leaky(lmap, k):
        comp = compose(lmap, k).copy()
        label = class_labels(classes_of(lmap, k), len(comp))
        j = np.flatnonzero(label != label[0])[0]
        comp[0, j] = comp[j, 0] = 1e-3
        return comp

    monkeypatch.setattr(posmaps, "compose_with_symmetric_embedding", leaky)
    with pytest.raises(SolverFailure, match="between two torus-weight classes"):
        check_strict_positivity(swap, k_max=2, samples=500)
    path = str(tmp_path / "swap.mat")
    save_matrix(path, swap.choi, TensorSpace([3, 3]), "operator")
    assert main(["posmap", path, "--kmax", "2", "--out", str(tmp_path)]) == 70


def test_map_validation():
    with pytest.raises(ValueError):
        LinearMap(2, 2, np.eye(5))
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1j
    with pytest.raises(ValueError):
        LinearMap(2, 2, bad)
    with pytest.raises(ValueError):
        apply_map(tracial_map(2), np.eye(3))
    with pytest.raises(ValueError):
        check_strict_positivity(tracial_map(2), k_max=0)
