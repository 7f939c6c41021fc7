"""Reference states, ensembles, and their analytic witness values.

The two parametrized families come with closed-form witness traces, which
are asserted here at tight tolerance against exact arithmetic.  Ensemble
states are checked to be separable by construction, and their explicit
extensions, compressed onto Sym_k(A) x B, are verified against the
extension-property checker used by the hierarchy itself.
"""

import math

import numpy as np
import pytest

from oracles import (
    ProductEnsemble,
    from_ensemble,
    gisin_family_witness,
    lift_extension,
    random_product_ensemble,
    separable_extension,
    symmetric_isometry,
)
from sepcert.hierarchy import DensityMatrix, check_extension_properties
from sepcert.states import (
    catalog_entries,
    choi_family_state,
    choi_family_witness,
    gisin_family_state,
    make_catalog_state,
    max_entangled,
    maximally_mixed,
    random_state,
)
from sepcert.tensorops import TensorSpace, partial_trace, partial_transpose, permute_factors


def test_choi_family_basic_properties():
    for alpha in (0.0, 1.0, 2.5, 4.0, 5.0):
        rho = choi_family_state(alpha)
        assert rho.space.factor_dims == (3, 3)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12
    with pytest.raises(ValueError):
        choi_family_state(-0.1)
    with pytest.raises(ValueError):
        choi_family_state(5.1)


def test_choi_family_ppt_window():
    # the partial transpose changes sign exactly at alpha = 1 and alpha = 4
    for alpha, ppt in ((0.5, False), (1.5, True), (2.5, True), (3.9, True), (4.5, False)):
        rho = choi_family_state(alpha)
        lam = np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.space, 0))[0]
        assert (lam > -1e-12) == ppt, (alpha, lam)


def test_choi_witness_trace_closed_form():
    w, space = choi_family_witness()
    assert np.abs(w - w.conj().T).max() == 0.0
    for alpha in (0.0, 1.3, 2.5, 3.0, 4.7):
        rho = choi_family_state(alpha)
        val = np.trace(w @ rho.matrix).real
        assert abs(val - (3.0 - alpha) / 7.0) < 1e-12, alpha


def test_choi_witness_swap_symmetry_of_family():
    # the family satisfies rho(5 - alpha) = rho(alpha)^T up to relabeling,
    # visible here as mirrored witness values around alpha = 2.5... the
    # witness trace is linear in alpha so this is a consistency check of
    # the construction, not an extra assumption
    w, _ = choi_family_witness()
    v1 = np.trace(w @ choi_family_state(1.0).matrix).real
    v2 = np.trace(w @ choi_family_state(4.0).matrix).real
    assert abs((v1 + v2) - 2.0 * np.trace(w @ choi_family_state(2.5).matrix).real) < 1e-12


def test_gisin_family_basic_properties():
    for alpha in (0.0, 1.0, 2 * math.sqrt(2.0), 10.0):
        rho = gisin_family_state(alpha)
        assert rho.space.factor_dims == (4, 4)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12
    with pytest.raises(ValueError):
        gisin_family_state(-1.0)


def test_gisin_ppt_threshold_closed_form():
    # the smallest partial-transpose eigenvalue crosses zero at 2 sqrt(2)
    thr = 2 * math.sqrt(2.0)
    for alpha, ppt in ((2.0, False), (2.8, False), (2.9, True), (5.0, True)):
        rho = gisin_family_state(alpha)
        lam = np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.space, 0))[0]
        assert (lam > -1e-12) == ppt, (alpha, lam)
    assert 2.8 < thr < 2.9


def test_gisin_witness_trace_closed_form():
    w, space = gisin_family_witness()
    assert np.abs(w - w.conj().T).max() == 0.0
    for alpha in (0.5, 2.0, 2.8, 3.0, 10.0):
        rho = gisin_family_state(alpha)
        val = np.trace(w @ rho.matrix).real
        expect = -2.0 * (math.sqrt(2.0) - 1.0) / (2.0 + alpha)
        assert abs(val - expect) < 1e-12, alpha


def test_maximally_mixed_and_entangled():
    rho = maximally_mixed(2, 3)
    assert np.abs(rho.matrix - np.eye(6) / 6).max() == 0.0
    bell = max_entangled(3)
    vals = np.linalg.eigvalsh(bell.matrix)
    assert abs(vals[-1] - 1.0) < 1e-12 and abs(vals[0]) < 1e-12


def test_random_state_rank_and_reproducibility():
    a = random_state(3, 2, rank=2, seed=7)
    b = random_state(3, 2, rank=2, seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    vals = np.linalg.eigvalsh(a.matrix)
    assert (vals > 1e-10).sum() == 2
    full = random_state(3, 2, seed=8)
    assert (np.linalg.eigvalsh(full.matrix) > 1e-10).sum() == 6


def test_product_ensemble_validation():
    good_a = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    good_b = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)]
    ProductEnsemble([0.5, 0.5], good_a, good_b)
    with pytest.raises(ValueError):
        ProductEnsemble([0.7, 0.5], good_a, good_b)
    with pytest.raises(ValueError):
        ProductEnsemble([1.2, -0.2], good_a, good_b)
    with pytest.raises(ValueError):
        ProductEnsemble([0.5, 0.5], good_a[:1], good_b)


def test_ensemble_states_are_ppt():
    for seed in range(5):
        ens = random_product_ensemble(2, 3, terms=8, seed=seed)
        rho = from_ensemble(ens)
        lam = np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.space, 0))[0]
        assert lam > -1e-12


def test_separable_extension_passes_extension_checks():
    for k in (2, 3):
        ens = random_product_ensemble(2, 2, terms=6, seed=30 + k)
        rho = from_ensemble(ens)
        ext, space = separable_extension(ens, k)
        assert abs(np.trace(ext).real - 1.0) < 1e-12
        # reorder [A, B, copies...] into [copies..., B], then compress onto
        # Sym_k(A) x B, which holds the whole extension
        perm = [0] + list(range(2, k + 1)) + [1]
        reordered, _ = permute_factors(ext, space, perm)
        lift = np.kron(symmetric_isometry(2, k), np.eye(2))
        compressed = lift.T @ reordered @ lift
        lifted, _ = lift_extension(compressed, 2, 2, k)
        assert np.abs(lifted - reordered).max() < 1e-12
        chk = check_extension_properties(compressed, rho, k, ppt=True, tol=1e-9)
        assert chk["passed"], chk


def test_separable_extension_traces_to_state():
    ens = random_product_ensemble(3, 2, terms=5, seed=44)
    rho = from_ensemble(ens)
    ext, space = separable_extension(ens, 3)
    traced = partial_trace(ext, space, {2, 3})
    assert np.abs(traced - rho.matrix).max() < 1e-12


def test_catalog_round_trip():
    entries = catalog_entries()
    names = {e["name"] for e in entries}
    assert {"choi", "gisin", "maxmixed", "maxent", "random"} <= names
    rho = make_catalog_state("choi", alpha=2.5)
    assert np.abs(rho.matrix - choi_family_state(2.5).matrix).max() == 0.0
    rho = make_catalog_state("maxmixed", d_a=2, d_b=2)
    assert np.abs(rho.matrix - np.eye(4) / 4).max() == 0.0
    with pytest.raises(KeyError) as err:
        make_catalog_state("nope")
    assert "choi" in str(err.value)


def test_catalog_entries_are_self_describing():
    for entry in catalog_entries():
        assert entry["name"]
        assert callable(entry["make"])
        assert isinstance(entry.get("params", {}), dict)
        assert entry.get("note")
