import numpy as np
import pytest

from sepcert.matio import MatrixFormatError, load_matrix, save_matrix
from sepcert.tensorops import TensorSpace


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sp = TensorSpace([2, 3])
    path = tmp_path / "m.mat"
    save_matrix(path, m, sp, "operator")
    back, sp2, kind = load_matrix(path)
    assert kind == "operator"
    assert sp2.factor_dims == (2, 3)
    np.testing.assert_array_equal(back, m)  # 17 digits round-trip exactly


def test_round_trip_exact_bits(tmp_path):
    path = tmp_path / "m.mat"
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-12, 12)
        m = m + 1j * rng.standard_normal((4, 4))
        save_matrix(path, m, TensorSpace([4]), "operator")
        back, _, _ = load_matrix(path)
        assert back.tobytes() == m.astype(complex).tobytes()


def test_missing_dims_field(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("sepcert matrix v1\nkind: state\nentries:\n1 0\n")
    with pytest.raises(MatrixFormatError) as err:
        load_matrix(path)
    assert err.value.field == "dims"
    assert "dims" in str(err.value)


def test_wrong_entry_count(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text(
        "sepcert matrix v1\ndims: 2\nkind: state\nentries:\n1 0\n0 0\n0 0\n"
    )
    with pytest.raises(MatrixFormatError) as err:
        load_matrix(path)
    assert err.value.field == "entries"


def test_bad_kind(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("sepcert matrix v1\ndims: 2\nkind: blob\nentries:\n" + "1 0\n" * 4)
    with pytest.raises(MatrixFormatError) as err:
        load_matrix(path)
    assert err.value.field == "kind"


def test_non_numeric_entry(tmp_path):
    path = tmp_path / "bad.mat"
    for row in ("x 0", "nan 0", "0 inf", "-inf 0"):
        path.write_text(
            "sepcert matrix v1\ndims: 2\nkind: state\nentries:\n"
            f"1 0\n1 0\n{row}\n1 0\n"
        )
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.field == "entries"
        assert "row 2" in str(err.value)


def test_missing_header(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("dims: 2\nkind: state\nentries:\n" + "1 0\n" * 4)
    with pytest.raises(MatrixFormatError) as err:
        load_matrix(path)
    assert err.value.field == "header"
