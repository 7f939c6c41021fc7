"""End-to-end command-line tests driving main() directly.

Reference values used below:
  - the maximally entangled qubit pair fails the bare level-1 test with
    margin exactly 1/2 (its partial transpose has eigenvalue -1/2).
  - the 4x4 family state is detected at level 1 exactly when the noise
    weight is below 2*sqrt(2) = 2.8284..., so a sweep over 2.7, 2.8, 2.9
    at level 1 gives entangled, entangled, then a refusal: at 2.9 the
    state is rank deficient and sits on the feasible set's boundary.
  - the transpose map composed with the symmetric embedding at level k
    has minimum output eigenvalue exactly -1/k, so it is never certified
    and never violated: the posmap verdict on the swap operator is
    undetermined.
  - level thresholds for the qutrit filter family: 2/5 exactly at level
    1, then approximately 0.58769 and 0.68556.

Exit code contract: 0 feasible/clean, 1 detection, 2 marginal or
undetermined, 64 unusable input, 70 solver failure.
"""

import glob
import os
import re

import numpy as np
import pytest

from oracles import swap_operator
from sepcert import cli, hierarchy
from sepcert.cli import _sweep_values, main
from sepcert.hierarchy import DensityMatrix
from sepcert.matio import load_matrix, save_matrix
from sepcert.reports import read_report_matrices
from sepcert.states import choi_family_state, max_entangled, maximally_mixed
from sepcert.tensorops import TensorSpace

REFERENCE_THRESHOLDS = {1: 0.4, 2: 0.58769, 3: 0.68556}


def _field(text, name):
    match = re.search(rf"^  {re.escape(name)}: (.+)$", text, re.M)
    assert match is not None, f"field {name!r} not found in report"
    return match.group(1)


def _strip_created(text):
    return [ln for ln in text.splitlines() if not ln.startswith("created: ")]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    paths = {"root": str(root)}

    def put(name, mat, dims, kind):
        path = str(root / name)
        save_matrix(path, np.asarray(mat, dtype=complex), TensorSpace(dims), kind)
        paths[name] = path

    put("choi35.mat", choi_family_state(3.5).matrix, [3, 3], "state")
    put("maxent.mat", max_entangled(2).matrix, [2, 2], "state")
    put("maxmixed22.mat", maximally_mixed(2, 2).matrix, [2, 2], "state")
    put("swap.mat", swap_operator(TensorSpace([2, 2]), 0, 1), [2, 2], "operator")
    put("identity4.mat", np.eye(4), [2, 2], "operator")
    put("punch.mat", np.diag([1.0, -1.0, 1.0, 1.0]), [2, 2], "operator")
    put("negid.mat", -np.eye(4), [2, 2], "operator")
    return paths


@pytest.fixture(scope="module")
def entangled_run(files, tmp_path_factory):
    """One level-2 run on the entangled 3x3 state, shared across tests."""
    out = str(tmp_path_factory.mktemp("cli-test-run"))
    code = main(["test", files["choi35.mat"], "--k", "2", "--out", out])
    reports = glob.glob(os.path.join(out, "test-*.txt"))
    witnesses = glob.glob(os.path.join(out, "test-*-witness.mat"))
    assert len(reports) == 1 and len(witnesses) == 1
    return {
        "code": code,
        "out": out,
        "report": reports[0],
        "witness": witnesses[0],
        "text": open(reports[0]).read(),
    }


def test_entangled_state_exits_one_and_documents_the_witness(entangled_run):
    assert entangled_run["code"] == 1
    text = entangled_run["text"]
    assert text.startswith("sepcert report v1\ncommand: test\n")
    assert _field(text, "status") == "entangled"
    assert _field(text, "certificate_passed") == "True"
    assert float(_field(text, "margin")) > 1e-6
    assert float(_field(text, "witness_value")) < -1e-6
    assert float(_field(text, "witness_sos_residual")) < 1e-8
    assert _field(text, "witness_file") == os.path.basename(
        entangled_run["witness"]
    )
    assert _field(text, "k") == "2"


def test_embedded_witness_matches_the_sidecar_file(entangled_run):
    embedded = read_report_matrices(entangled_run["report"])
    mat, space, kind = embedded["witness"]
    side_mat, side_space, side_kind = load_matrix(entangled_run["witness"])
    assert kind == side_kind == "operator"
    assert space.factor_dims == side_space.factor_dims == (3, 3)
    assert np.array_equal(mat, side_mat)
    # both files hold the same entry lines, byte for byte
    text = entangled_run["text"]
    start = text.index("matrix witness:\n")
    embedded_entries = text[start : text.index("end matrix\n", start)].split(
        "entries:\n"
    )[1]
    side_entries = open(entangled_run["witness"]).read().split("entries:\n")[1]
    assert embedded_entries == side_entries


def test_witness_sidecar_verifies_against_the_source_state(
    entangled_run, files, tmp_path, capsys
):
    code = main(
        [
            "verify-witness",
            entangled_run["witness"],
            files["choi35.mat"],
            "--out",
            str(tmp_path),
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert "product_min=" in out and "state_value=-" in out
    text = open(glob.glob(str(tmp_path / "verify-witness-*.txt"))[0]).read()
    assert _field(text, "is_witness") == "True"
    assert _field(text, "detects_state") == "True"
    assert float(_field(text, "state_value")) < -1e-6


def test_witness_sidecar_decomposes_as_indecomposable(
    entangled_run, tmp_path, capsys
):
    code = main(["decompose", entangled_run["witness"], "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.startswith("indecomposable epsilon=-")
    report = glob.glob(str(tmp_path / "decompose-*.txt"))[0]
    text = open(report).read()
    assert _field(text, "verdict") == "indecomposable"
    assert float(_field(text, "epsilon")) < -1e-6
    rho_file = _field(text, "rho_opt_file")
    assert os.path.exists(str(tmp_path / rho_file))

    embedded = read_report_matrices(report)
    assert sorted(embedded) == ["p_opt", "q_opt", "rho_opt"]
    assert embedded["p_opt"][2] == "operator"
    assert embedded["rho_opt"][2] == "state"
    for name in embedded:
        eigs = np.linalg.eigvalsh(embedded[name][0])
        assert eigs.min() > -1e-7


def test_separable_consistent_exits_zero(files, tmp_path, capsys):
    code = main(["test", files["maxmixed22.mat"], "--k", "1", "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("separable_consistent margin=-")


def test_maxent_level_one_margin_is_one_half(files, tmp_path, capsys):
    code = main(["test", files["maxent.mat"], "--k", "1", "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 1
    margin = float(re.search(r"margin=([-\d.e+]+)", out).group(1))
    assert abs(margin - 0.5) < 1e-6


def test_rerun_is_byte_identical_except_created(files, tmp_path):
    argv = ["test", files["maxent.mat"], "--k", "1", "--out", str(tmp_path)]
    main(argv)
    report = glob.glob(str(tmp_path / "test-*.txt"))[0]
    first = open(report).read()
    main(argv)
    second = open(report).read()
    assert _strip_created(first) == _strip_created(second)
    for text in (first, second):
        created = [ln for ln in text.splitlines() if ln.startswith("created: ")]
        assert len(created) == 1
        assert re.fullmatch(
            r"created: \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", created[0]
        )


def test_assembly_flags_enter_the_report_identity(files, tmp_path, capsys):
    argv = ["test", files["maxmixed22.mat"], "--k", "2", "--out", str(tmp_path)]
    code = main(argv + ["--no-ppt"])
    capsys.readouterr()
    assert code == 0
    report = glob.glob(str(tmp_path / "test-*.txt"))[0]
    text = open(report).read()
    assert _field(text, "ppt") == "False"

    assert main(argv) == 0
    capsys.readouterr()
    names = sorted(
        os.path.basename(p) for p in glob.glob(str(tmp_path / "test-*.txt"))
    )
    assert len(names) == 2


def test_vacuous_level_one_without_ppt_is_rejected(files, tmp_path, capsys):
    code = main(
        [
            "test",
            files["maxmixed22.mat"],
            "--k",
            "1",
            "--no-ppt",
            "--out",
            str(tmp_path),
        ]
    )
    _, err = capsys.readouterr()
    assert code == 64
    assert "tests nothing" in err


def test_sweep_rows_are_ordered_and_job_count_invariant(files, tmp_path, capsys):
    argv = [
        "sweep",
        "gisin",
        "--from",
        "2.7",
        "--to",
        "2.9",
        "--step",
        "0.1",
        "--k",
        "1",
    ]
    dir_serial = tmp_path / "serial"
    dir_pool = tmp_path / "pool"
    code_a = main(argv + ["--out", str(dir_serial), "--jobs", "1"])
    code_b = main(argv + ["--out", str(dir_pool), "--jobs", "2"])
    capsys.readouterr()
    assert code_a == 0 and code_b == 0

    name_a = os.path.basename(glob.glob(str(dir_serial / "sweep-*.txt"))[0])
    name_b = os.path.basename(glob.glob(str(dir_pool / "sweep-*.txt"))[0])
    # jobs and out are execution detail, not configuration
    assert name_a == name_b

    text_a = open(dir_serial / name_a).read()
    text_b = open(dir_pool / name_b).read()
    assert _strip_created(text_a) == _strip_created(text_b)

    rows = re.findall(
        r"^  (\d\.\d+e\+00)  (\w+)  ", text_a, re.M
    )
    assert [r[0] for r in rows] == ["2.700000000000e+00", "2.800000000000e+00",
                                    "2.900000000000e+00"]
    assert [r[1] for r in rows] == ["entangled", "entangled", "marginal"]
    assert _field(text_a, "count_entangled") == "2"
    assert _field(text_a, "count_marginal") == "1"


def test_sweep_grid_validation(files, tmp_path, capsys):
    base = ["sweep", "gisin", "--k", "1", "--out", str(tmp_path)]
    assert main(base + ["--from", "2.7", "--to", "2.9", "--step", "-0.1"]) == 64
    assert main(base + ["--from", "2.9", "--to", "2.7", "--step", "0.1"]) == 64
    assert (
        main(["sweep", "unknown-family", "--from", "1", "--to", "2", "--step", "1"])
        == 64
    )
    assert main(["sweep", "gisin", "--from", "1", "--to", "2"]) == 64
    capsys.readouterr()


def test_sweep_grid_rounding():
    values = _sweep_values(3.1, 4.0, 0.1)
    assert values == [3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9, 4.0]
    assert _sweep_values(2.0, 2.0, 0.5) == [2.0]
    # no point past --to
    assert _sweep_values(4.0, 5.0, 0.6) == [4.0, 4.6]
    assert _sweep_values(0, 1, 0.6) == [0.0, 0.6]


def test_ladder_reports_each_level(files, tmp_path, capsys):
    code = main(
        ["ladder", files["choi35.mat"], "--kmax", "2", "--out", str(tmp_path)]
    )
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.startswith("entangled levels=2")
    text = open(glob.glob(str(tmp_path / "ladder-*.txt"))[0]).read()
    assert "levels:\n  k  status  margin  iterations\n" in text
    assert _field(text, "final_status") == "entangled"
    assert _field(text, "levels_run") == "2"
    assert _field(text, "monotonicity_checks_passed") == "True"


def test_ladder_without_ppt_starts_at_level_two(files, tmp_path, capsys):
    # level 1 without partial transposes tests nothing, so the ladder
    # starts one level up instead of refusing the whole run
    code = main(
        ["ladder", files["choi35.mat"], "--no-ppt", "--kmax", "3",
         "--out", str(tmp_path)]
    )
    out, _ = capsys.readouterr()
    assert code in (0, 1, 2)
    text = open(glob.glob(str(tmp_path / "ladder-*.txt"))[0]).read()
    rows = text.split("levels:\n  k  status  margin  iterations\n")[1]
    levels = [line.split()[0] for line in rows.splitlines()[:2]]
    assert levels == ["2", "3"]
    assert _field(text, "levels_run") == "2"
    status = _field(text, "final_status")
    assert out.startswith(f"{status} levels=2")
    assert code == {"separable_consistent": 0, "entangled": 1, "marginal": 2}[status]


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_ladder_rejects_a_level_bound_below_one(files, tmp_path, capsys, kmax):
    code = main(
        ["ladder", files["choi35.mat"], "--kmax", kmax, "--out", str(tmp_path)]
    )
    out, err = capsys.readouterr()
    assert code == 64
    assert "k_max" in err
    assert out == ""
    assert not glob.glob(str(tmp_path / "ladder-*.txt"))


def test_posmap_swap_is_undetermined_with_exact_level_floors(
    files, tmp_path, capsys
):
    code = main(
        ["posmap", files["swap.mat"], "--kmax", "3", "--out", str(tmp_path)]
    )
    out, _ = capsys.readouterr()
    assert code == 2
    assert out.startswith("undetermined")
    text = open(glob.glob(str(tmp_path / "posmap-*.txt"))[0]).read()
    assert _field(text, "verdict") == "undetermined"
    rows = re.findall(r"^  (\d)  (-?\d\.\d+e[-+]\d+)$", text, re.M)
    assert [int(k) for k, _ in rows] == [1, 2, 3]
    for k, val in rows:
        assert abs(float(val) + 1.0 / int(k)) < 1e-9


def test_posmap_psd_operator_is_completely_positive(files, tmp_path, capsys):
    code = main(["posmap", files["identity4.mat"], "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("completely_positive")


def test_posmap_violation_embeds_the_offending_input(files, tmp_path, capsys):
    code = main(["posmap", files["punch.mat"], "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.startswith("not_positive")
    report = glob.glob(str(tmp_path / "posmap-*.txt"))[0]
    text = open(report).read()
    assert float(_field(text, "violation_eigenvalue")) < -1e-9
    sigma, space, kind = read_report_matrices(report)["violation_input"]
    assert kind == "state"
    assert space.factor_dims == (2,)
    assert np.linalg.eigvalsh(sigma).min() > -1e-9


def test_table1_prints_the_threshold_ladder(tmp_path, capsys):
    code = main(["table1", "--kmax", "3", "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    got = dict(
        (int(m.group(1)), float(m.group(2)))
        for m in re.finditer(r"^k=(\d) alpha=([\d.]+)$", out, re.M)
    )
    assert sorted(got) == [1, 2, 3]
    for k, ref in REFERENCE_THRESHOLDS.items():
        assert abs(got[k] - ref) < 1e-3
    assert abs(got[1] - 0.4) < 1e-9
    text = open(glob.glob(str(tmp_path / "table1-*.txt"))[0]).read()
    assert "thresholds:\n  k  alpha_k  k_times_gap\n" in text


def test_catalog_list_names_every_entry(capsys):
    code = main(["catalog", "list"])
    out, _ = capsys.readouterr()
    assert code == 0
    for name in ("choi", "gisin", "maxent", "maxmixed", "random"):
        assert re.search(rf"^{name}\b", out, re.M)


def test_catalog_emit_writes_a_loadable_state(tmp_path, capsys):
    code = main(
        [
            "catalog",
            "emit",
            "choi",
            "--param",
            "alpha=3.5",
            "--out",
            str(tmp_path),
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    path = str(tmp_path / "choi-alpha3.5.mat")
    assert os.path.exists(path)
    assert out.strip() == f"wrote {path}"
    mat, space, kind = load_matrix(path)
    assert kind == "state"
    assert space.factor_dims == (3, 3)
    assert np.array_equal(mat, choi_family_state(3.5).matrix)


def test_catalog_emit_rejects_bad_requests(tmp_path, capsys):
    out_dir = str(tmp_path)
    assert main(["catalog", "emit", "no-such-state", "--out", out_dir]) == 64
    assert (
        main(
            ["catalog", "emit", "choi", "--param", "bogus=3", "--out", out_dir]
        )
        == 64
    )
    assert (
        main(
            ["catalog", "emit", "choi", "--param", "alpha=abc", "--out", out_dir]
        )
        == 64
    )
    assert main(["catalog", "emit", "choi", "--param", "alpha", "--out", out_dir]) == 64
    assert main(["catalog", "emit", "--out", out_dir]) == 64
    _, err = capsys.readouterr()
    assert "bogus" in err
    assert "abc" in err


def test_the_reused_parser_starts_every_call_from_its_defaults(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a repeated option does not
    # accumulate across calls, and a flag does not outlive its call
    assert cli._build_parser() is cli._build_parser()
    out_dir = str(tmp_path)
    for alpha in ("2.5", "3.5"):
        assert main(["catalog", "emit", "choi", "--param", f"alpha={alpha}",
                     "--out", out_dir]) == 0
    assert main(["catalog", "emit", "choi", "--out", out_dir]) == 0
    out, _ = capsys.readouterr()
    names = [os.path.basename(line.split()[-1]) for line in out.splitlines()]
    assert names == ["choi-alpha2.5.mat", "choi-alpha3.5.mat", "choi.mat"]
    seen = []
    monkeypatch.setitem(cli.DISPATCH, "test", lambda args: seen.append(args) or 0)
    assert main(["test", "rho.mat", "--no-ppt", "--k", "3"]) == 0
    assert main(["test", "rho.mat"]) == 0
    assert [(args.no_ppt, args.k) for args in seen] == [(True, 3), (False, 2)]


def test_wrong_kind_is_named_in_the_error(files, tmp_path, capsys):
    assert main(["test", files["swap.mat"], "--out", str(tmp_path)]) == 64
    assert main(["decompose", files["choi35.mat"], "--out", str(tmp_path)]) == 64
    _, err = capsys.readouterr()
    assert err.count("error in kind:") == 2


def test_malformed_files_name_the_offending_field(tmp_path, capsys):
    bad_magic = tmp_path / "bad-magic.mat"
    bad_magic.write_text("not a matrix file\n")
    truncated = tmp_path / "truncated.mat"
    truncated.write_text(
        "sepcert matrix v1\ndims: 2 2\nkind: state\nentries:\n1.0 0.0\n"
    )
    nonfinite = tmp_path / "nonfinite.mat"
    nonfinite.write_text(
        "sepcert matrix v1\ndims: 1 1\nkind: operator\nentries:\nnan 0.0\n"
    )
    assert main(["test", str(bad_magic), "--out", str(tmp_path)]) == 64
    assert main(["test", str(truncated), "--out", str(tmp_path)]) == 64
    _, err = capsys.readouterr()
    assert "error in header:" in err
    assert "error in entries:" in err
    for verb in ("test", "posmap", "verify-witness"):
        assert main([verb, str(nonfinite), "--out", str(tmp_path)]) == 64
        _, err = capsys.readouterr()
        assert err.startswith("error in entries: entries: row 0 holds a non-finite")


def test_every_operator_verb_rejects_a_non_hermitian_operator(tmp_path, capsys):
    skew = np.eye(4)
    skew[0, 1] = 0.5
    path = str(tmp_path / "skew.mat")
    save_matrix(path, skew, TensorSpace([2, 2]), "operator")
    for verb in ("verify-witness", "decompose", "posmap"):
        assert main([verb, path, "--out", str(tmp_path)]) == 64
        _, err = capsys.readouterr()
        assert "operator is not Hermitian" in err
    assert not glob.glob(str(tmp_path / "*.txt"))


def test_one_input_spelled_two_ways_writes_one_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_matrix("bell.mat", max_entangled(2).matrix, TensorSpace([2, 2]), "state")
    for spelling in ("bell.mat", "./bell.mat"):
        assert main(["test", spelling, "--k", "1"]) == 1
    capsys.readouterr()
    assert len(glob.glob("test-*.txt")) == 1
    assert len(glob.glob("test-*-witness.mat")) == 1


def test_table1_rejects_a_level_bound_below_one(tmp_path, capsys):
    code = main(["table1", "--kmax", "0", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 64
    assert "k_max" in err
    assert out == ""
    assert not glob.glob(str(tmp_path / "table1-*.txt"))


def test_missing_input_file(tmp_path, capsys):
    code = main(["test", str(tmp_path / "nope.mat"), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 64


def test_argparse_failures_map_to_usage_exit(capsys):
    assert main([]) == 64
    assert main(["no-such-verb"]) == 64
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_tolerance_flags_must_be_positive(files, tmp_path, capsys):
    base = ["test", files["maxmixed22.mat"], "--k", "1", "--out", str(tmp_path)]
    assert main(base + ["--tol-gap", "-1"]) == 64
    assert main(base + ["--tol-feas", "0"]) == 64
    _, err = capsys.readouterr()
    assert "--tol-gap" in err
    assert "--tol-feas" in err


def test_job_count_must_be_at_least_one(tmp_path, capsys):
    argv = ["sweep", "gisin", "--from", "2.7", "--to", "2.7", "--step", "0.1"]
    assert main(argv + ["--k", "1", "--jobs", "0", "--out", str(tmp_path)]) == 64
    _, err = capsys.readouterr()
    assert "--jobs" in err
    assert not glob.glob(str(tmp_path / "sweep-*.txt"))


def test_no_reduce_flag_is_gone(files, tmp_path, capsys):
    # the symmetric-subspace build is the only one, so there is nothing to
    # switch off
    state, out = files["maxmixed22.mat"], ["--out", str(tmp_path)]
    assert main(["test", state, "--k", "1", "--no-reduce"] + out) == 64
    assert main(["ladder", state, "--no-reduce"] + out) == 64
    capsys.readouterr()
    assert not glob.glob(str(tmp_path / "*.txt"))


def test_verify_witness_flags_a_non_witness(files, tmp_path, capsys):
    code = main(["verify-witness", files["negid.mat"], "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 2
    text = open(glob.glob(str(tmp_path / "verify-witness-*.txt"))[0]).read()
    assert _field(text, "is_witness") == "False"
    assert float(_field(text, "product_minimum")) < -0.9


def test_verify_witness_distinguishes_non_detection(files, tmp_path, capsys):
    code = main(
        [
            "verify-witness",
            files["swap.mat"],
            files["maxmixed22.mat"],
            "--out",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert code == 1
    text = open(glob.glob(str(tmp_path / "verify-witness-*.txt"))[0]).read()
    assert _field(text, "is_witness") == "True"
    assert _field(text, "detects_state") == "False"
    assert abs(float(_field(text, "state_value")) - 0.5) < 1e-12


def test_verify_witness_rejects_dimension_mismatch(files, tmp_path, capsys):
    code = main(
        [
            "verify-witness",
            files["swap.mat"],
            files["choi35.mat"],
            "--out",
            str(tmp_path),
        ]
    )
    _, err = capsys.readouterr()
    assert code == 64
    assert "error in dims:" in err


def test_trace_flag_streams_solver_progress(files, tmp_path, capsys):
    # choi 3.5 is entangled, so its level is solved
    code = main(["test", files["choi35.mat"], "--k", "2", "--trace", "--out", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "trace: iteration=" in err
    assert " gap=" in err
    # rows that took a step also name the centering and the step lengths
    for key in ("sigma", "alpha_p", "alpha_d"):
        assert f" {key}=" in err
    assert "trace: k=2 side_classes=" in err
    assert "decided at x=0" not in err

    # the maximally mixed state's pinned extension is positive definite:
    # its level is decided at x = 0, with one line in place of the rows
    code = main(["test", files["maxmixed22.mat"], "--k", "1", "--trace", "--out", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 0
    assert "trace: iteration=" not in err
    assert "side_classes=" not in err
    assert "trace: k=1 decided at x=0 min_eigenvalue=2.500e-01\n" in err


def _record_rechecks(monkeypatch, corrupt=None):
    """Record every extension re-check run_test makes; corrupt, when
    given, is added to the extension before it is checked."""
    real = hierarchy.check_extension_properties
    seen = []

    def recorded(ext, rho, k, ppt, **kwargs):
        if corrupt is not None:
            ext = ext + corrupt(len(ext))
        seen.append((k, real(ext, rho, k, ppt, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(hierarchy, "check_extension_properties", recorded)
    return seen


def test_level_beyond_the_dense_isometry_is_rechecked(
    files, tmp_path, monkeypatch, capsys
):
    # 2x2 at level 15 has full copy-space side 2^15 * 2; the problem has
    # 1008 directions and one block of side 32, and the re-check stays on it
    seen = _record_rechecks(monkeypatch)
    argv = ["test", files["maxmixed22.mat"], "--k", "15", "--no-ppt"]
    code = main(argv + ["--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("separable_consistent margin=")
    assert [(k, chk["passed"]) for k, chk in seen] == [(15, True)]


def test_a_level_decided_at_zero_is_rechecked(files, tmp_path, monkeypatch, capsys):
    # the maximally mixed state's pinned extension is positive definite, so
    # x = 0 decides; the extension it stands for is re-checked all the same
    seen = _record_rechecks(monkeypatch)
    argv = ["test", files["maxmixed22.mat"], "--k", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    report = open(out.split("report=")[1].strip()).read()
    assert "  margin: -8.333333333333e-02\n  iterations: 0\n" in report
    assert [(k, chk["passed"]) for k, chk in seen] == [(2, True)]

    def failing(*args, **kwargs):
        return {"passed": False}

    monkeypatch.setattr(hierarchy, "check_extension_properties", failing)
    assert main(argv) == 70
    _, err = capsys.readouterr()
    assert "extension re-check failed" in err


def _separable_family(v):
    """Stand-in sweep family: a 2x2 product state mixed with white noise,
    separable for every v in [0, 1]."""
    prod = np.zeros((4, 4))
    prod[0, 0] = 1.0
    return DensityMatrix(v * prod + (1 - v) * np.eye(4) / 4, TensorSpace([2, 2]))


def test_feasible_sweep_points_are_rechecked(tmp_path, monkeypatch, capsys):
    # none of the sweep's families has a feasible point at these levels,
    # so a separable family stands in for the 4x4 one
    monkeypatch.setattr(cli, "gisin_family_state", _separable_family)
    seen = _record_rechecks(monkeypatch)
    argv = ["sweep", "gisin", "--from", "0.2", "--to", "0.6", "--step", "0.2"]
    code = main(argv + ["--k", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert [(k, chk["passed"]) for k, chk in seen] == [(2, True)] * 3


def test_a_broken_extension_fails_a_sweep_point(tmp_path, monkeypatch, capsys):
    # an extension whose trace-down misses rho by 0.05 on the first two
    # diagonal entries is a solver failure, not a feasible point
    monkeypatch.setattr(cli, "gisin_family_state", _separable_family)

    def corrupt(n):
        return 0.05 * np.diag([1.0, -1.0] + [0.0] * (n - 2))

    seen = _record_rechecks(monkeypatch, corrupt)
    argv = ["sweep", "gisin", "--from", "0.2", "--to", "0.2", "--step", "0.2"]
    code = main(argv + ["--k", "2", "--out", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 70
    assert "extension re-check failed" in err
    assert abs(seen[0][1]["trace_down_deviation"] - 0.05) < 1e-12
    assert not glob.glob(str(tmp_path / "sweep-*.txt"))
