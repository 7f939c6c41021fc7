"""Command-line front end.

Verbs: test, ladder, sweep, decompose, posmap, table1, catalog,
verify-witness.  Every run that produces results writes one structured
text report named by a hash of its configuration, so repeated runs with
the same parameters overwrite the same file and differ only in the
timestamp line.

Exit codes follow the verdict where there is one: 0 for a clean or
feasible outcome (separable-consistent, decomposable, certified), 1 for a
detection (entangled, indecomposable, not positive), 2 for a marginal or
undetermined outcome.  Malformed or unusable inputs exit 64 with a
message naming the offending part; internal solver failures exit 70.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import sdp
from . import tolerances as policy
from .decompose import decompose, extract_edge_state
from .hierarchy import (
    ENTANGLED,
    MARGINAL,
    SEPARABLE_CONSISTENT,
    AssemblyError,
    DensityMatrix,
    ExtensionSpec,
    SolverFailure,
    run_ladder,
    run_test,
)
from .matio import MatrixFormatError, load_matrix, save_matrix
from .posmaps import (
    CERTIFIED,
    COMPLETELY_POSITIVE,
    NOT_POSITIVE,
    check_strict_positivity,
    map_from_witness,
    threshold_family,
    threshold_sweep,
)
from .reports import ReportBuilder
from .states import (
    catalog_entries,
    choi_family_state,
    gisin_family_state,
    make_catalog_state,
)
from .tensorops import TensorSpace, check_hermitian
from .witness import minimize_on_products, scale_state, verify_ksos_identity

EXIT_USAGE = 64
EXIT_SOFTWARE = 70

STATUS_EXIT = {SEPARABLE_CONSISTENT: 0, ENTANGLED: 1, MARGINAL: 2}


def _build_parser():
    # input paths are normalized, so one file spelled two ways is one job
    path = os.path.normpath
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-gap", type=float, default=None)
    common.add_argument("--tol-feas", type=float, default=None)
    common.add_argument("--seed", type=int, default=1234)
    common.add_argument("--out", default=".")
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--trace", action="store_true")

    parser = argparse.ArgumentParser(
        prog="sepcert",
        description="Separability certification through extension hierarchies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", parents=[common], help="run one hierarchy level")
    p.add_argument("state", type=path)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--no-ppt", action="store_true")

    p = sub.add_parser("ladder", parents=[common], help="run levels 1..kmax")
    p.add_argument("state", type=path)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--no-ppt", action="store_true")

    p = sub.add_parser("sweep", parents=[common], help="family parameter sweep")
    p.add_argument("family", choices=["choi", "gisin", "choi-scaled"])
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument(
        "--alpha",
        type=float,
        default=3.0001,
        help="family parameter held fixed while sweeping the filter weight "
        "(choi-scaled only)",
    )

    p = sub.add_parser(
        "decompose", parents=[common], help="split or refute P + Q^(T_A) form"
    )
    p.add_argument("witness", type=path)

    p = sub.add_parser(
        "posmap", parents=[common], help="positivity of the induced map"
    )
    p.add_argument("operator", type=path)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--direction", choices=["a_to_b", "b_to_a"], default="a_to_b")

    p = sub.add_parser(
        "table1", parents=[common], help="threshold ladder for the qutrit family"
    )
    p.add_argument("--kmax", type=int, default=8)

    p = sub.add_parser("catalog", parents=[common], help="named example states")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="constructor parameter, repeatable",
    )

    p = sub.add_parser(
        "verify-witness", parents=[common], help="check witness properties"
    )
    p.add_argument("witness", type=path)
    p.add_argument("state", nargs="?", type=path)
    return parser


def _tolerances(args):
    kwargs = {}
    if args.tol_gap is not None:
        if args.tol_gap <= 0:
            raise ValueError(f"--tol-gap must be positive, got {args.tol_gap}")
        kwargs["gap_tol"] = args.tol_gap
    if args.tol_feas is not None:
        if args.tol_feas <= 0:
            raise ValueError(f"--tol-feas must be positive, got {args.tol_feas}")
        kwargs["feas_tol"] = args.tol_feas
    return sdp.SolverTolerances(**kwargs)


def _base_config(args):
    return {
        "tol_gap": args.tol_gap if args.tol_gap is not None else "default",
        "tol_feas": args.tol_feas if args.tol_feas is not None else "default",
        "seed": args.seed,
    }


def _prepare_out(args):
    os.makedirs(args.out, exist_ok=True)
    if not os.access(args.out, os.W_OK):
        raise ValueError(f"output directory {args.out!r} is not writable")


def _trace_cb(args):
    if not args.trace:
        return None

    def cb(row):
        keys = ["iteration", "mu", "pinf", "dinf", "gap", "sigma", "alpha_p", "alpha_d"]
        parts = [
            f"{k}={row[k]}" if k == "iteration" else f"{k}={row[k]:.3e}"
            for k in keys
            if k in row
        ]
        print("trace: " + " ".join(parts), file=sys.stderr)

    return cb


def _trace_counts(args, reports):
    """Under --trace, two lines per solve: its torus dimension and its full
    and invariant free-direction counts, then the side classes the
    iteration ran on, as side:count pairs."""
    if args.trace:
        for rep in reports:
            meta = rep.metadata
            classes = meta["solver"]["side_classes"]
            print(
                f"trace: k={rep.spec.k} torus_dimension={meta['torus_dimension']} "
                f"free_directions={meta['free_directions']} "
                f"invariant_directions={meta['invariant_directions']}\n"
                f"trace: k={rep.spec.k} side_classes="
                + ",".join(f"{side}:{count}" for side, count in classes.items()),
                file=sys.stderr,
            )


def _load_state(path):
    mat, space, kind = load_matrix(path)
    if kind != "state":
        raise MatrixFormatError(
            f"expected a state file, got kind {kind!r}", "kind"
        )
    if space.nfactors != 2:
        raise MatrixFormatError(
            f"states must have two tensor factors, got {space.factor_dims}",
            "dims",
        )
    return DensityMatrix(mat, space)


def _load_operator(path):
    mat, space, kind = load_matrix(path)
    if kind != "operator":
        raise MatrixFormatError(
            f"expected an operator file, got kind {kind!r}", "kind"
        )
    if space.nfactors != 2:
        raise MatrixFormatError(
            f"operators must have two tensor factors, got {space.factor_dims}",
            "dims",
        )
    check_hermitian(mat, what="operator")
    return mat, space


def cmd_test(args):
    _prepare_out(args)
    rho = _load_state(args.state)
    tol = _tolerances(args)
    spec = ExtensionSpec(k=args.k, ppt=not args.no_ppt)
    report = run_test(rho, spec, tolerances=tol, trace=_trace_cb(args))
    _trace_counts(args, [report])

    config = _base_config(args)
    config.update(state=args.state, k=args.k, ppt=spec.ppt)
    rb = ReportBuilder("test", config)
    result = {
        "status": report.status,
        "margin": report.margin,
        "iterations": report.iterations,
        "solver_status": report.solver_status,
        "free_directions": report.metadata["free_directions"],
    }
    if report.certificate_check is not None:
        result["certificate_passed"] = report.certificate_check.passed
        result["certificate_min_eigenvalue"] = report.certificate_check.min_eigenvalue
    witness_path = None
    if report.witness is not None:
        w = report.witness
        sos = verify_ksos_identity(w, samples=400, seed=args.seed)
        result["witness_value"] = w.value
        result["witness_pairing_residual"] = w.pairing_residual
        result["witness_sos_residual"] = sos["max_relative_residual"]
        witness_path = os.path.join(
            args.out, rb.filename().replace(".txt", "-witness.mat")
        )
        save_matrix(witness_path, w.matrix, w.space, "operator")
        result["witness_file"] = os.path.basename(witness_path)
    rb.add_fields("result", result)
    if report.witness is not None:
        rb.add_matrix("witness", report.witness.matrix, report.witness.space,
                      "operator")
    path = rb.write(args.out)
    print(f"{report.status} margin={report.margin:.6e} report={path}")
    return STATUS_EXIT[report.status]


def cmd_ladder(args):
    _prepare_out(args)
    rho = _load_state(args.state)
    tol = _tolerances(args)
    ladder = run_ladder(
        rho,
        args.kmax,
        ppt=not args.no_ppt,
        tolerances=tol,
        trace=_trace_cb(args),
    )
    _trace_counts(args, ladder.reports)
    config = _base_config(args)
    config.update(state=args.state, kmax=args.kmax, ppt=not args.no_ppt)
    rb = ReportBuilder("ladder", config)
    rows = [
        (rep.spec.k, rep.status, rep.margin, rep.iterations)
        for rep in ladder.reports
    ]
    rb.add_table("levels", ["k", "status", "margin", "iterations"], rows)
    rb.add_fields(
        "result",
        {
            "final_status": ladder.final_status,
            "levels_run": len(ladder.reports),
            "monotonicity_checks_passed": all(
                c["passed"] for c in ladder.monotonicity_checks
            ),
        },
    )
    path = rb.write(args.out)
    print(f"{ladder.final_status} levels={len(ladder.reports)} report={path}")
    return STATUS_EXIT[ladder.final_status]


def _sweep_values(start, stop, step):
    if step <= 0:
        raise ValueError(f"--step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"--to {stop} is below --from {start}")
    count = int((stop - start) / step + policy.SWEEP_SLACK) + 1
    return [round(start + i * step, 12) for i in range(count)]


def cmd_sweep(args):
    _prepare_out(args)
    tol = _tolerances(args)
    values = _sweep_values(args.start, args.stop, args.step)
    spec = ExtensionSpec(k=args.k)

    if args.family == "choi":
        make = choi_family_state
    elif args.family == "gisin":
        make = gisin_family_state
    else:
        base = choi_family_state(args.alpha)

        def make(gamma):
            return scale_state(base, gamma)

    def point(v):
        rep = run_test(make(v), spec, tolerances=tol)
        return (v, rep.status, rep.margin)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(point, values))
    else:
        rows = [point(v) for v in values]

    config = _base_config(args)
    config.update(
        family=args.family,
        start=args.start,
        stop=args.stop,
        step=args.step,
        k=args.k,
    )
    if args.family == "choi-scaled":
        config["alpha"] = args.alpha
    rb = ReportBuilder("sweep", config)
    label = "gamma" if args.family == "choi-scaled" else "alpha"
    rb.add_table("points", [label, "status", "margin"], rows)
    counts = {s: sum(1 for _, st, _ in rows if st == s) for s in STATUS_EXIT}
    rb.add_fields("result", {f"count_{k}": v for k, v in counts.items()})
    path = rb.write(args.out)
    print(f"swept {len(rows)} points report={path}")
    return 0


def cmd_decompose(args):
    _prepare_out(args)
    mat, space = _load_operator(args.witness)
    tol = _tolerances(args)
    report = decompose(mat, space, tolerances=tol)

    config = _base_config(args)
    config.update(witness=args.witness)
    rb = ReportBuilder("decompose", config)
    result = {
        "verdict": report.verdict,
        "eta": report.eta,
        "epsilon": report.epsilon,
        "canonical_residual": report.diagnostics["canonical_residual"],
        "cross_check_gap": report.diagnostics["cross_check_gap"],
        "p_min_eigenvalue": report.diagnostics["p_min_eigenvalue"],
        "q_min_eigenvalue": report.diagnostics["q_min_eigenvalue"],
    }
    state_path = None
    if report.rho_opt is not None:
        state, diag = extract_edge_state(report)
        result.update(
            rho_opt_value=report.diagnostics["rho_opt_value"],
            rho_opt_min_eigenvalue=report.diagnostics["rho_opt_min_eigenvalue"],
            rho_opt_transpose_min_eigenvalue=report.diagnostics[
                "rho_opt_transpose_min_eigenvalue"
            ],
            p_range_residual=diag["p_range_residual"],
            q_range_residual=diag["q_range_residual"],
            rank_rho=diag["rank_rho"],
            rank_p=diag["rank_p"],
            rank_q=diag["rank_q"],
        )
        state_path = os.path.join(
            args.out, rb.filename().replace(".txt", "-rho-opt.mat")
        )
        save_matrix(state_path, state.matrix, state.space, "state")
        result["rho_opt_file"] = os.path.basename(state_path)
    rb.add_fields("result", result)
    rb.add_matrix("p_opt", report.p_opt, space, "operator")
    rb.add_matrix("q_opt", report.q_opt, space, "operator")
    if report.rho_opt is not None:
        rb.add_matrix("rho_opt", report.rho_opt.matrix, space, "state")
    path = rb.write(args.out)
    print(f"{report.verdict} epsilon={report.epsilon:.6e} report={path}")
    return {"decomposable": 0, "indecomposable": 1, "marginal": 2}[report.verdict]


def cmd_posmap(args):
    _prepare_out(args)
    mat, space = _load_operator(args.operator)
    lmap = map_from_witness(mat, space, args.direction)
    report = check_strict_positivity(lmap, k_max=args.kmax, seed=args.seed)

    config = _base_config(args)
    config.update(
        operator=args.operator, kmax=args.kmax, direction=args.direction
    )
    rb = ReportBuilder("posmap", config)
    result = {
        "verdict": report.verdict,
        "choi_min_eigenvalue": report.choi_min_eigenvalue,
    }
    if report.k_certified is not None:
        result["k_certified"] = report.k_certified
    if report.product_search_min is not None:
        result["product_search_min"] = report.product_search_min
    if report.violation_eigenvalue is not None:
        result["violation_eigenvalue"] = report.violation_eigenvalue
    rb.add_fields("result", result)
    if report.per_k_min_eigenvalues:
        rb.add_table(
            "composed_minimum_eigenvalues",
            ["k", "min_eigenvalue"],
            sorted(report.per_k_min_eigenvalues.items()),
        )
    if report.violation_input is not None:
        rb.add_matrix(
            "violation_input",
            report.violation_input,
            TensorSpace([report.violation_input.shape[0]]),
            "state",
        )
    path = rb.write(args.out)
    print(f"{report.verdict} report={path}")
    if report.verdict in (COMPLETELY_POSITIVE, CERTIFIED):
        return 0
    if report.verdict == NOT_POSITIVE:
        return 1
    return 2


def cmd_table1(args):
    _prepare_out(args)
    sweep = threshold_sweep(*threshold_family(), k_max=args.kmax)
    config = _base_config(args)
    config.update(kmax=args.kmax)
    rb = ReportBuilder("table1", config)
    # the residual column tracks how the certified window closes with k;
    # the trend is roughly constant times 1/k
    rows = [(k, a, k * (1.0 - a)) for k, a in sweep]
    rb.add_table("thresholds", ["k", "alpha_k", "k_times_gap"], rows)
    path = rb.write(args.out)
    for k, a in sweep:
        print(f"k={k} alpha={a:.6f}")
    print(f"report={path}")
    return 0


def _parse_params(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(
                f"--param expects KEY=VALUE, got {pair!r}"
            )
        key, _, raw = pair.partition("=")
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"--param {key}: value {raw!r} is not a number"
                ) from None
        out[key.strip()] = value
    return out


def cmd_catalog(args):
    if args.action == "list":
        for entry in catalog_entries():
            dims = "x".join(str(d) for d in entry["dims"])
            params = ", ".join(entry["params"]) if entry["params"] else "-"
            print(f"{entry['name']:24s} {dims:8s} params: {params:18s} {entry['note']}")
        return 0
    if not args.name:
        raise ValueError("catalog emit needs a state name")
    _prepare_out(args)
    params = _parse_params(args.param)
    known = {e["name"]: e["params"] for e in catalog_entries()}
    if args.name in known:
        bad = sorted(set(params) - set(known[args.name]))
        if bad:
            raise ValueError(
                f"unknown parameter {bad[0]!r} for {args.name}; valid: "
                f"{', '.join(known[args.name]) or 'none'}"
            )
    rho = make_catalog_state(args.name, **params)
    tag = "".join(
        f"-{k}{params[k]}" for k in sorted(params)
    )
    path = os.path.join(args.out, f"{args.name}{tag}.mat")
    save_matrix(path, rho.matrix, rho.space, "state")
    print(f"wrote {path}")
    return 0


def cmd_verify_witness(args):
    _prepare_out(args)
    mat, space = _load_operator(args.witness)
    search = minimize_on_products(mat, space, samples=10000, seed=args.seed)
    config = _base_config(args)
    config.update(witness=args.witness, state=args.state or "none")
    rb = ReportBuilder("verify-witness", config)
    result = {
        "product_minimum": search["min_value"],
        "is_witness": search["min_value"] >= -policy.VIOLATION,
    }
    value = None
    if args.state:
        rho = _load_state(args.state)
        if rho.space.factor_dims != space.factor_dims:
            raise MatrixFormatError(
                f"state dims {rho.space.factor_dims} do not match witness "
                f"dims {space.factor_dims}",
                "dims",
            )
        value = float(np.trace(mat @ rho.matrix).real)
        result["state_value"] = value
        result["detects_state"] = value < -policy.VIOLATION
    rb.add_fields("result", result)
    path = rb.write(args.out)
    print(
        "product_min={:.6e}{} report={}".format(
            search["min_value"],
            "" if value is None else f" state_value={value:.6e}",
            path,
        )
    )
    if search["min_value"] < -policy.VIOLATION:
        return 2
    if args.state and not result["detects_state"]:
        return 1
    return 0


DISPATCH = {
    "test": cmd_test,
    "ladder": cmd_ladder,
    "sweep": cmd_sweep,
    "decompose": cmd_decompose,
    "posmap": cmd_posmap,
    "table1": cmd_table1,
    "catalog": cmd_catalog,
    "verify-witness": cmd_verify_witness,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        return DISPATCH[args.command](args)
    except MatrixFormatError as exc:
        print(f"error in {exc.field}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssemblyError, SolverFailure, sdp.SdpNumericalError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except KeyError as exc:
        print(f"error: unknown name {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
