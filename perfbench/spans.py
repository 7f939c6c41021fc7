"""Spans and counts recorded around calls into the package's modules.

The CLI imports most of its collaborators by name (``from .hierarchy import
run_test``), so a wrapper only takes effect where the caller looks the name
up.  ``HOOKS`` lists each such place.  ``Tracer.install`` swaps the wrappers
in and ``Tracer.uninstall`` restores the original objects, so untraced
passes run unmodified code.

A span records its layer name, start, end, its parent span and the job it
belongs to.  Spans opened on the sweep's worker threads have no parent on
their own thread and are attached to the job's root span.  A layer's self
time is its spans' durations minus the part covered by their child spans.
"""

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name); the module is a sepcert submodule name.
# A span name of None records counts without opening a span, so the call's
# time stays with the layer that made it.
HOOKS = [
    ("hierarchy", "build_extension_problem", "hierarchy.build"),
    ("hierarchy", "check_extension_properties", "hierarchy.recheck"),
    ("sdp", "feasibility_margin", "sdp.solve"),
    ("sdp", "verify_certificate", "sdp.verify"),
    ("witness", "extract_witness", "witness.extract"),
    ("cli", "verify_ksos_identity", "witness.ksos"),
    ("cli", "minimize_on_products", "witness.product_search"),
    ("posmaps", "minimize_on_products", "witness.product_search"),
    ("cli", "decompose", "decompose"),
    ("cli", "extract_edge_state", "decompose"),
    ("cli", "map_from_witness", "posmaps.positivity"),
    ("cli", "check_strict_positivity", "posmaps.positivity"),
    ("posmaps", "compose_with_symmetric_embedding", None),
    ("cli", "threshold_family", "posmaps.threshold"),
    ("cli", "threshold_sweep", "posmaps.threshold"),
    ("cli", "load_matrix", "matio"),
    ("cli", "save_matrix", "matio"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span" = None
    job: int = 0
    children: list = field(default_factory=list)

    def self_time(self):
        """Duration minus the union of child intervals inside it."""
        covered = 0.0
        reach = self.start
        for s, e in sorted((c.start, c.end) for c in self.children):
            s, e = max(s, reach), min(e, self.end)
            if e > s:
                covered += e - s
                reach = e
        return (self.end - self.start) - covered


def package_modules():
    """The sepcert modules named in HOOKS, by short name."""
    from sepcert import cli, hierarchy, posmaps, reports, sdp, witness

    return {"cli": cli, "hierarchy": hierarchy, "posmaps": posmaps,
            "reports": reports, "sdp": sdp, "witness": witness}


class Tracer:
    def __init__(self):
        self.modules = package_modules()
        self._local = threading.local()
        self._root = None
        self._lock = threading.Lock()
        self._saved = []
        self.new_pass()

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        span = Span(name, time.perf_counter(), parent=parent,
                    job=self._root.job if self._root else 0)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)

    def job(self, index, fn):
        """Run ``fn()`` as job ``index`` under a root ``cli`` span."""
        self._root = None
        root = self._open("cli")
        root.job = index
        self._root = root
        try:
            return fn()
        finally:
            self._close(root)
            self._root = None

    def new_pass(self):
        self.spans = []
        self.cases = {}  # case key -> exact counts of one hierarchy level
        self.composed_sides = []
        self.report_bytes = 0
        self.decompose_iterations = 0
        self._problem_case = {}

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        if name is None:
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._count_composed(result)
                return result

            counter.__wrapped__ = fn
            return counter

        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod_name, attr, span in HOOKS:
            mod = self.modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(span, orig))
        cls = self.modules["reports"].ReportBuilder
        orig_write = cls.write
        self._saved.append((cls, "write", orig_write))
        wrapped = self._wrap("reports.write", orig_write)

        def write(builder, out_dir):
            path = wrapped(builder, out_dir)
            with self._lock:
                self.report_bytes += os.path.getsize(path)
            return path

        cls.write = write

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- counts at the span boundaries ----------------------------------------

    def _after_hierarchy_build(self, args, kwargs, result):
        rho = args[0] if args else kwargs["rho"]
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        problem, asm = result
        res = self.modules["hierarchy"].required_resources(asm.d_a, asm.d_b, spec)
        digest = hashlib.sha1(rho.matrix.tobytes()).hexdigest()[:10]
        key = f"job{self._root.job} {digest} k={spec.k} ppt={spec.ppt} reduced={spec.reduced}"
        case = {
            "m": asm.m,
            "block_sides": [d.side for d in asm.descriptors],
            "stack_mb": res["stack_bytes"] / 1e6,
            "flops_per_iteration": res["schur_flops_per_iteration"],
        }
        with self._lock:
            self.cases[key] = case
            self._problem_case[id(problem)] = case

    def _after_sdp_solve(self, args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        with self._lock:
            case = self._problem_case.get(id(problem))
        if case is not None:
            case["iterations"] = result.iterations
            case["real_path"] = bool(result.diagnostics.get("real_path"))
            case["schur_gflop"] = case["flops_per_iteration"] * result.iterations / 1e9

    def _after_decompose(self, args, kwargs, result):
        diag = getattr(result, "diagnostics", None)
        if diag and "split_iterations" in diag:
            with self._lock:
                self.decompose_iterations += (
                    diag["split_iterations"] + diag["state_iterations"]
                )

    def _count_composed(self, result):
        with self._lock:
            self.composed_sides.append(result.shape[0])

    # -- per-pass summary -------------------------------------------------------

    def summary(self):
        """Self time per span name, span counts, and the pass's layer counts."""
        self_s = {}
        fired = {}
        for s in self.spans:
            self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time()
            fired[s.name] = fired.get(s.name, 0) + 1
        hier = list(self.cases.values())
        solved = [c for c in hier if "iterations" in c]
        iters = sum(c["iterations"] for c in solved)
        solve_s = self_s.get("sdp.solve", 0.0)
        metrics = {
            "hierarchy.build_s": self_s.get("hierarchy.build", 0.0),
            "hierarchy.recheck_s": self_s.get("hierarchy.recheck", 0.0),
            "hierarchy.free_directions": max((c["m"] for c in hier), default=0),
            "hierarchy.block_side_max": max(
                (max(c["block_sides"]) for c in hier), default=0),
            "hierarchy.stack_mb": max((c["stack_mb"] for c in hier), default=0.0),
            "sdp.solve_s": solve_s,
            "sdp.iterations": iters,
            "sdp.s_per_iteration": solve_s / iters if iters else 0.0,
            "sdp.schur_gflop": sum(c["schur_gflop"] for c in solved),
            "sdp.real_path_share": (
                sum(c["real_path"] for c in solved) / len(solved) if solved else 0.0),
            "sdp.verify_s": self_s.get("sdp.verify", 0.0),
            "witness.extract_s": self_s.get("witness.extract", 0.0),
            "witness.ksos_s": self_s.get("witness.ksos", 0.0),
            "witness.product_search_s": self_s.get("witness.product_search", 0.0),
            "decompose.s": self_s.get("decompose", 0.0),
            "decompose.iterations": self.decompose_iterations,
            "posmaps.positivity_s": self_s.get("posmaps.positivity", 0.0),
            "posmaps.threshold_s": self_s.get("posmaps.threshold", 0.0),
            "posmaps.composed_side_max": max(self.composed_sides, default=0),
            "matio.s": self_s.get("matio", 0.0),
            "reports.write_s": self_s.get("reports.write", 0.0),
            "reports.bytes": self.report_bytes,
            "cli.self_s": self_s.get("cli", 0.0),
        }
        cases = {
            k: {f: c.get(f) for f in
                ("m", "block_sides", "iterations", "real_path", "stack_mb", "schur_gflop")}
            for k, c in self.cases.items()
        }
        return {"metrics": metrics, "fired": fired, "cases": cases}
