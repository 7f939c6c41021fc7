"""The benchmark's tracing hooks still fit the package.

perfbench/spans.py wraps package functions by module and attribute name
and reads per-case counts off what build_extension_problem and
feasibility_margin return.  A renamed function or a changed return value
would break the benchmark's per-layer accounting; these tests turn that
into a test failure.
"""

import importlib.util
import os
import sys

from sepcert import cli
from sepcert.matio import save_matrix
from sepcert.states import choi_family_state

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "spans.py"
)


def load_spans():
    if "perfbench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the file executes
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules["perfbench_spans"]


def test_every_hook_names_an_existing_attribute():
    spans = load_spans()
    modules = spans.package_modules()
    for mod_name, attr, _ in spans.HOOKS:
        assert hasattr(modules[mod_name], attr), (mod_name, attr)


def test_traced_test_run_records_the_case_counts(tmp_path):
    spans = load_spans()
    rho = choi_family_state(3.5)
    state = str(tmp_path / "choi35.mat")
    save_matrix(state, rho.matrix, rho.space, "state")
    tracer = spans.Tracer()
    originals = [
        (tracer.modules[mod_name], attr, getattr(tracer.modules[mod_name], attr))
        for mod_name, attr, _ in spans.HOOKS
    ]
    tracer.install()
    try:
        code = tracer.job(
            0, lambda: cli.main(["test", state, "--k", "2", "--out", str(tmp_path)])
        )
    finally:
        tracer.uninstall()
    assert code == 1
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, attr
    cases = list(tracer.summary()["cases"].values())
    assert len(cases) == 1
    assert cases[0]["m"] == 243
    assert cases[0]["block_sides"] == [18, 27, 18]
    assert cases[0]["iterations"] > 0
