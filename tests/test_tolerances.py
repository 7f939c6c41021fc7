"""The tolerance policy: every threshold lives in sepcert.tolerances."""

import ast
import dataclasses
import inspect
import pathlib

import sepcert
from sepcert.sdp import SolverTolerances, verify_certificate
from sepcert.tensorops import check_hermitian

PACKAGE = pathlib.Path(sepcert.__file__).parent

# loop controls of the interior-point iteration and of the product-state
# descent steer a loop rather than decide a verdict, so they stay local
LOOP_CONTROLS = {"_solve_core", "_max_step", "_polish_products"}


def _small_floats(node, exempt=False):
    """(line, value) of each float constant in (0, 1e-5] outside the loop
    controls."""
    if isinstance(node, ast.FunctionDef):
        exempt = exempt or node.name in LOOP_CONTROLS
    found = []
    if (
        not exempt
        and isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < node.value <= 1e-5
    ):
        found.append((node.lineno, node.value))
    for child in ast.iter_child_nodes(node):
        found += _small_floats(child, exempt)
    return found


def test_thresholds_live_in_the_policy_module():
    strays = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "tolerances.py":
            found = _small_floats(ast.parse(path.read_text()))
            if found:
                strays[path.name] = found
    assert not strays, f"threshold literals outside sepcert.tolerances: {strays}"


def test_policy_module_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports


def test_only_the_two_convergence_tolerances_are_settable():
    fields = [f.name for f in dataclasses.fields(SolverTolerances)]
    assert fields == ["gap_tol", "feas_tol"]
    assert list(inspect.signature(verify_certificate).parameters) == [
        "problem",
        "z_blocks",
    ]
    assert list(inspect.signature(check_hermitian).parameters) == ["mat", "what"]
