"""The full copy space stays out of the package.

Feasible verdicts are re-checked in block coordinates; the lift to the
full copy space, of side d_a^k * d_b, is the tests' oracle
(tests/oracles.py) and nothing in sepcert may name it again.
"""

import ast
import pathlib
import re

import sepcert

PACKAGE = pathlib.Path(sepcert.__file__).parent

FULL_SPACE_NAMES = (
    "symmetric_isometry",
    "partial_transpose_multi",
    "keep_extension",
    "RECHECK_CAP",
)


def test_no_module_names_the_full_space_path():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        hits = [n for n in FULL_SPACE_NAMES if re.search(rf"\b{n}\b", text)]
        if hits:
            found[path.name] = hits
    assert not found, f"full-space path named in the package: {found}"


def test_hierarchy_imports_no_factor_operations():
    tree = ast.parse((PACKAGE / "hierarchy.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    factor_ops = {
        "partial_trace",
        "partial_transpose",
        "partial_transpose_multi",
        "permute_factors",
    }
    assert not imported & factor_ops
