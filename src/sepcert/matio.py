"""Plain-text matrix files.

The on-disk format is line oriented and meant to be diffable and stable:

    sepcert matrix v1
    dims: 3 3
    kind: state
    entries:
    7.0710678118654746e-01 0.0000000000000000e+00
    ...

`dims` lists the tensor factor dimensions, `kind` is "state" or "operator",
and `entries` holds one "re im" pair per line in row-major order, written
with 17 significant digits so values round-trip exactly through float64.
"""

import numpy as np

from .tensorops import TensorSpace

MAGIC = "sepcert matrix v1"
KINDS = ("state", "operator")


class MatrixFormatError(ValueError):
    """Malformed matrix file; `field` names the offending part."""

    def __init__(self, message, field):
        super().__init__(message)
        self.field = field


def format_matrix(mat, space, kind):
    """The lines of the on-disk format for one matrix, without line ends."""
    mat = np.asarray(mat, dtype=complex)
    lines = [
        MAGIC,
        "dims: " + " ".join(str(d) for d in space.factor_dims),
        f"kind: {kind}",
        "entries:",
    ]
    lines += [f"{v.real:.16e} {v.imag:.16e}" for v in mat.ravel()]
    return lines


def save_matrix(path, mat, space, kind):
    if kind not in KINDS:
        raise MatrixFormatError(f"kind must be one of {KINDS}, got {kind!r}", "kind")
    space.check_matrix(mat)
    with open(path, "w") as fh:
        fh.write("\n".join(format_matrix(mat, space, kind)) + "\n")


def load_matrix(path):
    """Read a matrix file; returns (matrix, TensorSpace, kind)."""
    with open(path) as fh:
        return parse_matrix_text(fh.read())


def parse_matrix_text(text):
    """Parse the on-disk format from a string; same contract as load_matrix."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != MAGIC:
        raise MatrixFormatError(
            f"missing or wrong header line (expected {MAGIC!r})", "header"
        )
    fields = {}
    idx = 1
    while idx < len(lines) and lines[idx] != "entries:":
        if ":" not in lines[idx]:
            raise MatrixFormatError(f"unparseable line {lines[idx]!r}", "header")
        key, _, val = lines[idx].partition(":")
        fields[key.strip()] = val.strip()
        idx += 1
    if "dims" not in fields:
        raise MatrixFormatError("missing field: dims", "dims")
    if "kind" not in fields:
        raise MatrixFormatError("missing field: kind", "kind")
    try:
        dims = [int(tok) for tok in fields["dims"].split()]
    except ValueError:
        raise MatrixFormatError(
            f"dims must be whitespace-separated integers, got {fields['dims']!r}",
            "dims",
        ) from None
    if not dims or any(d < 1 for d in dims):
        raise MatrixFormatError(f"dims must be positive, got {dims}", "dims")
    kind = fields["kind"]
    if kind not in KINDS:
        raise MatrixFormatError(f"kind must be one of {KINDS}, got {kind!r}", "kind")
    if idx == len(lines):
        raise MatrixFormatError("missing field: entries", "entries")
    body = lines[idx + 1 :]
    d = int(np.prod(dims))
    if len(body) != d * d:
        raise MatrixFormatError(
            f"entries: expected {d * d} rows for dims {dims}, got {len(body)}",
            "entries",
        )
    vals = np.empty(d * d, dtype=complex)
    for row, ln in enumerate(body):
        toks = ln.split()
        if len(toks) != 2:
            raise MatrixFormatError(
                f"entries: row {row} must be 're im', got {ln!r}", "entries"
            )
        try:
            vals[row] = float(toks[0]) + 1j * float(toks[1])
        except ValueError:
            raise MatrixFormatError(
                f"entries: row {row} holds non-numeric data {ln!r}", "entries"
            ) from None
        if not np.isfinite(vals[row]):
            raise MatrixFormatError(
                f"entries: row {row} holds a non-finite value {ln!r}", "entries"
            )
    return vals.reshape(d, d), TensorSpace(dims), kind
