"""Structured text report files.

One report per run.  The filename is derived from a content hash of the
command and its configuration, so re-running the same job overwrites the
same file, and sweeps over different parameters land next to each other
without clobbering.  Everything in the file except the `created:` line is
a pure function of config and results, which keeps reruns byte-identical
apart from the timestamp and makes reports diffable.

Matrices are embedded inline in the shared matrix format between
`matrix <name>:` and `end matrix` markers, so a report is self-contained
and the embedded operators can be pulled back out programmatically.
"""

import hashlib
import os
from datetime import datetime, timezone

from .matio import format_matrix, parse_matrix_text

REPORT_MAGIC = "sepcert report v1"


def config_hash(command, config):
    """Stable short hash of a command and its configuration mapping."""
    parts = [command]
    for key in sorted(config):
        parts.append(f"{key}={config[key]!r}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:12]


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


class ReportBuilder:
    def __init__(self, command, config):
        self.command = command
        self.config = dict(config)
        self._sections = []

    def add_fields(self, title, fields):
        lines = [f"{title}:"]
        for key, value in fields.items():
            lines.append(f"  {key}: {_fmt(value)}")
        self._sections.append("\n".join(lines))
        return self

    def add_table(self, title, columns, rows):
        lines = [f"{title}:", "  " + "  ".join(columns)]
        for row in rows:
            lines.append("  " + "  ".join(_fmt(v) for v in row))
        self._sections.append("\n".join(lines))
        return self

    def add_matrix(self, name, mat, space, kind):
        lines = [f"matrix {name}:", *format_matrix(mat, space, kind), "end matrix"]
        self._sections.append("\n".join(lines))
        return self

    def render(self, created=None):
        if created is None:
            created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines = [REPORT_MAGIC, f"command: {self.command}", f"created: {created}"]
        lines.append("config:")
        for key in sorted(self.config):
            lines.append(f"  {key}: {_fmt(self.config[key])}")
        body = "\n".join(lines)
        for section in self._sections:
            body += "\n" + section
        return body + "\n"

    def filename(self):
        return f"{self.command}-{config_hash(self.command, self.config)}.txt"

    def write(self, out_dir):
        path = os.path.join(str(out_dir), self.filename())
        with open(path, "w") as fh:
            fh.write(self.render())
        return path


def read_report_matrices(path):
    """Extract all embedded matrices; returns {name: (matrix, space, kind)}."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    out = {}
    idx = 0
    while idx < len(lines):
        line = lines[idx].strip()
        if line.startswith("matrix ") and line.endswith(":"):
            name = line[len("matrix ") : -1]
            body = []
            idx += 1
            while idx < len(lines) and lines[idx].strip() != "end matrix":
                body.append(lines[idx])
                idx += 1
            out[name] = parse_matrix_text("\n".join(body))
        idx += 1
    return out
