"""Workload definitions: seeded input files, job lists and output checks.

Inputs are written with the benchmark's own writer and checked with its
own reader, so neither the inputs nor the oracles depend on the package
under test.  A job is one ``sepcert.cli.main(argv)`` call; each job yields
one or more verdicts, and a verdict fails when the job raised, exited 64
or 70, contradicted the oracle, or failed a benchmark-side check.
"""

import hashlib
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

MAGIC = "sepcert matrix v1"

# Level-k threshold of the table1 family at k = 3 and k = 4; a blend weight
# strictly between them is certified by the positive-map ladder at k = 4
# exactly.
TABLE1_ALPHA3 = 0.6855687
TABLE1_ALPHA4 = 0.7272727

REFUSALS = ("marginal", "undetermined")
EXIT_OF = {
    "separable_consistent": 0,
    "entangled": 1,
    "marginal": 2,
    "decomposable": 0,
    "indecomposable": 1,
    "completely_positive": 0,
    "strictly_positive_certified": 0,
    "not_positive": 1,
    "undetermined": 2,
}

WORKLOADS = ("deep-detect", "deep-separable", "threshold-scan", "witness-analysis")

# Seconds per pass with BLAS on one thread, measured on a 2-vCPU x86 host
# (OpenBLAS 0.3.31).  A run makes floor(seconds / nominal) passes, so every
# version of the program measures the same number of jobs and the
# percentiles stay comparable; the version these were measured on runs for
# about --seconds.
NOMINAL_PASS_S = {
    "deep-detect": 6.6,
    "deep-separable": 3.6,
    "threshold-scan": 3.4,
    "witness-analysis": 2.4,
}

# Span names each workload must reach; a traced pass that misses one is a
# failed check (the wrapper hook did not fire where the CLI looks it up).
EXPECTED_SPANS = {
    "deep-detect": {
        "cli", "hierarchy.build", "sdp.solve", "sdp.verify",
        "witness.extract", "witness.ksos", "matio", "reports.write",
    },
    "deep-separable": {
        "cli", "hierarchy.build", "hierarchy.recheck", "sdp.solve",
        "matio", "reports.write",
    },
    "threshold-scan": {
        "cli", "hierarchy.build", "sdp.solve", "sdp.verify",
        "witness.extract", "reports.write",
    },
    "witness-analysis": {
        "cli", "hierarchy.build", "sdp.solve", "sdp.verify",
        "witness.extract", "witness.ksos", "witness.product_search",
        "decompose", "posmaps.positivity", "posmaps.threshold", "matio",
        "reports.write",
    },
}


# -- matrix files -----------------------------------------------------------


def write_matrix(path, mat, dims, kind):
    lines = [MAGIC, "dims: " + " ".join(str(d) for d in dims), f"kind: {kind}",
             "entries:"]
    lines += [f"{v.real:.16e} {v.imag:.16e}" for v in np.asarray(mat).ravel()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != MAGIC:
        raise ValueError(f"{path}: not a matrix file")
    dims = [int(x) for x in lines[1].split(":", 1)[1].split()]
    vals = np.array([complex(float(a), float(b))
                     for a, b in (ln.split() for ln in lines[4:])])
    n = math.prod(dims)
    return vals.reshape(n, n)


# -- states and operators ---------------------------------------------------


def _ket(d, i, j):
    v = np.zeros(d * d, dtype=complex)
    v[i * d + j] = 1.0
    return v


def _proj(v):
    return np.outer(v, v.conj())


def choi_state(alpha):
    """3x3 family: separable for alpha in [2, 3], entangled elsewhere."""
    psi = sum(_ket(3, i, i) for i in range(3)) / math.sqrt(3.0)
    plus = sum(_proj(_ket(3, i, (i + 1) % 3)) for i in range(3)) / 3.0
    minus = sum(_proj(_ket(3, (i + 1) % 3, i)) for i in range(3)) / 3.0
    return (2.0 * _proj(psi) + alpha * plus + (5.0 - alpha) * minus) / 7.0


def choi_witness():
    """Analytic witness of the 3x3 family; detects alpha > 3."""
    z = 2.0 * sum(_proj(_ket(3, i, i)) for i in range(3))
    z += _proj(_ket(3, 0, 2)) + _proj(_ket(3, 1, 0)) + _proj(_ket(3, 2, 1))
    psi = sum(_ket(3, i, i) for i in range(3)) / math.sqrt(3.0)
    return z - 3.0 * _proj(psi)


def gisin_state(alpha):
    """4x4 family: entangled for every alpha, PPT for alpha >= 2 sqrt(2)."""
    s2 = math.sqrt(2.0)
    psi1 = (_ket(4, 0, 0) + _ket(4, 1, 1) + s2 * _ket(4, 2, 2)) / 2.0
    psi2 = (_ket(4, 0, 1) + _ket(4, 1, 0) + s2 * _ket(4, 3, 3)) / 2.0
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]
    noise = sum(_proj(_ket(4, i, j)) for i, j in pairs) / 8.0
    return (_proj(psi1) + _proj(psi2) + alpha * noise) / (2.0 + alpha)


def gisin_witness():
    """Analytic witness of the 4x4 family; detects every alpha."""
    k = _ket
    w = _proj(k(4, 2, 2) - k(4, 0, 0)) + _proj(k(4, 2, 2) - k(4, 1, 1))
    w += _proj(k(4, 3, 3) - k(4, 0, 1)) + _proj(k(4, 3, 3) - k(4, 1, 0))
    w += _proj(k(4, 2, 3)) + _proj(k(4, 3, 2))
    return w - _proj(k(4, 2, 2)) - _proj(k(4, 3, 3))


def ensemble_state(rng, d_a, d_b):
    """Full-rank separable state: a random mixture of 8 d_a d_b products.

    Many terms keep the state well inside the separable set, which keeps
    the solver's iteration count, and so the run time, nearly independent
    of the seed.
    """
    terms = 8 * d_a * d_b
    w = rng.random(terms) + 0.5
    w /= w.sum()
    m = np.zeros((d_a * d_b,) * 2, dtype=complex)
    for wi in w:
        a = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
        b = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        m += wi * _proj(v)
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def blend_operator(weight):
    """(1 - w) * tracial + w * unital choi-witness map, as a 3x3 operator."""
    z = choi_witness()
    lam = np.trace(np.einsum("abad->bd", z.reshape(3, 3, 3, 3))).real / 3.0
    return (1.0 - weight) * np.eye(9) / 3.0 + weight * z / lam


# -- jobs and verdicts ------------------------------------------------------


@dataclass
class Job:
    """One CLI call.  ``argv`` items of the form ``@name`` are replaced
    by the file an earlier job published under that name."""

    argv: list
    check: str
    oracle: dict = field(default_factory=dict)
    publish: str = None


@dataclass
class Inputs:
    separable: dict  # state file path -> whether the state is separable
    jobs: list


def build_inputs(workload, seed, sweep_jobs, in_dir="in"):
    """Write the workload's input files under ``in_dir`` and return its jobs.

    ``sweep_jobs`` is the ``--jobs`` worker count given to sweeps.
    """
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    separable = {}

    def state(name, mat, dims, is_separable):
        path = os.path.join(in_dir, name + ".mat")
        write_matrix(path, mat, dims, "state")
        separable[path] = is_separable
        return path

    def operator(name, mat, dims):
        path = os.path.join(in_dir, name + ".mat")
        write_matrix(path, mat, dims, "operator")
        return path

    if workload == "deep-detect":
        # the Schur-dominated infeasible path at the deepest levels that
        # still fit a small machine
        choi = state("choi-3.5", choi_state(3.5), [3, 3], False)
        gisin = state("gisin-3.0", gisin_state(3.0), [4, 4], False)
        # both carry verified level-k certificates, so any other verdict
        # contradicts a proven fact
        must = {"require": "entangled"}
        jobs = [
            Job(["test", choi, "--k", "3"], "test", must),
            Job(["test", gisin, "--k", "2"], "test", must),
        ]
    elif workload == "deep-separable":
        # the same solver on feasible, complex-valued problems, with the
        # extension re-check and monotonicity checks
        jobs = []
        for name, (d_a, d_b, kmax) in [
            ("ens-2x4", (2, 4, 4)), ("ens-3x3-a", (3, 3, 2)), ("ens-3x3-b", (3, 3, 2)),
        ]:
            path = state(name, ensemble_state(rng, d_a, d_b), [d_a, d_b], True)
            jobs.append(Job(["ladder", path, "--kmax", str(kmax)], "ladder"))
    elif workload == "threshold-scan":
        # many small instances where fixed per-instance costs dominate; the
        # rank-deficient separable points are where refusals show.  Local
        # filtering keeps the base state's separability, so every filtered
        # point has the oracle of alpha = 3.5.
        jobs = [
            Job(["sweep", "choi", "--from", "1.5", "--to", "4.5", "--step", "0.25",
                 "--k", "2", "--jobs", str(sweep_jobs)], "sweep"),
            Job(["sweep", "choi-scaled", "--from", "0.2", "--to", "1.0", "--step",
                 "0.1", "--alpha", "3.5", "--jobs", str(sweep_jobs)], "sweep",
                {"alpha": 3.5}),
        ]
    elif workload == "witness-analysis":
        # the verbs downstream of a detection; little hierarchy work, so a
        # change to the Schur path should leave this workload unchanged
        choi = state("choi-3.5", choi_state(3.5), [3, 3], False)
        gisin_npt = state("gisin-2.0", gisin_state(2.0), [4, 4], False)
        gisin_ppt = state("gisin-3.0", gisin_state(3.0), [4, 4], False)
        w_choi = operator("witness-choi", choi_witness(), [3, 3])
        w_gisin = operator("witness-gisin", gisin_witness(), [4, 4])
        weight = TABLE1_ALPHA3 + 0.01 + 0.03 * rng.random()
        blend = operator("blend", blend_operator(weight), [3, 3])
        jobs = [
            Job(["test", choi, "--k", "2"], "test", publish="w-choi-k2"),
            Job(["test", gisin_npt, "--k", "1"], "test", publish="w-gisin-k1"),
        ]
        # a witness that detects a PPT state cannot be decomposable; the
        # level-1 witness is P + Q^T by construction, so it cannot be
        # indecomposable
        for wit, st, forbid in [
            ("@w-choi-k2", choi, "decomposable"),
            ("@w-gisin-k1", gisin_npt, "indecomposable"),
            (w_choi, choi, "decomposable"),
            (w_gisin, gisin_ppt, "decomposable"),
        ]:
            jobs += [
                Job(["decompose", wit], "decompose", {"forbid": forbid}),
                Job(["posmap", wit, "--kmax", "8"], "posmap", {"forbid": "not_positive"}),
                Job(["verify-witness", wit, st], "verify-witness"),
            ]
        jobs += [
            Job(["posmap", blend, "--kmax", "8"], "posmap",
                {"forbid": "not_positive", "certified_at": 4}),
            Job(["table1", "--kmax", "12"], "table1"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(separable=separable, jobs=jobs)


# -- report parsing ---------------------------------------------------------


def parse_report(text):
    """Map each top-level section title to its indented lines."""
    sections = {}
    current = None
    for line in text.splitlines():
        if line.startswith("  ") and current is not None:
            current.append(line.strip())
        elif line.endswith(":"):
            current = sections.setdefault(line[:-1], [])
        else:
            current = None
    return sections


def fields(sections, title):
    return dict(ln.split(": ", 1) for ln in sections.get(title, []))


def table(sections, title):
    return [ln.split() for ln in sections.get(title, [])[1:]]


def report_digest(text):
    """Digest of a report with its ``created:`` line removed."""
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("created: "))
    return hashlib.sha256(body.encode()).hexdigest()


REPORT_RE = re.compile(r"report=(\S+)")


# -- checks -----------------------------------------------------------------


def _separable_alpha(alpha):
    return 2.0 - 1e-12 <= alpha <= 3.0 + 1e-12


def _verdict(job, verdict, problems):
    return {
        "job": " ".join(job.argv[:2]),
        "verdict": verdict,
        "refused": verdict in REFUSALS,
        "problems": problems,
    }


def check_job(job, inputs, rc, report_path):
    """Verdict records for one finished job, each with its list of problems.

    Returns (verdicts, published_file_or_None).
    """
    base = []
    if rc in (64, 70):
        base.append(f"exit code {rc}")
    if report_path is None or not os.path.exists(report_path):
        return [_verdict(job, "none", base + ["no report written"])], None
    with open(report_path) as fh:
        sec = parse_report(fh.read())
    res = fields(sec, "result")
    oracle = job.oracle
    published = None

    if job.check == "test":
        status = res.get("status", "none")
        probs = list(base)
        if status == "entangled":
            if inputs.separable[job.argv[1]]:
                probs.append("entangled verdict on a separable input")
            if res.get("certificate_passed") != "True":
                probs.append("certificate check did not pass")
            published = os.path.join(os.path.dirname(report_path),
                                     res.get("witness_file", "missing"))
            probs += _witness_problems(published, job.argv[1])
        if "require" in oracle and status != oracle["require"]:
            probs.append(f"expected {oracle['require']}, got {status}")
        if rc != EXIT_OF.get(status):
            probs.append(f"exit code {rc} does not match {status}")
        return [_verdict(job, status, probs)], published

    if job.check == "ladder":
        status = res.get("final_status", "none")
        probs = list(base)
        if status == "entangled" and inputs.separable[job.argv[1]]:
            probs.append("entangled verdict on a separable input")
        if res.get("monotonicity_checks_passed") != "True":
            probs.append("monotonicity checks did not pass")
        if rc != EXIT_OF.get(status):
            probs.append(f"exit code {rc} does not match {status}")
        return [_verdict(job, status, probs)], None

    if job.check == "sweep":
        out = []
        rows = table(sec, "points")
        if not rows:
            return [_verdict(job, "none", base + ["no sweep points"])], None
        for value, status, _margin in rows:
            alpha = oracle.get("alpha", float(value))
            probs = list(base)
            if status == "entangled" and _separable_alpha(alpha):
                probs.append(f"entangled verdict on separable point {value}")
            out.append(_verdict(job, status, probs))
        return out, None

    if job.check in ("decompose", "posmap"):
        verdict = res.get("verdict", "none")
        probs = list(base)
        if verdict == oracle.get("forbid"):
            probs.append(f"{verdict} contradicts the input's known properties")
        if "certified_at" in oracle and (
            verdict != "strictly_positive_certified"
            or res.get("k_certified") != str(oracle["certified_at"])
        ):
            probs.append(
                f"expected certification at k={oracle['certified_at']}, got "
                f"{verdict} k={res.get('k_certified')}"
            )
        if rc != EXIT_OF.get(verdict):
            probs.append(f"exit code {rc} does not match {verdict}")
        return [_verdict(job, verdict, probs)], None

    if job.check == "verify-witness":
        probs = list(base)
        if res.get("is_witness") != "True":
            probs.append("a certified witness failed the product-state check")
        if res.get("detects_state") != "True":
            probs.append("witness does not detect the state it was built for")
        if rc != 0:
            probs.append(f"exit code {rc}")
        return [_verdict(job, "witness" if not probs else "rejected", probs)], None

    if job.check == "table1":
        probs = list(base)
        alphas = [float(r[1]) for r in table(sec, "thresholds")]
        if len(alphas) < 4 or any(b < a for a, b in zip(alphas, alphas[1:])):
            probs.append("thresholds missing or not increasing with k")
        elif abs(alphas[3] - TABLE1_ALPHA4) > 1e-6:
            probs.append(f"level-4 threshold {alphas[3]} differs from {TABLE1_ALPHA4}")
        if rc != 0:
            probs.append(f"exit code {rc}")
        return [_verdict(job, "thresholds", probs)], None

    raise ValueError(f"unknown check {job.check!r}")


def _witness_problems(witness_path, state_path):
    """Re-check a saved witness from the files alone."""
    try:
        w = read_matrix(witness_path)
        rho = read_matrix(state_path)
    except (OSError, ValueError) as exc:
        return [f"witness file unreadable: {exc}"]
    probs = []
    if np.abs(w - w.conj().T).max() > 1e-9 * max(1.0, np.abs(w).max()):
        probs.append("saved witness is not Hermitian")
    if not np.trace(rho @ w).real < 0:
        probs.append("saved witness does not give Tr[rho W] < 0")
    return probs
