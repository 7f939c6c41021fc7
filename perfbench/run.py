"""Certification benchmark for sepcert.

Run from the repository root:

    python3 perfbench/run.py --workload deep-detect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The loop is closed with one client.  Each run starts one fresh worker
process that imports the package from ``src/``, writes the workload's
seeded input files, and calls ``sepcert.cli.main(argv)`` job after job for
floor(seconds / nominal pass time) whole passes over the job list, at
least two.  Every verdict is checked against an oracle; see workloads.py.

``--trace 0`` prints the end-to-end metrics.  Set-up is measured in five
extra set-up-only workers besides the main one and reported as the median.
Metric names and units come from BENCHMARK.json at the repository root.
``--trace 1`` runs a traced warm-up pass, then alternating untraced and
traced passes in one worker, whose difference is the tracing overhead,
and prints the per-layer metrics.  Counts that differ between traced
passes are flagged as nondeterminism.

Measured workers run with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1 and sweeps at ``--jobs 1``, whatever the caller's
environment holds.  On a 2-vCPU host with steal time, runs that need both
CPUs varied by 15-35% from run to run while single-CPU runs varied by
about 5%.  The traced run adds one worker with those variables removed
(the library default users get) and sweeps at one job per CPU; its pass
time is ``threads.default_wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


class Session:
    """Spawns workers under one scratch directory inside the checkout."""

    def __init__(self, root, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.base = os.path.join(root, ".perfbench_work")
        os.makedirs(self.base, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=self.base)
        env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(self.base)
        except OSError:  # another run still uses it
            pass

    def worker(self, mode, workload):
        work = tempfile.mkdtemp(dir=self.work, prefix=mode + "-")
        result = os.path.join(work, "result.json")
        env = dict(self.env)
        if mode == "threads":
            for k in THREAD_VARS:
                del env[k]
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--result", result]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed before all workers started")
        cmd += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker for {workload} passed the run deadline") from None
        if proc.returncode != 0 or not os.path.exists(result):
            raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
        with open(result) as fh:
            return json.load(fh)


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n).  When that percentile would not lie
    above the median (n <= 2 * TAIL_BEYOND), the maximum is returned with
    percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(session, workload):
    setups = [session.worker("setup", workload)["setup_s"] for _ in range(SETUP_REPEATS)]
    main = session.worker("measure", workload)
    setups.append(main["setup_s"])
    walls = [p["wall"] for p in main["passes"]]
    jobs = [t for p in main["passes"] for t in p["job_times"]]
    tail_s, tail_q, n = tail(jobs)
    verdicts = main["verdicts"]
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v["problems"])
    refused = sum(1 for v in verdicts if v["refused"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "job_s.p50": statistics.median(jobs),
        "job_s.tail": tail_s,
        "peak_rss_mb": main["peak_rss_mb"],
        "decided_share": (attempted - refused - failed) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(walls)} passes",
        "job_s.p50": f"n={n}",
        "job_s.tail": (f"p{tail_q:.1f}, n={n}" if tail_q < 100 else
                       f"max of n={n}: too few samples for a percentile above "
                       f"the median with {TAIL_BEYOND} beyond it"),
        "decided_share": (f"refusal_share={refused / attempted:.4f} "
                          f"failed_share={failed / attempted:.4f} "
                          f"of {attempted} verdicts"),
    }
    return metrics, notes, main, verdicts, [], []


def per_layer(session, workload):
    main = session.worker("traced", workload)
    threads = session.worker("threads", workload)
    traced = [p for p in main["passes"] if p["traced"]]
    plain = [p for p in main["passes"] if not p["traced"]]
    metrics = {
        name: statistics.median(p["summary"]["metrics"][name] for p in traced)
        for name in traced[0]["summary"]["metrics"]
    }
    metrics["threads.default_wall_s"] = statistics.median(p["wall"] for p in threads["passes"])
    metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in plain))
    traced_all = [main["warmup"]] + traced
    first = main["warmup"]["summary"]["cases"]
    unstable = sorted({key for p in traced for key in set(first) | set(p["summary"]["cases"])
                       if first.get(key) != p["summary"]["cases"].get(key)})
    metrics["trace.nondeterministic_counts"] = len(unstable)
    problems = []
    for i, p in enumerate(traced_all):
        missing = workloads.EXPECTED_SPANS[workload] - set(p["summary"]["fired"])
        if missing:
            problems.append(f"traced pass {i}: spans never fired: {sorted(missing)}")
    notes = {
        "threads.default_wall_s": (f"BLAS threads {threads['env']['blas']['threads']}, "
                                   f"sweeps at --jobs {threads['env']['nproc']}"),
        "trace.nondeterministic_counts": ", ".join(unstable) or "all counts repeat",
    }
    lines = ["  per-case counts:"]
    for key, case in sorted(first.items()):
        lines.append(f"    {key}: " + " ".join(f"{k}={v}" for k, v in case.items()))
    return metrics, notes, main, main["verdicts"] + threads["verdicts"], problems, lines


def run_workload(root, workload, seed, seconds, trace, declared):
    session = Session(root, seed, seconds)
    try:
        measure = per_layer if trace else end_to_end
        metrics, notes, main, verdicts, problems, extra = measure(session, workload)
    finally:
        session.close()
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchError(f"measured metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    failed = [v for v in verdicts if v["problems"]]
    env = main["env"]
    blas = env["blas"]
    print(f"workload {workload} seed {seed} trace {trace}: closed loop, 1 client, "
          f"{len(main['passes'])} passes of {len(main['passes'][0]['job_times'])} jobs")
    print(f"  env: nproc={env['nproc']} cpu_count={env['cpu_count']} "
          f"blas={blas['vendor']} {blas['version']} threads={blas['threads']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"thread_env={env['thread_env']}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{note}")
    for line in extra:
        print(line)
    for v in failed:
        print(f"  FAILED {v['job']} -> {v['verdict']}: {'; '.join(v['problems'])}")
    for p in problems:
        print(f"  CHECK FAILED {p}")
    return metrics, units, len(verdicts), len(failed), not failed and not problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sepcert", "cli.py")):
        print("perfbench: run from the repository root; src/sepcert is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    out = {}
    attempted = failed = 0
    correct = True
    try:
        for name in names:
            metrics, units, att, fail, ok = run_workload(
                root, name, args.seed, args.seconds, args.trace, declared)
            prefix = "" if len(names) == 1 else name + ":"
            out.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
            attempted += att
            failed += fail
            correct = correct and ok
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
