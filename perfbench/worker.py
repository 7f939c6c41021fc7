"""One benchmark worker process: set up, run passes of a workload's jobs
through ``sepcert.cli.main`` in-process, check every verdict, and write the
measurements as JSON.

Modes:
  setup   import the package, write the inputs, report the set-up time
  measure untraced passes for the end-to-end metrics
  traced  a traced warm-up pass, then alternating untraced and traced
          passes for the per-layer metrics
  threads untraced passes with the BLAS library's default thread count
          (run.py leaves the thread variables unset) and sweeps dispatched
          to one worker thread per CPU
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import workloads


def blas_info():
    """BLAS vendor, version and the thread count each loaded OpenBLAS uses."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"vendor": cfg.get("name"), "version": cfg.get("version"), "threads": {}}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"][os.path.basename(path)] = fn()
                break
    return info


class Runner:
    def __init__(self, seed, inputs, cli):
        self.seed = seed
        self.inputs = inputs
        self.cli = cli
        self.published = {}
        self.digests = {}
        self.verdicts = []

    def run_pass(self, tracer=None):
        """Run every job once; returns the pass record."""
        job_times = []
        for index, job in enumerate(self.inputs.jobs):
            argv = [self.published.get(a[1:], a) if a.startswith("@") else a
                    for a in job.argv]
            argv += ["--out", "out", "--seed", str(self.seed)]
            buf = io.StringIO()
            error = None
            rc = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        rc = self.cli.main(argv)
                    else:
                        rc = tracer.job(index, lambda: self.cli.main(argv))
            except Exception as exc:  # a raised job is a failed verdict
                traceback.print_exc()
                error = f"raised {type(exc).__name__}: {exc}"
            job_times.append(time.perf_counter() - start)
            self._check(index, job, rc, error, buf.getvalue())
        return {"wall": sum(job_times), "job_times": job_times, "traced": tracer is not None}

    def _check(self, index, job, rc, error, stdout):
        found = workloads.REPORT_RE.findall(stdout)
        report = found[-1] if found and error is None else None
        verdicts, published = workloads.check_job(job, self.inputs, rc, report)
        if error is not None:
            for v in verdicts:
                v["problems"].insert(0, error)
        if published and job.publish:
            self.published[job.publish] = published
        if report is not None and os.path.exists(report):
            with open(report) as fh:
                digest = workloads.report_digest(fh.read())
            first = self.digests.setdefault(index, digest)
            if digest != first:
                for v in verdicts:
                    v["problems"].append("report bytes differ from the first pass")
        self.verdicts.extend(verdicts)


def run_passes(step, count, seconds):
    """Call ``step()`` ``count`` times, starting no new call after twice
    ``seconds`` have passed (a guard for a much slower commit)."""
    out = []
    start = time.perf_counter()
    for _ in range(count):
        out.extend(step())
        if time.perf_counter() - start > 2 * seconds:
            break
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure", "traced", "threads"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    from sepcert import cli

    nproc = len(os.sched_getaffinity(0))
    inputs = workloads.build_inputs(
        args.workload, args.seed, nproc if args.mode == "threads" else 1)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}

    if args.mode != "setup":
        import scipy

        runner = Runner(args.seed, inputs, cli)
        nominal = workloads.NOMINAL_PASS_S[args.workload]
        if args.mode == "traced":
            from spans import Tracer

            tracer = Tracer()

            def traced_pass():
                tracer.new_pass()
                tracer.install()
                try:
                    record = runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
                record["summary"] = tracer.summary()
                return record

            # the first pass takes the first-call costs; it is traced so its
            # counts join the repeat check, and its time is not used
            result["warmup"] = traced_pass()
            passes = run_passes(lambda: [runner.run_pass(), traced_pass()],
                                max(1, int(args.seconds // (2 * nominal))), args.seconds)
        elif args.mode == "threads":
            passes = [runner.run_pass()]
        else:
            passes = run_passes(lambda: [runner.run_pass()],
                                max(2, int(args.seconds // nominal)), args.seconds)
        result.update(
            passes=passes,
            verdicts=runner.verdicts,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            env={
                "nproc": nproc,
                "cpu_count": os.cpu_count(),
                "blas": blas_info(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "thread_env": {k: os.environ.get(k) for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            },
        )
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
