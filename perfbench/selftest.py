"""Self-test of the tracing hooks.

For each workload: one traced pass must fire every span the workload
reaches (``workloads.EXPECTED_SPANS``), and after ``uninstall`` every hooked
name must be the original object again and an untraced pass must record
nothing.  Run from the repository root:

    python3 perfbench/selftest.py [workload ...]

Exits 0 when every check holds.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

MODULES = spans.package_modules()


def hooked_objects():
    objs = [getattr(MODULES[m], a) for m, a, _ in spans.HOOKS]
    return objs + [MODULES["reports"].ReportBuilder.write]


def check(workload, base):
    work = tempfile.mkdtemp(dir=base, prefix=workload + "-")
    os.chdir(work)
    try:
        inputs = workloads.build_inputs(workload, seed=1, sweep_jobs=1)
        runner = worker.Runner(1, inputs, MODULES["cli"])
        originals = hooked_objects()
        tracer = spans.Tracer()
        tracer.install()
        try:
            runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        fired = tracer.summary()["fired"]
        missing = workloads.EXPECTED_SPANS[workload] - set(fired)
        restored = all(a is b for a, b in zip(originals, hooked_objects()))
        tracer.new_pass()
        runner.run_pass()
        silent = not tracer.spans
        failed = [v for v in runner.verdicts if v["problems"]]
    finally:
        os.chdir(ROOT)
    print(f"{workload}: fired {dict(sorted(fired.items()))}")
    ok = not missing and restored and silent and not failed
    print(f"  expected spans fired: {not missing}{' missing ' + str(sorted(missing)) if missing else ''}"
          f"; originals restored: {restored}; untraced pass silent: {silent}"
          f"; failed verdicts: {len(failed)} -> {'ok' if ok else 'FAIL'}")
    return ok


def main():
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    base_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base_root, exist_ok=True)
    base = tempfile.mkdtemp(dir=base_root)
    try:
        results = [check(name, base) for name in names]
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(base_root)
        except OSError:  # another run still uses it
            pass
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
