#!/usr/bin/env python3
"""Deep-level probe of the extension hierarchy without partial-transpose
blocks on the 3x3 family.

Without the partial-transpose blocks the Bose-symmetric extension test
is weaker on this family, which is entangled for every parameter above
3.  At level 6, 3.70 to 4.00 come back entangled with verified
certificates (margins 1.4e-5 at 3.70 to 6.6e-4 at 4.00): the level-6
extension does not exist there, so the boundary of this test lies below
3.7, not near 3.84.  From 3.1 to 3.65 the verdict is marginal, because
the family state is rank deficient and every extension inherits its
kernel.  The script first discloses the projected size of the problem
on all its free directions and each block's stored entries, and starts
the solves only when --yes-really is passed.  It then builds the
problem shape, which every solve reuses, and prints the build time on
its own line (about 0.1 s).  The family state is invariant under a
torus of diagonal phases, so each solve runs on the invariant
directions only (195 of 6975), which every line prints beside m, and
the solver splits each block into the components of its sparsity
pattern: on a 2-vCPU host with one BLAS thread a level-6 solve takes
about 0.05 s and the process peaks at 112 MB.  --k 5 --ppt runs level 5
with the partial-transpose blocks (a 0.4 s build, then about 0.8 s and
170 MB at 3.5), and --k 6 --ppt level 6 with them (a 2.6 s build, then
about 4 s and 490 MB).  It is deliberately excluded from the test
suite.
"""

import argparse
import resource
import sys
import time

from sepcert.hierarchy import (
    MEMORY_BUDGET_BYTES,
    ExtensionSpec,
    extension_shape,
    required_resources,
    run_test,
)
from sepcert.states import choi_family_state


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="level-6 plain-extension probe of the 3x3 family"
    )
    parser.add_argument(
        "--yes-really",
        action="store_true",
        help="actually run the solves instead of only printing the cost",
    )
    parser.add_argument(
        "--alphas",
        default="3.80,3.84,3.88,4.00",
        help="comma-separated family parameters to probe",
    )
    parser.add_argument("--k", type=int, default=6, help="hierarchy level")
    parser.add_argument(
        "--ppt",
        action="store_true",
        help="keep the partial-transpose blocks (heavier, detects earlier)",
    )
    args = parser.parse_args(argv)

    spec = ExtensionSpec(k=args.k, ppt=args.ppt)
    res = required_resources(3, 3, spec)
    print(f"level {args.k} probe of the 3x3 family, ppt={args.ppt}")
    print("required resources:")
    print(f"  free directions:       {res['free_directions']}")
    print(f"  block sides:           {res['block_sides']}")
    print(f"  stored entries:        {res['stored_entries']}")
    print(f"  working-set estimate:  {res['stack_bytes'] / 1e9:.2f} GB")
    print(f"  memory budget:         {MEMORY_BUDGET_BYTES / 1e9:.2f} GB")
    print(f"  schur flops/iteration: {res['schur_flops_per_iteration']:.2e}")
    if not args.yes_really:
        print("dry run only; pass --yes-really to start the solves")
        return 0

    # the state-independent shape, built once and reused by every solve
    start = time.perf_counter()
    extension_shape(3, 3, spec)
    print(f"shape build: {time.perf_counter() - start:.2f}s")

    for token in args.alphas.split(","):
        alpha = float(token)
        stamps = []
        start = time.perf_counter()
        report = run_test(
            choi_family_state(alpha),
            spec,
            trace=lambda row: stamps.append(time.perf_counter()),
        )
        elapsed = time.perf_counter() - start
        # mean spacing of the solver's iteration rows
        per_iter = (stamps[-1] - stamps[0]) / max(1, len(stamps) - 1)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"alpha={alpha:.4f} status={report.status} "
            f"m={report.metadata['free_directions']} "
            f"invariant={report.metadata['invariant_directions']} "
            f"margin={report.margin:.3e} iterations={report.iterations} "
            f"elapsed={elapsed:.2f}s s_per_iteration={per_iter:.3f} "
            f"peak_rss_so_far={peak_mb:.0f}MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
