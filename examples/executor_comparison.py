"""Compare execution disciplines for Algorithm 3: serial DFS,
round-synchronous (PRAM-style), shuffled rounds, and real threads with
the CAS / TAS concurrent multimaps.

All disciplines produce the same hull and the same facet multiset --
the paper's point is that the *schedule* is free.  Wall-clock speedup
under threads is GIL-bound in CPython; the work-span log is the model
quantity that shows the available parallelism.

Run:  python examples/executor_comparison.py
"""

import time

import numpy as np

from repro.geometry import on_sphere
from repro.hull import parallel_hull
from repro.runtime import RoundExecutor, SerialExecutor, ThreadExecutor


def main() -> None:
    n = 3000
    pts = on_sphere(n, 3, seed=6)
    order = np.random.default_rng(2).permutation(n)

    configs = [
        ("serial DFS, dict map", SerialExecutor(), "dict"),
        ("rounds (PRAM), dict map", RoundExecutor(), "dict"),
        ("rounds shuffled, dict map", RoundExecutor(seed=1), "dict"),
        ("2 threads, CAS map (Alg. 4)", ThreadExecutor(2), "cas"),
        ("2 threads, TAS map (Alg. 5)", ThreadExecutor(2), "tas"),
    ]

    reference = None
    print(f"3D hull of {n} points on the sphere (all extreme)\n")
    print(f"{'discipline':<30} {'time':>7} {'facets':>7} {'depth':>6} {'same?':>6}")
    for label, executor, mm in configs:
        t0 = time.perf_counter()
        run = parallel_hull(pts, order=order.copy(), executor=executor, multimap=mm)
        dt = time.perf_counter() - t0
        keys = run.created_keys()
        if reference is None:
            reference = keys
        print(f"{label:<30} {dt:>6.2f}s {len(run.facets):>7} "
              f"{run.dependence_depth():>6} {str(keys == reference):>6}")

    # The model quantities come from the object driver's per-task DAG.
    run = parallel_hull(pts, order=order.copy(), engine="objects")
    print(f"\nwork-span model: W = {run.tracker.work:,} ops, "
          f"S = {run.tracker.span:,}, parallelism W/S = {run.tracker.parallelism:.0f}")
    print("simulated greedy speedups:",
          {p: round(s, 1) for p, s in run.tracker.speedup_curve([2, 8, 32, 128]).items()})


if __name__ == "__main__":
    main()
