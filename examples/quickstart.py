"""Quickstart: build convex hulls with the parallel randomized
incremental algorithm and inspect what the paper is about.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import speedup_table
from repro.configspace.theory import harmonic
from repro.geometry import uniform_ball
from repro.hull import Polytope, parallel_hull, sequential_hull, validate_hull


def main() -> None:
    rng_seed = 42

    # --- 2D hull -------------------------------------------------------
    pts = uniform_ball(10_000, 2, seed=1)
    run = parallel_hull(pts, seed=rng_seed)
    validate_hull(run.facets, run.points)
    print("2D hull of 10,000 random points in the unit disk")
    print(f"  hull vertices:    {len(run.vertex_indices())}")
    print(f"  visibility tests: {run.counters.visibility_tests:,}")
    print(f"  dependence depth: {run.dependence_depth()}  "
          f"(g*H_n = {2 * harmonic(10_000):.1f})")
    print(f"  rounds:           {run.exec_stats.rounds}")

    # --- the headline claim: parallel == sequential, reshuffled ---------
    order = np.random.default_rng(7).permutation(2_000)
    pts3 = uniform_ball(2_000, 3, seed=2)
    seq = sequential_hull(pts3, order=order.copy())
    # The object driver: its per-task work-span DAG feeds the speedup
    # table below (the default SoA engine logs one task per round).
    par = parallel_hull(pts3, order=order.copy(), engine="objects")
    print("\n3D: same insertion order, both algorithms")
    print(f"  same facets created:  {par.created_keys() == seq.created_keys()}")
    print(f"  visibility tests:     sequential {seq.counters.visibility_tests:,} "
          f"vs parallel {par.counters.visibility_tests:,}")

    # --- geometry post-processing ---------------------------------------
    poly = Polytope.from_run(par)
    print(f"  hull volume:          {poly.volume():.4f} "
          f"(unit ball = {4/3*np.pi:.4f})")
    print(f"  surface area:         {poly.surface_measure():.4f}")

    # --- simulated speedup from the work-span log ------------------------
    print("\nSimulated greedy-scheduler speedup (work-span model):")
    for row in speedup_table(par, [1, 2, 4, 8, 16, 32]):
        print(f"  P={row['P']:>3}  T_P={row['T_P']:>9,}  "
              f"speedup={row['speedup']:>6.2f}  util={row['utilisation']:.2f}")


if __name__ == "__main__":
    main()
