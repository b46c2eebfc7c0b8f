"""Regenerate the measurement tables of EXPERIMENTS.md.

Run:  python tools/make_report.py [--quick]

Prints every experiment's table to stdout in the order of
EXPERIMENTS.md so results can be refreshed or checked on a new machine.
Seeds are fixed; only wall-clock figures vary.
"""

from __future__ import annotations

import math
import sys

import numpy as np

ROOT_HINT = "run from the repository root after `pip install -e .`"


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def e1_depth(quick: bool) -> None:
    from repro.analysis import measure_hull_depths
    from repro.configspace.theory import harmonic

    banner("E1 -- dependence depth is O(log n) whp (Thms 1.1/4.2/5.3)")
    ns = [64, 256, 1024] if quick else [64, 256, 1024, 4096]
    for d, seeds in ((2, 10), (3, 5)):
        camp = measure_hull_depths(ns, d, range(2 if quick else seeds))
        print(f"d={d} (uniform ball):")
        for s in camp.samples:
            print(f"  n={s.n:5d} mean={s.mean_depth:6.2f} max={s.max_depth:3d} "
                  f"sigma={s.depth_over_harmonic:5.2f}")


def e2_work(quick: bool) -> None:
    from repro.analysis import work_scaling
    from repro.geometry import uniform_ball

    banner("E2 -- parallel == sequential work (Thm 5.4)")
    ns = [512, 2048] if quick else [512, 2048, 8192]
    for row in work_scaling(ns, 2, uniform_ball, seed=3):
        print(f"  n={row['n']:5d} seq={row['seq_tests']:7d} par={row['par_tests']:7d} "
              f"ratio={row['ratio']:.4f} same_created={row['same_created']} "
              f"tests/nlogn={row['tests_per_nlogn']}")


def e3_span(quick: bool) -> None:
    from repro.analysis import crcw_span
    from repro.geometry import on_sphere
    from repro.hull import parallel_hull

    banner("E3 -- span: rounds/log2n flat; S/log2^2 n flat; CRCW accounting")
    ns = [256, 1024] if quick else [256, 1024, 4096]
    for n in ns:
        # W and S come from the object driver's per-task work-span DAG.
        run = parallel_hull(on_sphere(n, 2, seed=n), seed=5, engine="objects")
        rep = crcw_span(run)
        print(f"  n={n:5d} rounds={run.exec_stats.rounds:3d} "
              f"rounds/log2n={run.exec_stats.rounds / math.log2(n):.2f} "
              f"W={run.tracker.work:7d} S={run.tracker.span:4d} "
              f"S/log2^2n={run.tracker.span / math.log2(n) ** 2:.2f} "
              f"CRCW span={rep.span_rounds} per-round={rep.span_per_round:.1f}")


def e4_figure1() -> None:
    from repro.geometry import figure1_points
    from repro.hull import parallel_hull

    banner("E4 -- Figure 1 walkthrough")
    pts, labels = figure1_points()
    run = parallel_hull(pts, order=np.arange(10), base_size=7)
    creates = {}
    for e in run.events:
        if e.kind == "create":
            f = next(x for x in run.created if x.fid == e.created)
            creates.setdefault(e.round + 1, []).append(
                "-".join(labels[i] for i in f.indices)
            )
    for rnd, names in sorted(creates.items()):
        print(f"  round {rnd} creates: {sorted(names)}")
    print(f"  rounds={run.exec_stats.rounds} depth={run.dependence_depth()}")


def e5_e10_support(quick: bool) -> None:
    from repro.configspace import check_k_support
    from repro.configspace.spaces import (
        HullFacetSpace,
        HullRidgeSpace,
        HalfplaneSpace,
        UnitCircleArcSpace,
        clustered_unit_circles,
        tangent_halfplanes,
    )
    from repro.geometry import uniform_ball

    banner("E5/E8/E9/E10 -- k-support certification")
    n = 9 if quick else 10
    jobs = [
        ("hull facets d=2 (Thm 5.1)", HullFacetSpace(uniform_ball(n, 2, seed=1))),
        ("hull facets d=3 (Thm 5.1)", HullFacetSpace(uniform_ball(8, 3, seed=2))),
        ("hull ridges (S7)", HullRidgeSpace(uniform_ball(n, 2, seed=3))),
        ("half-planes+rays (S7)", HalfplaneSpace(*tangent_halfplanes(n, seed=4))),
        ("unit circles (S7)", UnitCircleArcSpace(clustered_unit_circles(8, seed=5))),
    ]
    for label, space in jobs:
        rep = check_k_support(space, range(space.n_objects))
        print(f"  {label:30s} checked={rep.checked:4d} ok={rep.ok} "
              f"max support={rep.max_support_size()} (claimed k={space.support_k})")


def e7_corners() -> None:
    from repro.configspace import check_k_support
    from repro.configspace.spaces import CornerConfigSpace

    banner("E7 -- degenerate 3D corners (Lemmas 6.1/6.2)")
    base = np.array([[x, y, z] for x in (0.0, 2) for y in (0.0, 2) for z in (0.0, 2)])
    extras = np.array([[1.0, 1, 0], [1, 0, 1], [0, 1, 1]])
    pts = np.vstack([base, extras])
    space = CornerConfigSpace(pts)
    Y = list(range(len(pts)))
    active = {c.key() for c in space.active_set(Y)}
    geo = space.hull_corners(Y)
    rep = check_k_support(space, Y, k=4)
    print(f"  Lemma 6.1 (active == corners): {active == geo} ({len(active)} corners)")
    print(f"  Lemma 6.2 (4-support): ok={rep.ok} checked={rep.checked} "
          f"max={rep.max_support_size()}")


def e11_multimap() -> None:
    from repro.runtime import CASMultimap, TASMultimap, run_interleaved

    banner("E11 -- Thms A.1/A.2 under randomized interleavings")
    for name, cls in (("CAS (Alg 4)", CASMultimap), ("TAS (Alg 5)", TASMultimap)):
        violations = 0
        for seed in range(300):
            m = cls(capacity=8, hash_fn=lambda k: 0)
            res = run_interleaved(
                {"p": lambda m=m: m.insert_and_set_steps("r", "t1"),
                 "q": lambda m=m: m.insert_and_set_steps("r", "t2")},
                seed=seed,
            )
            if sorted([res["p"].value, res["q"].value]) != [False, True]:
                violations += 1
        print(f"  {name}: 300 adversarial interleavings, violations={violations}")


def e13_speedup(quick: bool) -> None:
    from repro.analysis import speedup_table
    from repro.geometry import on_sphere
    from repro.hull import parallel_hull
    from repro.runtime.forkjoin import simulate_work_stealing

    banner("E13 -- speedup (work-span model + work stealing)")
    n = 1000 if quick else 2000
    # The schedules need the object driver's per-task work-span DAG.
    run = parallel_hull(on_sphere(n, 2, seed=10), seed=11, engine="objects")
    for row in speedup_table(run, [1, 4, 16, 64]):
        print(f"  P={row['P']:3d} greedy={row['speedup']:6.2f} "
              f"model={row['model_speedup']:6.2f}")
    for p in (2, 4, 8):
        st = simulate_work_stealing(run.tracker, p, seed=p)
        print(f"  work-stealing P={p}: speedup="
              f"{run.tracker.work / st.makespan:5.2f} steals={st.steals}")


def e15_point_parallel(quick: bool) -> None:
    from repro.geometry import on_sphere, uniform_ball
    from repro.hull import parallel_hull
    from repro.hull.point_parallel import point_parallel_hull

    banner("E15 -- Algorithm 3 vs the point-parallel practice baseline")
    ns = [256, 1024] if quick else [256, 1024, 4096]
    for gen, label in ((uniform_ball, "ball"), (on_sphere, "sphere")):
        for n in ns:
            pts = gen(n, 2, seed=n)
            order = np.random.default_rng(1).permutation(n)
            pp = point_parallel_hull(pts, order=order.copy())
            par = parallel_hull(pts, order=order.copy())
            print(f"  {label:6s} n={n:5d}: point-parallel rounds={pp.rounds:3d}  "
                  f"Alg3 depth={par.dependence_depth():3d}")


def e14_trilogy(quick: bool) -> None:
    from repro.apps import bowyer_watson, delaunay
    from repro.apps.parallel_delaunay import parallel_delaunay
    from repro.apps.parallel_halfplanes import parallel_halfplanes
    from repro.apps import incremental_halfplanes
    from repro.configspace.spaces import tangent_halfplanes
    from repro.geometry import uniform_ball

    banner("E14+ -- one engine, three problems (hull / Delaunay / half-planes)")
    n = 300 if quick else 800
    pts = uniform_ball(n, 2, seed=14)
    order = np.random.default_rng(15).permutation(n)
    bw = bowyer_watson(pts, order=order.copy())
    pd = parallel_delaunay(pts, order=order.copy())
    lifted = delaunay(pts, order=order.copy())
    print(f"  Delaunay n={n}: lifted/BW/parallel agree="
          f"{lifted.triangles == bw.triangles == pd.triangles}; "
          f"identical in-circle tests={pd.in_circle_tests == bw.in_circle_tests}; "
          f"parallel depth={pd.dependence_depth()}")
    normals, offsets = tangent_halfplanes(n, seed=16)
    horder = np.random.default_rng(17).permutation(n)
    seqh = incremental_halfplanes(normals, offsets, order=horder.copy())
    parh = parallel_halfplanes(normals, offsets, order=horder.copy())
    same = {frozenset(p) for p in seqh.vertex_pairs} == {
        frozenset(p) for p in parh.vertex_pairs}
    print(f"  half-planes n={n}: sequential/parallel agree={same}; "
          f"parallel depth={parh.dependence_depth()}")


def main() -> None:
    quick = "--quick" in sys.argv
    e1_depth(quick)
    e2_work(quick)
    e3_span(quick)
    e4_figure1()
    e5_e10_support(quick)
    e7_corners()
    e11_multimap()
    e13_speedup(quick)
    e15_point_parallel(quick)
    e14_trilogy(quick)
    print("\ndone; see EXPERIMENTS.md for interpretation against the paper.")


if __name__ == "__main__":
    main()
