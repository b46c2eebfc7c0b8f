"""E19: the flat visibility sweep vs the scalar oracle.

The flat sweep (:func:`~repro.geometry.kernels.visible_flat`, the SoA
engine's only visibility path) claims two things: bit-identical signs
to the scalar path, and a large constant-factor speedup on the
visibility tests that dominate hull work.  This module measures the
second claim (the first is the differential suite's job, but every
measurement here re-asserts agreement anyway): for each ``(n, d)`` it
times three engines deciding the *same* (facet x candidate) visibility
block --

``scalar``
    one :meth:`~repro.geometry.hyperplane.Hyperplane.side` call per
    (facet, point) pair: the per-call oracle the predicates are
    specified against;
``masked``
    one :meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask`
    call per facet: the object drivers' per-facet vectorized path;
``flat``
    one :func:`~repro.geometry.kernels.visible_flat` sweep over the
    whole flattened block, its plane columns stacked once beforehand
    (the SoA store holds them that way).

and reports median wall times, speedups, and the filter-fallback rate
(the fraction of signs the float envelope could not certify).  An
end-to-end section runs ``sequential_hull`` (the scalar object driver)
and :func:`~repro.hull.soa.soa_hull` along an ``n`` trajectory
(2e3 / 2e4 / 1e5 in the full run, plus SoA alone at 1e6), checking
facet-set equality and recording the soa/scalar ratio per ``(n, d)``.

Results are JSON-shaped for ``BENCH_kernels.json`` (consumed by
EXPERIMENTS.md's E19 table and the ``kernels-smoke`` CI job via
``benchmarks/bench_kernels.py`` or ``repro bench-kernels``).  Each
report records the environment it was measured in (``cpu_count``,
Python and NumPy versions): timings from different machines are not
one trajectory.
"""

from __future__ import annotations

import gc
import os
import platform
import time
from statistics import median
from typing import Sequence

import numpy as np

from ..geometry.hyperplane import Hyperplane
from ..geometry.kernels import KernelStats, visible_flat
from ..geometry.points import uniform_ball
from ..hull.sequential import sequential_hull
from ..hull.soa import soa_hull

__all__ = ["run_kernel_bench", "KERNEL_BENCH_SCHEMA"]

KERNEL_BENCH_SCHEMA = "repro.bench.kernels/2"


def _facet_specs(
    pts: np.ndarray, n_facets: int, rng: np.random.Generator
) -> tuple[list[Hyperplane], list[np.ndarray], np.ndarray]:
    """Build ``n_facets`` well-defined planes through random d-subsets,
    each tested against every other point -- the dense analogue of the
    hull's ragged conflict blocks.  Returns the planes, their candidate
    blocks and their defining ranks (one row per plane).

    The RPRHOT suppressions here and in ``_predicate_row`` are the
    measurement harness itself: the scalar closures *time* the
    per-element path on purpose, and the raw sweeps are stopwatch
    material, not hull work the span accounting should see.
    """
    n, d = pts.shape
    interior = pts.mean(axis=0)
    planes: list[Hyperplane] = []
    cand_list: list[np.ndarray] = []
    indices = np.empty((n_facets, d), dtype=np.int64)
    everything = np.arange(n, dtype=np.int64)
    while len(planes) < n_facets:
        idx = tuple(sorted(int(i) for i in rng.choice(n, size=d, replace=False)))
        try:
            plane = Hyperplane.through(pts[list(idx)], interior, indices=idx)  # repro: noqa: RPRHOT002
        except ValueError:
            continue  # interior exactly on the plane: redraw
        if plane.always_exact:
            continue  # degenerate draw would bench the exact path only
        keep = np.ones(n, dtype=bool)  # repro: noqa: RPRHOT003
        keep[list(idx)] = False
        indices[len(planes)] = idx
        planes.append(plane)  # repro: noqa: RPRHOT003
        cand_list.append(everything[keep])  # repro: noqa: RPRHOT003
    return planes, cand_list, indices


def _time(fn, repeats: int) -> tuple[float, object]:
    """Median wall time of ``fn`` over ``repeats`` runs, plus its last
    return value.

    Cyclic collection is drained *before* and disabled *during* each
    run: the object-driver engines leave millions of dead ``Facet``
    objects behind, and without the fence their collection bill lands
    in whichever engine happens to be on the stopwatch next."""
    times = []
    out = None
    for _ in range(repeats):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
    return float(median(times)), out


def _predicate_row(
    n: int, d: int, n_facets: int, repeats: int, seed: int
) -> dict:  # repro: hot-entry
    rng = np.random.default_rng(seed)
    pts = uniform_ball(n, d, seed=seed)
    planes, cand_list, indices = _facet_specs(pts, n_facets, rng)
    # The flat stream, the points in column form and the plane
    # columns, built once outside the stopwatch (the SoA engine
    # transposes its points once per run): plane k tests the blocks[k]
    # consecutive ranks of its candidate block; its defining ranks and
    # visible sign serve the sweep's exact stage.
    pts_cols = np.ascontiguousarray(pts.T)
    sizes = [int(c.size) for c in cand_list]
    ranks = np.concatenate(cand_list)
    blocks = np.asarray(sizes, dtype=np.int64)
    normals = np.stack([p.normal for p in planes])
    offsets = np.array([p.offset for p in planes])
    err_scale = np.array([p.err_scale for p in planes])
    err_base = np.array([p.err_base for p in planes])
    vis_sign = np.array([p.vis_sign for p in planes], dtype=np.int8)

    def scalar() -> list[np.ndarray]:
        out = []
        for plane, cands in zip(planes, cand_list):  # repro: noqa: RPRHOT001
            out.append(
                np.array([plane.side(pts[r], int(r)) > 0 for r in cands], dtype=bool)  # repro: noqa: RPRHOT002, RPRHOT003
            )
        return out

    def masked() -> list[np.ndarray]:
        return [
            plane.visible_mask(pts[cands], indices=cands)  # repro: noqa: RPRHOT002
            for plane, cands in zip(planes, cand_list)
        ]

    def batch(stats: KernelStats | None = None) -> np.ndarray:
        return visible_flat(  # repro: noqa: RPRHOT006
            pts_cols, normals, offsets, err_scale, err_base, blocks, ranks,
            indices, vis_sign, stats=stats,
        )

    scalar_s, scalar_masks = _time(scalar, repeats)
    masked_s, masked_masks = _time(masked, repeats)
    flat_s, flat_mask = _time(batch, repeats)

    flat_masks = np.split(flat_mask, np.cumsum(sizes)[:-1])
    for a, b, c in zip(scalar_masks, masked_masks, flat_masks):
        if not (np.array_equal(a, b) and np.array_equal(a, c)):
            raise AssertionError(f"engine disagreement at n={n} d={d}")

    # Fallback statistics from one instrumented sweep.
    stats = KernelStats()
    batch(stats)
    return {
        "n": n,
        "d": d,
        "facets": len(planes),
        "tests": sum(sizes),
        "scalar_s": scalar_s,
        "masked_s": masked_s,
        "flat_s": flat_s,
        "speedup_vs_scalar": scalar_s / flat_s if flat_s else float("inf"),
        "speedup_vs_masked": masked_s / flat_s if flat_s else float("inf"),
        "fallbacks": stats.fallbacks,
        "fallback_rate": stats.fallbacks / max(1, stats.batched_signs),
    }


def _hull_row(n: int, d: int, repeats: int, seed: int) -> dict:  # repro: hot-entry
    """One end-to-end point of the hull trajectory: the scalar object
    driver (:func:`~repro.hull.sequential.sequential_hull`) against the
    conflict-list SoA engine (:func:`~repro.hull.soa.soa_hull`) on the
    identical instance, facet sets asserted equal.

    Large instances get one repeat: a full ``sequential_hull`` at
    ``n=1e5, d=3`` runs ~15 s, and the trajectory's job is the *trend*
    of the soa/scalar ratio across n, not a tight median."""
    repeats = repeats if n < 10_000 else 1
    pts = uniform_ball(n, d, seed=seed + 17)
    order = np.random.default_rng(seed).permutation(n)

    scalar_s, scalar_res = _time(
        lambda: sequential_hull(pts, order=order.copy()), repeats
    )
    soa_s, soa_res = _time(
        lambda: soa_hull(pts, order=order.copy()), repeats
    )
    keys = scalar_res.facet_keys()
    return {
        "n": n,
        "d": d,
        "repeats": repeats,
        "scalar_s": scalar_s,
        "soa_s": soa_s,
        "soa_speedup": scalar_s / soa_s if soa_s else float("inf"),
        "same_facets": keys == soa_res.facet_keys(),
        "hull_facets": len(keys),
    }


def _soa_contained(run, sample: int, seed: int) -> bool:
    """Float-sound containment spot check for instances too large to
    cross-check against the scalar oracle: no sampled input point may be
    *certainly* outside any live facet's plane (margin beyond the
    facet's own error envelope).  Reads the run's own plane columns."""
    live = run.created_alive
    rng = np.random.default_rng(seed)
    picks = rng.choice(run.points.shape[0], size=min(sample, run.points.shape[0]),
                       replace=False)
    q = run.points[picks]
    margins = q @ run.created_normals[live].T - run.created_offsets[live]
    env = run.created_err_scale[live] * (
        run.created_err_base[live] + np.abs(q).max(axis=1)[:, None]
    )
    return bool(np.all(margins <= env))


def _soa_only_row(n: int, d: int, seed: int, sample: int = 20_000) -> dict:  # repro: hot-entry
    """The trajectory's far point (``n = 1e6``): the scalar oracle is
    intractable here (hours), so ``scalar_s`` is ``None`` and
    correctness is a sampled containment check instead of a facet-set
    diff -- the 5x acceptance criterion is evaluated at ``n = 1e5``
    where the oracle still runs."""
    pts = uniform_ball(n, d, seed=seed + 17)
    order = np.random.default_rng(seed).permutation(n)
    soa_s, res = _time(lambda: soa_hull(pts, order=order.copy()), 1)
    return {
        "n": n,
        "d": d,
        "repeats": 1,
        "scalar_s": None,
        "soa_s": soa_s,
        "soa_speedup": None,
        "same_facets": None,
        "sampled_containment": _soa_contained(res, sample, seed + 1),
        "hull_facets": int(res.created_alive.sum()),
        "rounds": res.exec_stats.rounds,
        "visibility_tests": res.counters.visibility_tests,
    }


def run_kernel_bench(
    ns: Sequence[int] | None = None,
    ds: Sequence[int] = (2, 3),
    hull_ns: Sequence[int] | None = None,
    n_facets: int = 24,
    repeats: int = 3,
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Run the E19 campaign and return the ``BENCH_kernels.json`` dict.

    ``smoke=True`` shrinks sizes/repeats for CI (correctness of the
    harness, not meaningful timings).  The full run covers ``n >= 1e4``
    where the acceptance criterion (flat sweep >= 3x scalar median
    speedup on visibility testing) is evaluated.
    """
    if smoke:
        ns = ns or (256, 1024)
        hull_ns = hull_ns or (300,)
        repeats = min(repeats, 2)
        n_facets = min(n_facets, 8)
        soa_big_n = None
    else:
        ns = ns or (1_000, 10_000, 20_000)
        hull_ns = hull_ns or (2_000, 20_000, 100_000)
        soa_big_n = 1_000_000

    rows = [
        _predicate_row(n, d, n_facets, repeats, seed + 31 * n + d)
        for d in ds
        for n in ns
    ]
    hull_rows = [
        _hull_row(n, d, repeats, seed + 7 * n + d) for d in ds for n in hull_ns
    ]
    if soa_big_n is not None:
        hull_rows.append(_soa_only_row(soa_big_n, 3, seed + 7 * soa_big_n + 3))

    speedups = [r["speedup_vs_scalar"] for r in rows]
    large = [r["speedup_vs_scalar"] for r in rows if r["n"] >= 10_000]
    # Rows with an oracle run (the soa-only far point has scalar_s None).
    diffed = [r for r in hull_rows if r["scalar_s"] is not None]
    # The 5x acceptance criterion is evaluated at d >= 3, the regime the
    # paper's work bounds are about: in 2-D the per-facet masked path
    # already serves the long conflict lists well, so the flat sweep's
    # win there is structural overhead removal (~3-4x), not the
    # facet-count-dominated regime the SoA engine exists for.
    soa_1e5 = [r["soa_speedup"] for r in diffed
               if r["n"] >= 100_000 and r["d"] >= 3]
    summary = {
        "median_speedup_vs_scalar": float(median(speedups)) if speedups else 0.0,
        "median_speedup_large_n": float(median(large)) if large else None,
        "criterion_3x_at_1e4": bool(large) and median(large) >= 3.0,
        "max_fallback_rate": max((r["fallback_rate"] for r in rows), default=0.0),
        "all_hulls_identical": all(r["same_facets"] for r in diffed),
        "all_containment_checks_passed": all(
            r.get("sampled_containment", True) is not False for r in hull_rows
        ),
        # E24: the conflict-list SoA engine's end-to-end trajectory,
        # per dimension (the 2-D and 3-D regimes differ structurally;
        # blending them into one median would hide both).
        "soa_speedup_by_n": {
            f"n={r['n']},d={r['d']}": r["soa_speedup"] for r in diffed
        },
        "criterion_soa_5x_at_1e5": bool(soa_1e5) and median(soa_1e5) >= 5.0,
    }
    return {
        "schema": KERNEL_BENCH_SCHEMA,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "smoke": smoke,
        "seed": seed,
        "repeats": repeats,
        "ns": list(ns),
        "ds": list(ds),
        "rows": rows,
        "hull_rows": hull_rows,
        "summary": summary,
    }
