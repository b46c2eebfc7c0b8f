"""The point-parallel baseline: bulk-synchronous insertion of
"independent" points.

The paper's introduction describes how practical parallel hull codes
[27, 34, 38, 40, 42, 47, 56, 59] exploit the incremental algorithm:
*"if two points are visible from disjoint sets of facets, they can be
added simultaneously"* -- with no non-trivial bound on the number of
rounds this needs.  This module implements that scheme as an honest
baseline so the benefit of Algorithm 3's facet-level asynchrony can be
measured (experiment E15 in EXPERIMENTS.md).

Independence here is the safe closed-neighbourhood condition: a point
``p`` can join the current round if no facet of its visible region
*or adjacent to it* has been claimed by an earlier-rank point of the
round.  (Plain visible-set disjointness is not sufficient: two visible
regions meeting at a ridge would both rebuild that ridge.)  Points are
considered greedily in insertion-rank order, matching how the
randomized analyses prioritise earlier points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.noisy import NoisyKernel
from ..geometry.simplex import Facet, facet_ridges
from .common import Counters, FacetFactory, setup_run
from .sequential import ConflictComplex, HullQueries, bootstrap_faces

__all__ = ["PointParallelResult", "point_parallel_hull"]


@dataclass
class PointParallelResult(HullQueries):
    points: np.ndarray
    order: np.ndarray
    facets: list[Facet]
    counters: Counters
    rounds: int
    round_sizes: list[int] = field(default_factory=list)   # points inserted per round
    deferred: list[int] = field(default_factory=list)      # conflicts-deferred per round
    interior: np.ndarray | None = None


def point_parallel_hull(
    points: np.ndarray,
    order: np.ndarray | None = None,
    seed: int | None = None,
    kernel: NoisyKernel | None = None,
) -> PointParallelResult:
    """Bulk-synchronous point-parallel incremental hull.

    Per round: every pending point locates its visible facets; a greedy
    maximal independent set (by insertion rank, closed-neighbourhood
    disjointness) is inserted simultaneously; the rest wait.  Interior
    points retire immediately.  The number of rounds is the quantity
    the paper says had "no strong theoretical bounds" -- compare it with
    Algorithm 3's O(log n) dependence depth.
    """
    pts, order, _, interior = setup_run(points, order, seed)
    n, d = pts.shape
    counters = Counters()
    factory = FacetFactory(pts, interior, counters, kernel=kernel)
    cx = ConflictComplex()

    all_later = np.arange(d + 1, n, dtype=np.int64)
    cx.replace((), factory.make_batch(
        [(idx, all_later) for idx in bootstrap_faces(pts, d + 1)]))

    def insert_point(v: int) -> None:
        visible = cx.visible(v)
        if not visible:
            return
        # Unlike the rank-ordered algorithms, a *lower*-rank point can
        # still be pending here (it may have been deferred by an earlier
        # round), so candidates are only purged of the inserted point
        # itself.
        specs = [
            (tuple(r | {v}),
             np.setdiff1d(np.union1d(t1.conflicts, t2.conflicts),
                          np.array([v], dtype=np.int64)))
            for r, t1, t2 in cx.horizon(visible)
        ]
        cx.replace(visible.values(), factory.make_batch(specs) if specs else [])

    pending = list(range(d + 1, n))
    rounds = 0
    round_sizes: list[int] = []
    deferred: list[int] = []
    while pending:
        rounds += 1
        claimed: set[int] = set()
        chosen: list[int] = []
        waiting: list[int] = []
        still_pending: list[int] = []
        for v in pending:  # ascending rank = priority
            vis = cx.inverse.get(v)
            if not vis:
                continue  # interior (now or already): retires silently
            # Closed neighbourhood of the visible region.
            neighbourhood = set(vis)
            for fid in vis:
                for r in facet_ridges(cx.facets[fid].indices):
                    neighbourhood |= cx.ridges[r]
            if neighbourhood & claimed:
                waiting.append(v)
                still_pending.append(v)
                continue
            claimed |= neighbourhood
            chosen.append(v)
        for v in chosen:
            insert_point(v)
        round_sizes.append(len(chosen))
        deferred.append(len(waiting))
        if not chosen and still_pending:
            raise RuntimeError("no progress in point-parallel round")
        pending = still_pending

    return PointParallelResult(
        points=pts,
        order=order,
        facets=cx.alive(),
        counters=counters,
        rounds=rounds,
        round_sizes=round_sizes,
        deferred=deferred,
        interior=interior,
    )
