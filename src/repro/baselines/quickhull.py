"""Quickhull in arbitrary (constant) dimension.

The furthest-point divide-and-conquer heuristic used by Qhull [10]: each
facet keeps an *outside set*; repeatedly pick a facet, take its furthest
outside point, remove the visible cone, and stitch new facets along the
horizon.  It shares the facet/ridge machinery of the incremental
algorithms -- :class:`~repro.hull.common.FacetFactory` builds its facets
and :class:`~repro.hull.sequential.FacetComplex` does install/uninstall
and the horizon walk -- and keeps its own rules: the furthest outside
point as apex (chosen adaptively instead of by random rank), a BFS over
facet adjacency for the visible region, and the parents' outside sets
as candidates.  It also keeps its own set-up, since it does not re-rank
its points.  The classic practical baseline for benchmark E12.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..geometry.simplex import Facet, facet_ridges
from ..hull.common import Counters, FacetFactory, initial_simplex_ranks, prepare_points
from ..hull.sequential import FacetComplex, HullQueries

__all__ = ["QuickhullResult", "quickhull"]


@dataclass
class QuickhullResult(HullQueries):
    points: np.ndarray
    order: np.ndarray
    facets: list[Facet]
    counters: Counters
    interior: np.ndarray


def quickhull(points: np.ndarray) -> QuickhullResult:
    """Compute the hull of ``points`` (general position) by quickhull.

    The ``conflicts`` array of each facet doubles as its outside set;
    the furthest member is chosen by maximum margin.
    """
    pts, order = prepare_points(points, order=np.arange(len(points)))
    n, d = pts.shape
    init = initial_simplex_ranks(pts)
    counters = Counters()
    interior = pts[init].mean(axis=0)
    factory = FacetFactory(pts, interior, counters)
    cx = FacetComplex()

    everything = np.arange(n, dtype=np.int64)
    for leave_out in init:
        subset = tuple(i for i in init if i != leave_out)
        cx.install(factory.make(subset, everything))

    # Facets with a nonempty outside set still need processing, first
    # in, first out.  New fids are always larger, so facets go in
    # ascending fid order; a facet that died or emptied since it was
    # queued is skipped when it comes up.
    pending = deque(sorted(fid for fid, f in cx.facets.items() if f.conflicts.size))
    while pending:
        fid = pending.popleft()
        f0 = cx.facets.get(fid)
        if f0 is None or not f0.conflicts.size:
            continue
        # Furthest outside point of this facet.
        margins = f0.plane.margins(pts[f0.conflicts])
        apex = int(f0.conflicts[int(np.argmax(margins))])
        # Visible region: BFS over facet adjacency from f0.
        visible: dict[int, Facet] = {f0.fid: f0}
        stack = [f0]
        while stack:
            t = stack.pop()
            for r in facet_ridges(t.indices):
                for other_id in cx.ridges[r] - {t.fid}:
                    if other_id in visible:
                        continue
                    other = cx.facets[other_id]
                    counters.visibility_tests += 1
                    if other.plane.is_visible(pts[apex]):
                        visible[other_id] = other
                        stack.append(other)
        # Replacement facets on the horizon ridges: a new facet's outside
        # set is drawn from its two parents' outside sets.
        new_facets = [
            factory.make(
                tuple(r | {apex}),
                np.setdiff1d(np.union1d(t1.conflicts, t2.conflicts),
                             np.array([apex], dtype=np.int64)),
            )
            for r, t1, t2 in cx.horizon(visible)
        ]
        cx.replace(visible.values(), new_facets)
        pending.extend(t.fid for t in new_facets if t.conflicts.size)

    return QuickhullResult(
        points=pts,
        order=order,
        facets=cx.alive(),
        counters=counters,
        interior=interior,
    )
