"""Algorithm 2: the sequential randomized incremental convex hull.

The classic Clarkson--Shor conflict-graph formulation: points are added
in a (random) insertion order; each insertion deletes the facets its
point is visible from and stitches a new facet onto every horizon ridge.
Expected work is ``O(n^{floor(d/2)} + n log n)`` for points in general
position.

This implementation is fully instrumented: it records the multiset of
facets ever created, the per-step conflict structure, and the visibility
-test count -- the quantities Theorems 3.1 and 5.4 are stated in, and the
reference the parallel algorithm (Algorithm 3) is checked against
facet-for-facet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.noisy import NoisyKernel
from ..geometry.simplex import Facet, Ridge, facet_ridges
from .common import (
    Counters,
    FacetFactory,
    initial_simplex_ranks,
    prepare_points,
    promote_initial,
)

__all__ = ["SequentialHullResult", "sequential_hull"]


@dataclass
class SequentialHullResult:
    """Outcome of a sequential incremental hull run.

    ``facets`` are the alive hull facets; indices inside facets are
    *ranks* (insertion positions); ``order`` maps ranks back to the
    caller's point indices.  ``created`` is every facet ever created, in
    creation order, for cross-checking against the parallel algorithm.
    """

    points: np.ndarray          # points in insertion order
    order: np.ndarray           # order[rank] -> original index
    facets: list[Facet]
    created: list[Facet]
    creation_step: dict[int, int]   # facet id -> insertion step that made it
    counters: Counters
    interior: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def vertex_ranks(self) -> set[int]:
        return {i for f in self.facets for i in f.indices}

    def vertex_indices(self) -> set[int]:
        """Hull vertices as original (caller-side) point indices."""
        return {int(self.order[i]) for i in self.vertex_ranks()}

    def facet_keys(self) -> set:
        """Geometric identities of the alive facets (order-independent)."""
        return {f.key() for f in self.facets}

    def created_keys(self) -> set:
        return {f.key() for f in self.created}


def sequential_hull(
    points: np.ndarray,
    order: np.ndarray | None = None,
    seed: int | None = None,
    kernel: NoisyKernel | None = None,
) -> SequentialHullResult:
    """Run Algorithm 2 on ``points``: the per-insertion object driver,
    one :meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask` call
    per facet -- the differential oracle the parallel engines are
    checked against.

    Parameters
    ----------
    points:
        ``(n, d)`` array, general position assumed (degenerate ties are
        resolved exactly; exactly-degenerate *hull* structure raises).
    order:
        Explicit insertion order (a permutation of ``range(n)``); random
        when omitted, drawn from ``seed``.
    kernel:
        ``None`` or a :class:`~repro.geometry.noisy.NoisyKernel`, which
        perturbs the engine's visibility answers at a seeded flip rate
        (see :mod:`repro.geometry.noisy`); anything else raises
        ``ValueError``.
    """
    pts, order = prepare_points(points, order, seed)
    n, d = pts.shape
    init = initial_simplex_ranks(pts)
    pts, order = promote_initial(pts, order, init)

    counters = Counters()
    interior = pts[: d + 1].mean(axis=0)
    factory = FacetFactory(pts, interior, counters, kernel=kernel)

    facets: dict[int, Facet] = {}
    # ridge -> set of alive facet ids incident on it (always size 2 once
    # the hull is complete)
    ridge_map: dict[Ridge, set[int]] = {}
    # C^{-1}: rank -> set of alive facet ids whose conflict set holds it
    inverse: dict[int, set[int]] = {}
    created: list[Facet] = []
    creation_step: dict[int, int] = {}

    all_later = np.arange(d + 1, n, dtype=np.int64)

    def install(f: Facet, step: int) -> None:
        facets[f.fid] = f
        created.append(f)
        creation_step[f.fid] = step
        for r in facet_ridges(f.indices):
            ridge_map.setdefault(r, set()).add(f.fid)
        for v in f.conflicts:
            inverse.setdefault(int(v), set()).add(f.fid)

    def uninstall(f: Facet) -> None:
        f.alive = False
        del facets[f.fid]
        for r in facet_ridges(f.indices):
            s = ridge_map.get(r)
            if s is not None:
                s.discard(f.fid)
                if not s:
                    del ridge_map[r]
        for v in f.conflicts:
            s = inverse.get(int(v))
            if s is not None:
                s.discard(f.fid)
                if not s:
                    del inverse[int(v)]

    # Bootstrap simplex: every d-subset of the first d+1 points is a
    # facet.
    first = list(range(d + 1))
    boot = factory.make_batch([
        (tuple(i for i in first if i != leave_out), all_later)
        for leave_out in first
    ])
    for f in boot:
        install(f, step=d)

    # Incremental insertion.
    for v in range(d + 1, n):
        visible_ids = inverse.get(v)
        if not visible_ids:
            continue  # v is inside the current hull
        visible = {fid: facets[fid] for fid in visible_ids}
        # Horizon: ridges with exactly one incident facet visible from v;
        # the whole insertion step's new facets are made in one
        # make_batch call (the facet x candidate block of Theorem 5.4's
        # per-step work).
        specs: list[tuple[tuple[int, ...], np.ndarray]] = []
        for fid, t1 in visible.items():
            for r in facet_ridges(t1.indices):
                others = ridge_map[r] - {fid}
                if not others:
                    continue
                (other_id,) = others
                if other_id in visible:
                    continue  # interior ridge of the visible region
                t2 = facets[other_id]
                candidates = FacetFactory.merge_candidates(
                    t1.conflicts, t2.conflicts, above=v
                )
                specs.append((tuple(r | {v}), candidates))
        new_facets: list[Facet] = factory.make_batch(specs) if specs else []
        for t1 in visible.values():
            uninstall(t1)
        for t in new_facets:
            install(t, step=v)

    return SequentialHullResult(
        points=pts,
        order=order,
        facets=sorted(facets.values(), key=lambda f: f.fid),
        created=created,
        creation_step=creation_step,
        counters=counters,
        interior=interior,
    )
