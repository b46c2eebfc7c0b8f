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

The module also holds the facet bookkeeping every object driver
shares, so a rule fixed here is fixed in the oracle every differential
suite trusts: :class:`FacetComplex` (the alive facets, each ridge's
incident facets, install/uninstall and the horizon walk), used by
:class:`~repro.hull.online.OnlineHull` and
:func:`~repro.baselines.quickhull.quickhull`; :class:`ConflictComplex`,
which adds the conflict inverse C^{-1} for this driver and
:func:`~repro.hull.point_parallel.point_parallel_hull`;
:func:`bootstrap_faces`, the bootstrap facets of every rank-ordered
driver and of the SoA engine; and :class:`HullQueries`, the object
results' vertex and key queries.  The hot-path analyzer exempts this
module as an oracle, which is why the per-facet loops live here and not
in :mod:`repro.hull.common`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..geometry.noisy import NoisyKernel
from ..geometry.simplex import Facet, Ridge, facet_ridges
from .common import Counters, FacetFactory, setup_run

__all__ = [
    "ConflictComplex",
    "FacetComplex",
    "HullQueries",
    "SequentialHullResult",
    "bootstrap_faces",
    "sequential_hull",
]


class FacetComplex:
    """The alive facets of an incremental hull and, for each ridge, the
    ids of the alive facets incident on it (two once the hull is
    closed).

    One complex serves every object driver that inserts a point by
    replacing its visible region: the driver finds the visible facets
    its own way, :meth:`horizon` pairs the region's boundary ridges
    with the facets on either side, and :meth:`replace` swaps the
    region for the new facets.
    """

    def __init__(self) -> None:
        self.facets: dict[int, Facet] = {}
        self.ridges: dict[Ridge, set[int]] = {}

    def install(self, f: Facet) -> None:
        self.facets[f.fid] = f
        for r in facet_ridges(f.indices):
            self.ridges.setdefault(r, set()).add(f.fid)

    def uninstall(self, f: Facet) -> None:
        f.alive = False
        del self.facets[f.fid]
        for r in facet_ridges(f.indices):
            s = self.ridges[r]
            s.discard(f.fid)
            if not s:
                del self.ridges[r]

    def horizon(self, visible: dict[int, Facet]) -> list[tuple[Ridge, Facet, Facet]]:
        """The boundary of the visible region ``visible`` (fid -> facet):
        one ``(ridge, t1, t2)`` per ridge whose facet ``t1`` is visible
        and whose other facet ``t2`` is not, in ``visible``'s order."""
        out: list[tuple[Ridge, Facet, Facet]] = []
        for fid, t1 in visible.items():
            for r in facet_ridges(t1.indices):
                others = self.ridges[r] - {fid}
                if not others:
                    continue
                (other_id,) = others
                if other_id not in visible:
                    out.append((r, t1, self.facets[other_id]))
        return out

    def replace(self, old: Iterable[Facet], new: Iterable[Facet]) -> None:
        """Uninstall the facets of ``old``, then install ``new``."""
        for t in old:
            self.uninstall(t)
        for t in new:
            self.install(t)

    def alive(self) -> list[Facet]:
        """The alive facets, by fid."""
        return sorted(self.facets.values(), key=lambda f: f.fid)


class ConflictComplex(FacetComplex):
    """A :class:`FacetComplex` that also keeps the conflict inverse
    C^{-1}: rank -> ids of the alive facets whose conflict set holds
    it, so a rank's visible region is one lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.inverse: dict[int, set[int]] = {}

    def install(self, f: Facet) -> None:
        super().install(f)
        for v in f.conflicts:
            self.inverse.setdefault(int(v), set()).add(f.fid)

    def uninstall(self, f: Facet) -> None:
        super().uninstall(f)
        for v in f.conflicts:
            s = self.inverse[int(v)]
            s.discard(f.fid)
            if not s:
                del self.inverse[int(v)]

    def visible(self, v: int) -> dict[int, Facet]:
        """The alive facets rank ``v`` conflicts with, by fid (empty
        when ``v`` is inside the current hull)."""
        return {fid: self.facets[fid] for fid in self.inverse.get(v, ())}


def bootstrap_faces(pts: np.ndarray, base_size: int) -> list[tuple[int, ...]]:
    """Defining ranks of the bootstrap hull's facets.

    For ``base_size == d + 1`` these are the simplex's leave-one-out
    faces, leaving out rank ``0``, ``1``, ..., ``d`` in turn.  A larger
    bootstrap (e.g. the Figure 1 walkthrough) is the hull of the first
    ``base_size`` ranks: the facets, by fid, of a sequential run on that
    prefix in rank order (its counters are discarded).
    """
    d = pts.shape[1]
    if base_size == d + 1:
        first = range(d + 1)
        return [tuple(i for i in first if i != leave_out) for leave_out in first]
    prefix = sequential_hull(pts[:base_size], order=np.arange(base_size))
    return [f.indices for f in prefix.facets]


class HullQueries:
    """Queries on a finished object-driver run: ``points`` (insertion
    order), ``order`` (rank -> caller's index) and the alive ``facets``,
    whose indices are ranks."""

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


@dataclass
class SequentialHullResult(HullQueries):
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
    pts, order, _, interior = setup_run(points, order, seed)
    n, d = pts.shape
    counters = Counters()
    factory = FacetFactory(pts, interior, counters, kernel=kernel)
    cx = ConflictComplex()
    created: list[Facet] = []
    creation_step: dict[int, int] = {}

    def commit(step: int, visible: Iterable[Facet], new: list[Facet]) -> None:
        cx.replace(visible, new)
        created.extend(new)
        creation_step.update((f.fid, step) for f in new)

    all_later = np.arange(d + 1, n, dtype=np.int64)
    commit(d, (), factory.make_batch(
        [(idx, all_later) for idx in bootstrap_faces(pts, d + 1)]))

    # Incremental insertion: the candidates of a new facet on horizon
    # ridge r are the later points of its two parents' conflict sets,
    # and the whole step's new facets are made in one make_batch call
    # (the facet x candidate block of Theorem 5.4's per-step work).
    for v in range(d + 1, n):
        visible = cx.visible(v)
        if not visible:
            continue  # v is inside the current hull
        specs = [
            (tuple(r | {v}),
             FacetFactory.merge_candidates(t1.conflicts, t2.conflicts, above=v))
            for r, t1, t2 in cx.horizon(visible)
        ]
        commit(v, visible.values(), factory.make_batch(specs) if specs else [])

    return SequentialHullResult(
        points=pts,
        order=order,
        facets=cx.alive(),
        created=created,
        creation_step=creation_step,
        counters=counters,
        interior=interior,
    )
