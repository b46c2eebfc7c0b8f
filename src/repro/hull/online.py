"""Online convex hull maintenance: add points one at a time.

The batch algorithms (Algorithms 2/3) pre-compute conflict sets because
they know all points up front; a *stream* of points doesn't allow that.
This builder maintains the hull under arbitrary insertions by locating
the visible region directly (testing the current facets -- O(h) per
insertion, the textbook online variant) and stitching the horizon
through the batch drivers' own ridge complex,
:class:`~repro.hull.sequential.FacetComplex`, with no conflict sets.

It exists for downstream users who want the library as a data structure
rather than a one-shot solver; the batch algorithms remain the
reproduction's subject.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..geometry.hyperplane import Hyperplane
from ..geometry.simplex import Facet
from .common import HullSetupError, _affinely_independent
from .sequential import FacetComplex

__all__ = ["OnlineHull"]


class OnlineHull:
    """Incrementally maintained convex hull in any constant dimension.

    Points are added with :meth:`add`; until d+1 affinely independent
    points have arrived the builder buffers them (``is_full_dimensional``
    is False and there are no facets yet).
    """

    def __init__(self, dimension: int):
        if dimension < 2:
            raise HullSetupError("dimension must be >= 2")
        self.dimension = dimension
        self._points: list[np.ndarray] = []
        self._buffer: list[int] = []          # indices not yet in any hull
        self._interior: np.ndarray | None = None
        self._cx = FacetComplex()
        self._fid = itertools.count()
        self.inserted = 0
        self.interior_points = 0

    # -- public surface ---------------------------------------------------

    @property
    def is_full_dimensional(self) -> bool:
        return self._interior is not None

    @property
    def facets(self) -> list[Facet]:
        return self._cx.alive()

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self._points, dtype=np.float64)

    def vertex_indices(self) -> set[int]:
        return {i for f in self._cx.facets.values() for i in f.indices}

    def add(self, point) -> str:
        """Insert one point.  Returns what happened: ``"buffered"``
        (hull not yet full-dimensional), ``"interior"`` (inside the
        current hull), or ``"extreme"`` (the hull grew)."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dimension,):
            raise HullSetupError(f"expected a point of dimension {self.dimension}")
        if not np.isfinite(point).all():
            raise HullSetupError("point must be finite")
        idx = len(self._points)
        self._points.append(point)
        self.inserted += 1
        if self._interior is None:
            self._buffer.append(idx)
            if self._try_bootstrap():
                return "extreme"
            return "buffered"
        return self._insert(idx)

    def extend(self, points) -> list[str]:
        return [self.add(p) for p in np.asarray(points, dtype=np.float64)]

    def contains(self, q, strict: bool = False) -> bool:
        """Membership test against the current hull (requires full
        dimensionality)."""
        if self._interior is None:
            raise HullSetupError("hull is not full-dimensional yet")
        sides = [f.plane.side(q) for f in self._cx.facets.values()]
        return all(s < 0 for s in sides) if strict else all(s <= 0 for s in sides)

    # -- internals ---------------------------------------------------------

    def _try_bootstrap(self) -> bool:
        """Once the buffer spans d dimensions, build the first simplex
        hull and flush the remaining buffered points through ``_insert``."""
        d = self.dimension
        chosen: list[int] = []
        chosen_pts: list[np.ndarray] = []
        for i in self._buffer:
            if _affinely_independent(chosen_pts, self._points[i]):
                chosen.append(i)
                chosen_pts.append(self._points[i])
                if len(chosen) == d + 1:
                    break
        if len(chosen) < d + 1:
            return False
        self._interior = np.mean(chosen_pts, axis=0)
        self._cx.replace((), [
            self._make(tuple(i for i in chosen if i != leave_out))
            for leave_out in chosen
        ])
        rest = [i for i in self._buffer if i not in set(chosen)]
        self._buffer = []
        for i in rest:
            self._insert(i)
        return True

    def _make(self, indices: tuple[int, ...]) -> Facet:
        plane = Hyperplane.through(self.points[list(indices)], self._interior)
        return Facet(
            fid=next(self._fid),
            indices=tuple(sorted(indices)),
            plane=plane,
            conflicts=np.zeros(0, dtype=np.int64),
        )

    def _insert(self, idx: int) -> str:
        q = self._points[idx]
        visible = {
            fid: f for fid, f in self._cx.facets.items() if f.plane.is_visible(q)
        }
        if not visible:
            self.interior_points += 1
            return "interior"
        self._cx.replace(visible.values(), [
            self._make(tuple(r | {idx})) for r, _, _ in self._cx.horizon(visible)
        ])
        return "extreme"
