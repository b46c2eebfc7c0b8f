"""2D Delaunay triangulation through the paper's hull machinery.

The classic lifting argument: mapping ``(x, y)`` to ``(x, y, x^2+y^2)``
turns empty-circumcircle triangles into downward-facing facets of the 3D
convex hull.  Running the *parallel* incremental hull on the lifted
points therefore yields a parallel incremental Delaunay algorithm whose
dependence depth inherits the O(log n) bound of Theorem 1.1 -- the
connection the paper draws to the earlier Delaunay results [17, 18].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..configspace.spaces.delaunay2d import lift_to_paraboloid
from ..geometry.predicates import orient_exact
from ..hull.common import HullSetupError, prepare_points
from ..hull.sequential import sequential_hull
from ..hull.soa import SoAHullRun, soa_hull

__all__ = ["DelaunayResult", "delaunay"]


@dataclass
class DelaunayResult:
    """Triangulation plus the hull run it was extracted from."""

    points: np.ndarray               # the caller's 2D points
    triangles: set[frozenset]        # triples of original point indices
    # SoAHullRun (parallel backend) or SequentialHullResult; None for
    # a lone triangle, which needs no hull run.
    hull_run: object

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def dependence_depth(self) -> int:
        """Dependence depth of the lifted hull construction (only for
        the parallel backend; 0 for a lone triangle, which depends on
        nothing)."""
        if isinstance(self.hull_run, SoAHullRun):
            return self.hull_run.dependence_depth()
        if self.hull_run is None:
            return 0
        raise TypeError("depth is only recorded by the parallel backend")

    def edge_set(self) -> set[frozenset]:
        return {
            frozenset(e)
            for t in self.triangles
            for e in (
                tuple(sorted(t))[:2],
                tuple(sorted(t))[1:],
                (tuple(sorted(t))[0], tuple(sorted(t))[2]),
            )
        }


def delaunay(
    points: np.ndarray,
    seed: int | None = None,
    order: np.ndarray | None = None,
    backend: str = "parallel",
) -> DelaunayResult:
    """Delaunay triangulation of 2D ``points`` by lifted incremental
    hull (general position: no 3 collinear / 4 cocircular).

    ``backend`` is ``"parallel"`` (Algorithm 3 on the lifted points, run
    by the conflict-list SoA engine, recording dependence structure) or
    ``"sequential"`` (Algorithm 2, the per-facet oracle).  Fewer than 3
    points, or 3 collinear ones, raise :class:`HullSetupError`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("delaunay expects an (n, 2) array")
    if backend not in ("parallel", "sequential"):
        raise ValueError(f"unknown backend {backend!r}")
    if points.shape[0] <= 3:
        # Three lifted points cannot seed a 3D hull, yet their
        # triangulation is well defined: the triangle itself, unless the
        # points are collinear (decided exactly).  Validating the 2D
        # input keeps the lifted dimension out of every error.
        prepare_points(points, order, seed)
        if orient_exact(points[:2], points[2]) == 0:
            raise HullSetupError("3 collinear points have no triangle")
        return DelaunayResult(
            points=points, triangles={frozenset(range(3))}, hull_run=None
        )
    lifted = lift_to_paraboloid(points)
    # Lower facets (outward normal pointing down) are the Delaunay
    # triangles; the plane normal already points outward.
    if backend == "parallel":
        run = soa_hull(lifted, order=order, seed=seed)
        # The oracle's test, read off the facet columns: a stored normal
        # is bit-identical to the Hyperplane.through normal (batch_planes
        # is pinned bit-compatible, and rows that took the scalar ladder
        # store the ladder plane's normal).
        lower = run.created_alive & (run.created_normals[:, 2] < 0)
        triangles = set(map(frozenset, run.order[run.created_indices[lower]].tolist()))
    else:
        run = sequential_hull(lifted, order=order, seed=seed)
        triangles = {
            frozenset(int(run.order[i]) for i in f.indices)
            for f in run.facets
            if f.plane.normal[2] < 0
        }
    return DelaunayResult(points=points, triangles=triangles, hull_run=run)
