"""Intersection of half-planes (Section 7), two ways.

1. **By duality through the hull** (:func:`halfplane_intersection`):
   a half-plane ``a.x <= b`` with ``b > 0`` dualises to the point
   ``a/b``; vertices of the intersection polygon correspond exactly to
   edges of the dual point hull.  Running the parallel incremental hull
   on the dual points gives a parallel half-plane intersection with the
   paper's O(log n) dependence depth for free.

2. **Directly** (:func:`incremental_halfplanes`): the randomized
   incremental algorithm on the polygon itself, instrumented with the
   support structure the paper describes -- each new vertex created by
   half-plane ``x`` is supported by the (up to two) old vertices on the
   edges that ``x`` cuts.  This produces a measured dependence depth for
   experiment E8 that is independent of the hull code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..configspace.depgraph import DependenceGraph
from ..hull.soa import soa_hull

__all__ = [
    "Halfspace3DResult",
    "halfspace_intersection_3d",
    "HalfplaneResult",
    "halfplane_intersection",
    "IncrementalHalfplaneResult",
    "incremental_halfplanes",
]


def _check_inputs(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    normals = np.asarray(normals, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if normals.ndim != 2 or normals.shape[1] != 2:
        raise ValueError("normals must be (n, 2)")
    if offsets.shape != (normals.shape[0],):
        raise ValueError("offsets must be (n,)")
    if not (offsets > 0).all():
        raise ValueError("every half-plane must strictly contain the origin (b > 0)")
    return normals, offsets


@dataclass
class HalfplaneResult:
    """Intersection polygon from the dual-hull computation."""

    normals: np.ndarray
    offsets: np.ndarray
    vertex_pairs: list[tuple[int, int]]   # defining half-plane pairs, CCW order
    vertices: np.ndarray                  # (m, 2) vertex coordinates
    hull_run: object

    def dependence_depth(self) -> int:
        return self.hull_run.dependence_depth()

    def contains(self, q, tol: float = 1e-9) -> bool:
        q = np.asarray(q, dtype=np.float64)
        return bool((self.normals @ q <= self.offsets + tol).all())


def halfplane_intersection(
    normals: np.ndarray,
    offsets: np.ndarray,
    seed: int | None = None,
    order: np.ndarray | None = None,
) -> HalfplaneResult:
    """Bounded intersection of half-planes by point/plane duality.

    Every input must be non-redundant-safe: redundant half-planes are
    fine (they dualise to interior points); an unbounded intersection
    raises (its dual hull would not contain the origin-dual structure
    we rely on -- detected via a hull vertex winding check).
    """
    normals, offsets = _check_inputs(normals, offsets)
    dual = normals / offsets[:, None]
    run = soa_hull(dual, seed=seed, order=order)
    # Hull edges (facets in 2D) -> polygon vertices.  Order them CCW by
    # walking facet adjacency.
    edges = {tuple(sorted(f.indices)): f for f in run.facets}
    adjacency: dict[int, list[int]] = {}
    for (i, j) in edges:
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)
    if any(len(v) != 2 for v in adjacency.values()):
        raise ValueError("dual hull is degenerate; cannot order the polygon")
    # The dual hull must strictly contain the origin or the primal
    # intersection is unbounded.
    for f in run.facets:
        if f.plane.side(np.zeros(2)) >= 0:
            raise ValueError("unbounded intersection: origin not interior to dual hull")
    start = min(adjacency)
    cycle = [start, adjacency[start][0]]
    while True:
        nxt = [v for v in adjacency[cycle[-1]] if v != cycle[-2]][0]
        if nxt == start:
            break
        cycle.append(nxt)
    pairs = []
    verts = []
    m = len(cycle)
    for t in range(m):
        i, j = cycle[t], cycle[(t + 1) % m]
        oi, oj = int(run.order[i]), int(run.order[j])
        a = np.array([normals[oi], normals[oj]])
        b = np.array([offsets[oi], offsets[oj]])
        verts.append(np.linalg.solve(a, b))
        pairs.append((oi, oj))
    return HalfplaneResult(
        normals=normals,
        offsets=offsets,
        vertex_pairs=pairs,
        vertices=np.array(verts),
        hull_run=run,
    )


@dataclass
class IncrementalHalfplaneResult:
    """Polygon plus dependence structure from the direct incremental
    algorithm."""

    normals: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    vertex_pairs: list[tuple[int, int]]
    vertices: np.ndarray
    graph: DependenceGraph
    cut_counts: list[int] = field(default_factory=list)

    def dependence_depth(self) -> int:
        return self.graph.depth()


def incremental_halfplanes(
    normals: np.ndarray,
    offsets: np.ndarray,
    seed: int | None = None,
    order: np.ndarray | None = None,
) -> IncrementalHalfplaneResult:
    """Randomized incremental half-plane intersection with support-set
    dependence tracking.

    Bootstraps from a large axis-aligned bounding box (four synthetic
    half-planes with negative ids), the standard way to sidestep the
    unbounded-prefix boundary cases the paper notes can be handled with
    direction-tagged configurations.  Each insertion clips the current
    CCW polygon; the two vertices created by half-plane ``x`` are
    supported by the old vertices of the edges that ``x`` cuts (the
    paper's 2-support structure for this space).  Box-supported corners
    are the roots of the dependence graph.  Raises ``ValueError`` if
    the true intersection is unbounded (it still touches the box).
    """
    normals, offsets = _check_inputs(normals, offsets)
    n = normals.shape[0]
    if order is None:
        order = np.random.default_rng(seed).permutation(n)
    else:
        order = np.asarray(order, dtype=np.int64)
    if n < 3:
        raise ValueError("need at least 3 half-planes")

    box_r = 1e8 * float(offsets.max() / np.linalg.norm(normals, axis=1).min())
    box_normals = {-1: np.array([1.0, 0.0]), -2: np.array([0.0, 1.0]),
                   -3: np.array([-1.0, 0.0]), -4: np.array([0.0, -1.0])}

    def normal_of(i: int) -> np.ndarray:
        return box_normals[i] if i < 0 else normals[i]

    def offset_of(i: int) -> float:
        return box_r if i < 0 else float(offsets[i])

    def vertex_of(i: int, j: int) -> np.ndarray:
        a = np.array([normal_of(i), normal_of(j)])
        b = np.array([offset_of(i), offset_of(j)])
        return np.linalg.solve(a, b)

    def violated(v: np.ndarray, h: int) -> bool:
        return float(normal_of(h) @ v) > offset_of(h)

    # Initial polygon: the box corners, CCW.
    box_cycle = [-1, -2, -3, -4]
    poly: list[tuple[tuple[int, int], np.ndarray]] = []
    for t in range(4):
        i, j = box_cycle[t], box_cycle[(t + 1) % 4]
        poly.append((tuple(sorted((i, j))), vertex_of(i, j)))

    graph = DependenceGraph()
    for pair, _v in poly:
        graph.order.append(pair)
        graph.added_at[pair] = 0
    cut_counts: list[int] = []

    for step in range(n):
        h = int(order[step])
        keep = [not violated(v, h) for _pair, v in poly]
        if all(keep):
            cut_counts.append(0)
            continue
        if not any(keep):
            raise ValueError("intersection became empty (inconsistent half-planes)")
        m = len(poly)
        # The violated vertices form one contiguous arc (convex polygon
        # cut by a line); find its boundary edges.
        new_poly: list[tuple[tuple[int, int], np.ndarray]] = []
        removed = sum(1 for kflag in keep if not kflag)
        cut_counts.append(removed)
        for t in range(m):
            t_next = (t + 1) % m
            if keep[t]:
                new_poly.append(poly[t])
            if keep[t] != keep[t_next]:
                # Edge (t, t+1) crosses the new boundary line.  The edge
                # lies on the half-plane shared by the two vertex pairs.
                shared = set(poly[t][0]) & set(poly[t_next][0])
                if len(shared) != 1:
                    raise ValueError("degenerate cut: adjacent vertices share no line")
                (g,) = shared
                pair = tuple(sorted((g, h)))
                v = vertex_of(g, h)
                new_poly.append((pair, v))
                # Supported by the two old endpoints of the cut edge.
                graph.order.append(pair)
                graph.added_at[pair] = step + 1
                graph.parents[pair] = (poly[t][0], poly[t_next][0])
        poly = new_poly

    if any(i < 0 for pair, _v in poly for i in pair):
        raise ValueError("unbounded intersection: final polygon touches the bounding box")
    return IncrementalHalfplaneResult(
        normals=normals,
        offsets=offsets,
        order=order,
        vertex_pairs=[p for p, _v in poly],
        vertices=np.array([v for _p, v in poly]),
        graph=graph,
        cut_counts=cut_counts,
    )


@dataclass
class Halfspace3DResult:
    """Bounded intersection of 3D half-spaces from the dual hull."""

    normals: np.ndarray
    offsets: np.ndarray
    vertex_triples: list[tuple[int, int, int]]   # defining half-space triples
    vertices: np.ndarray                         # (m, 3) coordinates
    hull_run: object

    def dependence_depth(self) -> int:
        return self.hull_run.dependence_depth()

    def contains(self, q, tol: float = 1e-9) -> bool:
        q = np.asarray(q, dtype=np.float64)
        return bool((self.normals @ q <= self.offsets + tol).all())


def halfspace_intersection_3d(
    normals: np.ndarray,
    offsets: np.ndarray,
    seed: int | None = None,
    order: np.ndarray | None = None,
) -> Halfspace3DResult:
    """Bounded intersection of 3D half-spaces ``a_i . x <= b_i`` (all
    with ``b_i > 0``) by duality: facets of the hull of the dual points
    ``a_i / b_i`` correspond exactly to the vertices of the primal
    intersection (each defined by three half-space boundaries).

    This is the d-dimensional half-space story of Section 7 made
    concrete for d = 3 on top of the parallel hull.
    """
    normals = np.asarray(normals, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if normals.ndim != 2 or normals.shape[1] != 3:
        raise ValueError("normals must be (n, 3)")
    if offsets.shape != (normals.shape[0],):
        raise ValueError("offsets must be (n,)")
    if not (offsets > 0).all():
        raise ValueError("every half-space must strictly contain the origin (b > 0)")
    dual = normals / offsets[:, None]
    run = soa_hull(dual, seed=seed, order=order)
    for f in run.facets:
        if f.plane.side(np.zeros(3)) >= 0:
            raise ValueError("unbounded intersection: origin not interior to dual hull")
    triples: list[tuple[int, int, int]] = []
    verts: list[np.ndarray] = []
    for f in run.facets:
        tri = tuple(sorted(int(run.order[i]) for i in f.indices))
        a = normals[list(tri)]
        b = offsets[list(tri)]
        verts.append(np.linalg.solve(a, b))
        triples.append(tri)
    return Halfspace3DResult(
        normals=normals,
        offsets=offsets,
        vertex_triples=triples,
        vertices=np.array(verts),
        hull_run=run,
    )
