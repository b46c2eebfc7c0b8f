"""Experiment E14: Delaunay triangulation via the lifted parallel hull."""

import contextlib

import numpy as np
import pytest
from scipy.spatial import Delaunay as ScipyDelaunay
from scipy.spatial import QhullError

from repro.apps import delaunay
from repro.geometry import uniform_ball, uniform_cube
from repro.geometry.hyperplane import exact_mode
from repro.hull.common import HullSetupError


class TestCorrectness:
    @pytest.mark.parametrize("n,seed", [(30, 1), (100, 2), (250, 3)])
    def test_matches_scipy(self, n, seed):
        pts = uniform_ball(n, 2, seed=seed)
        res = delaunay(pts, seed=seed + 7)
        scipy_tris = {frozenset(s) for s in ScipyDelaunay(pts).simplices}
        assert res.triangles == scipy_tris

    @pytest.mark.parametrize("n,seed,exact", [
        (80, 4, False), (200, 12, False), (400, 21, False),
        # Every plane takes the scalar ladder, so ladder rows feed the
        # column extraction.
        (60, 5, True),
    ])
    def test_sequential_backend_agrees(self, n, seed, exact):
        pts = uniform_cube(n, 2, seed=seed)
        with exact_mode() if exact else contextlib.nullcontext():
            a = delaunay(pts, seed=1, backend="parallel")
            b = delaunay(pts, seed=1, backend="sequential")
        assert a.triangles == b.triangles

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            delaunay(uniform_ball(10, 2, seed=0), backend="gpu")

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            delaunay(uniform_ball(10, 3, seed=0))

    def test_triangle_count_euler(self):
        """For n points with h on the hull: T = 2n - h - 2."""
        pts = uniform_ball(120, 2, seed=5)
        res = delaunay(pts, seed=2)
        from repro.baselines import monotone_chain

        h = len(monotone_chain(pts))
        assert res.n_triangles == 2 * 120 - h - 2


class TestTinyInputs:
    """Three points lift to too few points to seed a 3D hull, yet their
    triangulation is well defined; fewer, or collinear ones, have none."""

    @pytest.mark.parametrize("backend", ["parallel", "sequential"])
    def test_three_points_match_scipy(self, backend):
        pts = np.array([[0.0, 0.0], [2.0, 0.1], [0.7, 1.3]])
        res = delaunay(pts, seed=0, backend=backend)
        assert res.triangles == {frozenset(s) for s in ScipyDelaunay(pts).simplices}
        assert res.dependence_depth() == 0

    def test_three_points_collinearity_is_exact(self):
        # Off the line by one ulp: a real, if thin, triangle.
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0 + 2.0**-51]])
        assert delaunay(pts).triangles == {frozenset((0, 1, 2))}

    @pytest.mark.parametrize("backend", ["parallel", "sequential"])
    @pytest.mark.parametrize("pts", [
        [[0.0, 0.0]],
        [[0.0, 0.0], [1.0, 1.0]],
        [[0.0, 0.0], [0.1, 0.2], [0.3, 0.6]],     # exactly collinear
    ], ids=["one", "two", "collinear"])
    def test_no_triangle_raises_in_2d_terms(self, pts, backend):
        pts = np.array(pts)
        with pytest.raises(QhullError):
            ScipyDelaunay(pts)
        # Worded for the 2D input, not the lifted 3D one (d+1=4).
        with pytest.raises(HullSetupError, match=r"d\+1=3 points|collinear"):
            delaunay(pts, backend=backend)


class TestStructure:
    def test_edges_shared_by_at_most_two_triangles(self):
        pts = uniform_ball(60, 2, seed=6)
        res = delaunay(pts, seed=3)
        edge_count: dict = {}
        for t in res.triangles:
            tl = sorted(t)
            for e in ((tl[0], tl[1]), (tl[0], tl[2]), (tl[1], tl[2])):
                edge_count[e] = edge_count.get(e, 0) + 1
        assert set(edge_count.values()) <= {1, 2}

    def test_empty_circumcircle_property(self):
        from repro.geometry.predicates import in_circle, orient_exact

        pts = uniform_ball(40, 2, seed=7)
        res = delaunay(pts, seed=4)
        for t in list(res.triangles)[:20]:
            i, j, k = sorted(t)
            a, b, c = pts[i], pts[j], pts[k]
            sign = orient_exact(np.array([a, b]), c)
            for q in range(40):
                if q in t:
                    continue
                assert in_circle(a, b, c, pts[q]) * sign <= 0

    def test_depth_recorded(self):
        pts = uniform_ball(150, 2, seed=8)
        res = delaunay(pts, seed=5)
        depth = res.dependence_depth()
        assert 1 <= depth <= 60

    def test_sequential_backend_has_no_depth(self):
        pts = uniform_ball(30, 2, seed=9)
        res = delaunay(pts, seed=6, backend="sequential")
        with pytest.raises(TypeError):
            res.dependence_depth()

    def test_edge_set(self):
        pts = uniform_ball(25, 2, seed=10)
        res = delaunay(pts, seed=7)
        edges = res.edge_set()
        assert all(len(e) == 2 for e in edges)
        tri_edges = {
            frozenset(e)
            for t in res.triangles
            for e in [list(t)[:2], list(t)[1:], [list(t)[0], list(t)[2]]]
        }
        assert edges == tri_edges
