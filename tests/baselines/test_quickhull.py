"""Tests for d-dimensional quickhull (experiment E12)."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull as ScipyHull

from repro.baselines import quickhull
from repro.geometry import gaussian, on_sphere, uniform_ball
from repro.hull import facet_sets_global, sequential_hull, validate_hull


class TestCorrectness:
    @pytest.mark.parametrize("d,n", [(2, 150), (3, 120), (4, 60), (5, 30)])
    def test_matches_scipy_vertices(self, d, n):
        pts = uniform_ball(n, d, seed=d * 7 + n)
        res = quickhull(pts)
        validate_hull(res.facets, res.points)
        assert res.vertex_indices() == set(ScipyHull(pts).vertices.tolist())

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_facets_as_incremental(self, d):
        pts = on_sphere(80, d, seed=d)
        qh = quickhull(pts)
        seq = sequential_hull(pts, seed=1)
        assert facet_sets_global(qh.facets, qh.order) == facet_sets_global(
            seq.facets, seq.order
        )

    def test_simplex(self):
        pts = np.vstack([np.zeros(3), np.eye(3)])
        res = quickhull(pts)
        assert len(res.facets) == 4

    def test_gaussian_cloud(self):
        pts = gaussian(300, 2, seed=4)
        res = quickhull(pts)
        validate_hull(res.facets, res.points)


class TestAccounting:
    def test_counts_tests(self):
        pts = uniform_ball(100, 2, seed=5)
        res = quickhull(pts)
        assert res.counters.visibility_tests > 0
        assert res.counters.facets_created >= len(res.facets)

    def test_alive_facets_cover_all_points(self):
        pts = uniform_ball(200, 3, seed=6)
        res = quickhull(pts)
        for f in res.facets:
            assert not f.plane.visible_mask(res.points).any()


class TestProcessingOrder:
    @pytest.mark.parametrize("make,d,n,seed", [
        (uniform_ball, 2, 150, 152), (uniform_ball, 3, 120, 123),
        (uniform_ball, 4, 60, 64),
        # A set-of-fids pending pool took this one out of order.
        (on_sphere, 3, 300, 3),
    ])
    def test_facets_processed_in_ascending_fid_order(self, make, d, n, seed, monkeypatch):
        # Each horizon walk starts from the facet being processed (the
        # first key of its visible region): the queue hands facets out
        # first in, first out, and new fids only grow, so the order is
        # the fid order, whatever the set layout of the interpreter.
        from repro.hull.sequential import FacetComplex

        processed: list[int] = []
        real = FacetComplex.horizon

        def recording(self, visible):
            processed.append(next(iter(visible)))
            return real(self, visible)

        monkeypatch.setattr(FacetComplex, "horizon", recording)
        pts = make(n, d, seed=seed)
        res = quickhull(pts)
        assert len(processed) > 1
        assert processed == sorted(set(processed))
        assert res.vertex_indices() == set(ScipyHull(pts).vertices.tolist())
