"""Tests for the shared hull machinery (point preparation, bootstrap
simplex selection, facet factory)."""

import numpy as np
import pytest

from repro.geometry import integer_grid, uniform_ball
from repro.hull.common import (
    Counters,
    FacetFactory,
    HullSetupError,
    initial_simplex_ranks,
    prepare_points,
    promote_initial,
)


class TestPreparePoints:
    def test_random_order_is_permutation(self):
        pts = uniform_ball(30, 2, seed=0)
        out, order = prepare_points(pts, seed=1)
        assert sorted(order.tolist()) == list(range(30))
        assert np.array_equal(out, pts[order])

    def test_seed_determinism(self):
        pts = uniform_ball(30, 2, seed=0)
        _, o1 = prepare_points(pts, seed=5)
        _, o2 = prepare_points(pts, seed=5)
        assert np.array_equal(o1, o2)

    def test_explicit_order_respected(self):
        pts = uniform_ball(10, 2, seed=0)
        order = np.arange(10)[::-1].copy()
        out, o = prepare_points(pts, order=order)
        assert np.array_equal(out[0], pts[9])

    @pytest.mark.parametrize("order", [
        [0.0, 1.9, 2.2, 3.7, 4.0, 5.5],         # floats: used to truncate
        np.arange(6, dtype=np.float64),          # integral, still floats
        ["0", "1", "2", "3", "4", "5"],          # digit strings
        [True, False, True, False, True, False],
        np.arange(6).reshape(2, 3),              # 2-D
        [0, 1, 2, 3, 4, 4],                      # duplicate
        [0, 1, 2, 3, 4, 6],                      # out of range
        [-1, 0, 1, 2, 3, 4],
        [0, 1, 2, 3, 4],                         # too short
    ], ids=["float", "float-integral", "str", "bool", "2d", "duplicate",
            "out-of-range", "negative", "short"])
    @pytest.mark.parametrize("driver", ["soa_hull", "parallel_hull"])
    def test_bad_order_rejected(self, order, driver):
        from repro.hull import parallel_hull, soa_hull
        run = {"soa_hull": soa_hull, "parallel_hull": parallel_hull}[driver]
        pts = uniform_ball(6, 2, seed=0)
        with pytest.raises(HullSetupError, match="order must"):
            run(pts, order=order)

    @pytest.mark.parametrize("order", [
        [5, 4, 3, 2, 1, 0],
        np.arange(6, dtype=np.int32)[::-1],
        np.arange(6, dtype=np.uint16),
    ])
    def test_integer_orders_of_any_width_accepted(self, order):
        pts = uniform_ball(6, 2, seed=0)
        out, o = prepare_points(pts, order=order)
        assert o.dtype == np.int64
        assert np.array_equal(o, np.asarray(order))
        assert np.array_equal(out, pts[np.asarray(order)])


class TestInitialSimplex:
    def test_general_position_takes_prefix(self):
        pts = uniform_ball(20, 3, seed=2)
        assert initial_simplex_ranks(pts) == [0, 1, 2, 3]

    def test_skips_dependent_points(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [0.5, 0], [1, 1]])
        assert initial_simplex_ranks(pts) == [0, 1, 4]

    def test_exact_on_integer_grid(self):
        pts = integer_grid(3, 2, shuffle=False)  # rows (0,0),(0,1),(0,2),...
        ranks = initial_simplex_ranks(pts)
        # (0,0), (0,1) then the first point off the x=0 line: (1,0).
        assert ranks == [0, 1, 3]

    def test_flat_input_raises(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 3, 0]])
        with pytest.raises(HullSetupError):
            initial_simplex_ranks(pts)

    def test_promote_preserves_relative_order(self):
        pts = np.arange(12, dtype=float).reshape(6, 2)
        pts[:, 1] = [0, 0, 1, 0, 2, 5]  # make some structure
        order = np.arange(6)
        ranks = initial_simplex_ranks(pts)
        out, new_order = promote_initial(pts, order, ranks)
        rest = [i for i in range(6) if i not in ranks]
        assert new_order.tolist() == ranks + rest


class TestFacetFactory:
    def test_conflicts_exclude_defining_points(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [2, 2], [-5, -5]])
        factory = FacetFactory(pts, interior=np.array([0.3, 0.3]), counters=Counters())
        f = factory.make((0, 1), np.arange(5, dtype=np.int64))
        assert 0 not in f.conflicts and 1 not in f.conflicts

    def test_conflicts_sorted_ascending(self):
        pts = uniform_ball(30, 2, seed=3)
        interior = pts[:3].mean(axis=0)
        factory = FacetFactory(pts, interior=interior, counters=Counters())
        f = factory.make((0, 1), np.arange(30, dtype=np.int64))
        assert np.array_equal(f.conflicts, np.sort(f.conflicts))

    def test_fids_unique_and_increasing(self):
        pts = uniform_ball(10, 2, seed=4)
        factory = FacetFactory(pts, interior=pts.mean(axis=0), counters=Counters())
        fids = [factory.make((0, i), np.zeros(0, dtype=np.int64)).fid for i in range(1, 5)]
        assert fids == sorted(set(fids))

    def test_counters_track_tests(self):
        pts = uniform_ball(20, 2, seed=5)
        counters = Counters()
        factory = FacetFactory(pts, interior=pts[:3].mean(axis=0), counters=counters)
        factory.make((0, 1), np.arange(20, dtype=np.int64))
        assert counters.visibility_tests == 18  # 20 minus the 2 defining
        assert counters.facets_created == 1

    def test_merge_candidates(self):
        a = np.array([3, 5, 9], dtype=np.int64)
        b = np.array([5, 7, 11], dtype=np.int64)
        merged = FacetFactory.merge_candidates(a, b, above=5)
        assert merged.tolist() == [7, 9, 11]

    def test_merge_empty(self):
        e = np.zeros(0, dtype=np.int64)
        assert FacetFactory.merge_candidates(e, e, above=0).size == 0


class TestCounters:
    def test_as_dict_roundtrip(self):
        c = Counters(visibility_tests=5, facets_created=2)
        d = c.as_dict()
        assert d["visibility_tests"] == 5
        assert d["facets_created"] == 2
        assert set(d) == set(Counters().as_dict())
