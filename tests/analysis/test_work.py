"""Experiments E2/E6/E13 (analysis side): work accounting, the
Clarkson--Shor bound, and simulated speedups."""

import numpy as np
import pytest

from repro.analysis import compare_work, speedup_table, work_scaling
from repro.configspace.theory import clarkson_shor_conflict_bound, harmonic
from repro.geometry import on_sphere, uniform_ball
from repro.hull import parallel_hull, sequential_hull


class TestCompareWork:
    def test_row_fields(self):
        pts = uniform_ball(100, 2, seed=1)
        row = compare_work(pts, seed=2).row()
        assert row["same_facets"] and row["same_created"]
        assert 0 < row["ratio"] <= 1.0
        assert row["n"] == 100 and row["d"] == 2


class TestWorkScaling:
    def test_nlogn_shape_2d(self):
        """Theorem 5.4 for d=2: visibility tests / (n log n) stays flat."""
        rows = work_scaling([128, 256, 512, 1024], 2, uniform_ball, seed=3)
        ratios = [r["tests_per_nlogn"] for r in rows]
        assert max(ratios) / min(ratios) < 2.0

    def test_nlogn_shape_3d_sphere(self):
        rows = work_scaling([128, 256, 512], 3, on_sphere, seed=4)
        ratios = [r["tests_per_nlogn"] for r in rows]
        assert max(ratios) / min(ratios) < 2.5


class TestClarksonShor:
    def test_measured_conflicts_below_bound_2d(self):
        """Theorem 3.1: total conflict size of the construction is below
        the analytic bound with t_i <= 2i (hull size bound in 2D counts
        both orientations' facets as <= i each... facets of an i-point
        2D hull <= i)."""
        n = 300
        pts = uniform_ball(n, 2, seed=5)
        seq = sequential_hull(pts, seed=6)
        total_conflicts = sum(len(f.conflicts) for f in seq.created)
        bound = clarkson_shor_conflict_bound([float(i) for i in range(1, n + 1)], g=2)
        assert total_conflicts <= bound

    def test_visibility_tests_order_nlogn(self):
        n = 1000
        pts = uniform_ball(n, 2, seed=7)
        seq = sequential_hull(pts, seed=8)
        assert seq.counters.visibility_tests <= 30 * n * harmonic(n)


class TestSpeedup:
    @pytest.fixture(scope="class")
    def run(self):
        # The schedules run on the object driver's per-task DAG.
        pts = on_sphere(400, 2, seed=9)
        return parallel_hull(pts, seed=10, engine="objects")

    def test_speedup_table(self, run):
        rows = speedup_table(run, [1, 2, 4, 8, 16])
        speedups = [r["speedup"] for r in rows]
        assert speedups[0] == pytest.approx(1.0)
        # Monotone non-decreasing and eventually well above 1.
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] > 3.0

    def test_brent_bound_respected(self, run):
        for row in speedup_table(run, [2, 8, 32]):
            assert row["T_P"] <= row["brent_T_P"] + 1

    def test_parallelism_grows_with_n(self):
        pars = []
        for n in (100, 400):
            pts = on_sphere(n, 2, seed=n)
            r = parallel_hull(pts, seed=1, engine="objects")
            pars.append(r.tracker.parallelism)
        assert pars[1] > pars[0]
