"""Tests for the work-stealing simulator against the classic
binary-forking bounds (Theorem 5.5's execution model)."""

import numpy as np
import pytest

from repro.geometry import on_sphere, uniform_ball
from repro.hull import parallel_hull
from repro.runtime import WorkSpanTracker
from repro.runtime.forkjoin import simulate_work_stealing


def chain_tracker(n, cost=3):
    t = WorkSpanTracker()
    prev = ()
    for _ in range(n):
        tid = t.add_task(cost, deps=prev)
        prev = (tid,)
    return t


def wide_tracker(n, cost=3):
    t = WorkSpanTracker()
    for _ in range(n):
        t.add_task(cost)
    return t


class TestBasics:
    def test_empty(self):
        stats = simulate_work_stealing(WorkSpanTracker(), 4)
        assert stats.makespan == 0 and stats.steals == 0

    def test_single_processor_executes_all_work(self):
        t = wide_tracker(20)
        stats = simulate_work_stealing(t, 1)
        assert stats.busy == t.work
        assert stats.makespan == t.work
        assert stats.steals == 0

    def test_processor_validation(self):
        with pytest.raises(ValueError):
            simulate_work_stealing(wide_tracker(3), 0)

    def test_chain_gains_nothing_from_parallelism(self):
        t = chain_tracker(30)
        s1 = simulate_work_stealing(t, 1)
        s8 = simulate_work_stealing(t, 8)
        assert s8.makespan >= s1.makespan  # pure chain: no speedup
        assert s8.busy == t.work

    def test_wide_dag_scales(self):
        t = wide_tracker(64, cost=5)
        s1 = simulate_work_stealing(t, 1)
        s8 = simulate_work_stealing(t, 8, seed=1)
        assert s8.makespan < s1.makespan / 4  # near-linear on independent work

    def test_deterministic_given_seed(self):
        t = wide_tracker(40)
        a = simulate_work_stealing(t, 4, seed=9)
        b = simulate_work_stealing(t, 4, seed=9)
        assert (a.makespan, a.steals) == (b.makespan, b.steals)


class TestClassicBounds:
    @pytest.fixture(scope="class")
    def hull_tracker(self):
        # Work stealing runs on the object driver's per-task DAG.
        run = parallel_hull(on_sphere(800, 2, seed=6), seed=7, engine="objects")
        return run.tracker

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_makespan_within_ws_bound(self, hull_tracker, p):
        """T_P <= c * (W/P + S_cost) for a modest constant c (the
        expectation bound of randomized work stealing, with the
        non-malleable cost-weighted span)."""
        stats = simulate_work_stealing(hull_tracker, p, seed=p)
        bound = hull_tracker.work / p + hull_tracker.cost_span
        assert stats.makespan <= 3 * bound + 10
        assert stats.busy == hull_tracker.work

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_steals_linear_in_p_times_depth(self, hull_tracker, p):
        """Successful steals = O(P * S) whp (classic WS bound; we use
        the unit-depth proxy which dominates for our DAGs)."""
        stats = simulate_work_stealing(hull_tracker, p, seed=p + 100)
        assert stats.steals <= 20 * p * hull_tracker.depth

    def test_speedup_on_hull_dag(self, hull_tracker):
        s1 = simulate_work_stealing(hull_tracker, 1)
        s4 = simulate_work_stealing(hull_tracker, 4, seed=3)
        assert s1.makespan / s4.makespan > 2.0

    def test_ball_workload_also_scales(self):
        run = parallel_hull(uniform_ball(1000, 2, seed=8), seed=9, engine="objects")
        s1 = simulate_work_stealing(run.tracker, 1)
        s4 = simulate_work_stealing(run.tracker, 4, seed=2)
        assert s1.makespan / s4.makespan > 1.5
