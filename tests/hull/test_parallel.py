"""Tests for Algorithm 3 (parallel incremental hull): correctness under
every executor/multimap combination, the engine rule, trace invariants,
and the support structure."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull as ScipyHull

from repro.geometry import on_sphere, uniform_ball
from repro.geometry.simplex import facet_ridges
from repro.hull import parallel_hull, sequential_hull, validate_hull
from repro.runtime import RoundExecutor, SerialExecutor, ThreadExecutor
from repro.runtime.faults import FaultPlan


class TestCorrectness:
    @pytest.mark.parametrize("d,n", [(2, 150), (3, 120), (4, 60)])
    def test_matches_scipy(self, d, n):
        pts = uniform_ball(n, d, seed=d + n)
        run = parallel_hull(pts, seed=3)
        validate_hull(run.facets, run.points)
        assert run.vertex_indices() == set(ScipyHull(pts).vertices.tolist())

    def test_all_extreme(self):
        pts = on_sphere(100, 2, seed=17)
        run = parallel_hull(pts, seed=1)
        assert len(run.facets) == 100

    def test_simplex_input(self):
        pts = np.vstack([np.zeros(3), np.eye(3)])
        run = parallel_hull(pts, order=np.arange(4))
        assert len(run.facets) == 4
        assert run.exec_stats.rounds == 1  # all ridges final immediately


class TestExecutors:
    @pytest.fixture
    def instance(self):
        pts = uniform_ball(200, 3, seed=77)
        order = np.random.default_rng(5).permutation(200)
        return pts, order

    def test_serial_matches_round(self, instance):
        pts, order = instance
        a = parallel_hull(pts, order=order.copy(), executor=RoundExecutor())
        b = parallel_hull(pts, order=order.copy(), executor=SerialExecutor())
        assert a.facet_keys() == b.facet_keys()
        assert a.created_keys() == b.created_keys()
        assert a.dependence_depth() == b.dependence_depth()

    def test_threads_match_round(self, instance):
        pts, order = instance
        a = parallel_hull(pts, order=order.copy(), executor=RoundExecutor())
        for mm in ("cas", "tas"):
            t = parallel_hull(
                pts, order=order.copy(), executor=ThreadExecutor(4), multimap=mm
            )
            validate_hull(t.facets, t.points)
            assert t.facet_keys() == a.facet_keys(), mm
            assert t.created_keys() == a.created_keys(), mm

    def test_shuffled_rounds_same_result(self, instance):
        pts, order = instance
        a = parallel_hull(pts, order=order.copy(), executor=RoundExecutor())
        for seed in (1, 2, 3):
            b = parallel_hull(pts, order=order.copy(), executor=RoundExecutor(seed=seed))
            assert b.facet_keys() == a.facet_keys()
            assert b.created_keys() == a.created_keys()

    def test_dict_multimap_rejected_under_threads(self, instance):
        pts, order = instance
        with pytest.raises(ValueError):
            parallel_hull(pts, order=order, executor=ThreadExecutor(2), multimap="dict")

    def test_unknown_multimap(self, instance):
        pts, order = instance
        with pytest.raises(ValueError):
            parallel_hull(pts, order=order, multimap="nope")


class TestEngine:
    """``parallel_hull`` runs the SoA engine unless the call needs the
    object driver; ``check_engine`` holds the rule and rejects a bad
    engine argument before any work."""

    PTS = uniform_ball(60, 3, seed=4)

    #: Arguments only the object driver takes, each a default-engine call.
    OBJECT_ONLY = {
        "serial-executor": lambda: {"executor": SerialExecutor()},
        "round-executor": lambda: {"executor": RoundExecutor()},
        "seeded-round-executor": lambda: {"executor": RoundExecutor(seed=7)},
        "cas-multimap": lambda: {"executor": ThreadExecutor(2), "multimap": "cas"},
        "fault-plan": lambda: {"fault_plan": FaultPlan(seed=0)},
    }

    BAD = {
        "unknown-engine": lambda: {"engine": "bogus"},
        "soa-serial-executor": lambda: {"engine": "soa", "executor": SerialExecutor()},
        "soa-seeded-round-executor": lambda: {
            "engine": "soa", "executor": RoundExecutor(seed=7)},
        "soa-cas-multimap": lambda: {"engine": "soa", "multimap": "cas"},
        "soa-fault-plan": lambda: {"engine": "soa", "fault_plan": FaultPlan(seed=0)},
    }

    @staticmethod
    def _engine(run) -> str:
        return run.exec_stats.kernel_stats.get("engine", "objects")

    def test_default_runs_soa(self):
        run = parallel_hull(self.PTS, seed=1)
        assert self._engine(run) == "soa"
        ref = parallel_hull(self.PTS, seed=1, engine="objects")
        assert run.facet_keys() == ref.facet_keys()

    @pytest.mark.parametrize("case", sorted(OBJECT_ONLY))
    def test_object_driver_arguments_pick_objects(self, case):
        run = parallel_hull(self.PTS, seed=1, **self.OBJECT_ONLY[case]())
        assert self._engine(run) == "objects"

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_engine_arguments_raise_before_any_work(self, case, monkeypatch):
        import repro.hull.parallel as par
        import repro.hull.soa as soa

        def no_work(*args, **kwargs):
            raise AssertionError("the hull started before the engine check")

        monkeypatch.setattr(par, "setup_run", no_work)
        monkeypatch.setattr(soa, "SoAHullEngine", no_work)
        with pytest.raises(ValueError, match="engine"):
            parallel_hull(self.PTS, seed=1, **self.BAD[case]())

    def test_plain_round_executor_runs_soa_when_asked(self):
        run = parallel_hull(self.PTS, seed=1, engine="soa", executor=RoundExecutor())
        assert self._engine(run) == "soa"


class TestSupportStructure:
    def test_every_created_nonbase_facet_has_support_pair(self):
        pts = uniform_ball(120, 2, seed=31)
        run = parallel_hull(pts, seed=9)
        base = {f.fid for f in run.created[: run.points.shape[1] + 1]}
        for f in run.created:
            if f.fid in base:
                assert f.fid not in run.support
            else:
                t1, t2 = run.support[f.fid]
                assert t1 < f.fid and t2 < f.fid

    def test_support_pair_shares_creation_ridge(self):
        pts = uniform_ball(80, 3, seed=32)
        run = parallel_hull(pts, seed=10)
        by_fid = {f.fid: f for f in run.created}
        for f in run.created:
            sup = run.support.get(f.fid)
            if sup is None:
                continue
            p = run.pivots[f.fid]
            ridge = frozenset(f.indices) - {p}
            t1, t2 = by_fid[sup[0]], by_fid[sup[1]]
            assert ridge <= frozenset(t1.indices)
            assert ridge <= frozenset(t2.indices)

    def test_pivot_is_in_replaced_facets_conflicts(self):
        pts = uniform_ball(80, 2, seed=33)
        run = parallel_hull(pts, seed=11)
        by_fid = {f.fid: f for f in run.created}
        for f in run.created:
            sup = run.support.get(f.fid)
            if sup is None:
                continue
            p = run.pivots[f.fid]
            t1 = by_fid[sup[0]]  # the replaced facet
            assert p == int(t1.conflicts[0])

    def test_new_facet_contains_its_pivot(self):
        pts = uniform_ball(80, 2, seed=34)
        run = parallel_hull(pts, seed=12)
        for fid, p in run.pivots.items():
            f = next(x for x in run.created if x.fid == fid)
            assert p in f.indices


class TestTraceInvariants:
    def test_each_ridge_processed_once_per_pair(self):
        pts = uniform_ball(100, 2, seed=41)
        run = parallel_hull(pts, seed=13)
        # Every create event consumes a (t1, ridge, t2) triple; the same
        # (ridge, pair) triple never recurs.
        seen = set()
        for e in run.events:
            key = (e.ridge, e.created, e.removed, e.removed_pair)
            assert key not in seen
            seen.add(key)

    def test_rounds_monotone_along_support_edges(self):
        pts = uniform_ball(150, 3, seed=42)
        run = parallel_hull(pts, seed=14)
        for fid, (t1, t2) in run.support.items():
            assert run.rounds[fid] > max(run.rounds[t1], run.rounds[t2]) - 1
            assert run.rounds[fid] >= max(run.rounds[t1], run.rounds[t2])

    def test_depth_le_rounds(self):
        pts = uniform_ball(150, 2, seed=43)
        run = parallel_hull(pts, seed=15)
        # Theorem 4.3: recursion (round) depth equals the dependence
        # graph depth up to the +1 seeding round.
        assert run.dependence_depth() <= run.exec_stats.rounds
        assert run.exec_stats.rounds <= run.dependence_depth() + 2

    def test_counters_balance(self):
        pts = uniform_ball(100, 2, seed=44)
        run = parallel_hull(pts, seed=16)
        dead = sum(1 for f in run.created if not f.alive)
        # Buried facets are counted twice only if both events hit them;
        # replaced + buried >= dead because a facet can be buried and
        # replaced by concurrent ridges.
        assert run.counters.facets_replaced + run.counters.facets_buried >= dead
        assert len(run.facets) + dead == len(run.created)

    def test_alive_facets_have_empty_conflicts(self):
        pts = uniform_ball(100, 3, seed=45)
        run = parallel_hull(pts, seed=17)
        for f in run.facets:
            assert f.conflicts.size == 0

    def test_final_events_cover_hull_ridges(self):
        pts = uniform_ball(60, 2, seed=46)
        run = parallel_hull(pts, seed=18)
        final_ridges = {e.ridge for e in run.events if e.kind == "final"}
        hull_ridges = {r for f in run.facets for r in facet_ridges(f.indices)}
        assert hull_ridges <= final_ridges


class TestDepthProfile:
    def test_profile_sums_to_created(self):
        pts = uniform_ball(150, 2, seed=51)
        run = parallel_hull(pts, seed=19)
        hist = run.depth_profile()
        assert sum(hist.values()) == len(run.created)
        assert max(hist) == run.dependence_depth()

    def test_base_facets_at_depth_zero(self):
        pts = uniform_ball(50, 2, seed=52)
        run = parallel_hull(pts, seed=20)
        hist = run.depth_profile()
        assert hist[0] >= pts.shape[1] + 1


class TestBaseSize:
    def test_base_size_below_minimum_rejected(self):
        pts = uniform_ball(20, 2, seed=61)
        with pytest.raises(Exception):
            parallel_hull(pts, seed=0, base_size=2)

    def test_larger_base_gives_same_hull(self):
        pts = uniform_ball(60, 2, seed=62)
        order = np.arange(60)
        a = parallel_hull(pts, order=order.copy())
        b = parallel_hull(pts, order=order.copy(), base_size=10)
        assert a.facet_keys() == b.facet_keys()


class TestSpaceAccounting:
    def test_space_proportional_to_work(self):
        """Section 5.2's space note: stored conflict entries are bounded
        by the visibility tests that produced them."""
        from repro.hull.parallel import space_accounting

        pts = uniform_ball(400, 2, seed=71)
        run = parallel_hull(pts, seed=72)
        acct = space_accounting(run)
        assert acct["total_conflict_entries"] <= acct["visibility_tests"]
        assert 0 < acct["entries_per_test"] <= 1.0
        assert acct["facets_created"] == len(run.created)


class TestBaseSizeWithExecutors:
    def test_large_base_under_threads(self):
        pts = uniform_ball(150, 2, seed=81)
        order = np.arange(150)
        a = parallel_hull(pts, order=order.copy(), base_size=12, engine="objects")
        b = parallel_hull(
            pts, order=order.copy(), base_size=12,
            executor=ThreadExecutor(2), multimap="tas",
        )
        assert a.facet_keys() == b.facet_keys()

    def test_base_size_equals_n(self):
        # Everything in the bootstrap: zero rounds of ProcessRidge work.
        pts = uniform_ball(40, 2, seed=82)
        run = parallel_hull(pts, order=np.arange(40), base_size=40)
        assert run.counters.facets_created == len(run.facets)
        assert run.dependence_depth() == 0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        from repro.hull.serialize import (
            graph_from_summary,
            load_summary,
            run_summary,
            save_run,
        )

        pts = uniform_ball(80, 2, seed=91)
        run = parallel_hull(pts, seed=92)
        path = tmp_path / "run.json"
        save_run(run, path)
        summary = load_summary(path)
        assert summary["n"] == 80 and summary["d"] == 2
        assert summary["depth"] == run.dependence_depth()
        assert len(summary["created"]) == len(run.created)
        graph = graph_from_summary(summary)
        assert graph.depth() == run.dependence_depth()

    def test_schema_check(self, tmp_path):
        import json

        from repro.hull.serialize import load_summary

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError):
            load_summary(bad)
