"""The float -> exact -> joggle graceful-degradation ladder."""

import os

import numpy as np
import pytest

from repro.geometry import integer_grid, uniform_ball
from repro.geometry.hyperplane import Hyperplane, exact_mode
from repro.hull import HullSetupError, parallel_hull, robust_hull, validate_hull
from repro.runtime import RoundExecutor, SerialExecutor, ThreadExecutor
from repro.runtime.faults import FaultPlan

# Tests below that assert a plane is *not* always-exact outside
# exact_mode() describe the default configuration; REPRO_FORCE_EXACT
# deliberately makes every plane exact process-wide.
float_path_only = pytest.mark.skipif(
    os.environ.get("REPRO_FORCE_EXACT", "0") not in ("", "0"),
    reason="asserts the float fast path, which REPRO_FORCE_EXACT disables",
)


class TestExactMode:
    @float_path_only
    def test_forces_always_exact_planes(self):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        ref = np.array([0.2, 0.2, 0.2])
        assert not Hyperplane.through(pts, ref).always_exact
        with exact_mode():
            plane = Hyperplane.through(pts, ref)
        assert plane.always_exact
        # Exact planes still answer correctly (and stay exact after the
        # context exits).
        assert plane.side(np.array([5.0, 5.0, 5.0])) == 1
        assert plane.side(ref) == -1

    @float_path_only
    def test_nesting_and_restore(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        ref = np.array([0.5, -1.0])
        with exact_mode():
            with exact_mode():
                assert Hyperplane.through(pts, ref).always_exact
            assert Hyperplane.through(pts, ref).always_exact
        assert not Hyperplane.through(pts, ref).always_exact

    def test_whole_hull_under_exact_mode(self):
        pts = uniform_ball(40, 2, seed=0)
        with exact_mode():
            run = parallel_hull(pts, seed=1)
        validate_hull(run.facets, run.points)
        assert all(f.plane.always_exact for f in run.facets)
        ref = parallel_hull(pts, seed=1)
        assert run.vertex_indices() == ref.vertex_indices()


class TestRobustHull:
    def test_generic_input_stays_on_float_rung(self):
        pts = uniform_ball(80, 3, seed=5)
        res = robust_hull(pts, seed=0)
        assert res.mode == "float"
        assert res.escalations == ["float:ok"]
        assert res.run.exec_stats.escalations == ["float:ok"]
        assert res.joggled is None
        assert res.vertex_indices() == parallel_hull(pts, seed=0).vertex_indices()

    def test_degenerate_input_stops_at_sos(self):
        # Coplanar cloud in 3D: not full-dimensional, so float AND exact
        # both raise HullSetupError; symbolic perturbation succeeds
        # without touching the input, so joggle is never reached.
        flat = np.zeros((25, 3))
        flat[:, :2] = uniform_ball(25, 2, seed=1)
        res = robust_hull(flat, seed=0)
        assert res.mode == "sos"
        assert res.escalations == [
            "float:HullSetupError",
            "exact:HullSetupError",
            "sos:ok",
        ]
        assert res.run.exec_stats.escalations == res.escalations
        assert res.joggled is None
        assert res.certificate is not None and res.certificate.sos
        assert res.run.facets

    def test_degenerate_input_falls_through_to_joggle_without_sos(self):
        flat = np.zeros((25, 3))
        flat[:, :2] = uniform_ball(25, 2, seed=1)
        res = robust_hull(flat, seed=0, allow_sos=False)
        assert res.mode == "joggle"
        assert res.escalations == [
            "float:HullSetupError",
            "exact:HullSetupError",
            "joggle:ok[attempts=1]",
        ]
        assert res.run.exec_stats.escalations == res.escalations
        assert res.joggled is not None
        assert res.joggled.attempt_log[-1][1] == "ok"
        assert res.certificate is not None and res.certificate.mode == "joggle"
        assert res.run.facets

    def test_allow_joggle_false_reraises(self):
        flat = np.zeros((25, 3))
        flat[:, :2] = uniform_ball(25, 2, seed=1)
        with pytest.raises(HullSetupError):
            robust_hull(flat, allow_joggle=False, allow_sos=False)

    def test_escalates_on_validation_failure(self, monkeypatch):
        # Force the float rung to produce an invalid hull: the ladder
        # must record the validation failure and climb to exact, where
        # (unpatched) validation succeeds.  A certified rung validates
        # with the structural checks alone.
        import repro.hull.robust as robust_mod
        from repro.hull.validate import HullValidationError

        real_validate = robust_mod.check_structure
        calls = {"n": 0}

        def flaky_validate(facets, d, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise HullValidationError("synthetic float-rung corruption")
            return real_validate(facets, d, **kw)

        monkeypatch.setattr(robust_mod, "check_structure", flaky_validate)
        pts = uniform_ball(40, 2, seed=2)
        res = robust_hull(pts, seed=0)
        assert res.mode == "exact"
        assert res.escalations == ["float:HullValidationError", "exact:ok"]
        assert all(f.plane.always_exact for f in res.run.facets)

    def test_certified_rungs_leave_containment_to_the_verifier(self, monkeypatch):
        # A certified rung runs the structural checks and the verifier,
        # never validation's containment test; an uncertified one runs
        # validate_hull in full.
        from repro.hull import validate

        calls = []
        real = validate.check_containment
        monkeypatch.setattr(validate, "check_containment",
                            lambda *a: calls.append(1) or real(*a))
        for pts in (uniform_ball(40, 3, seed=2), integer_grid(4, 3, seed=1)):
            res = robust_hull(pts, seed=0)
            assert res.certificate is not None and calls == []
        res = robust_hull(pts, seed=0, certify=False)
        assert res.certificate is None and calls == [1]

    def test_containment_failure_escalates_as_certificate_error(self, monkeypatch):
        # The float rung builds the hull of a cloud whose most extreme
        # point was pulled inside: structurally sound, so only the
        # verifier, checking the real points, can reject it.
        import repro.hull.robust as robust_mod
        from repro.hull import validate

        real_hull = robust_mod.parallel_hull
        calls = []

        def pulled_first(points, **kw):
            calls.append(1)
            if len(calls) == 1:
                points = points.copy()
                far = int(np.argmax(np.abs(points).max(axis=1)))
                points[far] *= 0.01
            return real_hull(points, **kw)

        monkeypatch.setattr(robust_mod, "parallel_hull", pulled_first)
        monkeypatch.setattr(validate, "check_containment", None)
        res = robust_hull(uniform_ball(40, 2, seed=2), seed=0)
        assert res.escalations == ["float:CertificateError", "exact:ok"]
        assert res.mode == "exact"

    def test_integer_grid_handled(self):
        # Degenerate-but-full-dimensional input: exact predicates handle
        # it without joggling.
        pts = integer_grid(4, 2, seed=3)
        res = robust_hull(pts, seed=0)
        assert res.mode in ("float", "exact")
        assert res.run.facets

    def test_kwargs_forwarded(self):
        from repro.runtime import SerialExecutor

        pts = uniform_ball(30, 2, seed=4)
        res = robust_hull(pts, seed=0, executor=SerialExecutor())
        assert res.mode == "float"


class TestEngine:
    """Every rung runs the SoA engine unless the call needs the object
    driver, and engine arguments are checked before any rung, so a bad
    one raises instead of reading as a geometric failure."""

    PTS = uniform_ball(30, 3, seed=4)

    #: Arguments only the object driver takes, each a default-engine call.
    OBJECT_ONLY = {
        "serial-executor": lambda: {"executor": SerialExecutor()},
        "round-executor": lambda: {"executor": RoundExecutor()},
        "cas-multimap": lambda: {"executor": ThreadExecutor(2), "multimap": "cas"},
        "fault-plan": lambda: {"fault_plan": FaultPlan(seed=0)},
    }

    #: Engine arguments the ladder used to read as a geometric failure.
    BAD = {
        "unknown-engine": lambda: {"engine": "bogus"},
        "soa-serial-executor": lambda: {"engine": "soa", "executor": SerialExecutor()},
        "soa-seeded-round-executor": lambda: {
            "engine": "soa", "executor": RoundExecutor(seed=7)},
        "soa-cas-multimap": lambda: {"engine": "soa", "multimap": "cas"},
    }

    @staticmethod
    def _engine(res) -> str:
        return res.run.exec_stats.kernel_stats.get("engine", "objects")

    def test_default_runs_soa(self):
        res = robust_hull(self.PTS, seed=0)
        assert res.mode == "float"
        assert self._engine(res) == "soa"

    @pytest.mark.parametrize("case", sorted(OBJECT_ONLY))
    def test_object_driver_arguments_pick_objects(self, case):
        res = robust_hull(self.PTS, seed=0, **self.OBJECT_ONLY[case]())
        assert res.mode == "float"
        assert self._engine(res) == "objects"

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_engine_arguments_raise_before_any_rung(self, case):
        with pytest.raises(ValueError, match="engine"):
            robust_hull(self.PTS, seed=0, **self.BAD[case]())

    #: Execution arguments the object driver rejects, each of which the
    #: ladder used to read as a geometric failure and joggle past.
    BAD_EXECUTION = {
        "thread-executor-dict-multimap": lambda: {"executor": ThreadExecutor(2)},
        "unknown-multimap": lambda: {"multimap": "bogus"},
        "fault-plan-off-rounds": lambda: {
            "executor": SerialExecutor(), "fault_plan": FaultPlan(crash_rate=0.1)},
        "base-size-below-d-plus-1": lambda: {"base_size": 2},
    }

    @pytest.mark.parametrize("case", sorted(BAD_EXECUTION))
    def test_bad_execution_arguments_raise_before_any_rung(self, case, monkeypatch):
        import repro.hull.robust as robust_mod

        def rung(*args, **kwargs):
            raise AssertionError("a rung ran")

        monkeypatch.setattr(robust_mod, "parallel_hull", rung)
        monkeypatch.setattr(robust_mod, "joggled_hull", rung)
        with pytest.raises(ValueError):
            robust_hull(uniform_ball(60, 3, seed=0), seed=0,
                        **self.BAD_EXECUTION[case]())

    def test_plain_round_executor_runs_soa_when_asked(self):
        res = robust_hull(self.PTS, seed=0, engine="soa", executor=RoundExecutor())
        assert self._engine(res) == "soa"
