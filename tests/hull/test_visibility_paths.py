"""One visibility path per engine.

The object drivers decide every visibility test with the scalar oracle
(one ``Hyperplane.visible_mask`` call per facet); the conflict-list SoA
engine decides every one in its flat sweep (``visible_flat``), whichever
entry point reaches it.  ``kernel=`` no longer selects a path: it takes
``None`` or a :class:`~repro.geometry.noisy.NoisyKernel`, and anything
else is rejected on every driver and engine.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.configspace.spaces.delaunay2d import lift_to_paraboloid
from repro.geometry import integer_grid, kernels, uniform_ball
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.noisy import NoisyKernel
from repro.hull import parallel_hull, robust_hull, sequential_hull, soa_hull
from repro.hull.point_parallel import point_parallel_hull
from repro.hull.soa import SoAHullEngine

PTS = uniform_ball(300, 3, seed=4)


def _cli_tests() -> int:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["hull", "--n", "300", "--d", "3", "--seed", "4", "--engine", "soa"])
    out = json.loads(buf.getvalue())
    assert out["kernel"]["engine"] == "soa"
    assert out["kernel"]["batched_signs"] == out["visibility_tests"]
    return out["visibility_tests"]


def _tests_of(run) -> int:
    assert run.exec_stats.kernel_stats["batched_signs"] == run.counters.visibility_tests
    return run.counters.visibility_tests


SOA_ENTRY_POINTS = {
    "soa_hull": lambda: _tests_of(soa_hull(PTS, seed=1)),
    "parallel_hull": lambda: _tests_of(parallel_hull(PTS, seed=1, engine="soa")),
    "parallel_hull[default]": lambda: _tests_of(parallel_hull(PTS, seed=1)),
    "robust_hull": lambda: _tests_of(robust_hull(PTS, seed=1, engine="soa").run),
    "noisy_parallel_hull": lambda: _tests_of(parallel_hull(
        PTS, seed=1, engine="soa", kernel=NoisyKernel(p=0.0, seed=3))),
    "cli": _cli_tests,
}


@pytest.mark.parametrize("entry", sorted(SOA_ENTRY_POINTS))
def test_soa_entry_points_run_the_flat_sweep(entry):
    """Every visibility test of an ``engine="soa"`` run went through the
    flat sweep: the run's own batched-sign counter equals its
    scalar-equivalent test count (``repro hull --engine soa`` reports
    the same equality in its JSON)."""
    assert SOA_ENTRY_POINTS[entry]() > 0


def test_object_drivers_run_the_scalar_oracle(monkeypatch):
    """The object drivers never call the flat sweep (spied on under
    every name a ``repro`` module holds it by; an SoA run is the
    spy's control)."""
    calls: list[int] = []
    real = kernels.visible_flat

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, "visible_flat", None) is real):
            monkeypatch.setattr(mod, "visible_flat", counting)
    run = parallel_hull(PTS, seed=1, engine="objects")
    assert run.exec_stats.kernel_stats == {"kernel": "scalar"}
    sequential_hull(PTS, seed=1)
    assert calls == []
    soa_hull(PTS, seed=1)
    assert calls


DRIVERS = {
    "sequential_hull[objects]": lambda k: sequential_hull(PTS, seed=1, kernel=k),
    "parallel_hull[default]": lambda k: parallel_hull(PTS, seed=1, kernel=k),
    "parallel_hull[objects]": lambda k: parallel_hull(
        PTS, seed=1, kernel=k, engine="objects"),
    "parallel_hull[soa]": lambda k: parallel_hull(
        PTS, seed=1, kernel=k, engine="soa"),
    "point_parallel_hull": lambda k: point_parallel_hull(PTS, seed=1, kernel=k),
    "soa_hull": lambda k: soa_hull(PTS, seed=1, kernel=k),
    "SoAHullEngine": lambda k: SoAHullEngine(PTS, seed=1, kernel=k),
    "robust_hull[objects]": lambda k: robust_hull(
        PTS, seed=1, kernel=k, engine="objects"),
    "robust_hull[soa]": lambda k: robust_hull(
        PTS, seed=1, kernel=k, engine="soa"),
}


@pytest.mark.parametrize("kernel", ["batch", "scalar", "gpu"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_string_kernels_rejected(driver, kernel):
    with pytest.raises(ValueError, match="unknown kernel"):
        DRIVERS[driver](kernel)


def test_noisy_soa_flips_match_the_object_driver():
    """Noise sites are (sorted facet ranks, point rank) pairs on both
    engines, so the same seeded oracle makes the same flips whichever
    visibility path computed the true sign."""
    order = np.random.default_rng(5).permutation(PTS.shape[0])
    runs = {}
    for engine in ("objects", "soa"):
        nk = NoisyKernel(p=0.001, votes=3, seed=11)
        run = parallel_hull(PTS, order=order.copy(), kernel=nk, engine=engine)
        runs[engine] = (run, nk.snapshot())
    (a, snap_a), (b, snap_b) = runs["objects"], runs["soa"]
    assert snap_a == snap_b
    assert snap_a["noisy_flips"] > 0
    assert a.created_keys() == b.created_keys()
    ca = {f.key(): f.conflicts for f in a.created}
    for f in b.created:
        assert np.array_equal(f.conflicts, ca[f.key()])


def test_sweep_fallback_takes_the_rows_own_planes(monkeypatch):
    """On a lifted grid (cocircular points lift to coplanar quadruples)
    many sweep entries fall inside the envelope of float-certain rows.
    Their exact fallback takes the plane the row's columns already hold,
    so ``Hyperplane.through`` runs once per row that took the scalar
    ladder and for no other."""
    calls: list[int] = []
    real = Hyperplane.through

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(Hyperplane, "through", staticmethod(counting))
    grid = lift_to_paraboloid(integer_grid(10, 2, shuffle=False))
    eng = SoAHullEngine(grid, seed=1)
    while eng.step_round():
        pass
    run = eng.finish()
    ladder_rows = int(eng.store.exact[: eng.store.size].sum())
    assert len(calls) == ladder_rows
    assert run.exec_stats.kernel_stats["fallbacks"] > 0
    assert run.facets and len(run.facets) == 2 * 100 - 4
