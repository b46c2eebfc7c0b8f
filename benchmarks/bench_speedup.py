"""E13: speedup.  Two views: the model view (simulated greedy schedules
over the recorded work-span DAG, where near-linear speedup holds until
P approaches W/S) and the wall-clock view on real threads (GIL-bound on
CPython; reported for honesty, see DESIGN.md's substitution table)."""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.geometry import on_sphere
from repro.hull import parallel_hull
from repro.runtime import ThreadExecutor

N = 2000


@pytest.fixture(scope="module")
def recorded_run():
    pts = on_sphere(N, 2, seed=10)
    # The schedules need the object driver's per-task work-span DAG.
    return parallel_hull(pts, seed=11, engine="objects")


@pytest.mark.parametrize("p", [1, 4, 16, 64])
def test_simulated_greedy_schedule(benchmark, recorded_run, p):
    sched = benchmark(recorded_run.tracker.simulate_greedy, p)
    w = recorded_run.tracker.work
    benchmark.extra_info["P"] = p
    benchmark.extra_info["T_P"] = sched.makespan
    benchmark.extra_info["speedup"] = round(w / sched.makespan, 2)
    benchmark.extra_info["parallelism_limit"] = round(
        recorded_run.tracker.parallelism, 1
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_real_threads_wallclock(benchmark, workers):
    pts = on_sphere(N, 2, seed=10)
    order = np.random.default_rng(1).permutation(N)
    run = run_once(
        benchmark,
        parallel_hull,
        pts,
        order=order.copy(),
        executor=ThreadExecutor(workers),
        multimap="cas",
    )
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["facets"] = len(run.facets)
