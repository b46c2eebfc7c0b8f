"""E13 (binary-forking side): randomized work stealing over the
recorded hull DAG -- makespans against the T_P <= O(W/P + S) bound and
steal counts against O(P * S)."""

import pytest

from repro.geometry import on_sphere
from repro.hull import parallel_hull
from repro.runtime.forkjoin import simulate_work_stealing

N = 2000


@pytest.fixture(scope="module")
def tracker():
    # Work stealing needs the object driver's per-task work-span DAG.
    return parallel_hull(on_sphere(N, 2, seed=20), seed=21, engine="objects").tracker


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_work_stealing_makespan(benchmark, tracker, p):
    stats = benchmark(simulate_work_stealing, tracker, p, 7)
    benchmark.extra_info["P"] = p
    benchmark.extra_info["makespan"] = stats.makespan
    benchmark.extra_info["speedup"] = round(tracker.work / stats.makespan, 2)
    benchmark.extra_info["steals"] = stats.steals
    benchmark.extra_info["steals_per_p_depth"] = round(
        stats.steals / (p * tracker.depth), 3
    )
