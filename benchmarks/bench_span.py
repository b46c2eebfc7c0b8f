"""E3 (Theorems 5.4/5.5, span): rounds = O(log n) on the
round-synchronous executor; work-span span grows polylogarithmically.

``rounds / log2(n)`` and ``span / log2(n)^2`` (binary-forking shape)
should stay bounded across sizes.
"""

import math

import pytest

from benchmarks.conftest import run_once
from repro.geometry import on_sphere
from repro.hull import parallel_hull

SIZES = [256, 1024, 4096]


@pytest.mark.parametrize("n", SIZES)
def test_rounds_scaling(benchmark, n):
    pts = on_sphere(n, 2, seed=n + 7)
    run = run_once(benchmark, parallel_hull, pts, seed=5)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["rounds"] = run.exec_stats.rounds
    benchmark.extra_info["rounds_per_log2n"] = round(
        run.exec_stats.rounds / math.log2(n), 2
    )
    benchmark.extra_info["max_round_width"] = run.exec_stats.max_round_width


@pytest.mark.parametrize("n", SIZES)
def test_workspan_span_scaling(benchmark, n):
    pts = on_sphere(n, 2, seed=n + 9)
    # W and S of the object driver's per-task work-span DAG.
    run = run_once(benchmark, parallel_hull, pts, seed=6, engine="objects")
    s = run.tracker.span
    benchmark.extra_info["n"] = n
    benchmark.extra_info["work"] = run.tracker.work
    benchmark.extra_info["span"] = s
    benchmark.extra_info["span_per_log2n_sq"] = round(s / math.log2(n) ** 2, 2)
    benchmark.extra_info["parallelism"] = round(run.tracker.parallelism, 1)
