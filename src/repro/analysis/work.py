"""Work accounting (experiments E2/E6) and speedup analysis (E13).

Theorem 5.4 states the parallel algorithm performs the *same* visibility
tests as the sequential one (minus those skipped by buried ridges), for
O(n log n) expected work in d <= 3.  These helpers run the two
algorithms under a shared insertion order and compare their counters,
and turn a run's work-span log into simulated speedup curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hull.parallel import ParallelHullRun, parallel_hull
from ..hull.sequential import SequentialHullResult, sequential_hull

__all__ = ["WorkComparison", "compare_work", "work_scaling", "speedup_table"]


@dataclass
class WorkComparison:
    """Sequential vs parallel work on one instance, same insertion order."""

    n: int
    d: int
    seq: SequentialHullResult
    par: ParallelHullRun

    @property
    def same_facets(self) -> bool:
        return self.seq.facet_keys() == self.par.facet_keys()

    @property
    def same_created(self) -> bool:
        return self.seq.created_keys() == self.par.created_keys()

    @property
    def test_ratio(self) -> float:
        """Parallel visibility tests / sequential (<= 1 + o(1); buried
        ridges can only *save* tests)."""
        return self.par.counters.visibility_tests / max(
            1, self.seq.counters.visibility_tests
        )

    def row(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "seq_tests": self.seq.counters.visibility_tests,
            "par_tests": self.par.counters.visibility_tests,
            "ratio": round(self.test_ratio, 4),
            "same_facets": self.same_facets,
            "same_created": self.same_created,
            "buried": self.par.counters.facets_buried,
        }


def compare_work(points: np.ndarray, seed: int = 0) -> WorkComparison:
    """Run both algorithms under one random insertion order."""
    n, d = points.shape
    order = np.random.default_rng(seed).permutation(n)
    seq = sequential_hull(points, order=order.copy())
    par = parallel_hull(points, order=order.copy())
    return WorkComparison(n=n, d=d, seq=seq, par=par)


def work_scaling(
    ns: Sequence[int], d: int, generator, seed: int = 0
) -> list[dict]:
    """Visibility tests per n log n across sizes -- flat iff the work is
    Theta(n log n) (the d <= 3 regime of Theorem 5.4)."""
    rows = []
    for n in ns:
        pts = generator(n, d, seed)
        cmpn = compare_work(pts, seed=seed + n)
        row = cmpn.row()
        row["tests_per_nlogn"] = round(
            cmpn.seq.counters.visibility_tests / (n * np.log(n)), 3
        )
        rows.append(row)
    return rows


def speedup_table(run: ParallelHullRun, processors: Sequence[int]) -> list[dict]:
    """Speedups from a parallel run's work-span log, two ways (pass an
    ``engine="objects"`` run: the SoA engine logs one task per round,
    a chain no schedule can speed up):

    * ``speedup``: exact greedy list-schedule with *non-malleable*
      tasks (a whole conflict-set filter occupies one processor) --
      pessimistic, capped by W / max-task-cost;
    * ``model_speedup``: W / (W/P + S) with the paper's span model,
      where the inner filter/min steps are internally parallel
      (Theorem 5.5's regime).
    """
    tracker = run.tracker
    w = tracker.work
    rows = []
    for p in processors:
        sched = tracker.simulate_greedy(p)
        rows.append(
            {
                "P": p,
                "T_P": sched.makespan,
                "speedup": round(w / sched.makespan, 2),
                "model_speedup": round(tracker.brent_speedup(p), 2),
                "brent_T_P": round(tracker.brent_bound(p), 1),
                "utilisation": round(sched.utilisation, 3),
            }
        )
    return rows
