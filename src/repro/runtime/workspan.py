"""Work-span accounting and greedy-scheduler simulation.

The paper states its costs in the work-span model: *work* W is the total
operation count, *span* S the length of the critical path, and a greedy
scheduler achieves ``T_P <= W/P + S`` (Brent).  Python cannot measure
those quantities from wall clock on two cores, so the parallel hull run
reports them directly: every task (a ``ProcessRidge`` call) is logged
with its operation cost and its dependence predecessors, and this module
turns the log into W, S, parallelism W/S, and simulated ``T_P`` under a
greedy list scheduler.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomics import Mutex

__all__ = ["TaskLog", "ScheduleResult", "WorkSpanTracker"]


@dataclass
class TaskLog:
    """One logged task.

    ``cost`` is the task's *work* (operation count).  ``span_cost`` is
    its contribution to the critical path: the paper's model runs the
    heavy inner steps (filtering a conflict set, taking a min) with
    internal parallelism, so a task of work ``w`` only adds ``O(log w)``
    to the span.  When no ``span_cost`` is given the task is treated as
    sequential (``span_cost == cost``).
    """

    tid: int
    cost: int
    deps: tuple[int, ...]
    span_cost: int = 0

    def __post_init__(self) -> None:
        if self.span_cost <= 0:
            self.span_cost = self.cost


@dataclass
class ScheduleResult:
    """Outcome of a simulated greedy schedule on ``processors`` workers."""

    processors: int
    makespan: int
    busy: int  # total busy work (== W)

    @property
    def utilisation(self) -> float:
        return self.busy / (self.processors * self.makespan) if self.makespan else 1.0


class WorkSpanTracker:
    """Records a task DAG and derives work/span/schedule quantities."""

    def __init__(self) -> None:
        self._tasks: dict[int, TaskLog] = {}
        self._next = 0
        self._mutex = Mutex()

    def add_task(
        self, cost: int, deps: tuple[int, ...] = (), span_cost: int | None = None
    ) -> int:
        """Log a task with ``cost`` operations depending on ``deps``
        (task ids returned by earlier ``add_task`` calls).  Pass
        ``span_cost`` when the task's operations are internally parallel
        (e.g. a vectorized filter contributes O(log) to the critical
        path).  Returns the new task id.  Thread-safe."""
        for d in deps:
            if d not in self._tasks:
                raise KeyError(f"unknown dependence task id {d}")
        with self._mutex:
            tid = self._next
            self._next += 1
            self._tasks[tid] = TaskLog(
                tid=tid,
                cost=max(1, int(cost)),
                deps=tuple(deps),
                span_cost=0 if span_cost is None else max(1, int(span_cost)),
            )
        return tid

    def add_batched_sweep(
        self, block_sizes: Sequence[int] | np.ndarray, deps: tuple[int, ...] = ()
    ) -> int:
        """Log one vectorized (facet x candidate) sweep at its
        *scalar-equivalent* work.  ``block_sizes`` is a sequence or an
        integer array (reduced in NumPy either way).

        A batched kernel evaluates ``sum(block_sizes)`` visibility
        tests in one NumPy call; accounting it as one unit-cost task
        would make batched runs look asymptotically cheaper than the
        scalar runs they are bit-identical to, corrupting the E2/E13
        work comparisons.  So: ``cost = sum(block_sizes)`` (every sign
        still costs one work unit, as in Theorem 5.4), while the span
        contribution is ``O(log max(block_sizes))`` -- the same
        internal-parallelism credit a scalar per-facet filter task
        gets, since batching adds breadth, never depth.  Returns the
        task id (shared by every facet of the sweep)."""
        blocks = np.asarray(block_sizes, dtype=np.int64)
        total = int(np.maximum(blocks, 0).sum())
        widest = int(blocks.max()) if blocks.size else 0
        return self.add_task(
            cost=max(1, total),
            deps=deps,
            span_cost=max(1, int(math.log2(widest + 2))),
        )

    def __len__(self) -> int:
        return len(self._tasks)

    def copy(self) -> "WorkSpanTracker":
        """An independent tracker with the same task log: a later
        :meth:`rollback` or :meth:`add_task` on either leaves the other
        alone (logged tasks are never mutated, so they are shared)."""
        out = WorkSpanTracker()
        with self._mutex:
            out._tasks = dict(self._tasks)
            out._next = self._next
        return out

    def checkpoint(self) -> int:
        """Mark for :meth:`rollback`: the next task id to be issued."""
        with self._mutex:
            return self._next

    def rollback(self, mark: int) -> None:
        """Discard every task logged since ``checkpoint`` returned
        ``mark`` (chaos layer: a rolled-back round's tasks never
        happened).  Ids are issued monotonically, so truncation by id is
        exact."""
        with self._mutex:
            for tid in range(mark, self._next):
                self._tasks.pop(tid, None)
            self._next = mark

    @property
    def work(self) -> int:
        """W: total operations across all tasks."""
        return sum(t.cost for t in self._tasks.values())

    @property
    def span(self) -> int:
        """S: span-cost of the heaviest dependence path (longest-path DP
        in task-id order, which is a valid topological order because
        deps always precede their dependents)."""
        finish: dict[int, int] = {}
        best = 0
        for tid in range(self._next):
            t = self._tasks[tid]
            start = max((finish[d] for d in t.deps), default=0)
            finish[tid] = start + t.span_cost
            best = max(best, finish[tid])
        return best

    @property
    def cost_span(self) -> int:
        """Span with full (sequential) task costs -- the critical path
        when tasks are non-malleable, which is what
        :meth:`simulate_greedy` schedules.  Equals :attr:`span` when no
        task declared a separate ``span_cost``."""
        finish: dict[int, int] = {}
        best = 0
        for tid in range(self._next):
            t = self._tasks[tid]
            start = max((finish[d] for d in t.deps), default=0)
            finish[tid] = start + t.cost
            best = max(best, finish[tid])
        return best

    @property
    def depth(self) -> int:
        """Dependence depth in *tasks* (unit cost), i.e. the quantity of
        Theorem 4.2."""
        level: dict[int, int] = {}
        best = 0
        for tid in range(self._next):
            t = self._tasks[tid]
            level[tid] = 1 + max((level[d] for d in t.deps), default=0)
            best = max(best, level[tid])
        return best

    @property
    def parallelism(self) -> float:
        s = self.span
        return self.work / s if s else float("inf")

    def brent_bound(self, processors: int) -> float:
        """Brent's upper bound T_P <= W/P + S for *non-malleable* tasks
        (the model :meth:`simulate_greedy` schedules), using the
        cost-weighted span."""
        return self.work / processors + self.cost_span

    def brent_speedup(self, processors: int) -> float:
        """Model-level speedup W / (W/P + S) with the paper's span (the
        inner filter/min steps run with internal parallelism)."""
        return self.work / (self.work / processors + self.span)

    def simulate_greedy(self, processors: int) -> ScheduleResult:
        """Event-driven greedy list scheduler: at every instant, run any
        ready task on any idle processor.  Returns the exact makespan of
        that schedule (which Brent's theorem upper-bounds)."""
        if processors < 1:
            raise ValueError("processors must be >= 1")
        indeg = {tid: len(t.deps) for tid, t in self._tasks.items()}
        dependents: dict[int, list[int]] = {tid: [] for tid in self._tasks}
        for tid, t in self._tasks.items():
            for d in t.deps:
                dependents[d].append(tid)
        ready = [tid for tid, k in indeg.items() if k == 0]
        heapq.heapify(ready)
        running: list[tuple[int, int]] = []  # (finish_time, tid)
        time = 0
        done = 0
        busy = 0
        while done < len(self._tasks):
            while ready and len(running) < processors:
                tid = heapq.heappop(ready)
                cost = self._tasks[tid].cost
                busy += cost
                heapq.heappush(running, (time + cost, tid))
            if not running:
                raise RuntimeError("deadlock: no ready or running tasks")
            time, tid = heapq.heappop(running)
            done += 1
            for dep in dependents[tid]:
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    heapq.heappush(ready, dep)
        return ScheduleResult(processors=processors, makespan=time, busy=busy)

    def speedup_curve(self, processor_counts: list[int]) -> dict[int, float]:
        """Simulated speedup T_1 / T_P for each processor count."""
        t1 = self.work
        return {
            p: t1 / self.simulate_greedy(p).makespan if t1 else 1.0
            for p in processor_counts
        }
