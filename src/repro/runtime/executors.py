"""Pluggable executors for the parallel incremental hull.

Algorithm 3 is a dynamic task DAG: each ``ProcessRidge`` call may spawn
further calls once it creates a facet.  The paper analyses the same
algorithm under two machines -- a round-synchronous CRCW PRAM
(Theorem 5.4) and the asynchronous binary-forking model (Theorem 5.5).
Each executor here realises one execution discipline over an abstract
``fn(task) -> list[new tasks]`` step function:

:class:`SerialExecutor`
    Depth-first single-threaded order -- the degenerate schedule; useful
    as a determinism baseline and for measuring the task count alone.
:class:`RoundExecutor`
    Round-synchronous: all currently ready calls run in one round, calls
    they spawn run in the next.  The number of rounds equals the level
    count of the configuration dependence graph restricted to executed
    calls -- the exact quantity Theorems 1.1/5.3 bound by O(log n) whp.
:class:`ThreadExecutor`
    Real ``threading`` workers pulling from a shared queue -- the
    asynchronous discipline.  Wall-clock speedup is GIL-bound, but it
    exercises the concurrent multimap and the algorithm's tolerance to
    arbitrary schedules.

All three run in the calling process over shared state, as the paper's
shared-memory machines do; :mod:`repro.runtime.chaos` holds their
fault-injected variants.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["ExecutionStats", "SerialExecutor", "RoundExecutor", "ThreadExecutor"]

#: A step function consumes one task and returns the tasks it spawned.
StepFn = Callable[[Any], Sequence[Any]]


@dataclass
class ExecutionStats:
    """What an executor observed while draining the task DAG.

    The fault-tolerance counters (``retries`` onward) stay zero on
    fault-free runs; they are filled in by the chaos layer
    (:mod:`repro.runtime.chaos` and the checkpointing round loop in
    :mod:`repro.hull.parallel`) and by :func:`repro.hull.robust.robust_hull`,
    which records its predicate-escalation path in ``escalations``.
    """

    tasks_executed: int = 0
    rounds: int = 0                      # round-synchronous executors only
    round_sizes: list[int] = field(default_factory=list)
    # -- fault tolerance ---------------------------------------------------
    retries: int = 0             # task executions re-dispatched or re-run
    worker_deaths: int = 0       # thread workers that died mid-task
    checkpoints: int = 0         # round checkpoints taken
    rollbacks: int = 0           # rounds rolled back to their checkpoint
    tasks_aborted: int = 0       # injected mid-task crashes
    tasks_delayed: int = 0       # tasks deferred by injected delays
    escalations: list[str] = field(default_factory=list)
    # Visibility-path provenance and counters, attached at the end of a
    # run: ``{"kernel": "scalar"}`` on object-driver runs; the engine,
    # flat-sweep signs and exact fallbacks on SoA runs; the noise model
    # and vote counters on noisy runs.
    kernel_stats: dict = field(default_factory=dict)

    @property
    def max_round_width(self) -> int:
        return max(self.round_sizes, default=0)

    @property
    def round_attempts(self) -> int:
        """Rounds including rolled-back attempts (E17's
        rounds-to-completion under faults)."""
        return self.rounds + self.rollbacks


class SerialExecutor:
    """LIFO depth-first execution on the calling thread."""

    def run(self, initial: Sequence[Any], fn: StepFn) -> ExecutionStats:
        stats = ExecutionStats()
        stack = list(initial)
        while stack:
            task = stack.pop()
            stats.tasks_executed += 1
            stack.extend(fn(task))
        return stats


class RoundExecutor:
    """Round-synchronous (PRAM-style) execution.

    Within a round, tasks run in creation order by default; pass a
    ``seed`` to shuffle each round and check schedule independence (the
    result of Algorithm 3 must not depend on intra-round order, since
    ready calls touch disjoint support pairs).
    """

    def __init__(self, seed: int | None = None):
        self._rng = np.random.default_rng(seed) if seed is not None else None

    def run(self, initial: Sequence[Any], fn: StepFn) -> ExecutionStats:
        stats = ExecutionStats()
        frontier = list(initial)
        while frontier:
            if self._rng is not None:
                idx = self._rng.permutation(len(frontier))
                frontier = [frontier[i] for i in idx]
            stats.rounds += 1
            stats.round_sizes.append(len(frontier))
            next_frontier: list[Any] = []
            for task in frontier:
                stats.tasks_executed += 1
                next_frontier.extend(fn(task))
            frontier = next_frontier
        return stats


class ThreadExecutor:
    """Asynchronous execution on ``n_workers`` real threads.

    The step function must be thread-safe; completion is detected with
    an in-flight counter so workers exit exactly when no task is queued
    or running.  Exceptions in workers are re-raised on the caller.
    """

    def __init__(self, n_workers: int = 4):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers

    def run(self, initial: Sequence[Any], fn: StepFn) -> ExecutionStats:
        stats = ExecutionStats()
        q: queue.SimpleQueue = queue.SimpleQueue()
        # Materialize once: a generator would be exhausted by the first
        # pass, leaving pending > 0 with an empty queue -- an eternal
        # done.wait() with no worker ever able to finish.
        initial = list(initial)
        pending = len(initial)
        lock = threading.Lock()
        done = threading.Event()
        errors: list[BaseException] = []
        executed = [0]

        for task in initial:
            q.put(task)
        if pending == 0:
            return stats

        def worker() -> None:
            nonlocal pending
            while not done.is_set():
                try:
                    task = q.get(timeout=0.05)
                except Exception:
                    continue
                try:
                    children = fn(task)
                except BaseException as exc:  # propagate to caller
                    with lock:
                        errors.append(exc)
                    done.set()
                    return
                with lock:
                    executed[0] += 1
                    pending += len(children) - 1
                    finished = pending == 0
                for child in children:
                    q.put(child)
                if finished:
                    done.set()
                    return

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(self.n_workers)]
        for t in threads:
            t.start()
        done.wait()
        for t in threads:
            t.join(timeout=5.0)
        if errors:
            raise errors[0]
        stats.tasks_executed = executed[0]
        return stats
