"""Chaos runtime: applying :class:`~repro.runtime.faults.FaultPlan` to
the executors and the interleave simulator.

Three failure surfaces, one per execution discipline:

* :class:`ChaosThreadExecutor` -- real worker threads that *die* after
  dequeuing a task.  The supervisor detects death by liveness polling
  (not by the dying worker confessing), re-dispatches the lost task
  with bounded retry + exponential backoff, and spawns a replacement
  worker so the pool never shrinks.
* :func:`sweep_stalled_multimap` -- the lock-freedom obligation of the
  binary-forking model (Theorem 5.5 / Appendix A): freeze one multimap
  operation forever at every possible yield point, under exhaustive
  small schedules, and require every *other* operation to complete.
  A blocking implementation fails this sweep at the point where the
  frozen op holds the resource.
* :func:`chaos_hull_roundtrip` -- end-to-end: run Algorithm 3 under a
  fault plan (checkpointing round loop in :mod:`repro.hull.parallel`,
  or worker crashes under :class:`ChaosThreadExecutor`) and require the
  surviving hull to have exactly the facet set of the fault-free run.

``run_chaos_suite`` bundles all three behind ``repro chaos``.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .backoff import BackoffPolicy
from .executors import ExecutionStats, RoundExecutor, ThreadExecutor
from .faults import CRASH, DELAY, FaultPlan, RetryBudgetExceeded
from .interleave import all_schedules, run_schedule
from .multimap import CASMultimap, TASMultimap
from .racecheck import multimap_scenario

__all__ = [
    "ChaosThreadExecutor",
    "StallSweepSummary",
    "sweep_stalled_multimap",
    "chaos_hull_roundtrip",
    "ChaosSuiteReport",
    "run_chaos_suite",
]


class ChaosThreadExecutor(ThreadExecutor):
    """A :class:`ThreadExecutor` whose workers can die mid-task.

    A crash fault fires right after a worker dequeues a task: the
    worker exits without executing it, acking it, or re-queuing it --
    the task is simply *lost*, as with a real worker process dying.
    The supervisor (the calling thread) detects the death by polling
    thread liveness against the in-flight registry, re-dispatches the
    lost task (``attempts + 1``, bounded by ``max_retries``, through
    the shared :class:`~repro.runtime.backoff.BackoffPolicy` --
    exponential growth with seeded jitter, capped), and spawns a
    replacement worker.  Delay faults make a worker sleep briefly
    before executing.  The backoff policy is seeded from the fault plan
    (``0`` without one).

    With ``plan=None`` it behaves exactly like :class:`ThreadExecutor`.
    Genuine exceptions from ``fn`` still propagate to the caller and are
    never retried -- retry is for dead workers, not poisoned tasks.
    """

    def __init__(
        self,
        n_workers: int = 4,
        plan: FaultPlan | None = None,
        max_retries: int = 8,
    ):
        super().__init__(n_workers)
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.plan = plan
        self.max_retries = max_retries
        self.backoff = BackoffPolicy(seed=plan.seed if plan is not None else 0)

    def run(self, initial: Sequence[Any], fn) -> ExecutionStats:
        stats = ExecutionStats()
        plan = self.plan or FaultPlan.none()
        q: queue.SimpleQueue = queue.SimpleQueue()
        initial = list(initial)
        pending = len(initial)
        lock = threading.Lock()
        done = threading.Event()
        errors: list[BaseException] = []
        executed = [0]
        delayed = [0]
        dispatch_seq = itertools.count()
        worker_seq = itertools.count()
        #: worker id -> (task, attempts) it currently holds; a dead
        #: thread with a registry entry is a detected worker death.
        inflight: dict[int, tuple[Any, int]] = {}
        threads: dict[int, threading.Thread] = {}

        for task in initial:
            q.put((task, 0))
        if pending == 0:
            return stats

        def worker(wid: int) -> None:
            nonlocal pending
            while not done.is_set():
                try:
                    env = q.get(timeout=0.02)
                except queue.Empty:
                    continue
                task, attempts = env
                with lock:
                    site = f"dispatch:{next(dispatch_seq)}"
                    inflight[wid] = env
                if plan.decide(DELAY, site):
                    with lock:
                        delayed[0] += 1
                    time.sleep(self.backoff.base)
                if plan.decide(CRASH, site):
                    # Die holding the task: no ack, no re-queue.  The
                    # supervisor's liveness poll must notice.
                    return
                try:
                    children = fn(task)
                except BaseException as exc:  # propagate to caller
                    with lock:
                        errors.append(exc)
                        inflight.pop(wid, None)
                    done.set()
                    return
                with lock:
                    executed[0] += 1
                    pending += len(children) - 1
                    finished = pending == 0
                    inflight.pop(wid, None)
                for child in children:
                    q.put((child, 0))
                if finished:
                    done.set()
                    return

        def spawn() -> None:
            wid = next(worker_seq)
            t = threading.Thread(target=worker, args=(wid,), daemon=True)
            threads[wid] = t
            t.start()

        for _ in range(self.n_workers):
            spawn()

        # Supervise: completion, crash detection, re-dispatch.
        while not done.wait(timeout=0.01):
            for wid in [w for w, t in threads.items() if not t.is_alive()]:
                threads.pop(wid)
                with lock:
                    env = inflight.pop(wid, None)
                if env is None:
                    continue  # exited cleanly (completion or error path)
                task, attempts = env
                stats.worker_deaths += 1
                if attempts + 1 > self.max_retries:
                    with lock:
                        errors.append(RetryBudgetExceeded(
                            f"task {task!r} lost {attempts + 1} times "
                            f"(max_retries={self.max_retries})"
                        ))
                    done.set()
                    break
                self.backoff.sleep(attempts, site=f"retry:w{wid}")
                stats.retries += 1
                q.put((task, attempts + 1))
                spawn()
        for t in threads.values():
            t.join(timeout=5.0)
        if errors:
            raise errors[0]
        stats.tasks_executed = executed[0]
        stats.tasks_delayed = delayed[0]
        return stats


# ---------------------------------------------------------------------------
# Lock-freedom: stalled multimap operations
# ---------------------------------------------------------------------------

_IMPLS: dict[str, type] = {"cas": CASMultimap, "tas": TASMultimap}


@dataclass
class StallSweepSummary:
    """Aggregate of a stall sweep: schedules x stall points."""

    impl: str
    runs: int = 0
    stall_points: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} failures"
        out = (f"stall-sweep[{self.impl}]: {self.runs} runs over "
               f"{self.stall_points} stall points, {verdict}")
        for msg in self.failures[:3]:
            out += f"\n  {msg}"
        return out


def sweep_stalled_multimap(
    impl: str | type = "tas",
    capacity: int = 4,
    prefix_len: int = 5,
    n_ops: int = 2,
    collide: bool = True,
    max_stall: int = 8,
    max_failures: int = 5,
) -> StallSweepSummary:
    """Freeze each op at each yield point under exhaustive schedules.

    For every op ``o``, every stall budget ``k in [0, max_stall]`` and
    every schedule prefix, op ``o`` takes at most ``k`` steps and then
    freezes forever; the sweep asserts every *other* operation still
    runs to completion (Theorem 5.5's lock-freedom obligation -- a
    dead process never blocks system-wide progress).  When the stalled
    op is not one of the two racing inserts, Theorem A.1 (exactly one
    loser) is additionally asserted on the survivors.
    """
    cls = _IMPLS[impl] if isinstance(impl, str) else impl
    label = impl if isinstance(impl, str) else cls.__name__
    names = [chr(ord("p") + i) for i in range(n_ops)]
    summary = StallSweepSummary(impl=label)
    for stall_op in names:
        for stall_after in range(max_stall + 1):
            summary.stall_points += 1
            for schedule in all_schedules(names, prefix_len):
                kwargs = {"hash_fn": (lambda k: 0)} if collide else {}
                m = cls(capacity, **kwargs)
                gens = {name: make()
                        for name, make in multimap_scenario(m, n_ops=n_ops).items()}
                # max_steps is the livelock guard: a blocking structure
                # spinning on the frozen op's lock fails instead of
                # hanging the sweep.  Lock-free ops finish in
                # O(capacity) steps, so the bound is never binding.
                res = run_schedule(
                    gens, schedule, strict=False,
                    stall={stall_op: stall_after},
                    max_steps=20 * capacity + prefix_len,
                )
                summary.runs += 1
                tag = (f"{stall_op} stalled after {stall_after} steps, "
                       f"schedule {''.join(schedule) or '(empty)'}")
                for name, r in res.items():
                    if name != stall_op and not r.done:
                        summary.failures.append(
                            f"op {name} blocked [{tag}]: "
                            f"error={r.error!r} stalled={r.stalled}"
                        )
                if stall_op not in ("p", "q") and res["p"].done and res["q"].done:
                    winners = sorted([res["p"].value, res["q"].value])
                    if winners != [False, True]:
                        summary.failures.append(
                            f"A.1 violated among survivors [{tag}]: {winners}"
                        )
                if len(summary.failures) >= max_failures:
                    return summary
    return summary


# ---------------------------------------------------------------------------
# End-to-end: faulted hull runs
# ---------------------------------------------------------------------------

def chaos_hull_roundtrip(
    n: int = 120,
    d: int = 2,
    seed: int = 0,
    crash_rate: float = 0.2,
    delay_rate: float = 0.0,
    workload: str = "ball",
    executor_kind: str = "rounds",
    n_workers: int = 2,
) -> dict[str, Any]:
    """Run one hull instance fault-free and once under a fault plan;
    return a report asserting facet-set identity plus the fault/retry
    counters (the E17 measurements).

    ``executor_kind`` is ``"rounds"`` (the checkpointing round loop) or
    ``"threads"`` (:class:`ChaosThreadExecutor` over the CAS multimap).
    """
    # Imported lazily: repro.hull imports repro.runtime, not vice versa.
    from ..geometry import points as _points
    from ..hull import parallel_hull
    from ..hull.validate import facet_sets_global, validate_hull

    generators: dict[str, Callable] = {
        "ball": _points.uniform_ball,
        "cube": _points.uniform_cube,
        "sphere": _points.on_sphere,
        "gaussian": _points.gaussian,
    }
    pts = generators[workload](n, d, seed=seed)
    order = np.random.default_rng(seed + 1).permutation(n)
    plan = FaultPlan(seed=seed, crash_rate=crash_rate, delay_rate=delay_rate)

    base = parallel_hull(pts, order=order.copy(), executor=RoundExecutor())
    if executor_kind == "rounds":
        run = parallel_hull(
            pts, order=order.copy(), executor=RoundExecutor(), fault_plan=plan
        )
    elif executor_kind == "threads":
        run = parallel_hull(
            pts, order=order.copy(),
            executor=ChaosThreadExecutor(n_workers, plan=plan),
            multimap="cas",
        )
    else:
        raise ValueError(f"unknown executor_kind {executor_kind!r}")
    validate_hull(run.facets, run.points)
    same = facet_sets_global(run.facets, run.order) == facet_sets_global(
        base.facets, base.order
    )
    s = run.exec_stats
    return {
        "workload": workload, "n": n, "d": d, "seed": seed,
        "executor": executor_kind,
        "crash_rate": crash_rate, "delay_rate": delay_rate,
        "same_facets": bool(same),
        "rounds": s.rounds, "rollbacks": s.rollbacks,
        "round_attempts": s.round_attempts,
        "checkpoints": s.checkpoints,
        "retries": s.retries, "worker_deaths": s.worker_deaths,
        "tasks_aborted": s.tasks_aborted, "tasks_delayed": s.tasks_delayed,
        "tasks_executed": s.tasks_executed,
        "faults_fired": plan.counts(),
        "baseline_rounds": base.exec_stats.rounds,
        "ok": bool(same),
    }


# ---------------------------------------------------------------------------
# The bundled suite behind `repro chaos`
# ---------------------------------------------------------------------------

#: Per-budget knobs: (stall sweeps, roundtrip instances).
_BUDGETS: dict[str, dict[str, Any]] = {
    "small": {
        "sweeps": [dict(n_ops=2, prefix_len=4, max_stall=6)],
        "rounds": [dict(n=80, d=2, crash_rate=0.2, delay_rate=0.1)],
        "threads": [dict(n=60, d=2, crash_rate=0.15, n_workers=2)],
    },
    "medium": {
        "sweeps": [dict(n_ops=2, prefix_len=6, max_stall=8),
                   dict(n_ops=3, prefix_len=4, max_stall=6)],
        "rounds": [dict(n=200, d=2, crash_rate=0.1),
                   dict(n=150, d=3, crash_rate=0.3, delay_rate=0.1)],
        "threads": [dict(n=150, d=2, crash_rate=0.2, n_workers=3)],
    },
    "large": {
        "sweeps": [dict(n_ops=2, prefix_len=8, max_stall=10),
                   dict(n_ops=3, prefix_len=5, max_stall=8)],
        "rounds": [dict(n=400, d=2, crash_rate=0.1),
                   dict(n=300, d=3, crash_rate=0.2, delay_rate=0.2),
                   dict(n=200, d=2, crash_rate=0.4)],
        "threads": [dict(n=250, d=2, crash_rate=0.25, n_workers=4)],
    },
}

#: CLI executor-filter values -> roundtrip families in :data:`_BUDGETS`.
_EXECUTOR_FAMILIES = {"rounds": "rounds", "thread": "threads"}


@dataclass
class ChaosSuiteReport:
    """Everything `repro chaos` ran and observed."""

    seed: int
    budget: str
    stall_sweeps: list[StallSweepSummary] = field(default_factory=list)
    roundtrips: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (all(s.ok for s in self.stall_sweeps)
                and all(r["ok"] for r in self.roundtrips))

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "ok": self.ok,
            "stall_sweeps": [
                {"impl": s.impl, "runs": s.runs,
                 "stall_points": s.stall_points, "ok": s.ok,
                 "failures": s.failures[:5]}
                for s in self.stall_sweeps
            ],
            "roundtrips": self.roundtrips,
        }


def run_chaos_suite(
    seed: int = 0, budget: str = "small", executor: str | None = None
) -> ChaosSuiteReport:
    """The `repro chaos` suite: stall sweeps over both multimaps, then
    checkpoint-resume and worker-crash hull roundtrips.

    ``executor`` restricts the roundtrips to one family (``"rounds"``
    or ``"thread"``) and skips the executor-independent stall sweeps --
    the `repro chaos --executor` knob.  With ``None`` everything runs.
    """
    if budget not in _BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; choose from {sorted(_BUDGETS)}")
    if executor is not None and executor not in _EXECUTOR_FAMILIES:
        raise ValueError(
            f"unknown executor {executor!r}; choose from "
            f"{sorted(_EXECUTOR_FAMILIES)}"
        )
    knobs = _BUDGETS[budget]
    report = ChaosSuiteReport(seed=seed, budget=budget)
    if executor is None:
        for impl in ("cas", "tas"):
            for sweep_kw in knobs["sweeps"]:
                report.stall_sweeps.append(
                    sweep_stalled_multimap(impl, **sweep_kw)
                )
    families = ([_EXECUTOR_FAMILIES[executor]] if executor is not None
                else ["rounds", "threads"])
    offsets = {"rounds": 0, "threads": 100}
    for family in families:
        for i, kw in enumerate(knobs[family]):
            report.roundtrips.append(chaos_hull_roundtrip(
                seed=seed + offsets[family] + i, executor_kind=family, **kw
            ))
    return report
