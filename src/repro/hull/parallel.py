"""Algorithm 3: the parallel randomized incremental convex hull.

The algorithm runs the *same* computation as the sequential Algorithm 2
-- same facets created, same visibility tests -- but drives it from
ridges instead of points.  A ``ProcessRidge(t1, r, t2)`` call inspects
the conflict pivots of the two facets sharing ridge ``r`` and takes one
of the paper's four actions:

1. both conflict sets empty  -> the ridge is *final* (on the output hull);
2. equal pivots              -> both facets are *buried* by that pivot;
3. pivot of ``t2`` earlier   -> flip and re-dispatch (symmetry);
4. pivot ``p`` of ``t1`` earlier -> ``{t1, t2}`` supports the new facet
   ``t = r + p`` (Fact 5.2): create it, *replace* ``t1``, and recurse on
   the ridges of ``t`` -- the creation ridge directly against ``t2``,
   every other ridge through the multimap ``M`` (the second facet to
   register on a ridge becomes responsible for it).

Everything is recorded into a :class:`ParallelHullRun`: the support DAG
(the configuration dependence graph of Definition 4.1 restricted to
created facets), per-facet rounds, counters, and a work-span task log.

By default :func:`parallel_hull` runs these rounds on the conflict-list
SoA engine (:mod:`repro.hull.soa`) and adapts its columns into that
record.  This module's per-facet task driver is the scalar oracle, and
the only driver of executors, the CAS/TAS multimaps and fault plans;
:func:`check_engine` decides which one a call runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..geometry.noisy import NoisyKernel
from ..geometry.simplex import Facet, Ridge, facet_ridges
from ..runtime.executors import ExecutionStats, RoundExecutor, SerialExecutor, ThreadExecutor
from ..runtime.faults import FaultPlan
from ..runtime.multimap import CASMultimap, DictMultimap, TASMultimap
from ..runtime.workspan import WorkSpanTracker
from .common import Counters, FacetFactory, setup_run
from .sequential import HullQueries, bootstrap_faces

__all__ = [
    "RidgeTask", "Event", "ParallelHullRun", "check_engine", "parallel_hull",
    "space_accounting",
]

_INF = np.iinfo(np.int64).max


@dataclass(frozen=True)
class RidgeTask:
    """One pending ``ProcessRidge(t1, r, t2)`` call."""

    t1: Facet
    ridge: Ridge
    t2: Facet
    tracker_tid: int  # work-span task id of this call


@dataclass(frozen=True)
class Event:
    """Trace record (consumed by the Figure 1 walkthrough and tests).

    ``kind`` is one of ``"final" | "bury" | "create"``; for ``create``,
    ``created`` is the new facet id and ``removed`` the replaced one;
    for ``bury`` both buried ids are in ``removed_pair``.
    """

    kind: str
    round: int
    ridge: Ridge
    created: int = -1
    removed: int = -1
    removed_pair: tuple[int, int] = (-1, -1)
    pivot: int = -1


@dataclass
class ParallelHullRun(HullQueries):
    """Full instrumented outcome of a parallel hull run."""

    points: np.ndarray
    order: np.ndarray
    facets: list[Facet]                    # alive facets (the hull)
    created: list[Facet]                   # every facet ever created, by fid
    support: dict[int, tuple[int, int]]    # fid -> (t1.fid, t2.fid) support pair
    pivots: dict[int, int]                 # fid -> conflict pivot that created it
    rounds: dict[int, int]                 # fid -> execution round of creation
    events: list[Event]
    counters: Counters
    exec_stats: ExecutionStats
    tracker: WorkSpanTracker
    interior: np.ndarray
    base_size: int

    def created_keys(self) -> set:
        return {f.key() for f in self.created}

    def _depths(self) -> dict[int, int]:
        """Every created facet's depth in the configuration dependence
        graph (Definition 4.1): base facets have depth 0; a created
        facet sits one level below the deeper of its two support
        facets.  Facet ids ascend along support edges, so a single pass
        suffices."""
        depth: dict[int, int] = {}
        for f in self.created:
            sup = self.support.get(f.fid)
            depth[f.fid] = 0 if sup is None else 1 + max(depth[sup[0]], depth[sup[1]])
        return depth

    def dependence_depth(self) -> int:
        """Longest path in the configuration dependence graph."""
        return max(self._depths().values(), default=0)

    def depth_profile(self) -> dict[int, int]:
        """Histogram: dependence depth -> number of facets at it."""
        return dict(Counter(self._depths().values()))


class _SoAParallelRun(ParallelHullRun):
    """A :class:`ParallelHullRun` over a finished SoA run's columns.

    ``points``, ``order``, ``counters``, ``exec_stats``, ``tracker``,
    ``interior`` and ``base_size`` are the SoA run's own.  The object
    fields -- ``facets``, ``created``, ``support``, ``pivots``,
    ``rounds`` and ``events`` -- are built on first read, each once, so
    a caller that reads only the hull pays for the alive facets alone.
    """

    def __init__(self, run, exact_planes: dict, frontier_log: list[tuple]):
        self.points = run.points
        self.order = run.order
        self.counters = run.counters
        self.exec_stats = run.exec_stats
        self.tracker = run.tracker
        self.interior = run.interior
        self.base_size = run.base_size
        self._soa = run
        self._exact_planes = exact_planes   # fid -> scalar-ladder plane, every row
        self._frontier_log = frontier_log   # (t1, t2, ridge rows) of every round

    @cached_property
    def facets(self) -> list[Facet]:
        return self._soa.facets

    def dependence_depth(self) -> int:
        # The same longest path, from the columns: no facet is built.
        return self._soa.dependence_depth()

    def depth_profile(self) -> dict[int, int]:
        return self._soa.depth_profile()

    @cached_property
    def created(self) -> list[Facet]:
        # Alive rows are the facets objects; buried rows are built from
        # the same columns, with the scalar-ladder planes of every row.
        src = self._soa._facet_source(self._exact_planes)
        alive = iter(self.facets)
        return [next(alive) if a else src.facet(fid)
                for fid, a in enumerate(self._soa.created_alive.tolist())]

    @cached_property
    def support(self) -> dict[int, tuple[int, int]]:
        return {
            fid: (s[0], s[1])
            for fid, s in enumerate(self._soa.support.tolist()) if s[0] >= 0
        }

    @cached_property
    def pivots(self) -> dict[int, int]:
        return {
            fid: p for fid, p in enumerate(self._soa.pivot_points.tolist()) if p >= 0
        }

    @cached_property
    def rounds(self) -> dict[int, int]:
        return {
            fid: max(0, r - 1)
            for fid, r in enumerate(self._soa.rounds_created.tolist())
        }

    @cached_property
    def events(self) -> list[Event]:
        # Each logged round re-classifies its frontier from the facets'
        # conflict pivots (the head of each conflict window, immutable
        # once written), exactly as the engine did: equal pivots are
        # final (both windows empty) or bury, the rest create, in
        # frontier order, the k-th creation taking the round's k-th new
        # fid.  Event rounds use the object driver's numbering (the
        # bootstrap frontier is round 0, the engine's round 1).
        soa = self._soa
        lens = soa.conflict_lens
        nz = lens > 0
        pivot = np.full(lens.shape[0], _INF, dtype=np.int64)
        pivot[nz] = soa.conflict_pool[(np.cumsum(lens) - lens)[nz]]
        fid0 = np.searchsorted(
            soa.rounds_created, np.arange(1, len(self._frontier_log) + 1))
        events: list[Event] = []
        for rnd, (t1, t2, rows) in enumerate(self._frontier_log):
            b1, b2 = pivot.take(t1), pivot.take(t2)
            create = b1 != b2
            created = (int(fid0[rnd]) - 1 + np.cumsum(create)).tolist()
            removed = np.where(b2 < b1, t2, t1).tolist()
            piv = np.minimum(b1, b2).tolist()
            for i, (c, a, b, row) in enumerate(zip(
                create.tolist(), t1.tolist(), t2.tolist(), rows.tolist()
            )):
                ridge = frozenset(row)
                if c:
                    events.append(Event(
                        kind="create", round=rnd, ridge=ridge,
                        created=created[i], removed=removed[i], pivot=piv[i],
                    ))
                elif piv[i] == _INF:
                    events.append(Event(kind="final", round=rnd, ridge=ridge))
                else:
                    events.append(Event(
                        kind="bury", round=rnd, ridge=ridge,
                        removed_pair=(a, b), pivot=piv[i],
                    ))
        return events


def _soa_parallel_run(
    points: np.ndarray,
    order: np.ndarray | None,
    seed: int | None,
    base_size: int | None,
    kernel: NoisyKernel | None,
) -> ParallelHullRun:
    """Run the conflict-list SoA engine and adapt its column state into
    a :class:`ParallelHullRun`.

    The adapter is lazy: it keeps the finished run's columns, the
    engine's scalar-ladder planes and its frontier log (the frontier
    arrays each round consumed), and builds nothing more until a field
    is read.  ``facets`` builds the alive rows only (through
    :attr:`SoAHullRun.facets`); ``created`` builds every row once,
    sharing the alive ones with ``facets``; ``support``, ``pivots``,
    ``rounds``, ``events``, ``dependence_depth()`` and
    ``depth_profile()`` come from the columns and the log.
    Determinism makes the run facet- and conflict-identical to the
    object driver's, with the same supports, pivots, rounds and
    per-round events; only the order within a round differs (events
    come in the engine's frontier order), and with it the facet ids
    and the ``flips`` counter.  Use
    :func:`repro.hull.soa.soa_hull` when the column form is enough.
    """
    from .soa import SoAHullEngine  # local: soa imports this module's peers

    eng = SoAHullEngine(
        points, order=order, seed=seed, kernel=kernel, base_size=base_size
    )
    while eng.step_round():
        pass
    return _SoAParallelRun(eng.finish(), eng._exact_planes, eng.frontier_log)


def check_engine(
    engine: str | None,
    executor: SerialExecutor | RoundExecutor | ThreadExecutor | None = None,
    multimap: str = "dict",
    fault_plan: FaultPlan | None = None,
) -> str:
    """Return the engine a hull call with these execution arguments
    runs on, or raise ``ValueError``.

    ``engine=None`` means ``"soa"``, the round-vectorized conflict-list
    engine, unless the call passes an executor (any, even a plain
    :class:`RoundExecutor`), a multimap other than ``"dict"`` or a fault
    plan: those are Algorithms 4-5 and the chaos layer, which only the
    object driver runs, so then it means ``"objects"``.  ``"soa"`` is
    round-synchronous, runs each round in frontier order and pairs
    ridges by sort, so it takes no executor but an unseeded
    :class:`RoundExecutor`, only the ``"dict"`` multimap, and no fault
    plan.  ``"objects"`` takes the ``"dict"``, ``"cas"`` or ``"tas"``
    multimap, but not ``"dict"`` under a :class:`ThreadExecutor`, and a
    fault plan only under a :class:`RoundExecutor` (its default
    executor).  :func:`parallel_hull`,
    :func:`~repro.hull.robust.robust_hull` and ``repro hull`` all call
    it before any work, so a bad argument raises instead of reading as
    a rung's geometric failure."""
    if engine is None:
        objects_only = (
            executor is not None or multimap != "dict" or fault_plan is not None
        )
        engine = "objects" if objects_only else "soa"
    if engine == "soa":
        if executor is not None and not isinstance(executor, RoundExecutor):
            raise ValueError(
                "engine='soa' is round-synchronous by construction; pass "
                "executor=None (or a plain RoundExecutor)"
            )
        if getattr(executor, "_rng", None) is not None:
            raise ValueError(
                "engine='soa' runs each round in frontier order and cannot "
                "shuffle it; a seeded RoundExecutor needs engine='objects'"
            )
        if multimap != "dict":
            raise ValueError(
                "engine='soa' pairs ridges by sort, not a shared multimap; "
                "multimap must stay 'dict'"
            )
        if fault_plan is not None:
            raise ValueError(
                "engine='soa' does not take a fault_plan; drive faults "
                "through SoAHullEngine.snapshot()/restore() instead"
            )
    elif engine == "objects":
        if multimap == "dict" and isinstance(executor, ThreadExecutor):
            raise ValueError("the dict multimap is not safe under ThreadExecutor; "
                             "use multimap='cas' or 'tas'")
        if multimap not in ("dict", "cas", "tas"):
            raise ValueError(f"unknown multimap kind {multimap!r}")
        if fault_plan is not None and executor is not None and not isinstance(
            executor, RoundExecutor
        ):
            raise ValueError(
                "fault_plan requires a RoundExecutor (checkpoint-resume is "
                "round-synchronous); for thread chaos pass a "
                "repro.runtime.chaos.ChaosThreadExecutor as the executor"
            )
    else:
        raise ValueError(f"unknown engine {engine!r}; use 'objects' or 'soa'")
    return engine


def parallel_hull(
    points: np.ndarray,
    order: np.ndarray | None = None,
    seed: int | None = None,
    executor: SerialExecutor | RoundExecutor | ThreadExecutor | None = None,
    multimap: str = "dict",
    base_size: int | None = None,
    fault_plan: FaultPlan | None = None,
    kernel: NoisyKernel | None = None,
    engine: str | None = None,
) -> ParallelHullRun:
    """Run Algorithm 3 on ``points``.

    By default the run is the conflict-list SoA engine's
    (:mod:`repro.hull.soa`), adapted into a :class:`ParallelHullRun`;
    the execution arguments below select this module's per-facet object
    driver, the scalar oracle (see ``engine``).

    Parameters
    ----------
    points, order, seed:
        As in :func:`repro.hull.sequential.sequential_hull`; the same
        ``order`` makes the two algorithms comparable facet-for-facet.
    executor:
        Execution discipline of the object driver (when left out, it
        runs a :class:`RoundExecutor`, whose round count realises the
        dependence-depth bound).  Every executor runs in this process.
    multimap:
        ``"dict"`` (sequential reference, only valid with deterministic
        executors), ``"cas"`` (Algorithm 4) or ``"tas"`` (Algorithm 5).
    base_size:
        Bootstrap hull size; defaults to ``d + 1`` per the paper.
    fault_plan:
        When given (with a :class:`RoundExecutor`), run the round loop
        under fault injection: every round is checkpointed (frontier,
        multimap, engine state), crash faults abort a ``ProcessRidge``
        call after its work but before its children commit, and the
        round rolls back to its checkpoint and resumes.  Delay faults
        defer a task to the next round.  The surviving hull is
        bit-identical in facet structure to the fault-free run; the
        retry/rollback counters land in ``exec_stats``.  For thread
        chaos use :class:`repro.runtime.chaos.ChaosThreadExecutor`
        directly.
    kernel:
        ``None`` or a :class:`~repro.geometry.noisy.NoisyKernel`, which
        perturbs each visibility decision at its seeded flip rate (with
        majority-vote repair); anything else raises ``ValueError``.
        The noise model and vote counters land in
        ``exec_stats.kernel_stats``; ``counters`` and the work-span log
        stay noise-invariant (scalar-equivalent accounting).
    engine:
        Picks the driver, and with it the visibility path:
        ``"soa"`` (the round-vectorized conflict-list engine of
        :mod:`repro.hull.soa`, one flat sweep per round, adapted into a
        :class:`ParallelHullRun` whose object fields are built on first
        read; the run is facet- and conflict-identical to the object
        driver's) or ``"objects"`` (this module's per-facet task driver,
        one :meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask`
        call per facet -- the scalar oracle).  Left out (``None``), it
        is ``"soa"`` unless the call passes an ``executor``, a
        ``multimap`` other than ``"dict"`` or a ``fault_plan``, which
        only the object driver runs.  The SoA engine's ``tracker`` logs
        one task per round, so a caller that schedules the per-task
        work-span DAG (:func:`~repro.analysis.work.speedup_table`, the
        fork-join simulator) names ``engine="objects"``.
        :func:`check_engine` holds the rule.
    """
    if check_engine(engine, executor, multimap, fault_plan) == "soa":
        return _soa_parallel_run(points, order, seed, base_size, kernel)
    pts, order, base_size, interior = setup_run(points, order, seed, base_size)
    n, d = pts.shape
    counters = Counters()
    factory = FacetFactory(pts, interior, counters, kernel=kernel)
    tracker = WorkSpanTracker()

    if executor is None:
        executor = RoundExecutor()
    if multimap == "cas":
        M = CASMultimap(capacity=max(64, 8 * n * (d + 1)))
    elif multimap == "tas":
        M = TASMultimap(capacity=max(64, 8 * n * (d + 1)))
    else:
        M = DictMultimap()

    # The bootstrap hull's facets, with conflict sets over all later
    # points, made in one make_batch call.
    later = np.arange(base_size, n, dtype=np.int64)
    base_facets = factory.make_batch(
        [(idx, later) for idx in bootstrap_faces(pts, base_size)])

    created: list[Facet] = list(base_facets)
    support: dict[int, tuple[int, int]] = {}
    pivots: dict[int, int] = {}
    rounds: dict[int, int] = {f.fid: 0 for f in base_facets}
    creator_tid: dict[int, int] = {}
    events: list[Event] = []
    facets_by_fid: dict[int, Facet] = {f.fid: f for f in base_facets}

    import math

    def _logcost(w: int) -> int:
        return max(1, int(math.log2(w + 2)))

    for f in base_facets:
        cost = max(1, n - base_size)
        creator_tid[f.fid] = tracker.add_task(cost=cost, span_cost=_logcost(cost))

    # Seed: one ProcessRidge per ridge of the base hull (Lines 5-6).
    ridge_pairs: dict[Ridge, list[Facet]] = {}
    for f in base_facets:
        for r in facet_ridges(f.indices):
            ridge_pairs.setdefault(r, []).append(f)
    initial_tasks: list[RidgeTask] = []
    for r, pair in sorted(ridge_pairs.items(), key=lambda kv: sorted(kv[0])):
        if len(pair) != 2:
            raise AssertionError(f"base-hull ridge {set(r)} has {len(pair)} facets")
        t1, t2 = pair
        tid = tracker.add_task(
            cost=1, deps=(creator_tid[t1.fid], creator_tid[t2.fid])
        )
        initial_tasks.append(RidgeTask(t1=t1, ridge=r, t2=t2, tracker_tid=tid))

    round_counter = {"round": 0}

    # Round-transaction checkpointing for the fault-injected round
    # loop: a checkpoint captures everything a round can mutate, and
    # restore() rewinds to it so a failed round attempt leaves no trace
    # (crash consistency).
    def take_checkpoint(frontier: list[RidgeTask]) -> dict:
        return {
            "frontier": list(frontier),
            "created": list(created),
            "support": dict(support),
            "pivots": dict(pivots),
            "rounds": dict(rounds),
            "creator_tid": dict(creator_tid),
            "events": len(events),
            "facets_by_fid": dict(facets_by_fid),
            "alive": {fid: f.alive for fid, f in facets_by_fid.items()},
            "counters": counters.as_dict(),
            "fid_mark": factory.fid_checkpoint(),
            "tracker_mark": tracker.checkpoint(),
            "multimap": M.snapshot(),
        }

    def restore(ckpt: dict) -> list[RidgeTask]:
        created[:] = ckpt["created"]
        support.clear(); support.update(ckpt["support"])
        pivots.clear(); pivots.update(ckpt["pivots"])
        rounds.clear(); rounds.update(ckpt["rounds"])
        creator_tid.clear(); creator_tid.update(ckpt["creator_tid"])
        del events[ckpt["events"]:]
        facets_by_fid.clear(); facets_by_fid.update(ckpt["facets_by_fid"])
        for fid, was_alive in ckpt["alive"].items():
            facets_by_fid[fid].alive = was_alive
        counters.restore(ckpt["counters"])
        factory.fid_rollback(ckpt["fid_mark"])
        tracker.rollback(ckpt["tracker_mark"])
        M.restore(ckpt["multimap"])
        return list(ckpt["frontier"])

    def process(task: RidgeTask) -> Sequence[RidgeTask]:
        t1, r, t2 = task.t1, task.ridge, task.t2
        counters.ridges_processed += 1
        rnd = round_counter["round"]
        b1 = t1.pivot if t1.conflicts.size else _INF
        b2 = t2.pivot if t2.conflicts.size else _INF

        # Case 1: no conflicts on either side -- the ridge is final.
        if b1 == _INF and b2 == _INF:
            events.append(Event(kind="final", round=rnd, ridge=r))
            return ()
        # Case 2: equal pivots -- the pivot buries both facets.
        if b1 == b2:
            t1.alive = False
            t2.alive = False
            counters.facets_buried += 2
            events.append(
                Event(kind="bury", round=rnd, ridge=r,
                      removed_pair=(t1.fid, t2.fid), pivot=int(b1))
            )
            return ()
        # Case 3: symmetry flip (Line 11-12).
        if b2 < b1:
            t1, t2 = t2, t1
            b1, b2 = b2, b1
            counters.flips += 1
        # Case 4: {t1, t2} supports the facet t = r + p with p = min C(t1).
        p = int(b1)
        candidates = FacetFactory.merge_candidates(t1.conflicts, t2.conflicts, above=p)
        t = factory.make(tuple(r | {p}), candidates)
        support[t.fid] = (t1.fid, t2.fid)
        pivots[t.fid] = p
        rounds[t.fid] = rnd
        creator_tid[t.fid] = task.tracker_tid
        created.append(t)
        facets_by_fid[t.fid] = t
        t1.alive = False
        counters.facets_replaced += 1
        events.append(
            Event(kind="create", round=rnd, ridge=r,
                  created=t.fid, removed=t1.fid, pivot=p)
        )

        children: list[RidgeTask] = []
        for r2 in facet_ridges(t.indices):
            if r2 == r:
                # The creation ridge is immediately ready against t2.
                tid = tracker.add_task(
                    cost=len(candidates) + 1,
                    deps=(creator_tid[t.fid], creator_tid[t2.fid]),
                    span_cost=_logcost(len(candidates)),
                )
                children.append(RidgeTask(t1=t, ridge=r2, t2=t2, tracker_tid=tid))
            elif not M.insert_and_set(r2, t):
                t_other = M.get_value(r2, t)
                tid = tracker.add_task(
                    cost=len(candidates) + 1,
                    deps=(creator_tid[t.fid], creator_tid[t_other.fid]),
                    span_cost=_logcost(len(candidates)),
                )
                children.append(
                    RidgeTask(t1=t, ridge=r2, t2=t_other, tracker_tid=tid)
                )
        return children

    def run_rounds(plan: FaultPlan | None) -> ExecutionStats:
        # The round loop runs inline so the trace can stamp each event
        # with its synchronous round number.  Under a fault plan each
        # round is a transaction: a crash fault kills a ProcessRidge
        # call *after* its work (facet creation, multimap registration,
        # counters) but before its children commit -- at-least-once
        # semantics -- so the round rolls back to its checkpoint and
        # re-executes.  Faults are one-shot per ridge site, which bounds
        # rollbacks by the number of distinct fault sites and guarantees
        # termination.
        stats = ExecutionStats()
        frontier: list[RidgeTask] = list(initial_tasks)
        rng = getattr(executor, "_rng", None)
        while frontier:
            if rng is not None:
                idx = rng.permutation(len(frontier))
                frontier = [frontier[i] for i in idx]
            if plan is not None:
                ckpt = take_checkpoint(frontier)
                stats.checkpoints += 1
            nxt: list[RidgeTask] = []
            executed_this_attempt = 0
            aborted = False
            for task in frontier:
                if plan is not None:
                    site = "ridge:" + "-".join(str(i) for i in sorted(task.ridge))
                    if plan.should_delay(site):
                        stats.tasks_delayed += 1
                        nxt.append(task)  # deferred, not lost: next round
                        continue
                stats.tasks_executed += 1
                executed_this_attempt += 1
                children = process(task)
                if plan is not None and plan.should_crash(site):
                    stats.tasks_aborted += 1
                    aborted = True
                    break
                nxt.extend(children)
            if aborted:
                frontier = restore(ckpt)
                stats.rollbacks += 1
                stats.retries += executed_this_attempt
                continue
            stats.rounds += 1
            stats.round_sizes.append(len(frontier))
            frontier = nxt
            round_counter["round"] += 1
        return stats

    if isinstance(executor, RoundExecutor):
        exec_stats = run_rounds(fault_plan)
    else:
        exec_stats = executor.run(initial_tasks, process)

    exec_stats.kernel_stats = factory.kernel_snapshot()
    alive = sorted((f for f in facets_by_fid.values() if f.alive), key=lambda f: f.fid)
    created_sorted = sorted(created, key=lambda f: f.fid)
    return ParallelHullRun(
        points=pts,
        order=order,
        facets=alive,
        created=created_sorted,
        support=support,
        pivots=pivots,
        rounds=rounds,
        events=events,
        counters=counters,
        exec_stats=exec_stats,
        tracker=tracker,
        interior=interior,
        base_size=base_size,
    )


def space_accounting(run: ParallelHullRun) -> dict:
    """Space usage per the paper's Section 5.2 note: the hash tables and
    conflict sets take space proportional to the work.  Returns the
    measured totals so the claim is checkable."""
    total_conflicts = sum(int(f.conflicts.size) for f in run.created)
    return {
        "facets_created": len(run.created),
        "total_conflict_entries": total_conflicts,
        "visibility_tests": run.counters.visibility_tests,
        # Space proportional to work: conflict entries never exceed the
        # tests that produced them.
        "entries_per_test": total_conflicts / max(1, run.counters.visibility_tests),
    }
