"""Parallel-runtime substrate: atomic primitives, the concurrent
multimap of Algorithms 4/5, adversarial interleaving, work-span
accounting, and pluggable task executors."""

from .atomics import AtomicCell, AtomicCounter, AtomicFlag, Mutex
from .backoff import BackoffPolicy
from .chaos import (
    ChaosThreadExecutor,
    StallSweepSummary,
    chaos_hull_roundtrip,
    run_chaos_suite,
    sweep_stalled_multimap,
)
from .executors import ExecutionStats, RoundExecutor, SerialExecutor, ThreadExecutor
from .faults import FaultEvent, FaultPlan, RetryBudgetExceeded
from .forkjoin import StealStats, simulate_work_stealing
from .interleave import OpResult, all_schedules, run_interleaved, run_schedule
from .pram import PRAM, ParallelHashTable, compact, log_star, pram_min, prefix_sum
from .multimap import CASMultimap, DictMultimap, MultimapFullError, TASMultimap
from .racecheck import CheckSummary, RaceChecker, RaceReport, check_multimap
from .workspan import ScheduleResult, TaskLog, WorkSpanTracker

__all__ = [
    "AtomicCell",
    "AtomicCounter",
    "AtomicFlag",
    "Mutex",
    "BackoffPolicy",
    "ChaosThreadExecutor",
    "StallSweepSummary",
    "chaos_hull_roundtrip",
    "run_chaos_suite",
    "sweep_stalled_multimap",
    "FaultEvent",
    "FaultPlan",
    "RetryBudgetExceeded",
    "CheckSummary",
    "RaceChecker",
    "RaceReport",
    "check_multimap",
    "ExecutionStats",
    "RoundExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "StealStats",
    "simulate_work_stealing",
    "OpResult",
    "all_schedules",
    "run_interleaved",
    "run_schedule",
    "PRAM",
    "ParallelHashTable",
    "compact",
    "log_star",
    "pram_min",
    "prefix_sum",
    "CASMultimap",
    "DictMultimap",
    "MultimapFullError",
    "TASMultimap",
    "ScheduleResult",
    "TaskLog",
    "WorkSpanTracker",
]
