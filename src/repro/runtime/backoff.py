"""Retry-backoff policy for the fault-tolerant thread executor.

The supervisor of :class:`~repro.runtime.chaos.ChaosThreadExecutor`
re-dispatches work lost to a dead worker thread.  Naive retry loops
hammer a struggling pool: a supervisor that retries "in 2 ms, always"
synchronises its re-dispatches with every other retry in flight.  The
standard remedy is exponential backoff with jitter, and this module is
its one implementation.

Design constraints inherited from the chaos substrate:

* **Deterministic.**  A chaos run must replay exactly from its seed, so
  the jitter cannot come from a mutable RNG stream whose consumption
  order depends on thread timing.  Like :class:`~repro.runtime.faults.FaultPlan`,
  the jitter is a keyed blake2b hash of ``(seed, site, attempt)`` -- a
  pure function, stable across processes and schedules.
* **Monotone.**  ``delay(attempt)`` must not shrink as ``attempt``
  grows (tests pin this), which holds whenever
  ``factor >= 1 + jitter``: the un-jittered delay grows by ``factor``
  while jitter adds at most ``jitter * delay``.
* **Capped.**  Delays saturate at ``cap`` so a long retry chain cannot
  stall a supervisor for seconds.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

__all__ = ["BackoffPolicy"]


def _unit_hash(seed: int, site: str, attempt: int) -> float:
    """Uniform float in [0, 1) from a keyed hash (process-stable)."""
    digest = hashlib.blake2b(
        f"{seed}|backoff|{site}|{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with seeded jitter and a hard cap.

    ``delay(attempt, site)`` for attempt 0, 1, 2, ... is

        ``min(base * factor**attempt * (1 + jitter * u), cap)``

    where ``u = hash(seed, site, attempt) in [0, 1)``.  Distinct sites
    draw distinct jitter streams, which is the point: two chunks lost
    to the same worker death fan their retries out instead of
    re-colliding.
    """

    base: float = 0.002
    factor: float = 2.0
    cap: float = 0.05
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base must be >= 0")
        if self.cap < self.base:
            raise ValueError("cap must be >= base")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.factor < 1.0 + self.jitter:
            # The monotonicity guarantee (see module docstring).
            raise ValueError("factor must be >= 1 + jitter for monotone delays")

    def delay(self, attempt: int, site: str = "") -> float:
        """Seconds to wait before re-dispatching ``site`` for the
        ``attempt``-th time (0-based; attempt 0 is the first retry)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        raw = self.base * self.factor ** attempt
        jit = raw * self.jitter * _unit_hash(self.seed, site, attempt)
        return min(raw + jit, self.cap)

    def sleep(self, attempt: int, site: str = "") -> float:
        """Sleep the computed delay; returns it (for stats)."""
        d = self.delay(attempt, site)
        if d > 0:
            time.sleep(d)
        return d
