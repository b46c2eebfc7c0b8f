"""Deterministic fault plans for chaos testing the parallel runtime.

The paper's binary-forking results (Theorem 5.5, Appendix A) rest on the
concurrent structures being *lock-free*: a process that stalls or dies
mid-operation must never block system-wide progress.  The interleave
simulator explores adversarial schedules, but every operation in it runs
to completion -- so the lock-freedom obligation is never actually
exercised.  This module supplies the missing failure model.

A :class:`FaultPlan` is the single source of truth for which faults
fire.  Every decision is a pure function of ``(seed, kind, site)`` --
a keyed hash, not a mutable RNG stream -- so a chaos run is exactly
reproducible from its seed regardless of schedule, thread timing, or
the order in which decisions are queried.  A fired fault never
re-fires (one shot per site), which is what makes retry loops and
checkpoint-resume provably terminate: each rollback disarms at least
one fault, and the number of fault sites is finite.

Fault kinds
-----------

``crash``
    The acting process dies.  In the round-synchronous executor the
    ``ProcessRidge`` call aborts *after* doing its work but before
    committing its children (at-least-once semantics; the round rolls
    back to its checkpoint).  In the thread executor the worker dies
    right after dequeuing (the task is lost and must be re-dispatched).
``delay``
    The action is postponed but not lost (a slow worker): a round task
    is deferred to the next round, a thread worker sleeps briefly.

A *stalled* process -- one frozen forever at a yield point -- is not a
plan kind: :func:`repro.runtime.chaos.sweep_stalled_multimap` freezes
every multimap operation at every yield point through
:func:`repro.runtime.interleave.run_schedule` and checks that every
*other* operation still completes (the lock-freedom obligation).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = [
    "CRASH",
    "DELAY",
    "FAULT_KINDS",
    "RetryBudgetExceeded",
    "FaultEvent",
    "FaultPlan",
    "unit_hash",
    "unit_hash_attempt",
]

CRASH = "crash"
DELAY = "delay"
FAULT_KINDS = (CRASH, DELAY)


class RetryBudgetExceeded(RuntimeError):
    """A task failed more times than the executor's retry bound allows."""


@dataclass(frozen=True)
class FaultEvent:
    """Record of one fault that actually fired."""

    kind: str
    site: str


def _unit_hash(seed: int, kind: str, site: str) -> float:
    """Map ``(seed, kind, site)`` to a uniform float in [0, 1).

    Uses blake2b rather than ``hash()`` so decisions are stable across
    processes (``hash`` of strings is salted per interpreter run).
    """
    digest = hashlib.blake2b(
        f"{seed}|{kind}|{site}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


#: Public alias -- the keyed coin shared by every seeded-fault consumer
#: (chaos plans, backoff jitter, the noisy predicate oracle).
unit_hash = _unit_hash


def unit_hash_attempt(seed: int, kind: str, site: str, attempt: int) -> float:
    """Uniform float in [0, 1) keyed by ``(seed, kind, site, attempt)``.

    Distinct ``attempt`` indices on the same site draw *independent*
    coins -- the property majority-vote repetition relies on.  The site
    is length-prefixed in the hashed payload, so the encoding is
    injective: no ``(site, attempt)`` pair can replay the digest of
    another (e.g. ``("a1", 1)`` vs ``("a", 11)``, which naive string
    concatenation would alias).
    """
    digest = hashlib.blake2b(
        f"{seed}|{kind}|{len(site)}:{site}|{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass
class FaultPlan:
    """A seeded, deterministic assignment of faults to sites.

    ``site`` strings name injection points ("ridge:2-5", "dispatch:17",
    ...).  ``decide(kind, site)`` fires iff the keyed hash of
    ``(seed, kind, site)`` falls under that kind's rate, the site has
    not fired that kind before, and the total fault budget
    (``max_faults``, ``None`` = unbounded) is not exhausted.  Fired
    faults are recorded in :attr:`events` for test assertions and the
    E17 experiment log.
    """

    seed: int = 0
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    max_faults: int | None = None
    events: list[FaultEvent] = field(default_factory=list)
    _fired: set[tuple[str, str]] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = self.rate(kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be >= 0 or None")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The no-op plan: never fires anything."""
        return cls(seed=0)

    def rate(self, kind: str) -> float:
        try:
            return {CRASH: self.crash_rate, DELAY: self.delay_rate}[kind]
        except KeyError:
            raise ValueError(f"unknown fault kind {kind!r}") from None

    # -- decisions ---------------------------------------------------------

    def would_fire(self, kind: str, site: str) -> bool:
        """The pure coin for ``(kind, site)`` -- no budget, no one-shot
        bookkeeping.  Exposed for tests and for planning sweeps."""
        return _unit_hash(self.seed, kind, site) < self.rate(kind)

    def decide(self, kind: str, site: str) -> bool:
        """Fire-once decision: records the event when it fires."""
        key = (kind, site)
        if key in self._fired:
            return False
        if self.max_faults is not None and len(self.events) >= self.max_faults:
            return False
        if not self.would_fire(kind, site):
            return False
        self._fired.add(key)
        self.events.append(FaultEvent(kind=kind, site=site))
        return True

    def should_crash(self, site: str) -> bool:
        return self.decide(CRASH, site)

    def should_delay(self, site: str) -> bool:
        return self.decide(DELAY, site)

    # -- reporting ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Fired-fault histogram by kind (zero-filled)."""
        out = {kind: 0 for kind in FAULT_KINDS}
        for ev in self.events:
            out[ev.kind] += 1
        return out

    def describe(self) -> str:
        c = self.counts()
        return (f"FaultPlan(seed={self.seed}, fired: "
                f"{c[CRASH]} crash / {c[DELAY]} delay)")
