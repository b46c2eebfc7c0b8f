"""Noisy predicate oracles: seeded sign flips with majority-vote repair.

Goodrich & Sridhar ("Optimal Parallel Algorithms for Convex Hulls in 2D
and 3D under Noisy Primitive Operations") study incremental hulls when
every primitive comparison *lies* with some fixed probability ``p`` --
a failure mode orthogonal to the crash/stall/kill plans of
:mod:`repro.runtime.faults`: the component answers promptly, and
wrongly.  This module reproduces that regime for the visibility
predicate (the unit of work Theorem 5.4 counts, and by far the dominant
predicate traffic of every hull in this repo).

:class:`NoisyKernel` is the one value the ``kernel=`` argument of the
hull drivers takes (besides ``None``): it perturbs each visibility
decision after the true sign is computed by whichever path the engine
already runs -- per-facet :meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask`
calls in the object drivers, the flat sweep
(:func:`~repro.geometry.kernels.visible_flat`) in the SoA engine.  The
noise needs only the true sign, so it adds no visibility path of its
own.  Three properties make the wrapper honest and testable:

* **Deterministic noise.** Every flip is a pure function of
  ``(seed, site, attempt)`` via the keyed blake2b idiom of
  :func:`repro.runtime.faults.unit_hash_attempt`: ``site`` names the
  decision (facet identity ``x`` point rank, plus an ``epoch`` that the
  escalation ladder bumps per retry so re-runs draw fresh errors) and
  ``attempt`` is the vote index.  A noisy run is exactly reproducible
  from its seed, independent of schedule or executor.
* **Independent repetitions.** Distinct vote indices hash
  independently (pinned by a regression test on ``unit_hash_attempt``),
  which is the hypothesis the paper's repetition strategy needs: with
  ``votes=k`` the kernel re-asks each question ``k`` times and returns
  the majority, driving the per-decision error from ``p`` to
  ``O(exp(-k))``.  ``votes="adaptive"`` instead runs the classic
  gambler's-ruin stopping rule -- keep voting until one side leads by
  ``L`` with ``(p/(1-p))^L <= confidence`` -- so easy decisions stay
  cheap and hard ones escalate, capped at ``max_votes``.
* **Exact identity at p=0.** With ``p == 0.0`` the wrapper returns the
  true masks untouched (no voting, no counters), so a zero-noise run is
  bit-identical to the noise-free run -- facet sets, fids, counters,
  and the work/span DAG (the differential suite pins this for every
  driver, the SoA engine included).

Scope (honest): only the *visibility/conflict* predicate is wrapped --
the ``visible_mask`` / ``visible_flat`` traffic that decides conflict
sets.  Plane construction, initial-simplex rank selection, validation
and certification stay exact; in particular the independent
:mod:`repro.hull.certify` checker shares no code with this module and
is what catches hulls the noise corrupted (the certificate-gated rung
of :func:`repro.hull.robust.robust_hull`).  Work accounting stays
scalar-equivalent: ``counters.visibility_tests`` counts *questions*,
while the per-vote overhead (the paper's work blow-up) lands in this
kernel's own counters, surfaced through ``exec_stats.kernel_stats``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..runtime.atomics import Mutex, ShardedCounter
from ..runtime.faults import unit_hash_attempt

__all__ = ["ADAPTIVE", "NoisyKernel", "parse_votes"]

#: Sentinel for the adaptive vote-escalation mode.
ADAPTIVE = "adaptive"

#: Fault-kind tag in the hash key (namespaces noisy coins away from the
#: crash/stall/... coins a chaos plan may draw on overlapping sites).
FLIP = "flip"


def parse_votes(text) -> int | str:
    """Parse a ``votes`` value from user input: a positive odd int or
    the string ``"adaptive"``."""
    if isinstance(text, str) and text.strip().lower() == ADAPTIVE:
        return ADAPTIVE
    try:
        votes = int(text)
    except (TypeError, ValueError):
        raise ValueError(
            f"votes must be a positive odd integer or 'adaptive', got {text!r}"
        ) from None
    return votes


class NoisyKernel:
    """A seeded lying oracle over the engine's true visibility masks.

    Parameters
    ----------
    p:
        Per-invocation flip probability, ``0 <= p < 0.5`` (at 0.5 the
        oracle carries no information and majority vote cannot help;
        the paper's analysis assumes the same bound).
    votes:
        Fixed repetition count (positive odd int; even counts are
        rejected so a majority always exists) or :data:`ADAPTIVE`.
    seed:
        Noise seed.  Same seed, same site, same attempt -> same flip,
        across processes and executors.
    epoch:
        Retry epoch, folded into every site string: the robust ladder
        bumps it per attempt so an escalated re-run draws independent
        errors instead of deterministically replaying the old ones.
    confidence:
        Adaptive mode's target per-decision error bound (gambler's-ruin
        lead ``L`` is the smallest with ``(p/(1-p))^L <= confidence``).
    max_votes:
        Hard cap on adaptive voting per decision (kept odd); at the cap
        the simple majority is returned.
    """

    def __init__(
        self,
        p: float,
        votes: int | str = 1,
        seed: int = 0,
        epoch: int = 0,
        confidence: float = 1e-3,
        max_votes: int = 33,
    ):
        p = float(p)
        if not 0.0 <= p < 0.5:
            raise ValueError(f"flip probability must be in [0, 0.5), got {p}")
        if votes != ADAPTIVE:
            votes = parse_votes(votes)
            if votes < 1 or votes % 2 == 0:
                raise ValueError(f"votes must be a positive odd integer, got {votes}")
        if not 0.0 < confidence < 0.5:
            raise ValueError(f"confidence must be in (0, 0.5), got {confidence}")
        if max_votes < 1:
            raise ValueError(f"max_votes must be >= 1, got {max_votes}")
        self.p = p
        self.votes = votes
        self.seed = int(seed)
        self.epoch = int(epoch)
        self.confidence = float(confidence)
        self.max_votes = int(max_votes) | 1  # keep odd: no majority ties
        self._decisions = ShardedCounter()
        self._votes_cast = ShardedCounter()
        self._flips = ShardedCounter()
        self._overruled = ShardedCounter()
        self._mutex = Mutex()
        self._peak_votes = 0

    # -- ladder plumbing ---------------------------------------------------

    def spawn(self, votes: int | str | None = None, epoch: int | None = None) -> "NoisyKernel":
        """A fresh kernel (fresh counters) with the same noise model,
        optionally at a different vote level / retry epoch -- what the
        robust ladder uses to escalate."""
        return NoisyKernel(
            p=self.p,
            votes=self.votes if votes is None else votes,
            seed=self.seed,
            epoch=self.epoch if epoch is None else epoch,
            confidence=self.confidence,
            max_votes=self.max_votes,
        )

    def rung_label(self) -> str:
        """The escalation-ladder rung name (epoch deliberately excluded:
        retries of the same level share the label and are told apart by
        the ladder's attempt counter)."""
        return f"noisy[p={self.p:g},votes={self.votes}]"

    def escalation_levels(self) -> list[int | str]:
        """Vote levels the certificate-gated ladder climbs through,
        starting from the requested one: fixed ``k`` escalates to
        ``2k+1`` and then to adaptive; adaptive has nowhere to climb
        (the next rung is the exact noise-free oracle)."""
        if self.votes == ADAPTIVE:
            return [ADAPTIVE]
        return [self.votes, 2 * self.votes + 1, ADAPTIVE]

    def lead_needed(self) -> int:
        """Gambler's-ruin stopping lead for the adaptive mode: the
        smallest ``L`` with ``(p/(1-p))^L <= confidence`` (a biased
        random walk that must drift ``L`` net steps the wrong way to
        fool the vote)."""
        if self.p <= 0.0:
            return 1
        ratio = self.p / (1.0 - self.p)  # < 1 because p < 0.5
        return max(1, math.ceil(math.log(self.confidence) / math.log(ratio)))

    # -- the lying oracle --------------------------------------------------

    def flip_fires(self, site: str, attempt: int) -> bool:
        """The pure coin: does invocation ``attempt`` of ``site`` lie?"""
        return unit_hash_attempt(self.seed, FLIP, f"{self.epoch}/{site}", attempt) < self.p

    def observe(self, site: str, truth: bool, attempt: int) -> bool:
        """One noisy invocation of the visibility primitive."""
        if self.flip_fires(site, attempt):
            self._flips.add(1)
            return not truth
        return truth

    def decide(self, site: str, truth: bool) -> bool:
        """The repaired decision: majority (or adaptive) vote over
        independent noisy invocations.  ``truth`` is the exact answer
        the engine computed; the caller never sees it directly
        once ``p > 0``."""
        truth = bool(truth)
        if self.p == 0.0:
            return truth
        self._decisions.add(1)
        if self.votes == ADAPTIVE:
            lead = self.lead_needed()
            tally = 0
            cast = 0
            while cast < self.max_votes:
                tally += 1 if self.observe(site, truth, cast) else -1
                cast += 1
                if abs(tally) >= lead:
                    break
            out = tally > 0
        else:
            cast = self.votes
            ayes = sum(
                1 for j in range(cast) if self.observe(site, truth, j)
            )
            out = 2 * ayes > cast
        self._votes_cast.add(cast)
        if cast > self._peak_votes:
            with self._mutex:
                self._peak_votes = max(self._peak_votes, cast)
        if out != truth:
            self._overruled.add(1)
        return out

    def noisy_masks(
        self,
        indices_list: Sequence[tuple[int, ...]],
        cand_list: Sequence[np.ndarray],
        masks: Sequence[np.ndarray],
    ) -> list[np.ndarray]:
        """Perturb a ragged block of true visibility masks, one per
        facet: ``indices_list[k]`` is facet ``k``'s sorted defining
        ranks and ``cand_list[k]`` its candidate ranks, which together
        name each decision's site.  Input masks are never mutated; with
        ``p == 0`` they are returned as-is (bit-identity fast path)."""
        if self.p == 0.0:
            return list(masks)
        out: list[np.ndarray] = []
        for idx, cands, mask in zip(indices_list, cand_list, masks):  # repro: noqa: RPRHOT001 - one keyed hash per (site, attempt); scalar by definition
            if not cands.size:
                out.append(mask)
                continue
            fkey = "-".join(str(i) for i in idx)
            noisy = np.fromiter(
                (
                    self.decide(f"{fkey}:{int(r)}", bool(v))
                    for r, v in zip(cands, mask)
                ),
                dtype=bool,
                count=int(cands.size),
            )  # repro: noqa: RPRHOT001 - the lying oracle is per-invocation by definition
            out.append(noisy)
        return out

    # -- reporting ---------------------------------------------------------

    @property
    def decisions(self) -> int:
        return self._decisions.value

    @property
    def votes_cast(self) -> int:
        return self._votes_cast.value

    @property
    def flips(self) -> int:
        return self._flips.value

    @property
    def overruled(self) -> int:
        """Decisions where the repaired answer still differs from the
        truth (the residual error majority voting failed to fix)."""
        return self._overruled.value

    def vote_overhead(self) -> float:
        """Mean invocations per decision (the paper's work blow-up)."""
        return self.votes_cast / max(1, self.decisions)

    def snapshot(self) -> dict:
        return {
            "noise_p": self.p,
            "noise_votes": self.votes,
            "noise_seed": self.seed,
            "noise_epoch": self.epoch,
            "noisy_decisions": self.decisions,
            "noisy_votes_cast": self.votes_cast,
            "noisy_flips": self.flips,
            "noisy_overruled": self.overruled,
            "noisy_peak_votes": self._peak_votes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NoisyKernel(p={self.p!r}, votes={self.votes!r}, "
                f"seed={self.seed}, epoch={self.epoch})")
