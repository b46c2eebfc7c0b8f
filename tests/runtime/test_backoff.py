"""Retry-backoff policy of the chaos thread executor's supervisor."""

import pytest

from repro.runtime.backoff import BackoffPolicy


class TestDelaySchedule:
    def test_monotone_in_attempt(self):
        # factor >= 1 + jitter guarantees delays never shrink as the
        # attempt count grows (the module-level invariant).
        pol = BackoffPolicy(base=0.001, factor=2.0, cap=10.0, jitter=0.5, seed=3)
        for site in ("", "chunk:0", "retry:w2"):
            delays = [pol.delay(a, site=site) for a in range(12)]
            assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_exponential_growth_without_jitter(self):
        pol = BackoffPolicy(base=0.001, factor=2.0, cap=10.0, jitter=0.0)
        assert pol.delay(0) == pytest.approx(0.001)
        assert pol.delay(3) == pytest.approx(0.008)
        assert pol.delay(6) == pytest.approx(0.064)

    def test_cap_saturates(self):
        pol = BackoffPolicy(base=0.002, factor=2.0, cap=0.05, jitter=0.5)
        assert pol.delay(30, site="x") == 0.05
        assert pol.delay(60, site="x") == 0.05
        # ... and every delay respects it, jitter included.
        assert all(pol.delay(a, site="y") <= 0.05 for a in range(20))

    def test_jitter_bounded(self):
        pol = BackoffPolicy(base=0.001, factor=2.0, cap=10.0, jitter=0.5)
        for a in range(8):
            raw = 0.001 * 2.0 ** a
            d = pol.delay(a, site="s")
            assert raw <= d <= raw * 1.5


class TestDeterminism:
    def test_replayable_from_seed(self):
        a = BackoffPolicy(seed=42)
        b = BackoffPolicy(seed=42)
        assert [a.delay(i, "chunk:3") for i in range(6)] == [
            b.delay(i, "chunk:3") for i in range(6)
        ]

    def test_sites_draw_distinct_jitter(self):
        # Distinct sites must fan out, not re-collide: at least one
        # attempt level has to differ between two sites.
        pol = BackoffPolicy(base=0.001, factor=2.0, cap=10.0, jitter=0.5, seed=0)
        s1 = [pol.delay(i, "chunk:1") for i in range(6)]
        s2 = [pol.delay(i, "chunk:2") for i in range(6)]
        assert s1 != s2

    def test_seeds_draw_distinct_jitter(self):
        p0 = BackoffPolicy(base=0.001, factor=2.0, cap=10.0, jitter=0.5, seed=0)
        p1 = BackoffPolicy(base=0.001, factor=2.0, cap=10.0, jitter=0.5, seed=1)
        assert [p0.delay(i, "s") for i in range(6)] != [
            p1.delay(i, "s") for i in range(6)
        ]


class TestValidation:
    def test_negative_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            BackoffPolicy(base=-0.001)

    def test_cap_below_base_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            BackoffPolicy(base=0.01, cap=0.001)

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            BackoffPolicy(jitter=1.5)

    def test_factor_below_monotone_bound_rejected(self):
        # factor < 1 + jitter would let a lucky jitter draw shrink the
        # next delay below the previous one.
        with pytest.raises(ValueError, match="factor"):
            BackoffPolicy(factor=1.2, jitter=0.5)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            BackoffPolicy().delay(-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            BackoffPolicy().base = 1.0


class TestSleep:
    def test_sleep_returns_delay(self):
        pol = BackoffPolicy(base=0.0, factor=2.0, cap=0.0, jitter=0.0)
        assert pol.sleep(5, site="s") == 0.0

    def test_sleep_matches_delay(self):
        pol = BackoffPolicy(base=0.0005, factor=2.0, cap=0.001, jitter=0.5, seed=9)
        assert pol.sleep(1, site="s") == pol.delay(1, site="s")
