"""The filter_scale contract: widening the batched error envelope is
*semantically invisible*.

Any ``scale >= 1`` may only move entries from the float-certain path to
the exact fallback -- the fallback decides the same question exactly,
so every sign, mask, and hull stays bit-identical; only the fallback
*counter* may grow, and it grows monotonically in the scale.  A scale
below 1 would shrink the envelope under its soundness proof (the bound
``repro fpcheck`` certifies statically, rule RPRFP004) and is rejected
outright.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import uniform_ball
from repro.geometry.kernels import KernelStats, batch_planes, filter_scale
from repro.hull.soa import SoAHullEngine
from tests.sweep_orient import sweep_orient

SCALES = [1.0, 4.0, 64.0, 1e4, 1e8, 1e12]


def _graded_block(d: int, seed: int = 0):
    """Simplices plus queries whose margins span many decades, so each
    widening of the envelope converts a fresh batch of entries from
    float-certain to exact-fallback."""
    rng = np.random.default_rng(seed)
    sims = rng.standard_normal((5, d, d))
    normals, offsets, _, _ = batch_planes(sims)
    qs = [rng.standard_normal(d) for _ in range(3)]
    for k in range(1, 15):
        f = k % sims.shape[0]
        n = normals[f]
        nn = float(np.sqrt(n @ n))
        if nn == 0.0:
            continue
        # A point at (signed) distance ~1e-k/3 off plane f.
        base = sims[f, 0]
        t = (-1.0) ** k * 10.0 ** (-(k / 3.0))
        qs.append(base + t * n / nn + rng.standard_normal(d) * 1e-18)
    return sims, np.stack(qs)


def _signs_and_fallbacks(sims, qs, scale):
    stats = KernelStats()
    with filter_scale(scale):
        signs = sweep_orient(sims, qs, stats=stats)
    return signs, stats.fallbacks


class TestFilterScale:
    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            with filter_scale(0.5):
                pass  # pragma: no cover - must raise before entering

    @pytest.mark.parametrize("d", [2, 3])
    def test_signs_invariant_fallbacks_monotone(self, d):
        sims, qs = _graded_block(d, seed=d)
        ref_signs, fallbacks = None, []
        for scale in SCALES:
            signs, fb = _signs_and_fallbacks(sims, qs, scale)
            if ref_signs is None:
                ref_signs = signs
            else:
                # Envelope-only widening: every decision identical.
                assert np.array_equal(signs, ref_signs), scale
            fallbacks.append(fb)
        assert fallbacks == sorted(fallbacks), fallbacks
        # The graded queries guarantee the widening actually bites.
        assert fallbacks[-1] > fallbacks[0]
        # Two sweeps, one per side: each entry falls back in both or
        # in neither.
        assert fallbacks[-1] <= 2 * ref_signs.size

    @pytest.mark.parametrize("d", [2, 3])
    def test_hull_bit_identical_under_scale(self, d):
        pts = uniform_ball(70, d, seed=17)
        order = np.random.default_rng(5).permutation(70)
        runs = []
        fallbacks = []
        for scale in [1.0, 1e6]:
            with filter_scale(scale):
                eng = SoAHullEngine(pts, order=order.copy())
                while eng.step_round():
                    pass
                runs.append(eng.finish())
            fallbacks.append(runs[-1].exec_stats.kernel_stats["fallbacks"])
        assert runs[0].facet_keys() == runs[1].facet_keys()
        assert fallbacks[1] >= fallbacks[0]
