"""Unit tests for the batched predicate kernels.

The differential suite (``tests/differential/``) pins kernel-vs-scalar
agreement across drivers and the degenerate corpus; these tests cover
the kernel machinery itself: the filter knob, the counters, and the
flat sweep against the scalar ``FacetFactory`` facet by facet.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import kernels, uniform_ball
from repro.geometry.hyperplane import Hyperplane, exact_mode, side_exact_batch
from repro.geometry.perturb import sos_mode
from repro.geometry.kernels import (
    KernelStats,
    batch_planes,
    filter_scale,
    visible_flat,
)
from repro.geometry.predicates import orient
from repro.hull.common import Counters, FacetFactory
from repro.hull.soa import SoAHullEngine
from repro.runtime.workspan import WorkSpanTracker
from tests.sweep_orient import sweep_orient


def _random_block(d, n_simplices, n_queries, seed):
    rng = np.random.default_rng(seed)
    simplices = rng.standard_normal((n_simplices, d, d))
    queries = rng.standard_normal((n_queries, d))
    return simplices, queries


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sweep_orient_matches_scalar(d):
    simplices, queries = _random_block(d, 12, 30, seed=100 + d)
    got = sweep_orient(simplices, queries)
    for f in range(simplices.shape[0]):
        for q in range(queries.shape[0]):
            assert got[f, q] == orient(simplices[f], queries[q]), (d, f, q)


@pytest.mark.parametrize("d", [2, 3])
def test_sweep_orient_exact_ties(d):
    """Queries lying exactly on the plane must come back 0 (decided by
    the exact fallback, not float luck)."""
    simplices, _ = _random_block(d, 6, 1, seed=7 + d)
    # Each simplex's own vertices lie on its plane.
    queries = simplices[:, 0, :].copy()
    stats = KernelStats()
    got = sweep_orient(simplices, queries, stats=stats)
    for f in range(simplices.shape[0]):
        assert got[f, f] == 0
    assert stats.fallbacks > 0


def test_batch_planes_rejects_bad_shape():
    with pytest.raises(ValueError, match="F, d, d"):
        batch_planes(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="F, d, d"):
        batch_planes(np.zeros((3, 2, 4)))


def test_filter_scale_rejects_below_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        with filter_scale(0.5):
            pass
    with pytest.raises(ValueError, match="must be >= 1"):
        with filter_scale(float("nan")):
            pass


def test_filter_scale_widens_fallbacks_not_signs():
    d = 3
    simplices, queries = _random_block(d, 10, 40, seed=42)
    base_stats, wide_stats = KernelStats(), KernelStats()
    base = sweep_orient(simplices, queries, stats=base_stats)
    with filter_scale(1e12):
        wide = sweep_orient(simplices, queries, stats=wide_stats)
    assert np.array_equal(base, wide)
    assert wide_stats.fallbacks > base_stats.fallbacks


def test_filter_scale_restored_after_block():
    simplices, queries = _random_block(2, 4, 8, seed=1)
    with filter_scale(1e12):
        pass
    stats = KernelStats()
    sweep_orient(simplices, queries, stats=stats)
    # Generic position + unit scale: no fallbacks expected.
    assert stats.fallbacks == 0


def test_kernel_stats_counts_and_reset():
    """A record counts sweeps, signs and fallbacks; the record an SoA
    engine owns is reset with the rest of its state when it restores
    a snapshot, so a rolled-back round's sweeps leave no count."""
    st = KernelStats()
    st.count_sweep(signs=10, fallbacks=3)
    st.count_sweep(signs=5, fallbacks=0)
    assert st.batched_sweeps == 2
    assert st.batched_signs == 15
    assert st.fallbacks == 3
    assert st.snapshot() == {
        "batched_sweeps": 2,
        "batched_signs": 15,
        "fallbacks": 3,
    }
    eng = SoAHullEngine(uniform_ball(200, 3, seed=2), seed=1)
    snap = eng.snapshot()
    at_snap = eng.kstats.snapshot()
    while eng.step_round():
        pass
    assert eng.kstats.batched_sweeps > at_snap["batched_sweeps"]
    eng.restore(snap)
    assert eng.kstats.snapshot() == at_snap


def _factory(pts, kernel=None):
    d = pts.shape[1]
    interior = pts[: d + 1].mean(axis=0)
    return FacetFactory(pts, interior, Counters(), kernel=kernel)


def _flat_masks(pts, facets, stats=None):
    """One visible_flat sweep over the facets' candidate blocks (their
    defining points dropped, as the factory does), split back per
    facet."""
    cand_list = [np.setdiff1d(np.arange(pts.shape[0]), f.indices) for f in facets]
    sizes = [c.size for c in cand_list]
    planes = [f.plane for f in facets]
    mask = visible_flat(
        np.ascontiguousarray(pts.T), *_columns(planes),
        np.asarray(sizes, dtype=np.int64), np.concatenate(cand_list),
        *_ladder([f.indices for f in facets], planes),
        force_exact=np.array([p.always_exact for p in planes]),
        stats=stats,
    )
    return cand_list, np.split(mask, np.cumsum(sizes)[:-1])


def _columns(planes):
    """The float plane columns ``visible_flat`` sweeps."""
    return (
        np.stack([p.normal for p in planes]),
        np.array([p.offset for p in planes]),
        np.array([p.err_scale for p in planes]),
        np.array([p.err_base for p in planes]),
    )


def _ladder(specs, planes):
    """What ``visible_flat``'s exact stage needs of each plane: its
    defining ranks and its visible sign."""
    return (np.array(specs, dtype=np.int64),
            np.array([p.vis_sign for p in planes], dtype=np.int8))


class _ExactStage:
    """Wraps the sweep's exact stage and logs its (plane row, rank)
    inputs, in order."""

    def __init__(self):
        self.log = []

    def __call__(self, simplices, base_indices, vis_sign, sos, rows, pts, ranks):
        self.log.extend(zip(rows.tolist(), ranks.tolist()))
        return side_exact_batch(simplices, base_indices, vis_sign, sos, rows, pts, ranks)


@pytest.mark.parametrize("d", [2, 3])
def test_make_batch_matches_scalar_factory(d):
    """One flat sweep over a block of facets decides exactly the
    conflict sets the scalar factory's per-facet ``visible_mask``
    calls built."""
    pts = uniform_ball(80, d, seed=d)
    fs = _factory(pts)
    cands = np.arange(pts.shape[0], dtype=np.int64)
    facets = fs.make_batch([
        (tuple(range(k, k + d)), cands.copy())
        for k in range(0, 20, 2)
    ])
    stats = KernelStats()
    cand_list, masks = _flat_masks(pts, facets, stats=stats)
    for f, c, m in zip(facets, cand_list, masks):
        assert np.array_equal(f.conflicts, c[m])
    assert fs.counters.visibility_tests == sum(c.size for c in cand_list)
    assert stats.batched_signs == fs.counters.visibility_tests


def test_visible_flat_blocks_contract():
    """Empty blocks at the start, middle and end, an always-exact
    (forced) plane between float ones, and an envelope fallback in a
    later block: every entry is decided exactly like its own plane's
    ``visible_mask``, each exact decision goes to the exact stage as the
    row of the plane whose block holds the entry, and the counters
    charge one fallback per forced or envelope-ambiguous entry."""
    d = 3
    n = 60
    pts = uniform_ball(n, d, seed=21)
    specs = [tuple(range(k, k + d)) for k in range(0, 6 * d, d)]
    empty = np.zeros(0, dtype=np.int64)
    planes = [f.plane for f in _factory(pts).make_batch([(s, empty) for s in specs])]
    with exact_mode():
        planes[3] = _factory(pts).make(specs[3], empty).plane
    forced = [p.always_exact for p in planes]
    # REPRO_FORCE_EXACT=1 makes every plane always-exact.
    assert forced == [False] * 3 + [True] + [False] * 2 or all(forced)
    rng = np.random.default_rng(5)

    def off_plane(k, size):
        pool = np.setdiff1d(np.arange(n), specs[k])
        return np.sort(rng.choice(pool, size=size, replace=False))

    # Block 4 also tests one of its plane's own vertices: an exact zero
    # margin, so a certain fallback.
    cands = [empty, off_plane(1, 20), empty, off_plane(3, 9),
             np.union1d(off_plane(4, 15), [specs[4][1]]), empty]
    blocks = np.array([c.size for c in cands], dtype=np.int64)
    stage = _ExactStage()
    stats = KernelStats()
    with mock.patch.object(kernels, "side_exact_batch", stage):
        mask = visible_flat(
            np.ascontiguousarray(pts.T), *_columns(planes), blocks,
            np.concatenate(cands), *_ladder(specs, planes),
            force_exact=np.array([p.always_exact for p in planes]),
            stats=stats,
        )
    asked = [k for k, _ in stage.log]
    got = np.split(mask, np.cumsum(blocks)[:-1])
    for p, c, m in zip(planes, cands, got):
        assert np.array_equal(m, p.visible_mask(pts[c], indices=c))

    def n_exact(p, c):
        """Entries the plane's own filter leaves to the exact ladder."""
        if p.always_exact or not c.size:
            return int(c.size)
        env = p.err_scale * (p.err_base + np.abs(pts[c]).max(axis=1))
        return int((np.abs(p.margins(pts[c])) <= env).sum())

    exact = [n_exact(p, c) for p, c in zip(planes, cands)]
    if not all(forced):
        assert exact == [0, 0, 0, int(blocks[3]), 1, 0]
    assert sorted(asked) == [k for k, e in enumerate(exact) for _ in range(e)]
    assert stats.snapshot() == {
        "batched_sweeps": 1,
        "batched_signs": int(blocks.sum()),
        "fallbacks": sum(exact),
    }


@pytest.mark.parametrize("d", range(1, 13))
def test_column_margins_are_the_row_form_einsum(d):
    """The column-form margins equal the row-form einsum sweep over the
    same gathered rows bit for bit, at every d (einsum sums a row in two
    lanes, and from d = 8 on in groups of eight), on products spread
    over many binades so any other summation order shows."""
    rng = np.random.default_rng(d)
    m = 4000
    pts = rng.standard_normal((m, d)) * np.exp2(rng.integers(-30, 30, (m, d)))
    rows = rng.standard_normal((m, d + 2)) * np.exp2(rng.integers(-30, 30, (m, d + 2)))
    want = np.einsum("md,md->m", pts, rows[:, :d]) - rows[:, d]
    g = np.ascontiguousarray(rows.T)
    got = kernels._column_margins(np.ascontiguousarray(pts.T), g[:d], g[d])
    assert np.array_equal(got, want)


def test_make_batch_empty_candidates():
    pts = uniform_ball(10, 2, seed=3)
    facets = _factory(pts).make_batch([((0, 1), np.zeros(0, dtype=np.int64))])
    assert facets[0].conflicts.size == 0


def test_always_exact_planes_route_to_scalar_ladder():
    """Under forced-exact planes the float normal is untrustworthy; the
    flat sweep must delegate every entry of such a plane to the exact
    path and still agree with the scalar factory."""
    pts = uniform_ball(40, 2, seed=11)
    with exact_mode():
        a = _factory(pts).make((0, 1), np.arange(40, dtype=np.int64))
        assert a.plane.always_exact
        stats = KernelStats()
        cand_list, masks = _flat_masks(pts, [a], stats=stats)
    assert np.array_equal(a.conflicts, cand_list[0][masks[0]])
    snap = stats.snapshot()
    assert snap["fallbacks"] == snap["batched_signs"] > 0


def test_factory_rejects_unknown_kernel():
    pts = uniform_ball(10, 2, seed=0)
    for kernel in ("gpu", "batch", "scalar"):
        with pytest.raises(ValueError, match="unknown kernel"):
            _factory(pts, kernel)


def test_add_batched_sweep_scalar_equivalent_work():
    """One sweep over blocks [5, 9, 2] costs the same work as the three
    scalar tasks it replaces, and O(log widest) span."""
    scalar = WorkSpanTracker()
    for b in (5, 9, 2):
        scalar.add_task(cost=b, span_cost=4)  # span credit irrelevant to work
    batched = WorkSpanTracker()
    tid = batched.add_batched_sweep([5, 9, 2])
    assert batched.work == scalar.work == 16
    assert batched._tasks[tid].span_cost == int(np.log2(9 + 2))
    # Degenerate sweeps still cost at least one unit.
    empty = WorkSpanTracker()
    empty.add_batched_sweep([])
    assert empty.work == 1
    # Integer-array input (what the SoA engine passes) accounts exactly
    # like the list form, zero-size blocks and empty sweeps included.
    for blocks in ([5, 9, 2], [], [0], [5, 0, 9, 2]):
        as_list, as_array = WorkSpanTracker(), WorkSpanTracker()
        t_list = as_list.add_batched_sweep(blocks)
        t_array = as_array.add_batched_sweep(np.asarray(blocks, dtype=np.int64))
        assert as_array.work == as_list.work
        assert as_array._tasks[t_array].span_cost == as_list._tasks[t_list].span_cost


# -- the staged sweep vs the single-stage reference ---------------------------


def _single_stage_sweep(pts, normals, offsets, err_scale, err_base, blocks,
                        ranks, force_exact, plane_for, stats):
    """``visible_flat`` before its per-plane pre-filter: every entry
    computes its own envelope ``s*|p|_inf + s*b`` and is decided against
    it, operand for operand as the single-stage sweep did."""
    d = pts.shape[1]
    pts_flat = np.take(pts, ranks, axis=0)
    packed = np.empty((normals.shape[0], d + 3), dtype=np.float64)
    packed[:, :d] = normals
    packed[:, d] = offsets
    scale = kernels._FILTER_SCALE * err_scale
    packed[:, d + 1] = scale
    packed[:, d + 2] = scale * err_base
    g = np.repeat(packed, blocks, axis=0)
    margins = np.einsum("md,md->m", pts_flat, g[:, :d])
    margins -= g[:, d]
    env = g[:, d + 1] * np.abs(pts_flat).max(axis=1)
    env += g[:, d + 2]
    mask = margins > env
    uncertain = np.abs(margins) <= env
    forced = np.repeat(force_exact, blocks)
    mask &= ~forced
    uncertain |= forced
    fall = np.nonzero(uncertain)[0]
    plane_of = np.searchsorted(np.cumsum(blocks), fall, side="right")
    for m, k in zip(fall.tolist(), plane_of.tolist()):
        r = int(ranks[m])
        mask[m] = plane_for(k)._side_exact(pts[r], r) > 0
    stats.count_sweep(int(ranks.shape[0]), int(fall.shape[0]))
    return mask


class _Asked:
    """A ``plane_for`` that logs every exact decision it serves, as
    (plane, point rank) pairs, in call order."""

    def __init__(self, planes):
        self.planes = planes
        self.log = []

    def __call__(self, k):
        plane, log = self.planes[k], self.log

        class _Logged:
            @staticmethod
            def _side_exact(p, r):
                log.append((k, int(r)))
                return plane._side_exact(p, r)

        return _Logged()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_visible_flat_prefilter_matches_single_stage(data):
    """The per-plane pre-filter and the batched exact stage change no
    decision: against a single-stage reference sweep that sends every
    fallback to its plane's own ``_side_exact``, the mask, the fallback
    entries (the exact stage's (plane row, rank) inputs against the
    reference's calls, in order) and the ``KernelStats`` are equal --
    with exact ties (each plane's own vertices, integer grids, and a
    copy of a vertex at another rank), one-ulp near ties, margins
    planted on and next to the per-entry envelope and the per-plane
    bound, forced-exact planes, SoS planes under ``sos_mode()`` (whose
    exact zeros off their own ranks take the symbolic tie-break), an
    inflated ``filter_scale``, empty blocks, and a 1e12-magnitude
    outlier that lifts every plane's bound above all its margins."""
    d = data.draw(st.sampled_from([2, 3, 4]), label="d")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    grid = data.draw(st.booleans(), label="grid")
    outlier = data.draw(st.booleans(), label="outlier")
    scale = data.draw(st.sampled_from([1.0, 1.0, 4.0, 1e6]), label="scale")
    run_bound = data.draw(st.booleans(), label="run_bound")
    sos = data.draw(st.booleans(), label="sos")
    rng = np.random.default_rng(seed)
    n = 30
    if grid:
        pts = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    else:
        pts = rng.standard_normal((n, d))
    ref = rng.standard_normal(d) * 0.1 + 0.05
    with sos_mode() if sos else contextlib.nullcontext():
        planes, specs = [], []
        for _ in range(6):
            idx = tuple(sorted(rng.choice(n, size=d, replace=False).tolist()))
            forced = bool(rng.random() < 0.3)
            ranks_kw = {"indices": idx} if sos else {}
            try:
                with exact_mode() if forced else contextlib.nullcontext():
                    plane = Hyperplane.through(pts[list(idx)], ref, **ranks_kw)
            except ValueError:
                continue
            planes.append(plane)
            specs.append(idx)
        assume(planes)
        assert all(p.sos == sos for p in planes)
        # One-ulp near ties: a vertex of every plane nudged by one ulp;
        # exact ties off the plane's own ranks: a copy of a vertex.
        near = np.array([pts[idx[0]] for idx in specs])
        near[:, 0] = np.nextafter(near[:, 0], np.where(rng.random(len(specs)) < 0.5,
                                                        np.inf, -np.inf))
        copies = np.array([pts[idx[-1]] for idx in specs])
        extra = [near, copies]
        if outlier:
            extra.append(1e12 * rng.standard_normal((1, d)))
        # Points planted off each plane's first vertex v along its
        # normal, at margins inside the per-entry envelope but above
        # s*b, on the envelope, on the per-plane bound and just past it
        # (P taken over the points so far; the planted ones sit next to
        # v).
        p_max = float(np.abs(np.concatenate([pts] + extra)).max())
        band = []
        for plane, idx in zip(planes, specs):
            v = pts[idx[0]]
            s = scale * plane.err_scale
            env = s * float(np.abs(v).max()) + s * plane.err_base
            bound = s * p_max + s * plane.err_base
            sign = 1.0 if rng.random() < 0.5 else -1.0
            for target in (s * plane.err_base + 0.5 * (env - s * plane.err_base),
                           env, bound, bound * (1 + 1e-9)):
                band.append(v + sign * target / (plane.normal @ plane.normal)
                            * plane.normal)
        pts = np.concatenate([pts] + extra + [np.array(band)])
        total = pts.shape[0]
        first_band = total - len(band)
        cands = []
        for k, idx in enumerate(specs):
            size = int(rng.integers(0, 12)) if rng.random() < 0.8 else 0
            pick = rng.choice(total, size=size, replace=False)
            # Exact ties: the plane's own vertices and its vertex copy;
            # near ties; the band.
            pick = np.union1d(pick, list(idx) + [n + k, n + len(specs) + k]
                              + list(range(first_band + 4 * k, first_band + 4 * k + 4)))
            if outlier:
                pick = np.union1d(pick, [n + 2 * len(specs)])
            if rng.random() < 0.2:
                pick = pick[:0]                      # an empty block
            cands.append(pick.astype(np.int64))
        blocks = np.array([c.size for c in cands], dtype=np.int64)
        assume(blocks.sum() > 0)
        ranks = np.concatenate(cands)
        cols = _columns(planes)
        force_exact = np.array([p.always_exact for p in planes])
        pts_inf = float(np.abs(pts).max()) if run_bound else None
        staged, single = _ExactStage(), _Asked(planes)
        st_staged, st_single = KernelStats(), KernelStats()
        with filter_scale(scale):
            with mock.patch.object(kernels, "side_exact_batch", staged):
                got = visible_flat(np.ascontiguousarray(pts.T), *cols, blocks, ranks,
                                   *_ladder(specs, planes),
                                   force_exact=force_exact, sos=sos,
                                   stats=st_staged, pts_inf=pts_inf)
            want = _single_stage_sweep(pts, *cols, blocks, ranks, force_exact,
                                       single, st_single)
        assert np.array_equal(got, want)
        assert staged.log == single.log
        assert st_staged.snapshot() == st_single.snapshot()
        for p, c, m in zip(planes, np.split(ranks, np.cumsum(blocks)[:-1]),
                           np.split(got, np.cumsum(blocks)[:-1])):
            if c.size and scale == 1.0:
                assert np.array_equal(m, p.visible_mask(pts[c], indices=c))
