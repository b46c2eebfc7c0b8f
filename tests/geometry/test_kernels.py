"""Unit tests for the batched predicate kernels.

The differential suite (``tests/differential/``) pins kernel-vs-scalar
agreement across executors and the degenerate corpus; these tests cover
the kernel machinery itself: the filter knob, the counters, the sign
cache, and the FacetFactory batch path.
"""

import numpy as np
import pytest

from repro.geometry import uniform_ball
from repro.geometry.hyperplane import exact_mode
from repro.geometry.kernels import (
    KERNEL_STATS,
    BatchKernel,
    KernelStats,
    SignCache,
    batch_planes,
    filter_scale,
    orient_batch,
)
from repro.geometry.predicates import orient
from repro.hull.common import Counters, FacetFactory
from repro.runtime.workspan import WorkSpanTracker


def _random_block(d, n_simplices, n_queries, seed):
    rng = np.random.default_rng(seed)
    simplices = rng.standard_normal((n_simplices, d, d))
    queries = rng.standard_normal((n_queries, d))
    return simplices, queries


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orient_batch_matches_scalar(d):
    simplices, queries = _random_block(d, 12, 30, seed=100 + d)
    got = orient_batch(simplices, queries)
    for f in range(simplices.shape[0]):
        for q in range(queries.shape[0]):
            assert got[f, q] == orient(simplices[f], queries[q]), (d, f, q)


@pytest.mark.parametrize("d", [2, 3])
def test_orient_batch_exact_ties(d):
    """Queries lying exactly on the plane must come back 0 (decided by
    the exact fallback, not float luck)."""
    simplices, _ = _random_block(d, 6, 1, seed=7 + d)
    # Each simplex's own vertices lie on its plane.
    queries = simplices[:, 0, :].copy()
    got = orient_batch(simplices, queries)
    for f in range(simplices.shape[0]):
        assert got[f, f] == 0
    assert KERNEL_STATS.fallbacks > 0


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
    base = orient_batch(simplices, queries)
    base_falls = KERNEL_STATS.fallbacks
    with filter_scale(1e12):
        wide = orient_batch(simplices, queries)
    assert np.array_equal(base, wide)
    assert KERNEL_STATS.fallbacks - base_falls > base_falls


def test_filter_scale_restored_after_block():
    simplices, queries = _random_block(2, 4, 8, seed=1)
    with filter_scale(1e12):
        pass
    before = KERNEL_STATS.fallbacks
    orient_batch(simplices, queries)
    # Generic position + unit scale: no fallbacks expected.
    assert KERNEL_STATS.fallbacks == before


def test_kernel_stats_counts_and_reset():
    st = KernelStats()
    st.count_sweep(signs=10, fallbacks=3)
    st.count_sweep(signs=5, fallbacks=0)
    st.count_cache(hits=2, misses=8)
    assert st.batched_sweeps == 2
    assert st.batched_signs == 15
    assert st.fallbacks == 3
    assert st.fallback_rate() == 3 / 15
    snap = st.snapshot()
    assert snap == {
        "batched_sweeps": 2,
        "batched_signs": 15,
        "fallbacks": 3,
        "cache_hits": 2,
        "cache_misses": 8,
    }
    st.reset()
    assert st.snapshot() == {k: 0 for k in snap}


def test_sign_cache_partial_intersection():
    cache = SignCache()
    idx = (3, 7)
    cands = np.array([1, 4, 6, 9], dtype=np.int64)
    vis = np.array([True, False, True, False])
    cache.store(idx, cands, vis)
    query = np.array([0, 4, 6, 10], dtype=np.int64)
    known, got = cache.lookup(idx, query)
    assert known.tolist() == [False, True, True, False]
    assert got[1] == False and got[2] == True  # noqa: E712
    assert cache.hits.value == 2
    assert cache.misses.value == 2
    # Unknown facet: everything misses.
    known2, _ = cache.lookup((0, 1), query)
    assert not known2.any()
    assert cache.snapshot()["entries"] == 1


def _factory(pts, kernel):
    d = pts.shape[1]
    interior = pts[: d + 1].mean(axis=0)
    return FacetFactory(pts, interior, Counters(), kernel=kernel)


@pytest.mark.parametrize("d", [2, 3])
def test_make_batch_matches_scalar_factory(d):
    pts = uniform_ball(80, d, seed=d)
    fs = _factory(pts, "scalar")
    fb = _factory(pts, "batch")
    cands = np.arange(pts.shape[0], dtype=np.int64)
    specs = [
        (tuple(range(k, k + d)), cands.copy())
        for k in range(0, 20, 2)
    ]
    scalar_facets = fs.make_batch(specs)
    batch_facets = fb.make_batch(specs)
    for a, b in zip(scalar_facets, batch_facets):
        assert a.fid == b.fid
        assert a.indices == b.indices
        assert np.array_equal(a.conflicts, b.conflicts)
    assert fs.counters.visibility_tests == fb.counters.visibility_tests
    assert fs.counters.facets_created == fb.counters.facets_created


def test_make_batch_empty_candidates():
    pts = uniform_ball(10, 2, seed=3)
    fb = _factory(pts, "batch")
    facets = fb.make_batch([((0, 1), np.zeros(0, dtype=np.int64))])
    assert facets[0].conflicts.size == 0


def test_factory_cache_hits_on_recreation():
    """Re-making a facet with the same defining indices (the chaos
    rollback scenario) answers its visibility from the cache."""
    pts = uniform_ball(60, 2, seed=9)
    fb = _factory(pts, "batch")
    cands = np.arange(60, dtype=np.int64)
    first = fb.make((4, 5), cands.copy())
    assert fb.batch_kernel.cache.hits.value == 0
    second = fb.make((4, 5), cands.copy())
    assert fb.batch_kernel.cache.hits.value == first.conflicts.size + (
        58 - first.conflicts.size
    )
    assert np.array_equal(first.conflicts, second.conflicts)
    snap = fb.kernel_snapshot()
    assert snap["kernel"] == "batch"
    assert snap["cache_hits"] > 0


def test_always_exact_planes_route_to_scalar_ladder():
    """Under forced-exact planes the float normal is untrustworthy; the
    batch kernel must delegate whole blocks to the exact path and still
    agree with the scalar factory."""
    pts = uniform_ball(40, 2, seed=11)
    with exact_mode():
        fs = _factory(pts, "scalar")
        fb = _factory(pts, "batch")
        cands = np.arange(40, dtype=np.int64)
        a = fs.make((0, 1), cands.copy())
        b = fb.make((0, 1), cands.copy())
    assert np.array_equal(a.conflicts, b.conflicts)
    snap = fb.batch_kernel.snapshot()
    assert snap["fallbacks"] == snap["batched_signs"] > 0


def test_factory_rejects_unknown_kernel():
    pts = uniform_ball(10, 2, seed=0)
    with pytest.raises(ValueError, match="unknown kernel"):
        _factory(pts, "gpu")


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


def test_batch_kernel_without_cache():
    pts = uniform_ball(30, 2, seed=2)
    kern = BatchKernel(pts, cache=False)
    assert kern.cache is None
    assert kern.snapshot()["cache_entries"] == 0
