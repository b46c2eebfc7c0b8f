"""Property tests for the SoA engine's flat conflict-list state.

White-box invariants checked at *every round boundary* of real runs:

- **segment consistency** -- every facet's ``(conf_start, conf_len)``
  window lies inside the pool, windows never overlap, and entries are
  strictly ascending (the merge keeps candidate blocks sorted and
  duplicate-free);
- **justification** -- every stored conflict is *earned*: the point is
  strictly visible from its facet under the exact predicate, is not a
  defining vertex, and (for round-created facets) exceeds the creating
  pivot's rank.  The last two hold for every facet ever created, buried
  and replaced ones included: a round gathers exactly those dead
  windows.  Note a point may legitimately sit in several live lists at
  once -- the bootstrap point alone lands in up to ``d+1`` base-facet
  lists -- so no uniqueness is asserted;
- **head skip** -- for every ridge the next round creates from, the
  candidate filter of the scalar driver (ranks strictly above the pivot
  ``pc``, ridge ranks dropped) would remove exactly the head of the
  ``t1`` window, which is ``pc``, and nothing else: the reason the
  round gathers ``t1``'s window from its second entry and filters
  nothing;
- **pivot consistency** -- ``pivot[f]`` is the minimum (= first) entry
  of the window, or the +inf sentinel for empty windows;
- **termination** -- when the frontier drains, every live facet's
  conflict window is empty: all points are decided;
- **checkpointing** -- ``snapshot()``/``restore()`` round-trips the
  entire mutable state byte-for-byte, and a restored engine replays the
  remainder of the run bit-identically (chaos-recovery contract).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import uniform_ball, uniform_cube
from repro.geometry.hyperplane import exact_mode
from repro.geometry.kernels import gather_segments
from repro.geometry.noisy import NoisyKernel
from repro.hull.soa import _INF, SoAHullEngine


def _engine(n, d, seed, **kw):
    pts = uniform_ball(n, d, seed=seed)
    order = np.random.default_rng(seed + 1).permutation(n)
    return SoAHullEngine(pts, order=order, **kw)


def _check_segments(eng):
    """Structural consistency of the flat pool partition."""
    st_, ln = eng.store.conf_start, eng.store.conf_len
    size, end = eng.store.size, eng.pool.end
    assert np.all(ln[:size] >= 0)
    assert np.all(st_[:size] >= 0)
    assert np.all(st_[:size] + ln[:size] <= end)
    # Windows are append-only and written once per facet: sorted by
    # start, they must tile without overlap.
    by_start = np.argsort(st_[:size], kind="stable")
    ends = st_[:size][by_start] + ln[:size][by_start]
    starts = st_[:size][by_start]
    assert np.all(starts[1:] >= ends[:-1])
    buf = eng.pool.buf
    for fid in range(size):
        seg = buf[st_[fid]: st_[fid] + ln[fid]]
        if seg.size:
            assert np.all(np.diff(seg) > 0), f"facet {fid} segment not ascending"
            assert eng.store.pivot[fid] == seg[0]
        else:
            assert eng.store.pivot[fid] == _INF


def _check_justified(eng, exact=True):
    """Every conflict entry of every created facet is beyond the
    creating pivot and never a defining vertex of its own facet; with
    ``exact``, every live one is also strictly visible (exact)."""
    buf = eng.pool.buf
    for fid in range(eng.store.size):
        s = int(eng.store.conf_start[fid])
        seg = buf[s: s + int(eng.store.conf_len[fid])]
        if not seg.size:
            continue
        defining = set(map(int, eng.store.indices[fid]))
        piv = int(eng.store.pivot_point[fid])
        for v in map(int, seg):
            assert v not in defining
            assert v > piv  # piv is -1 for base facets: trivially true
        if not (exact and eng.store.alive[fid]):
            continue
        plane = eng._facet_of(fid).plane
        for v in map(int, seg):
            assert plane._side_exact(eng.pts[v], v) > 0


def _check_head_skip(eng):
    """From the frontier state, for each ridge the next round creates
    from: the pivot filter plus the ridge-rank cleanup would drop exactly
    the head of the smaller-pivot (``t1c``) window and nothing else, so
    the round may skip that head and filter nothing."""
    piv, buf = eng.store.pivot, eng.pool.buf
    cs, cl = eng.store.conf_start, eng.store.conf_len
    for a, b, ridge in zip(eng._fr_t1.tolist(), eng._fr_t2.tolist(),
                           eng._fr_rows.tolist()):
        if piv[a] == piv[b]:
            continue  # final (both empty) or bury: nothing is gathered
        if piv[b] < piv[a]:
            a, b = b, a  # the symmetry flip
        pc = int(piv[a])
        for fid, want in ((a, [pc]), (b, [])):
            window = buf[cs[fid]: cs[fid] + cl[fid]].tolist()
            assert [v for v in window if v <= pc or v in ridge] == want


def _fingerprint(eng):
    """Bit-level digest of a finished run's observable state."""
    run = eng.finish()
    return (
        run.facet_keys(),
        run.counters.as_dict(),
        run.conflict_pool.tobytes(),
        run.conflict_lens.tobytes(),
        run.tracker.work,
        run.tracker.span,
        len(eng.frontier_log),
        run.exec_stats.kernel_stats,
    )


@given(st.tuples(st.integers(0, 2_000), st.integers(14, 48), st.sampled_from([2, 3])))
@settings(max_examples=8, deadline=None)
def test_invariants_hold_at_every_round(params):
    seed, n, d = params
    eng = _engine(n, d, seed)
    _check_segments(eng)
    _check_justified(eng)
    _check_head_skip(eng)
    while eng.step_round():
        _check_segments(eng)
        _check_justified(eng)
        _check_head_skip(eng)
    _check_segments(eng)
    # Termination: frontier drained => every live facet decided.
    live = eng.store.alive[: eng.store.size]
    assert np.all(eng.store.conf_len[: eng.store.size][live] == 0)
    assert np.all(eng.store.pivot[: eng.store.size][live] == _INF)


@pytest.mark.parametrize("d,base_size,noise", [
    (2, None, None), (3, None, None), (4, None, None), (3, 12, None),
    (3, None, 0.05),
])
def test_head_skip_holds_every_round(d, base_size, noise):
    """The head skip needs only the window structure, so it holds for
    larger bootstraps and under a lying oracle too (its flips only pick
    which candidates survive, so only exact visibility may fail)."""
    kernel = None if noise is None else NoisyKernel(p=noise, seed=3)
    eng = _engine(90 if d < 4 else 50, d, seed=9,
                  base_size=base_size, kernel=kernel)
    _check_head_skip(eng)
    while eng.step_round():
        _check_head_skip(eng)
        _check_justified(eng, exact=kernel is None)


def test_bootstrap_conflicts_are_complete():
    """Construction-time completeness: every rank strictly outside the
    base simplex appears in at least one base facet's window."""
    pts = uniform_cube(60, 3, seed=5)
    order = np.random.default_rng(6).permutation(60)
    eng = SoAHullEngine(pts, order=order)
    covered = set(map(int, eng.pool.view()))
    for v in range(eng.base_size, eng.n):
        outside = any(
            eng._facet_of(fid).plane._side_exact(eng.pts[v], v) > 0
            for fid in range(eng.store.size)
        )
        assert (v in covered) == outside


@pytest.mark.parametrize("d", [2, 3])
def test_snapshot_restore_is_byte_exact(d):
    eng = _engine(40, d, seed=17)
    eng.step_round()
    snap = eng.snapshot()
    before = {k: (v.tobytes() if isinstance(v, np.ndarray) else v)
              for k, v in snap["store"].items()}
    pool_before = snap["pool"][0].tobytes()
    # Advance, then rewind: the restored state must re-snapshot to the
    # exact same bytes.
    for _ in range(3):
        if not eng.step_round():
            break
    eng.restore(snap)
    snap2 = eng.snapshot()
    after = {k: (v.tobytes() if isinstance(v, np.ndarray) else v)
             for k, v in snap2["store"].items()}
    assert before == after
    assert pool_before == snap2["pool"][0].tobytes()
    assert snap["pool"][1] == snap2["pool"][1]
    assert snap["counters"] == snap2["counters"]
    assert snap["round"] == snap2["round"]


@given(st.tuples(st.integers(0, 2_000), st.integers(16, 50), st.sampled_from([2, 3])))
@settings(max_examples=6, deadline=None)
def test_restored_engine_replays_bit_identically(params):
    """Chaos-recovery: checkpoint mid-run, run to completion, rewind,
    run again -- both completions are bit-identical, including the flat
    pool bytes and the work/span ledger."""
    seed, n, d = params
    ref = _engine(n, d, seed)
    while ref.step_round():
        pass
    want = _fingerprint(ref)

    eng = _engine(n, d, seed)
    eng.step_round()
    snap = eng.snapshot()
    while eng.step_round():
        pass
    assert _fingerprint(eng) == want
    eng.restore(snap)
    while eng.step_round():
        pass
    assert _fingerprint(eng) == want


def test_snapshot_at_every_round_boundary():
    """Take a checkpoint at *each* round boundary of one run; rewinding
    to every one of them must replay to the same final fingerprint (no
    round leaves hidden state outside the snapshot)."""
    n, d, seed = 44, 3, 23
    eng = _engine(n, d, seed)
    snaps = [eng.snapshot()]
    while eng.step_round():
        snaps.append(eng.snapshot())
    want = _fingerprint(eng)
    for snap in snaps:
        eng.restore(snap)
        while eng.step_round():
            pass
        assert _fingerprint(eng) == want


@pytest.mark.parametrize("exact", [False, True])
def test_finished_run_outlives_engine_restore(exact):
    """A finished run owns its result: rewinding the engine to its
    bootstrap snapshot after finish() leaves ``run.facets`` (built on
    first access) equal to the facets materialized before finish --
    planes, always-exact flags and conflicts alike -- and leaves the
    run's counters, work/span tracker and execution stats untouched."""
    with exact_mode() if exact else contextlib.nullcontext():
        eng = _engine(200, 3, seed=31)
        snap = eng.snapshot()
        while eng.step_round():
            pass
        alive = np.nonzero(eng.store.alive[: eng.store.size])[0]
        want = list(map(eng._facet_of, alive))
        run = eng.finish()
        accounting = (run.counters.as_dict(), run.tracker.work,
                      run.tracker.span, run.exec_stats.rounds)
        eng.restore(snap)
        got = run.facets
    assert (run.counters.as_dict(), run.tracker.work, run.tracker.span,
            run.exec_stats.rounds) == accounting
    assert run.tracker.work == run.counters.visibility_tests > 0
    assert [f.fid for f in got] == [f.fid for f in want]
    for a, b in zip(got, want):
        assert a.indices == b.indices
        assert a.plane.always_exact == b.plane.always_exact
        assert np.array_equal(a.plane.normal, b.plane.normal)
        assert a.plane.offset == b.plane.offset
        assert np.array_equal(a.conflicts, b.conflicts)
    if exact:
        # The planes the run must own: every one took the scalar ladder.
        assert all(f.plane.always_exact for f in got)


@given(
    st.lists(st.integers(0, 30), min_size=0, max_size=12),
)
@settings(max_examples=30, deadline=None)
def test_gather_segments_reference(lens):
    """The prefix-sum segment gather equals the obvious python loop:
    positions in segment order, each entry tagged with its segment's
    tag (the engine's shifted row keys, repeated across the two halves
    of a round's gather)."""
    lens = np.asarray(lens, dtype=np.int64)
    rng = np.random.default_rng(int(lens.sum()) + lens.size)
    starts = np.cumsum(np.concatenate([[0], lens[:-1] + rng.integers(0, 3, max(lens.size - 1, 0))]))[: lens.size]
    starts = starts.astype(np.int64)
    half = (lens.size + 1) // 2
    row_keys = np.arange(half, dtype=np.int64) << 7
    tags = np.concatenate([row_keys, row_keys])[: lens.size]
    pos, tag = gather_segments(starts, lens, tags)
    ref_pos, ref_tag = [], []
    for k, (s, ln) in enumerate(zip(starts, lens)):
        ref_pos.extend(range(int(s), int(s) + int(ln)))
        ref_tag.extend([(k % half) << 7] * int(ln))
    assert np.array_equal(pos, np.asarray(ref_pos, dtype=np.int64))
    assert np.array_equal(tag, np.asarray(ref_tag, dtype=np.int64))
    assert tag.dtype == np.int64
