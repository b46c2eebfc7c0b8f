"""Round-level differential tests: the conflict-list SoA engine vs the
scalar oracle.

Claim under test (the determinism theorem made executable): for any
input and insertion order, the SoA engine creates the *same facet
multiset with the same per-facet conflict sets* as the sequential
scalar driver, emits byte-identical certificates, and accounts the same
scalar-equivalent work -- because every float-certain sign is proven by
the shared error envelope and every ambiguous sign takes the same exact
ladder.  Hypothesis drives the instances; fixed sweeps cover the
degenerate corpus, the noisy p=0 bit-identity, and the ``parallel_hull``
adapter.  The oracle-identity and noisy checks run the flat sweep
twice: as shipped ("batch": the float filter decides, the scalar ladder
only takes envelope-ambiguous entries) and with the envelope inflated
until every entry takes the per-plane scalar ladder ("scalar").
"""

import contextlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import uniform_ball, uniform_cube
from repro.geometry.degenerate import corpus_case, corpus_names
from repro.geometry.kernels import filter_scale
from repro.geometry.noisy import NoisyKernel
from repro.hull import (
    make_certificate,
    parallel_hull,
    robust_hull,
    sequential_hull,
    soa_hull,
    validate_hull,
    verify_certificate,
)
from repro.hull.common import HullSetupError

hull_instances = st.tuples(
    st.integers(0, 5_000),                    # seed
    st.integers(12, 70),                      # n
    st.sampled_from([2, 3, 4]),               # d
)


# An envelope no float margin of a unit-scale input can clear: under it
# the flat sweep decides every entry with the scalar ladder.
_ALL_SCALAR = 1e300


def _oracle(pts, order):
    return sequential_hull(pts, order=order.copy())


def _sweep(path):
    """The flat sweep as shipped ("batch") or forced through the scalar
    ladder entry by entry ("scalar")."""
    if path == "scalar":
        return filter_scale(_ALL_SCALAR)
    return contextlib.nullcontext()


def _assert_path_taken(soa, path):
    ks = soa.exec_stats.kernel_stats
    assert ks["batched_signs"] == soa.counters.visibility_tests
    if path == "scalar":
        assert ks["fallbacks"] == ks["batched_signs"]


def _assert_equivalent(soa, ref):
    """The full intrinsic-identity contract between an SoAHullRun and
    the scalar oracle's SequentialHullResult."""
    assert soa.facet_keys() == ref.facet_keys()
    assert soa.created_keys() == ref.created_keys()
    ref_conf = {f.key(): f.conflicts for f in ref.created}
    soa_conf = soa.created_conflicts()
    assert set(soa_conf) == set(ref_conf)
    for k, want in ref_conf.items():
        assert np.array_equal(soa_conf[k], want)
    # Intrinsic counters (execution-order independent by the paper's
    # determinism theorem) are exactly equal; the order-dependent ridge
    # counters (flips, buried, ...) are deliberately not compared.
    assert soa.counters.visibility_tests == ref.counters.visibility_tests
    assert soa.counters.facets_created == ref.counters.facets_created


@pytest.mark.parametrize("path", ["batch", "scalar"])
@given(hull_instances)
@settings(max_examples=10, deadline=None)
def test_soa_matches_scalar_oracle(path, params):
    seed, n, d = params
    pts = uniform_ball(n, d, seed=seed)
    order = np.random.default_rng(seed + 1).permutation(n)
    ref = _oracle(pts, order)
    with _sweep(path):
        soa = soa_hull(pts, order=order.copy())
    _assert_equivalent(soa, ref)
    _assert_path_taken(soa, path)


@given(hull_instances)
@settings(max_examples=8, deadline=None)
def test_soa_work_span_scalar_equivalent(params):
    """One batched sweep per round at the round's summed candidate cost:
    total work equals the scalar-equivalent visibility-test count, and
    the span reflects the round-synchronous schedule."""
    seed, n, d = params
    pts = uniform_cube(n, d, seed=seed)
    order = np.random.default_rng(seed + 2).permutation(n)
    ref = _oracle(pts, order)
    soa = soa_hull(pts, order=order.copy())
    assert soa.tracker.work == soa.counters.visibility_tests
    assert soa.counters.visibility_tests == ref.counters.visibility_tests
    assert 0 < soa.tracker.span <= soa.tracker.work
    assert soa.exec_stats.rounds >= 1


@given(hull_instances)
@settings(max_examples=8, deadline=None)
def test_soa_certificate_identical_and_independently_verified(params):
    """Certificates are emitted from the SoA run directly (duck-typed
    over points/order/facets), equal the oracle's byte for byte, and
    pass the independent exact verifier."""
    seed, n, d = params
    pts = uniform_ball(n, d, seed=seed + 11)
    order = np.random.default_rng(seed + 3).permutation(n)
    ref = _oracle(pts, order)
    soa = soa_hull(pts, order=order.copy())
    cert_soa = make_certificate(soa, "float")
    cert_ref = make_certificate(ref, "float")
    assert cert_soa.to_dict() == cert_ref.to_dict()
    verify_certificate(cert_soa, pts)
    validate_hull(soa.facets, soa.points)


@pytest.mark.parametrize("name", corpus_names())
def test_soa_on_degenerate_corpus(name):
    """Every family of the degenerate corpus: the SoA engine either
    produces the oracle's exact facet/conflict structure or raises the
    same setup/degeneracy error the oracle raises."""
    for seed in (0, 1):
        pts = corpus_case(name, seed)
        order = np.random.default_rng(seed + 5).permutation(pts.shape[0])
        try:
            ref = _oracle(pts, order)
        except (HullSetupError, ValueError) as exc:
            ref, ref_err = None, type(exc)
        else:
            ref_err = None
        if ref_err is None:
            soa = soa_hull(pts, order=order.copy())
            _assert_equivalent(soa, ref)
        else:
            with pytest.raises((HullSetupError, ValueError)):
                soa_hull(pts, order=order.copy())


@pytest.mark.parametrize("name", ["coplanar-3d", "collinear-3d", "all-coincident"])
def test_soa_robust_ladder_reaches_same_rung(name):
    """Degenerate families that defeat the float and exact rungs: the
    SoA-engined ladder escalates through the same path to the same
    surviving rung and facet set as the object-engined one."""
    pts = corpus_case(name, 0)
    a = robust_hull(pts, seed=0, engine="objects")
    b = robust_hull(pts, seed=0, engine="soa")
    assert a.mode == b.mode
    assert a.escalations == b.escalations
    assert a.run.facet_keys() == b.run.facet_keys()


@pytest.mark.parametrize("path", ["batch", "scalar"])
def test_soa_noisy_p0_bit_identity(path):
    """A p=0 NoisyKernel must be a no-op wrapper: facets, counters, and
    the flat conflict pool are bit-identical to the unwrapped engine,
    which in turn matches the scalar oracle."""
    pts = uniform_ball(64, 3, seed=21)
    order = np.random.default_rng(22).permutation(64)
    with _sweep(path):
        plain = soa_hull(pts, order=order.copy())
        noisy = soa_hull(
            pts, order=order.copy(), kernel=NoisyKernel(p=0.0, votes=3, seed=7),
        )
    _assert_path_taken(noisy, path)
    assert plain.facet_keys() == noisy.facet_keys()
    assert plain.counters.as_dict() == noisy.counters.as_dict()
    assert np.array_equal(plain.conflict_pool, noisy.conflict_pool)
    assert np.array_equal(plain.conflict_lens, noisy.conflict_lens)
    _assert_equivalent(noisy, _oracle(pts, order))


def test_soa_noisy_ladder_self_heals():
    """With real noise, the certificate-gated ladder over the SoA engine
    must land on a verified hull (possibly after escalation)."""
    pts = uniform_ball(90, 3, seed=31)
    nk = NoisyKernel(p=0.05, votes=3, seed=9)
    res = robust_hull(pts, seed=0, noise=nk, engine="soa")
    assert res.certificate is not None
    ref = robust_hull(pts, seed=0, engine="objects")
    assert res.run.facet_keys() == ref.run.facet_keys()


# -- the parallel_hull adapter -----------------------------------------------

@given(st.tuples(st.integers(0, 3_000), st.integers(12, 60), st.sampled_from([2, 3])))
@settings(max_examples=8, deadline=None)
def test_parallel_adapter_matches_object_driver(params):
    seed, n, d = params
    pts = uniform_ball(n, d, seed=seed + 41)
    order = np.random.default_rng(seed + 6).permutation(n)
    a = parallel_hull(pts, order=order.copy(), engine="objects")
    b = parallel_hull(pts, order=order.copy(), engine="soa")
    assert a.facet_keys() == b.facet_keys()
    assert a.created_keys() == b.created_keys()
    ca = {f.key(): f.conflicts for f in a.created}
    cb = {f.key(): f.conflicts for f in b.created}
    for k, want in ca.items():
        assert np.array_equal(cb[k], want)
    assert a.counters.visibility_tests == b.counters.visibility_tests
    assert a.counters.facets_created == b.counters.facets_created
    assert a.dependence_depth() == b.dependence_depth()
    assert a.depth_profile() == b.depth_profile()
    col = soa_hull(pts, order=order.copy())
    assert col.dependence_depth() == a.dependence_depth()
    assert col.depth_profile() == a.depth_profile()
    # Events, round by round: the same multiset of (kind, ridge,
    # pivot); only the order within a round (and with it the fids)
    # may differ.
    assert _round_events(a) == _round_events(b)


def _round_events(run):
    rounds: dict[int, Counter] = {}
    for e in run.events:
        rounds.setdefault(e.round, Counter())[(e.kind, e.ridge, e.pivot)] += 1
    return rounds


def test_parallel_adapter_events_survive_snapshot_restore():
    """A mid-run snapshot, rounds run past it, a restore and a replay
    give the adapter the same events as an uninterrupted run: restore
    truncates the frontier log to the snapshot's rounds."""
    from repro.hull.parallel import _SoAParallelRun
    from repro.hull.soa import SoAHullEngine

    for d, n, seed in ((2, 70, 3), (3, 80, 4), (4, 40, 5)):
        pts = uniform_ball(n, d, seed=seed)
        order = np.random.default_rng(seed).permutation(n)
        want = parallel_hull(pts, order=order.copy(), engine="soa").events
        eng = SoAHullEngine(pts, order=order.copy())
        for _ in range(2):
            eng.step_round()
        snap = eng.snapshot()
        logged = len(eng.frontier_log)
        assert logged == 2
        assert eng.step_round() and eng.step_round()
        assert len(eng.frontier_log) == logged + 2
        eng.restore(snap)
        assert len(eng.frontier_log) == logged
        while eng.step_round():
            pass
        run = _SoAParallelRun(eng.finish(), eng._exact_planes, eng.frontier_log)
        assert run.events == want


@given(st.tuples(st.integers(0, 3_000), st.integers(12, 60), st.sampled_from([2, 3])))
@settings(max_examples=8, deadline=None)
def test_soa_pivots_are_sequential_creation_steps(params):
    """A facet's conflict pivot in the SoA run is the insertion step at
    which Algorithm 2 creates it (base facets: step ``d``)."""
    seed, n, d = params
    pts = uniform_cube(n, d, seed=seed + 51)
    order = np.random.default_rng(seed + 7).permutation(n)
    a = sequential_hull(pts, order=order.copy())
    b = parallel_hull(pts, order=order.copy(), engine="soa")
    assert a.facet_keys() == b.facet_keys()
    assert a.created_keys() == b.created_keys()
    steps_a = {f.key(): a.creation_step[f.fid] for f in a.created}
    steps_b = {f.key(): b.pivots.get(f.fid, d) for f in b.created}
    assert steps_a == steps_b


def test_parallel_adapter_is_lazy(monkeypatch):
    """``parallel_hull(engine="soa")`` builds no facet until a field is
    read: ``support``, ``pivots``, ``rounds``, ``events`` and the depth
    profile come from the columns, ``facets`` builds the alive rows
    only, and ``created``
    builds each other row once, sharing the alive objects with
    ``facets``."""
    from repro.hull import soa

    built: list[int] = []
    real = soa._FacetSource.facet

    def counting(self, fid):
        built.append(int(fid))
        return real(self, fid)

    monkeypatch.setattr(soa._FacetSource, "facet", counting)
    run = parallel_hull(uniform_ball(80, 3, seed=3), seed=1, engine="soa")
    assert built == []
    assert run.support and run.pivots and run.rounds and run.events
    assert run.dependence_depth() > 0
    assert sum(run.depth_profile().values()) == run.counters.facets_created
    assert built == []
    alive = [f.fid for f in run.facets]
    assert built == alive
    assert len(alive) < run.counters.facets_created
    created = run.created
    assert sorted(built) == list(range(run.counters.facets_created))
    assert [f.fid for f in created] == list(range(len(created)))
    shared = [f for f in created if f.alive]
    assert len(shared) == len(run.facets)
    assert all(a is b for a, b in zip(shared, run.facets))


def test_engine_argument_is_validated():
    pts = uniform_ball(20, 2, seed=1)
    with pytest.raises(ValueError, match="unknown engine"):
        parallel_hull(pts, seed=0, engine="nope")
    with pytest.raises(TypeError, match="engine"):
        sequential_hull(pts, seed=0, engine="soa")  # Algorithm 2 alone
    with pytest.raises(ValueError, match="multimap"):
        parallel_hull(pts, seed=0, engine="soa", multimap="cas")
