"""Degenerate inputs end to end: the SoS hull is canonical across all
execution disciplines, and the robust ladder handles the whole
adversarial corpus without ever joggling."""

import numpy as np
import pytest

from repro.geometry.degenerate import CORPUS, corpus_case, corpus_names
from repro.geometry.hyperplane import exact_mode
from repro.geometry.perturb import sos_mode
from repro.hull import (
    facet_sets_global,
    make_certificate,
    parallel_hull,
    robust_hull,
    sequential_hull,
    soa_hull,
    validate_hull,
    verify_certificate,
)
from repro.runtime import RoundExecutor, SerialExecutor, ThreadExecutor
from repro.runtime.chaos import ChaosThreadExecutor
from repro.runtime.faults import FaultPlan

# Families exercised in the expensive cross-discipline sweep (a subset:
# SoS polynomial arithmetic on every tie makes the full corpus x four
# executors too slow for tier 1; the fuzzer covers the rest).
CANONICAL_FAMILIES = ["duplicates-2d", "all-coincident", "coplanar-3d", "grid-2d"]


class TestCanonicalAcrossDisciplines:
    @pytest.mark.parametrize("family", CANONICAL_FAMILIES)
    def test_same_facets_every_executor(self, family):
        pts = corpus_case(family, seed=0)
        n = len(pts)
        order = np.random.default_rng(1).permutation(n)
        with sos_mode():
            seq = sequential_hull(pts, order=order.copy())
            validate_hull(seq.facets, seq.points)
            ref = facet_sets_global(seq.facets, seq.order)
            for ex, mm in (
                (SerialExecutor(), "dict"),
                (RoundExecutor(), "dict"),
                (ThreadExecutor(2), "cas"),
                (ChaosThreadExecutor(2, plan=FaultPlan(seed=5, crash_rate=0.2)),
                 "cas"),
            ):
                run = parallel_hull(pts, order=order.copy(), executor=ex,
                                    multimap=mm)
                validate_hull(run.facets, run.points)
                assert facet_sets_global(run.facets, run.order) == ref, (
                    f"{family}: {type(ex).__name__} disagrees"
                )

    def test_vertices_bracket_the_true_hull(self):
        # The perturbed hull's vertex set *does* depend on insertion
        # order for degenerate inputs (whether a collinear boundary
        # point survives as a vertex follows the rank-indexed
        # perturbation direction).  Two things are order-invariant:
        # every strictly extreme point of the original cloud is a
        # vertex, and every vertex is on the true hull boundary.
        pts = corpus_case("grid-2d", seed=0)
        corners = {
            i for i, p in enumerate(pts)
            if set(p) <= {0.0, 3.0}
        }
        boundary = {
            i for i, p in enumerate(pts)
            if 0.0 in p or 3.0 in p
        }
        for seed in (0, 1, 2):
            with sos_mode():
                run = parallel_hull(pts, seed=seed)
            validate_hull(run.facets, run.points)
            verts = run.vertex_indices()
            assert corners <= verts
            assert verts <= boundary


class TestSoaRunOutlivesSosBlock:
    @pytest.mark.parametrize("family", corpus_names())
    def test_facets_read_after_the_block_keep_sos(self, family):
        # An SoA run builds its facets on first access; they must carry
        # the SoS flag in force when the run finished, not the one in
        # force when they are first read.
        pts = corpus_case(family, seed=0)
        order = np.random.default_rng(3).permutation(len(pts))
        with sos_mode():
            run = soa_hull(pts, order=order)
        validate_hull(run.facets, run.points)
        cert = make_certificate(run, "sos")
        assert cert.sos
        verify_certificate(cert, pts)


class TestRobustLadderOnCorpus:
    @pytest.mark.parametrize("family", corpus_names())
    def test_terminates_and_records_path(self, family):
        fam = CORPUS[family]
        pts = corpus_case(family, seed=0)
        res = robust_hull(pts, seed=0)
        assert res.run.facets
        assert res.mode != "joggle", res.escalations
        assert res.joggled is None
        assert res.escalations[-1] == f"{res.mode}:ok"
        assert res.run.exec_stats.escalations == res.escalations
        assert res.certificate is not None
        if fam.full_dim:
            assert res.mode in ("float", "exact")
        else:
            # Rank-deficient: both real-coordinate rungs must fail, and
            # symbolic perturbation must succeed without joggling.
            assert res.mode == "sos"
            assert res.escalations[0].startswith("float:")
            assert res.escalations[1].startswith("exact:")


class TestNearCollinearRegression:
    """Ultra-flat full-rank clouds: facet orientation must come from
    the exact affine combination, not the rounded centroid (EXPERIMENTS
    honest note 7 -- before the fix the hulls below silently dropped
    vertices and failed validation on every rung)."""

    def test_exact_mode_hull_is_valid(self):
        pts = corpus_case("near-collinear-3d", seed=0)
        with exact_mode():
            run = parallel_hull(pts, seed=0)
        validate_hull(run.facets, run.points)

    def test_adaptive_hull_is_valid(self):
        for seed in range(3):
            pts = corpus_case("near-collinear-3d", seed=seed)
            res = robust_hull(pts, seed=seed)
            assert res.mode != "joggle", res.escalations
