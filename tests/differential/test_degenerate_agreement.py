"""Kernel-vs-scalar agreement over the adversarial degenerate corpus.

Every family in :data:`repro.geometry.degenerate.CORPUS` is a designed
trap for float predicates -- exact ties (duplicates, grids, cocircular
points) or near-ties inside naive tolerances.  The flat sweep the SoA
engine runs must *escalate* on these, never silently disagree: its
float filter may only certify signs outside the error envelope, so
every exact tie lands in the fallback counter and comes back with the
scalar ladder's answer.
"""

import numpy as np
import pytest

from repro.configspace.spaces.delaunay2d import lift_to_paraboloid
from repro.geometry import integer_grid
from repro.geometry.degenerate import CORPUS
from repro.geometry.kernels import KernelStats
from repro.geometry.predicates import orient
from repro.hull.robust import robust_hull
from tests.sweep_orient import sweep_orient

#: Families containing *exact* ties (signed volume exactly zero for
#: some simplex x query pair).  The near-* families sit ~1e-13 off the
#: ties -- inside naive tolerances but resolvable by an honest float
#: filter, so the fallback counter may legitimately stay zero there.
TIE_FAMILIES = {
    "duplicates-2d",
    "duplicates-3d",
    "all-coincident",
    "collinear-3d",
    "coplanar-3d",
    "grid-2d",
    "grid-3d",
    "cocircular",
    "cospherical",
}


def _sampled_simplices(pts: np.ndarray, seed: int) -> np.ndarray:
    """A deterministic batch of d-subsets: sliding windows plus random
    draws, so ties between defining points and queries are guaranteed."""
    n, d = pts.shape
    rng = np.random.default_rng(seed)
    rows = [np.arange(i, i + d) % n for i in range(min(n, 10))]
    rows += [rng.choice(n, size=d, replace=False) for _ in range(10)]
    return pts[np.stack(rows)]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_predicate_agreement_on_corpus(name):
    pts = CORPUS[name](0)
    simplices = _sampled_simplices(pts, seed=hash(name) % 2**31)
    stats = KernelStats()
    got = sweep_orient(simplices, pts, stats=stats)
    for f in range(simplices.shape[0]):
        for q in range(pts.shape[0]):
            assert got[f, q] == orient(simplices[f], pts[q]), (name, f, q)
    if name in TIE_FAMILIES:
        # The queries include each simplex's own defining points, so
        # exact ties exist and every one must have taken the fallback.
        assert stats.fallbacks > 0, name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_hull_agreement_on_corpus(name):
    """The escalation ladder lands on the same rung and the same facet
    set whichever engine -- and so whichever visibility path -- runs
    underneath: the object driver's per-facet ``visible_mask`` or the
    SoA engine's flat sweep."""
    pts = CORPUS[name](1)
    objects = robust_hull(pts, seed=2, certify=False, engine="objects")
    soa = robust_hull(pts, seed=2, certify=False, engine="soa")
    assert soa.mode == objects.mode, name
    assert soa.run.facet_keys() == objects.run.facet_keys(), name
    if name in TIE_FAMILIES:
        assert soa.run.exec_stats.kernel_stats["fallbacks"] > 0, name


AGREEMENT_INPUTS = {
    **{name: (lambda name=name: CORPUS[name](1)) for name in CORPUS},
    # Cocircular grid points lift to coplanar quadruples, so the sweep's
    # exact fallback runs on every hull.
    "lifted-grid-6x6": lambda: lift_to_paraboloid(integer_grid(6, 2, seed=0)),
    "lifted-grid-10x10": lambda: lift_to_paraboloid(integer_grid(10, 2, seed=1)),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_INPUTS))
def test_default_ladder_matches_object_driver(name):
    """The default ``robust_hull`` (the SoA engine) and the object
    driver climb the same rungs to the same hull and certificate."""
    pts = AGREEMENT_INPUTS[name]()
    default = robust_hull(pts, seed=2)
    objects = robust_hull(pts, seed=2, engine="objects")
    assert default.run.exec_stats.kernel_stats["engine"] == "soa"
    assert default.mode == objects.mode
    assert default.escalations == objects.escalations
    assert default.run.facet_keys() == objects.run.facet_keys()
    assert default.certificate.to_dict() == objects.certificate.to_dict()
