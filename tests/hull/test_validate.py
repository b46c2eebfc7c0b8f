"""Tests for the hull validators themselves (they must catch broken
hulls, not just bless good ones)."""

import math
import os

import numpy as np
import pytest

from repro.geometry import uniform_ball
from repro.geometry.hyperplane import exact_mode
from repro.hull import robust_hull, sequential_hull, validate
from repro.hull.validate import (
    HullValidationError,
    brute_force_extreme_ranks,
    brute_force_facet_sets,
    check_containment,
    check_counts,
    check_ridge_manifold,
    validate_hull,
)
from tests.hull.test_certify import FILTER_INPUTS


@pytest.fixture
def good_run():
    pts = uniform_ball(40, 2, seed=1)
    return sequential_hull(pts, seed=2)


class TestPositive:
    def test_good_hull_passes(self, good_run):
        validate_hull(good_run.facets, good_run.points)

    def test_3d_counts(self):
        pts = uniform_ball(50, 3, seed=3)
        res = sequential_hull(pts, seed=4)
        check_counts(res.facets, 3)


class TestNegative:
    def test_missing_facet_breaks_manifold(self, good_run):
        broken = good_run.facets[1:]
        with pytest.raises(HullValidationError):
            check_ridge_manifold(broken)

    def test_outside_point_breaks_containment(self, good_run):
        pts = np.vstack([good_run.points, [[50.0, 50.0]]])
        with pytest.raises(HullValidationError):
            check_containment(good_run.facets, pts)

    def test_empty_hull_rejected(self, good_run):
        with pytest.raises(HullValidationError):
            validate_hull([], good_run.points)

    def test_wrong_2d_count(self, good_run):
        with pytest.raises(HullValidationError):
            check_counts(good_run.facets[:-1], 2)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FORCE_EXACT", "0") not in ("", "0"),
        reason="mutates the float normal, which always-exact planes "
        "never consult (they re-derive the side from base_points)",
    )
    def test_flipped_orientation_breaks_containment(self, good_run):
        # Mutation: flip one facet's plane so its "visible" half-space
        # points inward.  Every strictly interior point then reads as
        # outside -- the validator must notice, not just re-derive the
        # stored orientation and bless it.
        plane = good_run.facets[0].plane
        plane.normal = -plane.normal
        plane.offset = -plane.offset
        with pytest.raises(HullValidationError):
            check_containment(good_run.facets, good_run.points)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FORCE_EXACT", "0") not in ("", "0"),
        reason="mutates the float offset, which always-exact planes "
        "never consult (they re-derive the side from base_points)",
    )
    def test_shifted_offset_reported_at_own_vertex(self):
        # Mutation: shift one facet's stored offset by 1e-6, far past
        # its envelope.  Its own vertices then read float-visible while
        # every other point stays inside.  Containment must still fail
        # there: the exact ladder may skip a facet's own vertices, the
        # float test may not.
        tetra = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4], [1, 1, 1]])
        run = sequential_hull(tetra, order=np.arange(5))
        (facet,) = [f for f in run.facets if f.indices == (1, 2, 3)]
        facet.plane.offset -= 1e-6
        with pytest.raises(
            HullValidationError,
            match=r"^point 1 is strictly outside facet \(1, 2, 3\)$",
        ):
            validate_hull(run.facets, run.points)

    def test_duplicate_facet_breaks_manifold(self, good_run):
        # Mutation: duplicate a facet under a fresh id.  Each of its
        # ridges then has incidence 2 + 1, violating "every ridge is
        # shared by exactly two facets".
        from dataclasses import replace

        f = good_run.facets[0]
        dup = replace(f, fid=max(x.fid for x in good_run.facets) + 1)
        with pytest.raises(HullValidationError):
            check_ridge_manifold(good_run.facets + [dup])


class TestUlpContainment:
    """Containment is decided exactly: a point one ulp outside a facet
    is outside.  A tetrahedron plus (1, 1, 0), inserted last, on its
    z = 0 facet (lifted by 0.1 the coordinates carry full 53-bit
    mantissas); the validator sees that point moved to ``z``."""

    TETRA = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4], [1, 1, 0]])

    def _moved(self, lift, z):
        run = sequential_hull(self.TETRA + np.array([0.0, 0.0, lift]),
                              order=np.arange(5))
        pts = run.points.copy()
        pts[list(run.order).index(4), 2] = z
        return run.facets, pts

    @pytest.mark.parametrize("lift, z", [
        (0.0, 0.0), (0.0, 5e-324), (0.1, 0.1), (0.1, math.nextafter(0.1, 1.0)),
    ])
    def test_on_or_just_inside_passes(self, lift, z):
        facets, pts = self._moved(lift, z)
        assert len(facets) == 4
        validate_hull(facets, pts)

    @pytest.mark.parametrize("lift, z", [
        (0.0, -5e-324), (0.0, -1e-300), (0.1, math.nextafter(0.1, 0.0)),
    ])
    def test_just_outside_rejected(self, lift, z):
        facets, pts = self._moved(lift, z)
        with pytest.raises(HullValidationError, match="strictly outside"):
            validate_hull(facets, pts)


class TestBruteForce:
    def test_square(self):
        pts = np.array([[0.0, 0], [2, 0], [2, 2], [0, 2], [1, 1]])
        facets = brute_force_facet_sets(pts)
        assert facets == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({0, 3}),
        }
        assert brute_force_extreme_ranks(pts) == {0, 1, 2, 3}

    def test_tetrahedron(self):
        pts = np.vstack([np.zeros(3), np.eye(3), [[0.1, 0.1, 0.1]]])
        facets = brute_force_facet_sets(pts)
        assert len(facets) == 4
        assert brute_force_extreme_ranks(pts) == {0, 1, 2, 3}

    def test_degenerate_facets_skipped(self):
        # Four collinear points: no 2-subset on the line is a valid
        # simplicial facet against the others.
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0], [1, 2]])
        facets = brute_force_facet_sets(pts)
        for f in facets:
            assert f != frozenset({0, 1})


def _containment_one_plane_at_a_time(facets, points):
    """``check_containment`` as it ran before planes were stacked, one
    plane's float test and exact ladder at a time: the reference the
    stacked check must match violation for violation."""
    n = points.shape[0]
    for f in facets:
        plane = f.plane
        own = list(f.indices)
        on_plane = np.zeros(n, dtype=bool)
        on_plane[own] = (points[own] == plane.base_points).all(axis=1)
        if plane.always_exact:
            mask = np.zeros(n, dtype=bool)
            uncertain = ~on_plane
        else:
            mask, uncertain = plane.float_filter(points)
            uncertain &= ~on_plane
        for i in np.nonzero(uncertain)[0].tolist():
            mask[i] = plane._side_exact(points[i], i if plane.sos else None) > 0
        if mask.any():
            raise HullValidationError(
                f"point {int(np.nonzero(mask)[0][0])} is strictly outside facet {f.indices}"
            )


def _first_violation(check, facets, points) -> str:
    try:
        check(facets, points)
    except HullValidationError as exc:
        return str(exc)
    return "contained"


class TestStackedContainment:
    """The stacked check reports what a one-plane-at-a-time check
    reports: the first facet in order, the lowest rank on it."""

    @staticmethod
    def _moved_clouds(name):
        """A hull of a ``FILTER_INPUTS`` cloud, and that cloud with a
        rank off one facet (a non-vertex where there is one) moved
        through the facet, far out and 1e-12 of the way out, for the
        first, middle and last facets -- and with all three moved far
        out at once, so that several facets are violated."""
        run = robust_hull(FILTER_INPUTS[name](), seed=0).run
        facets, pts = run.facets, run.points
        d = pts.shape[1]
        interior = pts[: d + 1].mean(axis=0)
        vertices = {i for f in facets for i in f.indices}
        clouds, together = [], pts.copy()
        for f in (facets[0], facets[len(facets) // 2], facets[-1]):
            off = [j for j in range(len(pts) - 1, -1, -1) if j not in f.indices]
            j = ([i for i in off if i not in vertices] or off)[0]
            c = pts[list(f.indices)].mean(axis=0)
            for t in (1.0, 1e-12):
                moved = pts.copy()
                moved[j] = c + t * (c - interior)
                clouds.append(moved)
            together[j] = c + (c - interior)
        return facets, pts, clouds + [together]

    @pytest.mark.parametrize("name", sorted(FILTER_INPUTS))
    def test_moved_point_reports_the_reference_violation(self, name):
        facets, pts, clouds = self._moved_clouds(name)
        messages = [_first_violation(check_containment, facets, pts)]
        for moved in clouds:
            got = _first_violation(check_containment, facets, moved)
            assert got == _first_violation(_containment_one_plane_at_a_time, facets, moved)
            messages.append(got)
        assert messages[0] == "contained"
        assert any(m != "contained" for m in messages[1:])

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("name", sorted(FILTER_INPUTS))
    def test_split_blocks_report_the_reference_violation(self, name, per_block,
                                                         monkeypatch):
        # One or two facets per block, so blocks split the facet list.
        facets, pts, clouds = self._moved_clouds(name)
        monkeypatch.setattr(validate, "_CONTAIN_PAIRS", per_block * len(pts))
        assert _first_violation(check_containment, facets, pts) == "contained"
        for moved in clouds:
            assert (_first_violation(check_containment, facets, moved)
                    == _first_violation(_containment_one_plane_at_a_time, facets, moved))

    @pytest.mark.parametrize("name", sorted(FILTER_INPUTS))
    def test_exact_planes_report_the_reference_violation(self, name):
        # Hulls built under exact_mode(): every plane is always-exact, so
        # every pair but a facet's own vertices takes the batched exact
        # ladder (SoS tie-breaks on the coplanar input's sos rung).
        with exact_mode():
            facets, pts, clouds = self._moved_clouds(name)
        assert all(f.plane.always_exact for f in facets)
        assert _first_violation(check_containment, facets, pts) == "contained"
        messages = []
        for moved in clouds:
            got = _first_violation(check_containment, facets, moved)
            assert got == _first_violation(_containment_one_plane_at_a_time, facets, moved)
            messages.append(got)
        assert any(m != "contained" for m in messages)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FORCE_EXACT", "0") not in ("", "0"),
        reason="mutates the float offset, which always-exact planes "
        "never consult (they re-derive the side from base_points)",
    )
    def test_shifted_offset_reports_the_reference_violation(self):
        tetra = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4], [1, 1, 1]])
        run = sequential_hull(tetra, order=np.arange(5))
        (facet,) = [f for f in run.facets if f.indices == (1, 2, 3)]
        facet.plane.offset -= 1e-6
        want = _first_violation(_containment_one_plane_at_a_time, run.facets, run.points)
        assert want == "point 1 is strictly outside facet (1, 2, 3)"
        assert _first_violation(check_containment, run.facets, run.points) == want
