"""Hull certificates: produced by construction, verified by an
independent exact checker, and -- the part that matters -- *rejected*
when corrupted in any of the four adversarial ways."""

import ast
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configspace.spaces.delaunay2d import lift_to_paraboloid
from repro.geometry import integer_grid, predicates, uniform_ball
from repro.geometry.degenerate import corpus_case
from repro.geometry.linalg import det_exact
from repro.hull import (
    facet_sets_global,
    parallel_hull,
    robust_hull,
)
from repro.hull import certify
from repro.hull.certify import (
    CORRUPTION_MODES,
    CertificateError,
    HullCertificate,
    corrupt_certificate,
    make_certificate,
    verify_certificate,
)
from repro.hull.soa import soa_hull


@pytest.fixture(params=[2, 3], ids=["d2", "d3"])
def cert_and_points(request):
    d = request.param
    pts = uniform_ball(40, d, seed=d)
    run = parallel_hull(pts, seed=1)
    return make_certificate(run, "float"), pts, run


class TestVerify:
    def test_good_certificate_accepted(self, cert_and_points):
        cert, pts, _ = cert_and_points
        verify_certificate(cert, pts)

    def test_facets_are_original_indices(self, cert_and_points):
        cert, pts, run = cert_and_points
        assert cert.facet_sets_global() == facet_sets_global(run.facets, run.order)

    def test_json_roundtrip(self, cert_and_points):
        cert, pts, _ = cert_and_points
        blob = json.dumps(cert.to_dict())
        back = HullCertificate.from_dict(json.loads(blob))
        verify_certificate(back, pts)
        assert back.facet_sets_global() == cert.facet_sets_global()

    def test_wrong_points_rejected(self, cert_and_points):
        # An affine map of the cloud would still verify (hulls are
        # affine-invariant); reversing the point order is not affine.
        cert, pts, _ = cert_and_points
        other = pts[::-1].copy()
        with pytest.raises(CertificateError):
            verify_certificate(cert, other)


class TestCorruptions:
    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_corruption_rejected(self, cert_and_points, mode):
        cert, pts, _ = cert_and_points
        corrupted = corrupt_certificate(cert, mode, seed=0)
        with pytest.raises(CertificateError):
            verify_certificate(corrupted, pts)

    def test_unknown_mode_rejected(self, cert_and_points):
        cert, _, _ = cert_and_points
        with pytest.raises(ValueError):
            corrupt_certificate(cert, "make-it-worse")


class TestSosCertificates:
    def test_coplanar_sos_certificate(self):
        pts = corpus_case("coplanar-3d", seed=0)
        res = robust_hull(pts, seed=0)
        assert res.mode == "sos"
        cert = res.certificate
        assert cert.sos
        verify_certificate(cert, pts)

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_sos_corruption_rejected(self, mode):
        pts = corpus_case("coplanar-3d", seed=0)
        res = robust_hull(pts, seed=0)
        corrupted = corrupt_certificate(res.certificate, mode, seed=1)
        with pytest.raises(CertificateError):
            verify_certificate(corrupted, pts)

    def test_duplicate_points_sos_certificate(self):
        base = uniform_ball(8, 2, seed=2)
        pts = np.vstack([base, base[:4]])
        from repro.geometry.perturb import sos_mode

        with sos_mode():
            run = parallel_hull(pts, seed=0)
        cert = make_certificate(run, "sos")
        assert cert.sos
        verify_certificate(cert, pts)


class TestRobustIntegration:
    def test_every_rung_certifies(self):
        pts = uniform_ball(40, 2, seed=9)
        res = robust_hull(pts, seed=0)
        assert res.certificate is not None
        assert res.certificate.mode == res.mode
        verify_certificate(res.certificate, pts)

    def test_certify_false_skips(self):
        pts = uniform_ball(40, 2, seed=9)
        res = robust_hull(pts, seed=0, certify=False)
        assert res.certificate is None


class TestIndependentExactStage:
    """The verifier's exact stage is its own code, and it decides
    containment down to the last bit of a coordinate."""

    def test_verifier_imports_nothing_from_geometry(self):
        tree = ast.parse(Path(certify.__file__).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mod = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), "repro.hull"
                )
                imported += [mod] + [f"{mod}.{a.name}" for a in node.names]
        assert "numpy" in imported
        geometry = [m for m in imported
                    if m == "repro.geometry" or m.startswith("repro.geometry.")]
        assert geometry == []

    # A tetrahedron plus (1, 1, 0), inserted last, on its z = 0 facet;
    # lifted by 0.1 the coordinates carry full 53-bit mantissas.
    TETRA = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4], [1, 1, 0]])

    def _moved(self, lift, z):
        pts = self.TETRA + np.array([0.0, 0.0, lift])
        cert = make_certificate(parallel_hull(pts, order=np.arange(5)))
        pts[4, 2] = z
        return cert, pts

    @pytest.mark.parametrize("lift, z", [
        (0.0, 0.0), (0.0, 5e-324), (0.1, 0.1), (0.1, math.nextafter(0.1, 1.0)),
    ])
    def test_on_or_just_inside_accepted(self, lift, z):
        cert, pts = self._moved(lift, z)
        assert len(cert.facets) == 4
        verify_certificate(cert, pts)

    @pytest.mark.parametrize("lift, z", [
        (0.0, -5e-324), (0.0, -1e-300), (0.1, math.nextafter(0.1, 0.0)),
    ])
    def test_just_outside_rejected(self, lift, z):
        cert, pts = self._moved(lift, z)
        with pytest.raises(CertificateError, match="strictly outside"):
            verify_certificate(cert, pts)


def _filter_signs(pts: np.ndarray, facets: np.ndarray, vis: np.ndarray,
                  per_block: int) -> np.ndarray:
    """The verifier's float stage over every (facet, point) pair, in
    blocks of ``per_block`` facets, as orientation signs: +1 or -1
    where the filter decides the pair, 0 where it leaves it to the
    exact stage.  ``vis`` orients each plane as a certificate's visible
    sign does."""
    _, _, _, f_normals, f_offsets = certify._exact_planes(pts, facets)
    f_normals *= vis[:, None]
    f_offsets *= vis
    pts_t = np.ascontiguousarray(pts.T)
    p_inf = float(np.abs(pts).max())
    out = np.full((len(facets), len(pts)), -1, dtype=np.int8)
    for lo in range(0, len(facets), per_block):
        rows, cols, visible = certify._filter_block(
            f_normals[lo:lo + per_block], f_offsets[lo:lo + per_block], pts_t, p_inf)
        out[lo + rows, cols] = visible
    return out * vis[:, None].astype(np.int8)


def _exact_sign(base: np.ndarray, q: np.ndarray) -> int:
    """``sign det([b_1 - b_0; ...; q - b_0])`` in Fractions."""
    b0 = [Fraction(x) for x in base[0].tolist()]
    rows = [[Fraction(x) - y for x, y in zip(r.tolist(), b0)]
            for r in list(base[1:]) + [q]]
    det = det_exact(rows)
    return (det > 0) - (det < 0)


@st.composite
def _filter_cases(draw):
    """(points, facets, visible signs): a cloud of one of the kinds the
    filter must stay sound on, and a few of its d-subsets as planes."""
    d = draw(st.sampled_from([2, 3, 4]))
    kind = draw(st.sampled_from(
        ["floats", "small-int", "lifted", "planted", "sliver", "outlier", "subnormal"]))
    n = draw(st.integers(d + 1, 9))
    if kind in ("floats", "outlier"):
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        pts = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
        if kind == "outlier":
            pts[draw(st.integers(0, n - 1))] *= 1e300 / max(1.0, float(np.abs(pts).max()))
    elif kind in ("small-int", "lifted", "subnormal"):
        ints = st.integers(-3, 3)
        pts = np.array(draw(st.lists(ints, min_size=n * d, max_size=n * d)),
                       dtype=np.float64).reshape(n, d)
        if kind == "lifted":
            # Cospherical / coplanar ties: the last coordinate on the
            # paraboloid over the others.
            pts[:, -1] = (pts[:, :-1] ** 2).sum(axis=1)
        elif kind == "subnormal":
            pts *= 2.0 ** -1074 * draw(st.sampled_from([1.0, 3.0, 2.0 ** 20]))
    else:
        # Integer vertices, points exactly on their plane (small integer
        # affine combinations, e.g. b + c - a) and points one ulp off it.
        # A sliver's edges are a long edge plus small steps, so its
        # normal is far shorter than the products it is made of: a
        # float cofactor loses it to cancellation.
        big = st.integers(-(2 ** 20), 2 ** 20)
        base = np.array(draw(st.lists(big, min_size=d * d, max_size=d * d)),
                        dtype=np.float64).reshape(d, d)
        if kind == "sliver":
            long = np.array(draw(st.lists(st.integers(2 ** 29, 2 ** 30), min_size=d,
                                          max_size=d)), dtype=np.float64)
            steps = np.array(draw(st.lists(st.integers(-3, 3), min_size=d * d,
                                           max_size=d * d)), dtype=np.float64)
            base[1:] = base[0] + np.arange(1, d)[:, None] * long + steps.reshape(d, d)[1:]
        lam = np.array(draw(st.lists(st.integers(-2, 2), min_size=(n - d) * (d - 1),
                                     max_size=(n - d) * (d - 1))),
                       dtype=np.float64).reshape(n - d, d - 1)
        planted = base[0] + lam @ (base[1:] - base[0])
        for k in range(0, n - d, 2):
            j = draw(st.integers(0, d - 1))
            planted[k, j] = np.nextafter(planted[k, j], draw(st.sampled_from([-np.inf, np.inf])))
        pts = np.vstack([base, planted])
    subsets = st.permutations(range(n)).map(lambda p: tuple(sorted(p[:d])))
    facets = np.array(draw(st.lists(subsets, min_size=1, max_size=5, unique=True)),
                      dtype=np.int64)
    vis = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(facets),
                                 max_size=len(facets))))
    return pts, facets, vis


FILTER_INPUTS = {
    "ball-2d": lambda: uniform_ball(60, 2, seed=5),
    "ball-3d": lambda: uniform_ball(60, 3, seed=6),
    "grid-3d": lambda: corpus_case("grid-3d", seed=0),
    "cospherical": lambda: corpus_case("cospherical", seed=0),
    "coplanar-3d": lambda: corpus_case("coplanar-3d", seed=0),
    "lifted-grid-6x6": lambda: lift_to_paraboloid(integer_grid(6, 2, seed=0)),
}


class TestBlockedVerifier:
    """Containment is decided for a block of facets at once, over
    integers converted once per certificate: a float stage whose every
    decided sign is exact, and an exact stage on integer planes;
    blocking must change no sign, no verdict and no message."""

    @settings(max_examples=300, deadline=None)
    @given(_filter_cases())
    def test_filter_signs_are_exact_signs(self, case):
        # Every sign the float stage decides is the exact sign, every
        # exact zero (a facet's own vertices included) is left
        # uncertain, and blocking changes nothing.
        pts, facets, vis = case
        signs = _filter_signs(pts, facets, vis, per_block=len(facets))
        for k, f in enumerate(facets):
            for i, q in enumerate(pts):
                want = _exact_sign(pts[f], q)
                if want == 0:
                    assert signs[k, i] == 0, (k, i)
                elif signs[k, i]:
                    assert signs[k, i] == want, (k, i)
        assert np.array_equal(_filter_signs(pts, facets, vis, per_block=1), signs)

    @pytest.mark.parametrize("name", sorted(FILTER_INPUTS))
    def test_blocked_signs_match_per_facet_reference(self, name):
        # On a real certificate's facets and visible signs: the float
        # stage's signs over the whole facet list are its per-facet
        # signs and those of blocks that split the list; every decided
        # sign is the exact sign, every exact zero is left uncertain,
        # and no decided pair is visible.
        points = FILTER_INPUTS[name]()
        cert = robust_hull(points, seed=0).certificate
        pts = points[cert.order]
        facets = np.array(cert.facets)
        vis = np.array(cert.vis_signs, dtype=np.float64)
        signs = _filter_signs(pts, facets, vis, per_block=len(facets))
        assert np.array_equal(_filter_signs(pts, facets, vis, per_block=1), signs)
        assert np.array_equal(_filter_signs(pts, facets, vis, per_block=3), signs)
        assert not (signs == vis[:, None]).any()
        for k, f in enumerate(facets):
            for i, q in enumerate(pts):
                want = _exact_sign(pts[f], q)
                if want == 0:
                    assert signs[k, i] == 0, (k, i)
                elif signs[k, i]:
                    assert signs[k, i] == want, (k, i)

    @pytest.mark.parametrize("name", sorted(FILTER_INPUTS))
    def test_split_blocks_give_the_same_verdicts(self, name, monkeypatch):
        points = FILTER_INPUTS[name]()
        cert = robust_hull(points, seed=0).certificate

        cases = [(corrupt_certificate(cert, mode, seed=2), points)
                 for mode in CORRUPTION_MODES]
        if not cert.sos:
            # A containment violation on the last facet: reflect the
            # interior reference through the facet's centroid, so some
            # later point lands strictly on its visible side.
            pts = points[cert.order]
            last = list(cert.facets[-1])
            j = max(set(range(cert.d + 1, cert.n)) - set(last))
            moved = points.copy()
            moved[cert.order[j]] = (
                2 * pts[last].mean(axis=0) - pts[: cert.d + 1].mean(axis=0)
            )
            cases.append((cert, moved))

        def messages() -> list[str]:
            verify_certificate(cert, points)
            out = []
            for bad, where in cases:
                with pytest.raises(CertificateError) as exc:
                    verify_certificate(bad, where)
                out.append(str(exc.value))
            return out

        whole = messages()
        # Two facets per block, so blocks split the facet list.
        monkeypatch.setattr(certify, "_FILTER_PAIRS", 2 * cert.n)
        assert messages() == whole

    def test_first_of_several_violations_is_reported(self, monkeypatch):
        # Three points moved out: rank 4 just below z = 0 (only the exact
        # stage sees it), rank 5 far below it (the float filter sees
        # it), rank 6 far outside x = 0.  Per facet, in facet order, the
        # float test comes before the exact stage, so rank 5 on the
        # first facet is reported, however the facets are blocked.
        pts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4],
                        [1, 1, 1], [0.5, 0.5, 0.5], [1, 2, 0.5]])
        cert = make_certificate(parallel_hull(pts, order=np.arange(7)))
        pts[4, 2] = -5e-324
        pts[5, 2] = -1.0
        pts[6, 0] = -1.0
        want = r"^point rank 5 is strictly outside facet \(0, 1, 2\)$"
        with pytest.raises(CertificateError, match=want):
            verify_certificate(cert, pts)
        monkeypatch.setattr(certify, "_FILTER_PAIRS", 1)
        with pytest.raises(CertificateError, match=want):
            verify_certificate(cert, pts)


class TestVisibleSigns:
    """Emission reads every facet's visible sign; an SoA run's planes
    carry theirs, so reading them makes no exact call."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_soa_planes_carry_their_visible_signs(self, d):
        run = soa_hull(uniform_ball(300, d, seed=d), seed=1)
        before = predicates.STATS.exact_calls
        signs = {f.indices: f.plane.vis_sign for f in run.facets}
        cert = make_certificate(run)
        assert predicates.STATS.exact_calls == before
        assert cert.vis_signs == [signs[f] for f in cert.facets]
        assert list(signs.values()) == [
            -predicates.orient_exact(f.plane.base_points, run.interior)
            for f in run.facets
        ]
