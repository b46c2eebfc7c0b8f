"""Hull certificates: produced by construction, verified by an
independent exact checker, and -- the part that matters -- *rejected*
when corrupted in any of the four adversarial ways."""

import ast
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.configspace.spaces.delaunay2d import lift_to_paraboloid
from repro.geometry import integer_grid, uniform_ball
from repro.geometry.degenerate import corpus_case
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


def _per_facet_filter(base: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The verifier's float filter for one facet, as it ran before
    facets were blocked: the reference the blocked filter must match
    sign for sign."""
    d = base.shape[1]
    edges = base[1:] - base[0]
    qrows = pts - base[0]
    mats = np.broadcast_to(edges, (pts.shape[0], d - 1, d))
    dets = np.linalg.det(np.concatenate([mats, qrows[:, None, :]], axis=1))
    scale = max(1.0, float(np.abs(edges).max(initial=0.0)))
    qscale = np.maximum(1.0, np.abs(qrows).max(axis=1))
    bound = (
        math.factorial(d) * d * d * certify._EPS * (scale ** (d - 1)) * qscale
        + d**3 * (certify._TINY * scale ** (d - 1) * qscale)
    )
    out = np.zeros(pts.shape[0], dtype=np.int8)
    out[dets > bound] = 1
    out[dets < -bound] = -1
    return out


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
    integers converted once per certificate; blocking must change no
    sign, no verdict and no message."""

    @pytest.mark.parametrize("name", sorted(FILTER_INPUTS))
    def test_blocked_signs_match_per_facet_reference(self, name):
        points = FILTER_INPUTS[name]()
        cert = robust_hull(points, seed=0).certificate
        pts = points[cert.order]
        facets = np.array(cert.facets)
        want = np.stack([_per_facet_filter(pts[f], pts) for f in facets])
        assert np.array_equal(certify._batched_orient_filter(pts[facets], pts), want)
        # Blocks that split the facet list: each piece is its own stack.
        pieces = [certify._batched_orient_filter(pts[facets[lo:lo + 3]], pts)
                  for lo in range(0, len(facets), 3)]
        assert np.array_equal(np.concatenate(pieces), want)

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
