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

from repro.geometry import uniform_ball
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
