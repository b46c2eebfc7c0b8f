"""The dynamic closure of `repro fpcheck`: committed >= derived >= observed.

The static analyzer proves ``committed dominates derived`` symbolically;
what it *trusts* is the annotation surface (the ``in``/``bind``/``out``
magnitude atoms and the transfer rules).  This differential closes the
loop numerically: for every envelope claim on the four kernel
boundaries we evaluate

* **committed** -- the claim polynomial (the envelope the code ships),
* **derived**   -- the analyzer's first-order bound, and
* **observed**  -- the true forward error, measured by shadow-executing
  the same arithmetic in exact :class:`~fractions.Fraction` rationals,

at the measured per-input atom values, and assert the three-way chain
``committed >= derived >= observed`` over random inputs (three scales)
and every family of the degenerate corpus.  A transfer rule that
under-counts a rounding, or an annotation atom that does not actually
bound its array, breaks the chain here even though the static check
passes.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.analyze import analyze_fpcheck
from repro.analyze.fperror import EPS, poly_atoms, poly_eval
from repro.geometry import kernels
from repro.geometry.degenerate import corpus_case, corpus_names
from repro.geometry.kernels import batch_planes
from repro.geometry.linalg import det_exact, det_with_error_bound
from repro.hull import certify
from tests.sweep_orient import sweep_orient

REPO = Path(__file__).resolve().parents[2]

#: slack for second-order terms (the derived bound is first order in u)
#: and for the float evaluation of the atom polynomials themselves.
SLACK = 1.0 + 2.0 ** -40

_RESULT = analyze_fpcheck([str(REPO / "src" / "repro")])
CLAIMS: dict = {}
for _c in _RESULT.claims:
    CLAIMS.setdefault((_c.qualname, _c.name, _c.pin), []).append(_c)


def _claim(qual_tail: str, name: str, d: int, atom: str | None = None,
           package: str = "geometry"):
    """The claim on ``name``; where a value carries several, the one
    whose committed bound mentions ``atom``."""
    cs = CLAIMS.get((f"repro.{package}.{qual_tail}", name, ("d", d))) \
        or CLAIMS.get((f"repro.{package}.{qual_tail}", name, ("n", d)))
    assert cs, (qual_tail, name, d)
    if atom is not None:
        cs = [c for c in cs if atom in poly_atoms(c.committed)]
    assert len(cs) == 1, (qual_tail, name, d, atom)
    c = cs[0]
    assert c.ok and c.derived is not None
    return c


def _frac_rows(a: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in a.tolist()]


def _exact_plane(simplex: np.ndarray):
    """Exact (normal, offset) with batch_planes' sign convention."""
    f = _frac_rows(simplex)
    d = len(f[0])
    e = [[f[i + 1][j] - f[0][j] for j in range(d)] for i in range(d - 1)]
    if d == 2:
        normal = [-e[0][1], e[0][0]]
    else:
        normal = [
            e[0][1] * e[1][2] - e[0][2] * e[1][1],
            e[0][2] * e[1][0] - e[0][0] * e[1][2],
            e[0][0] * e[1][1] - e[0][1] * e[1][0],
        ]
    offset = sum(n * x for n, x in zip(normal, f[0]))
    return normal, offset


def _plane_atoms(simplices, normals, offsets, err_base):
    """The per-plane measured atom values the annotation declares."""
    edges = simplices[:, 1:, :] - simplices[:, :1, :]
    row_norms = np.sqrt((edges * edges).sum(axis=2))
    out = []
    for fi in range(simplices.shape[0]):
        rn = row_norms[fi]
        out.append({
            "S": float(np.abs(simplices[fi]).max(initial=0.0)),
            "B": float(err_base[fi]),
            "R0": float(rn[0]),
            "R1": float(rn[-1]),
            "H": float(np.prod(rn)),
            "NRM": float(np.abs(normals[fi]).sum()),
            "OFF": float(abs(offsets[fi])),
        })
    return out


def _blocks():
    """(label, simplices (F,d,d), queries (Q,d)) test blocks: random at
    three scales per dimension, plus every degenerate family."""
    blocks = []
    rng = np.random.default_rng(0)
    for d in (2, 3):
        for scale in (1.0, 1e8, 1e-8):
            sims = rng.standard_normal((4, d, d)) * scale
            qs = rng.standard_normal((5, d)) * scale
            blocks.append((f"random-d{d}-s{scale:g}", sims, qs))
    for name in corpus_names():
        pts = np.asarray(corpus_case(name, seed=0), dtype=np.float64)
        d = pts.shape[1]
        if d not in (2, 3) or pts.shape[0] < d + 2:
            continue
        nf = min(4, pts.shape[0] - d)
        sims = np.stack([pts[i:i + d] for i in range(nf)])
        qs = pts[-min(4, pts.shape[0]):]
        blocks.append((f"degenerate-{name}", sims, qs))
    return blocks


BLOCKS = _blocks()


def _ids():
    return [b[0] for b in BLOCKS]


def _chain(committed: float, derived: float, observed: float, where: str):
    assert committed * SLACK >= derived, \
        f"{where}: committed {committed!r} < derived {derived!r}"
    assert derived * SLACK >= observed, \
        f"{where}: derived {derived!r} < observed {observed!r}"


class TestBatchPlanes:
    @pytest.mark.parametrize("label,sims,qs", BLOCKS, ids=_ids())
    def test_normals_and_offsets_three_way(self, label, sims, qs):
        d = sims.shape[1]
        normals, offsets, e_scale, e_base = batch_planes(sims)
        atoms = _plane_atoms(sims, normals, offsets, e_base)
        c_n = _claim("kernels.batch_planes", "normals", d)
        c_o = _claim("kernels.batch_planes", "offsets", d)
        for fi in range(sims.shape[0]):
            n_ex, off_ex = _exact_plane(sims[fi])
            obs_n = max(abs(Fraction(x) - e)
                        for x, e in zip(normals[fi].tolist(), n_ex))
            obs_o = abs(Fraction(float(offsets[fi])) - off_ex)
            _chain(poly_eval(c_n.committed, atoms[fi]) * EPS,
                   poly_eval(c_n.derived, atoms[fi]) * EPS,
                   float(obs_n), f"{label} normals[{fi}]")
            _chain(poly_eval(c_o.committed, atoms[fi]) * EPS,
                   poly_eval(c_o.derived, atoms[fi]) * EPS,
                   float(obs_o), f"{label} offsets[{fi}]")


class TestMarginSweeps:
    @pytest.mark.parametrize("label,sims,qs", BLOCKS, ids=_ids())
    def test_sweep_signs_match_exact(self, label, sims, qs):
        # End-to-end: the envelope the chain certifies is the one the
        # sweep filters with, so every sign its two sweeps return must
        # equal the exact rational sign.
        signs = sweep_orient(sims, qs)
        for fi in range(sims.shape[0]):
            n_ex, off_ex = _exact_plane(sims[fi])
            for qi in range(qs.shape[0]):
                exact = sum(n * Fraction(x)
                            for n, x in zip(n_ex, qs[qi].tolist())) - off_ex
                want = (exact > 0) - (exact < 0)
                assert signs[fi, qi] == want, (label, fi, qi)

    @pytest.mark.parametrize("label,sims,qs", BLOCKS, ids=_ids())
    def test_visible_flat_margins_three_way(self, label, sims, qs):
        """Both margin claims of the staged sweep: against the
        per-entry envelope (atom Q, the point's |p|_inf) and against
        the per-plane bound (atom P, the max over the swept points).
        The bound's chain goes one step further, on the kernel's own
        float values: every entry's per-entry envelope is at most its
        plane's bound (the monotone-rounding argument that lets the
        bound decide first), and that bound is at most the committed
        P envelope."""
        d = sims.shape[1]
        normals, offsets, e_scale, e_base = batch_planes(sims)
        atoms = _plane_atoms(sims, normals, offsets, e_base)
        nf, nq = sims.shape[0], qs.shape[0]
        blocks = np.full(nf, nq)
        ranks = np.tile(np.arange(nq), nf)
        # visible_flat's column sweep: its gathered coordinate columns
        # and expanded plane columns, through the kernel's own margin
        # code, so an edit to the sweep's arithmetic is observed here.
        xs = np.take(np.ascontiguousarray(qs.T), ranks, axis=1)
        g = np.repeat(np.vstack([normals.T, offsets]), blocks, axis=1)
        margins = kernels._column_margins(xs, g[:d], g[d])
        # ... and its two envelopes (filter scale 1, pts_inf=None).
        p_max = float(np.abs(xs).max())
        scaled_base = e_scale * e_base
        bound = e_scale * p_max + scaled_base
        c_q = _claim("kernels.visible_flat", "margins", d, atom="Q")
        c_p = _claim("kernels.visible_flat", "margins", d, atom="P")
        for m in range(margins.shape[0]):
            fi, qi = m // nq, int(ranks[m])
            n_ex, off_ex = _exact_plane(sims[fi])
            a = dict(atoms[fi])
            a["Q"] = float(np.abs(qs[qi]).max(initial=0.0))
            a["P"] = p_max
            exact = sum(n * Fraction(x)
                        for n, x in zip(n_ex, qs[qi].tolist())) - off_ex
            obs = abs(Fraction(float(margins[m])) - exact)
            _chain(poly_eval(c_q.committed, a) * EPS,
                   poly_eval(c_q.derived, a) * EPS,
                   float(obs), f"{label} flat[{m}]")
            _chain(poly_eval(c_p.committed, a) * EPS,
                   poly_eval(c_p.derived, a) * EPS,
                   float(obs), f"{label} flat[{m}] vs bound")
            env = e_scale[fi] * a["Q"] + scaled_base[fi]
            assert env <= bound[fi], (label, m, env, bound[fi])
            assert bound[fi] <= poly_eval(c_p.committed, a) * EPS * SLACK, \
                (label, m, bound[fi])


class TestStackedContainment:
    @pytest.mark.parametrize("label,sims,qs", BLOCKS, ids=_ids())
    def test_validator_margins_three_way(self, label, sims, qs):
        """``validate._stacked_float_test``'s margins (one matmul of the
        plane stack against the points) against both its claims: the
        per-row envelope (atom Q) and the per-plane bound (atom P)."""
        d = sims.shape[1]
        normals, offsets, e_scale, e_base = batch_planes(sims)
        atoms = _plane_atoms(sims, normals, offsets, e_base)
        # The stacked sweep, operand for operand.
        margins = normals @ np.ascontiguousarray(qs.T)
        margins -= offsets[:, None]
        p_max = float(np.abs(qs).max())
        c_q = _claim("validate._stacked_float_test", "margins", d, atom="Q", package="hull")
        c_p = _claim("validate._stacked_float_test", "margins", d, atom="P", package="hull")
        for fi in range(sims.shape[0]):
            n_ex, off_ex = _exact_plane(sims[fi])
            for qi in range(qs.shape[0]):
                a = dict(atoms[fi])
                a["Q"] = float(np.abs(qs[qi]).max(initial=0.0))
                a["P"] = p_max
                exact = sum(n * Fraction(x)
                            for n, x in zip(n_ex, qs[qi].tolist())) - off_ex
                obs = abs(Fraction(float(margins[fi, qi])) - exact)
                for c in (c_q, c_p):
                    _chain(poly_eval(c.committed, a) * EPS,
                           poly_eval(c.derived, a) * EPS,
                           float(obs), f"{label} stacked[{fi},{qi}]")


def _verifier_blocks():
    """BLOCKS, plus random d=4 blocks at three scales: the verifier's
    filter is claimed for d in 2..4."""
    rng = np.random.default_rng(2)
    extra = [(f"random-d4-s{scale:g}", rng.standard_normal((3, 4, 4)) * scale,
              rng.standard_normal((5, 4)) * scale)
             for scale in (1.0, 1e8, 1e-8)]
    return BLOCKS + extra


VERIFIER_BLOCKS = _verifier_blocks()


class TestVerifierFilter:
    @pytest.mark.parametrize("label,sims,qs", VERIFIER_BLOCKS,
                             ids=[b[0] for b in VERIFIER_BLOCKS])
    def test_verifier_margins_three_way(self, label, sims, qs):
        """``certify._filter_block``'s margins against its claim, and the
        bound the filter ships (``certify._filter_bound``) against the
        committed envelope.  The exact margin is the one of the exact
        integer plane scaled by ``2**-s`` -- the plane the rounded
        normal and offset stand for."""
        nf, d, _ = sims.shape
        pts = np.vstack([sims.reshape(-1, d), qs])
        facets = np.arange(nf * d).reshape(nf, d)
        rows, normals, offsets, f_normals, f_offsets = certify._exact_planes(pts, facets)
        p_inf = float(np.abs(pts).max())
        # The filter's sweep, operand for operand.
        margins = f_normals @ np.ascontiguousarray(pts.T)
        margins -= f_offsets[:, None]
        bound = certify._filter_bound(f_normals, p_inf)
        c = _claim("certify._filter_block", "margins", d, package="hull")
        ints = rows.tolist()
        unit = Fraction(2) ** certify._frexp_ints(pts)[1]   # pts == ints * unit
        for fi in range(nf):
            n_int = normals[fi].tolist()
            s = max(map(int.bit_length, n_int))
            a = {"NRM": float(np.abs(f_normals[fi]).sum()),
                 "OFF": float(abs(f_offsets[fi])), "P": p_inf}
            committed = poly_eval(c.committed, a) * EPS
            assert bound[fi] * SLACK >= committed, (label, fi, bound[fi], committed)
            for qi in range(pts.shape[0]):
                exact = Fraction(sum(n * q for n, q in zip(n_int, ints[qi]))
                                 - offsets[fi]) * unit / 2 ** s
                obs = abs(Fraction(float(margins[fi, qi])) - exact)
                _chain(committed, poly_eval(c.derived, a) * EPS,
                       float(obs), f"{label} filter[{fi},{qi}]")


def _det_matrices():
    mats = []
    rng = np.random.default_rng(1)
    for n in (2, 3):
        for scale in (1.0, 1e8, 1e-8):
            for _ in range(3):
                mats.append((f"random-n{n}-s{scale:g}",
                             rng.standard_normal((n, n)) * scale))
    # PR 3's counterexample: two near-parallel small rows mixed with a
    # large one -- the case the old eps*Hadamard envelope under-covered.
    mats.append(("pr3-pivot-growth",
                 np.array([[1.0, 0.0, 0.0],
                           [2.0, 5985.0, 1805.0],
                           [1.5, 0.0, 0.0]])))
    # Exactly singular and near-singular.
    mats.append(("singular", np.array([[1.0, 2.0], [2.0, 4.0]])))
    base = rng.standard_normal((3, 3))
    base[2] = base[0] + base[1] * (1 + 1e-14)
    mats.append(("near-singular", base))
    for name in corpus_names():
        pts = np.asarray(corpus_case(name, seed=0), dtype=np.float64)
        d = pts.shape[1]
        if d in (2, 3) and pts.shape[0] >= d:
            mats.append((f"degenerate-{name}", pts[:d].copy()))
    return mats


DET_MATS = _det_matrices()


class TestDetWithErrorBound:
    @pytest.mark.parametrize("label,m", DET_MATS,
                             ids=[x[0] for x in DET_MATS])
    def test_three_way(self, label, m):
        n = m.shape[0]
        det, env = det_with_error_bound(m)
        obs = abs(Fraction(det) - det_exact(m.tolist()))
        row_norms = np.sqrt((m * m).sum(axis=1))
        keep = np.argsort(row_norms)[1:]
        if n == 2:
            a, b, c_, d_ = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            atoms = {"AD": float(abs(a * d_)), "BC": float(abs(b * c_)),
                     "ME": float(np.abs(m).max()), "CM": 1.0, "DET": abs(det)}
        else:
            atoms = {"ME": float(np.abs(m).max()),
                     "CM": float(np.prod(row_norms[keep])),
                     "DET": abs(det)}
        c = _claim("linalg.det_with_error_bound", "det", n)
        committed = poly_eval(c.committed, atoms) * EPS
        derived = poly_eval(c.derived, atoms) * EPS
        _chain(committed, derived, float(obs), f"{label} det")
        # The envelope the function actually returns carries the same
        # committed constant plus the subnormal floor: it must cover the
        # observed error too (the end-to-end filter guarantee).
        assert env * SLACK >= float(obs), (label, env, float(obs))
