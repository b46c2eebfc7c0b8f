"""Tests for the adaptive-exact orientation and in-circle predicates."""

import math
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import predicates
from repro.geometry.linalg import sign_exact
from repro.geometry.predicates import (
    STATS,
    in_circle,
    orient,
    orient_exact,
    orient_exact_batch,
    orient_exact_combo,
)

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def point(d):
    return st.lists(coord, min_size=d, max_size=d).map(np.array)


class TestOrient2D:
    def test_left_turn(self):
        assert orient(np.array([[0.0, 0], [1, 0]]), [0.5, 1.0]) == 1

    def test_right_turn(self):
        assert orient(np.array([[0.0, 0], [1, 0]]), [0.5, -1.0]) == -1

    def test_collinear_exact_zero(self):
        # Points chosen so naive float evaluation is noisy but the exact
        # answer is zero.
        a, b = 0.1, 0.3
        assert orient(np.array([[a, a], [b, b]]), [0.2, 0.2]) == 0

    def test_near_degenerate_decided_exactly(self):
        # q a hair above the line y = x: must be +1, not 0 or -1.
        base = np.array([[0.0, 0.0], [1e8, 1e8]])
        q = [0.5e8, 0.5e8 * (1 + 2e-16)]
        assert orient(base, q) == orient_exact(base, q)

    @given(point(2), point(2), point(2))
    @settings(max_examples=150, deadline=None)
    def test_antisymmetry(self, a, b, c):
        assert orient(np.array([a, b]), c) == -orient(np.array([b, a]), c)

    @given(point(2), point(2), point(2), point(2))
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, a, b, c, t):
        s1 = orient(np.array([a, b]), c)
        s2 = orient(np.array([a + t, b + t]), c + t)
        # Exact predicates on translated floats can differ only through
        # rounding of the inputs themselves; re-check exactly.
        assert s1 == orient_exact(np.array([a, b]), c)
        assert s2 == orient_exact(np.array([a + t, b + t]), c + t)

    @given(point(2), point(2), point(2))
    @settings(max_examples=150, deadline=None)
    def test_cyclic_permutation_invariance(self, a, b, c):
        # orient(a, b; c) is the signed area: invariant under cyclic
        # rotation of (a, b, c).
        assert orient(np.array([a, b]), c) == orient(np.array([b, c]), a)


class TestOrient3D:
    def test_above_below_plane(self):
        simplex = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        up = orient(simplex, [0.2, 0.2, 1.0])
        down = orient(simplex, [0.2, 0.2, -1.0])
        assert up == -down != 0

    def test_coplanar_is_zero(self):
        simplex = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert orient(simplex, [0.3, 0.4, 0.0]) == 0

    @given(point(3), point(3), point(3), point(3))
    @settings(max_examples=100, deadline=None)
    def test_swap_antisymmetry(self, a, b, c, q):
        s1 = orient(np.array([a, b, c]), q)
        s2 = orient(np.array([b, a, c]), q)
        assert s1 == -s2

    def test_matches_exact_on_random(self, rng):
        for _ in range(200):
            pts = rng.standard_normal((3, 3))
            q = rng.standard_normal(3)
            assert orient(pts, q) == orient_exact(pts, q)


class TestHigherDim:
    def test_4d_simplex(self):
        simplex = np.eye(4)
        below = orient(simplex, np.zeros(4))       # sum of coords < 1
        above = orient(simplex, np.full(4, 10.0))  # sum of coords > 1
        assert below == -above != 0
        # The centroid of the simplex's points lies exactly on the
        # hyperplane sum(x) == 1.
        assert orient(simplex, np.full(4, 0.25)) == 0

    def test_4d_degenerate(self):
        simplex = np.eye(4)
        on_plane = np.array([0.5, 0.5, 0.0, 0.0])
        assert orient(simplex, on_plane) == 0


class TestExactFallback:
    def test_exact_path_fires_on_degeneracy(self):
        STATS.reset()
        orient(np.array([[0.0, 0], [1, 1]]), [2.0, 2.0])
        assert STATS.exact_calls >= 1

    @pytest.mark.skipif(
        os.environ.get("REPRO_FORCE_EXACT", "0") not in ("", "0"),
        reason="asserts the float fast path, which REPRO_FORCE_EXACT disables",
    )
    def test_fast_path_on_generic_input(self):
        STATS.reset()
        orient(np.array([[0.0, 0], [1, 0]]), [0.5, 5.0])
        assert STATS.exact_calls == 0
        assert STATS.float_calls == 1


class TestInCircle:
    def test_inside_unit_circle(self):
        a, b, c = [1, 0], [0, 1], [-1, 0]
        assert in_circle(a, b, c, [0.0, 0.0]) == 1

    def test_outside(self):
        a, b, c = [1, 0], [0, 1], [-1, 0]
        assert in_circle(a, b, c, [2.0, 0.0]) == -1

    def test_cocircular_zero(self):
        a, b, c = [1, 0], [0, 1], [-1, 0]
        assert in_circle(a, b, c, [0.0, -1.0]) == 0

    def test_orientation_flips_sign(self):
        a, b, c, q = [1, 0], [0, 1], [-1, 0], [0.0, 0.0]
        assert in_circle(a, b, c, q) == -in_circle(a, c, b, q)

    @given(point(2))
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_radius(self, q):
        a, b, c = [3, 0], [0, 3], [-3, 0]  # circle of radius 3 at origin
        r2 = float(q @ q)
        s = in_circle(a, b, c, q)
        if r2 < 9 - 1e-9:
            assert s == 1
        elif r2 > 9 + 1e-9:
            assert s == -1


# -- the integer exact path against the Fraction reference -----------------
#
# The reference forms every row over Fractions and decides it with
# Bareiss over Fractions (linalg.sign_exact).  The inputs stress the
# scaling to ints: subnormals, signed zeros, magnitudes near 1e308 (whose
# float differences overflow), and exponents mixed within one simplex,
# drawn from small integer mantissas so that exact ties are common.

_SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -8.98846567431158e307,
)
_EXPONENTS = (-1074, -1070, -1022, -600, -52, 0, 1, 52, 600, 960, 1020)


@st.composite
def _coords(draw, count):
    """``count`` floats: small-int mantissas on one shared exponent
    (many exact ties) or on mixed exponents, salted with specials."""
    shared = draw(st.booleans())
    e0 = draw(st.sampled_from(_EXPONENTS))
    out = []
    for _ in range(count):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            out.append(draw(st.sampled_from(_SPECIAL)))
        elif kind == 1:
            out.append(draw(st.floats(allow_nan=False, allow_infinity=False)))
        else:
            e = e0 if shared else draw(st.sampled_from(_EXPONENTS))
            out.append(math.ldexp(draw(st.integers(-3, 3)), e))
    return out


@st.composite
def _simplex_and_query(draw):
    d = draw(st.integers(2, 5))
    simplex = np.array(draw(_coords(d * d))).reshape(d, d)
    mode = draw(st.sampled_from(["free", "vertex", "ulp"]))
    if mode == "free":
        q = np.array(draw(_coords(d)))
    else:
        # On the hyperplane (a vertex), or one ulp off it.
        q = simplex[draw(st.integers(0, d - 1))].copy()
        if mode == "ulp":
            j = draw(st.integers(0, d - 1))
            q[j] = math.nextafter(q[j], draw(st.sampled_from([-math.inf, math.inf])))
            assume(np.isfinite(q[j]))
    return simplex, q


def _fraction_sign(simplex, q_exact) -> int:
    base = [Fraction(float(x)) for x in simplex[0]]
    rows = [[Fraction(float(x)) - b for x, b in zip(p, base)] for p in simplex[1:]]
    rows.append([x - b for x, b in zip(q_exact, base)])
    return sign_exact(rows)


class TestIntegerPathMatchesFractions:
    @given(_simplex_and_query())
    @settings(max_examples=400, deadline=None)
    def test_orient(self, case):
        simplex, q = case
        want = _fraction_sign(simplex, [Fraction(float(x)) for x in q])
        with np.errstate(all="ignore"):
            assert orient(simplex, q) == want
        assert orient_exact(simplex, q) == want

    @given(
        _simplex_and_query(),
        _coords(5),
        st.lists(st.integers(-3, 3), min_size=5, max_size=5),
        st.integers(3, 5),
        st.sampled_from(["uniform", "weighted", "weighted-tie"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_orient_exact_combo(self, case, free, t, k, mode):
        simplex, q = case
        d = simplex.shape[0]
        r = np.array(free[:d])
        if mode == "weighted-tie":
            # (q - s_0)/3 + (r - s_0)/7 == 0, so with a vertex as the
            # third point the combination lies on the hyperplane -- under
            # these weights only (exactly so when s_0 + 3t and s_0 - 7t
            # are representable).
            t = np.array(t[:d], dtype=np.float64)
            q, r = simplex[0] + 3.0 * t, simplex[0] - 7.0 * t
        pts = np.vstack([q, r, simplex[1:]])
        if mode == "uniform":
            pts = pts[:k]
            weights = None
            ws = [Fraction(1, pts.shape[0])] * pts.shape[0]
        else:
            pts = pts[:3]
            weights = ws = [Fraction(1, 3), Fraction(1, 7), Fraction(11, 21)]
        combo = [
            sum(w * Fraction(float(c[j])) for w, c in zip(ws, pts))
            for j in range(d)
        ]
        with np.errstate(all="ignore"):
            got = orient_exact_combo(simplex, pts, weights)
        assert got == _fraction_sign(simplex, combo)

    # Lattice points on the circle of radius 5 about the origin.
    _CIRCLE = [
        (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
        (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3),
    ]

    @given(
        st.permutations(range(12)),
        st.sampled_from(_EXPONENTS),
        st.integers(-8, 8),
        st.integers(-8, 8),
        st.sampled_from([0, 1, -1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_in_circle_cocircular(self, perm, e, cx, cy, nudge):
        # Four cocircular points, scaled and translated; ``nudge`` moves
        # the query one ulp in x (near-cocircular) or not at all.
        a, b, c, q = (
            [math.ldexp(x, e) + cx, math.ldexp(y, e) + cy]
            for x, y in (self._CIRCLE[i] for i in perm[:4])
        )
        if nudge:
            q[0] = math.nextafter(q[0], nudge * math.inf)
        qx, qy = Fraction(q[0]), Fraction(q[1])
        rows = []
        for p in (a, b, c):
            dx, dy = Fraction(p[0]) - qx, Fraction(p[1]) - qy
            rows.append([dx, dy, dx * dx + dy * dy])
        want = sign_exact(rows)
        if not nudge and (cx, cy) == (0, 0):
            assert want == 0
        with np.errstate(all="ignore"):
            assert in_circle(a, b, c, q) == want


class TestNonFiniteInputs:
    """The exact path rejects what it cannot decide, with the exception
    types ``Fraction`` raises: NaN -> ValueError, inf -> OverflowError."""

    S2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    S3 = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("bad, exc", [(np.nan, ValueError), (np.inf, OverflowError)])
    def test_orient(self, bad, exc):
        with np.errstate(all="ignore"):
            with pytest.raises(exc):
                orient(self.S2, [0.5, bad])
            with pytest.raises(exc):
                orient(self.S3, [0.2, bad, 1.0])
        with pytest.raises(exc):
            orient_exact(self.S3, [bad, 0.0, 0.0])
        with pytest.raises(exc):
            orient_exact(np.array([[bad, 0.0], [1.0, 0.0]]), [0.5, 0.5])

    @pytest.mark.parametrize("bad, exc", [(np.nan, ValueError), (np.inf, OverflowError)])
    def test_combo_and_in_circle(self, bad, exc):
        with pytest.raises(exc):
            orient_exact_combo(self.S3, [[0.0, 0, 1], [bad, 0, 1]])
        with np.errstate(all="ignore"):
            with pytest.raises(exc):
                in_circle([1, 0], [0, 1], [-1, 0], [bad, 0.0])


# -- orient_exact_batch vs orient_exact, entry by entry ----------------------
#
# The batch scales each pair's floats to ints through ``frexp`` instead
# of ``as_integer_ratio`` and evaluates whole columns at once, in chunks;
# every sign must still be ``orient_exact``'s.


@st.composite
def _batch_case(draw):
    """``(simplices, queries)``: ``E`` pairs in R^d of one kind --
    full-mantissa floats, small-integer degenerate pairs (exact zeros:
    queries on their simplex's hyperplane), queries one ulp off a
    vertex, magnitudes from 1e-300 to 1e300 mixed within a pair, or
    subnormals mixed with normal floats."""
    d = draw(st.sampled_from([2, 3, 4]), label="d")
    e = draw(st.integers(0, 40), label="E")
    kind = draw(st.sampled_from(["full", "small", "ulp", "mixed", "subnormal"]),
                label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "small":
        s = rng.integers(-2, 3, size=(e, d, d)).astype(np.float64)
        # Integer combinations of the vertices with coefficients summing
        # to 1 lie on the hyperplane; a third of the queries are free.
        w = rng.integers(-2, 3, size=(e, d))
        w[:, 0] = 1 - w[:, 1:].sum(axis=1)
        q = np.einsum("ek,ekj->ej", w, s)
        free = rng.random(e) < 0.3
        q[free] = rng.integers(-2, 3, size=(int(free.sum()), d))
        return s, q
    if kind == "mixed":
        mant = rng.integers(-(1 << 52), 1 << 52, size=(e, d * d + d))
        vals = np.ldexp(mant.astype(np.float64), rng.integers(-1048, 944, size=mant.shape))
    elif kind == "subnormal":
        vals = np.where(rng.random((e, d * d + d)) < 0.6,
                        rng.integers(-9, 10, size=(e, d * d + d)) * 5e-324,
                        rng.standard_normal((e, d * d + d)))
    else:
        vals = rng.standard_normal((e, d * d + d)) * 10.0 ** rng.uniform(-3, 3)
    s, q = vals[:, : d * d].reshape(e, d, d), vals[:, d * d:].copy()
    if kind == "ulp" and e:
        # A vertex, one ulp off in one coordinate (a third stay on it).
        rows = np.arange(e)
        q = s[rows, rng.integers(0, d, size=e)].copy()
        nudged = rows[rng.random(e) < 0.7]
        j = rng.integers(0, d, size=nudged.size)
        q[nudged, j] = np.nextafter(q[nudged, j], np.where(
            rng.random(nudged.size) < 0.5, np.inf, -np.inf))
    return s, q


class TestOrientExactBatch:
    @given(_batch_case(), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_signs_are_orient_exact_signs(self, case, chunk):
        simplices, queries = case
        want = [orient_exact(s, q) for s, q in zip(simplices, queries)]
        before = STATS.exact_calls
        # A chunk of a few pairs, so that batches cross chunk boundaries.
        with mock.patch.object(predicates, "_EXACT_CHUNK", chunk):
            got = orient_exact_batch(simplices, queries)
        assert STATS.exact_calls - before == len(want)
        assert got.dtype == np.int8 and got.tolist() == want

    def test_empty_batch(self):
        for d in (2, 3, 4):
            got = orient_exact_batch(np.zeros((0, d, d)), np.zeros((0, d)))
            assert got.shape == (0,)

    def test_across_the_real_chunk_boundary(self):
        rng = np.random.default_rng(3)
        e = predicates._EXACT_CHUNK + 5
        simplices = rng.integers(-2, 3, size=(e, 3, 3)).astype(np.float64)
        queries = rng.integers(-2, 3, size=(e, 3)).astype(np.float64)
        want = [orient_exact(s, q) for s, q in zip(simplices, queries)]
        assert orient_exact_batch(simplices, queries).tolist() == want
        assert 0 in want[-5:] or len(set(want[-5:])) > 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_finite_raises_as_orient_exact(self, data):
        # NaN and inf anywhere in a batch: the first pair holding one
        # raises what orient_exact raises on it.
        d = data.draw(st.sampled_from([2, 3, 4]))
        e = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vals = rng.standard_normal((e, d * d + d))
        for bad in data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]),
                                      min_size=1, max_size=3)):
            vals[rng.integers(0, e), rng.integers(0, d * d + d)] = bad
        simplices, queries = vals[:, : d * d].reshape(e, d, d), vals[:, d * d:]
        want = None
        for s, q in zip(simplices, queries):
            try:
                orient_exact(s, q)
            except (ValueError, OverflowError) as exc:
                want = type(exc)
                break
        assert want is not None
        chunk = data.draw(st.integers(1, 5))
        with mock.patch.object(predicates, "_EXACT_CHUNK", chunk):
            with pytest.raises(want):
                orient_exact_batch(simplices, queries)
