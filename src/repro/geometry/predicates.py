"""Adaptive-exact geometric predicates.

Every predicate follows the classic *filtered* design: a fast
floating-point evaluation with a conservative forward error bound, and
an exact fallback that is only taken when the float result cannot be
trusted.  The fallback works on Python ints: every finite double is
``m * 2**e``, so scaling all of one determinant's entries by their
common power-of-two denominator (:func:`_scaled_ints`) gives integers
whose determinant (:func:`~repro.geometry.linalg.det_int`) has exactly
the sign of the determinant of the given floats.  The fallback thus
decides *exactly the input that was given* -- degeneracies (zero
returns) are real, not round-off artifacts.

:func:`orient_exact_batch` decides many (simplex, query) pairs at once,
with the same determinant formulas: it splits the floats with
``frexp``, scales each pair's entries to ints under the pair's own
power of two, and evaluates :func:`~repro.geometry.linalg.det_int`'s
closed forms on whole columns of Python ints.

Counters on :class:`PredicateStats` let the experiment harness account
for how often the exact path fires (one of the ablations in DESIGN.md).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from repro.runtime.atomics import ShardedCounter

from .linalg import det_int, det_with_error_bound

__all__ = [
    "PredicateStats",
    "STATS",
    "orient",
    "orient_exact",
    "orient_exact_batch",
    "orient_exact_combo",
    "in_circle",
]

#: Pairs per chunk of :func:`orient_exact_batch`'s integer stage, so
#: its Python ints stay a fixed size however many pairs one call takes.
_EXACT_CHUNK = 4096

#: ``2**53``: a ``frexp`` mantissa times this is an integer below it.
_TWO53 = float(1 << 53)

#: The largest shift that keeps a shifted 53-bit mantissa below
#: ``2**62``, so that differences of two stay inside int64.
_INT64_SHIFT = 9


class PredicateStats:
    """Global counters for predicate evaluations (reset between runs).

    Hull runs under :class:`~repro.runtime.executors.ThreadExecutor` or
    the chaos executor bump these from worker threads, so each counter
    is a :class:`~repro.runtime.atomics.ShardedCounter` (per-thread
    shards, merged on read) rather than a plain ``int`` whose ``+=``
    read-modify-write loses concurrent updates.  Reads are exact at
    quiescent points (no predicate calls in flight), which is when the
    tests and the experiment harness look.
    """

    __slots__ = ("_float", "_exact", "_sos")

    def __init__(self) -> None:
        self._float = ShardedCounter()
        self._exact = ShardedCounter()
        self._sos = ShardedCounter()

    # -- increment API (used by the predicate kernel) ----------------------

    def count_float(self, k: int = 1) -> None:
        self._float.add(k)

    def count_exact(self, k: int = 1) -> None:
        self._exact.add(k)

    def count_sos(self, k: int = 1) -> None:
        self._sos.add(k)

    # -- read API (merged totals) ------------------------------------------

    @property
    def float_calls(self) -> int:
        return self._float.value

    @property
    def exact_calls(self) -> int:
        return self._exact.value

    @property
    def sos_calls(self) -> int:
        """Symbolic-perturbation sign evaluations (see geometry.perturb)."""
        return self._sos.value

    def reset(self) -> None:
        self._float.reset()
        self._exact.reset()
        self._sos.reset()

    def snapshot(self) -> dict[str, int]:
        return {
            "float_calls": self.float_calls,
            "exact_calls": self.exact_calls,
            "sos_calls": self.sos_calls,
        }


#: Module-level statistics instance shared by all predicates.
STATS = PredicateStats()


def _scaled_ints(values) -> list[int]:
    """``values`` (each coerced with ``float()``) as Python ints under
    one common power-of-two scale: every finite double is ``p / 2**k``
    exactly (``float.as_integer_ratio``), so multiplying all of them by
    the largest such denominator is exact and positive.  NaN raises
    ``ValueError`` and inf ``OverflowError``, as ``Fraction`` does."""
    ratios = [float(x).as_integer_ratio() for x in values]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios]


def _orient_ints(flat: list, d: int, weights: list[int]) -> int:
    """Exact sign of ``det([s_1 - s_0; ...; s_{d-1} - s_0;
    sum_i w_i t_i - W s_0])`` with ``W = sum(weights) > 0``: the
    orientation of the point ``sum_i w_i t_i / W`` (one tail point of
    weight 1 is a plain query).  ``flat`` holds the ``d`` simplex rows
    and then the tail points ``t_i``, flattened; they are scaled to ints
    first and every subtraction happens on the ints -- forming
    differences in floating point would round away exactly the tiny
    components the exact fallback exists to decide."""
    v = _scaled_ints(flat)
    base = v[:d]
    tail = v[d * d:]
    total = sum(weights)
    rows = [[v[i + j] - base[j] for j in range(d)] for i in range(d, d * d, d)]
    rows.append([
        sum(w * t for w, t in zip(weights, tail[j::d])) - total * base[j]
        for j in range(d)
    ])
    det = det_int(rows)
    return (det > 0) - (det < 0)


def _orient_query(simplex: np.ndarray, query) -> int:
    """:func:`_orient_ints` for one plain query (weight 1), lean: one
    ``tolist`` each for the simplex and the query, and no weighted
    tail -- the determinant ``det([s_1 - s_0; ...; q - s_0])``."""
    d = simplex.shape[1]
    v = _scaled_ints(simplex.ravel().tolist()
                     + np.asarray(query, dtype=np.float64).tolist())
    base = v[:d]
    det = det_int([list(map(operator.sub, v[i:i + d], base))
                   for i in range(d, d * d + d, d)])
    return (det > 0) - (det < 0)


def orient(simplex: np.ndarray, query) -> int:
    """Orientation of ``query`` relative to the hyperplane through the
    ``d`` points of ``simplex`` (a ``(d, d)`` array) in R^d.

    Returns the sign (-1, 0, +1) of ``det([s_1 - s_0; ...; s_{d-1} - s_0;
    q - s_0])``.  ``+1`` means ``query`` is on the positive side under
    the right-handed convention; ``0`` means exactly on the hyperplane.
    """
    simplex = np.asarray(simplex, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    m = np.vstack([simplex[1:] - simplex[0], (q - simplex[0])[None, :]])
    det, err = det_with_error_bound(m)
    STATS.count_float()
    if det > err:
        return 1
    if det < -err:
        return -1
    STATS.count_exact()
    return _orient_query(simplex, q)


def orient_exact(simplex, query) -> int:
    """Exact orientation (always takes the integer path)."""
    simplex = np.asarray(simplex, dtype=np.float64)
    STATS.count_exact()
    return _orient_query(simplex, query)


def orient_exact_batch(simplices, queries) -> np.ndarray:
    """Exact orientations of ``E`` (simplex, query) pairs at once: an
    ``(E,)`` int8 array with ``out[e] == orient_exact(simplices[e],
    queries[e])`` for every ``e`` (``simplices`` is ``(E, d, d)``,
    ``queries`` ``(E, d)``).  Counts ``E`` exact calls.

    Pairs go through the integer stage ``_EXACT_CHUNK`` at a time, so
    its Python ints take the same memory however large ``E`` is.  NaN
    raises ``ValueError`` and inf ``OverflowError``, for the first pair
    that holds one, as :func:`orient_exact` does."""
    simplices = np.asarray(simplices, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    e = int(queries.shape[0])
    STATS.count_exact(e)
    out = np.empty(e, dtype=np.int8)
    for lo in range(0, e, _EXACT_CHUNK):
        hi = min(lo + _EXACT_CHUNK, e)
        out[lo:hi] = _orient_chunk(simplices[lo:hi], queries[lo:hi])
    return out


def _orient_chunk(simplices: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """:func:`orient_exact_batch` for one chunk.

    Every finite double is ``m * 2**(x - 53)`` with ``m = frexp
    mantissa * 2**53`` an integer, so shifting each pair's mantissas to
    the pair's least exponent ``x_min`` gives ints ``m << (x - x_min)``
    that are its entries times one positive power of two -- the
    determinant keeps its sign.  Where no shift exceeds
    ``_INT64_SHIFT`` the ints and their differences fit int64 and are
    formed there; the other pairs shift and subtract as Python ints.
    The edge rows ``s_i - s_0`` and ``q - s_0`` then take
    :func:`~repro.geometry.linalg.det_int`: its closed forms (``d <=
    3``) are plain ring arithmetic and run on whole columns of Python
    ints at once; beyond, each pair takes its own Bareiss elimination."""
    c, d = queries.shape
    if not c:
        return np.zeros(0, dtype=np.int8)
    vals = np.concatenate([simplices.reshape(c, d * d), queries], axis=1)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        # The first such pair's own conversion raises the right error.
        _scaled_ints(vals[int(np.argmin(finite))].tolist())
    mant, expo = np.frexp(vals)
    mant = (mant * _TWO53).astype(np.int64)
    nonzero = mant != 0
    shift = expo - np.where(nonzero, expo, np.iinfo(expo.dtype).max).min(
        axis=1, keepdims=True)
    shift[~nonzero] = 0
    small = (shift <= _INT64_SHIFT).all(axis=1)
    edges = np.empty((c, d, d), dtype=object)
    if small.any():
        v = mant[small] * np.left_shift(np.int64(1), shift[small])
        edges[small] = (v[:, d:].reshape(-1, d, d) - v[:, None, :d]).astype(object)
    if not small.all():
        v = np.left_shift(mant[~small].astype(object), shift[~small].astype(object))
        edges[~small] = v[:, d:].reshape(-1, d, d) - v[:, None, :d]
    if d <= 3:
        det = det_int([[edges[:, i, j] for j in range(d)] for i in range(d)])
    else:
        det = np.array(list(map(det_int, edges.tolist())), dtype=object)
    return (det > 0).astype(np.int8) - (det < 0)


def orient_exact_combo(simplex, combo_points, weights=None) -> int:
    """Exact orientation of the affine combination ``sum w_i c_i`` of
    ``combo_points`` relative to the hyperplane through ``simplex``.

    The combination is evaluated exactly, *not* rounded to a float point
    first: on nearly-flat inputs a facet plane can pass within ~1e-17 of
    the true centroid, closer than the rounding error of computing that
    centroid in float64 -- so the exact sign of the rounded point is the
    wrong question.  ``weights`` defaults to the uniform combination (the
    centroid).  The query row is scaled by ``L``, the lcm of the weight
    denominators (``1/3`` is not dyadic), which keeps it integral and the
    sign unchanged: ``L (q - s_0) = sum (L w_i) c_i - L s_0``.
    """
    simplex = np.asarray(simplex, dtype=np.float64)
    combo_points = np.asarray(combo_points, dtype=np.float64)
    k, d = combo_points.shape
    if weights is None:
        scaled = [1] * k  # L = k
    else:
        weights = [Fraction(w) for w in weights]
        if sum(weights) != 1:
            raise ValueError("combination weights must sum to 1 (affine)")
        lcm = math.lcm(*(w.denominator for w in weights))
        scaled = [w.numerator * (lcm // w.denominator) for w in weights]
    STATS.count_exact()
    return _orient_ints(
        simplex.ravel().tolist() + combo_points.ravel().tolist(), d, scaled
    )


def in_circle(a, b, c, q) -> int:
    """In-circle predicate for 2D Delaunay: +1 if ``q`` is strictly
    inside the circumcircle of the counterclockwise triangle ``(a, b,
    c)``, -1 if strictly outside, 0 if cocircular.

    For a clockwise triangle the sign is flipped, matching the standard
    lifted-determinant definition.
    """
    pts = [np.asarray(p, dtype=np.float64) for p in (a, b, c, q)]
    qv = pts[3]
    rows = []
    for p in pts[:3]:
        dx, dy = float(p[0] - qv[0]), float(p[1] - qv[1])
        rows.append([dx, dy, dx * dx + dy * dy])
    m = np.array(rows)
    det, err = det_with_error_bound(m)
    STATS.count_float()
    if det > err:
        return 1
    if det < -err:
        return -1
    STATS.count_exact()
    # Rebuild the rows exactly from the original coordinates.  Scaling
    # every coordinate by D scales the columns by D, D and D^2, which
    # leaves the sign alone.
    v = _scaled_ints([p[j] for p in pts for j in (0, 1)])
    qx, qy = v[6], v[7]
    exact_rows = []
    for i in (0, 2, 4):
        dx, dy = v[i] - qx, v[i + 1] - qy
        exact_rows.append([dx, dy, dx * dx + dy * dy])
    det = det_int(exact_rows)
    return (det > 0) - (det < 0)
