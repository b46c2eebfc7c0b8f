"""Small-matrix linear algebra used by the geometric predicate kernel.

The hull algorithms only ever need determinants and normals of matrices
whose side length is the (constant) ambient dimension ``d``, so none of
these routines try to be asymptotically clever.  What they do provide:

* a fast floating-point determinant with a conservative forward error
  bound (used as the *filter* stage of the adaptive predicates),
* exact integer determinants (:func:`det_int`: closed form up to 3x3,
  fraction-free Bareiss with exact ``//`` beyond), the *fallback* stage
  of the predicates, which scale a determinant's float entries to
  Python ints by their common power of two, and
* exact rational determinants via fraction-free Bareiss elimination
  over :class:`fractions.Fraction` (:func:`det_exact`, kept for the
  rational solvers below and as the tests' reference -- every Python
  float is exactly representable as a Fraction).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "det_with_error_bound",
    "det_int",
    "det_exact",
    "sign_exact",
    "cofactor_normal",
    "cofactor_normal_exact",
    "solve_exact",
]

# Unit roundoff for IEEE-754 binary64.
_EPS = float(np.finfo(np.float64).eps)

# Smallest positive normal double, and the absolute spacing of the
# subnormal range (2^-1074).  A subnormal intermediate -- e.g. an LU
# multiplier ``row[k] / pivot`` when one entry is ~1e-308 -- is
# quantized at that *absolute* spacing rather than at relative
# precision eps, and subsequent multiplications amplify the absolute
# error by products of entry magnitudes.  A purely multiplicative
# ``eps * Hadamard`` bound never sees this (it can even underflow to
# exactly 0.0), so every bound below carries an additive scale-aware
# floor.
_TINY = float(np.finfo(np.float64).tiny)
_SUBNORMAL_SPACING = 5e-324


def det_with_error_bound(m: np.ndarray) -> tuple[float, float]:
    """Determinant of a small square matrix plus a forward error bound.

    Returns ``(det, err)`` such that the true determinant lies within
    ``det +/- err`` whenever the Gaussian elimination performed by LAPACK
    did not suffer catastrophic growth.  The bound is the classical
    entrywise one: ``err = c(n) * eps * prod_i ||row_i||_2`` derived from
    Hadamard's inequality, inflated by a generous constant so that it is
    safe in practice.  Callers must treat ``|det| <= err`` as "sign
    unknown" and fall back to an exact determinant (:func:`det_int`).
    """
    # Envelope derivation, checked by `repro fpcheck` (atoms: ME = max
    # |entry|, AD/BC = the two n=2 product magnitudes, CM = the
    # cofactor envelope, DET = |det|).  The n>=3 committed constant
    # 16 n^3 2^(n-1) carries a 16x safety factor over the first-order
    # LAPACK model 108*ME*CM at n=3 (n^3 entry/elimination terms times
    # the 2^(n-1) pivoting growth PR 3's counterexample proved
    # necessary -- the old plain eps*Hadamard constant is the seeded
    # RPRFP001 regression fixture in tests/analyze/test_fpcheck.py):
    # repro: fp-bound: assume n in 2..3
    # repro: fp-bound: call det ~ DET err 108*ME*CM @n=3
    # repro: fp-bound: envelope err floor cof_max norms max_abs max_el
    # repro: fp-bound: guard norms
    m = np.asarray(m, dtype=np.float64)
    # repro: fp-bound: in m ~ ME
    n = m.shape[0]
    if n == 0:
        return 1.0, 0.0
    if n == 1:
        return float(m[0, 0]), 0.0
    if n == 2:
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        ad = a * d
        bc = b * c
        # repro: fp-bound: bind ad ~ AD
        # repro: fp-bound: bind bc ~ BC
        det = ad - bc
        # repro: fp-bound: claim det <= 4*AD + 4*BC @n=2
        err = 4.0 * _EPS * (abs(ad) + abs(bc)) + 4.0 * _TINY
        return float(det), float(err)
    det = float(np.linalg.det(m))
    # repro: fp-bound: claim det <= 1728*ME*CM @n=3
    # Compute the Hadamard bound underflow-safely: factor each row's
    # largest magnitude out of its norm so the product of the scaled
    # norms stays O(1) and only the explicit max-product can underflow
    # (in which case the additive floor dominates anyway).
    row_max = np.abs(m).max(axis=1)
    scaled = m / np.where(row_max > 0.0, row_max, 1.0)[:, None]
    scaled_norms = np.sqrt((scaled * scaled).sum(axis=1))
    # Hadamard-style envelope for the *cofactors*: drop the smallest
    # row norm.  A plain eps * prod(all row norms) bound is wrong --
    # on [[1,0,0],[2,5985,1805],[1.5,0,0]] elimination mixes the large
    # row into the two small (mutually near-parallel) rows, and the
    # cancellation error there scales with the large row's norm
    # squared, ~900x the full Hadamard product.  The derivative of det
    # in entry (i, j) is a cofactor, bounded by the product of the
    # other rows' norms; the backward error in each entry is
    # c(n) * eps * growth * max|entry|.
    with np.errstate(over="ignore"):
        norms = row_max * scaled_norms
    i_small = int(np.argmin(norms))
    keep = [k for k in range(n) if k != i_small]
    cof_max = float(np.prod(row_max[keep])) * float(np.prod(scaled_norms[keep]))
    # Subnormal floor, two mechanisms: (a) a subnormal *entry* can be
    # flushed/lost inside LAPACK's scaled elimination, costing up to
    # tiny times a product of n-1 other entries; (b) a subnormal LU
    # *multiplier* is quantized at the absolute subnormal spacing,
    # amplified by up to n entry magnitudes.  (inf is fine: it just
    # means "always take the exact path" for astronomically scaled
    # inputs.)
    max_el = float(row_max.max(initial=0.0))
    max_abs = max(1.0, max_el)
    with np.errstate(over="ignore"):
        amp = np.float64(max_abs) ** (n - 1)
        floor = float(n**3 * (_TINY * amp + _SUBNORMAL_SPACING * amp * max_abs))
    # c(n) = 16 n^3 entry-count/elimination constants, 2^(n-1) the
    # partial-pivoting growth factor.
    err = 16.0 * n * n * n * (2.0 ** (n - 1)) * _EPS * max_el * cof_max + floor
    return det, err


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix of Python ints.

    Closed form for ``n <= 3``; fraction-free Bareiss elimination above,
    where every division is exact (Sylvester's identity), so ``//``
    never rounds.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = m[k]
        pivot = rk[k]
        for ri in m[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - f * rk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _to_fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def det_exact(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination.

    Accepts ints, Fractions, or floats (floats are converted exactly).
    Runs in ``O(n^3)`` Fraction operations; intended for the small
    constant-dimension matrices of geometric predicates.
    """
    a = _to_fraction_rows(rows)
    n = len(a)
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            # Pivot: find a row below with a nonzero entry in column k.
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return sign * a[n - 1][n - 1]


def sign_exact(rows: Sequence[Sequence]) -> int:
    """Exact sign (-1, 0, +1) of the determinant of ``rows``."""
    d = det_exact(rows)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def cofactor_normal(points: np.ndarray) -> np.ndarray:
    """Normal of the hyperplane through ``d`` points in R^d.

    ``points`` is a ``(d, d)`` array.  The normal's ``j``-th component is
    the signed cofactor ``(-1)^j det(M_j)`` where ``M`` is the
    ``(d-1, d)`` matrix of edge vectors ``points[i] - points[0]`` and
    ``M_j`` drops column ``j``.  The result is unnormalised; its sign
    convention is fixed by the caller against a reference point.
    """
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    if points.shape[0] != d:
        raise ValueError(f"need exactly d={d} points, got {points.shape[0]}")
    if d == 1:
        return np.array([1.0])
    edges = points[1:] - points[0]  # (d-1, d)
    if d == 2:
        e = edges[0]
        return np.array([-e[1], e[0]])
    if d == 3:
        return np.cross(edges[0], edges[1])
    normal = np.empty(d)
    cols = np.arange(d)
    for j in range(d):
        minor = edges[:, cols != j]
        normal[j] = (-1.0) ** j * np.linalg.det(minor)
    return normal


def cofactor_normal_exact(points: Sequence[Sequence]) -> list[Fraction]:
    """Exact version of :func:`cofactor_normal` over Fractions."""
    pts = _to_fraction_rows(points)
    d = len(pts[0])
    if len(pts) != d:
        raise ValueError(f"need exactly d={d} points, got {len(pts)}")
    if d == 1:
        return [Fraction(1)]
    edges = [[pts[i][j] - pts[0][j] for j in range(d)] for i in range(1, d)]
    normal: list[Fraction] = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in edges]
        normal.append((-1) ** j * det_exact(minor))
    return normal


def solve_exact(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve a small linear system exactly (Gaussian elimination with
    partial pivoting over Fractions).  Raises ``ZeroDivisionError`` on a
    singular matrix."""
    a = _to_fraction_rows(rows)
    b = [Fraction(x) for x in rhs]
    n = len(a)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix in solve_exact")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        b[k], b[pivot_row] = b[pivot_row], b[k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f == 0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
            b[i] -= f * b[k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = b[i] - sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / a[i][i]
    return x
