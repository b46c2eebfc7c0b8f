"""Structural and geometric validation of hull results.

Used throughout the test suite to certify that both hull algorithms (and
any baseline) produced the true convex hull:

* no input point is strictly visible from any output facet
  (containment);
* every ridge of the output is shared by exactly two facets (the hull
  is a closed (d-1)-manifold);
* vertex sets match a brute-force extreme-point computation and -- in
  tests -- ``scipy.spatial.ConvexHull``;
* combinatorial sanity per dimension (2D: #facets == #vertices; 3D
  simplicial: F = 2V - 4).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..geometry.hyperplane import side_exact_batch
from ..geometry.predicates import STATS, orient_exact
from ..geometry.simplex import Facet, facet_ridges

__all__ = [
    "HullValidationError",
    "check_containment",
    "check_ridge_manifold",
    "check_counts",
    "check_structure",
    "validate_hull",
    "facet_sets_global",
    "brute_force_extreme_ranks",
    "brute_force_facet_sets",
]


def facet_sets_global(facets: list["Facet"], order: np.ndarray) -> set[frozenset]:
    """Facet point-sets mapped back to the caller's original indices --
    the right way to compare hulls computed under different insertion
    orders (per-run facet keys live in rank space)."""
    return {frozenset(int(order[i]) for i in f.indices) for f in facets}


class HullValidationError(AssertionError):
    """A hull invariant failed."""


#: Facet-point pairs per stacked float-test block: a block of facet
#: planes is tested against every point in one matmul, and this bounds
#: its ``(facets, points)`` margin array (a block holds at least one
#: facet).
_CONTAIN_PAIRS = 1 << 16


def check_containment(facets: list[Facet], points: np.ndarray) -> None:
    """No input point may be strictly visible from any facet.

    For hulls built under SoS the planes resolve exact-zero margins by
    point rank, so containment here means containment of the *perturbed*
    cloud -- on-plane points count as outside exactly when the symbolic
    tie-break says so, making the check as strict as construction.

    Each float-certain plane takes the float test of
    :meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask` over all
    points, and the exact ladder for the rows it leaves uncertain --
    except the facet's own vertices (rows of ``points`` equal to the
    plane's base points).  They lie on the plane, so the ladder can
    only call them "not visible"; they still take the float test, which
    reports a plane whose stored normal or offset contradicts them.  An
    always-exact plane sends every other row to the ladder.

    The float test runs stacked: the planes' ``(normal, offset,
    err_scale, err_base)`` rows are stacked once, and each block of
    facets (``_CONTAIN_PAIRS`` pairs or so) meets every point in one
    matmul.  Each plane's bound ``err_scale * (err_base + P)``, ``P``
    the points' max ``|p|_inf``, decides almost every margin; only the
    rest form the per-row envelope ``err_scale * (err_base +
    |q|_inf)``.  Rounding is monotone, so the bound is at least every
    row's envelope, and a margin it decides is one the envelope alone
    decides the same way.  A block's ladder stream then takes one
    :func:`~repro.geometry.hyperplane.side_exact_batch` call, and a
    plane's visible sign is read only where one of its exact signs is
    nonzero, as the scalar ladder reads it -- so a passing check makes
    the exact calls a one-plane-at-a-time check makes.  The violation
    reported is the first facet's lowest-ranked one, as that check
    would report; a failing check may have decided pairs past it.
    """
    if not facets:
        return
    n = points.shape[0]
    planes = [f.plane for f in facets]
    indices = np.array([f.indices for f in facets], dtype=np.int64)
    normals = np.stack([p.normal for p in planes])
    offsets = np.array([p.offset for p in planes], dtype=np.float64)
    e_scale = np.array([p.err_scale for p in planes], dtype=np.float64)
    e_base = np.array([p.err_base for p in planes], dtype=np.float64)
    exact = np.array([p.always_exact for p in planes], dtype=bool)
    sos = np.array([p.sos for p in planes], dtype=bool)
    base_points = np.stack([p.base_points for p in planes])
    base_indices = np.array([p.base_indices if p.sos else f.indices
                             for p, f in zip(planes, facets)], dtype=np.int64)
    # Own vertices: the rows of a facet's indices equal to its plane's
    # base points.
    own = (points[indices] == base_points).all(axis=2)
    q_inf = np.abs(points).max(axis=1)
    p_inf = float(q_inf.max(initial=0.0))
    pts_t = np.ascontiguousarray(points.T)
    per_block = max(1, _CONTAIN_PAIRS // max(n, 1))
    for lo in range(0, len(facets), per_block):
        hi = min(lo + per_block, len(facets))
        rows, cols, visible, uncertain = _stacked_float_test(
            normals[lo:hi], offsets[lo:hi], e_scale[lo:hi], e_base[lo:hi],
            pts_t, q_inf, p_inf)
        STATS.count_float(n * int(np.count_nonzero(~exact[lo:hi])))
        rows += lo
        on_plane = ((indices[rows] == cols[:, None]) & own[rows]).any(axis=1)
        float_rows = ~exact[rows]
        # The exact ladder's (facet, rank) stream: a float plane's
        # uncertain rows but its own vertices, and every row but its
        # own vertices of an always-exact plane.
        take = uncertain & ~on_plane & float_rows
        ek = lo + np.flatnonzero(exact[lo:hi])
        kk, qq = np.repeat(ek, n), np.tile(np.arange(n), ek.size)
        mine = ((indices[kk] == qq[:, None]) & own[kk]).any(axis=1)
        ks = np.concatenate([rows[take], kk[~mine]])
        qs = np.concatenate([cols[take], qq[~mine]])
        bad_k, bad_q = [rows[visible & float_rows]], [cols[visible & float_rows]]
        if ks.size:
            s = side_exact_batch(base_points, base_indices, None, sos, ks, points, qs)
            # Visible signs of the planes with a nonzero exact sign only:
            # a lazy one costs an exact call, as on the scalar ladder.
            signed = np.flatnonzero(s)
            need = np.unique(ks[signed])
            vis = np.zeros(len(facets), dtype=np.int8)
            vis[need] = [planes[k].vis_sign for k in need.tolist()]
            hit = signed[s[signed] == vis[ks[signed]]]
            bad_k.append(ks[hit])
            bad_q.append(qs[hit])
        # The first violated facet, and its lowest violating rank.
        bad_k, bad_q = np.concatenate(bad_k), np.concatenate(bad_q)
        if bad_k.size:
            first = np.lexsort((bad_q, bad_k))[0]
            raise HullValidationError(
                f"point {int(bad_q[first])} is strictly outside facet "
                f"{facets[int(bad_k[first])].indices}")


def _stacked_float_test(normals, offsets, err_scale, err_base, pts_t, q_inf, p_inf):
    """The float test of a block of float planes against every point:
    ``(rows, cols)`` of every (plane, point) pair the per-plane bound
    does not prove invisible, in row-major order, and which of them are
    float-visible and which uncertain (inside the per-row envelope).
    Rows of always-exact planes come out too; the caller ignores them.
    """
    # The envelope of Hyperplane.float_filter, with the stacked plane
    # rows standing in for one plane's, and the per-plane bound of
    # visible_flat in front of it (P = the points' max |p|_inf).
    # Checked by `repro fpcheck`:
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: fact OFF <= d*NRM*B
    # repro: fp-bound: fact Q <= P
    # repro: fp-bound: guard bound env
    # repro: fp-bound: envelope bound env
    # repro: fp-bound: in normals ~ NRM err 6*H
    # repro: fp-bound: in offsets ~ OFF err 6*d*H*B + 2*d^2*NRM*B
    # repro: fp-bound: in pts_t ~ Q
    # repro: fp-bound: in p_inf ~ P
    margins = normals @ pts_t
    margins -= offsets[:, None]
    # repro: fp-bound: claim margins <= 16*d*(d*d*H + NRM + 1)*(B + Q)
    # repro: fp-bound: claim margins <= 16*d*(d*d*H + NRM + 1)*(B + P)
    bound = err_scale * (err_base + p_inf)
    # Everything but a margin below minus its bound (NaN included).
    flat = np.flatnonzero(~(margins < -bound[:, None]))
    rows, cols = np.divmod(flat, margins.shape[1])
    m = margins.ravel()[flat]
    env = err_scale[rows] * (err_base[rows] + q_inf[cols])
    return rows, cols, m > env, np.abs(m) <= env


def check_ridge_manifold(facets: list[Facet]) -> None:
    """Every ridge must be incident on exactly two facets."""
    incidence: dict[frozenset, int] = {}
    for f in facets:
        for r in facet_ridges(f.indices):
            incidence[r] = incidence.get(r, 0) + 1
    bad = {tuple(sorted(r)): k for r, k in incidence.items() if k != 2}
    if bad:
        raise HullValidationError(f"non-manifold ridges (ridge -> count): {bad}")


def check_counts(facets: list[Facet], d: int) -> None:
    """Dimension-specific combinatorial checks for simplicial hulls."""
    v = len({i for f in facets for i in f.indices})
    fcount = len(facets)
    if d == 2 and fcount != v:
        raise HullValidationError(f"2D hull must have #edges == #vertices; got {fcount} != {v}")
    if d == 3 and fcount != 2 * v - 4:
        raise HullValidationError(
            f"simplicial 3D hull must satisfy F = 2V - 4; got F={fcount}, V={v}"
        )


def check_structure(facets: list[Facet], d: int) -> None:
    """The checks that need no geometry: the hull has facets, every
    ridge is shared by two of them, and the counts of a simplicial hull
    in R^d hold.  A certified ``robust_hull`` rung runs these alone and
    leaves containment to the certificate's independent verifier."""
    if not facets:
        raise HullValidationError("hull has no facets")
    check_ridge_manifold(facets)
    check_counts(facets, d)


def validate_hull(facets: list[Facet], points: np.ndarray) -> None:
    """Run every check -- containment, then :func:`check_structure` --
    and raise :class:`HullValidationError` on the first failure."""
    check_containment(facets, points)
    check_structure(facets, points.shape[1])


def brute_force_extreme_ranks(points: np.ndarray) -> set[int]:
    """Exact extreme points by LP-free enumeration: rank ``i`` is
    extreme iff some hyperplane through d-1 other points ... is
    expensive; instead we use the direct definition via facet
    enumeration.  Intended for small n in tests."""
    facet_sets = brute_force_facet_sets(points)
    return {i for s in facet_sets for i in s}


def brute_force_facet_sets(points: np.ndarray) -> set[frozenset]:
    """All d-subsets of points that span a hull facet, decided exactly:
    the subset's hyperplane has all other points strictly on one side
    (general position assumed -- a zero orientation for a non-member
    raises, as the simplicial hull is then ill-defined).  O(n^{d+1});
    tests only."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    out: set[frozenset] = set()
    for combo in combinations(range(n), d):
        simplex = points[list(combo)]
        signs = set()
        degenerate = False
        for j in range(n):
            if j in combo:
                continue
            s = orient_exact(simplex, points[j])
            if s == 0:
                degenerate = True
                break
            signs.add(s)
            if len(signs) == 2:
                break
        if degenerate:
            continue
        if len(signs) <= 1:
            out.add(frozenset(combo))
    return out
