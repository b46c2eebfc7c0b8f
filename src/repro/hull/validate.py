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

from ..geometry.predicates import orient_exact
from ..geometry.simplex import Facet, facet_ridges

__all__ = [
    "HullValidationError",
    "check_containment",
    "check_ridge_manifold",
    "check_counts",
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


def check_containment(facets: list[Facet], points: np.ndarray) -> None:
    """No input point may be strictly visible from any facet.

    For hulls built under SoS the planes resolve exact-zero margins by
    point rank, so containment here means containment of the *perturbed*
    cloud -- on-plane points count as outside exactly when the symbolic
    tie-break says so, making the check as strict as construction.

    Each facet takes the float test of
    :meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask` over all
    points, and the exact ladder for the rows it leaves uncertain --
    except the facet's own vertices (rows of ``points`` equal to the
    plane's base points).  They lie on the plane, so the ladder can
    only call them "not visible"; they still take the float test, which
    reports a plane whose stored normal or offset contradicts them.
    """
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
            bad = int(np.nonzero(mask)[0][0])
            raise HullValidationError(
                f"point {bad} is strictly outside facet {f.indices}"
            )


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


def validate_hull(facets: list[Facet], points: np.ndarray) -> None:
    """Run every structural check; raises :class:`HullValidationError`."""
    if not facets:
        raise HullValidationError("hull has no facets")
    d = points.shape[1]
    check_containment(facets, points)
    check_ridge_manifold(facets)
    check_counts(facets, d)


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
