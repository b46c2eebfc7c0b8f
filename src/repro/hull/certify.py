"""Certified hull outputs: emit a :class:`HullCertificate` from any run
and verify it with an exact checker that shares no code with
construction.

The construction pipeline (``geometry.hyperplane`` + ``hull.parallel``)
is large and concurrent; trusting its own ``validate_hull`` means
trusting the same predicate kernel that built the hull.  A certificate
is a small, serializable claim --

* the facet list (as insertion-rank tuples) plus the insertion order
  (mapping ranks back to the caller's indices),
* per facet: the orientation sign that means "visible" and an extreme
  *witness* vertex lying on the facet's supporting hyperplane,
* the ridge pairing (which two facets share each ridge),
* the interior reference, expressed as the uniform affine combination
  of ranks ``0..d`` so it can be reproduced exactly,

-- checked here by an independent verifier:

* a *different* float filter, staged as parlaylib's ``is_opposite``
  is: each facet's plane is set up once -- its exact integer normal
  (the ``d`` cofactor minors of its integer edge rows), scaled by a
  power of two and rounded to floats once, correctly -- and each
  (facet, point) pair then costs one multiply-add per coordinate, a
  block of facets against the whole cloud in one matmul.  One bound
  per facet, the dot-product error bound from the rounded normal's
  1-norm and the cloud's max ``|p|_inf`` (the normal's and the
  offset's roundings included) plus an underflow term, decides almost
  every pair; construction builds float cofactor normals with a
  Hadamard envelope instead;
* a *different* exact stage.  Both sides scale one determinant's float
  entries by a power of two and decide its sign on Python ints, but by
  different means: here each float is split with ``frexp`` into an
  integer mantissa and an exponent, and every coordinate of the cloud
  is shifted, once per certificate, to the least exponent present; the
  determinant is expanded along its query row -- the sign of
  ``N . (q - b_0)`` for the facet's integer normal ``N``, set up once
  per facet, whose minors are recursive Laplace expansions.
  Construction (``geometry.predicates``) scales each determinant on
  its own -- ``float.as_integer_ratio`` for one call, ``frexp`` and the
  pair's own least exponent for a batch -- and evaluates every entry's
  full determinant with ``geometry.linalg.det_int``'s formulas
  (closed form up to 3x3, on whole columns in a batch; fraction-free
  Bareiss beyond).  The interior reference enters as the integer row
  ``sum(p_i) - (d+1) p_0``, its centroid's row scaled by ``d+1``;
* a *different* Simulation-of-Simplicity sign (brute-force permutation
  expansion of the homogeneous perturbed matrix, vs construction's
  sparse-polynomial cofactor recursion).

The two implementations agree only if both are right, which is the point.
``robust_hull`` certifies after every rung of its escalation ladder, and
``repro certify`` exposes the same check (plus deliberate corruption
modes for testing the checker) on the command line.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "CertificateError",
    "HullCertificate",
    "make_certificate",
    "verify_certificate",
    "corrupt_certificate",
    "CORRUPTION_MODES",
]

SCHEMA = "repro-hull-certificate/1"

_U = float(np.finfo(np.float64).eps) / 2  # the unit roundoff
_MAX = float(np.finfo(np.float64).max)
_SUB = math.ulp(0.0)  # the least subnormal, 2**-1074
_TWO53 = float(1 << 53)


class CertificateError(AssertionError):
    """The certificate does not describe a convex hull of the points."""


@dataclass
class HullCertificate:
    """A self-contained, independently checkable description of a hull.

    All point references are insertion *ranks*; ``order[rank]`` maps
    back to the caller's original index.  ``facets`` are sorted tuples
    of ranks in a canonical (sorted) order.  ``vis_signs[k]`` is the
    exact orientation sign (of the determinant ``det([f_1 - f_0; ...;
    q - f_0])``) that means "q is visible from facet k"; ``witnesses[k]``
    is a vertex rank of facet k, on the facet's supporting hyperplane by
    construction of the hull -- the extreme point exhibiting that the
    plane touches the hull.  ``ridges`` lists every ridge with the pair
    of facet positions sharing it.  ``sos`` marks a canonical hull of
    the symbolically perturbed cloud (ties broken by rank), in which
    case the checker resolves zero signs the same way.
    """

    n: int
    d: int
    mode: str
    sos: bool
    order: list[int]
    facets: list[tuple[int, ...]]
    vis_signs: list[int]
    witnesses: list[int]
    interior_ranks: tuple[int, ...]
    ridges: list[tuple[tuple[int, ...], tuple[int, int]]] = field(repr=False)
    schema: str = SCHEMA

    def facet_sets_global(self) -> set[frozenset]:
        """Facet point-sets over the caller's original indices."""
        return {frozenset(self.order[i] for i in f) for f in self.facets}

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "n": self.n,
            "d": self.d,
            "mode": self.mode,
            "sos": self.sos,
            "order": list(map(int, self.order)),
            "facets": [list(map(int, f)) for f in self.facets],
            "vis_signs": list(map(int, self.vis_signs)),
            "witnesses": list(map(int, self.witnesses)),
            "interior_ranks": list(map(int, self.interior_ranks)),
            "ridges": [
                [list(map(int, r)), list(map(int, pair))] for r, pair in self.ridges
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "HullCertificate":
        if data.get("schema") != SCHEMA:
            raise CertificateError(f"unknown certificate schema {data.get('schema')!r}")
        return HullCertificate(
            n=int(data["n"]),
            d=int(data["d"]),
            mode=str(data["mode"]),
            sos=bool(data["sos"]),
            order=[int(x) for x in data["order"]],
            facets=[tuple(int(x) for x in f) for f in data["facets"]],
            vis_signs=[int(x) for x in data["vis_signs"]],
            witnesses=[int(x) for x in data["witnesses"]],
            interior_ranks=tuple(int(x) for x in data["interior_ranks"]),
            # Tolerate non-2 incidence lists here: a *corrupted* hull's
            # ridge can have 1 or 3 incident facets, and the checker
            # (not the parser) is what must reject it.
            ridges=[
                (tuple(int(x) for x in r), tuple(int(x) for x in p))
                for r, p in data["ridges"]
            ],
        )


# --------------------------------------------------------------------------
# Emission (reads the run's claims; does no checking of its own).
# --------------------------------------------------------------------------

def make_certificate(run, mode: str = "float") -> HullCertificate:
    """Extract a certificate from a finished hull run.

    ``run`` is any result object with ``points`` (rank-ordered), ``order``,
    and ``facets`` (alive :class:`~repro.geometry.simplex.Facet` list) --
    both :func:`~repro.hull.parallel.parallel_hull` and
    :func:`~repro.hull.sequential.sequential_hull` results qualify.
    """
    d = int(run.points.shape[1])
    facets = sorted(run.facets, key=lambda f: f.indices)
    ridge_map: dict[tuple[int, ...], list[int]] = {}
    vis_signs: list[int] = []
    witnesses: list[int] = []
    sos = bool(facets and facets[0].plane.sos)
    for pos, f in enumerate(facets):
        vis_signs.append(int(f.plane.vis_sign))
        witnesses.append(int(f.indices[0]))
        for i in f.indices:
            r = tuple(sorted(set(f.indices) - {i}))
            ridge_map.setdefault(r, []).append(pos)
    ridges = [
        (r, (pair[0], pair[1]) if len(pair) == 2 else tuple(pair))
        for r, pair in sorted(ridge_map.items())
    ]
    return HullCertificate(
        n=int(run.points.shape[0]),
        d=d,
        mode=mode,
        sos=sos,
        order=[int(x) for x in run.order],
        facets=[tuple(f.indices) for f in facets],
        vis_signs=vis_signs,
        witnesses=witnesses,
        interior_ranks=tuple(range(d + 1)),
        ridges=ridges,
    )


# --------------------------------------------------------------------------
# The independent verifier.  Everything below deliberately reimplements
# the predicate stack with different algorithms -- keep it free of
# imports from repro.geometry (tests/hull/test_certify.py enforces it).
# --------------------------------------------------------------------------

def _frexp_ints(values: np.ndarray) -> tuple[list[int], int]:
    """``values`` as exact Python ints under one common power-of-two
    scale, from ``frexp``: ``x = m * 2**e`` with ``m * 2**53`` an
    integer, every value shifted to the least exponent present.
    Returns ``(ints, scale)`` with ``values[i] == ints[i] * 2**scale``.
    NaN raises ``ValueError`` and inf ``OverflowError``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(values).all():
        for x in values.tolist():
            int(math.frexp(x)[0] * _TWO53)   # raises, as int() does
    mant, exp = np.frexp(values)
    mant = (mant * _TWO53).astype(np.int64)  # exact: 53-bit mantissas
    nz = mant != 0
    low = int(exp[nz].min()) if nz.any() else 0
    shifts = np.where(nz, exp - low, 0).tolist()
    return list(map(operator.lshift, mant.tolist(), shifts)), low - 53


def _laplace_dets(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of an ``(F, k, k)`` object array of Python
    ints, all ``F`` at once, by recursive Laplace expansion along the
    first row (quadratic-factorial in ``k``, but independent of
    Bareiss; ``k`` is at most ``d - 1``)."""
    k = mats.shape[1]
    if k == 1:
        return mats[:, 0, 0]
    cols = np.arange(k)
    total = np.zeros(mats.shape[0], dtype=object)
    for j in range(k):
        term = mats[:, 0, j] * _laplace_dets(mats[:, 1:, cols != j])
        total = total + term if j % 2 == 0 else total - term
    return total


def _integer_planes(rows: np.ndarray, facets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer planes of every facet at once: ``N`` is ``(F, d)``
    and ``O`` is ``(F,)``, object arrays of Python ints, such that
    ``N[f] . x - O[f] == det([b_1 - b_0; ...; b_{d-1} - b_0; x - b_0])``
    for the integer rows ``b_i`` of facet ``f``'s vertices -- the
    orientation determinant expanded along its query row, whose
    cofactors are the ``d`` minors of the edge rows.  ``rows`` is the
    ``(n, d)`` object array of the cloud's integer rows."""
    d = rows.shape[1]
    base = rows[facets[:, 0]]
    edges = rows[facets[:, 1:]] - base[:, None, :]
    cols = np.arange(d)
    normals = np.empty((facets.shape[0], d), dtype=object)
    for j in range(d):
        minor = _laplace_dets(edges[:, :, cols != j])
        normals[:, j] = minor if (d - 1 + j) % 2 == 0 else -minor
    return normals, (normals * base).sum(axis=1)


def _int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _scaled_float(num: int, exp: int) -> float:
    """``num * 2**exp``, correctly rounded (Python's int/int true
    division is), and signed infinity past the float range."""
    try:
        return float(num << exp) if exp >= 0 else num / (1 << -exp)
    except OverflowError:
        return math.copysign(math.inf, num)


def _float_planes(normals: np.ndarray, offsets: np.ndarray,
                  scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Each facet's exact plane as floats, rounded once: its integer
    normal times ``2**-s``, ``s`` the bit length of its largest
    component (so the largest lands in ``[1/2, 1]`` and none overflows;
    each component within ``u`` relative, or an underflow's absolute
    ``2**-1075``, of exact), and its offset -- the plane through the
    float vertices, ``O * 2**(scale - s)`` for points ``ints *
    2**scale`` -- the same way."""
    bits = [max(map(int.bit_length, row)) for row in normals.tolist()]
    den = np.empty(len(bits), dtype=object)
    den[:] = [1 << s for s in bits]
    f_normals = (normals / den[:, None]).astype(np.float64)
    f_offsets = np.array(
        [_scaled_float(o, scale - s) for o, s in zip(offsets.tolist(), bits)],
        dtype=np.float64,
    )
    return f_normals, f_offsets


def _orient_sos_bruteforce(
    base: np.ndarray, base_ranks: Sequence[int], q, q_rank: int | None,
    q_exact: list[Fraction] | None = None,
    q_combo: list[tuple[int, Fraction]] | None = None,
) -> int:
    """Simulation-of-Simplicity orientation by brute-force expansion of
    the homogeneous (d+1)x(d+1) determinant

        det [[1, p_i + (eps^(2^(i*d+j)))_j] for rows i]

    over all permutations and all perturbed/unperturbed entry choices.
    Exponential in d -- fine for the small fixed dimensions this repo
    targets, and algorithmically unrelated to geometry.perturb's sparse
    cofactor recursion.  The query row is either a ranked input point
    (``q_rank``) or, for the interior reference, an affine combination
    of ranked points: ``q_exact`` its exact coordinates and ``q_combo``
    the ``(rank, weight)`` terms whose eps-perturbations it inherits.
    """
    d = base.shape[1]
    # rows: (constant 1, [(coeff, exponent-or-0 term list)])
    entries: list[list[list[tuple[Fraction, int]]]] = []

    def point_entries(p, rank, exact=None, combo=None):
        row: list[list[tuple[Fraction, int]]] = [[(Fraction(1), 0)]]
        for j in range(d):
            coord = exact[j] if exact is not None else Fraction(float(p[j]))
            cell = [(coord, 0)] if coord else []
            if rank is not None:
                cell.append((Fraction(1), 1 << (rank * d + j)))
            if combo is not None:
                cell.extend((w, 1 << (k * d + j)) for k, w in combo)
            row.append(cell)
        return row

    for p, r in zip(base, base_ranks):
        entries.append(point_entries(p, r))
    entries.append(point_entries(q, q_rank, q_exact, q_combo))

    m = d + 1
    poly: dict[int, Fraction] = {}
    for perm in itertools.permutations(range(m)):
        inv = 0
        for a in range(m):
            for b in range(a + 1, m):
                inv += perm[a] > perm[b]
        psign = -1 if inv % 2 else 1
        # Multiply out the chosen cells (each a sum of monomials).
        terms: list[tuple[Fraction, int]] = [(Fraction(psign), 0)]
        dead = False
        for i in range(m):
            cell = entries[i][perm[i]]
            if not cell:
                dead = True
                break
            terms = [
                (c1 * c2, e1 + e2) for c1, e1 in terms for c2, e2 in cell
            ]
        if dead:
            continue
        for c, e in terms:
            s = poly.get(e, Fraction(0)) + c
            if s:
                poly[e] = s
            else:
                poly.pop(e, None)
    if not poly:
        return 0
    lead = poly[min(poly)]
    return 1 if lead > 0 else -1


def _exact_planes(pts: np.ndarray, facets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every coordinate of ``pts`` as an exact integer under one common
    scale (:func:`_frexp_ints`), and every facet's exact integer plane
    (:func:`_integer_planes`) with its float twin, rounded once
    (:func:`_float_planes`).  Returns ``(rows, normals, offsets,
    f_normals, f_offsets)``, ``rows`` the ``(n, d)`` object array of
    integer rows."""
    ints, scale = _frexp_ints(pts)
    rows = np.empty(len(ints), dtype=object)
    rows[:] = ints
    rows = rows.reshape(pts.shape)
    normals, offsets = _integer_planes(rows, facets)
    return (rows, normals, offsets, *_float_planes(normals, offsets, scale))


#: Facet-point pairs per float-filter block.  A block of facets is
#: swept against the whole cloud in one matmul; this bounds its
#: ``(facets, points)`` margin array, so memory stays flat however many
#: facets the certificate lists (a block holds at least one facet).
_FILTER_PAIRS = 1 << 16


def _filter_bound(normals: np.ndarray, p_inf: float) -> np.ndarray:
    """Each facet's float-filter bound: :func:`_filter_block`'s checked
    first-order derivation, term for term, in units of ``u * NRM * P``
    (``u = eps/2``, ``NRM`` the rounded normal's 1-norm, ``P =
    p_inf``, the offset at most ``NRM * P``): the normals' rounding
    ``d``, the dot product ``d^2``, the offsets' rounding and the
    subtraction ``d + 2``.  That is over twice the rigorous ``(d+4)u``;
    the slack covers the second-order terms, the rounding of the bound
    itself, and an underflowed normal component's ``2**-1075`` per
    coordinate (a nonzero normal's 1-norm is at least 1/2).  The
    absolute term covers the products' and the offset's underflow."""
    d = normals.shape[1]
    bound = (d + d * d + d + 2) * _U * np.abs(normals).sum(axis=1) * p_inf
    bound += (d + 3) * _SUB
    return bound


def _filter_block(
    normals: np.ndarray, offsets: np.ndarray, pts_t: np.ndarray, p_inf: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float filter over every (facet, point) pair of a block at once.

    ``normals``/``offsets`` are the block's rounded exact planes
    (:func:`_float_planes`), oriented so that "visible" is positive,
    ``pts_t`` the ``(d, n)`` cloud and ``p_inf`` its max ``|p|_inf``.
    One matmul gives every margin; each facet has one bound, the
    dot-product error bound from its normal's 1-norm and ``p_inf`` (the
    normal's and the offset's roundings included) plus an underflow
    term.  A margin below minus its bound is proven invisible; returns
    the ``(rows, cols)`` of every other pair, in row-major order, and
    which of them are proven visible.  The rest -- margins inside the
    bound, and NaN or infinite ones, which an overflow can produce --
    are uncertain."""
    # The margins' first-order error, derived by `repro fpcheck` and
    # checked against the committed claim, which _filter_bound ships
    # (atoms: NRM = the rounded normal's 1-norm, OFF = |offset|, P =
    # p_inf; the normal and the offset are correctly rounded from exact
    # ints):
    # repro: fp-bound: assume d in 2..4
    # repro: fp-bound: fact OFF <= NRM*P
    # repro: fp-bound: guard bound
    # repro: fp-bound: envelope bound
    # repro: fp-bound: in normals ~ NRM err 0.5*NRM
    # repro: fp-bound: in offsets ~ OFF err 0.5*OFF
    # repro: fp-bound: in pts_t ~ P
    d = normals.shape[1]
    margins = normals @ pts_t
    margins -= offsets[:, None]
    # repro: fp-bound: claim margins <= (0.5*d + 0.5*d*d + 0.5*d + 1)*NRM*P
    bound = _filter_bound(normals, p_inf)
    look = ~(margins < -bound[:, None])
    if p_inf > _MAX / (4 * d):
        # Margins are at most 2d p_inf in size; past that a partial
        # sum can overflow to an infinity of either sign.
        look |= np.isinf(margins)
    # The flat index: a 2-D nonzero costs ~14x a flat one.
    flat = np.flatnonzero(look)
    rows, cols = np.divmod(flat, margins.shape[1])
    m = margins.ravel()[flat]
    visible = (m > bound[rows]) & (m < np.inf)
    return rows, cols, visible


def _fail(msg: str) -> None:
    raise CertificateError(msg)


def verify_certificate(cert: HullCertificate, points: np.ndarray) -> None:
    """Check that ``cert`` describes a convex hull of ``points`` (given
    in the caller's original index order).  Raises
    :class:`CertificateError` on the first violated claim.

    For an SoS certificate the statement verified is: the facet list is
    the canonical simplicial hull of the symbolically perturbed cloud
    (no perturbed point strictly outside any facet, ridges a closed
    manifold, orientations consistent with the interior reference).

    Containment is staged.  The cloud's coordinates become integer rows
    once per certificate (:func:`_frexp_ints`, one power-of-two scale),
    and every facet's exact integer plane is computed once, all facets
    at once (:func:`_integer_planes`), with its float twin rounded
    once (:func:`_float_planes`).  The float filter
    (:func:`_filter_block`) then tests a block of facets against the
    whole cloud in one matmul, ``_FILTER_PAIRS`` pairs or so per block,
    so memory stays flat on large certificates; each facet has one
    rigorous bound (:func:`_filter_bound`).  Only the pairs inside the
    bound reach the exact stage, the sign of an integer dot product,
    and so does every facet's interior reference.  A facet's own
    vertices stay out of both stages.  Checks still report per facet
    in facet order -- interior orientation, then the lowest-rank float
    violation, then exact rechecks in rank order -- so the first claim
    reported as violated does not depend on the blocking.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape != (cert.n, cert.d):
        _fail(f"points shape {points.shape} != certificate ({cert.n}, {cert.d})")
    n, d = cert.n, cert.d
    if sorted(cert.order) != list(range(n)):
        _fail("order is not a permutation of range(n)")
    pts = points[cert.order]

    if not cert.facets:
        _fail("certificate lists no facets")
    if not (len(cert.facets) == len(cert.vis_signs) == len(cert.witnesses)):
        _fail("facet/vis_sign/witness lists disagree in length")
    seen_facets = set()
    for pos, f in enumerate(cert.facets):
        if len(f) != d or len(set(f)) != d:
            _fail(f"facet {f} does not have d={d} distinct vertices")
        if not all(0 <= i < n for i in f):
            _fail(f"facet {f} references an out-of-range rank")
        if tuple(sorted(f)) != tuple(f):
            _fail(f"facet {f} is not in canonical sorted order")
        if f in seen_facets:
            _fail(f"facet {f} listed twice")
        seen_facets.add(f)
        if cert.witnesses[pos] not in f:
            _fail(f"witness {cert.witnesses[pos]} is not a vertex of facet {f}")
        if cert.vis_signs[pos] not in (-1, 1):
            _fail(f"facet {f} has invalid orientation sign {cert.vis_signs[pos]}")

    # Ridge pairing: recompute incidence from the facet list and match
    # the certificate's claim exactly.  Facets are sorted tuples of
    # distinct ranks by now, so leaving out one position gives the
    # sorted ridge.
    incidence: dict[tuple[int, ...], list[int]] = {}
    for pos, f in enumerate(cert.facets):
        for j in range(d):
            incidence.setdefault(f[:j] + f[j + 1:], []).append(pos)
    bad = {r: p for r, p in incidence.items() if len(p) != 2}
    if bad:
        _fail(f"non-manifold ridges (ridge -> facet positions): {bad}")
    claimed = {r: tuple(sorted(pair)) for r, pair in cert.ridges}
    actual = {r: tuple(sorted(p)) for r, p in incidence.items()}
    if claimed != actual:
        _fail("ridge pairing claim does not match the facet list")

    # Combinatorial counts for simplicial hulls (Euler-type identities).
    v = len({i for f in cert.facets for i in f})
    fcount = len(cert.facets)
    if d == 2 and fcount != v:
        _fail(f"2D hull needs #edges == #vertices; got {fcount} != {v}")
    if d == 3 and fcount != 2 * v - 4:
        _fail(f"simplicial 3D hull needs F = 2V - 4; got F={fcount}, V={v}")

    # Interior reference: exact uniform combination of the claimed ranks
    # (the exact stage orients it as the integer row sum(p_i) - (d+1) p_0;
    # the SoS stage takes its rational coordinates).
    if cert.interior_ranks != tuple(range(d + 1)):
        _fail(f"unsupported interior combination {cert.interior_ranks}")
    w = Fraction(1, d + 1)
    interior_exact = [
        sum(w * Fraction(float(pts[i][j])) for i in cert.interior_ranks)
        for j in range(d)
    ]
    interior_float = np.array([float(x) for x in interior_exact])

    # Every coordinate as an exact integer, once, under one common scale,
    # and every facet's exact plane, all facets at once.
    facets = np.array(cert.facets, dtype=np.int64)
    rows, normals, offsets, f_normals, f_offsets = _exact_planes(pts, facets)

    # The interior reference of every facet, exactly: the sign of
    # N . (sum(t_i) - (d+1) b_0), the orientation of the integer row
    # sum(p_i) - (d+1) p_0.
    tail = rows[list(cert.interior_ranks)].sum(axis=0)
    s_refs = list(map(_int_sign, ((normals * tail).sum(axis=1)
                                  - len(cert.interior_ranks) * offsets).tolist()))

    # The float filter's planes, oriented so that "visible" is positive.
    vis_signs = np.array(cert.vis_signs, dtype=np.float64)
    f_normals *= vis_signs[:, None]
    f_offsets *= vis_signs
    pts_t = np.ascontiguousarray(pts.T)
    p_inf = float(np.abs(pts).max(initial=0.0))
    int_normals = normals.tolist()
    int_offsets = offsets.tolist()
    int_rows = rows.tolist()

    per_block = max(1, _FILTER_PAIRS // n)
    for lo in range(0, len(cert.facets), per_block):
        hi = min(lo + per_block, len(cert.facets))
        brows, cols, visible = _filter_block(
            f_normals[lo:hi], f_offsets[lo:hi], pts_t, p_inf)
        # A facet's own vertices lie on its plane: they leave both the
        # violation test and the exact stage.
        other = ~(facets[lo + brows] == cols[:, None]).any(axis=1)
        brows, cols, visible = brows[other], cols[other], visible[other]
        # Per facet, in facet order: the interior orientation, then the
        # lowest-rank float-certain violator, then the exact rechecks in
        # rank order.  Only a facet with a visible pair or an interior
        # reference that is not strictly invisible can fail before its
        # rechecks; the rechecks of the facets between two such facets
        # run as one stream.
        flagged = set((lo + brows[visible]).tolist())
        flagged.update(k for k in range(lo, hi) if s_refs[k] in (0, cert.vis_signs[k]))
        pairs = zip((lo + brows[~visible]).tolist(), cols[~visible].tolist())
        k, i = next(pairs, (hi, 0))
        for stop in sorted(flagged) + [hi]:
            # The exact stage, for every uncertain pair of the facets
            # before `stop`: the sign of N . q - O on integer rows.
            while k < stop:
                s = _int_sign(sum(map(operator.mul, int_normals[k], int_rows[i]))
                              - int_offsets[k])
                if s == 0 and cert.sos:
                    s = _orient_sos_bruteforce(pts[list(cert.facets[k])], cert.facets[k],
                                               pts[i], i)
                if s == cert.vis_signs[k]:
                    _fail(f"point rank {i} is strictly outside facet {cert.facets[k]}")
                k, i = next(pairs, (hi, 0))
            if stop == hi:
                break
            f = cert.facets[stop]
            vis = cert.vis_signs[stop]

            # Orientation claim: the interior reference must be strictly
            # on the non-visible side.
            s_ref = s_refs[stop]
            if s_ref == 0:
                if not cert.sos:
                    _fail(f"facet {f} is degenerate (interior on its plane)")
                s_ref = _orient_sos_bruteforce(
                    pts[list(f)], f, interior_float, None, q_exact=interior_exact,
                    q_combo=[(i, w) for i in cert.interior_ranks],
                )
                if s_ref == 0:
                    _fail(f"facet {f}: SoS could not orient the interior reference")
            if s_ref == vis:
                _fail(f"facet {f} is oriented inside-out (interior on visible side)")

            # Containment: no point may be strictly visible, by the
            # float filter first (this facet's rechecks come next).
            hits = cols[visible & (brows == stop - lo)]
            if hits.size:
                _fail(f"point rank {int(hits[0])} is strictly outside facet {f}")


# --------------------------------------------------------------------------
# Deliberate corruption, for testing the checker (and `repro certify
# --corrupt`).  Every mode must make verify_certificate raise.
# --------------------------------------------------------------------------

CORRUPTION_MODES = ("drop-facet", "flip-orientation", "duplicate-ridge", "tamper-vertex")


def corrupt_certificate(
    cert: HullCertificate, mode: str, seed: int = 0
) -> HullCertificate:
    """Return a deliberately broken copy of ``cert``.

    Modes: ``drop-facet`` removes one facet (opens the manifold);
    ``flip-orientation`` negates one facet's visible sign (claims the
    hull lies outside it); ``duplicate-ridge`` duplicates a facet under
    a fresh vertex label (a ridge gains a third incident facet);
    ``tamper-vertex`` swaps a hull vertex for a non-vertex rank (breaks
    containment or the ridge structure).  Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    data = cert.to_dict()
    k = int(rng.integers(len(data["facets"])))
    if mode == "drop-facet":
        for key in ("facets", "vis_signs", "witnesses"):
            data[key].pop(k)
        data["ridges"] = _recompute_ridges(data["facets"])
    elif mode == "flip-orientation":
        data["vis_signs"][k] = -data["vis_signs"][k]
    elif mode == "duplicate-ridge":
        data["facets"].append(list(data["facets"][k]))
        data["vis_signs"].append(data["vis_signs"][k])
        data["witnesses"].append(data["witnesses"][k])
        data["ridges"] = _recompute_ridges(data["facets"])
    elif mode == "tamper-vertex":
        used = {i for f in data["facets"] for i in f}
        f = list(data["facets"][k])
        candidates = [i for i in range(cert.n) if i not in f]
        # Prefer a rank that is not a hull vertex at all, so the broken
        # claim is geometric (containment) and not merely structural.
        replacement = next((i for i in candidates if i not in used), candidates[0])
        f[int(rng.integers(len(f)))] = replacement
        data["facets"][k] = sorted(f)
        data["witnesses"][k] = data["facets"][k][0]
        data["ridges"] = _recompute_ridges(data["facets"])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}; pick from {CORRUPTION_MODES}")
    return HullCertificate.from_dict(data)


def _recompute_ridges(facets: list[list[int]]) -> list:
    incidence: dict[tuple[int, ...], list[int]] = {}
    for pos, f in enumerate(facets):
        for i in f:
            r = tuple(sorted(set(f) - {i}))
            incidence.setdefault(r, []).append(pos)
    return [[list(r), list(p)] for r, p in sorted(incidence.items())]
