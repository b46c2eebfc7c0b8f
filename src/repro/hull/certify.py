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

* a *different* float filter (LU determinants, batched over a block
  of facets against the whole cloud, with a crude norm-product bound,
  vs construction's cofactor normals with a Hadamard envelope);
* a *different* exact stage.  Both sides scale one determinant's float
  entries by a common power of two and decide its sign on Python ints,
  but by different means: here each float is split with
  :func:`math.frexp` into an integer mantissa and an exponent, and
  every coordinate of the cloud is shifted, once per certificate, to
  the least exponent present; the determinant is a recursive Laplace
  expansion; construction (``geometry.predicates``) uses
  ``float.as_integer_ratio`` and ``geometry.linalg.det_int`` (closed
  form up to 3x3, fraction-free Bareiss beyond).  The interior
  reference enters as the integer row ``sum(p_i) - (d+1) p_0``, its
  centroid's row scaled by ``d+1``;
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

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
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

def _frexp_ints(values: list[float]) -> list[int]:
    """``values`` as exact Python ints under one common power-of-two
    scale, from ``math.frexp``: ``x = m * 2**e`` with ``m * 2**53`` an
    integer, every value shifted to the least exponent present.  NaN
    raises ``ValueError`` and inf ``OverflowError``."""
    parts = []
    for x in values:
        m, e = math.frexp(x)
        parts.append((int(m * _TWO53), e))
    low = min((e for m, e in parts if m), default=0)
    return [m << (e - low) if m else 0 for m, e in parts]


def _laplace_det(rows: list[list[int]]) -> int:
    """Exact determinant by recursive Laplace expansion along the first
    row (quadratic-factorial but independent of Bareiss; matrices are
    (d x d))."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if not x:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        term = x * _laplace_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _orient_exact_rows(base: list[list[int]], tail: list[list[int]]) -> int:
    """Exact sign of ``det([b_1 - b_0; ...; b_{d-1} - b_0; sum_i t_i -
    k b_0])`` for the integer rows ``b_i`` of ``base`` and the ``k``
    rows ``t_i`` of ``tail``: the orientation of their centroid (of the
    point itself when ``k == 1``), with the query row scaled by
    ``k > 0``.  Rows are points as :func:`_frexp_ints` converts them,
    under one power-of-two scale for the whole cloud: the determinant
    is homogeneous, so a common positive scale keeps its sign."""
    b0 = base[0]
    rows = [[x - y for x, y in zip(b, b0)] for b in base[1:]]
    rows.append([sum(col) - len(tail) * y for col, y in zip(zip(*tail), b0)])
    det = _laplace_det(rows)
    # Exact integer sign, not a float comparison; RPR004's heuristic
    # cannot see the type.
    return (det > 0) - (det < 0)  # repro: noqa: RPR004


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


#: Facet-point pairs per batched filter call.  A block of facets is
#: swept against the whole cloud at once; this bounds its (pairs, d, d)
#: determinant stack, so memory stays flat however many facets the
#: certificate lists (a block holds at least one facet).
_FILTER_PAIRS = 1 << 16


def _batched_orient_filter(bases: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Float filter over every (facet, query point) pair of a block at
    once: ``bases`` is the ``(F, d, d)`` stack of facet vertex rows,
    the result an ``(F, n)`` array of signs in {-1, 0, +1}, 0 meaning
    "uncertain, decide exactly".  The bound is a crude norm-product
    estimate -- deliberately different from (and looser than)
    construction's Hadamard envelope.  Each pair's matrix, and the
    order in which its bound is evaluated, are those of a one-facet
    call, so a sign does not depend on how the facets are blocked."""
    nf, d = bases.shape[0], bases.shape[2]
    edges = bases[:, 1:] - bases[:, :1]                   # (F, d-1, d)
    qrows = pts[None, :, :] - bases[:, None, 0]           # (F, n, d)
    full = np.empty((nf, pts.shape[0], d, d))
    full[:, :, : d - 1] = edges[:, None]
    full[:, :, d - 1] = qrows
    dets = np.linalg.det(full)                            # (F, n)
    scale = np.maximum(1.0, np.abs(edges).max(axis=(1, 2), initial=0.0))
    # Python float powers, as a scalar call takes them.
    power = np.array([s ** (d - 1) for s in scale.tolist()])[:, None]
    qscale = np.maximum(1.0, np.abs(qrows).max(axis=2))
    bound = (
        math.factorial(d) * d * d * _EPS * power * qscale
        + d**3 * (_TINY * power * qscale)
    )
    out = np.zeros(dets.shape, dtype=np.int8)
    out[dets > bound] = 1
    out[dets < -bound] = -1
    return out


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

    Containment runs on blocks of facets: one batched float filter
    (:func:`_batched_orient_filter`) decides every (facet, point) pair
    of a block against the whole cloud, ``_FILTER_PAIRS`` pairs or so
    per block, so memory stays flat on large certificates.  The exact
    stage reads integer rows converted once per certificate
    (:func:`_frexp_ints`, one power-of-two scale for the whole cloud).
    Checks still run per facet in facet order -- interior orientation,
    then float violations, then exact rechecks -- so the first claim
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
    # the certificate's claim exactly.
    incidence: dict[tuple[int, ...], list[int]] = {}
    for pos, f in enumerate(cert.facets):
        for i in f:
            r = tuple(sorted(set(f) - {i}))
            incidence.setdefault(r, []).append(pos)
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

    # Every coordinate as an exact integer, once, under one common scale.
    ints = _frexp_ints(pts.ravel().tolist())
    rows = [ints[i:i + d] for i in range(0, n * d, d)]
    interior_rows = [rows[i] for i in cert.interior_ranks]

    facets = np.array(cert.facets, dtype=np.int64)
    vis_signs = np.array(cert.vis_signs, dtype=np.int8)
    per_block = max(1, _FILTER_PAIRS // n)
    for lo in range(0, len(cert.facets), per_block):
        block = facets[lo:lo + per_block]
        signs = _batched_orient_filter(pts[block], pts)
        # A facet's own vertices lie on its plane: mark them on the
        # invisible side, out of both the violation test and the exact
        # stage.
        signs[np.arange(block.shape[0])[:, None], block] = (
            -vis_signs[lo:lo + per_block, None]
        )
        for k, f in enumerate(cert.facets[lo:lo + per_block]):
            base_rows = [rows[i] for i in f]
            vis = cert.vis_signs[lo + k]

            # Orientation claim: the interior reference must be strictly
            # on the non-visible side.
            s_ref = _orient_exact_rows(base_rows, interior_rows)
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

            # Containment: no point may be strictly visible.  The block's
            # float filter first, exact (or SoS) recheck for the
            # uncertain ones.
            row = signs[k]
            violating = np.flatnonzero(row == vis)
            if violating.size:
                _fail(f"point rank {int(violating[0])} is strictly outside facet {f}")
            for i in np.flatnonzero(row == 0).tolist():
                s = _orient_exact_rows(base_rows, [rows[i]])
                if s == 0 and cert.sos:
                    s = _orient_sos_bruteforce(pts[list(f)], f, pts[i], i)
                if s == vis:
                    _fail(f"point rank {i} is strictly outside facet {f}")


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
