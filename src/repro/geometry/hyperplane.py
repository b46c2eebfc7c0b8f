"""Oriented hyperplanes and vectorized visibility tests.

A facet of a d-dimensional hull is carried by the hyperplane through its
``d`` defining points, oriented so that the hull interior is on the
*negative* side.  A point is **visible** from the facet iff it lies
strictly on the positive side (the open outer half-space) -- exactly the
conflict relation of the paper's configuration space (Table 1).

The hot loop of every hull algorithm is "filter a candidate array down
to the visible points", so :meth:`Hyperplane.visible_mask` is fully
vectorized: one matrix-vector product per facet plus an exact integer
recheck only for candidates whose float margin is inside the error
envelope.

Correctness of the filter rests on the envelope dominating *both*
rounding sources: the dot product itself, and the error of the
floating-point cofactor normal (whose components are (d-1)x(d-1)
determinants, bounded Hadamard-style by the product ``H`` of the
edge-row norms):

    |computed margin - n_exact . (q - p0)|
        <= 16 d eps (d^2 H + |n|_1 + 1) * (1 + |p0|_inf + |q|_inf).

An earlier version used only the dot-product term; an ill-conditioned
moment-curve (cyclic polytope) workload silently corrupted hulls -- the
regression tests live in ``tests/geometry/test_hyperplane.py`` and
``tests/hull/test_moment_curve.py``.  When even the orientation
reference point falls inside the envelope, the float normal carries no
usable information and the plane switches to *always-exact* mode: every
query is decided rationally.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

import numpy as np

from .linalg import cofactor_normal
from .perturb import orient_sos, orient_sos_combo, sos_active
from .predicates import STATS, orient_exact, orient_exact_batch, orient_exact_combo

__all__ = ["Hyperplane", "exact_mode", "exact_active", "side_exact_batch"]

_EPS = float(np.finfo(np.float64).eps)

# When set, Hyperplane.through() skips the float-certain fast path and
# builds every plane in always-exact mode.  This is the middle rung of
# the robust_hull escalation ladder: if a hull fails with filtered float
# predicates, retry with every decision made rationally before resorting
# to joggling the input.  The REPRO_FORCE_EXACT environment variable
# turns it on process-wide (CI runs the tier-1 suite once this way so a
# filter-threshold regression cannot hide behind the float fast path).
_FORCE_EXACT = os.environ.get("REPRO_FORCE_EXACT", "") not in ("", "0")


@contextlib.contextmanager
def exact_mode() -> Iterator[None]:
    """Force every :meth:`Hyperplane.through` call in the block to build
    an always-exact plane (all visibility decided rationally).

    Not thread-safe with respect to *entering/leaving* the mode: flip it
    only from the orchestrating thread, before workers start building
    planes.  Planes built inside the block stay exact after it exits.
    """
    global _FORCE_EXACT
    prev = _FORCE_EXACT
    _FORCE_EXACT = True
    try:
        yield
    finally:
        _FORCE_EXACT = prev


def exact_active() -> bool:
    """Whether always-exact plane construction is currently forced.

    The SoA engine's column-form plane build queries this, so that
    under :func:`exact_mode` it makes every row a scalar-ladder plane,
    as :meth:`Hyperplane.through` does."""
    return _FORCE_EXACT


class Hyperplane:
    """Oriented affine hyperplane ``{x : normal . x = offset}`` in R^d.

    ``normal`` points towards the *visible* (outside) half-space (when
    the float fast path is live).  ``base_points`` are the defining
    points; ``ref_point`` the interior reference fixed at construction
    -- together they let the exact fallback re-derive visibility from
    original coordinates.  ``always_exact`` marks planes whose float
    normal is untrustworthy.
    """

    __slots__ = (
        "normal",
        "offset",
        "base_points",
        "ref_point",
        "err_scale",
        "err_base",
        "always_exact",
        "_vis_sign",
        "base_indices",
        "sos",
    )

    def __init__(self, normal, offset, base_points, ref_point,
                 err_scale, err_base, always_exact, vis_sign=None,
                 base_indices=None, sos=False):
        self.normal = normal
        self.offset = offset
        self.base_points = base_points
        self.ref_point = ref_point
        self.err_scale = err_scale
        self.err_base = err_base
        self.always_exact = always_exact
        self._vis_sign = vis_sign
        self.base_indices = base_indices
        self.sos = sos

    @staticmethod
    def through(points: np.ndarray, below: np.ndarray,
                indices=None, ref_combo=None) -> "Hyperplane":
        """Hyperplane through the rows of ``points`` (a ``(d, d)``
        array), oriented so that the reference point ``below`` is on the
        negative (invisible) side.

        Raises ``ValueError`` if ``below`` lies exactly on the plane
        (the caller must pick a strictly interior reference) -- unless
        :func:`~repro.geometry.perturb.sos_mode` is active and both
        ``indices`` (insertion ranks of the defining points) and
        ``ref_combo`` (``(points, ranks)`` of an affine combination
        equal to ``below``) are supplied, in which case the reference's
        side is resolved on the symbolically perturbed points and the
        plane carries SoS tie-breaking for every later zero sign.
        """
        # Scalar twin of kernels.batch_planes + the SoA engine's
        # interior orientation (soa._facets_flat), same committed
        # envelope 16 d (d^2 H + NRM + 1)(B + Q) (atoms:
        # S = max |defining point|, B = 1 + max |points[0]|, Q = max
        # |reference|, H = Hadamard product of edge norms, NRM = max
        # |normal| with the 6*H cofactor forward error).  Checked by
        # `repro fpcheck`:
        # repro: fp-bound: assume d in 2..3
        # repro: fp-bound: fact NRM <= 6*H
        # repro: fp-bound: guard env_ref
        # repro: fp-bound: envelope err_scale err_base row_norms hadamard n1 env_ref
        points = np.asarray(points, dtype=np.float64)
        # repro: fp-bound: in points ~ S
        below = np.asarray(below, dtype=np.float64)
        # repro: fp-bound: in below ~ Q
        sos = sos_active() and indices is not None
        base_indices = tuple(int(i) for i in indices) if sos else None
        d = points.shape[1]
        p0 = points[0]
        # repro: fp-bound: bind p0 ~ B
        normal = cofactor_normal(points)
        # repro: fp-bound: in normal ~ NRM err 6*H
        offset = float(normal @ p0)
        edges = points[1:] - p0
        row_norms = np.sqrt((edges * edges).sum(axis=1))
        hadamard = float(np.prod(row_norms)) if row_norms.size else 1.0
        n1 = float(np.abs(normal).sum())
        err_scale = 16.0 * d * _EPS * (d * d * hadamard + n1 + 1.0)
        err_base = 1.0 + float(np.abs(p0).max(initial=0.0))

        margin_ref = float(normal @ below) - offset
        # repro: fp-bound: claim margin_ref <= 16*d*(d*d*H + NRM + 1)*(B + Q)
        env_ref = err_scale * (err_base + float(np.abs(below).max(initial=0.0)))
        if not _FORCE_EXACT and abs(margin_ref) > env_ref:
            # Float-certain: orient the normal so the reference is below.
            if margin_ref > 0:
                normal, offset = -normal, -offset
            return Hyperplane(
                normal=normal, offset=offset, base_points=points,
                ref_point=below, err_scale=err_scale, err_base=err_base,
                always_exact=False, base_indices=base_indices, sos=sos,
            )
        # The reference sits inside the envelope: the float normal is
        # not trustworthy for any decision near this plane.  When the
        # caller supplied the reference as an affine combination, orient
        # against the *exact* combination -- on nearly-flat inputs the
        # plane can pass closer to the true centroid than the rounding
        # error of the float centroid, and orienting against the rounded
        # point then flips vis_sign and inverts every conflict set.
        if ref_combo is not None:
            combo_points, combo_indices = ref_combo
            s_ref = orient_exact_combo(points, combo_points)
            if s_ref == 0:
                if sos:
                    s_ref = orient_sos_combo(
                        points, base_indices, combo_points, combo_indices
                    )
                else:
                    raise ValueError(
                        "orientation reference lies on the hyperplane"
                    )
        else:
            s_ref = orient_exact(points, below)
            if s_ref == 0:
                raise ValueError("orientation reference lies on the hyperplane")
        # Best-effort orient the float normal too (exact decisions go
        # through vis_sign, but diagnostics like joggle containment and
        # the Delaunay lower-facet test read margins()/normal sign and
        # must not see a per-facet coin flip).  sign(normal . (q - p0))
        # equals orient_exact(points, q) in exact arithmetic, so s_ref
        # is exactly the flip the float-certain path derives from
        # margin_ref.
        if s_ref > 0:
            normal, offset = -normal, -offset
        return Hyperplane(
            normal=normal, offset=offset, base_points=points,
            ref_point=below, err_scale=err_scale, err_base=err_base,
            always_exact=True, vis_sign=-s_ref,
            base_indices=base_indices, sos=sos,
        )

    # -- exact orientation -------------------------------------------------

    @property
    def vis_sign(self) -> int:
        """The :func:`orient_exact` value that means "visible", derived
        lazily from the reference point (which is strictly interior)."""
        if self._vis_sign is None:
            s_ref = orient_exact(self.base_points, self.ref_point)
            if s_ref == 0:  # pragma: no cover - through() guarantees otherwise
                raise ValueError("orientation reference lies on the hyperplane")
            self._vis_sign = -s_ref
        return self._vis_sign

    def _side_exact(self, q, index=None) -> int:
        s = orient_exact(self.base_points, q)
        if s == 0:
            if not (self.sos and index is not None):
                return 0
            index = int(index)
            if index in self.base_indices:
                # A point is never strictly visible from its own facet;
                # SoS against a repeated index is undefined.
                return 0
            s = orient_sos(self.base_points, self.base_indices, q, index)
        return 1 if s == self.vis_sign else -1

    # -- scalar predicate ---------------------------------------------------

    def side(self, q, index=None) -> int:
        """Sign of the side of ``q``: +1 visible, -1 invisible, 0 on the
        plane (decided exactly when the float margin is ambiguous).

        On an SoS plane, passing ``index`` (the insertion rank of ``q``)
        breaks exact-zero ties symbolically, so the result is never 0
        for an index outside the plane's defining set.
        """
        # Same envelope as through(), with the plane's stored normal /
        # offset standing in for the freshly derived ones:
        # repro: fp-bound: assume d in 2..3
        # repro: fp-bound: fact NRM <= 6*H
        # repro: fp-bound: fact OFF <= d*NRM*B
        # repro: fp-bound: guard env
        # repro: fp-bound: envelope env
        q = np.asarray(q, dtype=np.float64)
        # repro: fp-bound: in q ~ Q
        # repro: fp-bound: in self.normal ~ NRM err 6*H
        # repro: fp-bound: in self.offset ~ OFF err 6*d*H*B + 2*d^2*NRM*B
        if self.always_exact:
            return self._side_exact(q, index)
        margin = float(self.normal @ q) - self.offset
        # repro: fp-bound: claim margin <= 16*d*(d*d*H + NRM + 1)*(B + Q)
        env = self.err_scale * (self.err_base + float(np.abs(q).max(initial=0.0)))
        STATS.count_float()
        if margin > env:
            return 1
        if margin < -env:
            return -1
        return self._side_exact(q, index)

    def is_visible(self, q, index=None) -> bool:
        """Strict visibility: ``q`` in the open outer half-space."""
        return self.side(q, index) > 0

    # -- vectorized predicate ---------------------------------------------

    def margins(self, pts: np.ndarray) -> np.ndarray:
        """Signed float margins (positive = visible side) for a batch.
        The normal is oriented visible-positive even for always-exact
        planes (best effort); magnitudes below the envelope are noise
        either way."""
        return pts @ self.normal - self.offset

    def visible_mask(self, pts: np.ndarray, indices=None) -> np.ndarray:
        """Boolean mask of strictly visible points among ``pts``.

        Vectorized fast path; candidates within the error envelope are
        re-decided exactly one by one (rare for generic float inputs,
        common for engineered degenerate or ill-conditioned inputs).
        ``indices`` -- the insertion ranks of the rows of ``pts`` -- is
        required for SoS tie-breaking on exact-zero margins; without it
        an SoS plane degrades to "on-plane is invisible".
        """
        pts = np.asarray(pts, dtype=np.float64)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)

        def rank(i):
            return None if indices is None else indices[i]

        if self.always_exact:
            return np.array(
                [self._side_exact(q, rank(i)) > 0 for i, q in enumerate(pts)],
                dtype=bool,
            )
        mask, uncertain = self.float_filter(pts)
        if uncertain.any():
            for i in np.nonzero(uncertain)[0]:
                mask[i] = self._side_exact(pts[i], rank(i)) > 0
        return mask

    def float_filter(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The float half of :meth:`visible_mask` for a float-certain
        plane: ``(visible, uncertain)`` masks over ``pts``.  ``visible``
        holds where the margin clears the error envelope on the visible
        side; ``uncertain`` where it falls inside the envelope, so only
        the exact ladder (:meth:`_side_exact`) can decide the row."""
        margins = self.margins(pts)
        env = self.err_scale * (self.err_base + np.abs(pts).max(axis=1))
        STATS.count_float(int(pts.shape[0]))
        return margins > env, np.abs(margins) <= env


def side_exact_batch(simplices, base_indices, vis_sign, sos, rows, pts,
                     ranks) -> np.ndarray:
    """The batched twin of :meth:`Hyperplane._side_exact`: the exact
    side (+1 visible, -1 invisible, 0 on the plane) of point
    ``pts[ranks[e]]`` against plane ``rows[e]``, for every entry ``e``.

    Plane ``k`` is given by its defining points ``simplices[k]`` (a
    ``(K, d, d)`` stack), their ranks ``base_indices[k]``, the
    :func:`orient_exact` value ``vis_sign[k]`` that means visible, and
    whether it breaks ties by Simulation of Simplicity (``sos``: one
    flag for every plane or one per plane).  Every entry takes one
    exact orientation in a single :func:`orient_exact_batch` call; an
    exact zero on an SoS plane then takes :func:`orient_sos`, one entry
    at a time, except where the rank is one of the plane's own (a point
    is never strictly visible from its own facet).  With ``vis_sign``
    ``None`` the tie-broken orientations come back instead, for a
    caller that reads visible signs only where one is needed."""
    s = orient_exact_batch(np.take(simplices, rows, axis=0),
                           np.take(pts, ranks, axis=0))
    tied = np.flatnonzero(s == 0)
    if tied.size:
        tied = tied[np.broadcast_to(sos, (len(base_indices),))[rows[tied]]]
        own = (base_indices[rows[tied]] == ranks[tied, None]).any(axis=1)
        for e in tied[~own].tolist():
            k, r = int(rows[e]), int(ranks[e])
            s[e] = orient_sos(simplices[k], tuple(base_indices[k].tolist()),
                              pts[r], r)
    if vis_sign is None:
        return s
    side = np.where(s == np.take(vis_sign, rows), 1, -1).astype(np.int8)
    side[s == 0] = 0
    return side
