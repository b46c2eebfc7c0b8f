"""Batched NumPy predicate kernels with an exact-filter fallback.

The hull algorithms spend almost all of their work on *visibility
tests* -- "is point q strictly outside the hyperplane of facet t?" --
the unit Theorem 5.4 counts.  The scalar object drivers evaluate them
one :meth:`~repro.geometry.hyperplane.Hyperplane.visible_mask` call per
facet (the oracle); this module evaluates whole (facet x candidate)
blocks in one sweep over precomputed cofactor normals, in column form
(per coordinate, one 1-D gather of the points and one multiply-add per
entry, summed in the order the row-form ``einsum`` sums).

The fast path is *filtered*, exactly like the scalar predicates: each
batched margin comes with the same conservative forward error envelope
that :class:`~repro.geometry.hyperplane.Hyperplane` attaches to its
float normal, and every entry whose margin falls inside the envelope is
re-decided exactly, as the scalar ladder decides it (exact integer
orientation, then Simulation-of-Simplicity tie-breaking on SoS planes),
all of a sweep's such entries in one batch
(:func:`~repro.geometry.hyperplane.side_exact_batch`).  A sweep
therefore cannot *silently* disagree with the scalar oracle: it either
proves a sign with the float filter or decides the entry exactly, entry
for entry as the scalar predicates do -- the differential suite under
``tests/differential/`` pins this down input class by input class,
including the adversarial degenerate corpus.

Three entry points:

* :func:`batch_planes` -- cofactor normals, offsets and error-envelope
  coefficients for a stack of ``(F, d, d)`` simplices, bit-compatible
  with :meth:`Hyperplane.through`;
* :func:`visible_flat` -- the strict-visibility mask of a flat
  (facet, point) stream: the sweep every round of the SoA engine
  (:mod:`repro.hull.soa`) runs, and its only visibility path;
* :func:`gather_segments` -- the prefix-sum gather that flattens the
  engine's ragged conflict segments into that stream, each entry tagged
  with its segment's key.

A sweep counts into the :class:`KernelStats` its caller passes: the SoA
engine owns one per run and surfaces it through
``exec_stats.kernel_stats``, so experiment logs can report sweep counts
and filter-fallback rates.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..analyze.shapes import observe
from .hyperplane import side_exact_batch
from .predicates import STATS

__all__ = [
    "KernelStats",
    "filter_scale",
    "batch_planes",
    "gather_segments",
    "visible_flat",
]

_EPS = float(np.finfo(np.float64).eps)

# Component rotations of a 3-vector, for the column-form cross product.
_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])

# Multiplier applied to the float error envelope of the *batched* fast
# path.  Values > 1 widen the envelope: strictly more entries take the
# exact fallback, and the results must not change (the fallback decides
# the same question exactly).  The fuzzer sweeps this knob
# (``tools/fuzz.py --kernels``); values < 1 would shrink the envelope
# below its soundness proof and are rejected.
_FILTER_SCALE = 1.0


@contextlib.contextmanager
def filter_scale(scale: float) -> Iterator[None]:
    """Inflate the batched filter envelope by ``scale`` (>= 1) within
    the block.  Testing knob: any ``scale >= 1`` must leave every hull
    bit-identical, only the fallback *rate* may grow.

    Not thread-safe with respect to entering/leaving: flip it from the
    orchestrating thread before workers start, as with
    :func:`~repro.geometry.hyperplane.exact_mode`.
    """
    if not (scale >= 1.0):
        raise ValueError(f"filter scale must be >= 1 (got {scale!r}): "
                         "shrinking the envelope voids its error bound")
    global _FILTER_SCALE
    prev = _FILTER_SCALE
    _FILTER_SCALE = float(scale)
    try:
        yield
    finally:
        _FILTER_SCALE = prev


@dataclass
class KernelStats:
    """Counters of one run's flat sweeps.

    ``batched_sweeps`` counts the sweeps, ``batched_signs`` every sign
    they decided (float-certain *or* escalated), and ``fallbacks`` the
    subset that fell through the float filter to the exact stage.  A
    record belongs to one run: the SoA engine owns one, and a sweep
    counts into the record its caller passes.
    """

    batched_sweeps: int = 0
    batched_signs: int = 0
    fallbacks: int = 0

    def count_sweep(self, signs: int, fallbacks: int) -> None:
        self.batched_sweeps += 1
        self.batched_signs += signs
        self.fallbacks += fallbacks

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


def batch_planes(
    simplices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cofactor normals, offsets, and error-envelope coefficients for a
    stack of ``(F, d, d)`` simplices, all in one vectorized pass.

    Returns ``(normals, offsets, err_scale, err_base)`` matching what
    :meth:`Hyperplane.through` computes per plane: ``normals[f]`` is the
    (unoriented) cofactor normal of simplex ``f``, and the envelope of a
    query ``q`` against plane ``f`` is
    ``err_scale[f] * (err_base[f] + |q|_inf)``.

    The pass runs in column form: ``cols[c, i]`` is coordinate ``c`` of
    vertex ``i`` of every simplex, one contiguous ``F``-vector, so the
    edges, the cross product and every sum, product and maximum over an
    axis of length <= ``d`` are a few long vector operations rather than
    ``F`` short ones.  NumPy reduces a short row left to right, as the
    column form does, and the cross product keeps ``np.cross``'s
    operation order, so every output bit is the row form's.  The
    offsets keep the row-form ``einsum`` over the C-ordered normals,
    whose summation order is its own.
    """
    # repro: shape: simplices=(F,d,d):float64, normals=(F,d):float64
    # repro: shape: offsets=(F,):float64, err_scale=(F,):float64
    # repro: shape: err_base=(F,):float64
    #
    # Error-envelope derivation, checked by `repro fpcheck` (atoms are
    # per-plane measured magnitudes: S = max |simplex entry|, B =
    # err_base, R0/R1 = edge row norms, H = hadamard, NRM = n1,
    # OFF = |offset|; ESC = err_scale / eps):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: fact R0*R1 <= H @d=3
    # repro: fp-bound: fact R0 <= H @d=2
    # repro: fp-bound: fact NRM <= 6*H
    # repro: fp-bound: out normals ~ NRM err 6*H
    # repro: fp-bound: out offsets ~ OFF err 6*d*H*B + 2*d^2*NRM*B
    # repro: fp-bound: out err_scale ~ ESC
    # repro: fp-bound: out err_base ~ B
    # repro: fp-bound: envelope err_scale err_base row_norms hadamard n1
    simplices = np.asarray(simplices, dtype=np.float64)
    if simplices.ndim != 3 or simplices.shape[1] != simplices.shape[2]:
        raise ValueError(f"need (F, d, d) simplices, got {simplices.shape}")
    nf, d, _ = simplices.shape
    # repro: fp-bound: in simplices ~ S
    p0 = simplices[:, 0, :]
    # repro: fp-bound: bind p0 ~ B
    cols = np.ascontiguousarray(simplices.T)   # (d, d, F)
    edges = cols[:, 1:] - cols[:, :1]          # (d, d-1, F)
    # repro: fp-bound: bind edges ~ R0 @d=2
    if d == 2:
        ncols = np.stack([-edges[1, 0], edges[0, 0]])
    elif d == 3:
        e0 = edges[:, 0]
        e1 = edges[:, 1]
        # repro: fp-bound: bind e0 ~ R0
        # repro: fp-bound: bind e1 ~ R1
        # np.cross by components, in its operation order:
        # (a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0).
        ncols = e0[_YZX] * e1[_ZXY] - e0[_ZXY] * e1[_YZX]
    else:
        # Laplace expansion along the LAST row of [edges; q - p0]:
        # the cofactor of column j carries (-1)^{(d-1)+j}, so this sign
        # (not linalg.cofactor_normal's raw (-1)^j, which Hyperplane
        # re-orients anyway) keeps normal . (q - p0) == det for every
        # d -- the convention orient() decides signs in.
        ncols = np.empty((d, nf))
        rows = edges.T                              # (F, d-1, d)
        keep = np.arange(d)
        for j in range(d):
            minors = rows[:, :, keep != j]          # (F, d-1, d-1)
            ncols[j] = (-1.0) ** (d - 1 + j) * np.linalg.det(minors)
    normals = np.ascontiguousarray(ncols.T)
    # repro: fp-bound: bind normals ~ NRM
    offsets = np.einsum("fd,fd->f", normals, p0)
    row_norms = np.sqrt((edges * edges).sum(axis=0))  # (d-1, F)
    hadamard = row_norms.prod(axis=0) if d > 1 else np.ones(nf)
    n1 = np.abs(ncols).sum(axis=0)
    err_scale = 16.0 * d * _EPS * (d * d * hadamard + n1 + 1.0)
    err_base = 1.0 + np.abs(cols[:, 0]).max(axis=0, initial=0.0)
    observe("repro.geometry.kernels.batch_planes",
            simplices=simplices, normals=normals, offsets=offsets,
            err_scale=err_scale, err_base=err_base)
    return normals, offsets, err_scale, err_base


def gather_segments(
    starts: np.ndarray, lens: np.ndarray, tags: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ragged segments of a pooled array into gather positions.

    Segment ``k`` occupies ``pool[starts[k] : starts[k] + lens[k]]``.
    Returns ``(pos, tag)`` where ``pool[pos]`` is the concatenation of
    all segments in order and ``tag[i]`` is ``tags[k]`` for the segment
    ``k`` that produced entry ``i`` -- the prefix-sum gather the SoA
    conflict-list engine uses to pull every ready facet's conflict list
    in one indexed load, with no per-facet Python loop.  The engine tags
    each segment with its new facet's sort key (``tags =
    np.arange(K)`` gives the segment index).  ``tag`` is a fresh array
    the caller may write to.
    """
    # repro: shape: starts=(K,):int64, lens=(K,):int64, tags=(K,):int64
    # repro: shape: pos=(M,):int64, tag=(M,):int64
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    tag = np.repeat(np.asarray(tags, dtype=np.int64), lens)
    total = int(lens.sum())
    if not total:
        return np.zeros(0, dtype=np.int64), tag
    ends = np.cumsum(lens)
    # Within-segment offsets: a global arange minus each segment's
    # cumulative start, rebased onto the pool start.
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lens), lens)
    observe("repro.geometry.kernels.gather_segments",
            starts=starts, lens=lens, pos=pos, tag=tag)
    return pos, tag


def _column_margins(xs: np.ndarray, gn: np.ndarray, go: np.ndarray) -> np.ndarray:
    """Margins ``gn[:, m] . xs[:, m] - go[m]`` of a stream in column
    form, bit for bit the row form's ``einsum("md,md->m") - go``.

    ``xs`` and ``gn`` are ``(d, M)``: row ``c`` holds coordinate ``c``
    of every entry's point and of its plane's normal.  One in-place
    multiply turns ``gn`` into the products (the caller's scratch; it
    is overwritten), and the products are summed in einsum's order:
    NumPy's x86-64 baseline adds a row in two 128-bit lanes, the even
    coordinates in one and the odd in the other (:func:`_lane_sum`),
    and adds the two lanes last, with no fused multiply-add.  Every
    step is one 1-D pass over the stream, so the margins cost ``d``
    multiplies and ``d`` adds per entry, with no row gather and no
    strided reduction.  The bit-identity is with that build's einsum;
    the error envelope bounds any summation order, so on a build that
    sums otherwise every sign is still proven or decided exactly."""
    d = xs.shape[0]
    gn *= xs
    margins = _lane_sum(gn, 0, d)
    if d > 1:
        margins += _lane_sum(gn, 1, d)
    margins -= go
    return margins


def _lane_sum(p: np.ndarray, lane: int, d: int) -> np.ndarray:
    """Rows ``lane, lane + 2, ...`` of the ``(d, M)`` products ``p``,
    summed in the order one lane of einsum's accumulator adds them
    (into row ``lane`` of ``p`` where ``d < 8``).

    Below eight coordinates the lane adds its rows front to back.  From
    eight on, einsum first takes whole groups of eight coordinates,
    four per lane, and adds each group's four back to front onto the
    lane; the rest follow front to back."""
    if d < 8:
        acc = p[lane]
        for c in range(lane + 2, d, 2):
            acc += p[c]
        return acc
    head = d - d % 8
    acc = p[lane + 6] + p[lane + 4]
    acc += p[lane + 2]
    acc += p[lane]
    for b in range(8, head, 8):
        for k in (6, 4, 2, 0):
            acc += p[b + k + lane]
    for c in range(head + lane, d, 2):
        acc += p[c]
    return acc


def visible_flat(
    pts_cols: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    err_scale: np.ndarray,
    err_base: np.ndarray,
    blocks: np.ndarray,
    ranks: np.ndarray,
    indices: np.ndarray,
    vis_sign: np.ndarray,
    force_exact: np.ndarray | None = None,
    sos: bool = False,
    stats: KernelStats | None = None,
    pts_inf: float | None = None,
) -> np.ndarray:
    """Strict-visibility mask for a flat (facet, point) stream.

    The points come in column form: ``pts_cols`` is ``(d, n)``, row
    ``c`` holding coordinate ``c`` of every point (a caller that sweeps
    many rounds transposes its points once).  ``ranks`` are point ranks
    into it, grouped by plane: the first ``blocks[0]`` entries are
    tested against plane 0, the next ``blocks[1]`` against plane 1, and
    so on (``blocks`` has one non-negative count per row of the plane
    stack, zeros allowed, and sums to ``len(ranks)``) -- the flattened
    form of a whole round's (ready facet x conflict point) block.  The
    sweep computes every float margin in column form: one 1-D gather
    per coordinate, the plane columns expanded along the stream by a
    single repeat, and ``d`` multiply-adds per entry summed in the
    order the row-form ``einsum`` uses (:func:`_column_margins`), so
    each margin is that einsum's bit for bit.  Entries inside the
    per-plane error envelope -- plus every entry of a plane flagged in
    ``force_exact`` (always-exact planes carry no trustworthy float
    sign) -- are re-decided exactly, all of the sweep's at once, by
    :func:`~repro.geometry.hyperplane.side_exact_batch`, the batched
    twin of the scalar ladder that
    :class:`~repro.geometry.hyperplane.Hyperplane` falls back to.  It
    needs each row's defining ranks ``indices`` (the plane is the one
    through those points, in that order), the orientation sign
    ``vis_sign[k]`` that means visible (a float-certain row's is +1
    where its stored normal is the cofactor normal and -1 where it is
    negated; an always-exact row's is its ladder plane's), and whether
    the rows break exact ties by Simulation of Simplicity (``sos``).
    So the flat sweep cannot silently disagree with the scalar oracle:
    identical filter, identical fallback decisions.

    The filter is staged.  Each plane first gets one bound,
    ``s*P + s*b`` for its envelope scale ``s`` and base ``b``, where
    ``P`` is ``pts_inf``: a bound on ``|p|_inf`` over the swept points
    (a caller that sweeps many rounds passes its run's maximum once;
    ``None`` takes the maximum over the gathered columns).  A margin
    above its plane's bound in absolute value is decided by its sign
    alone.  Only the rest compute the per-entry envelope
    ``s*|p|_inf + s*b``.  Round-to-nearest is monotone, so ``|p|_inf
    <= P`` makes every entry's computed envelope at most its plane's
    computed bound: an entry the first stage decides is one the
    envelope alone would decide the same way, and the mask and the
    fallback entries, in order, are those of the single-stage sweep.
    """
    # repro: shape: pts_cols=(d,?):float64, ranks=(M,):int64
    # repro: shape: blocks=(K,):int64, indices=(K,d):int64
    # repro: shape: vis_sign=(K,):int8, xs=(d,M):float64
    # repro: shape: margins=(M,):float64, bound=(M,):float64
    # repro: shape: mask=(M,):bool
    #
    # Filter-boundary admission for `repro fpcheck`: the plane columns
    # arrive with batch_planes' proven error summaries, and the margin
    # sweep must stay inside the same committed envelope (atoms as in
    # batch_planes; Q = gathered point magnitude |p|_inf, P = the bound
    # on every swept point's |p|_inf), both the per-entry one and the
    # per-plane bound:
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: in normals ~ NRM err 6*H
    # repro: fp-bound: in offsets ~ OFF err 6*d*H*B + 2*d^2*NRM*B
    # repro: fp-bound: fact OFF <= d*NRM*B
    # repro: fp-bound: fact Q <= P
    # repro: fp-bound: guard bound env
    # repro: fp-bound: envelope scale scaled_base packed bound env
    if not ranks.size:
        return np.zeros(0, dtype=bool)
    d = pts_cols.shape[0]
    # repro: fp-bound: in pts_cols ~ Q
    xs = np.take(pts_cols, ranks, axis=1)
    if pts_inf is None:
        pts_inf = float(np.abs(xs).max())
    # repro: fp-bound: in pts_inf ~ P
    scale = _FILTER_SCALE * err_scale
    scaled_base = scale * err_base
    # Pack every per-plane scalar the sweep needs into one (d+2, K)
    # column matrix so the per-entry stream costs a *single* expansion:
    # rows are [normal | offset | bound].  K (planes) is small; M
    # (entries) is the round.  Each plane's entries are contiguous, so
    # the expansion is a repeat along the stream, not a gather, and
    # every row of it is one contiguous M-vector.  A forced plane's
    # bound is infinite: all its entries go on to the exact ladder.
    packed = np.empty((d + 2, normals.shape[0]), dtype=np.float64)
    packed[:d] = normals.T
    packed[d] = offsets
    bound = scale * pts_inf
    bound += scaled_base
    if force_exact is not None:
        bound[force_exact] = np.inf
    packed[d + 1] = bound
    g = np.repeat(packed, blocks, axis=1)
    gn = g[:d]    # repro: fp-bound: in gn ~ NRM err 6*H
    go = g[d]     # repro: fp-bound: in go ~ OFF err 6*d*H*B + 2*d^2*NRM*B
    margins = _column_margins(xs, gn, go)
    # repro: fp-bound: claim margins <= 16*d*(d*d*H + NRM + 1)*(B + Q)
    # repro: fp-bound: claim margins <= 16*d*(d*d*H + NRM + 1)*(B + P)
    bound = g[d + 1]
    mask = margins > bound
    # The second stage: every entry the bound does not decide (a NaN
    # margin fails both comparisons, and lands here as it would in the
    # single-stage sweep's "not visible, not uncertain").
    near = np.flatnonzero(~(np.abs(margins) > bound))
    n_signs = int(ranks.shape[0])
    n_fall = 0
    STATS.count_float(n_signs)
    if near.size:
        plane_of = np.searchsorted(np.cumsum(blocks), near, side="right")
        coords = np.abs(np.take(xs, near, axis=1))
        q_inf = coords[0]
        for j in range(1, d):
            q_inf = np.maximum(q_inf, coords[j])
        env = np.take(scale, plane_of) * q_inf
        env += np.take(scaled_base, plane_of)
        m_near = np.take(margins, near)
        mask[near] = m_near > env
        uncertain = np.abs(m_near) <= env
        if force_exact is not None:
            uncertain |= np.take(force_exact, plane_of)
        fall = near[uncertain]
        n_fall = int(fall.shape[0])
        if n_fall:
            # Envelope-ambiguous (or forced-exact) entries only, in one
            # exact stage.
            pts = pts_cols.T
            mask[fall] = side_exact_batch(
                np.take(pts, indices, axis=0), indices, vis_sign, sos,
                plane_of[uncertain], pts, np.take(ranks, fall)) > 0
    if stats is not None:
        stats.count_sweep(n_signs, n_fall)
    observe("repro.geometry.kernels.visible_flat",
            ranks=ranks, blocks=blocks, xs=xs,
            margins=margins, bound=bound, mask=mask)
    return mask
