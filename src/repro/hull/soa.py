"""The conflict-list structure-of-arrays hull core (``engine="soa"``).

The per-facet drivers (:mod:`.sequential`, :mod:`.parallel`) run the
paper's algorithms over Python ``Facet`` objects: every ``ProcessRidge``
call allocates tuples, walks ridge sets, and issues its own (small)
visibility sweep.  The kernel bench shows what that costs -- raw
predicate sweeps run >20x over the scalar oracle while end-to-end hulls
sit near 1x, because the driver dominates.  This module is ROADMAP
item 1: the same round-synchronous Algorithm 3, re-expressed so that an
*entire round* is a handful of NumPy sweeps and the per-facet Python
loop disappears.

Memory layout (the parlaylib-style conflict-list representation):

* **Facet store** -- an append-only structure of arrays, one row per
  facet ever created: defining ranks ``indices (F, d)``, oriented float
  planes ``normals (F, d)`` / ``offsets (F,)`` with their error-envelope
  coefficients ``err_scale`` / ``err_base`` (exactly what
  :func:`~repro.geometry.kernels.batch_planes` computes and
  :meth:`~repro.geometry.hyperplane.Hyperplane.through` would), the
  visible orientation sign ``vis_sign (F,)`` (a float-certain row's
  interior flip, an always-exact row's ladder sign), the conflict
  pivot ``pivot (F,)`` (``min C(t)``; ``INT64_MAX`` when
  empty), the conflict-list segment ``conf_start``/``conf_len``, the
  ``alive`` flag, and provenance columns (``support`` pair,
  ``pivot_point``, ``round_created``) for the dependence DAG.
* **Conflict pool** -- one flat, append-only ``int64`` array; facet
  ``f`` owns ``pool[conf_start[f] : conf_start[f] + conf_len[f]]``,
  ascending and unique.  Conflict sets are immutable once written
  (exactly the ``Facet.conflicts`` contract), so rounds only ever
  append.
* **Frontier / pending pool** -- ready ``ProcessRidge(t1, r, t2)``
  calls as three arrays (``t1`` fids, ``t2`` fids, sorted ridge rows
  ``(K, d-1)``), plus the half-registered ridges that Algorithm 3
  keeps in the multimap ``M``, as fused ridge keys (ridge columns two
  at a time, ``c_j * n + c_{j+1}``, which order like the rows and
  cannot collide) and registrant fids: each ridge key is registered at
  most twice over the whole run (the second registrant creates the
  task), so a per-round sort of the (pending + new) keys pairs
  adjacent equal keys, each pair in arrival order, and is semantically
  identical to ``DictMultimap.insert_and_set`` -- a run of three equal
  keys would be a structural bug and raises.  Ridge rows are rebuilt
  from the keys for the matched pairs only.
* **Frontier log** -- the ``(t1, t2, rows)`` arrays each round
  consumed, kept by reference; the ``parallel_hull`` adapter derives
  its per-round events from it and the finished columns.

The round transaction (all vectorized, no per-facet Python loop):

1. log the frontier, gather both pivot columns, classify every ready
   ridge into the paper's four cases (final / bury / flip / create),
   and insert each pivot into its sorted creation ridge by one
   compare-exchange pass over the columns;
2. gather every creating ridge's two parent conflict windows in one
   segment gather (:func:`~repro.geometry.kernels.gather_segments`)
   and one ``np.take`` of the pool, the smaller-pivot parent's window
   from its second entry, and merge + dedupe them by one stable sort
   of fused ``(row << shift) + rank`` keys (the gather tags each entry
   with its row's shifted key, one add puts the rank in, one mask
   takes it out after the dedupe) -- exactly
   ``FacetFactory.merge_candidates`` + ``_clean_candidates``, but for
   all facets of the round at once and with no per-entry filter: the
   skipped head is the pivot, the only entry the "strictly above the
   pivot" filter would drop, and no window ever holds a defining rank
   of its own facet, so there is nothing to clean.  The result is the
   flat candidate ranks plus ``blocks``, the per-facet counts;
3. build all new planes in one :func:`batch_planes` call, orienting
   float-certain rows against the interior point in place; ambiguous
   rows (or all rows under :func:`~repro.geometry.hyperplane.exact_mode`)
   materialize a real :class:`Hyperplane` via the scalar ladder, so
   degenerate inputs raise / SoS-perturb exactly as the oracle does;
4. decide all (facet x candidate) visibilities in one flat sweep
   (:func:`~repro.geometry.kernels.visible_flat`) with the same
   envelope filter -- staged: one bound per plane, from the run's max
   ``|p|_inf``, decides almost every entry before any per-entry
   envelope is formed -- and the same exact decisions as the scalar
   path, all of the round's fallbacks in one batched exact stage fed
   by each row's defining ranks and visible sign (a float-certain
   row's sign is its interior flip, so no ``Hyperplane`` is built to
   decide it).  The sweep runs in column form: it gathers each
   coordinate from the ``(d, n)`` copy of the points the engine makes
   once per run, and since each facet's candidates are one contiguous
   block it takes ``blocks`` and repeats the plane columns along the
   stream, so each entry costs ``d`` 1-D multiply-adds, summed in the
   row-form ``einsum``'s order (the same margins, bit for bit);
5. count each facet's survivors with one segmented sum of the mask
   (``np.add.reduceat`` over the non-empty blocks), prefix-sum
   partition them into the new facets' conflict segments, compress
   the survivors straight into the pool's reserved tail, append the
   rows to the store, and pair the new ridges by key.

:meth:`SoAHullEngine.finish` hands back an :class:`SoAHullRun` in the
same column form -- copies of the store columns and the pool, with no
``Facet`` built; ``SoAHullRun.facets`` materializes the alive facets on
first access, for the callers that need objects.

Scalar equivalence is structural, not statistical: any float-certain
sign is proven by the envelope, every ambiguous sign takes the scalar
exact ladder, and the paper's determinism theorem makes the created
facet set and all per-facet conflict sets independent of execution
order -- so facet keys, conflict sets, certificates, and the intrinsic
counters (``visibility_tests``, ``facets_created``) match the
sequential scalar oracle exactly (the differential suite under
``tests/differential/test_soa_vs_scalar.py`` pins this).  Work/span
accounting stays scalar-equivalent: each round logs one
:meth:`~repro.runtime.workspan.WorkSpanTracker.add_batched_sweep` at
the round's summed cleaned-candidate cost, so ``tracker.work`` equals
``counters.visibility_tests`` and the span reflects the
round-synchronous schedule.

The flat sweep is the engine's only visibility path.  ``kernel`` is
``None`` or a :class:`~repro.geometry.noisy.NoisyKernel`: a noisy run
perturbs the sweep's true mask once per created block, keyed by the
same (sorted defining ranks, point rank) sites as the object drivers'
:class:`~repro.hull.common.FacetFactory`, so the flips -- and a p=0
run's bit-identity with the noise-free run -- match the oracle's.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..analyze.shapes import observe
from ..geometry.hyperplane import Hyperplane, exact_active
from ..geometry.kernels import (
    KernelStats,
    batch_planes,
    gather_segments,
    visible_flat,
)
from ..geometry.noisy import NoisyKernel
from ..geometry.perturb import sos_active
from ..geometry.simplex import Facet
from ..runtime.executors import ExecutionStats
from ..runtime.workspan import WorkSpanTracker
from .common import Counters, check_kernel, setup_run
from .sequential import bootstrap_faces

__all__ = ["SoAHullEngine", "SoAHullRun", "soa_hull"]

_INF = np.iinfo(np.int64).max


def _grown(arr: np.ndarray, cap: int) -> np.ndarray:
    """Reallocate a growable column at ``cap`` rows, keeping content."""
    out = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class _FacetStore:
    """Append-only SoA facet columns with doubling capacity."""

    __slots__ = (
        "d", "size", "indices", "normals", "offsets", "err_scale",
        "err_base", "vis_sign", "exact", "alive", "pivot", "conf_start",
        "conf_len", "support", "pivot_point", "round_created",
    )

    def __init__(self, d: int, capacity: int = 64):
        self.d = d
        self.size = 0
        self.indices = np.zeros((capacity, d), dtype=np.int64)
        self.normals = np.zeros((capacity, d), dtype=np.float64)
        self.offsets = np.zeros(capacity, dtype=np.float64)
        self.err_scale = np.zeros(capacity, dtype=np.float64)
        self.err_base = np.zeros(capacity, dtype=np.float64)
        self.vis_sign = np.zeros(capacity, dtype=np.int8)
        self.exact = np.zeros(capacity, dtype=bool)
        self.alive = np.zeros(capacity, dtype=bool)
        self.pivot = np.zeros(capacity, dtype=np.int64)
        self.conf_start = np.zeros(capacity, dtype=np.int64)
        self.conf_len = np.zeros(capacity, dtype=np.int64)
        self.support = np.zeros((capacity, 2), dtype=np.int64)
        self.pivot_point = np.zeros(capacity, dtype=np.int64)
        self.round_created = np.zeros(capacity, dtype=np.int64)

    _COLUMNS = (
        "indices", "normals", "offsets", "err_scale", "err_base",
        "vis_sign", "exact", "alive", "pivot", "conf_start", "conf_len",
        "support", "pivot_point", "round_created",
    )

    def _ensure(self, extra: int) -> None:
        cap = self.offsets.shape[0]
        if self.size + extra <= cap:
            return
        new_cap = max(2 * cap, self.size + extra)
        for name in self._COLUMNS:
            setattr(self, name, _grown(getattr(self, name), new_cap))

    def append_block(
        self,
        indices: np.ndarray,
        normals: np.ndarray,
        offsets: np.ndarray,
        err_scale: np.ndarray,
        err_base: np.ndarray,
        vis_sign: np.ndarray,
        exact: np.ndarray,
        pivot: np.ndarray,
        conf_start: np.ndarray,
        conf_len: np.ndarray,
        support: np.ndarray,
        pivot_point: np.ndarray,
        round_created: int,
    ) -> int:
        """Append ``K`` facet rows; returns the first new fid."""
        k = int(indices.shape[0])
        self._ensure(k)
        fid0 = self.size
        end = fid0 + k
        self.indices[fid0:end] = indices
        self.normals[fid0:end] = normals
        self.offsets[fid0:end] = offsets
        self.err_scale[fid0:end] = err_scale
        self.err_base[fid0:end] = err_base
        self.vis_sign[fid0:end] = vis_sign
        self.exact[fid0:end] = exact
        self.alive[fid0:end] = True
        self.pivot[fid0:end] = pivot
        self.conf_start[fid0:end] = conf_start
        self.conf_len[fid0:end] = conf_len
        self.support[fid0:end] = support
        self.pivot_point[fid0:end] = pivot_point
        self.round_created[fid0:end] = round_created
        self.size = end
        return fid0

    def snapshot(self) -> dict:
        snap = {"size": self.size}
        snap.update(
            zip(self._COLUMNS,
                map(np.copy, map(self._used, self._COLUMNS)))
        )
        return snap

    def _used(self, name: str) -> np.ndarray:
        return getattr(self, name)[: self.size]

    def restore(self, snap: dict) -> None:
        self.size = 0
        self._ensure(int(snap["size"]))
        self.size = int(snap["size"])
        for name in self._COLUMNS:
            self._used(name)[:] = snap[name]


class _ConflictPool:
    """Flat append-only int64 pool with doubling capacity."""

    __slots__ = ("buf", "end")

    def __init__(self, capacity: int = 256):
        self.buf = np.zeros(capacity, dtype=np.int64)
        self.end = 0

    def reserve(self, m: int) -> tuple[int, np.ndarray]:
        """Claim the next ``m`` entries: returns their start offset and
        a writable view of them, for a caller that writes its block in
        place."""
        if self.end + m > self.buf.shape[0]:
            self.buf = _grown(self.buf, max(2 * self.buf.shape[0], self.end + m))
        start = self.end
        self.end = start + m
        return start, self.buf[start:self.end]

    def extend(self, vals: np.ndarray) -> int:
        """Append ``vals``; returns the start offset of the block."""
        start, tail = self.reserve(int(vals.shape[0]))
        tail[:] = vals
        return start

    def view(self) -> np.ndarray:
        return self.buf[: self.end]


def _column_plane(
    pts: np.ndarray,
    interior: np.ndarray,
    idx: tuple,
    normal: np.ndarray,
    offset,
    err_scale,
    err_base,
    sos: bool,
    vis_sign: int,
) -> Hyperplane:
    """The plane of a float-certain row, from its columns.

    The stored columns ARE the plane :meth:`Hyperplane.through` would
    build (``batch_planes`` is pinned bit-compatible, and the interior
    flip was applied when the row was created), so this rebuilds it
    without re-running the cofactor expansion and the interior test,
    and ``vis_sign`` is the row's visible orientation sign, so the
    plane makes no exact call for it.  Always-exact rows never come
    here: their scalar-ladder planes are kept."""
    return Hyperplane(
        normal=normal.copy(),
        offset=float(offset),
        base_points=pts[list(idx)],
        ref_point=interior,
        err_scale=float(err_scale),
        err_base=float(err_base),
        always_exact=False,
        base_indices=idx if sos else None,
        sos=sos,
        vis_sign=vis_sign,
    )


class _FacetSource(NamedTuple):
    """What a :class:`~repro.geometry.simplex.Facet` is materialized
    from: per-row defining ranks, float plane, error envelope, visible
    sign, alive flag and conflict window, the pool the windows index,
    the scalar-ladder planes of always-exact rows, and the SoS flag the
    float planes take.  The engine lends live views of its store
    (:meth:`SoAHullEngine._source`); a finished run builds one from its
    own copies (:attr:`SoAHullRun.facets`)."""

    pts: np.ndarray
    interior: np.ndarray
    indices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    err_scale: np.ndarray
    err_base: np.ndarray
    vis_signs: np.ndarray
    alive: np.ndarray
    conf_start: np.ndarray
    conf_len: np.ndarray
    pool: np.ndarray
    exact_planes: dict
    sos: bool

    def facet(self, fid: int) -> Facet:
        """The one materialization routine: row ``fid`` as a ``Facet``
        with its plane and a copy of its conflict window."""
        fid = int(fid)
        idx = tuple(map(int, self.indices[fid]))
        plane = self.exact_planes.get(fid)
        if plane is None:
            plane = _column_plane(
                self.pts, self.interior, idx, self.normals[fid],
                self.offsets[fid], self.err_scale[fid], self.err_base[fid],
                self.sos, int(self.vis_signs[fid]),
            )
        s = int(self.conf_start[fid])
        ln = int(self.conf_len[fid])
        return Facet(
            fid=fid, indices=idx, plane=plane,
            conflicts=self.pool[s:s + ln].copy(),
            alive=bool(self.alive[fid]),
        )


@dataclass
class SoAHullRun:
    """Outcome of a conflict-list SoA hull run, in column form.

    Every facet ever created is one row of the ``created_*`` columns:
    ``created_indices``/``created_normals`` give its geometric key,
    ``created_offsets``/``created_err_scale``/``created_err_base`` the
    rest of its float plane and error envelope, ``created_vis_sign``
    its visible orientation sign, ``support``/
    ``pivot_points``/``rounds_created`` the dependence DAG, and
    ``conflict_lens`` its window of ``conflict_pool``.  All are copies,
    as are ``counters`` and ``tracker``, so stepping or restoring the
    engine afterwards cannot reach them.

    ``facets`` are the alive hull facets as regular
    :class:`~repro.geometry.simplex.Facet` objects (same planes, same
    conflict arrays), so certification, validation, and serialization
    consume an SoA run unchanged.  They are built on first access, from
    these columns, ``exact_planes`` (the scalar-ladder planes of the
    alive always-exact rows) and ``sos`` (the SoS flag in force when the
    run finished); callers that read vertices, keys or columns never
    pay for them.  Their planes carry their visible signs, so reading
    ``plane.vis_sign`` (as :func:`~repro.hull.certify.make_certificate`
    does) makes no exact call: an always-exact row's ladder plane has
    it, and a float-certain row's is its ``created_vis_sign``, the sign
    the engine decided when it oriented the row.
    """

    points: np.ndarray
    order: np.ndarray
    counters: Counters
    exec_stats: ExecutionStats
    tracker: WorkSpanTracker
    interior: np.ndarray
    base_size: int
    created_indices: np.ndarray     # (F, d) defining ranks of every facet
    created_normals: np.ndarray     # (F, d) oriented float normals
    created_offsets: np.ndarray     # (F,) float plane offsets
    created_err_scale: np.ndarray   # (F,) error-envelope scale
    created_err_base: np.ndarray    # (F,) error-envelope base
    created_vis_sign: np.ndarray    # (F,) int8 visible orientation signs
    created_alive: np.ndarray       # (F,) alive flags
    support: np.ndarray             # (F, 2) support fids, -1 for base facets
    pivot_points: np.ndarray        # (F,) creating pivot, -1 for base facets
    rounds_created: np.ndarray      # (F,) creation round (0 = bootstrap)
    conflict_lens: np.ndarray       # (F,) conflict-list lengths
    conflict_pool: np.ndarray       # flat pool, segments in fid order
    exact_planes: dict = field(repr=False)  # fid -> Hyperplane, alive rows
    sos: bool                       # sos_active() when the run finished

    @cached_property
    def facets(self) -> list[Facet]:
        """The alive facets, built once on first access.  Every plane
        carries its visible sign, so certificate emission makes no
        exact call."""
        alive = np.nonzero(self.created_alive)[0]
        src = self._facet_source(self.exact_planes)
        return list(map(src.facet, alive.tolist()))

    def _facet_source(self, exact_planes: dict) -> _FacetSource:
        """These columns as a facet source, with ``exact_planes`` for
        the always-exact rows it will be asked for."""
        lens = self.conflict_lens
        return _FacetSource(
            self.points, self.interior, self.created_indices,
            self.created_normals, self.created_offsets,
            self.created_err_scale, self.created_err_base,
            self.created_vis_sign, self.created_alive,
            np.cumsum(lens) - lens, lens, self.conflict_pool, exact_planes,
            self.sos,
        )

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def vertex_ranks(self) -> set[int]:
        return set(map(int, np.unique(self.created_indices[self.created_alive])))

    def vertex_indices(self) -> set[int]:
        return set(map(int, self.order[sorted(self.vertex_ranks())]))

    def facet_keys(self) -> set:
        alive = self.created_alive
        return set(self._keys_of(self.created_indices[alive],
                                 self.created_normals[alive]))

    def _keys_of(self, rows: np.ndarray, normals: np.ndarray) -> list:
        # Vectorized Facet.key(): point set plus the sign of the first
        # nonzero normal component (0 for exactly-zero SoS normals).
        nz = normals != 0.0
        has = nz.any(axis=1)
        first = np.argmax(nz, axis=1)
        comp = normals[np.arange(rows.shape[0]), first]
        sign = np.where(comp > 0.0, first + 1, -(first + 1))
        sign = np.where(has, sign, 0)
        return list(zip(map(frozenset, rows.tolist()), map(int, sign.tolist())))

    def created_keys(self) -> set:
        return set(self._keys_of(self.created_indices, self.created_normals))

    def created_conflicts(self) -> dict:
        """Geometric key -> conflict array, for every facet ever
        created (the per-facet conflict sets the determinism theorem
        makes execution-order independent)."""
        bounds = np.cumsum(self.conflict_lens)[:-1]
        keys = self._keys_of(self.created_indices, self.created_normals)
        return dict(zip(keys, np.split(self.conflict_pool, bounds)))

    def _depths(self) -> np.ndarray:
        """Every facet's support-DAG depth (Definition 4.1: base facets
        0, a created facet one below the deeper of its two supports),
        computed round-group by round-group (supports always come from
        strictly earlier rounds)."""
        nf = self.support.shape[0]
        depth = np.zeros(nf, dtype=np.int64)
        rc = self.rounds_created
        last = int(rc.max(initial=0))
        bounds = np.searchsorted(rc, np.arange(last + 2))
        for r in range(1, last + 1):
            lo, hi = int(bounds[r]), int(bounds[r + 1])
            if hi <= lo:
                continue
            sup = self.support[lo:hi]
            depth[lo:hi] = 1 + np.maximum(depth[sup[:, 0]], depth[sup[:, 1]])
        return depth

    def dependence_depth(self) -> int:
        """Longest support-DAG path."""
        return int(self._depths().max(initial=0))

    def depth_profile(self) -> dict[int, int]:
        """Histogram: dependence depth -> number of facets at it."""
        counts = np.bincount(self._depths())
        return {d: c for d, c in enumerate(counts.tolist()) if c}


class SoAHullEngine:
    """Round-stepped conflict-list engine (see the module docstring).

    Use :func:`soa_hull` for a plain run; the engine object itself
    exposes :meth:`step_round` / :meth:`snapshot` / :meth:`restore` for
    the chaos-checkpoint property tests and for streaming consumers.
    """

    def __init__(
        self,
        points: np.ndarray,
        order: np.ndarray | None = None,
        seed: int | None = None,
        kernel: NoisyKernel | None = None,
        base_size: int | None = None,
    ):
        self.noisy = check_kernel(kernel)
        pts, order, self.base_size, self.interior = setup_run(
            points, order, seed, base_size)
        n, d = pts.shape
        self.pts = pts
        self.order = order
        self.n, self.d = n, d
        self.counters = Counters()
        self.tracker = WorkSpanTracker()
        self.stats = ExecutionStats()
        self._interior_inf = float(np.abs(self.interior).max(initial=0.0))
        # The points in column form, the layout every sweep gathers
        # from, and the run's max |p|_inf: every sweep's per-plane bound.
        self._pts_cols = np.ascontiguousarray(pts.T)
        self._pts_inf = float(np.abs(pts).max(initial=0.0))
        # Candidate keys put the new facet's row above a rank's bits:
        # every rank is below 2**_key_shift.
        self._key_shift = n.bit_length()
        combo = tuple(range(d + 1))
        self._interior_combo = (pts[list(combo)], combo)
        self.kstats = KernelStats()
        # The <=2-registrations ridge invariant is a theorem of the
        # noise-free algorithm; a lying oracle can genuinely violate it.
        self._strict_pairs = kernel is None or kernel.p == 0.0

        self.store = _FacetStore(d)
        self.pool = _ConflictPool()
        self._exact_planes: dict[int, Hyperplane] = {}

        # Leave-one-out column template: row j = all columns except j;
        # split into the column pairs of the ridge-key parts, so key
        # part p of the ridge leaving out column j of a facet row is
        # row[hi[p][j]] * n + row[lo[p][j]] (+ 0 for the trailing
        # single of an odd-length ridge, whose lo is None).
        cols = np.arange(d, dtype=np.int64)
        grid = np.broadcast_to(cols, (d, d))
        loo = grid[grid != cols[:, None]].reshape(d, d - 1)
        self._loo_parts = [
            (loo[:, j], loo[:, j + 1] if j + 1 < d - 1 else None)
            for j in range(0, d - 1, 2)
        ]

        # Half-registered ridges (Algorithm 3's multimap M), as fused
        # ridge keys (one row per key part, columns sorted) + registrant
        # fids.
        self._pend_keys = np.zeros((len(self._loo_parts), 0), dtype=np.int64)
        self._pend_fids = np.zeros(0, dtype=np.int64)

        self.round = 0
        # The frontier arrays (t1, t2, ridge rows) each round consumed,
        # by reference: round r's entry is frontier_log[r - 1].  The
        # parallel_hull adapter derives its events from it.
        self.frontier_log: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._last_tid: int | None = None
        self._finished = False

        self._bootstrap()

    # -- plane materialization (the scalar ladder) -------------------------

    def _through_row(self, idx: tuple) -> Hyperplane:
        """Exactly ``FacetFactory._plane_for``: the scalar-constructed,
        interior-oriented plane (raises / SoS-perturbs on degenerate
        orientation references, as the oracle does)."""
        return Hyperplane.through(
            self.pts[list(idx)], self.interior,
            indices=idx, ref_combo=self._interior_combo,
        )

    def _source(self) -> _FacetSource:
        """Live views of the store, for materializing facets of the
        current state (white-box tests)."""
        s = self.store
        return _FacetSource(
            self.pts, self.interior, s.indices, s.normals, s.offsets,
            s.err_scale, s.err_base, s.vis_sign, s.alive, s.conf_start,
            s.conf_len, self.pool.buf, self._exact_planes, sos_active(),
        )

    def _facet_of(self, fid: int) -> Facet:
        return self._source().facet(fid)

    # -- facet-block creation ----------------------------------------------

    def _create_block(
        self,
        new_idx: np.ndarray,       # (K, d) sorted defining ranks
        vals: np.ndarray,          # flat cleaned candidate ranks, by row
        blocks: np.ndarray,        # (K,) candidate counts per row
        support: np.ndarray,       # (K, 2) support fids (-1 for base)
        pivot_point: np.ndarray,   # (K,) creating pivot (-1 for base)
    ) -> int:
        """Create ``K`` facets from cleaned candidate blocks: planes,
        one visibility sweep, prefix-sum partition into the pool.
        Returns the first new fid."""
        k = int(new_idx.shape[0])
        vis, cols = self._facets_flat(new_idx, vals, blocks)
        normals, offsets, e_scale, e_base, vis_sign, exact_rows = cols

        # Survivors per row: one segmented sum of the mask over the
        # starts of the non-empty blocks (reduceat needs strictly
        # increasing starts; empty blocks keep their zero).  Their
        # total claims the pool's tail, and one compress writes the
        # survivors straight into it -- np.compress, not vals[vis]: at
        # the mid-range densities a sweep's mask has, boolean indexing
        # runs ~4x slower.
        lens = np.zeros(k, dtype=np.int64)
        full = np.nonzero(blocks)[0]
        if full.size:
            starts = np.cumsum(blocks) - blocks
            lens[full] = np.add.reduceat(vis, starts[full], dtype=np.int64)
        ends_local = np.cumsum(lens)
        starts_local = ends_local - lens
        pool_start, surv_vals = self.pool.reserve(int(ends_local[-1]) if k else 0)
        np.compress(vis, vals, out=surv_vals)
        pivots = np.full(k, _INF, dtype=np.int64)
        nz = lens > 0
        pivots[nz] = surv_vals[starts_local[nz]]

        fid0 = self.store.append_block(
            indices=new_idx, normals=normals, offsets=offsets,
            err_scale=e_scale, err_base=e_base, vis_sign=vis_sign,
            exact=exact_rows, pivot=pivots,
            conf_start=pool_start + starts_local, conf_len=lens,
            support=support, pivot_point=pivot_point,
            round_created=self.round,
        )
        return fid0

    def _facets_flat(self, new_idx, vals, blocks):
        """Batch planes + one flat sweep (+ the lying oracle's
        flips on a noisy run).  Returns the visibility mask over
        ``vals`` and the new rows' plane columns, visible signs
        included."""
        # The filter boundary of the flat path: the orientation margin
        # below must clear the same committed envelope as
        # Hyperplane.through, with the plane bounds flowing out of the
        # batch_planes summary.  Checked by `repro fpcheck`:
        # repro: fp-bound: assume d in 2..3
        # repro: fp-bound: fact NRM <= 6*H
        # repro: fp-bound: fact OFF <= d*NRM*B
        # repro: fp-bound: guard env_ref certain
        # repro: fp-bound: envelope env_ref
        # repro: fp-bound: in self.interior ~ Q
        k = int(new_idx.shape[0])
        normals, offsets, e_scale, e_base = batch_planes(
            self.pts.take(new_idx, axis=0))
        # Orient against the interior point: float-certain rows flip in
        # place (same envelope test as Hyperplane.through); ambiguous
        # rows -- or every row under exact_mode() -- materialize the
        # real scalar-ladder plane, so ValueError/SoS semantics on
        # degenerate references are byte-for-byte the oracle's.
        m_ref = normals @ self.interior - offsets
        # repro: fp-bound: claim m_ref <= 16*d*(d*d*H + NRM + 1)*(B + Q)
        env_ref = e_scale * (e_base + self._interior_inf)
        if exact_active():
            certain = np.zeros(k, dtype=bool)
        else:
            certain = np.abs(m_ref) > env_ref
        flip = certain & (m_ref > 0.0)
        normals[flip] = -normals[flip]
        offsets[flip] = -offsets[flip]
        exact_rows = ~certain
        # The visible orientation sign of every row: a float-certain
        # row's is its flip, an always-exact row's its ladder plane's.
        vis_sign = np.where(flip, -1, 1).astype(np.int8)
        planes: list[Hyperplane] = []
        ks = np.nonzero(exact_rows)[0]
        if ks.size:
            planes = list(map(self._through_row, map(tuple, new_idx[ks].tolist())))
            normals[ks] = np.stack(list(map(operator.attrgetter("normal"), planes)))
            offsets[ks] = np.fromiter(
                map(operator.attrgetter("offset"), planes), np.float64, count=ks.size
            )
            vis_sign[ks] = list(map(operator.attrgetter("vis_sign"), planes))

        vis = visible_flat(
            self._pts_cols, normals, offsets, e_scale, e_base, blocks, vals,
            new_idx, vis_sign, force_exact=exact_rows, sos=sos_active(),
            stats=self.kstats, pts_inf=self._pts_inf,
        )
        if self.noisy is not None:
            # Flip the true mask block by block, keyed (sorted defining
            # ranks, point rank) exactly like FacetFactory.make_batch.
            bounds = np.cumsum(blocks)[:-1]
            vis = np.concatenate(self.noisy.noisy_masks(
                list(map(tuple, new_idx.tolist())),
                np.split(vals, bounds), np.split(vis, bounds),
            ))
        self.counters.visibility_tests += int(vals.shape[0])
        self.counters.facets_created += k
        # Persist the scalar-ladder planes of always-exact rows, keyed by
        # fid, for materialization.
        fid0 = self.store.size
        self._exact_planes.update(zip((fid0 + ks).tolist(), planes))
        return vis, (normals, offsets, e_scale, e_base, vis_sign, exact_rows)

    # -- ridge pairing (the multimap M, per round) -------------------------

    def _loo_keys(self, idx: np.ndarray) -> np.ndarray:
        """Fused ridge keys of every leave-one-out ridge of the facet
        rows ``idx`` (sorted ranks), as a ``(parts, K, d)`` array:
        ``[p, r, j]`` is key part ``p`` of the ridge of row ``r``
        leaving out column ``j``."""
        n = np.int64(self.n)
        parts = np.empty((len(self._loo_parts),) + idx.shape, dtype=np.int64)
        for key, (hi, lo) in zip(parts, self._loo_parts):
            idx.take(hi, axis=1, out=key)
            key *= n
            if lo is not None:
                key += idx.take(lo, axis=1)
        return parts

    def _key_rows(self, keys: np.ndarray) -> np.ndarray:
        """The sorted ridge rows ``(m, d-1)`` that the ``(parts, m)``
        fused keys encode."""
        hi, lo = np.divmod(keys, np.int64(self.n))
        rows = np.empty((keys.shape[1], self.d - 1), dtype=np.int64)
        rows[:, 0::2] = hi.T
        rows[:, 1::2] = lo[: (self.d - 1) // 2].T
        return rows

    def _pair_ridges(self, keys, fids, t1_first: bool):
        """Register new (ridge key, fid) pairs against the pending pool
        and pair up equal ridge keys.  Returns ``(t1, t2, ridge_rows)``
        of the matched tasks; unmatched registrations stay pending.

        ``keys`` is ``(parts, m)``: a ridge is its fused key, ridge
        columns taken two at a time as ``c_j * n + c_{j+1}`` (a
        trailing single as ``c_j * n``), one row per key part.  Ranks
        are below ``n``, so the keys order lexicographically like the
        sorted rows and cannot collide (``n**2 < 2**63`` for the
        ``n < 2**31`` the candidate keys assume).  The pending pool
        holds keys and fids only, and rows are rebuilt from the keys
        for the matched pairs alone.

        Faithful to ``DictMultimap.insert_and_set``: equal keys pair
        two-by-two in arrival order, which is concatenation order:
        pending keys precede the new ones, new keys come in
        registration order, and at most one pending key per ridge
        survives a round (pairing leaves at most one single per run of
        equal keys).  Any sort yields the pairs, in key order, and the
        two positions of a pair in the concatenation give its arrival
        order; only runs of three or more equal keys need the stable
        order of the whole run.  Noise-free, every ridge key is
        registered at most twice over the whole run (a proven invariant
        of the algorithm), so a longer run raises; under a lying oracle
        (``p > 0``) the invariant can genuinely break, and the dict
        behavior -- pair consecutive registrants, leave a trailing
        single pending -- is what keeps the run alive for the
        certificate gate to judge."""
        keys = np.concatenate([self._pend_keys, keys], axis=1)
        all_fids = np.concatenate([self._pend_fids, fids])
        m = int(all_fids.shape[0])
        if m == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros((0, self.d - 1), dtype=np.int64)
        # A single key part sorts unstably: equal keys come in pairs
        # (or raise), and each pair is put back in arrival order below.
        ordx = keys[0].argsort() if keys.shape[0] == 1 else np.lexsort(keys[::-1])
        sk = keys.take(ordx, axis=1)
        eq = sk[0, 1:] == sk[0, :-1]
        for key in sk[1:]:
            eq &= key[1:] == key[:-1]
        if eq.size > 1 and (eq[1:] & eq[:-1]).any():
            if self._strict_pairs:
                raise AssertionError(
                    "a ridge key was registered more than twice"
                )
            # Arrival-order two-by-two pairing within each equal-key run.
            ordx = np.lexsort(keys[::-1])
            sk = keys.take(ordx, axis=1)
            new_run = np.ones(m, dtype=bool)
            new_run[1:] = ~eq
            run_id = np.cumsum(new_run) - 1
            run_start = np.nonzero(new_run)[0]
            pos = np.arange(m) - run_start[run_id]
            i = np.nonzero((pos[:-1] % 2 == 0) & eq)[0]
        else:
            i = eq.nonzero()[0]
        j = i + 1
        # Within each pair, arrival order is concatenation order.
        a, b = ordx.take(i), ordx.take(j)
        first = all_fids.take(np.minimum(a, b))
        second = all_fids.take(np.maximum(a, b))
        singles = np.ones(m, dtype=bool)
        singles[i] = False
        singles[j] = False
        self._pend_keys = sk.compress(singles, axis=1)
        self._pend_fids = all_fids.take(ordx.compress(singles))
        rows = self._key_rows(sk.take(i, axis=1))
        if t1_first:
            return first, second, rows
        return second, first, rows

    # -- bootstrap ---------------------------------------------------------

    def _bootstrap(self) -> None:
        n, d = self.n, self.d
        base = self.base_size
        base_rows = np.array(
            bootstrap_faces(self.pts, base), dtype=np.int64).reshape(-1, d)
        nb = int(base_rows.shape[0])
        later = np.arange(base, n, dtype=np.int64)
        vals = np.tile(later, nb)
        blocks = np.full(nb, later.shape[0], dtype=np.int64)
        no_sup = np.full((nb, 2), -1, dtype=np.int64)
        no_piv = np.full(nb, -1, dtype=np.int64)
        fid0 = self._create_block(base_rows, vals, blocks, no_sup, no_piv)
        if int(blocks.sum()):
            self._last_tid = self.tracker.add_batched_sweep(blocks)
        # Seed: one ProcessRidge per ridge of the base hull.
        reg_keys = self._loo_keys(base_rows).reshape(len(self._loo_parts), -1)
        reg_fids = np.repeat(fid0 + np.arange(nb, dtype=np.int64), d)
        t1, t2, rows = self._pair_ridges(reg_keys, reg_fids, t1_first=True)
        if self._pend_fids.shape[0]:
            raise AssertionError("base hull is not closed: unpaired ridges")
        self._fr_t1, self._fr_t2, self._fr_rows = t1, t2, rows
        self.round = 1

    # -- the round transaction ---------------------------------------------

    def step_round(self) -> bool:
        """Process the whole ready frontier as one vectorized
        transaction; returns False when the run has terminated."""
        if self._finished:
            raise RuntimeError("engine already finished")
        t1, t2, rows = self._fr_t1, self._fr_t2, self._fr_rows
        k0 = int(t1.shape[0])
        if k0 == 0:
            return False
        # repro: shape: t1=(K,):int64, t2=(K,):int64, rows=(K,?):int64
        observe("repro.hull.soa.SoAHullEngine.step_round",
                t1=t1, t2=t2, rows=rows)
        self.stats.rounds += 1
        self.stats.round_sizes.append(k0)
        self.stats.tasks_executed += k0
        self.counters.ridges_processed += k0
        self.frontier_log.append((t1, t2, rows))

        # Classify by pivots: equal pivots are final (both lists empty)
        # or bury both facets (idempotent on already-dead facets,
        # exactly like the per-facet driver); the rest create.
        b1 = self.store.pivot.take(t1)
        b2 = self.store.pivot.take(t2)
        eq = b1 == b2
        bury = np.nonzero(eq & (b1 != _INF))[0]
        if bury.size:
            self.store.alive[t1.take(bury)] = False
            self.store.alive[t2.take(bury)] = False
            self.counters.facets_buried += 2 * int(bury.size)
        act = np.nonzero(~eq)[0]
        k = int(act.shape[0])
        if k == 0:
            self._fr_t1 = np.zeros(0, dtype=np.int64)
            self._fr_t2 = np.zeros(0, dtype=np.int64)
            self._fr_rows = np.zeros((0, self.d - 1), dtype=np.int64)
            self.round += 1
            return True

        # Case 3+4: symmetry flip, then create t = r + p with p the
        # smaller pivot.
        b1, b2 = b1.take(act), b2.take(act)
        flip = b2 < b1
        self.counters.flips += int(np.count_nonzero(flip))
        t1a, t2a = t1.take(act), t2.take(act)
        t1c = np.where(flip, t2a, t1a)
        t2c = np.where(flip, t1a, t2a)
        pc = np.minimum(b1, b2)
        rc = rows.take(act, axis=0)
        # Insert each pivot into its sorted creation ridge: one
        # compare-exchange pass from the right.
        new_cols = [rc[:, j] for j in range(self.d - 1)] + [pc]
        for j in range(self.d - 1, 0, -1):
            lo, hi = new_cols[j - 1], new_cols[j]
            new_cols[j - 1], new_cols[j] = np.minimum(lo, hi), np.maximum(lo, hi)
        new_idx = np.stack(new_cols, axis=1)

        # Candidate gather: both parents' conflict windows in one
        # segment gather, merged and deduped by one sort -- exactly
        # merge_candidates + _clean_candidates for the whole round, with
        # no per-entry filter, because skipping t1c's head filters
        # exactly:
        # - "strictly above pc": pc is the head of t1c's ascending
        #   window, and t2c's pivot is larger (equal pivots were
        #   buried), so all of t2c's window is above pc;
        # - "not a defining rank": no window holds a defining rank of
        #   its own facet (bootstrap candidates start at base_size,
        #   later windows by induction), and rc is a subset of both
        #   parents' ranks.
        # Group by new facet, ascending and unique within each group:
        # one stable sort of a fused (row, rank) key, then
        # adjacent-equal dedupe on the key itself.  The key is
        # (row << shift) + rank with shift = n.bit_length(): every rank
        # is below 2**shift, so no two (row, rank) pairs collide, and
        # row and n are both below 2**31 (a round of 2**31 new facets
        # would not fit in memory; a round can create more facets than
        # there are points), so row << shift stays below 2**62.
        # Segments j and j + K of the gather both feed row j: the gather
        # tags each entry with its row's key, one add puts the rank in,
        # and one mask takes it back out after the dedupe.  Both halves
        # arrive sorted, so the sort is a single merge.
        cs, cl = self.store.conf_start, self.store.conf_len
        shift = self._key_shift
        row_keys = np.arange(k, dtype=np.int64) << shift
        pos, fused = gather_segments(
            np.concatenate([cs.take(t1c) + 1, cs.take(t2c)]),
            np.concatenate([cl.take(t1c) - 1, cl.take(t2c)]),
            np.concatenate([row_keys, row_keys]),
        )
        fused += self.pool.buf.take(pos)
        fused.sort(kind="stable")
        if fused.shape[0]:
            keep = np.ones(fused.shape[0], dtype=bool)
            np.not_equal(fused[1:], fused[:-1], out=keep[1:])
            fused = np.compress(keep, fused)
        blocks = np.diff(np.searchsorted(
            fused, np.arange(k + 1, dtype=np.int64) << shift))
        vals = fused & np.int64((1 << shift) - 1)
        # repro: shape: vals=(M,):int64, blocks=(K,):int64
        observe("repro.hull.soa.SoAHullEngine._candidates",
                vals=vals, blocks=blocks)

        fid0 = self._create_block(
            new_idx, vals, blocks,
            support=np.stack([t1c, t2c], axis=1), pivot_point=pc,
        )
        self.store.alive[t1c] = False
        self.counters.facets_replaced += k

        # Scalar-equivalent work/span: the round's sweep is one batched
        # task over the cleaned blocks, chained on the previous round so
        # the tracker's depth realises the round structure.
        if int(blocks.sum()):
            deps = () if self._last_tid is None else (self._last_tid,)
            self._last_tid = self.tracker.add_batched_sweep(blocks, deps=deps)

        # Children: the creation ridge is immediately ready against t2;
        # the other d-1 ridges of each new facet (all containing its
        # pivot) go through the pairing pool, by key.
        new_fids = fid0 + np.arange(k, dtype=np.int64)
        sel = new_idx != pc[:, None]     # every leave-one-out but the pivot's
        reg_keys = self._loo_keys(new_idx)[:, sel]
        reg_fids = np.repeat(new_fids, self.d - 1)
        m_t1, m_t2, m_rows = self._pair_ridges(reg_keys, reg_fids, t1_first=False)

        self._fr_t1 = np.concatenate([new_fids, m_t1])
        self._fr_t2 = np.concatenate([t2c, m_t2])
        self._fr_rows = np.concatenate([rc, m_rows], axis=0)
        self.round += 1
        return True

    # -- chaos checkpointing -----------------------------------------------

    def snapshot(self) -> dict:
        """Byte-exact state capture: arrays are copied, counters and
        stats (the kernel's included) snapshotted, the tracker mark
        recorded."""
        return {
            "store": self.store.snapshot(),
            "pool": (self.pool.view().copy(), self.pool.end),
            "frontier": (self._fr_t1.copy(), self._fr_t2.copy(),
                         self._fr_rows.copy()),
            "pending": (self._pend_keys.copy(), self._pend_fids.copy()),
            "round": self.round,
            "counters": self.counters.as_dict(),
            "stats": copy.deepcopy(self.stats),
            "kstats": copy.copy(self.kstats),
            "frontier_log": len(self.frontier_log),
            "exact_planes": dict(self._exact_planes),
            "tracker_mark": self.tracker.checkpoint(),
            "last_tid": self._last_tid,
        }

    def restore(self, snap: dict) -> None:
        """Rewind to a :meth:`snapshot` (the chaos-rollback contract:
        a rolled-back round leaves no trace, including work accounting
        and fid allocation)."""
        self.store.restore(snap["store"])
        buf, end = snap["pool"]
        self.pool.end = 0
        self.pool.extend(buf)
        if self.pool.end != end:
            raise AssertionError("conflict pool restore size mismatch")
        self._fr_t1, self._fr_t2, self._fr_rows = (
            snap["frontier"][0].copy(), snap["frontier"][1].copy(),
            snap["frontier"][2].copy(),
        )
        self._pend_keys, self._pend_fids = (
            snap["pending"][0].copy(), snap["pending"][1].copy(),
        )
        self.round = snap["round"]
        self.counters.restore(snap["counters"])
        self.stats = copy.deepcopy(snap["stats"])
        self.kstats = copy.copy(snap["kstats"])
        del self.frontier_log[snap["frontier_log"]:]
        self._exact_planes = dict(snap["exact_planes"])
        self.tracker.rollback(snap["tracker_mark"])
        self._last_tid = snap["last_tid"]
        self._finished = False

    # -- termination -------------------------------------------------------

    def _kernel_snapshot(self) -> dict:
        if self.noisy is None:
            return {"kernel": "flat", "engine": "soa", **self.kstats.snapshot()}
        return {"kernel": "noisy[flat]", "engine": "soa",
                **self.kstats.snapshot(), **self.noisy.snapshot()}

    def finish(self) -> SoAHullRun:
        """Close the run and return its result in column form
        (idempotent once the frontier is empty).  No ``Facet`` is built
        here: the run gets copies of the columns, the scalar-ladder
        planes of the alive always-exact rows, the counters and the
        work/span tracker, and the SoS flag in force now, and builds its
        facets from those on first access."""
        self._finished = True
        self.stats.kernel_stats = self._kernel_snapshot()
        nf = self.store.size
        alive = self.store.alive[:nf].copy()
        # Only run.facets reads these planes, and it builds alive rows
        # only: keeping buried rows' planes would hold every always-
        # exact plane of the run (all of them under exact_mode()).
        exact = np.fromiter(self._exact_planes, np.int64,
                            count=len(self._exact_planes))
        exact = exact[alive[exact]].tolist()
        return SoAHullRun(
            points=self.pts,
            order=self.order,
            counters=copy.copy(self.counters),
            exec_stats=self.stats,
            tracker=self.tracker.copy(),
            interior=self.interior,
            base_size=self.base_size,
            created_indices=self.store.indices[:nf].copy(),
            created_normals=self.store.normals[:nf].copy(),
            created_offsets=self.store.offsets[:nf].copy(),
            created_err_scale=self.store.err_scale[:nf].copy(),
            created_err_base=self.store.err_base[:nf].copy(),
            created_vis_sign=self.store.vis_sign[:nf].copy(),
            created_alive=alive,
            support=self.store.support[:nf].copy(),
            pivot_points=self.store.pivot_point[:nf].copy(),
            rounds_created=self.store.round_created[:nf].copy(),
            conflict_lens=self.store.conf_len[:nf].copy(),
            conflict_pool=self.pool.view().copy(),
            exact_planes=dict(zip(exact, map(self._exact_planes.__getitem__, exact))),
            sos=sos_active(),
        )


def soa_hull(
    points: np.ndarray,
    order: np.ndarray | None = None,
    seed: int | None = None,
    kernel: NoisyKernel | None = None,
    base_size: int | None = None,
) -> SoAHullRun:
    """Run the conflict-list SoA engine to completion.

    Same facet sets, conflict sets, certificates, and intrinsic
    counters as :func:`~repro.hull.sequential.sequential_hull` on the
    same ``(points, order)`` -- the differential suite pins this --
    but each round is a handful of NumPy sweeps instead of a per-facet
    Python loop.
    """
    eng = SoAHullEngine(
        points, order=order, seed=seed, kernel=kernel, base_size=base_size
    )
    while eng.step_round():
        pass
    return eng.finish()
