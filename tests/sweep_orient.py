"""Scalar ``orient``'s three-valued sign, decided by the flat sweep.

``visible_flat`` answers one side of a plane: with the ``batch_planes``
cofactor normals and visible sign +1, an entry is visible exactly where
``orient > 0``; with the normals and offsets negated and visible sign
-1, exactly where ``orient < 0`` (a negated margin is the margin
negated, bit for bit, and the envelope is the same).  Two sweeps give
the whole sign, each entry either float-certain or decided by the
sweep's batched exact stage, so the tests that pin the filter against
scalar :func:`~repro.geometry.predicates.orient` or the exact rational
sign run the production sweep itself.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.kernels import KernelStats, batch_planes, visible_flat


def sweep_orient(simplices, queries, stats: KernelStats | None = None) -> np.ndarray:
    """``(F, Q)`` int matrix with ``out[f, q] == orient(simplices[f],
    queries[q])``, from two ``visible_flat`` sweeps counted into
    ``stats`` (each sweep counts ``F * Q`` signs).

    The simplex vertices and the queries share one point array, so
    ``indices`` names each plane's own vertices and no query is ever
    one of them: an exact zero stays 0, as ``orient`` returns it."""
    simplices = np.asarray(simplices, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    nf, d, _ = simplices.shape
    nq = queries.shape[0]
    pts_cols = np.ascontiguousarray(np.vstack([simplices.reshape(-1, d), queries]).T)
    indices = np.arange(nf * d, dtype=np.int64).reshape(nf, d)
    blocks = np.full(nf, nq, dtype=np.int64)
    ranks = np.tile(np.arange(nf * d, nf * d + nq, dtype=np.int64), nf)
    normals, offsets, err_scale, err_base = batch_planes(simplices)
    ones = np.ones(nf, dtype=np.int8)
    above = visible_flat(pts_cols, normals, offsets, err_scale, err_base,
                         blocks, ranks, indices, ones, stats=stats)
    below = visible_flat(pts_cols, -normals, -offsets, err_scale, err_base,
                         blocks, ranks, indices, -ones, stats=stats)
    return (above.astype(np.int64) - below).reshape(nf, nq)
