"""The facet complex every object driver shares: install, uninstall,
the horizon walk and the conflict inverse C^{-1}, on a hand-built
tetrahedron."""

import numpy as np

from repro.hull.common import Counters, FacetFactory
from repro.hull.sequential import ConflictComplex

# Ranks 0-3: the unit tetrahedron.  Rank 4 lies beyond the face
# {1, 2, 3} (x + y + z = 1) only; rank 5 beyond the edge {0, 1}, seen
# by the faces z = 0 and y = 0 and by none of rank 4's new facets.
PTS = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.6, 0.6, 0.6],
    [0.5, -1.0, -1.0],
])


def _factory():
    return FacetFactory(PTS, PTS[:4].mean(axis=0), Counters())


def _insert(cx, factory, v):
    """One insertion step as the sequential driver takes it; returns the
    horizon as ``{ridge: (t1 ranks, t2 ranks)}``."""
    visible = cx.visible(v)
    horizon = cx.horizon(visible)
    assert len({r for r, _, _ in horizon}) == len(horizon)
    later = np.arange(v + 1, PTS.shape[0], dtype=np.int64)
    new = factory.make_batch([(tuple(r | {v}), later) for r, _, _ in horizon])
    cx.replace(visible.values(), new)
    assert not any(f.alive for f in visible.values())
    return {r: (t1.indices, t2.indices) for r, t1, t2 in horizon}


def _assert_consistent(cx):
    # A closed hull: every ridge is shared by exactly two alive facets,
    # each of which has the ridge.
    assert cx.ridges
    for r, fids in cx.ridges.items():
        assert len(fids) == 2
        assert all(r <= set(cx.facets[fid].indices) for fid in fids)
    # C^{-1} is exactly the union of the alive facets' conflict sets.
    expected: dict[int, set[int]] = {}
    for f in cx.facets.values():
        assert f.alive
        for v in f.conflicts.tolist():
            expected.setdefault(v, set()).add(f.fid)
    assert cx.inverse == expected


def test_horizon_of_a_face_and_of_an_edge():
    factory = _factory()
    cx = ConflictComplex()
    first = range(4)
    cx.replace((), factory.make_batch([
        (tuple(i for i in first if i != out), np.array([4, 5]))
        for out in first
    ]))
    _assert_consistent(cx)
    assert {v: {cx.facets[f].indices for f in fids}
            for v, fids in cx.inverse.items()} == {
        4: {(1, 2, 3)},
        5: {(0, 1, 2), (0, 1, 3)},
    }

    # Beyond a face: the region is that face, its horizon its three
    # ridges, each against the coordinate face across it.
    assert _insert(cx, factory, 4) == {
        frozenset({1, 2}): ((1, 2, 3), (0, 1, 2)),
        frozenset({1, 3}): ((1, 2, 3), (0, 1, 3)),
        frozenset({2, 3}): ((1, 2, 3), (0, 2, 3)),
    }
    _assert_consistent(cx)
    assert sorted(f.indices for f in cx.alive()) == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
    ]

    # Beyond an edge: the region is the edge's two faces; the edge is
    # interior to it, and the four other ridges face the rest of the
    # hull, including two facets rank 4 made.
    assert set(cx.visible(5)) == {
        f.fid for f in cx.alive() if f.indices in {(0, 1, 2), (0, 1, 3)}
    }
    assert _insert(cx, factory, 5) == {
        frozenset({0, 2}): ((0, 1, 2), (0, 2, 3)),
        frozenset({1, 2}): ((0, 1, 2), (1, 2, 4)),
        frozenset({0, 3}): ((0, 1, 3), (0, 2, 3)),
        frozenset({1, 3}): ((0, 1, 3), (1, 3, 4)),
    }
    _assert_consistent(cx)
    assert frozenset({0, 1}) not in cx.ridges
    assert cx.inverse == {}
    assert len(cx.alive()) == 8
    assert [f.fid for f in cx.alive()] == sorted(cx.facets)
