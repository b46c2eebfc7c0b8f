"""Convex layers (onion peeling) on top of the parallel hull.

Repeatedly strip the hull vertices: layer 0 is the hull of everything,
layer 1 the hull of the rest, and so on.  A classic robust-statistics /
depth-ranking application that exercises the hull code as a subroutine
many times over shrinking, increasingly degenerate-prone subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hull.sequential import sequential_hull
from ..hull.soa import soa_hull

__all__ = ["ConvexLayers", "convex_layers"]


@dataclass
class ConvexLayers:
    """Result of onion peeling.

    ``layers[k]`` holds the original indices of the k-th layer's hull
    vertices; ``core`` the < d+1 points left when no further
    full-dimensional hull exists (possibly empty).
    """

    points: np.ndarray
    layers: list[list[int]]
    core: list[int]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def depth_of(self) -> np.ndarray:
        """Layer index per point (core points get ``n_layers``)."""
        out = np.full(self.points.shape[0], self.n_layers, dtype=np.int64)
        for k, layer in enumerate(self.layers):
            out[layer] = k
        return out


def convex_layers(
    points: np.ndarray,
    seed: int | None = None,
    backend: str = "parallel",
) -> ConvexLayers:
    """Peel convex layers until fewer than d+1 points remain or the
    rest is not full-dimensional (those become the ``core``)."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    run_hull = soa_hull if backend == "parallel" else sequential_hull
    if backend not in ("parallel", "sequential"):
        raise ValueError(f"unknown backend {backend!r}")
    remaining = list(range(n))
    layers: list[list[int]] = []
    rng = np.random.default_rng(seed)
    while len(remaining) >= d + 1:
        sub = points[remaining]
        try:
            run = run_hull(sub, seed=int(rng.integers(0, 2**31)))
        except ValueError:
            # HullSetupError (a ValueError) or a degenerate orientation
            # reference -- the list robust_hull documents: the rest is
            # not full-dimensional, so it is the core.  Anything else
            # (e.g. an engine AssertionError) is a bug and propagates.
            break
        verts = sorted(remaining[i] for i in run.vertex_indices())
        layers.append(verts)
        vert_set = set(verts)
        remaining = [i for i in remaining if i not in vert_set]
    return ConvexLayers(points=points, layers=layers, core=remaining)
