"""The five benchmark workloads: input generation, the call, the
correctness check, the Qhull reference and the counts read from the
result.

Inputs are generated here with NumPy, not with ``repro``'s own
generators, so a change to the program cannot change what the bench
feeds it.  Every input is a pure function of ``(seed, scale)``; the
program receives the points and an explicit insertion permutation.

Nothing here imports ``repro`` at module level: the worker times the
import of each workload's entry module as part of ``setup_s``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

# A conflict-pool entry is one int64 rank.
POOL_ENTRY_BYTES = 8


def uniform_ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.random((n, 1)) ** (1.0 / d)


def on_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def uniform_cube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n, d))


def lifted_grid(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """The integer grid of about ``n`` points in the plane, lifted to
    the paraboloid z = x^2 + y^2 and shuffled.  Four cocircular grid
    points lift to four coplanar points, so exact ties abound, yet every
    point is a vertex: the hull has exactly 2n - 4 triangles whatever
    the insertion order, which keeps the work per input steady."""
    side = max(3, round(n ** 0.5))
    xy = np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), axis=-1)
    xy = xy.reshape(-1, 2).astype(np.float64)
    pts = np.column_stack([xy, (xy * xy).sum(axis=1)])
    rng.shuffle(pts)
    return pts


def _check_vertices(result, pts: np.ndarray, ref) -> str | None:
    ours, qhull = result.vertex_indices(), set(ref.vertices.tolist())
    if ours != qhull:
        return (f"vertex set differs from Qhull: {len(ours - qhull)} extra, "
                f"{len(qhull - ours)} missing")
    return None


def _check_triangles(result, pts: np.ndarray, ref) -> str | None:
    theirs = set(map(frozenset, ref.simplices.tolist()))
    if result.triangles != theirs:
        return (f"triangles differ from scipy Delaunay: "
                f"{len(result.triangles - theirs)} extra, "
                f"{len(theirs - result.triangles)} missing")
    return None


def _check_certificate(result, pts: np.ndarray, ref) -> str | None:
    if result.certificate is None:
        return "no certificate attached"
    # Raises CertificateError, which the worker records as a failure.
    importlib.import_module("repro.hull.certify").verify_certificate(
        result.certificate, pts)
    return _check_vertices(result, pts, ref)


@dataclass(frozen=True)
class Workload:
    name: str
    entry: tuple[str, str]          # (module, attribute), looked up per call
    generator: Callable
    size: int                       # number of points
    d: int
    reference: Callable             # scipy constructor, the Qhull reference
    check: Callable                 # (result, pts, ref) -> failure reason or None

    def make_input(self, seed: int, index: int = 0, scale: float = 1.0):
        """Points and insertion order number ``index`` of ``seed``, at
        ``scale`` of the full size."""
        rng = np.random.default_rng([seed, index])
        pts = self.generator(rng, max(self.d + 2, round(self.size * scale)), self.d)
        return pts, rng.permutation(pts.shape[0])

    def entry_point(self):
        module, attr = self.entry
        return getattr(importlib.import_module(module), attr)


# Why each workload is here, and what it stresses: BENCHMARK.json and
# bench/README.md.  Sizes keep a call near 0.3 s or below: the worker
# divides each call's time by a calibration timed around it, which
# cancels the host's drift only while the two are close in time.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "hull3d-ball",
            ("repro.hull.soa", "soa_hull"), uniform_ball, 25_000, 3,
            ConvexHull, _check_vertices,
        ),
        Workload(
            "hull3d-sphere",
            ("repro.hull.soa", "soa_hull"), on_sphere, 5_000, 3,
            ConvexHull, _check_vertices,
        ),
        Workload(
            "hull2d-ball",
            ("repro.hull.soa", "soa_hull"), uniform_ball, 20_000, 2,
            ConvexHull, _check_vertices,
        ),
        Workload(
            "delaunay2d",
            ("repro.apps", "delaunay"), uniform_cube, 400, 2,
            Delaunay, _check_triangles,
        ),
        Workload(
            "certify3d-grid",
            ("repro.hull.robust", "robust_hull"), lifted_grid, 100, 3,
            ConvexHull, _check_certificate,
        ),
    )
}


def hull_run(result):
    """The hull run inside a workload's result object."""
    for attr in ("run", "hull_run"):
        inner = getattr(result, attr, None)
        if inner is not None:
            return inner
    return result


def counts(result) -> dict[str, float]:
    """Per-layer counts read from a result's public state.

    A count whose layer the call never entered reads 0: the ``soa.*``
    counts apply only to runs of the conflict-list engine, the
    ``kernels.*`` counts only to batched sweeps.
    """
    run = hull_run(result)
    d = run.dimension
    kstats = run.exec_stats.kernel_stats
    soa = kstats.get("engine") == "soa"
    signs = kstats.get("batched_signs", 0)
    fallbacks = kstats.get("fallbacks", 0)
    tests = run.counters.visibility_tests
    pool = getattr(run, "conflict_pool", None)
    if pool is not None:
        pool_entries = int(pool.shape[0])
    elif soa:
        pool_entries = sum(int(f.conflicts.size) for f in run.created)
    else:
        pool_entries = 0
    return {
        "kernels.signs": signs,
        # Per sign the sweep reads a rank and an owner (int64 each), a
        # point row (d floats) and a packed plane row (d+3 floats), and
        # writes a margin (float64) and a mask byte.
        "kernels.visible_flat.bytes_computed": signs * (8 * (2 * d + 6) + 1),
        "kernels.fallbacks": fallbacks,
        "kernels.float_certain_frac": (signs - fallbacks) / signs if signs else 0.0,
        "soa.rounds": run.exec_stats.rounds if soa else 0,
        "soa.frontier_max": run.exec_stats.max_round_width if soa else 0,
        "soa.pool_entries": pool_entries,
        "soa.pool_mb": pool_entries * POOL_ENTRY_BYTES / 2**20,
        "soa.survivor_frac": pool_entries / tests if soa and tests else 0.0,
        "robust.rungs": len(getattr(result, "escalations", ())),
        "hull.visibility_tests": tests,
        "workspan.span": run.tracker.span,
        "hull.facets_created": run.counters.facets_created,
        "hull.facets_final": len(run.facets),
    }
