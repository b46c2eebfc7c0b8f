"""repro -- a reproduction of *Randomized Incremental Convex Hull is
Highly Parallel* (Blelloch, Gu, Shun, Sun; SPAA 2020).

Public API highlights
---------------------

* :func:`repro.hull.sequential_hull` -- Algorithm 2, the classic
  conflict-graph randomized incremental hull in any constant dimension.
* :func:`repro.hull.parallel_hull` -- Algorithm 3, the paper's parallel
  ridge-driven variant, run by default on the round-vectorized
  conflict-list SoA engine; its object driver takes pluggable executors
  (round-synchronous / serial / real threads) and the concurrent
  multimap of Algorithms 4/5.
* :mod:`repro.configspace` -- the configuration-space framework of
  Sections 3-4: support sets, k-support checking, and the configuration
  dependence graph with its depth analysis.
* :mod:`repro.apps` -- derived solvers: 2D Delaunay by lifting,
  half-plane intersection, unit-disk intersection.
* :mod:`repro.baselines` -- non-incremental hull baselines for the
  benchmark comparisons.
"""

from . import analysis, apps, baselines, configspace, geometry, hull, runtime, viz

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "baselines",
    "configspace",
    "geometry",
    "hull",
    "runtime",
    "viz",
    "__version__",
]
