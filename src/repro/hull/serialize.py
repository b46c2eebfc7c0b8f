"""JSON-serializable summaries of hull runs.

Reproduction artefacts want to be archived: this module flattens a run
into plain JSON (counters, depth structure, per-round profile, the
support DAG) and restores the dependence-graph part for later analysis
-- without pickling live numpy/lock-bearing objects.
"""

from __future__ import annotations

import json
from typing import Any

from ..configspace.depgraph import DependenceGraph

__all__ = ["run_summary", "save_run", "load_summary", "graph_from_summary"]


def run_summary(run) -> dict[str, Any]:
    """Flatten a :class:`ParallelHullRun` into a JSON-safe dict."""
    kernel_stats = dict(
        getattr(run.exec_stats, "kernel_stats", {}) or {"kernel": "scalar"}
    )
    # Noisy-oracle provenance (flip/vote counters from a NoisyKernel
    # run) rides inside kernel_stats; surface it as its own block so
    # archived escalation paths like "noisy[p=0.05,votes=3]:ok" stay
    # interpretable without re-running anything.
    noise = {k: v for k, v in kernel_stats.items()
             if k.startswith(("noise_", "noisy_"))}
    return {
        "schema": "repro.hull.run/1",
        "n": int(run.points.shape[0]),
        "d": int(run.points.shape[1]),
        "order": [int(x) for x in run.order],
        "base_size": int(run.base_size),
        "counters": run.counters.as_dict(),
        "hull_facets": [list(map(int, f.indices)) for f in run.facets],
        "created": [
            {
                "fid": int(f.fid),
                "indices": list(map(int, f.indices)),
                "conflicts": int(f.conflicts.size),
                "alive": bool(f.alive),
            }
            for f in run.created
        ],
        "support": {str(k): [int(a), int(b)] for k, (a, b) in run.support.items()},
        "pivots": {str(k): int(v) for k, v in run.pivots.items()},
        "rounds": {str(k): int(v) for k, v in run.rounds.items()},
        "exec": {
            "rounds": int(run.exec_stats.rounds),
            "tasks": int(run.exec_stats.tasks_executed),
            "round_sizes": list(map(int, run.exec_stats.round_sizes)),
            # Fault-tolerance provenance (all zero / empty on clean
            # runs; additive, schema unchanged).
            "escalations": [str(e) for e in run.exec_stats.escalations],
            "supervision": {
                "retries": int(run.exec_stats.retries),
                "worker_deaths": int(run.exec_stats.worker_deaths),
                "checkpoints": int(run.exec_stats.checkpoints),
                "rollbacks": int(run.exec_stats.rollbacks),
            },
        },
        # Visibility-path provenance (the SoA engine's flat-sweep and
        # filter-fallback counts); {"kernel": "scalar"} by default.
        "kernel": kernel_stats,
        "noise": noise or None,
        "depth": int(run.dependence_depth()),
        "work": int(run.tracker.work),
        "span": int(run.tracker.span),
    }


def save_run(run, path) -> None:
    """Write the JSON summary of ``run`` to ``path``."""
    with open(path, "w") as fh:
        json.dump(run_summary(run), fh)


def load_summary(path) -> dict[str, Any]:
    """Load a summary written by :func:`save_run` (schema-checked)."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != "repro.hull.run/1":
        raise ValueError(f"unrecognised run summary schema: {data.get('schema')!r}")
    return data


def graph_from_summary(summary: dict[str, Any]) -> DependenceGraph:
    """Rebuild the dependence graph from a (loaded) summary, so depth
    and level analyses can run without the original objects."""
    graph = DependenceGraph()
    for entry in summary["created"]:
        fid = entry["fid"]
        graph.order.append(fid)
        sup = summary["support"].get(str(fid))
        if sup is not None:
            graph.parents[fid] = tuple(sup)
        graph.added_at[fid] = summary["rounds"].get(str(fid), 0)
    return graph
