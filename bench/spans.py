"""Outside-in tracing: spans recorded around public ``repro`` callables.

Before its first traced call a worker replaces each target in
:data:`TARGETS` with a wrapper, at the place its callers look it up
(a class attribute, or a module global of the calling module).  Each
timed call is one trace whose root span is :data:`ROOT`; each wrapped
call inside it is a child span.  Spans stay in memory, on a
per-thread parent stack, until the worker exits.

A span's self time is its duration minus the part of it that its
child spans cover, so the self times of one trace add up to the root
span's duration, and the root's own self time is the time spent
outside every wrapped callable (``bench.unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

ROOT = "bench.call"

# (where callers look the target up, attribute, span name).  A site is
# a module, or "module:Class" for a method.
TARGETS = (
    ("repro.hull.soa:SoAHullEngine", "__init__", "soa.init"),
    ("repro.hull.soa:SoAHullEngine", "step_round", "soa.step_round"),
    ("repro.hull.soa:SoAHullEngine", "finish", "soa.finish"),
    ("repro.hull.soa", "visible_flat", "kernels.visible_flat"),
    ("repro.hull.soa", "batch_planes", "kernels.batch_planes"),
    ("repro.hull.soa", "gather_segments", "kernels.gather_segments"),
    ("repro.hull.common:FacetFactory", "make_batch", "common.make_batch"),
    ("repro.hull.parallel", "parallel_hull", "parallel.parallel_hull"),
    ("repro.geometry.hyperplane:Hyperplane", "through", "hyperplane.through"),
    ("repro.hull.robust", "validate_hull", "validate.validate_hull"),
    ("repro.hull.robust", "make_certificate", "certify.make_certificate"),
    ("repro.hull.robust", "verify_certificate", "certify.verify_certificate"),
    ("repro.hull.robust", "parallel_hull", "parallel.parallel_hull"),
    ("repro.hull.robust", "robust_hull", "robust.robust_hull"),
    # The package attribute repro.apps.delaunay is the function; the
    # module of the same name is only reachable through sys.modules.
    ("repro.apps.delaunay", "parallel_hull", "parallel.parallel_hull"),
    ("repro.apps", "delaunay", "delaunay.delaunay"),
)


class Span(NamedTuple):
    trace_id: int
    span_id: int
    parent_id: int          # 0 for a root span
    name: str
    start_ns: int
    end_ns: int


def _resolve(site: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Recorder:
    """Collects spans; one trace per :meth:`call`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name: str):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(Span(self.trace_id, span_id, parent, name, start, end))

        return traced

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a new trace."""
        self.trace_id += 1
        return self.wrap(fn, ROOT)(*args, **kwargs)

    def install(self, targets=TARGETS):
        """Wrap every target that exists.  Returns ``(installed,
        missing)``: ``installed`` restores the originals through
        :func:`uninstall`, ``missing`` names the targets that could not
        be found -- their time lands in the caller's span instead."""
        installed, missing, wrappers = [], [], {}
        for site, attr, name in targets:
            try:
                owner = _resolve(site)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{site}.{attr}")
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not callable(fn):
                missing.append(f"{site}.{attr}")
                continue
            # One wrapper per function, however many sites share it.
            key = (id(fn), name)
            if key not in wrappers:
                wrappers[key] = self.wrap(fn, name)
            setattr(owner, attr, staticmethod(wrappers[key]) if static else wrappers[key])
            installed.append((owner, attr, raw))
        return installed, missing


def uninstall(installed) -> None:
    for owner, attr, raw in reversed(installed):
        setattr(owner, attr, raw)


def self_times(spans) -> dict[tuple[int, int], int]:
    """Self time in ns of every span, keyed by ``(trace_id, span_id)``:
    duration minus the union of its children's intervals, clipped to
    the span."""
    children = defaultdict(list)
    for s in spans:
        children[(s.trace_id, s.parent_id)].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for a, b in sorted(children.get((s.trace_id, s.span_id), ())):
            a, b = max(a, reach), min(b, s.end_ns)
            if b > a:
                covered += b - a
                reach = b
        out[(s.trace_id, s.span_id)] = s.end_ns - s.start_ns - covered
    return out


def summarize(spans) -> dict[int, dict]:
    """Per trace: ``wall_s`` (root duration), ``self_s`` and ``calls``
    by span name, and ``closure_err``, the relative gap between the sum
    of all self times and the root duration."""
    selfs = self_times(spans)
    out: dict[int, dict] = {}
    for s in spans:
        t = out.setdefault(s.trace_id, {"wall_s": 0.0, "self_s": defaultdict(float),
                                        "calls": defaultdict(int)})
        t["self_s"][s.name] += selfs[(s.trace_id, s.span_id)] / 1e9
        t["calls"][s.name] += 1
        if s.parent_id == 0:
            t["wall_s"] += (s.end_ns - s.start_ns) / 1e9
    for t in out.values():
        total = sum(t["self_s"].values())
        t["closure_err"] = abs(total - t["wall_s"]) / t["wall_s"] if t["wall_s"] else 0.0
        t["self_s"], t["calls"] = dict(t["self_s"]), dict(t["calls"])
    return out
