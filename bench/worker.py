"""One benchmark child: set up, make timed calls, check every output.

``run.py`` starts it as ``python bench/worker.py '<json>'`` with
``<json>`` holding ``workload``, ``seed``, ``seconds`` (this child's
share of the measuring time), ``scale``, ``first`` and ``stride`` (the
input indices it uses), ``trace`` and ``spans`` (a JSONL path or
null).  It prints one JSON object on its last line.

1. ``setup_s``: the import of the workload's entry module plus one
   warm-up call on a 1/100-size input from the same generator.  NumPy
   and SciPy are already loaded by the bench, so this is what ``repro``
   itself adds.  The :class:`Calibration` is timed right before and
   after it, as ``setup_cal_s``.
2. Timed calls for ``seconds`` of wall time, calibrations, references
   and checks included, and at least one call, so a run's length does
   not depend on the host's speed.  Call k uses input
   ``first + k * stride`` of the seed, so a run's median covers many
   inputs: a randomized incremental hull's work varies by ~10-15% from
   one insertion order to the next.
   ``gc.collect()`` runs before each call and gc stays enabled during
   it, because users pay the program's own collections.  The
   :class:`Calibration` is timed right before and right after each
   block of calls (see :func:`timed_calls`); each call records the
   mean of the two as ``cal_s``.
3. After the stopwatch stops, a Qhull reference is timed on the same
   input and the output is checked.
4. With ``trace``, half the time goes to untraced calls that also read
   gc pauses and CPU use, and half to traced calls over the same
   inputs (see ``spans.py``).  Counts, which must repeat exactly, come
   from each phase's first call only, whose input is fixed.
5. ``ru_maxrss`` is read at exit: the peak over all of the worker's
   inputs.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import resource
import sys
import time

import numpy as np

import spans
import workloads

# Shortest call time between two timings of the calibration.  The
# host's speed drifts on sub-second scales, so a longer gap lets the
# calls and the calibration drift apart.
CAL_EVERY_S = 0.2


class Calibration:
    """A fixed computation that is not ``repro``'s, timed beside the
    calls to gauge the host's current speed.

    On a shared host every process can slow by up to 2x for seconds or
    minutes at a time, and process CPU time slows with it.  A call's
    wall time divided by this computation's, timed right before and
    after it, cancels most of that drift; ``run.py`` reports times
    scaled that way (see ``run.CAL_HOST_S``).  Its four parts mirror
    what the workloads spend their time on: a Python arithmetic loop,
    Python object churn (tuples, dicts, lists, a keyed sort), NumPy
    sorting and einsum on an array that fits in L2, and a NumPy gather
    from one that does not.

    Whatever a call leaves behind must not change the calibration's
    time, or a change to the program would move it.  So gc is off while
    it runs, and its arrays are read once, untimed, before each run:
    they are then in cache however much memory the call went through.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.random((20_000, 3))
        self._big = rng.random((300_000, 3))
        self._gather = rng.integers(0, 300_000, 100_000)
        self()      # the first run pays NumPy's one-time costs

    def __call__(self) -> float:
        """Run the computation once; its wall time in seconds."""
        for array in (self._small, self._big, self._gather):
            array.sum()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            s = 0
            for i in range(80_000):
                s += i * i % 7
            counts, rows = {}, []
            for i in range(8_000):
                key = (i % 97, i % 89, i % 13)
                counts[key] = counts.get(key, 0) + 1
                rows.append([key, float(i), {"k": i}])
            rows.sort(key=lambda row: row[0])
            a = self._small
            for _ in range(4):
                a = a[np.argsort(a[:, 0], kind="stable")] * 0.999 + 0.0005
                a = a + np.einsum("ij,ij->i", a, a)[:, None] * 1e-9
            b = self._big
            np.einsum("ij,ij->i", b[self._gather], b[:self._gather.size]).sum()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class GcClock:
    """Pause time and collections of the program's own gc runs."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1


def _check(wl, result, pts, ref) -> str | None:
    try:
        return wl.check(result, pts, ref)
    except Exception as exc:  # a failed check, whatever its form
        return f"check raised {type(exc).__name__}: {exc}"


def timed_calls(wl, args: dict, budget_s: float, invoke, calibration: Calibration,
                stats=None, clock=None) -> list[dict]:
    """Call ``invoke(entry, pts, order=order)`` on successive inputs
    for ``budget_s`` seconds of wall time, calibrations, references and
    checks included, and at least once.

    Calls are timed in blocks of at least ``CAL_EVERY_S`` of call time,
    or one call where a call takes longer.  ``calibration`` is timed
    right before a block's first call and right after its last, before
    any check, and each record of the block carries the mean as
    ``cal_s``.
    With ``stats`` (the predicate counters) and ``clock`` (a registered
    :class:`GcClock`) each record also carries gc pauses and CPU use,
    and the first one the call's counts."""
    records: list[dict] = []
    deadline = time.perf_counter() + budget_s
    block: list[dict] = []

    def close_block():
        cal_s = (cal_before + calibration()) / 2
        for r in block:
            r["cal_s"] = cal_s
        block.clear()

    for index in itertools.count(args["first"], args["stride"]):
        if records and time.perf_counter() >= deadline:
            break
        pts, order = wl.make_input(args["seed"], index, args["scale"])
        fn = wl.entry_point()
        result = None
        if not block:
            cal_before = calibration()
        gc.collect()
        if stats is not None:
            before = stats.snapshot()
            clock.pause_s, clock.collections = 0.0, 0
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = invoke(fn, pts, order=order)
            reason = None
        except Exception as exc:  # counted as a failed call
            reason = f"call raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        wall = end - t0
        cpu = time.process_time() - cpu0
        if stats is not None:
            after = stats.snapshot()
        record = {"input": index, "wall_s": wall}
        block.append(record)
        if sum(r["wall_s"] for r in block) >= CAL_EVERY_S or end >= deadline:
            close_block()
        t0 = time.perf_counter()
        ref = wl.reference(pts)
        record["qhull_s"] = time.perf_counter() - t0
        if reason is None:
            reason = _check(wl, result, pts, ref)
            if stats is not None:
                record["layers"] = {"py.gc_pause_s": clock.pause_s,
                                    "py.gc_collections": clock.collections,
                                    "runtime.cpu_util": cpu / wall}
                if not records:
                    counts = workloads.counts(result)
                    for key in ("exact_calls", "sos_calls"):
                        counts[f"predicates.{key}"] = after[key] - before[key]
                    record["counts"] = counts
        record["failed"] = reason
        records.append(record)
        del result
    if block:   # the deadline passed during a check
        close_block()
    return records


def _plain(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def measure(args: dict) -> dict:
    wl = workloads.WORKLOADS[args["workload"]]
    calibration = Calibration()

    cal_before = calibration()
    t0 = time.perf_counter()
    importlib.import_module(wl.entry[0])
    import_s = time.perf_counter() - t0
    warm_pts, warm_order = wl.make_input(args["seed"], args["first"], args["scale"] / 100)
    t0 = time.perf_counter()
    wl.entry_point()(warm_pts, order=warm_order)
    warmup_s = time.perf_counter() - t0
    setup_cal_s = (cal_before + calibration()) / 2

    out = {"setup_s": import_s + warmup_s, "import_s": import_s, "warmup_s": warmup_s,
           "setup_cal_s": setup_cal_s}
    if not args["trace"]:
        out["calls"] = timed_calls(wl, args, args["seconds"], _plain, calibration)
    else:
        clock = GcClock()
        gc.callbacks.append(clock)
        stats = importlib.import_module("repro.geometry.predicates").STATS
        try:
            out["calls"] = timed_calls(wl, args, args["seconds"] / 2, _plain, calibration,
                                       stats, clock)
        finally:
            gc.callbacks.remove(clock)
        rec = spans.Recorder()
        installed, out["trace_missing"] = rec.install()
        try:
            traced = timed_calls(wl, args, args["seconds"] / 2, rec.call, calibration)
        finally:
            spans.uninstall(installed)
        summary = spans.summarize(rec.spans)
        for record, trace_id in zip(traced, sorted(summary)):
            t = summary[trace_id]
            layers = {f"{name}.self_s": v for name, v in t["self_s"].items()}
            layers["bench.unattributed_s"] = layers.pop(f"{spans.ROOT}.self_s")
            record["layers"] = layers
            record["closure_err"] = t["closure_err"]
        traced[0]["counts"] = {f"{name}.calls": k
                               for name, k in summary[min(summary)]["calls"].items()}
        out["traced_calls"] = traced
        if args["spans"]:
            with open(args["spans"], "a") as fh:
                for s in rec.spans:
                    fh.write(json.dumps({"workload": wl.name, "child": args["first"],
                                         **s._asdict()}) + "\n")
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
