"""End-to-end hull benchmark with checked outputs and a layer trace.

    PYTHONPATH=src python bench/run.py [--seed S] [--out result.json] [--spans spans.jsonl]
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Without ``--workload`` every workload runs untraced, then traced.  With
it, one workload runs in the mode ``--trace`` selects.  Each
(workload, mode) starts ``CHILDREN`` worker processes one after the
other (``worker.py``); each sets up, then makes timed calls for its
share of ``--seconds`` of wall time and checks every output.  A single client drives
each workload as a closed loop: one call, then the next.

Every metric prints by name with its unit.  Times in seconds are
calibrated seconds (see ``CAL_HOST_S``); the raw ones print too.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced.  The exit code
is 0 only if every call succeeded and passed its check.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILDREN = 3            # processes per (workload, mode); setup_s is their median
SMOKE_SCALE = 0.05      # input size under --smoke, as a share of the full size
RUN_DEADLINE_S = 170    # one (workload, mode) must finish within this

# Every reported time is in calibrated seconds: the measured wall time
# x CAL_HOST_S / the time of ``worker.Calibration`` measured right
# around it.  On a shared host both slow together, so the quotient
# stays put while raw seconds drift by up to 2x.  CAL_HOST_S is roughly
# the calibration's time on an unloaded 2-vCPU host, so the numbers
# read as seconds there.
CAL_HOST_S = 0.025


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def host_s(seconds: float, cal_s: float) -> float:
    """``seconds`` measured beside a calibration time of ``cal_s``, in
    calibrated seconds."""
    return seconds * CAL_HOST_S / cal_s


def spawn(args: dict, timeout: float) -> dict:
    """Run one worker to completion and return its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(args)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and sample count; plus the highest percentile
    with at least ten samples beyond it, where there is one."""
    v = sorted(values)
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    out = {"n": len(v), "q1": q1, "median": med, "q3": q3}
    for p in (99, 90):
        if len(v) * (100 - p) >= 1000:
            out[f"p{p}"] = statistics.quantiles(v, n=100)[p - 1]
            break
    return out


def layer_values(records: list[dict], unit: dict[str, str]) -> dict[str, float]:
    """Median of each per-layer metric in ``unit`` over the records that
    carry it, under ``layers`` (per call) or ``counts`` (first call of a
    phase), with times in calibrated seconds; 0 where none does: the
    workload never entered that layer."""
    out = {}
    for name, u in unit.items():
        values = [host_s(r[kind][name], r["cal_s"]) if u == "s" else r[kind][name]
                  for kind in ("layers", "counts") for r in records
                  if name in r.get(kind, ())]
        out[name] = statistics.median(values) if values else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, spans_path: str | None = None,
                 spawn=spawn) -> dict:
    """Run one workload in one mode and summarize its children."""
    children = 1 if smoke else CHILDREN
    start = time.monotonic()
    results, crashed = [], []
    for child in range(children):
        args = {"workload": name, "seed": seed, "seconds": seconds / children,
                "scale": SMOKE_SCALE if smoke else 1.0, "first": child,
                "stride": children, "trace": trace, "spans": spans_path}
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - start))
        try:
            results.append(spawn(args, timeout))
        except (ChildFailed, json.JSONDecodeError, IndexError) as exc:
            crashed.append(str(exc))
    calls = [c for r in results for c in r["calls"]]
    traced = [c for r in results for c in r.get("traced_calls", ())]
    attempted = len(calls) + len(traced) + len(crashed)
    failures = [c["failed"] for c in calls + traced if c["failed"]] + crashed
    out = {
        "workload": name, "traced": trace, "children": len(results),
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:5],
    }
    if not calls:
        return out
    wall = quartiles([host_s(c["wall_s"], c["cal_s"]) for c in calls])
    setup = quartiles([host_s(r["setup_s"], r["setup_cal_s"]) for r in results])
    raw_wall = quartiles([c["wall_s"] for c in calls])
    qhull = statistics.median(c["qhull_s"] for c in calls)
    out["timings"] = {"wall_s": wall, "setup_s": setup}
    out["metrics"] = {
        "wall_s": wall["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    out["raw"] = {
        "wall_s": raw_wall,
        "setup_s": quartiles([r["setup_s"] for r in results]),
        "cal_s": statistics.median(c["cal_s"] for c in calls),
    }
    out["reference"] = {"qhull_s": qhull, "ratio": raw_wall["median"] / qhull}
    if trace:
        unit = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        layers = layer_values(calls + traced, unit)
        overhead = (statistics.median(host_s(c["wall_s"], c["cal_s"]) for c in traced)
                    / wall["median"] - 1)
        layers["bench.trace_overhead"] = overhead
        out["layers"] = layers
        out["trace_missing"] = sorted({m for r in results for m in r["trace_missing"]})
        out["trace_closure_err"] = max(c["closure_err"] for c in traced)
    return out


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default: cpu_count)"),
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(summary: dict, spec: dict) -> None:
    mode = "traced" if summary["traced"] else "untraced"
    print(f"== {summary['workload']} ({mode}): {summary['attempted']} calls in "
          f"{summary['children']} children, {summary['failed']} failed")
    for reason in summary["failures"]:
        print(f"   FAILED: {reason}")
    unit = units(spec)
    if "metrics" not in summary:
        return

    def line(name, value, u, quartiles=None):
        extra = "" if quartiles is None else "  " + " ".join(
            f"{k}={v:.6g}" for k, v in quartiles.items() if k != "median")
        print(f"   {name:<40} {value:12.6g} {u}{extra}")

    for name, value in summary["metrics"].items():
        line(name, value, unit[name], summary["timings"].get(name))
    line("failed_frac", summary["failed_frac"], "fraction")
    raw = summary["raw"]
    for name in ("wall_s", "setup_s"):
        line(f"raw.{name}", raw[name]["median"], "s", raw[name])
    line("raw.cal_s", raw["cal_s"], "s  (the calibration)")
    ref = summary["reference"]
    line("reference.qhull_s", ref["qhull_s"],
         f"s  (raw.wall_s / qhull_s = {ref['ratio']:.1f})")
    if summary["traced"]:
        for name, value in summary["layers"].items():
            print(f"   {name:<40} {value:12.6g} {unit[name]}")
        print(f"   trace_missing: {summary['trace_missing'] or 'none'}; "
              f"largest per-call gap between summed self times and traced wall: "
              f"{summary['trace_closure_err']:.2e}")


def result_line(summaries: list[dict], spec: dict, prefix: bool) -> dict:
    """The closing JSON object over one or more (workload, mode) runs."""
    unit = units(spec)
    metrics = {}
    for s in summaries:
        values = s.get("layers") if s["traced"] else s.get("metrics")
        for name, value in (values or {}).items():
            key = f"{s['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit[name]}
    failed = sum(s["failed"] for s in summaries)
    return {"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
            "failed": failed, "metrics": metrics}


def main(argv=None, spawn=spawn) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, untraced then traced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time per (workload, mode), split over its "
                         "workers; set-up is not counted")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="1 = traced run reporting per-layer metrics "
                         "(default: 0 with --workload, both without)")
    ap.add_argument("--smoke", action="store_true",
                    help="inputs at 5%% size and one child per run, for tests")
    ap.add_argument("--out", help="write the full results as JSON")
    ap.add_argument("--spans", help="append every recorded span to this JSONL file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile first, so the first worker's setup_s in a fresh
    # checkout times an import, not a compilation.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)

    env = environment()
    print("# env: " + json.dumps(env))
    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        modes = [False, True] if args.trace is None else [bool(args.trace)]
        plan = [(w, m) for m in modes for w in names]
    summaries = []
    for workload, traced in plan:
        s = run_workload(workload, args.seed, args.seconds, traced, smoke=args.smoke,
                         spans_path=args.spans and os.path.abspath(args.spans),
                         spawn=spawn)
        report(s, spec)
        summaries.append(s)
    env["loadavg_end"] = list(os.getloadavg())
    if args.out:
        doc = {"env": env, "seed": args.seed, "seconds": args.seconds,
               "smoke": args.smoke, "workloads": {}}
        for s in summaries:
            doc["workloads"].setdefault(s["workload"], {})[
                "traced" if s["traced"] else "untraced"] = s
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    line = result_line(summaries, spec, prefix=len(plan) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the running worker is
    # killed and waited for before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
