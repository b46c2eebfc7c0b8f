"""Verdicts for a change against its parent, from alternating bench runs.

    python bench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is a ``run.py --out`` result.  For each workload the k-th
parent file and the k-th change file holding it form a pair; make them
by running the two commits alternately, switching which goes first.

For every (workload, end-to-end metric of BENCHMARK.json) the row gives
each side's median and quartiles, the pairs the change won (ties count
for neither) and a verdict:

* ``regressed``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of
  them, and the medians differ by more than the distance between the
  parent's quartiles;
* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, and not every change run beats every parent
  run;
* ``unchanged``: otherwise.

Under each workload's rows come the per-layer differences of the
medians (change - parent) from traced runs, largest first, so a saving
can be placed in a layer.  The exit code is 1 if any row regressed or
the change failed more calls than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    return _iqr(values) / abs(statistics.median(values))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one metric; ``parent[k]`` and ``change[k]`` are pair k."""
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * v for v in parent]      # from here on, lower is better
    c = [sign * v for v in change]
    pm, cm = statistics.median(p), statistics.median(c)
    if (cm - pm) / abs(pm) > bound:
        return "regressed"
    wins = sum(ci < pi for pi, ci in zip(p, c))
    pairs = min(len(p), len(c))
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and pm - cm > _iqr(p):
        return "improved"
    if max(c) >= min(p) and max(spread(p), spread(c)) > bound:
        return "unresolved"
    return "unchanged"


def _runs(docs: list[dict], workload: str, mode: str) -> list[dict]:
    return [d["workloads"][workload][mode] for d in docs
            if mode in d["workloads"].get(workload, {})]


def _failed(docs: list[dict]) -> int:
    return sum(s["failed"] for d in docs for w in d["workloads"].values()
               for s in w.values())


def _fmt(values: list[float]) -> str:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_docs: list[dict], change_docs: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether any row regressed."""
    lines, regressed = [], False
    unit = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        p_runs, c_runs = _runs(parent_docs, w, "untraced"), _runs(change_docs, w, "untraced")
        pairs = min(len(p_runs), len(c_runs))
        if pairs:
            lines.append(f"== {w}: {pairs} pairs")
        for m in spec["end_to_end"] if pairs else ():
            p = [r["metrics"][m["name"]] for r in p_runs[:pairs]]
            c = [r["metrics"][m["name"]] for r in c_runs[:pairs]]
            v = verdict(p, c, m["better"], m["bound"])
            regressed |= v == "regressed"
            wins = sum((ci < pi) if m["better"] == "lower" else (ci > pi)
                       for pi, ci in zip(p, c))
            lines.append(
                f"   {m['name']:<12} parent {_fmt(p)} {m['unit']}  change {_fmt(c)} "
                f"{m['unit']}  wins {wins}/{pairs}  bound {m['bound']:.0%}  -> {v}")
        p_tr, c_tr = _runs(parent_docs, w, "traced"), _runs(change_docs, w, "traced")
        if p_tr and c_tr:
            deltas = []
            for name in p_tr[0]["layers"]:
                pm = statistics.median(r["layers"][name] for r in p_tr)
                cm = statistics.median(r["layers"][name] for r in c_tr)
                if cm != pm:
                    deltas.append((abs(cm - pm), name, pm, cm))
            lines.append(f"   layers ({len(p_tr)} parent / {len(c_tr)} change traced runs):"
                         + ("" if deltas else " no difference"))
            for _, name, pm, cm in sorted(deltas, reverse=True):
                lines.append(f"     {name:<38} {pm:12.6g} -> {cm:12.6g} "
                             f"({cm - pm:+.6g} {unit[name]})")
    return lines, regressed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="parent-commit result files")
    ap.add_argument("--change", nargs="+", required=True, help="change result files")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    parent = [json.loads(Path(f).read_text()) for f in args.parent]
    change = [json.loads(Path(f).read_text()) for f in args.change]
    lines, regressed = compare(parent, change, spec)
    p_failed, c_failed = _failed(parent), _failed(change)
    lines.append(f"failed calls: parent {p_failed}, change {c_failed}")
    print("\n".join(lines))
    return 1 if regressed or c_failed > p_failed else 0


if __name__ == "__main__":
    sys.exit(main())
