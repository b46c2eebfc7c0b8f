"""E19: the flat visibility sweep vs the scalar oracle -- standalone
runner.

Unlike the pytest-benchmark modules in this directory, this is a plain
script (the ``kernels-smoke`` CI job and ``repro bench-kernels`` both
drive it): it runs :func:`repro.analysis.kernelbench.run_kernel_bench`
and writes ``BENCH_kernels.json``, the artefact EXPERIMENTS.md's E19
table quotes.

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.analysis.kernelbench import run_kernel_bench  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes / few repeats: checks the harness, "
                         "not the speedup criterion")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="BENCH_kernels.json", metavar="PATH")
    args = ap.parse_args(argv)

    report = run_kernel_bench(seed=args.seed, smoke=args.smoke)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    s = report["summary"]
    print(f"wrote {args.out}")
    print(f"median speedup vs scalar: {s['median_speedup_vs_scalar']:.1f}x")
    if s["median_speedup_large_n"] is not None:
        print(f"median speedup (n >= 1e4): {s['median_speedup_large_n']:.1f}x "
              f"(criterion >= 3x: {'PASS' if s['criterion_3x_at_1e4'] else 'FAIL'})")
    print(f"max filter-fallback rate: {s['max_fallback_rate']:.4f}")
    print(f"hull facet sets identical: {s['all_hulls_identical']}")
    for key, ratio in s["soa_speedup_by_n"].items():
        print(f"end-to-end soa/scalar at {key}: {ratio:.2f}x")
    if not report["smoke"]:
        print("soa >= 5x at n=1e5: "
              f"{'PASS' if s['criterion_soa_5x_at_1e5'] else 'FAIL'}")
    if not s["all_hulls_identical"]:
        return 1
    if not s["all_containment_checks_passed"]:
        return 1
    if not report["smoke"] and not s["criterion_3x_at_1e4"]:
        return 1
    if not report["smoke"] and not s["criterion_soa_5x_at_1e5"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
