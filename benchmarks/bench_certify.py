"""E18: what a certified hull costs, stage by stage -- standalone runner.

A plain script, like ``bench_kernels.py`` (the ``degenerate-smoke`` CI
job drives its ``--smoke`` mode).  For each input it times, best of
3 back-to-back runs (1 in ``--smoke``):

* ``hull_s``: the ``parallel_hull`` call a ``robust_hull`` rung makes
  (the SoA engine), with its alive facets materialized;
* ``validate_s``: an uncertified rung's check (``validate_hull``,
  containment included); a certified rung runs its structural checks
  only, then ``make_certificate`` and ``verify_certificate``
  (``make_s``, ``verify_s``), and the verifier proves containment;
* ``robust_s``: one whole (certified) ``robust_hull`` call, and
  ``soa_s``: a plain ``soa_hull`` of the same points, with their ratio.

Inputs: a d=3 ball at n in {5e3, 2e4, 5e4} and the 10x10 and 30x30
integer grids lifted to the paraboloid (cocircular grid points lift to
coplanar quadruples: exact ties throughout).  It also records the peak
traced memory (``tracemalloc``) of the verifier and of
``check_containment`` at n=2e4, and the exact rung, where every plane
is always-exact and every (facet, point) pair takes the exact stage:
``soa_hull`` under ``exact_mode()`` on a d=3 ball at n=3000 (time, exact
fallbacks, peak traced memory) and an uncertified ``validate_hull`` of
a 600-point ball's hull built under it (time, exact calls).  It checks
Stage A's gates (ROADMAP item 4), verifies every certificate and
requires every corruption mode to be rejected.  The report carries its
environment: timings from different machines are not one trajectory.

    PYTHONPATH=src python benchmarks/bench_certify.py            # full
    PYTHONPATH=src python benchmarks/bench_certify.py --smoke    # CI

The exit code is 1 if a certificate fails or a corruption is accepted,
and, on a full run, if a gate fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.configspace.spaces.delaunay2d import lift_to_paraboloid  # noqa: E402
from repro.geometry import integer_grid, uniform_ball  # noqa: E402
from repro.geometry.hyperplane import exact_mode  # noqa: E402
from repro.geometry.predicates import STATS  # noqa: E402
from repro.hull import parallel_hull, robust_hull, soa_hull  # noqa: E402
from repro.hull.certify import (  # noqa: E402
    CORRUPTION_MODES,
    CertificateError,
    corrupt_certificate,
    make_certificate,
    verify_certificate,
)
from repro.hull.validate import check_containment, validate_hull  # noqa: E402

#: ``verify_certificate`` at n=5e4, d=3 on a ball when ROADMAP item 4
#: was measured (2-vCPU box, single run): Stage A's 20x gate is
#: against it.
VERIFY_5E4_REANCHOR_S = 32.22
GATE_VERIFY_SPEEDUP = 20.0
GATE_ROBUST_OVER_SOA = 10.0
GATE_PEAK_MB = 64.0


def _inputs(smoke: bool) -> list[tuple[str, np.ndarray]]:
    balls = (500, 2000) if smoke else (5_000, 20_000, 50_000)
    sides = (6, 10) if smoke else (10, 30)
    out = [(f"ball-{n}", uniform_ball(n, 3, seed=0)) for n in balls]
    out += [(f"lifted-grid-{s}x{s}", lift_to_paraboloid(integer_grid(s, 2, seed=0)))
            for s in sides]
    return out


def _best(fn, repeats: int, setup=lambda: ()) -> tuple[float, object]:
    """Best wall time of ``fn(*setup())`` over ``repeats`` calls, each
    on a fresh, untimed ``setup()`` (so a stage that caches on its
    inputs, as a plane caches its visible sign, pays every time)."""
    best, out = float("inf"), None
    for _ in range(repeats):
        args = setup()
        gc.collect()
        t = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t)
    return best, out


def _peak_mb(fn) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _verifies(cert, pts: np.ndarray) -> bool:
    try:
        verify_certificate(cert, pts)
    except CertificateError:
        return False
    return True


def _row(name: str, pts: np.ndarray, repeats: int) -> dict:
    def hull():
        run = parallel_hull(pts, seed=1)
        run.facets
        return run

    def fresh():
        return (hull(),)

    hull_s, run = _best(hull, repeats)
    validate_s, _ = _best(lambda r: validate_hull(r.facets, r.points), repeats, fresh)
    make_s, cert = _best(lambda r: make_certificate(r, "float"), repeats, fresh)
    verify_s, _ = _best(lambda: _verifies(cert, pts), repeats)
    robust_s, res = _best(lambda: robust_hull(pts, seed=1), repeats)
    soa_s, _ = _best(lambda: soa_hull(pts, seed=1), repeats)
    rejected = [
        not _verifies(corrupt_certificate(res.certificate, mode, seed=seed), pts)
        for mode in CORRUPTION_MODES for seed in (0, 1)
    ]
    return {
        "input": name, "n": int(pts.shape[0]), "d": int(pts.shape[1]),
        "facets": len(run.facets), "mode": res.mode,
        "hull_s": hull_s, "validate_s": validate_s,
        "make_s": make_s, "verify_s": verify_s, "robust_s": robust_s,
        "soa_s": soa_s, "robust_over_soa": robust_s / soa_s,
        "certificate_verified": _verifies(cert, pts) and _verifies(res.certificate, pts),
        "corruptions_rejected": all(rejected),
    }


def _exact_rung(smoke: bool, repeats: int) -> dict:
    """The exact rung: ``soa_hull`` under ``exact_mode()`` on a d=3
    ball, and an uncertified ``validate_hull`` of a smaller ball's hull
    built under it, where every pair but a facet's own vertices takes
    the exact stage."""
    n_hull, n_val = (300, 150) if smoke else (3000, 600)
    pts = uniform_ball(n_hull, 3, seed=0)
    with exact_mode():
        hull_s, run = _best(lambda: soa_hull(pts, seed=1), repeats)
        peak = _peak_mb(lambda: soa_hull(pts, seed=1))
        val = parallel_hull(uniform_ball(n_val, 3, seed=0), seed=1)
        facets = val.facets
    before = STATS.exact_calls
    validate_s, _ = _best(lambda: validate_hull(facets, val.points), repeats)
    return {
        "soa_hull_exact": {
            "n": n_hull, "d": 3, "s": hull_s, "peak_mb": peak,
            "fallbacks": run.exec_stats.kernel_stats["fallbacks"],
        },
        "validate_hull_exact": {
            "n": n_val, "d": 3, "facets": len(facets), "s": validate_s,
            "exact_calls": (STATS.exact_calls - before) // repeats,
        },
    }


def run_certify_bench(smoke: bool = False) -> dict:
    repeats = 1 if smoke else 3
    rows = []
    for name, pts in _inputs(smoke):
        rows.append(_row(name, pts, repeats))
        r = rows[-1]
        print(f"{name:18s} F={r['facets']:5d} hull {r['hull_s']:.3f}s "
              f"validate {r['validate_s']:.3f}s make {r['make_s']:.3f}s "
              f"verify {r['verify_s']:.3f}s robust {r['robust_s']:.3f}s "
              f"soa {r['soa_s']:.3f}s ({r['robust_over_soa']:.1f}x)", flush=True)

    n_mem = 2000 if smoke else 20_000
    pts = uniform_ball(n_mem, 3, seed=0)
    run = soa_hull(pts, seed=1)
    facets = run.facets
    cert = make_certificate(run, "float")
    memory = {
        "n": n_mem,
        "verify_peak_mb": _peak_mb(lambda: verify_certificate(cert, pts)),
        "check_containment_peak_mb": _peak_mb(lambda: check_containment(facets, run.points)),
    }

    exact_rung = _exact_rung(smoke, repeats)
    print(f"exact rung: soa_hull n={exact_rung['soa_hull_exact']['n']} "
          f"{exact_rung['soa_hull_exact']['s']:.3f}s, validate_hull "
          f"n={exact_rung['validate_hull_exact']['n']} "
          f"{exact_rung['validate_hull_exact']['s']:.3f}s", flush=True)

    by_name = {r["input"]: r for r in rows}
    gates = {"verify_5e4_reanchor_s": VERIFY_5E4_REANCHOR_S}
    if not smoke:
        verify = by_name["ball-50000"]["verify_s"]
        gates.update({
            "verify_5e4_s": verify,
            "verify_speedup_5e4": VERIFY_5E4_REANCHOR_S / verify,
            "verify_speedup_ok": VERIFY_5E4_REANCHOR_S / verify >= GATE_VERIFY_SPEEDUP,
            "robust_over_soa_2e4": by_name["ball-20000"]["robust_over_soa"],
            "robust_over_soa_ok":
                by_name["ball-20000"]["robust_over_soa"] <= GATE_ROBUST_OVER_SOA,
        })
    gates["peak_mb_ok"] = max(memory["verify_peak_mb"],
                              memory["check_containment_peak_mb"]) < GATE_PEAK_MB
    return {
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "smoke": smoke,
        "repeats": repeats,
        "rows": rows,
        "memory": memory,
        "exact_rung": exact_rung,
        "gates": gates,
        "summary": {
            "all_certificates_verified": all(r["certificate_verified"] for r in rows),
            "all_corruptions_rejected": all(r["corruptions_rejected"] for r in rows),
            "all_gates_ok": all(v for k, v in gates.items() if k.endswith("_ok")),
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one repeat: checks certificates and "
                         "corruptions, records the gates without enforcing them")
    ap.add_argument("--out", default="BENCH_certify.json", metavar="PATH")
    args = ap.parse_args(argv)

    report = run_certify_bench(smoke=args.smoke)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    s, g, m = report["summary"], report["gates"], report["memory"]
    print(f"wrote {args.out}")
    print(f"peak traced MB at n={m['n']}: verifier {m['verify_peak_mb']:.1f}, "
          f"check_containment {m['check_containment_peak_mb']:.1f}")
    if not args.smoke:
        print(f"verify_certificate at n=5e4: {g['verify_5e4_s']:.3f}s, "
              f"{g['verify_speedup_5e4']:.0f}x the {VERIFY_5E4_REANCHOR_S}s re-anchor")
        print(f"robust_hull / soa_hull at n=2e4: {g['robust_over_soa_2e4']:.1f}x")
    print(f"certificates verified: {s['all_certificates_verified']}; "
          f"corruptions rejected: {s['all_corruptions_rejected']}; "
          f"gates: {'PASS' if s['all_gates_ok'] else 'FAIL'}")
    if not (s["all_certificates_verified"] and s["all_corruptions_rejected"]):
        return 1
    if not args.smoke and not s["all_gates_ok"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
