"""E23: noisy-oracle hulls -- output error, vote overhead, validator power.

Three campaigns close the loop on the :mod:`repro.geometry.noisy` model
(Goodrich & Sridhar's noisy primitives), all JSON-shaped for
``BENCH_noisy.json`` (EXPERIMENTS.md E23, the ``noisy-smoke`` CI job,
``benchmarks/bench_noisy.py``, and ``repro noisy``):

``grid``
    *Raw* noisy runs (no ladder, no self-healing) over
    ``p x votes``: how wrong is the hull the lying oracle builds, and
    what does repetition cost?  Error is the facet-set distance against
    the exact oracle on the same insertion order (symmetric difference;
    Jaccard-normalized); overhead is mean votes per decision.  A lying
    oracle can also corrupt structural invariants outright -- those runs
    are recorded as ``crashed`` (error 1.0 by convention: nothing
    usable came out).  Each completed run's certificate verdict is
    recorded, feeding the validator-power measurement.

``ladder``
    The self-healing story: :func:`~repro.hull.robust.robust_hull` with
    ``noise=`` escalating ``votes -> 2k+1 -> adaptive -> exact``.  The
    claim measured: the *final* hull always matches the exact oracle,
    and the full escalation path is recorded.

``validator``
    Discriminating power of the independent certificate checker, the
    robustness claim this PR exists to prove: across
    ``corrupt_certificate`` modes x the degenerate corpus x seeds,
    *plus* certificates of genuinely noisy runs, the false-accept count
    (checker passes but the hull differs from the exact reference) must
    be 0 over >= 500 certificates in the full run.

The raw noisy runs and their references name ``engine="objects"``: the
committed ``BENCH_noisy.json`` records the object driver's wall times
and crash types.
"""

from __future__ import annotations

import time

import numpy as np

from ..geometry.degenerate import CORPUS
from ..geometry.noisy import ADAPTIVE, NoisyKernel
from ..geometry.perturb import sos_mode
from ..geometry.points import uniform_ball
from ..hull.certify import (
    CORRUPTION_MODES,
    CertificateError,
    corrupt_certificate,
    make_certificate,
    verify_certificate,
)
from ..hull.parallel import parallel_hull
from ..hull.robust import robust_hull

__all__ = ["run_noisy_bench", "facet_distance", "NOISY_BENCH_SCHEMA"]

NOISY_BENCH_SCHEMA = "repro.bench.noisy/1"

#: The paper-grid axes measured by the full campaign.
GRID_PS = (0.001, 0.01, 0.05, 0.1)
GRID_VOTES = (1, 3, 5, ADAPTIVE)


def facet_distance(a: set, b: set) -> dict:
    """Facet-set distance between two hulls (keys as from
    ``facet_keys()``): symmetric difference, union, and the Jaccard
    distance ``|A ^ B| / |A u B|`` (0 = identical, 1 = disjoint)."""
    sym = len(a ^ b)
    union = len(a | b)
    return {
        "sym_diff": sym,
        "union": union,
        "jaccard": sym / union if union else 0.0,
    }


def _grid_row(p: float, votes, ref, seed: int) -> dict:
    """One raw (ladder-free) noisy run against the exact reference."""
    nk = NoisyKernel(p=p, votes=votes, seed=seed)
    order = ref.order.copy()
    # Re-feed the reference's already-permuted points in their insertion
    # order so both runs insert identically (ref.points is rank-ordered).
    row: dict = {"p": p, "votes": votes, "seed": seed}
    t0 = time.perf_counter()
    try:
        run = parallel_hull(ref.points, order=np.arange(len(order)), kernel=nk,
                            engine="objects")
    except Exception as exc:
        row.update({
            "crashed": True, "crash_type": type(exc).__name__,
            "error": 1.0, "sym_diff": None,
            "vote_overhead": nk.vote_overhead(),
            "decisions": nk.decisions,
            "certificate": "unavailable",
            "wall_s": time.perf_counter() - t0,
        })
        return row
    wall = time.perf_counter() - t0
    dist = facet_distance(run.facet_keys(), ref.facet_keys())
    cert_verdict = "ok"
    try:
        verify_certificate(make_certificate(run, "noisy"), run.points)
    except CertificateError:
        cert_verdict = "rejected"
    row.update({
        "crashed": False,
        "error": dist["jaccard"],
        "sym_diff": dist["sym_diff"],
        "hull_facets": len(run.facets),
        "ref_facets": len(ref.facets),
        "vote_overhead": nk.vote_overhead(),
        "decisions": nk.decisions,
        "flips": nk.flips,
        "residual_errors": nk.overruled,
        "certificate": cert_verdict,
        "wall_s": wall,
    })
    return row


def _ladder_row(p: float, votes, ref, seed: int) -> dict:
    """One certificate-gated self-healing run: noisy rungs then exact."""
    nk = NoisyKernel(p=p, votes=votes, seed=seed)
    t0 = time.perf_counter()
    # Same insertion order as the reference (ref.points is already
    # rank-ordered), so facet keys live in the same rank space.
    res = robust_hull(
        ref.points, seed=seed, order=np.arange(ref.points.shape[0]), noise=nk
    )
    return {
        "p": p,
        "votes": votes,
        "seed": seed,
        "mode": res.mode,
        "escalations": res.escalations,
        "matches_exact": res.run.facet_keys() == ref.facet_keys(),
        "vote_overhead": (res.noise.vote_overhead() if res.noise else None),
        "wall_s": time.perf_counter() - t0,
    }


def _validator_corrupted(seeds: range) -> dict:
    """Corruption sweep: every ``corrupt_certificate`` mode against a
    valid certificate of every degenerate-corpus family."""
    checked = 0
    rejected = 0
    false_accepts: list[dict] = []
    for name in sorted(CORPUS):
        for seed in seeds:
            pts = CORPUS[name](seed=seed)
            res = robust_hull(pts, seed=seed)
            cert = res.certificate
            ref_points = pts
            if res.joggled is not None:
                ref_points = np.empty_like(res.run.points)
                ref_points[res.run.order] = res.run.points
            for mode in CORRUPTION_MODES:
                bad = corrupt_certificate(cert, mode, seed=seed)
                checked += 1
                try:
                    verify_certificate(bad, ref_points)
                except CertificateError:
                    rejected += 1
                else:
                    false_accepts.append(
                        {"family": name, "seed": seed, "mode": mode}
                    )
    return {
        "checked": checked,
        "rejected": rejected,
        "false_accepts": false_accepts,
    }


def _validator_noisy(ps, seeds: range) -> dict:
    """Genuinely noisy corpus runs (votes=1, under SoS so degenerate
    families build at all) driven through the checker.  A false accept
    = the checker passes but the hull differs from the noise-free
    reference on the same order -- the one outcome that must not occur."""
    checked = 0
    rejected = 0
    crashed = 0
    clean_accepts = 0
    false_accepts: list[dict] = []
    for name in sorted(CORPUS):
        for seed in seeds:
            pts = CORPUS[name](seed=seed)
            with sos_mode():
                try:
                    ref = parallel_hull(pts, seed=seed, engine="objects")
                except Exception:
                    continue  # family needs a rung SoS can't give: skip
                for p in ps:
                    nk = NoisyKernel(p=p, votes=1, seed=seed + 1)
                    try:
                        run = parallel_hull(
                            ref.points, order=np.arange(len(ref.order)),
                            kernel=nk, engine="objects",
                        )
                    except Exception:
                        crashed += 1
                        continue  # no certificate to check
                    checked += 1
                    wrong = run.facet_keys() != ref.facet_keys()
                    try:
                        verify_certificate(
                            make_certificate(run, "noisy"), run.points
                        )
                    except CertificateError:
                        rejected += 1
                    else:
                        if wrong:
                            false_accepts.append(
                                {"family": name, "seed": seed, "p": p}
                            )
                        else:
                            clean_accepts += 1
    return {
        "checked": checked,
        "rejected": rejected,
        "crashed_runs": crashed,
        "clean_accepts": clean_accepts,
        "false_accepts": false_accepts,
    }


def run_noisy_bench(seed: int = 0, smoke: bool = False) -> dict:
    """Run the E23 campaign and return the ``BENCH_noisy.json`` dict.

    ``smoke=True`` shrinks everything for CI (harness correctness, not
    meaningful statistics); the full run covers the paper grid and the
    >= 500-certificate validator-power criterion.
    """
    if smoke:
        n, d = 40, 3
        ps = (0.01, 0.1)
        votes = (1, 3, ADAPTIVE)
        grid_seeds = range(seed, seed + 1)
        corrupt_seeds = range(seed, seed + 1)
        noisy_seeds = range(seed, seed + 1)
        noisy_ps = (0.1,)
    else:
        n, d = 120, 3
        ps = GRID_PS
        votes = GRID_VOTES
        grid_seeds = range(seed, seed + 3)
        # 12 families x 10 seeds x 4 corruption modes = 480 corrupted
        # certificates; the noisy sweep supplies the rest of the >=500.
        corrupt_seeds = range(seed, seed + 10)
        noisy_seeds = range(seed, seed + 2)
        noisy_ps = (0.05, 0.1)

    pts = uniform_ball(n, d, seed=seed + 11)
    ref = parallel_hull(pts, seed=seed + 1, engine="objects")

    grid = [
        _grid_row(p, v, ref, s)
        for p in ps for v in votes for s in grid_seeds
    ]
    ladder = [
        _ladder_row(p, 1, ref, s) for p in ps for s in grid_seeds
    ]
    corrupted = _validator_corrupted(corrupt_seeds)
    noisy_certs = _validator_noisy(noisy_ps, noisy_seeds)

    total_checked = corrupted["checked"] + noisy_certs["checked"]
    total_false = (
        len(corrupted["false_accepts"]) + len(noisy_certs["false_accepts"])
    )
    summary = {
        "all_ladder_runs_match_exact": all(r["matches_exact"] for r in ladder),
        "validator_certificates_checked": total_checked,
        "validator_false_accepts": total_false,
        "validator_false_accept_rate": total_false / max(1, total_checked),
        "criterion_500_certs": total_checked >= 500,
        # error-vs-p at votes=1 and overhead-vs-votes at the highest p:
        # the two trajectories the E23 tables plot.
        "error_vs_p_votes1": {
            str(p): float(np.mean([
                r["error"] for r in grid if r["p"] == p and r["votes"] == 1
            ]))
            for p in ps
        },
        "overhead_vs_votes_maxp": {
            str(v): float(np.mean([
                r["vote_overhead"] for r in grid
                if r["votes"] == v and r["p"] == max(ps)
            ]))
            for v in votes
        },
    }
    return {
        "schema": NOISY_BENCH_SCHEMA,
        "smoke": smoke,
        "seed": seed,
        "n": n,
        "d": d,
        "ps": list(ps),
        "votes": [str(v) for v in votes],
        "grid": grid,
        "ladder": ladder,
        "validator": {"corrupted": corrupted, "noisy": noisy_certs},
        "summary": summary,
    }
