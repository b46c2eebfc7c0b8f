"""Tests of the benchmark itself, on --smoke sizes: ``pytest bench/``."""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def in_process(args: dict, timeout: float) -> dict:
    return worker.measure(args)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0.3",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(out.read_text())


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def test_every_metric_printed_with_unit(smoke):
    proc, doc = smoke
    assert proc.returncode == 0, proc.stderr
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b"
        assert re.search(pattern, proc.stdout, re.M), m["name"]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    for w in workloads.WORKLOADS:
        assert doc["workloads"][w]["untraced"]["failed_frac"] == 0
        traced = doc["workloads"][w]["traced"]
        assert traced["trace_missing"] == []
        assert traced["trace_closure_err"] < 0.01
        for m in SPEC["per_layer"]:
            assert last["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"]


def test_single_workload_line_has_exactly_its_metrics(capsys):
    code = run.main(["--workload", "hull2d-ball", "--smoke", "--seconds", "0.05"],
                    spawn=in_process)
    assert code == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_forced_check_failure(monkeypatch, capsys, tmp_path):
    wl = workloads.WORKLOADS["hull2d-ball"]
    monkeypatch.setitem(workloads.WORKLOADS, wl.name,
                        dataclasses.replace(wl, check=lambda *a: "forced failure"))
    out = tmp_path / "r.json"
    code = run.main(["--workload", wl.name, "--smoke", "--seconds", "0.05",
                     "--out", str(out)], spawn=in_process)
    assert code == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not last["correct"] and last["failed"] == last["attempted"] >= 1
    assert json.loads(out.read_text())["workloads"][wl.name]["untraced"]["failed_frac"] == 1.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hull2d-ball", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("every_s, expected", [
    (0.0, lambda k: 2 * k + 1.5),   # one call per block: its own pair of timings
    (1e9, lambda k: 1.5),           # one block, closed when the budget runs out
])
def test_calls_carry_the_calibration_timed_around_their_block(monkeypatch, every_s, expected):
    monkeypatch.setattr(worker, "CAL_EVERY_S", every_s)
    timings = iter(range(1, 1000))
    args = {"workload": "hull2d-ball", "seed": 0, "scale": 0.01, "first": 0, "stride": 1}
    calls = worker.timed_calls(workloads.WORKLOADS["hull2d-ball"], args, 0.5,
                               worker._plain, lambda: next(timings))
    assert len(calls) > 1
    assert [c["cal_s"] for c in calls] == [expected(k) for k in range(len(calls))]


def test_calibration_runs_with_gc_off_and_restores_it():
    # Its object churn would set off many gen-0 collections with gc on.
    calibration = worker.Calibration()
    collections = []
    callback = lambda phase, info: collections.append(phase)  # noqa: E731
    gc.callbacks.append(callback)
    try:
        assert calibration() > 0
    finally:
        gc.callbacks.remove(callback)
    assert collections == [] and gc.isenabled()


def test_times_are_reported_in_calibrated_seconds():
    records = [{"cal_s": 2 * run.CAL_HOST_S, "layers": {"a.self_s": 1.0},
                "counts": {"a.calls": 7}}]
    assert run.layer_values(records, {"a.self_s": "s", "a.calls": "count", "b.calls": "count"}) \
        == {"a.self_s": 0.5, "a.calls": 7, "b.calls": 0.0}


def _span(trace, sid, parent, start, end, name="x"):
    return spans.Span(trace, sid, parent, name, start, end)


def test_self_time_nested():
    tree = [_span(1, 1, 0, 0, 100, spans.ROOT), _span(1, 2, 1, 10, 60, "a"),
            _span(1, 3, 2, 20, 40, "b")]
    assert spans.self_times(tree) == {(1, 1): 50, (1, 2): 30, (1, 3): 20}


def test_self_time_siblings_and_overlap():
    siblings = [_span(1, 1, 0, 0, 100, spans.ROOT), _span(1, 2, 1, 10, 30, "a"),
                _span(1, 3, 1, 40, 70, "a")]
    assert spans.self_times(siblings)[(1, 1)] == 50
    summary = spans.summarize(siblings)[1]
    assert summary["self_s"] == {spans.ROOT: 50e-9, "a": 50e-9}
    assert summary["calls"] == {spans.ROOT: 1, "a": 2}
    assert summary["closure_err"] == 0
    # Children that overlap (other threads) or outrun the parent cover
    # only the union of their intervals inside it.
    overlap = [_span(2, 1, 0, 0, 100), _span(2, 2, 1, 10, 50), _span(2, 3, 1, 30, 120)]
    assert spans.self_times(overlap)[(2, 1)] == 10


def test_missing_wrap_target_is_reported_not_raised():
    rec = spans.Recorder()
    installed, missing = rec.install([
        ("repro.hull.soa", "no_such_function", "a"),
        ("repro.no_such_module", "f", "b"),
        ("repro.hull.soa:SoAHullEngine", "no_such_method", "c"),
        ("repro.hull.soa:NoSuchClass", "f", "d"),
    ])
    assert installed == []
    assert missing == ["repro.hull.soa.no_such_function", "repro.no_such_module.f",
                       "repro.hull.soa:SoAHullEngine.no_such_method",
                       "repro.hull.soa:NoSuchClass.f"]


def test_install_wraps_every_target_and_uninstall_restores():
    from repro.geometry.hyperplane import Hyperplane
    import repro.hull.soa as soa

    before = (soa.gather_segments, Hyperplane.__dict__["through"])
    rec = spans.Recorder()
    installed, missing = rec.install()
    try:
        assert missing == []
        assert isinstance(Hyperplane.__dict__["through"], staticmethod)
        pts, order = workloads.WORKLOADS["hull3d-ball"].make_input(0, 0, 0.01)
        rec.call(soa.soa_hull, pts, order=order)
    finally:
        spans.uninstall(installed)
    assert (soa.gather_segments, Hyperplane.__dict__["through"]) == before
    names = {s.name for s in rec.spans}
    assert {"soa.init", "soa.step_round", "soa.finish", "kernels.visible_flat",
            "kernels.gather_segments", spans.ROOT} <= names


def test_same_seed_same_inputs_and_counts():
    wl = workloads.WORKLOADS["certify3d-grid"]
    a, b = wl.make_input(5, 2, 0.1), wl.make_input(5, 2, 0.1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[1], wl.make_input(6, 2, 0.1)[1])
    assert not np.array_equal(a[1], wl.make_input(5, 3, 0.1)[1])
    args = {"workload": wl.name, "seed": 5, "seconds": 0.01, "scale": 0.1,
            "first": 0, "stride": 1, "trace": True, "spans": None}
    r1, r2 = worker.measure(args), worker.measure(args)
    assert r1["calls"][0]["counts"] == r2["calls"][0]["counts"]
    assert r1["traced_calls"][0]["counts"] == r2["traced_calls"][0]["counts"]
    assert r1["calls"][0]["counts"]["predicates.exact_calls"] > 0


STEP = [1.0 + 0.01 * i for i in range(10)]


@pytest.mark.parametrize("parent, change, better, expected", [
    (STEP, [v - 0.2 for v in STEP], "lower", "improved"),
    (STEP, [v * 1.2 for v in STEP], "lower", "regressed"),
    (STEP, STEP[1:] + STEP[:1], "lower", "unchanged"),
    ([1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.6, 1.2, 0.9],
     [1.0, 0.8, 1.4, 0.7, 1.3, 0.9, 1.2, 1.5, 1.0, 0.6], "lower", "unresolved"),
    # Too few pairs to claim a gain, spread wider than the bound, but
    # every change run beats every parent run: not unresolved.
    ([2.0, 2.6, 3.0], [1.0, 1.3, 1.9], "lower", "unchanged"),
    (STEP, [v + 0.2 for v in STEP], "higher", "improved"),
    (STEP, [v * 0.8 for v in STEP], "higher", "regressed"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1) == expected


def test_compare_report_places_layer_deltas():
    def doc(wall, self_s):
        return {"workloads": {"hull2d-ball": {
            "untraced": {"metrics": {"wall_s": wall, "setup_s": 0.2, "peak_rss_mb": 90.0},
                         "failed": 0},
            "traced": {"layers": {"soa.step_round.self_s": self_s, "soa.rounds": 40},
                       "failed": 0}}}}

    parent = [doc(1.0 + 0.01 * i, 0.5) for i in range(10)]
    change = [doc(0.8 + 0.01 * i, 0.3) for i in range(10)]
    lines, regressed = compare.compare(parent, change, SPEC)
    text = "\n".join(lines)
    assert not regressed
    assert re.search(r"wall_s .* wins 10/10 .* -> improved", text)
    assert re.search(r"setup_s .* -> unchanged", text)
    assert "soa.step_round.self_s" in text and "-0.2 s" in text
    assert "soa.rounds" not in text
