"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestHull:
    def test_json_output(self, capsys):
        main(["hull", "--n", "200", "--d", "2", "--seed", "3"])
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 200
        assert out["hull_facets"] == out["hull_vertices"]
        assert out["dependence_depth"] >= 1

    def test_sphere_workload(self, capsys):
        main(["hull", "--n", "100", "--d", "3", "--workload", "sphere"])
        out = json.loads(capsys.readouterr().out)
        assert out["hull_vertices"] == 100

    def test_thread_executor(self, capsys):
        main(["hull", "--n", "150", "--executor", "threads", "--workers", "2"])
        out = json.loads(capsys.readouterr().out)
        assert out["executor"] == "threads"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["hull", "--workload", "torus"])

    def test_default_engine_is_soa(self, capsys):
        main(["hull", "--n", "300", "--d", "3", "--seed", "4"])
        out = json.loads(capsys.readouterr().out)
        assert out["engine"] == "soa"
        assert out["kernel"]["engine"] == "soa"
        assert out["kernel"]["batched_signs"] == out["visibility_tests"]

    def test_engine_objects_runs_the_oracle(self, capsys):
        main(["hull", "--n", "300", "--d", "3", "--seed", "4", "--engine", "objects"])
        out = json.loads(capsys.readouterr().out)
        assert out["engine"] == "objects"
        assert out["kernel"] == {"kernel": "scalar"}

    def test_soa_engine_rejects_other_executors(self):
        with pytest.raises(SystemExit, match="engine='soa' is round-synchronous"):
            main(["hull", "--n", "50", "--engine", "soa", "--executor", "threads"])


class TestDepth:
    def test_table_printed(self, capsys):
        main(["depth", "--sizes", "64", "128", "--seeds", "2"])
        out = capsys.readouterr().out
        assert "mean depth" in out
        assert "64" in out and "128" in out
        assert "slope" in out


class TestWork:
    def test_equivalence_reported(self, capsys):
        main(["work", "--n", "150", "--seed", "1"])
        out = json.loads(capsys.readouterr().out)
        assert out["same_created"] in (True, "True")
        assert out["ratio"] <= 1.0


class TestSpeedup:
    def test_table(self, capsys):
        main(["speedup", "--n", "200", "--procs", "1", "4"])
        out = capsys.readouterr().out
        assert "speedup" in out and "model" in out
        # The greedy schedule of the per-task DAG gains from processors
        # (a chain of one task per round would read 1.00).
        rows = {line.split()[0]: line.split() for line in out.splitlines()[1:]}
        assert float(rows["4"][2]) > 1.0


class TestFigure1:
    def test_walkthrough(self, capsys):
        main(["figure1"])
        out = capsys.readouterr().out
        assert "round 1:" in out and "round 3:" in out
        assert "create v-c" in out
        assert "final hull:" in out


class TestCRCW:
    def test_both_modes(self, capsys):
        main(["crcw", "--n", "150"])
        out = capsys.readouterr().out
        assert "approximate" in out and "exact" in out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDelaunayCommand:
    def test_three_way_agreement(self, capsys):
        main(["delaunay", "--n", "80", "--seed", "2"])
        out = capsys.readouterr().out
        assert "all agree: True" in out
        assert "identical tests BW==parallel: True" in out


class TestChaosCommand:
    def test_small_suite_json(self, capsys):
        main(["chaos", "--seed", "0", "--budget", "small"])
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["budget"] == "small"
        assert {s["impl"] for s in out["stall_sweeps"]} == {"cas", "tas"}
        assert all(r["same_facets"] for r in out["roundtrips"])
        # The small budget exercises both fault-injected executors.
        assert {r["executor"] for r in out["roundtrips"]} == {
            "rounds", "threads"}

    def test_executor_filter_thread(self, capsys):
        # --executor restricts the roundtrips to one family and skips
        # the executor-independent stall sweeps.
        main(["chaos", "--seed", "1", "--budget", "small",
              "--executor", "thread"])
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["stall_sweeps"] == []
        assert {r["executor"] for r in out["roundtrips"]} == {"threads"}

    def test_unknown_budget_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--budget", "galactic"])

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--executor", "quantum"])


class TestCertifyCommand:
    def test_workload_certified(self, capsys):
        main(["certify", "--n", "60", "--d", "3", "--seed", "2"])
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is True
        assert out["mode"] == "float"
        assert out["escalations"] == ["float:ok"]
        assert out["facets"] > 0

    def test_degenerate_family(self, capsys):
        main(["certify", "--family", "coplanar-3d"])
        out = json.loads(capsys.readouterr().out)
        assert out["source"] == "coplanar-3d"
        assert out["mode"] == "sos"
        assert out["sos"] is True
        assert out["verified"] is True

    def test_corruption_rejected(self, capsys):
        # Exit 0 with rejected=True is the self-test passing: the
        # verifier caught the deliberately corrupted certificate.
        for mode in ("drop-facet", "flip-orientation", "duplicate-ridge"):
            main(["certify", "--family", "grid-2d", "--corrupt", mode])
            out = json.loads(capsys.readouterr().out)
            assert out["rejected"] is True, mode
            assert out["rejection_error"]

    def test_certificate_file_written(self, capsys, tmp_path):
        dest = tmp_path / "cert.json"
        main(["certify", "--n", "40", "--d", "2", "--json-out", str(dest)])
        out = json.loads(capsys.readouterr().out)
        assert out["certificate_file"] == str(dest)
        blob = json.loads(dest.read_text())
        assert blob["schema"].startswith("repro-hull-certificate/")
        assert len(blob["facets"]) == out["facets"]

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "--family", "moebius"])

    def test_unknown_corruption_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "--corrupt", "gamma-rays"])


class TestHullNoise:
    def test_noisy_hull_reports_escalation_path(self, capsys):
        main(["hull", "--n", "120", "--d", "3", "--seed", "4",
              "--noise", "0.05", "--votes", "3"])
        out = json.loads(capsys.readouterr().out)
        assert out["escalations"][-1].endswith(":ok")
        assert out["mode"] == out["escalations"][-1].split(":")[0].split("#")[0]
        assert out["hull_facets"] > 0

    def test_adaptive_votes_accepted(self, capsys):
        main(["hull", "--n", "80", "--seed", "1",
              "--noise", "0.01", "--votes", "adaptive"])
        out = json.loads(capsys.readouterr().out)
        assert out["mode"].startswith(("noisy[", "float"))
        # Noise provenance rides in the kernel stats block.
        if out["mode"].startswith("noisy["):
            assert out["kernel"]["noise_p"] == 0.01

    def test_no_noise_keeps_plain_output(self, capsys):
        main(["hull", "--n", "80", "--seed", "1"])
        out = json.loads(capsys.readouterr().out)
        assert "mode" not in out and "escalations" not in out

    def test_invalid_votes_rejected(self):
        with pytest.raises(SystemExit):
            main(["hull", "--noise", "0.01", "--votes", "several"])

    def test_invalid_p_rejected(self):
        with pytest.raises(SystemExit):
            main(["hull", "--noise", "0.7", "--votes", "1"])


class TestNoisyCommand:
    def test_smoke_report_written(self, capsys, tmp_path):
        dest = tmp_path / "noisy.json"
        main(["noisy", "--smoke", "--seed", "0", "--out", str(dest)])
        blob = json.loads(dest.read_text())
        assert blob["schema"] == "repro.bench.noisy/1"
        assert blob["smoke"] is True
        assert blob["summary"]["all_ladder_runs_match_exact"] is True
        assert blob["summary"]["validator_false_accepts"] == 0
        assert blob["grid"] and blob["ladder"]
