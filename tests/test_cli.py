"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.runtime.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_list_all(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "figure_4_6" in out and "table_3_2" in out
        assert "service_latency_sweep" in out
        assert "49 experiments" in out

    def test_list_filters(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--chapter", "4", "--kind", "table")
        assert code == 0
        assert "table_4_1" in out
        assert "figure_4_6" not in out

    def test_list_studies(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--kind", "study")
        assert code == 0
        assert "service_cluster_sizing" in out
        assert "table_4_1" not in out

    def test_list_no_match(self, capsys):
        code, _, err = run_cli(capsys, "list", "--chapter", "12")
        assert code == 1
        assert "no experiments" in err


class TestRun:
    def test_run_prints_table_and_provenance(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table_4_1")
        assert code == 0
        assert "link_width_bits" in out
        assert "# table_4_1: cache=" in out

    def test_run_json(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table_5_2", "--json", "--no-cache")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "table_5_2"
        assert any(row["parameter"] == "pue" for row in payload["rows"])

    def test_run_json_carries_full_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table_5_2", "--json", "--no-cache")
        assert code == 0
        payload = json.loads(out)
        assert payload["cache_status"] == "disabled"
        assert payload["wall_time_s"] >= 0
        assert payload["provenance"]["function"].startswith("repro.experiments")
        assert "cache_key" in payload["provenance"]

    def test_run_json_cache_status_reflects_hits(self, capsys, tmp_path):
        argv = ("run", "table_5_2", "--cache-dir", str(tmp_path), "--json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert json.loads(first)["cache_status"] == "miss"
        assert json.loads(second)["cache_status"] == "hit"

    def test_run_with_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "figure_2_2", "--set", "llc_sizes_mb=(1,4)", "--json", "--no-cache"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert set(rows[0]) == {"workload", "1MB", "4MB"}

    def test_run_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "run", "figure_9_9")
        assert code == 2
        assert "unknown experiment" in err

    def test_run_node_flag_restricts_family_study(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "node_family_table", "--node", "7nm", "--json", "--no-cache"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["node"] for row in payload["rows"]] == ["7nm"]
        assert payload["provenance"]["nodes"] == [
            {
                "node": "7nm",
                "calibrated": False,
                "extrapolated_rules": ["logic_area", "vdd", "logic_power", "wires"],
            }
        ]

    def test_run_node_flag_on_single_node_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "table_2_1", "--node", "20nm", "--json", "--no-cache"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["provenance"]["nodes"][0]["node"] == "20nm"
        assert payload["provenance"]["nodes"][0]["calibrated"] is True

    def test_run_node_flag_rejects_non_node_experiment(self, capsys):
        with pytest.raises(SystemExit, match="not node-parameterized"):
            run_cli(capsys, "run", "fleet_diurnal_day", "--node", "7nm")

    def test_run_disk_cache_hits_across_invocations(self, capsys, tmp_path):
        argv = ("run", "table_5_2", "--cache-dir", str(tmp_path))
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert "cache=miss" in first
        assert "cache=hit" in second

    def test_run_identical_rows_to_library_call(self, capsys):
        from repro.experiments.registry import run_experiment

        code, out, _ = run_cli(capsys, "run", "table_4_1", "--json", "--no-cache")
        assert code == 0
        assert json.loads(out)["rows"] == run_experiment("table_4_1", use_cache=False).rows


class TestSweep:
    def test_sweep_cross_product(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "figure_2_2",
            "--set", "llc_sizes_mb=(1,4)",
            "--set", "cores=2,4",
            "--json", "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted({row["cores"] for row in payload["rows"]}) == [2, 4]

    def test_sweep_rows_tagged_with_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "figure_2_2", "--set", "llc_sizes_mb=(1,4),(1,8)", "--json", "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        values = sorted(tuple(row["llc_sizes_mb"]) for row in payload["rows"])
        assert set(values) == {(1, 4), (1, 8)}

    def test_sweep_json_carries_point_envelopes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "figure_2_2", "--set", "cores=2,4", "--json", "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert [p["point"] for p in payload["points"]] == [{"cores": 2}, {"cores": 4}]
        for point in payload["points"]:
            assert point["cache_status"] == "disabled"
            assert point["wall_time_s"] >= 0
            assert "cache_key" in point["provenance"]

    def test_sweep_requires_axis(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "sweep", "table_4_1")


class TestBench:
    def test_bench_selected(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "table_2_1", "table_5_2")
        assert code == 0
        assert "wall_s" in out
        assert "table_2_1" in out and "table_5_2" in out

    def test_bench_json_writes_baseline_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--json",
            "--bench-dir",
            str(tmp_path),
            "--set",
            "duration_cycles=600",
            "--set",
            "num_requests=1200",
            "--set",
            "rows=2000",
            "--set",
            "budget=24",
            "--set",
            "fleet_requests=20000",
            "--set",
            "fleet_reference_requests=20000",
        )
        assert code == 0
        envelope = json.loads(out)
        assert envelope["schema"] == 1
        by_id = {entry["experiment"]: entry for entry in envelope["entries"]}
        assert set(by_id) == {
            "figure_4_6",
            "noc_routes",
            "service_latency_sweep",
            "fleet_scale_day",
            "pareto_kernel",
            "dse_search_ga",
            "dse_search_halving",
            "sim_warm",
            "sim_run",
            "perfmodel_sweep",
        }
        for entry in by_id.values():
            assert entry["units"] > 0
            assert entry["fastpath"]["wall_s"] > 0
            assert entry["reference"]["wall_s"] > 0
            assert entry["speedup"] > 0
        for experiment in ("figure_4_6", "service_latency_sweep"):
            assert by_id[experiment]["fastpath"]["cache_status"] == "disabled"
        for experiment in ("dse_search_ga", "dse_search_halving"):
            assert by_id[experiment]["fastpath"]["evaluations"] <= 24
            assert by_id[experiment]["evaluations_saved"] > 0
        assert by_id["sim_warm"]["state_identical"] is True
        assert by_id["sim_warm"]["parameters"] == {"llc_mb": 4.0, "seed": 7, "points": 105}
        sim_run = by_id["sim_run"]
        assert sim_run["stats_identical"] is True
        assert sim_run["points"] == 112 and sim_run["parameters"]["repeats"] >= 3
        assert sim_run["llc_accesses"] == sim_run["units"] == 181_812
        noc_routes = by_id["noc_routes"]
        assert noc_routes["routes_identical"] is True
        assert noc_routes["routes"] == noc_routes["units"] == 11_980
        assert noc_routes["parameters"] == {"topologies": 5, "repeats": 3}
        perfmodel = by_id["perfmodel_sweep"]
        assert perfmodel["estimates_identical"] is True
        assert perfmodel["estimates"] == perfmodel["units"] == 1512
        assert perfmodel["designs"] == 216
        for experiment in ("figure_4_6", "service_latency_sweep"):
            tracer = by_id[experiment]["tracer"]
            assert tracer["pairs"] >= 5 and tracer["limit_pct"] == 5.0
        assert by_id["figure_4_6"]["tracer"]["parameters"]["duration_cycles"] == 48_000
        assert by_id["service_latency_sweep"]["tracer"]["parameters"]["num_requests"] == 64_000
        for domain, experiment in (("noc", "figure_4_6"), ("service", "service_latency_sweep"),
                                   ("dse", "pareto_kernel"), ("sim", "sim_warm"),
                                   ("perfmodel", "perfmodel_sweep")):
            payload = json.loads((tmp_path / f"BENCH_{domain}.json").read_text())
            assert payload["schema"] == 1
            assert payload["entries"][0]["experiment"] == experiment
        sim_entries = json.loads((tmp_path / "BENCH_sim.json").read_text())["entries"]
        assert [entry["experiment"] for entry in sim_entries] == ["sim_warm", "sim_run"]
        noc_entries = json.loads((tmp_path / "BENCH_noc.json").read_text())["entries"]
        assert [entry["experiment"] for entry in noc_entries] == ["figure_4_6", "noc_routes"]

    def test_bench_json_unregistered_id_times_fastpath_only(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "--json", "--bench-dir", str(tmp_path), "table_2_1"
        )
        assert code == 0
        envelope = json.loads(out)
        (entry,) = envelope["entries"]
        assert entry["experiment"] == "table_2_1"
        assert "reference" not in entry
        assert envelope["files"] == []


class TestExplore:
    ARGS = (
        "--set", "core_types=('ooo',)",
        "--set", "cores_per_pod=(8,16)",
        "--set", "llc_per_pod_mb=(4.0,)",
        "--set", "pods_per_chip=(1,2)",
    )

    def test_explore_prints_frontier_and_knee(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--no-cache", *self.ARGS)
        assert code == 0
        assert "Pareto frontier" in out
        assert "# knee [ooo]:" in out
        assert "# objectives: max performance_density" in out
        assert "candidates=4" in out

    def test_explore_json_envelope_carries_candidates_and_frontier(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--no-cache", "--json", *self.ARGS)
        assert code == 0
        envelope = json.loads(out)
        assert len(envelope["rows"]) == 4          # every evaluated candidate
        assert envelope["frontier"]                # the Pareto-optimal subset
        assert all(row["on_frontier"] for row in envelope["frontier"])
        assert envelope["stats"]["candidates"] == 4
        assert envelope["data"]["knees"]

    def test_explore_warm_disk_cache_hits(self, capsys, tmp_path):
        run_cli(capsys, "explore", "explore_pod_40nm", "--json",
                "--cache-dir", str(tmp_path), *self.ARGS)
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm", "--json",
                               "--cache-dir", str(tmp_path), *self.ARGS)
        assert code == 0
        envelope = json.loads(out)
        assert envelope["cache_status"] == "hit"
        assert len(envelope["rows"]) == 4

    def test_explore_no_cache_reaches_the_evaluation_cache(self, capsys):
        # --no-cache must disable the per-candidate evaluation cache too:
        # a second run in the same process re-evaluates everything.
        for _ in range(2):
            code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                                   "--no-cache", "--json", *self.ARGS)
            assert code == 0
            stats = json.loads(out)["stats"]
            assert stats["evaluated"] == 4
            assert stats["cache_hits"] == 0

    def test_explore_rejects_non_explore_specs(self, capsys):
        with pytest.raises(SystemExit, match="not an exploration"):
            run_cli(capsys, "explore", "figure_4_6")

    def test_explore_strategy_flags_bound_the_search(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--strategy", "ga", "--budget", "16", "--seed", "3",
                               "--no-cache", "--json")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["strategy"] == "ga"
        assert stats["budget"] == 16
        assert stats["seed"] == 3
        assert stats["candidates"] <= 16

    def test_explore_halving_strategy_runs(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--strategy", "halving", "--budget", "12",
                               "--no-cache", "--json")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["strategy"] == "halving"
        assert stats["candidates"] <= 12

    def test_explore_same_seed_is_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                                   "--strategy", "ga", "--budget", "16",
                                   "--seed", "1", "--no-cache", "--json")
            assert code == 0
            envelope = json.loads(out)
            outs.append([row["candidate"] for row in envelope["rows"]])
        assert outs[0] == outs[1]

    def test_explore_pod_scale_rejects_exhaustive(self, capsys):
        with pytest.raises(ValueError, match="exhaustive"):
            run_cli(capsys, "explore", "explore_pod_scale",
                    "--strategy", "exhaustive", "--no-cache", "--json")

    def test_explore_rejects_unknown_strategy(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "explore", "explore_pod_40nm",
                    "--strategy", "annealing")


class TestReport:
    def test_report_markdown_to_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "report", "--only", "chapter4",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.startswith("# Reproduction report")
        assert "ch4-fbfly-beats-mesh" in out

    def test_report_out_writes_file_and_prints_summary(self, capsys, tmp_path):
        target = tmp_path / "REPORT.md"
        code, out, _ = run_cli(capsys, "report", "--only", "figure_4_7",
                               "--out", str(target), "--cache-dir", str(tmp_path))
        assert code == 0
        assert "# wrote" in out and "0 fail" in out
        assert target.read_text(encoding="utf-8").startswith("# Reproduction report")

    def test_report_json_envelope(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "report", "--only", "chapter4", "--json",
                               "--cache-dir", str(tmp_path), "--serial")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["claims"] == len(payload["claims"]) >= 5
        assert all(claim["chapter"] == 4 for claim in payload["claims"])

    def test_report_json_with_out_writes_file_and_keeps_stdout_pure(self, capsys, tmp_path):
        target = tmp_path / "REPORT.md"
        code, out, err = run_cli(capsys, "report", "--only", "figure_4_7",
                                 "--json", "--out", str(target),
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0   # stdout is pure JSON
        assert "# wrote" in err
        assert target.read_text(encoding="utf-8").startswith("# Reproduction report")

    def test_report_svg_dir(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "report", "--only", "figure_4_7",
                             "--svg-dir", str(tmp_path / "figs"),
                             "--cache-dir", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "figs" / "report_chapter4.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "ch4-nocout-cheapest" in svg

    def test_report_rejects_unknown_only_token(self, capsys):
        code, _, err = run_cli(capsys, "report", "--only", "chapter99-zzz")
        assert code == 2
        assert "matches no chapter" in err

    def test_report_no_cache_reaches_the_evaluation_cache(self, capsys):
        # --no-cache must also disable the explore studies' internal
        # per-candidate evaluation cache: both runs re-evaluate everything.
        for _ in range(2):
            code, out, _ = run_cli(capsys, "report", "--only", "explore_sla_sizing",
                                   "--no-cache", "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["summary"]["fail"] == 0
            assert {e["cache_status"] for e in payload["experiments"]} == {"disabled"}
