"""Tests for the CLI and report registry."""

import pytest

from repro.cli import DESCRIPTIONS, build_parser, main
from repro.reports import REPORTS


class TestRegistry:
    def test_every_report_described(self):
        assert set(DESCRIPTIONS) == set(REPORTS)

    def test_covers_all_paper_experiments(self):
        expected = {"table1", "table2", "table3", "table6", "sales",
                    "findings", "categories", "availability",
                    "qoe-sessions", "live"} | {
            f"fig{i}" for i in range(3, 15)
        } | {"fig2a", "fig2b"}
        assert set(REPORTS) == expected


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults_to_smoke(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.scale == "smoke"
        assert args.experiments == ["fig3"]

    def test_seed_override(self):
        args = build_parser().parse_args(["run", "fig3", "--seed", "7"])
        assert args.seed == 7

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_faults_defaults_off(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.faults == "off"

    def test_faults_profile_accepted(self):
        args = build_parser().parse_args(
            ["run", "availability", "--faults", "paper"])
        assert args.faults == "paper"

    def test_unknown_faults_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--faults", "storm"])

    def test_jobs_defaults_to_one(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_jobs_and_cache_flags_accepted(self):
        args = build_parser().parse_args(
            ["run", "fig3", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--no-cache"])
        assert args.jobs == 4
        assert str(args.cache_dir) == "/tmp/c"
        assert args.no_cache is True

    def test_city_scale_accepted(self):
        args = build_parser().parse_args(["run", "fig3", "--scale", "city"])
        assert args.scale == "city"

    def test_qoe_knobs_accepted(self):
        args = build_parser().parse_args(
            ["run", "qoe-sessions", "--sessions", "800",
             "--cache-mb", "256", "--abr", "buffer"])
        assert args.sessions == 800
        assert args.cache_mb == 256
        assert args.abr == "buffer"

    def test_qoe_knobs_default_to_scenario(self):
        args = build_parser().parse_args(["run", "qoe-sessions"])
        assert args.sessions is None
        assert args.cache_mb is None
        assert args.abr is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "qoe-sessions", "--abr", "oracle"])

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "ls"])
        assert args.command == "cache"
        assert args.action == "ls"

    def test_cache_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "shrink"])


class TestMain:
    def test_list_exit_code(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "table3" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_cheap_reports(self, capsys):
        # table1 needs no simulation; fig3/fig8 run a smoke study, which
        # replays whatever the suite's artifact cache already holds.
        assert main(["run", "table1", "fig3", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 3" in out
        assert "Figure 8" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "built NEP" in out

    def test_availability_without_faults_prints_note(self, capsys):
        assert main(["run", "availability"]) == 0
        out = capsys.readouterr().out
        assert "fault injection is off" in out

    def test_repro_error_exits_2_with_clean_message(self, capsys):
        # A negative seed passes argparse but fails scenario validation —
        # main() must catch the ReproError, not traceback.
        assert main(["info", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_export(self, capsys, tmp_path):
        assert main(["export", str(tmp_path / "ds")]) == 0
        assert (tmp_path / "ds" / "campaign" / "latency.csv").exists()
        assert (tmp_path / "ds" / "nep-trace" / "vms.csv").exists()
        assert (tmp_path / "ds" / "azure-trace" / "meta.json").exists()


class TestCacheCommand:
    def test_ls_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_run_populates_then_ls_and_clear(self, capsys, tmp_path):
        assert main(["run", "fig8", "--jobs", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "workload_nep" in out and "workload_azure" in out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:      2" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_sharded_entries_reported_by_ls_and_info(self, capsys, tmp_path):
        assert main(["run", "fig8", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shards" in out  # the column header
        workload_rows = [line for line in out.splitlines()
                         if "workload_nep" in line]
        assert workload_rows and workload_rows[0].split()[2] == "workload"
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        info_out = capsys.readouterr().out
        assert "sharded:" in info_out
        assert "2 entries" in info_out  # both platform workloads streamed

    def test_ls_sizes_always_in_mib(self, capsys, tmp_path):
        # regression: entry sizes used to auto-scale (B/KiB/MiB) while
        # docs/performance.md quoted MiB — the column is MiB, always
        assert main(["run", "fig8", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "workload_" in line]
        assert rows
        for row in rows:
            assert "MiB" in row, row
            assert "KiB" not in row

    def test_no_cache_leaves_cache_untouched(self, capsys, tmp_path):
        assert main(["run", "table1", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out


class TestReportFunctions:
    @pytest.mark.parametrize("name", ["table1", "fig2a", "fig2b", "table2",
                                      "fig3", "fig5", "fig8", "fig9",
                                      "fig10", "fig11", "fig12", "fig13",
                                      "table6", "sales"])
    def test_report_produces_text(self, study, name):
        text = REPORTS[name](study)
        assert isinstance(text, str)
        assert len(text.splitlines()) >= 3

    def test_table3_report(self, study):
        text = REPORTS["table3"](study)
        assert "vCloud-1" in text and "pre-reserved" in text

    def test_fig4_report(self, study):
        text = REPORTS["fig4"](study)
        assert "inter-site" in text
        assert "sites within 5/10/20 ms" in text

    def test_findings_report_covers_all_eight(self, study):
        text = REPORTS["findings"](study)
        for number in range(1, 9):
            assert f"({number})" in text


class TestSweepParser:
    def test_sweep_run_flags(self):
        args = build_parser().parse_args(
            ["sweep", "run", "grid.toml", "--jobs", "2", "--out", "o",
             "--no-cache"])
        assert args.command == "sweep"
        assert args.sweep_command == "run"
        assert str(args.config) == "grid.toml"
        assert args.jobs == 2
        assert str(args.out) == "o"
        assert args.no_cache is True

    def test_sweep_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_report_baseline(self):
        args = build_parser().parse_args(
            ["sweep", "report", "out-dir", "--baseline", "base"])
        assert args.sweep_command == "report"
        assert args.baseline == "base"

    def test_cache_pruning_flags(self):
        args = build_parser().parse_args(
            ["cache", "clear", "--older-than", "30", "--dry-run"])
        assert args.older_than == 30
        assert args.dry_run is True


class TestBadOutputPaths:
    """An output path that is (or sits under) a file is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["run", "fig2a", "--cache-dir", "{file}"],
        ["cache", "ls", "--cache-dir", "{file}"],
        ["run", "fig2a", "--no-cache", "--log-json", "{file}/x.jsonl"],
        ["export", "{file}", "--no-cache"],
        ["sweep", "run", "{config}", "--out", "{file}", "--no-cache"],
    ], ids=["run-cache-dir", "cache-ls", "log-json", "export", "sweep-out"])
    def test_exits_2_with_one_error_line(self, argv, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        config = tmp_path / "grid.toml"
        config.write_text('[defaults]\nanalyses = ["fig8"]\n'
                          '[[cells]]\nname = "a"\n', encoding="utf-8")
        argv = [arg.format(file=blocker, config=config) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(blocker) in err[0]


class TestSweepMain:
    def _config(self, tmp_path):
        config = tmp_path / "grid.toml"
        config.write_text(
            'name = "cli"\n'
            '[defaults]\nanalyses = ["fig8"]\n'
            '[grid]\nfaults = ["off", "paper"]\n', encoding="utf-8")
        return config

    def test_sweep_analyses_lists_registry(self, capsys):
        assert main(["sweep", "analyses"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "ablation_density" in out

    def test_sweep_cells_dry_run(self, capsys, tmp_path):
        assert main(["sweep", "cells", str(self._config(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "faults_off" in out and "faults_paper" in out
        assert "group" in out

    def test_sweep_run_then_report(self, capsys, tmp_path):
        config = self._config(tmp_path)
        out_dir = tmp_path / "out"
        cache = tmp_path / "cache"
        assert main(["sweep", "run", str(config), "--out", str(out_dir),
                     "--cache-dir", str(cache)]) == 0
        run_out = capsys.readouterr().out
        assert "2 cells" in run_out
        assert (out_dir / "sweep.json").exists()
        assert main(["sweep", "report", str(out_dir)]) == 0
        report_out = capsys.readouterr().out
        assert "faults_off vs faults_paper" in report_out

    def test_sweep_bad_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "broken.toml"
        config.write_text("[grid\n", encoding="utf-8")
        assert main(["sweep", "run", str(config)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCacheMain:
    def test_clear_dry_run_older_than(self, capsys, tmp_path):
        assert main(["cache", "clear", "--cache-dir", str(tmp_path),
                     "--older-than", "30", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 0 cache entries older than 30 days" in out

    def test_pruning_flags_rejected_outside_clear(self, capsys, tmp_path):
        assert main(["cache", "ls", "--cache-dir", str(tmp_path),
                     "--older-than", "3"]) == 2
        err = capsys.readouterr().err
        assert "only apply to 'cache clear'" in err

    def test_pruning_flags_rejected_by_verify(self, capsys, tmp_path):
        assert main(["cache", "verify", "--cache-dir", str(tmp_path),
                     "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert "only apply to 'cache clear'" in err

    def test_verify_flags_rejected_by_clear(self, capsys, tmp_path):
        from repro import ArtifactCache, Scenario

        cache = ArtifactCache(tmp_path)
        cache.put_object("probe", Scenario.smoke_scale(), 1)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path),
                     "--repair", "--shallow"]) == 2
        err = capsys.readouterr().err
        assert "only apply to 'cache verify'" in err
        assert len(cache.entries()) == 1
