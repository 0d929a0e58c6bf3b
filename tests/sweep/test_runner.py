"""Tests for the sweep executor (repro.sweep.runner)."""

from __future__ import annotations

import json
import tempfile

import pytest

import repro.sweep.runner as runner_mod
from repro.errors import ConfigurationError, TraceError
from repro.obs import phase_breakdown, read_journal
from repro.sweep import (load_manifest, parse_sweep_spec, run_sweep,
                         workload_group_token)


def _tiny_spec(**cell_kwargs):
    cells = [{"name": "a", "analyses": ["fig8"]},
             {"name": "b", "analyses": ["fig8"], **cell_kwargs}]
    return parse_sweep_spec({"name": "tiny", "cells": cells})


class TestGroupToken:
    def test_fault_profile_shares_a_group(self):
        spec = _tiny_spec(faults="paper")
        assert (workload_group_token(spec.cell("a"))
                == workload_group_token(spec.cell("b")))

    def test_seed_splits_groups(self):
        spec = _tiny_spec(seed=7)
        assert (workload_group_token(spec.cell("a"))
                != workload_group_token(spec.cell("b")))

    def test_override_splits_groups(self):
        spec = _tiny_spec(overrides={"nep_site_count": 9})
        assert (workload_group_token(spec.cell("a"))
                != workload_group_token(spec.cell("b")))

    def test_azure_override_splits_groups(self):
        spec = _tiny_spec(overrides={"azure_vm_count": 9})
        assert (workload_group_token(spec.cell("a"))
                != workload_group_token(spec.cell("b")))

    @pytest.mark.parametrize("overrides", [
        {"qoe_session_count": 600}, {"qoe_abr": "buffer"},
        {"live_ticks": 100}, {"live_autoscale": "off"}])
    def test_engine_override_shares_a_group(self, overrides):
        spec = _tiny_spec(overrides=overrides)
        assert (workload_group_token(spec.cell("a"))
                == workload_group_token(spec.cell("b")))


class TestRunSweep:
    def test_every_cell_ok(self, finished_sweep):
        _, result = finished_sweep
        assert result.ok
        assert {c.status for c in result.cells} == {"ok"}
        assert result.failed == ()

    def test_output_layout(self, finished_sweep):
        _, result = finished_sweep
        out = result.out_dir
        assert (out / "spec.json").exists()
        assert (out / "sweep.json").exists()
        assert (out / "sweep.jsonl").exists()
        for name in ("base", "faulty", "reseed"):
            assert (out / "cells" / name / "result.json").exists()
            assert (out / "cells" / name / "journal.jsonl").exists()

    def test_grouping_in_outcomes(self, finished_sweep):
        _, result = finished_sweep
        groups = {c.name: c.group for c in result.cells}
        assert groups["base"] == groups["faulty"]
        assert groups["base"] != groups["reseed"]

    def test_follower_served_from_shared_cache(self, finished_sweep):
        _, result = finished_sweep
        cells = result.out_dir / "cells"
        leader, _ = read_journal(cells / "base" / "journal.jsonl")
        follower, _ = read_journal(cells / "faulty" / "journal.jsonl")
        assert not phase_breakdown(leader)["workload_nep"]["cached"]
        assert phase_breakdown(follower)["workload_nep"]["cached"]

    def test_cell_results_carry_analyses(self, finished_sweep):
        _, result = finished_sweep
        payload = json.loads(
            (result.out_dir / "cells" / "base" / "result.json").read_text())
        names = [a["name"] for a in payload["analyses"]]
        assert names == ["fig8", "ablation_growth"]
        assert payload["checks_ok"] == payload["checks_total"] > 0

    def test_manifest_matches_result(self, finished_sweep):
        _, result = finished_sweep
        manifest = load_manifest(result.out_dir)
        assert manifest["sweep"] == "unit"
        assert manifest["ok"] is True
        assert [c["name"] for c in manifest["cells"]] == [
            "base", "faulty", "reseed"]

    def test_sweep_journal_merges_cells_in_spec_order(self, finished_sweep):
        _, result = finished_sweep
        events, _ = read_journal(result.out_dir / "sweep.jsonl")
        types = [e["type"] for e in events]
        assert "sweep_start" in types
        starts = [e["cell"] for e in events if e["type"] == "cell_start"]
        assert starts == ["base", "faulty", "reseed"]
        ends = [e for e in events if e["type"] == "cell_end"]
        assert all(e["status"] == "ok" for e in ends)
        assert any(e["type"] == "cell_phase" for e in events)

    def test_rerun_is_a_resume_noop(self, finished_sweep):
        spec, result = finished_sweep
        before = {
            name: (result.out_dir / "cells" / name
                   / "journal.jsonl").read_bytes()
            for name in ("base", "faulty", "reseed")
        }
        again = run_sweep(spec, result.out_dir, cache_dir=None, jobs=1)
        assert again.ok
        assert again.resumed == len(again.cells) == 3
        for name, blob in before.items():
            assert (result.out_dir / "cells" / name
                    / "journal.jsonl").read_bytes() == blob

    def test_different_spec_in_same_out_dir_rejected(self, finished_sweep):
        _, result = finished_sweep
        other = _tiny_spec(seed=3)
        with pytest.raises(ConfigurationError, match="different grid"):
            run_sweep(other, result.out_dir)

    def test_no_cache_still_completes(self, tmp_path):
        spec = _tiny_spec(faults="paper")
        result = run_sweep(spec, tmp_path / "out", cache_dir=None, jobs=1)
        assert result.ok
        events, _ = read_journal(
            tmp_path / "out" / "cells" / "b" / "journal.jsonl")
        assert not phase_breakdown(events)["workload_nep"]["cached"]

    def test_pooled_uncached_sweep_leaves_no_spill(self, tmp_path,
                                                   monkeypatch):
        # Every uncached cell spills its workloads; a worker process
        # leaves through os._exit, so only the spill's own finalizer
        # can remove what its last cells rendered.
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        spec = parse_sweep_spec({"name": "spill", "cells": [
            {"name": name, "analyses": ["fig8", "fig10"]}
            for name in ("a", "b", "c")]})
        result = run_sweep(spec, tmp_path / "out", cache_dir=None, jobs=2)
        assert result.ok
        assert not list(scratch.glob("repro-spill-*"))


class TestFailure:
    def test_failed_analysis_fails_only_its_cell(self, tmp_path,
                                                 monkeypatch):
        real = runner_mod.run_analysis

        def flaky(name, study):
            if name == "fig10":
                raise TraceError("no utilisation trace")
            return real(name, study)

        monkeypatch.setattr(runner_mod, "run_analysis", flaky)
        spec = parse_sweep_spec({"name": "partial", "cells": [
            {"name": "good", "analyses": ["fig8"]},
            {"name": "bad", "analyses": ["fig10"]}]})
        result = run_sweep(spec, tmp_path / "out", jobs=1)
        assert not result.ok
        assert result.failed == ("bad",)
        payload = json.loads(
            (tmp_path / "out" / "cells" / "bad" / "result.json").read_text())
        assert payload["status"] == "failed"
        assert payload["error"].startswith("fig10:")

    def test_resume_retries_only_failed_cells(self, tmp_path, monkeypatch):
        real = runner_mod.run_analysis

        def flaky(name, study):
            if name == "fig10":
                raise TraceError("transient")
            return real(name, study)

        monkeypatch.setattr(runner_mod, "run_analysis", flaky)
        spec = parse_sweep_spec({"name": "retry", "cells": [
            {"name": "good", "analyses": ["fig8"]},
            {"name": "bad", "analyses": ["fig10"]}]})
        first = run_sweep(spec, tmp_path / "out", jobs=1)
        assert first.failed == ("bad",)

        monkeypatch.setattr(runner_mod, "run_analysis", real)
        second = run_sweep(spec, tmp_path / "out", jobs=1)
        assert second.ok
        statuses = {c.name: c.status for c in second.cells}
        assert statuses == {"good": "resumed", "bad": "ok"}

    def test_unexpected_exception_recorded(self, tmp_path, monkeypatch):
        def boom(name, study):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(runner_mod, "run_analysis", boom)
        spec = parse_sweep_spec({"name": "crash", "cells": [
            {"name": "only", "analyses": ["fig8"]}]})
        result = run_sweep(spec, tmp_path / "out", jobs=1)
        assert not result.ok
        assert "RuntimeError: wires crossed" in result.cells[0].error
