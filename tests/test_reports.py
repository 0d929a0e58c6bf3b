"""Report rendering that must not depend on the interpreter's hash seed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.study import EdgeStudy, scenario_for

#: A smoke-scale seed whose busiest NEP province has several sites tied
#: for the most VMs, so fig11's site choice hinges on the tie-break.
TIED_SEED = 35

_RENDER_FIG11 = (
    "from repro.reports import REPORTS\n"
    "from repro.study import EdgeStudy, scenario_for\n"
    f"print(REPORTS['fig11'](EdgeStudy(scenario_for('smoke', {TIED_SEED}))))\n"
)


def _render_fig11(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", _RENDER_FIG11], env=env,
                          capture_output=True, text=True, check=True).stdout


class TestFig11TieBreak:
    def test_scenario_has_a_tie(self):
        dataset = EdgeStudy(scenario_for("smoke", TIED_SEED)).nep.dataset
        by_province: dict[str, set] = {}
        for vm in dataset.vms.values():
            by_province.setdefault(vm.province, set()).add(vm.site_id)
        province = max(by_province, key=lambda p: len(by_province[p]))
        counts = [len(dataset.vms_on_site(s)) for s in by_province[province]]
        assert counts.count(max(counts)) >= 2

    def test_text_independent_of_hash_seed(self):
        # These two hash seeds picked different tied sites before ties
        # were broken by site id.
        assert _render_fig11("0") == _render_fig11("2")


class TestImportedTraceReports:
    """A trace saved and loaded back (dict-backed rows whose row stats
    fill on first use) prints the reports the generated trace prints
    from the stats its render computed."""

    REPORTS = ("fig10", "fig12", "fig13", "table3", "categories")

    def test_round_trip_prints_the_same_reports(self, study, tmp_path):
        from repro.reports import REPORTS
        from repro.trace.io import load_dataset, save_dataset
        from repro.workload.generator import GeneratedWorkload

        # Fresh studies, so both draw NEP city prices from a new book.
        generated = EdgeStudy(study.scenario)
        imported = EdgeStudy(study.scenario)
        for name in ("nep", "azure"):
            workload = getattr(study, name)
            assert workload.dataset._row_stats is not None
            dataset = load_dataset(
                save_dataset(workload.dataset, tmp_path / name))
            assert dataset._row_stats is None
            generated.__dict__[name] = workload
            imported.__dict__[name] = GeneratedWorkload(
                platform=workload.platform, dataset=dataset)
        for report in self.REPORTS:
            assert REPORTS[report](imported) == REPORTS[report](generated), \
                report
        assert imported.nep.dataset._row_stats is not None
