"""The EXPERIMENTS.md renderer of the paper-claims registry
(``benchmarks/claims.py``), on stub outcomes: no study is built."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.core.ablations import ABLATIONS, AblationOutcome
from repro.core.report import check_ordering
from repro.reports import REPORTS

CLAIMS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "claims.py"


@pytest.fixture(scope="module")
def claims():
    spec = importlib.util.spec_from_file_location("bench_claims", CLAIMS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_claims"] = module
    spec.loader.exec_module(module)
    return module


def _stub(name: str, tables: tuple[str, ...], holds: tuple[bool, ...]):
    checks = tuple(check_ordering(f"{name} check {i}", "paper", ok, "measured")
                   for i, ok in enumerate(holds))
    return AblationOutcome(name, tables, checks, {}, f"{name} vs paper")


@pytest.fixture()
def outcomes() -> dict[str, AblationOutcome]:
    return {
        "fig6": _stub("fig6", ("Figure 6(a) — networks\nrow a",
                               "Figure 6(b) — devices\nrow b"),
                      (True, True)),
        "table1": _stub("table1", ("Table 1 — density\nrow",),
                        (True, False, True)),
        "ablation-mec": _stub("ablation-mec", ("Ablation — MEC\nrow",),
                              (True,)),
    }


def test_header_counts_every_check_and_block(claims, outcomes):
    text = claims.render(outcomes)
    assert re.search(r"\*\*5/6 checks hold\*\* across 3\s+claims", text)
    assert len(re.findall(r"^\[OK \] ", text, re.M)) == 5
    assert len(re.findall(r"^\[DIFF\] ", text, re.M)) == 1
    assert len(re.findall(r"^-- \d+/\d+ checks hold --$", text, re.M)) == 3


def test_every_table_of_an_outcome_is_kept(claims, outcomes):
    [block] = [block for block in claims.render(outcomes).split("\n---\n")
               if "fig6 vs paper" in block]
    assert "Figure 6(a) — networks\nrow a\n\nFigure 6(b)" in block


def test_blocks_come_out_in_registry_order(claims, outcomes):
    text = claims.render(outcomes)
    starts = [text.index(f"== {name} vs paper ==") for name in outcomes]
    assert starts == sorted(starts)
    reordered = dict(reversed(list(outcomes.items())))
    text = claims.render(reordered)
    starts = [text.index(f"== {name} vs paper ==") for name in reordered]
    assert starts == sorted(starts)


def test_registry_follows_reports_then_sessions_then_ablations(claims):
    names = list(claims.CLAIMS)
    reports = [name for name in REPORTS if name in claims.CLAIMS]
    ablations = [f"ablation-{name}" for name in ABLATIONS]
    assert names == reports + ablations
    assert reports[-1] == "qoe-sessions"
    assert len(reports) == 20


def test_freshness_fails_on_a_one_byte_stale_text(claims, outcomes):
    text = claims.render(outcomes)
    assert claims.stale_message(text, text) is None
    at = text.index("row b") + 4
    stale = text[:at] + "c" + text[at + 1:]
    message = claims.stale_message(text, stale)
    assert message is not None
    assert "python scripts/update_experiments.py" in message
    assert "row b" in message and "row c" in message
    assert claims.stale_message(text, text[:-1]) is not None
    assert claims.stale_message(text, text + "\n") is not None
