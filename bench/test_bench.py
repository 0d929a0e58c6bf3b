"""Self-tests of the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spans  # noqa: E402
from summary import spread, summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_summarize_median_and_quartiles():
    stats = summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert stats == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert spread(stats) == pytest.approx(1.0)
    assert summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    with pytest.raises(ValueError):
        summarize([])


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    end_to_end, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in end_to_end + per_layer])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_predicts_existing_metrics_and_workloads():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert [m["name"] for m in SPEC["per_layer"]] \
        == list(spans.PREDICTIONS)
    for moves, steady in spans.PREDICTIONS.values():
        for metric, workload in moves:
            assert metric in end_to_end and workload in WORKLOADS
        assert set(steady) <= set(WORKLOADS)


def test_layer_metrics_cover_benchmark_json():
    computed = spans.layer_metrics(spans.Tracer(), 0.0, [], 0.0)
    computed["obs.trace_overhead_pct"] = 0.0
    assert sorted(computed) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("wrap", spans.WRAPS, ids=lambda w: w.target)
def test_wrap_targets_resolve_to_callables(wrap):
    _, _, original = spans.resolve(wrap.target)
    assert callable(original)


def test_self_time_on_synthetic_tree():
    def span(id_, name, parent, start, end):
        return {"id": id_, "name": name, "parent": parent, "start": start,
                "end": end}

    tree = [span(0, "root", None, 0.0, 10.0),
            span(1, "a", 0, 1.0, 4.0),
            span(2, "a", 1, 2.0, 3.0),
            span(3, "b", 0, 5.0, 6.0)]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
    assert spans.total(tree, "a") == 3.0  # the nested "a" counts once
    assert spans.total(tree, "a", "b") == 4.0
    assert spans.self_total(tree, spans.self_times(tree), "a") == 3.0


def test_wrapper_spans_each_next_of_a_generator():
    tracer = spans.Tracer()

    def numbers():
        yield from range(3)

    wrapped = spans._wrapper(numbers, spans.Wrap("x:y", "gen"), tracer)
    assert list(wrapped()) == [0, 1, 2]
    assert [s["name"] for s in tracer.spans] == ["gen"] * 4
    assert len({s["call"] for s in tracer.spans}) == 1


def test_verdicts():
    def stats(values):
        return {**summarize(values), "values": values}

    steady = stats([10.0, 10.1, 9.9, 10.0])
    assert compare.verdict(steady, stats([10.2, 10.3, 10.1, 10.2]), 0.1,
                           "lower") == "within bound"
    assert compare.verdict(steady, stats([12.0, 12.1, 11.9, 12.0]), 0.1,
                           "lower") == "worse"
    assert compare.verdict(steady, stats([12.0, 12.1, 11.9, 12.0]), 0.1,
                           "higher") == "better"
    noisy = stats([8.0, 10.0, 12.0, 14.0])
    assert compare.verdict(steady, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(steady, stats([5.0, 6.0, 8.0, 9.0]), 0.1,
                           "lower") == "better"


def test_default_seed_is_the_library_default():
    from repro.config import DEFAULT_SCENARIO

    assert DEFAULT_SEED == DEFAULT_SCENARIO.seed


def test_default_seed_digest_is_pinned_for_every_workload():
    pinned = json.loads((BENCH / "expected.json").read_text())
    assert all(str(DEFAULT_SEED) in pinned.get(name, {})
               for name in WORKLOADS)


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "engines", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
