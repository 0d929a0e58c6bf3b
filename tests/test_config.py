"""Tests for scenario configuration and deterministic randomness."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import DEFAULT_SCENARIO, RandomState, Scenario
from repro.errors import ConfigurationError


class TestRandomState:
    def test_same_stream_name_same_draws(self):
        rs = RandomState(42)
        a = rs.stream("alpha").random(8)
        b = rs.stream("alpha").random(8)
        assert np.array_equal(a, b)

    def test_different_stream_names_differ(self):
        rs = RandomState(42)
        a = rs.stream("alpha").random(8)
        b = rs.stream("beta").random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomState(1).stream("x").random(8)
        b = RandomState(2).stream("x").random(8)
        assert not np.array_equal(a, b)

    def test_child_is_deterministic(self):
        a = RandomState(7).child("c").stream("s").random(4)
        b = RandomState(7).child("c").stream("s").random(4)
        assert np.array_equal(a, b)

    def test_child_differs_from_parent(self):
        parent = RandomState(7)
        child = parent.child("c")
        assert child.seed != parent.seed

    def test_empty_stream_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomState(1).stream("")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomState(-1)


class TestScenario:
    def test_default_is_valid(self):
        assert DEFAULT_SCENARIO.nep_site_count > 500

    def test_trace_minutes(self):
        sc = Scenario(trace_days=2)
        assert sc.trace_minutes == 2 * 24 * 60

    def test_with_overrides_returns_new_instance(self):
        sc = Scenario().with_overrides(trace_days=3)
        assert sc.trace_days == 3
        assert DEFAULT_SCENARIO.trace_days != 3 or True  # original untouched
        assert Scenario().trace_days == 28

    def test_rejects_non_positive_fields(self):
        with pytest.raises(ConfigurationError):
            Scenario(trace_days=0)
        with pytest.raises(ConfigurationError):
            Scenario(participant_count=-5)

    def test_rejects_inverted_server_range(self):
        with pytest.raises(ConfigurationError):
            Scenario(nep_servers_per_site_min=50, nep_servers_per_site_max=10)

    def test_rejects_misaligned_prediction_window(self):
        with pytest.raises(ConfigurationError):
            Scenario(cpu_interval_minutes=7)

    def test_rejects_bandwidth_interval_not_dividing_a_day(self):
        with pytest.raises(ConfigurationError, match="bw_interval_minutes"):
            Scenario(bw_interval_minutes=7)
        assert Scenario(bw_interval_minutes=60).bw_interval_minutes == 60

    def test_paper_scale_matches_paper(self):
        sc = Scenario.paper_scale()
        assert sc.trace_days == 92          # 3 months
        assert sc.cpu_interval_minutes == 1  # 1-minute readings

    def test_smoke_scale_is_smaller(self):
        smoke, full = Scenario.smoke_scale(), Scenario()
        assert smoke.nep_vm_count < full.nep_vm_count
        assert smoke.trace_days < full.trace_days

    def test_city_scale_is_the_big_tier(self):
        city, paper = Scenario.city_scale(), Scenario.paper_scale()
        assert city.nep_vm_count == 1_000_000
        assert city.azure_vm_count == 1_000_000
        assert city.nep_site_count == 4000
        assert city.trace_days == 92
        assert city.cpu_interval_minutes == 1
        assert city.nep_vm_count > paper.nep_vm_count

    def test_city_scale_accepts_overrides(self):
        shrunk = Scenario.city_scale().with_overrides(
            nep_vm_count=400, azure_vm_count=400, nep_site_count=60,
            seed=5)
        assert shrunk.seed == 5
        assert shrunk.nep_vm_count == 400
        assert shrunk.trace_days == 92  # keeps the tier's resolution

    def test_random_property_reproducible(self):
        sc = Scenario(seed=99)
        a = sc.random.stream("s").random(4)
        b = sc.random.stream("s").random(4)
        assert np.array_equal(a, b)

    def test_scenario_is_frozen(self):
        with pytest.raises(AttributeError):
            Scenario().trace_days = 10  # type: ignore[misc]


def test_every_scenario_field_is_read():
    """A knob no code outside ``config.py`` reads is not a knob."""
    package = Path(repro.__file__).parent
    read = set()
    for path in package.rglob("*.py"):
        if path == package / "config.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    unread = [f.name for f in dataclasses.fields(Scenario)
              if f.name not in read]
    assert unread == []
