"""Tests for the event-driven live-platform engine (repro.live).

The heart of the file is the twin-stepper contract: the vectorized
engine and the scalar per-server reference must produce bit-identical
per-tick series (and therefore digests) from the same precomputed
inputs — clean, fault-interleaved, autoscaling on or off — on the
pinned scenarios below and on randomized small fleets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache
from repro.errors import ConfigurationError, TopologyError
from repro.faults.schedule import (
    FaultSchedule,
    OutageWindow,
    ServerCrash,
    build_fault_schedule,
)
from repro.live import (
    LiveInputs,
    build_live_inputs,
    demand_curve,
    run_live,
    run_live_engine,
    run_reference_engine,
)
from repro.live.engine import _largest_remainder
from repro.obs import RunJournal
from repro.platform.cloud import build_cloud_platform
from repro.platform.nep import build_nep_platform
from repro.resilience import chaos_spec, install, reset
from repro.study import EdgeStudy, scenario_for


def inputs_for(scenario):
    """The inputs :func:`run_live` steps: topology plus fault weather."""
    platform = build_nep_platform(scenario)
    faults = None
    if scenario.fault_profile != "off":
        faults = build_fault_schedule(
            scenario, platform,
            build_cloud_platform(scenario, name="AliCloud",
                                 servers_per_region=4))
    return build_live_inputs(scenario, platform, faults)


def assert_fleet_balance(result):
    """Every tick: active = previous - displaced - departures + admitted."""
    s = result.series
    previous = 0
    for t in range(result.ticks):
        expected = (previous - s["displaced"][t] - s["departures"][t]
                    + s["admitted"][t])
        assert s["active"][t] == expected, f"tick {t}"
        previous = s["active"][t]


@pytest.fixture(scope="module")
def scenario():
    return scenario_for("smoke", seed=7)


@pytest.fixture(scope="module")
def platform(scenario):
    return build_nep_platform(scenario)


@pytest.fixture(scope="module")
def inputs(scenario, platform):
    return build_live_inputs(scenario, platform)


class TestLiveInventory:
    def test_shapes_consistent(self, platform):
        site_of, slots, site_ids, server_ids = platform.live_inventory()
        assert site_of.shape == slots.shape == (len(server_ids),)
        assert len(site_ids) == len(platform.sites)
        assert len(server_ids) == platform.server_count
        assert (slots >= 1).all()

    def test_servers_contiguous_per_site(self, platform):
        site_of, _, _, _ = platform.live_inventory()
        # site order is non-decreasing: one site = one index range
        assert (np.diff(site_of) >= 0).all()

    def test_rejects_bad_slot_size(self, platform):
        with pytest.raises(TopologyError):
            platform.live_inventory(cores_per_slot=0)


class TestInputs:
    def test_all_draws_precomputed(self, inputs, scenario):
        assert inputs.ticks == scenario.live_ticks
        assert inputs.arrivals.shape == (inputs.ticks,)
        assert (inputs.arrivals >= 0).all()
        assert inputs.transitions == ()  # faults off

    def test_demand_curve_modulates(self, scenario):
        factor = demand_curve(scenario)
        assert factor.shape == (scenario.live_ticks,)
        assert (factor > 0).all()
        # flash crowds push some window above the diurnal ceiling
        assert factor.max() > 1.0 + scenario.live_diurnal_amplitude

    def test_empty_platform_rejected(self, scenario):
        from repro.platform.cluster import Platform
        from repro.platform.entities import PlatformKind

        empty = Platform(name="none", kind=PlatformKind.EDGE)
        with pytest.raises(ConfigurationError):
            build_live_inputs(scenario, empty)


class TestTwinSteppers:
    def test_vectorized_matches_reference(self, inputs):
        vec = run_live_engine(inputs)
        ref = run_reference_engine(inputs)
        assert vec.digest == ref.digest
        for name, series in vec.series.items():
            np.testing.assert_array_equal(series, ref.series[name],
                                          err_msg=name)

    def test_rerun_is_bit_identical(self, inputs):
        assert run_live_engine(inputs).digest == \
            run_live_engine(inputs).digest

    def test_matches_under_overload(self):
        # arrivals far beyond capacity stress allocation tie-breaking
        scenario = scenario_for("smoke", seed=11, overrides={
            "nep_site_count": 3, "live_ticks": 60,
            "live_arrival_rate": 900.0})
        inputs = build_live_inputs(scenario, build_nep_platform(scenario))
        vec = run_live_engine(inputs)
        ref = run_reference_engine(inputs)
        assert vec.digest == ref.digest
        assert int(vec.series["rejected"].sum()) > 0

    def test_matches_with_faults(self):
        inputs = inputs_for(scenario_for("smoke", seed=7, faults="paper"))
        assert inputs.transitions  # the profile produced fault weather
        vec = run_live_engine(inputs)
        ref = run_reference_engine(inputs)
        assert vec.digest == ref.digest
        assert vec.fault_ticks == ref.fault_ticks
        assert int(vec.series["down_servers"].sum()) > 0

    # Coarse ticks stretch 60 ticks over days, so the fault profiles
    # actually produce outages and evacuations on a few-site fleet.
    @settings(max_examples=250, deadline=None)
    @given(seed=st.integers(0, 2**16),
           sites=st.integers(2, 5),
           ticks=st.integers(1, 60),
           tick_minutes=st.sampled_from([1, 30, 120, 240]),
           arrival=st.floats(0.5, 900.0),
           lifetime=st.integers(1, 600),
           autoscale=st.sampled_from(["on", "off"]),
           flash_crowds=st.integers(0, 3),
           faults=st.sampled_from(["off", "paper", "harsh"]))
    def test_randomized_fleets_match_reference(
            self, seed, sites, ticks, tick_minutes, arrival, lifetime,
            autoscale, flash_crowds, faults):
        scenario = scenario_for("smoke", seed=seed, faults=faults,
                                overrides={
                                    "nep_site_count": sites,
                                    "live_ticks": ticks,
                                    "live_tick_minutes": tick_minutes,
                                    "live_arrival_rate": arrival,
                                    "live_mean_lifetime_ticks": lifetime,
                                    "live_autoscale": autoscale,
                                    "live_flash_crowds": flash_crowds})
        inputs = inputs_for(scenario)
        vec = run_live_engine(inputs)
        ref = run_reference_engine(inputs)
        assert vec.digest == ref.digest
        assert vec.fault_ticks == ref.fault_ticks
        assert_fleet_balance(vec)


def _argsort_split(total, free):
    """The sort-based largest-remainder split ``_largest_remainder``
    replaced: a stable argsort of the negated remainders."""
    out = np.zeros(free.size, dtype=np.int64)
    capacity = int(free.sum())
    placed = min(total, capacity)
    if placed <= 0:
        return out
    scaled = free * placed
    np.floor_divide(scaled, capacity, out=out)
    leftover = placed - int(out.sum())
    if leftover > 0:
        remainder = scaled - out * capacity
        out[np.argsort(-remainder, kind="stable")[:leftover]] += 1
    return out


def _leftover_and_nonzero(total, free):
    """``(leftover, non-zero remainders)`` of one split."""
    capacity = int(free.sum())
    scaled = free * min(total, capacity)
    floors = scaled // capacity
    remainder = scaled - floors * capacity
    return (min(total, capacity) - int(floors.sum()),
            int(np.count_nonzero(remainder)))


_FREE_SLOTS = st.one_of(
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
    # all-equal weights: every remainder ties
    st.tuples(st.integers(1, 40), st.integers(1, 60)).map(
        lambda pair: [pair[0]] * pair[1]),
    # mostly-zero weights: a few small ties among many empty servers
    st.lists(st.integers(0, 30), min_size=1, max_size=80).map(
        lambda values: [v - 26 if v > 26 else 0 for v in values]),
)


class TestLargestRemainder:
    """The select-based split against the stable-argsort one."""

    @settings(max_examples=200, deadline=None)
    @given(free=_FREE_SLOTS, data=st.data())
    def test_matches_stable_argsort(self, free, data):
        free = np.array(free, dtype=np.int64)
        total = data.draw(st.integers(0, int(free.sum()) + 5))
        np.testing.assert_array_equal(_largest_remainder(total, free),
                                      _argsort_split(total, free))

    @pytest.mark.parametrize("free", [
        [5] * 12,
        [1, 1, 1],
        [0] * 30 + [3] + [0] * 10 + [3, 1] + [0] * 5,
        [2, 0, 2, 0, 2, 0, 1, 1, 7, 0, 2],
    ])
    def test_every_total_on_tied_fleets(self, free):
        free = np.array(free, dtype=np.int64)
        shapes = set()
        for total in range(int(free.sum()) + 3):
            np.testing.assert_array_equal(
                _largest_remainder(total, free),
                _argsort_split(total, free), err_msg=f"total {total}")
            shapes.add(_leftover_and_nonzero(total, free))
        # the sweep reaches one +1 to place, and one fewer +1 than
        # there are non-zero remainders
        assert any(leftover == 1 for leftover, _ in shapes)
        assert any(leftover == nonzero - 1 > 0
                   for leftover, nonzero in shapes)


class TestConservation:
    def test_fleet_balance_per_tick(self, inputs):
        assert_fleet_balance(run_live_engine(inputs))

    def test_admission_bounded_by_arrivals(self, inputs):
        result = run_live_engine(inputs)
        s = result.series
        assert (s["admitted"] <= s["arrivals"]).all()
        assert (s["rejected"] == s["arrivals"] - s["admitted"]).all()
        assert (s["rejected"] >= 0).all()

    def test_active_never_negative(self, inputs):
        result = run_live_engine(inputs)
        assert (result.series["active"] >= 0).all()


class TestAutoscale:
    @pytest.fixture(scope="class")
    def pressured(self):
        """A small fleet under enough load to trip the scale-up EWMA."""
        return {"nep_site_count": 3, "live_ticks": 120,
                "live_arrival_rate": 400.0, "live_mean_lifetime_ticks": 600}

    def test_on_grows_capacity(self, pressured):
        on = run_live(scenario_for("smoke", seed=3, overrides=pressured))
        off = run_live(scenario_for("smoke", seed=3, overrides={
            **pressured, "live_autoscale": "off"}))
        assert on.series["capacity"].max() > off.series["capacity"].max()
        assert int(on.series["admitted"].sum()) >= \
            int(off.series["admitted"].sum())

    def test_off_capacity_is_flat(self, pressured):
        off = run_live(scenario_for("smoke", seed=3, overrides={
            **pressured, "live_autoscale": "off"}))
        # no faults and no autoscale: up-capacity never moves
        assert len(set(off.series["capacity"].tolist())) == 1

    def test_modes_match_reference(self, pressured):
        scenario = scenario_for("smoke", seed=3, overrides={
            **pressured, "live_autoscale": "off"})
        inputs = build_live_inputs(scenario, build_nep_platform(scenario))
        assert not inputs.autoscale
        assert run_live_engine(inputs).digest == \
            run_reference_engine(inputs).digest


class TestRunLive:
    def test_chaos_is_behaviour_identical(self, scenario, tmp_path):
        # Through a cached study, where the ci profile reaches the live
        # entry's commit: its cache.commit rule fires on the first hit.
        clean = run_live(scenario)
        install(chaos_spec("ci"))
        try:
            with RunJournal(None) as journal:
                chaotic = EdgeStudy(scenario, cache=ArtifactCache(tmp_path),
                                    journal=journal).live
        finally:
            reset()
        retries = [e for e in journal.events if e["type"] == "cache_retry"]
        assert [e["artifact"] for e in retries] == ["live"]
        assert clean.digest == chaotic.digest

    def test_journal_summary_event(self, scenario):
        with RunJournal(None) as journal:
            result = run_live(scenario, journal=journal)
            journal.close()
        summaries = [e for e in journal.events
                     if e["type"] == "live_summary"]
        assert len(summaries) == 1
        assert summaries[0]["digest"] == result.digest
        assert summaries[0]["ticks"] == result.ticks
        types = [e["type"] for e in journal.events]
        assert types.count("live_tick") == scenario.live_ticks

    def test_fault_events_are_canonical(self):
        from repro.obs import canonical_events

        scenario = scenario_for("smoke", seed=7, faults="paper")
        with RunJournal(None) as journal:
            result = run_live(scenario, journal=journal)
            journal.close()
        assert result.fault_ticks
        kept = [e["type"] for e in canonical_events(journal.events)]
        assert "live_fault" in kept       # divergence stays visible
        assert "live_tick" not in kept    # telemetry canonicalizes away

    def test_metrics_are_flat_floats(self, scenario):
        metrics = run_live(scenario).metrics()
        assert metrics
        assert all(isinstance(v, float) for v in metrics.values())
        assert metrics["live_peak_active"] > 0

    def test_format_renders(self, scenario):
        text = run_live(scenario).format()
        assert "Live platform run" in text
        assert "digest:" in text


class TestTickTransitions:
    def _schedule(self, outages=(), crashes=()):
        return FaultSchedule(
            profile_name="paper", horizon_minutes=10_000.0,
            outages=list(outages), crashes=list(crashes), episodes=[],
            edge_site_ids=("site-1",), cloud_site_ids=())

    def test_outage_lowered_to_site_range(self):
        schedule = self._schedule(
            outages=[OutageWindow("site-1", 10.5, 12.0)])
        events = schedule.tick_transitions(
            1, 100, {"site-1": (0, 4)}, {})
        # covers() is half-open on minutes: ticks 11 covered, 12 not
        assert events == [(11, 0, 4, 1), (12, 0, 4, -1)]

    def test_crash_lowered_to_single_server(self):
        schedule = self._schedule(
            crashes=[ServerCrash("srv-b", "site-1", 5.0, 8.0)])
        events = schedule.tick_transitions(
            1, 100, {}, {"srv-b": 7})
        assert events == [(5, 7, 8, 1), (8, 7, 8, -1)]

    def test_unknown_sites_and_servers_skipped(self):
        schedule = self._schedule(
            outages=[OutageWindow("cloud-1", 0.0, 50.0)],
            crashes=[ServerCrash("cloud-srv", "cloud-1", 0.0, 50.0)])
        assert schedule.tick_transitions(1, 100, {}, {}) == []

    def test_open_ended_window_has_no_up_event(self):
        schedule = self._schedule(
            outages=[OutageWindow("site-1", 90.0, 500.0)])
        events = schedule.tick_transitions(1, 100, {"site-1": (0, 2)}, {})
        assert events == [(90, 0, 2, 1)]

    def test_rejects_bad_grid(self):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            self._schedule().tick_transitions(0, 100, {}, {})


class TestLiveInputsSlicing:
    def test_prefix_slice_matches_prefix_of_full_run(self, inputs):
        """The bench's reference-slice trick is sound: a truncated run
        reproduces the prefix of the full run exactly."""
        import dataclasses

        full = run_live_engine(inputs)
        prefix = dataclasses.replace(
            inputs, ticks=50, arrivals=inputs.arrivals[:50],
            transitions=tuple(t for t in inputs.transitions if t[0] < 50))
        assert isinstance(prefix, LiveInputs)
        short = run_live_engine(prefix)
        for name, series in short.series.items():
            np.testing.assert_array_equal(series, full.series[name][:50],
                                          err_msg=name)
