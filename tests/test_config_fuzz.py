"""Input fuzzing of the scenario and sweep-spec entry points.

Whatever a user writes into ``--set``-style overrides or a sweep config,
the library either accepts it as a valid scenario or rejects it with a
:class:`~repro.errors.ReproError` — never a raw ``TypeError`` or
``ValueError`` from deep inside, and never a scenario that only fails
once an engine runs.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Scenario
from repro.errors import ReproError
from repro.study import scenario_for
from repro.sweep.spec import SweepSpec, parse_sweep_spec

FIELDS = [spec.name for spec in dataclasses.fields(Scenario)]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 10**6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["smoke", "paper", "off", "harsh", "fig2a", "lru",
                     "throughput", "on"]),
)
values = st.one_of(scalars, st.lists(scalars, max_size=2),
                   st.dictionaries(st.text(max_size=3), scalars,
                                   max_size=2))
#: Knob values near the valid ranges, so that some scenarios pass.
knobs = st.one_of(st.integers(-2, 400), st.floats(-1.0, 60.0), scalars)
keys = st.one_of(st.sampled_from(FIELDS), st.text(max_size=6))
overrides = st.dictionaries(keys, knobs, max_size=4)


def assert_valid(scenario: Scenario) -> None:
    """Every field of an accepted scenario has its annotated kind."""
    for spec in dataclasses.fields(Scenario):
        value = getattr(scenario, spec.name)
        assert not isinstance(value, bool), spec.name
        if spec.type == "int":
            assert isinstance(value, int), spec.name
        elif spec.type == "float":
            assert math.isfinite(value), spec.name
        else:
            assert isinstance(value, str), spec.name


class TestScenarioOverrides:
    @settings(max_examples=300, deadline=None)
    @given(overrides)
    def test_accepts_or_raises_repro_error(self, changes):
        try:
            scenario = scenario_for("smoke", overrides=changes)
        except ReproError:
            return
        assert_valid(scenario)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FIELDS), scalars)
    def test_single_field_accepts_or_raises_repro_error(self, name, value):
        try:
            scenario = scenario_for("smoke", overrides={name: value})
        except ReproError:
            return
        assert_valid(scenario)


def valid_or_junk(valid):
    """Mostly a valid value for one spec key, sometimes anything."""
    return st.sampled_from([valid, valid, valid, values]).flatmap(
        lambda strategy: strategy)


CELL_KEYS = {
    "scale": valid_or_junk(st.sampled_from(["smoke", "paper", "city"])),
    "seed": valid_or_junk(st.integers(-1, 99)),
    "faults": valid_or_junk(st.sampled_from(["off", "paper", "storm"])),
    "jobs": valid_or_junk(st.integers(-1, 4)),
    "overrides": valid_or_junk(overrides),
}
analyses = valid_or_junk(st.lists(
    st.sampled_from(["fig2a", "table3", "nope"]), min_size=1, max_size=2))
#: Specs with the right skeleton (defaults with analyses, uniquely
#: named cells, an optional grid) and fuzzed leaves.
shaped_specs = st.fixed_dictionaries({
    "defaults": st.fixed_dictionaries({"analyses": analyses},
                                      optional=CELL_KEYS),
    "cells": st.lists(
        st.fixed_dictionaries({"name": st.text(max_size=4)},
                              optional=CELL_KEYS),
        min_size=1, max_size=3, unique_by=lambda cell: cell["name"]),
}, optional={
    "grid": st.fixed_dictionaries({}, optional={
        "seed": valid_or_junk(st.lists(st.integers(-1, 99), min_size=1,
                                       max_size=2)),
        "faults": valid_or_junk(st.lists(
            st.sampled_from(["off", "paper"]), min_size=1, max_size=2)),
        "overrides": valid_or_junk(st.dictionaries(
            keys, st.lists(knobs, min_size=1, max_size=2), max_size=2)),
    }),
})
#: Anything at all in the spec's top-level slots.
junk_specs = st.fixed_dictionaries({}, optional={
    key: values for key in ("name", "defaults", "grid", "cells", "extra")})


def assert_parses_or_rejects(data: dict) -> None:
    try:
        spec = parse_sweep_spec(data)
    except ReproError:
        return
    assert isinstance(spec, SweepSpec) and spec.cells
    for cell in spec.cells:
        # The name becomes cells/<name>/: it must stay a plain file name.
        assert cell.name and not cell.name.startswith("."), cell.name
        assert not any(c in cell.name for c in "/\\\0"), cell.name
        assert_valid(cell.scenario())


class TestSweepSpec:
    @settings(max_examples=300, deadline=None)
    @given(shaped_specs)
    def test_shaped_spec_parses_or_raises_repro_error(self, data):
        assert_parses_or_rejects(data)

    @settings(max_examples=200, deadline=None)
    @given(junk_specs)
    def test_junk_spec_raises_repro_error(self, data):
        assert_parses_or_rejects(data)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FIELDS), scalars)
    def test_override_values_checked_at_load(self, name, value):
        assert_parses_or_rejects({
            "defaults": {"analyses": ["fig2a"], "overrides": {name: value}},
            "cells": [{"name": "only"}]})
