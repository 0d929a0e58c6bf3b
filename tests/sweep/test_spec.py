"""Tests for sweep grid specs (repro.sweep.spec)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.sweep import load_sweep_spec, parse_sweep_spec


class TestGridExpansion:
    def test_cartesian_product_with_auto_names(self):
        spec = parse_sweep_spec({
            "defaults": {"analyses": ["fig8"]},
            "grid": {"seed": [1, 2], "faults": ["off", "paper"]},
        })
        assert [c.name for c in spec.cells] == [
            "seed1-faults_off", "seed1-faults_paper",
            "seed2-faults_off", "seed2-faults_paper"]
        assert {c.seed for c in spec.cells} == {1, 2}
        assert all(c.analyses == ("fig8",) for c in spec.cells)

    def test_single_combination_named_cell(self):
        spec = parse_sweep_spec({
            "defaults": {"analyses": ["fig8"]},
            "grid": {"seed": [9]},
        })
        assert [c.name for c in spec.cells] == ["cell"]
        assert spec.cells[0].seed == 9

    def test_fixed_axes_stay_out_of_names(self):
        # Only axes with more than one value contribute to auto-names.
        spec = parse_sweep_spec({
            "defaults": {"analyses": ["fig8"]},
            "grid": {"scale": ["smoke"], "seed": [1, 2]},
        })
        assert [c.name for c in spec.cells] == ["seed1", "seed2"]

    def test_override_axis(self):
        spec = parse_sweep_spec({
            "defaults": {"analyses": ["fig8"]},
            "grid": {"overrides": {"nep_site_count": [10, 20]}},
        })
        assert [c.name for c in spec.cells] == [
            "nep_site_count10", "nep_site_count20"]
        assert spec.cells[0].overrides == (("nep_site_count", 10),)

    def test_defaults_inherited_by_grid_and_cells(self):
        spec = parse_sweep_spec({
            "defaults": {"scale": "smoke", "jobs": 2,
                         "analyses": ["fig8"]},
            "grid": {"faults": ["off", "paper"]},
            "cells": [{"name": "extra", "seed": 5}],
        })
        assert all(c.scale == "smoke" and c.jobs == 2 for c in spec.cells)
        assert spec.cell("extra").seed == 5

    def test_explicit_cell_gets_index_name(self):
        spec = parse_sweep_spec({
            "cells": [{"analyses": ["fig8"]}],
        })
        assert spec.cells[0].name == "cell0"

    def test_string_analyses_coerced_to_list(self):
        spec = parse_sweep_spec({
            "cells": [{"name": "one", "analyses": "fig8"}],
        })
        assert spec.cell("one").analyses == ("fig8",)

    def test_cell_lookup_unknown_name(self):
        spec = parse_sweep_spec({"cells": [{"name": "a",
                                            "analyses": ["fig8"]}]})
        with pytest.raises(ConfigurationError, match="no cell"):
            spec.cell("b")


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="top-level"):
            parse_sweep_spec({"grids": {}})

    def test_no_cells_declared(self):
        with pytest.raises(ConfigurationError, match="declares no cells"):
            parse_sweep_spec({"name": "empty"})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="no axes"):
            parse_sweep_spec({"grid": {}})

    def test_axis_must_be_nonempty_list(self):
        with pytest.raises(ConfigurationError, match="non-empty list"):
            parse_sweep_spec({"grid": {"seed": 7}})

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError, match="unknown scale"):
            parse_sweep_spec({"cells": [{"scale": "galactic",
                                         "analyses": ["fig8"]}]})

    def test_unknown_fault_profile(self):
        with pytest.raises(ConfigurationError, match="fault profile"):
            parse_sweep_spec({"cells": [{"faults": "storm",
                                         "analyses": ["fig8"]}]})

    def test_unknown_analysis(self):
        with pytest.raises(ConfigurationError, match="unknown analysis"):
            parse_sweep_spec({"cells": [{"analyses": ["fig99"]}]})

    def test_analyses_required(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            parse_sweep_spec({"cells": [{"seed": 1}]})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigurationError, match="seed"):
            parse_sweep_spec({"cells": [{"seed": "seven",
                                         "analyses": ["fig8"]}]})

    def test_jobs_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            parse_sweep_spec({"cells": [{"jobs": -1,
                                         "analyses": ["fig8"]}]})

    def test_boolean_seed_rejected_with_cell_name(self):
        with pytest.raises(ConfigurationError,
                           match="cell 'a': seed must be an integer"):
            parse_sweep_spec({"defaults": {"seed": True,
                                           "analyses": ["fig2a"]},
                              "cells": [{"name": "a"}]})

    def test_boolean_jobs_rejected_with_cell_name(self):
        with pytest.raises(ConfigurationError, match="cell 'a': jobs"):
            parse_sweep_spec({"defaults": {"jobs": True,
                                           "analyses": ["fig2a"]},
                              "cells": [{"name": "a"}]})

    def test_unknown_override_field(self):
        with pytest.raises(ConfigurationError, match="scenario field"):
            parse_sweep_spec({"cells": [
                {"analyses": ["fig8"],
                 "overrides": {"nep_quantum_links": 3}}]})

    def test_seed_override_must_use_axis(self):
        with pytest.raises(ConfigurationError, match="seed/faults axis"):
            parse_sweep_spec({"cells": [
                {"analyses": ["fig8"], "overrides": {"seed": 3}}]})

    def test_unknown_cell_key(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_sweep_spec({"cells": [{"analyses": ["fig8"],
                                         "speed": "max"}]})

    def test_duplicate_cell_names(self):
        with pytest.raises(ConfigurationError, match="duplicate cell"):
            parse_sweep_spec({"cells": [
                {"name": "a", "analyses": ["fig8"]},
                {"name": "a", "analyses": ["fig10"]}]})

    @pytest.mark.parametrize("name", [
        "../../victim", "a/b", "a\\b", "", ".", "..", ".tmp-x",
        ".hidden", "a\0b", 7, None])
    def test_cell_name_must_be_plain_file_name(self, name):
        with pytest.raises(ConfigurationError, match="#0: name"):
            parse_sweep_spec({"cells": [{"name": name,
                                         "analyses": ["table1"]}]})

    def test_plain_cell_names_accepted(self):
        spec = parse_sweep_spec({"cells": [
            {"name": "base-seed.7", "analyses": ["table1"]},
            {"name": "x..y", "analyses": ["table1"]}]})
        assert [c.name for c in spec.cells] == ["base-seed.7", "x..y"]


class TestLoad:
    def test_toml_round_trip_names_from_stem(self, tmp_path):
        config = tmp_path / "campaign.toml"
        config.write_text(
            '[defaults]\nanalyses = ["fig8"]\n'
            '[grid]\nseed = [1, 2]\n', encoding="utf-8")
        spec = load_sweep_spec(config)
        assert spec.name == "campaign"
        assert len(spec.cells) == 2

    def test_json_config(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "name": "explicit",
            "cells": [{"name": "only", "analyses": ["fig8"]}],
        }), encoding="utf-8")
        spec = load_sweep_spec(config)
        assert spec.name == "explicit"
        assert spec.cell("only").analyses == ("fig8",)

    def test_unknown_suffix_rejected(self, tmp_path):
        config = tmp_path / "grid.yaml"
        config.write_text("cells: []\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=".toml or .json"):
            load_sweep_spec(config)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_sweep_spec(tmp_path / "absent.toml")

    def test_invalid_toml(self, tmp_path):
        config = tmp_path / "broken.toml"
        config.write_text("[grid\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            load_sweep_spec(config)

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_sweep_spec(config)

    def test_shipped_configs_parse(self):
        # The committed campaign configs must stay loadable.
        from pathlib import Path
        sweeps = Path(__file__).resolve().parents[2] / "benchmarks/sweeps"
        ablations = load_sweep_spec(sweeps / "ablations.toml")
        assert len(ablations.cells) == 6
        smoke = load_sweep_spec(sweeps / "ci_smoke.toml")
        assert len(smoke.cells) == 8
        # The CI speedup gate relies on every cell sharing one
        # workload group (the fault axis is cache-key-excluded).
        from repro.sweep import workload_group_token
        assert len({workload_group_token(c) for c in smoke.cells}) == 1
