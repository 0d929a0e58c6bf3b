"""Declarative sweep grids: TOML/JSON spec -> expanded cells.

A sweep config names a campaign over scenario axes.  Three sections:

``[defaults]``
    Baseline values every cell inherits: ``scale``, ``seed``,
    ``faults``, ``jobs`` (per-cell series workers), ``analyses`` (list
    of analysis ids, see :mod:`repro.sweep.analyses`), and
    ``[defaults.overrides]`` (scenario field replacements).

``[grid]``
    Cartesian axes — ``scale``/``seed``/``faults``/``jobs`` lists plus
    ``[grid.overrides]`` mapping scenario fields to value lists.  The
    product of all axes becomes one cell per combination, auto-named
    from the varying axes (``seed7-faults_paper``).

``[[cells]]``
    Explicit cells (any default-able key plus ``name``, a plain file
    name).  Grid and explicit cells can coexist; names must be unique.

Every value is validated at load time — unknown scales, fault
profiles, analysis ids, or scenario fields fail before any work runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from ..config import Scenario
from ..errors import ConfigurationError
from ..study import scenario_for
from .analyses import ANALYSES

try:
    import tomllib
except ImportError:  # pragma: no cover - python < 3.11
    tomllib = None

_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)}

#: Keys a cell (or the defaults table) may set besides ``overrides``.
_CELL_KEYS = ("scale", "seed", "faults", "jobs", "analyses")


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved point of the sweep grid."""

    name: str
    scale: str = "smoke"
    seed: int | None = None
    faults: str = "off"
    jobs: int = 1
    analyses: tuple[str, ...] = ()
    #: Scenario field replacements, sorted for a canonical identity.
    overrides: tuple[tuple[str, object], ...] = ()

    def scenario(self) -> Scenario:
        """The scenario this cell runs."""
        return scenario_for(self.scale, self.seed, self.faults,
                            dict(self.overrides))

    def to_dict(self) -> dict:
        """JSON-ready view (spec provenance, manifests)."""
        return {
            "name": self.name, "scale": self.scale, "seed": self.seed,
            "faults": self.faults, "jobs": self.jobs,
            "analyses": list(self.analyses),
            "overrides": dict(self.overrides),
        }


@dataclass(frozen=True)
class SweepSpec:
    """A named sweep: the expanded, validated cell list."""

    name: str
    cells: tuple[SweepCell, ...]

    def cell(self, name: str) -> SweepCell:
        """Look one cell up by name.

        Raises:
            ConfigurationError: when no cell has that name.
        """
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise ConfigurationError(
            f"sweep {self.name!r} has no cell {name!r}")

    def to_dict(self) -> dict:
        """JSON-ready view of the whole spec."""
        return {"name": self.name,
                "cells": [cell.to_dict() for cell in self.cells]}


def _require_mapping(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a table/object, "
                                 f"got {type(value).__name__}")
    return value


def _check_overrides(overrides: dict, where: str) -> None:
    for field in overrides:
        if field not in _SCENARIO_FIELDS:
            raise ConfigurationError(
                f"{where}: unknown scenario field {field!r}")
        if field in ("seed", "fault_profile"):
            raise ConfigurationError(
                f"{where}: set {field!r} through the seed/faults axis, "
                f"not overrides")


def _check_cell_keys(table: dict, where: str,
                     extra: tuple[str, ...] = ()) -> None:
    allowed = set(_CELL_KEYS) | {"overrides"} | set(extra)
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected {', '.join(sorted(allowed))}")


def _build_cell(name: str, merged: dict, where: str) -> SweepCell:
    jobs = merged.get("jobs", 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
        raise ConfigurationError(
            f"{where}: jobs must be a non-negative integer")
    analyses = merged.get("analyses", [])
    if isinstance(analyses, str):
        analyses = [analyses]
    if not isinstance(analyses, list):
        raise ConfigurationError(
            f"{where}: analyses must be a list of analysis ids")
    if not analyses:
        raise ConfigurationError(f"{where}: needs at least one analysis")
    for analysis in analyses:
        if analysis not in ANALYSES:
            raise ConfigurationError(
                f"{where}: unknown analysis {analysis!r} "
                f"(see 'repro sweep analyses')")
    overrides = _require_mapping(merged.get("overrides", {}),
                                 f"{where}.overrides")
    _check_overrides(overrides, where)
    cell = SweepCell(
        name=name, scale=merged.get("scale", "smoke"),
        seed=merged.get("seed"), faults=merged.get("faults", "off"),
        jobs=jobs, analyses=tuple(analyses),
        overrides=tuple(sorted(overrides.items())),
    )
    try:
        cell.scenario()  # scale, faults, seed and override values
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    return cell


def _axis_label(axis: str, value: object) -> str:
    text = str(value).replace("/", "-")
    return f"{axis}_{text}" if isinstance(value, str) else f"{axis}{text}"


def _expand_grid(grid: dict, defaults: dict) -> list[tuple[str, dict]]:
    """(auto-name, merged-cell-table) for every grid combination."""
    _check_cell_keys(grid, "[grid]")
    axes: list[tuple[str, list]] = []
    for key in _CELL_KEYS:
        if key not in grid:
            continue
        values = grid[key]
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"[grid].{key} must be a non-empty list")
        axes.append((key, values))
    for field, values in _require_mapping(
            grid.get("overrides", {}), "[grid].overrides").items():
        _check_overrides({field: None}, "[grid].overrides")
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"[grid].overrides.{field} must be a non-empty list")
        axes.append((f"overrides.{field}", values))
    if not axes:
        raise ConfigurationError("[grid] declares no axes")
    varying = [axis for axis, values in axes if len(values) > 1]
    cells = []
    for combo in itertools.product(*(values for _, values in axes)):
        merged = dict(defaults)
        merged["overrides"] = dict(
            _require_mapping(defaults.get("overrides", {}),
                             "[defaults].overrides"))
        parts = []
        for (axis, _), value in zip(axes, combo):
            if axis.startswith("overrides."):
                merged["overrides"][axis.split(".", 1)[1]] = value
            else:
                merged[axis] = value
            if axis in varying:
                parts.append(_axis_label(axis.split(".")[-1], value))
        cells.append(("-".join(parts) if parts else "cell", merged))
    return cells


def parse_sweep_spec(data: dict, name: str = "sweep") -> SweepSpec:
    """Validate and expand a parsed config mapping into a spec.

    Raises:
        ConfigurationError: on any schema or value error.
    """
    data = _require_mapping(data, "sweep config")
    unknown = sorted(set(data) - {"name", "defaults", "grid", "cells"})
    if unknown:
        raise ConfigurationError(
            f"sweep config: unknown top-level key(s) "
            f"{', '.join(map(repr, unknown))}")
    sweep_name = data.get("name", name)
    defaults = _require_mapping(data.get("defaults", {}), "[defaults]")
    _check_cell_keys(defaults, "[defaults]")

    named: list[tuple[str, dict]] = []
    if "grid" in data:
        named.extend(_expand_grid(
            _require_mapping(data["grid"], "[grid]"), defaults))
    tables = data.get("cells", [])
    if not isinstance(tables, list):
        raise ConfigurationError(f"[[cells]] must be an array of tables, "
                                 f"got {type(tables).__name__}")
    for index, table in enumerate(tables):
        table = _require_mapping(table, f"[[cells]] #{index}")
        _check_cell_keys(table, f"[[cells]] #{index}", extra=("name",))
        merged = dict(defaults)
        merged.update({k: v for k, v in table.items()
                       if k not in ("name", "overrides")})
        merged["overrides"] = {
            **_require_mapping(defaults.get("overrides", {}),
                               "[defaults].overrides"),
            **_require_mapping(table.get("overrides", {}),
                               f"[[cells]] #{index}.overrides"),
        }
        # The name becomes cells/<name>/: only a plain file name can
        # neither escape cells/ nor collide with the .tmp- staging dirs.
        cell_name = table.get("name", f"cell{index}")
        if (not isinstance(cell_name, str) or not cell_name
                or cell_name[0] == "."
                or any(c in cell_name for c in "/\\\0")):
            raise ConfigurationError(
                f"[[cells]] #{index}: name {cell_name!r} must be a plain "
                f"file name (non-empty, no '/', '\\' or NUL, no leading '.')")
        named.append((cell_name, merged))

    if not named:
        raise ConfigurationError(
            "sweep config declares no cells (need [grid] or [[cells]])")
    cells = []
    seen: set[str] = set()
    for cell_name, merged in named:
        if cell_name in seen:
            raise ConfigurationError(
                f"duplicate cell name {cell_name!r} (name explicit cells, "
                f"or vary a grid axis)")
        seen.add(cell_name)
        cells.append(_build_cell(cell_name, merged,
                                 f"cell {cell_name!r}"))
    return SweepSpec(name=str(sweep_name), cells=tuple(cells))


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load a sweep spec from a ``.toml`` or ``.json`` file.

    Raises:
        ConfigurationError: on unreadable files or schema errors.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read sweep config: {exc}") from exc
    if path.suffix == ".json":
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"invalid JSON in {path}: {exc}") from exc
    elif path.suffix == ".toml":
        if tomllib is None:  # pragma: no cover - python < 3.11
            raise ConfigurationError(
                "TOML sweep configs need Python >= 3.11 (tomllib); "
                "use JSON instead")
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise ConfigurationError(
                f"invalid TOML in {path}: {exc}") from exc
    else:
        raise ConfigurationError(
            f"sweep config must be .toml or .json, got {path.name!r}")
    return parse_sweep_spec(data, name=path.stem)
