"""Run configuration.

A single document (sectioned ``key = value`` text or the equivalent JSON
object) carries every model parameter. Missing keys fall back to the default
system: 6600 km link of 200 km spans, 0.06 dB/km fiber, NF 4.6 dB amplifiers,
26 fibers per direction over 5 THz of 75 GHz channels. Those values are the
field defaults of each section's dataclass, which also checks the section.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, fields
from typing import Any

from .domain import check_domain
from .impairments import AmplifierSpec, FiberSpec
from .system import (
    LinkPlan,
    OperatingPoint,
    PowerFeedSpec,
    ShannonGapTransceiver,
    TransceiverModel,
    calibrate_trx_gap,
    load_transceiver_table,
)


# Largest lattice a sweep may evaluate; 4e6 cells hold 64 MB of float64 fields.
MAX_GRID_POINTS = 4_000_000


class ConfigError(ValueError):
    """Invalid configuration document or parameter value."""


@dataclass(frozen=True)
class TransceiverSpec:
    """The config's transceiver section: a Shannon-gap model (gap_db, calibrated
    to calibration_target_tbps when None, capped at max_rate_gbps when set) or
    a tabulated curve read from table_path. Each number lies in its domain row."""

    variant: str = "shannon_gap"
    gap_db: float | None = None
    max_rate_gbps: float | None = None
    table_path: str | None = None
    calibration_target_tbps: float = 1000.0

    def __post_init__(self) -> None:
        check_domain(self, "transceiver")
        if self.variant not in ("shannon_gap", "tabulated"):
            raise ValueError(f"transceiver.variant must be 'shannon_gap' or 'tabulated' "
                             f"(got {self.variant!r})")
        if self.variant == "tabulated" and not self.table_path:
            raise ValueError("transceiver.table_path is required for the tabulated variant "
                             "(transceiver.variant)")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice of operating points (the config's sweep section);
    the defaults are the 81 x 111 reference plane. Each value lies in its domain
    row, each range is not empty, and the lattice holds at most MAX_GRID_POINTS."""

    loss_min: float = 0.045
    loss_max: float = 0.085
    loss_steps: int = 81
    power_min: float = 14.0
    power_max: float = 25.0
    power_steps: int = 111

    def __post_init__(self) -> None:
        check_domain(self, "sweep")
        if self.loss_steps * self.power_steps > MAX_GRID_POINTS:
            raise ValueError(
                f"sweep.loss_steps * sweep.power_steps = {self.loss_steps * self.power_steps} "
                f"exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        if not self.loss_min < self.loss_max:
            raise ValueError(
                f"sweep.loss_min={self.loss_min} must be < sweep.loss_max={self.loss_max}"
            )
        if not self.power_min < self.power_max:
            raise ValueError(
                f"sweep.power_min={self.power_min} must be < sweep.power_max={self.power_max}"
            )


# Each section's keys, in echo order, are fields of the dataclass that holds
# their defaults and checks; span and link share LinkPlan.
_LINK_FIELDS = [f for f in fields(LinkPlan) if f.default is not MISSING]
_SECTIONS = {
    "fiber": fields(FiberSpec),
    "span": [f for f in _LINK_FIELDS if f.name == "span_length_km"],
    "link": [f for f in _LINK_FIELDS if f.name != "span_length_km"],
    "amplifier": fields(AmplifierSpec),
    "transceiver": fields(TransceiverSpec),
    "powerfeed": fields(PowerFeedSpec),
    "sweep": fields(GridSpec),
}
DEFAULTS: dict[str, dict[str, Any]] = {
    section: {f.name: f.default for f in section_fields}
    for section, section_fields in _SECTIONS.items()
}
# The class that holds and checks each section other than span and link; its
# object at the defaults is built, and so checked, once at import, and a document
# that leaves the section out shares it.
_SPECS = {"fiber": FiberSpec, "amplifier": AmplifierSpec, "transceiver": TransceiverSpec,
          "powerfeed": PowerFeedSpec, "sweep": GridSpec}
_DEFAULT_SPECS = {section: cls(**DEFAULTS[section]) for section, cls in _SPECS.items()}
# A key's kind is its annotation: "float", "int" or "str", with '?' when it may be None.
_KINDS = {
    section: {f.name: f.type.replace(" | None", "?") for f in section_fields}
    for section, section_fields in _SECTIONS.items()
}


def _kind(section: str, key: str) -> str:
    return _KINDS[section][key]


class RunConfig:
    """Fully-resolved parameter set: `values` is echoed into every output, and
    the accessors return the sections' objects that parse_config built once
    from it, or the objects built at import for the sections the document left
    out. Build one with parse_config and treat `values` as frozen: an edit
    would change the echo but not the objects the results come from."""

    __slots__ = ("values", "_plan", "_transceiver", "_grid", "_power_feed")

    def __init__(self, values: dict[str, dict[str, Any]], plan: LinkPlan,
                 transceiver: TransceiverSpec, grid: GridSpec, power_feed: PowerFeedSpec) -> None:
        self.values = values
        self._plan, self._transceiver = plan, transceiver
        self._grid, self._power_feed = grid, power_feed

    def plan(self) -> LinkPlan:
        return self._plan

    def transceiver(self) -> TransceiverSpec:
        return self._transceiver

    def grid(self) -> GridSpec:
        return self._grid

    def power_feed(self) -> PowerFeedSpec:
        return self._power_feed

    def echo(self, transceiver: dict[str, Any]) -> dict[str, dict[str, Any]]:
        """values, with the transceiver section that resolve_transceiver returned."""
        return {**self.values, "transceiver": transceiver}

    def operating_point(self) -> OperatingPoint:
        plan = self._plan
        return OperatingPoint(plan.fiber.loss_db_per_km, plan.amp.total_output_power_dbm)


def parse_config(text: str) -> RunConfig:
    """Parse a config document; defaults fill gaps, and building each section's
    dataclass once validates every key. A section the document does not name is
    the object built at import; the plan and the span gain at sweep.loss_max are
    checked always."""
    data = _parse_json(text) if text.lstrip().startswith("{") else _parse_lines(text)
    values = {section: dict(entries) for section, entries in DEFAULTS.items()}
    for section, entries in data.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section '{section}'")
        if not isinstance(entries, dict):
            raise ConfigError(f"section '{section}' must hold key/value pairs")
        for key, raw in entries.items():
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            values[section][key] = _coerce(raw, _kind(section, key), f"{section}.{key}")

    def spec(section: str) -> Any:
        return _SPECS[section](**values[section]) if section in data else _DEFAULT_SPECS[section]

    try:
        transceiver = spec("transceiver")
        plan = LinkPlan(spec("fiber"), spec("amplifier"), **values["span"], **values["link"])
        grid = spec("sweep")
        plan.span_gain_db(grid.loss_max, name="sweep.loss_max")
        power_feed = spec("powerfeed")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(values, plan, transceiver, grid, power_feed)


def resolve_transceiver(
    cfg: RunConfig,
    plan: LinkPlan,
    table_path: str | None = None,
) -> tuple[TransceiverModel, dict[str, Any]]:
    """Build the transceiver model, calibrating the default gap when needed.

    A table_path (--trx-table), else the tabulated variant's, gives a tabulated
    curve, refused when its greatest rate on every carrier of the plan overflows.
    Else, without an explicit gap, the Shannon-gap model is pinned so the plan
    hits transceiver.calibration_target_tbps at the configured operating point
    with backscatter off. Each choice reads the kept TransceiverSpec; the config's
    transceiver section, with the table path or the calibrated gap filled in, is
    only written, and returned with the model for RunConfig.echo.
    """
    spec = cfg.transceiver()
    section = dict(cfg.values["transceiver"])
    if table_path is not None or spec.variant == "tabulated":
        path = spec.table_path if table_path is None else str(table_path)
        model = load_transceiver_table(path)
        rate = max(abs(model.points[0][1]), abs(model.points[-1][1]))
        if not math.isfinite(plan.n_carriers * rate / 1e3):
            raise ConfigError(f"{path}: net_rate_gbps {rate!r} on {plan.n_carriers} carriers "
                              f"takes the cable throughput beyond float range")
        section.update(variant="tabulated", table_path=path)
        return model, section
    gap_db = spec.gap_db
    if gap_db is None:
        section["gap_db"] = gap_db = calibrate_trx_gap(
            plan, cfg.operating_point(), spec.calibration_target_tbps, include_rbs=False)
    return ShannonGapTransceiver(gap_db, spec.max_rate_gbps or math.inf), section


def _parse_json(text: str) -> dict[str, Any]:
    try:  # parse_config sends only text that starts with '{': a JSON document is an object
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over Python's digit limit
        raise ConfigError(f"invalid JSON config: {exc}") from exc


# A line's body, then its comment: a '#' at the start of the line or after
# whitespace, but not inside a value that starts with a quote.
_LINE = re.compile(r"""((?:[^=#]*=\s*(?:"[^"]*"|'[^']*'))?.*?)(?:(?:^|\s)#.*)?""")


def _parse_lines(text: str) -> dict[str, dict[str, str]]:
    data: dict[str, dict[str, str]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _LINE.fullmatch(raw)[1].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"line {lineno}: empty section name")
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = _strip_quotes(value.strip())
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if "." in key:
            sec, key = key.split(".", 1)
            sec, key = sec.strip(), key.strip()
            if not sec or not key:
                raise ConfigError(f"line {lineno}: malformed dotted key")
            data.setdefault(sec, {})[key] = value
        else:
            if section is None:
                raise ConfigError(
                    f"line {lineno}: key '{key}' appears before any [section] header"
                )
            data[section][key] = value
    return data


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def _coerce(value: Any, kind: str, keypath: str) -> Any:
    optional = kind.endswith("?")
    base = kind.rstrip("?")
    if value is None or (isinstance(value, str) and value.lower() in ("none", "null")):
        if optional:
            return None
        raise ConfigError(f"{keypath}: a value is required")
    if base == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{keypath}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{keypath}: expected a number, got {value!r}")
    if base == "int":
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                raise ConfigError(f"{keypath}: expected an integer, got {value!r}") from None
        raise ConfigError(f"{keypath}: expected an integer, got {value!r}")
    if base == "float":
        if not isinstance(value, (int, float, str)):
            raise ConfigError(f"{keypath}: expected a number, got {value!r}")
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"{keypath}: expected a number, got {value!r}") from None
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{keypath}: must be finite, got {value!r}")
        return number
    raise AssertionError(f"unhandled schema kind {kind!r}")
