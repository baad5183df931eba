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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Any

from .impairments import MAX_ABS_POWER_DBM, MIN_LOSS_DB_PER_KM, AmplifierSpec, FiberSpec
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
    a tabulated curve read from table_path."""

    variant: str = "shannon_gap"
    gap_db: float | None = None
    max_rate_gbps: float | None = None
    table_path: str | None = None
    calibration_target_tbps: float = 1000.0

    def __post_init__(self) -> None:
        if self.variant not in ("shannon_gap", "tabulated"):
            raise ValueError(f"transceiver.variant must be 'shannon_gap' or 'tabulated' "
                             f"(got {self.variant!r})")
        if self.gap_db is not None and not self.gap_db >= 0:
            raise ValueError(f"transceiver.gap_db must be >= 0 (got {self.gap_db!r})")
        if self.max_rate_gbps is not None and not self.max_rate_gbps > 0:
            raise ValueError(f"transceiver.max_rate_gbps must be > 0 (got {self.max_rate_gbps!r})")
        if not self.calibration_target_tbps > 0:
            raise ValueError(f"transceiver.calibration_target_tbps must be > 0 "
                             f"(got {self.calibration_target_tbps!r})")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice of operating points (the config's sweep section);
    the defaults are the 81 x 111 reference plane."""

    loss_min: float = 0.045
    loss_max: float = 0.085
    loss_steps: int = 81
    power_min: float = 14.0
    power_max: float = 25.0
    power_steps: int = 111

    def __post_init__(self) -> None:
        for name in ("loss_min", "loss_max", "power_min", "power_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"sweep.{name} must be finite, got {getattr(self, name)}")
        for name in ("power_min", "power_max"):
            if not abs(getattr(self, name)) <= MAX_ABS_POWER_DBM:
                raise ValueError(f"sweep.{name} must lie within +/-{MAX_ABS_POWER_DBM:g} dBm, "
                                 f"got {getattr(self, name)}")
        if self.loss_steps * self.power_steps > MAX_GRID_POINTS:
            raise ValueError(
                f"sweep.loss_steps * sweep.power_steps = {self.loss_steps * self.power_steps} "
                f"exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        if not self.loss_min >= MIN_LOSS_DB_PER_KM:
            raise ValueError(f"sweep.loss_min must be >= {MIN_LOSS_DB_PER_KM:.4g} (its "
                             f"attenuation must not underflow), got {self.loss_min}")
        if not self.loss_min < self.loss_max:
            raise ValueError(
                f"sweep.loss_min={self.loss_min} must be < sweep.loss_max={self.loss_max}"
            )
        if not self.power_min < self.power_max:
            raise ValueError(
                f"sweep.power_min={self.power_min} must be < sweep.power_max={self.power_max}"
            )
        if self.loss_steps < 2 or self.power_steps < 2:
            raise ValueError("sweep.loss_steps and sweep.power_steps must be >= 2")


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
# A key's kind is its annotation: "float", "int" or "str", with '?' when it may be None.
_KINDS = {
    section: {f.name: f.type.replace(" | None", "?") for f in section_fields}
    for section, section_fields in _SECTIONS.items()
}


def _kind(section: str, key: str) -> str:
    return _KINDS[section][key]


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved parameter set; `values` is echoed into every output."""

    values: dict[str, dict[str, Any]]

    def plan(self) -> LinkPlan:
        v = self.values
        return LinkPlan(FiberSpec(**v["fiber"]), AmplifierSpec(**v["amplifier"]), **v["span"],
                        **v["link"])

    def transceiver(self) -> TransceiverSpec:
        return TransceiverSpec(**self.values["transceiver"])

    def grid(self) -> GridSpec:
        return GridSpec(**self.values["sweep"])

    def power_feed(self) -> PowerFeedSpec:
        return PowerFeedSpec(**self.values["powerfeed"])

    def operating_point(self) -> OperatingPoint:
        return OperatingPoint(
            self.values["fiber"]["loss_db_per_km"],
            self.values["amplifier"]["total_output_power_dbm"],
        )


def parse_config(text: str) -> RunConfig:
    """Parse a config document; defaults fill gaps, and building each section's
    dataclass once validates every key."""
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
    cfg = RunConfig(values)
    try:
        cfg.transceiver()
        plan, grid = cfg.plan(), cfg.grid()
        plan.check_nli_loss(grid.loss_min, name="sweep.loss_min")
        plan.span_gain_db(grid.loss_max, name="sweep.loss_max")
        cfg.power_feed()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def resolve_transceiver(
    cfg: RunConfig,
    plan: LinkPlan,
    table_path: str | None = None,
) -> tuple[TransceiverModel, dict[str, Any]]:
    """Build the transceiver model, calibrating the default gap when needed.

    Without an explicit gap, the Shannon-gap model is pinned so the plan hits
    transceiver.calibration_target_tbps at the configured operating point with
    backscatter off. Returns the model plus the transceiver section with the
    resolved gap filled in for echoing.
    """
    spec = cfg.transceiver()
    if table_path is not None:
        spec = replace(spec, variant="tabulated", table_path=str(table_path))
    if spec.variant == "tabulated":
        if not spec.table_path:
            raise ConfigError("transceiver.table_path is required for the tabulated variant")
        try:
            model: TransceiverModel = load_transceiver_table(spec.table_path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return model, asdict(spec)
    if spec.gap_db is None:
        spec = replace(spec, gap_db=calibrate_trx_gap(
            plan, cfg.operating_point(), spec.calibration_target_tbps, include_rbs=False))
    max_rate = math.inf if spec.max_rate_gbps is None else spec.max_rate_gbps
    return ShannonGapTransceiver(spec.gap_db, max_rate), asdict(spec)


def _parse_json(text: str) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over Python's digit limit
        raise ConfigError(f"invalid JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object of sections")
    return data


def _parse_lines(text: str) -> dict[str, dict[str, str]]:
    data: dict[str, dict[str, str]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
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
