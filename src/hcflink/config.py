"""Run configuration.

A single document (sectioned ``key = value`` text or the equivalent JSON
object) carries every model parameter. Missing keys fall back to the default
system: 6600 km link of 200 km spans, 0.06 dB/km fiber, NF 4.6 dB amplifiers,
26 fibers per direction over 5 THz of 75 GHz channels.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Any

from .explore import GridSpec
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


class ConfigError(ValueError):
    """Invalid configuration document or parameter value."""


DEFAULTS: dict[str, dict[str, Any]] = {
    "fiber": {
        "loss_db_per_km": 0.06,
        "dispersion_ps_nm_km": 3.0,
        "gamma_per_w_km": 5e-4,
        "imi_db_per_km": -65.0,
        "backscatter_db_per_km": -70.0,
        "group_index": 1.0003,
    },
    "span": {
        "span_length_km": 200.0,
    },
    "link": {
        "total_length_km": 6600.0,
        "band_hz": 5e12,
        "channel_spacing_hz": 75e9,
        "symbol_rate_hz": 73.5e9,
        "n_fibers_per_direction": 26,
    },
    "amplifier": {
        "noise_figure_db": 4.6,
        "total_output_power_dbm": 20.3,
        "pre_input_loss_db": 2.0,
        "post_output_loss_db": 2.0,
    },
    "transceiver": {
        "variant": "shannon_gap",
        "gap_db": None,
        "max_rate_gbps": None,
        "table_path": None,
        "calibration_target_tbps": 1000.0,
    },
    "powerfeed": {
        "feed_current_a": 1.0,
        "cable_resistance_ohm_per_km": 1.0,
        "repeater_power_w": 180.0,
        "supply_limit_w": 18000.0,
    },
    "sweep": {
        "loss_min": 0.045,
        "loss_max": 0.085,
        "loss_steps": 81,
        "power_min": 14.0,
        "power_max": 25.0,
        "power_steps": 111,
    },
}

# Every key takes the kind of its default ("float", "int" or "str"). Keys that
# default to None are optional: their kind is named here and marked with '?'.
_OPTIONAL_KINDS = {"gap_db": "float?", "max_rate_gbps": "float?", "table_path": "str?"}


def _kind(section: str, key: str) -> str:
    default = DEFAULTS[section][key]
    return _OPTIONAL_KINDS[key] if default is None else type(default).__name__


# Checks the section dataclasses built in parse_config cannot make: the
# transceiver is built later, by resolve_transceiver.
_RULES: tuple[tuple[str, str, Any, str], ...] = (
    ("transceiver", "variant", lambda v: v in ("shannon_gap", "tabulated"),
     "must be 'shannon_gap' or 'tabulated'"),
    ("transceiver", "gap_db", lambda v: v >= 0, "must be >= 0"),
    ("transceiver", "max_rate_gbps", lambda v: v > 0, "must be > 0"),
    ("transceiver", "calibration_target_tbps", lambda v: v > 0, "must be > 0"),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved parameter set; `values` is echoed into every output."""

    values: dict[str, dict[str, Any]]

    def fiber(self) -> FiberSpec:
        return FiberSpec(**self.values["fiber"])

    def amplifier(self) -> AmplifierSpec:
        return AmplifierSpec(**self.values["amplifier"])

    def plan(self) -> LinkPlan:
        return LinkPlan(
            fiber=self.fiber(),
            amp=self.amplifier(),
            span_length_km=self.values["span"]["span_length_km"],
            **self.values["link"],
        )

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
    """Parse a config document; every key is validated and defaults fill gaps."""
    data = _parse_json(text) if text.lstrip().startswith("{") else _parse_lines(text)
    values = copy.deepcopy(DEFAULTS)
    for section, entries in data.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section '{section}'")
        if not isinstance(entries, dict):
            raise ConfigError(f"section '{section}' must hold key/value pairs")
        for key, raw in entries.items():
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            values[section][key] = _coerce(raw, _kind(section, key), f"{section}.{key}")
    for section, key, check, message in _RULES:
        value = values[section][key]
        if value is not None and not check(value):
            raise ConfigError(f"{section}.{key} {message} (got {value!r})")
    cfg = RunConfig(values)
    try:
        cfg.plan().span_gain_db(cfg.grid().loss_max, name="sweep.loss_max")
        cfg.power_feed()
        cfg.operating_point()
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
    resolved = dict(cfg.values["transceiver"])
    if table_path is not None:
        resolved["variant"] = "tabulated"
        resolved["table_path"] = str(table_path)
    if resolved["variant"] == "tabulated":
        if not resolved["table_path"]:
            raise ConfigError("transceiver.table_path is required for the tabulated variant")
        try:
            model: TransceiverModel = load_transceiver_table(resolved["table_path"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return model, resolved
    gap_db = resolved["gap_db"]
    if gap_db is None:
        gap_db = calibrate_trx_gap(
            plan, cfg.operating_point(), resolved["calibration_target_tbps"], include_rbs=False
        )
    max_rate = resolved["max_rate_gbps"]
    model = ShannonGapTransceiver(gap_db, math.inf if max_rate is None else max_rate)
    resolved["gap_db"] = gap_db
    return model, resolved


def _parse_json(text: str) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
        if not math.isfinite(number):
            raise ConfigError(f"{keypath}: must be finite, got {value!r}")
        return number
    raise AssertionError(f"unhandled schema kind {kind!r}")
