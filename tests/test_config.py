from __future__ import annotations

import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcflink import AmplifierSpec, FiberSpec, GridSpec, LinkPlan, PowerFeedSpec
from hcflink.config import (
    DEFAULTS,
    ConfigError,
    TransceiverSpec,
    _kind,
    parse_config,
    resolve_transceiver,
)


def test_empty_document_yields_defaults():
    cfg = parse_config("")
    assert cfg.values == DEFAULTS
    plan = cfg.plan()
    assert plan.total_length_km == 6600.0
    assert plan.span_length_km == 200.0
    assert plan.fiber.loss_db_per_km == 0.06
    assert plan.amp.noise_figure_db == 4.6
    assert plan.n_fibers_per_direction == 26
    assert plan.band_hz == 5e12
    assert plan.channel_spacing_hz == 75e9
    assert plan.symbol_rate_hz == 73.5e9


def test_dotted_key_overrides_single_field():
    cfg = parse_config("fiber.loss_db_per_km = 0.05\n")
    assert cfg.values["fiber"]["loss_db_per_km"] == 0.05
    # everything else stays at defaults
    assert cfg.values["fiber"]["dispersion_ps_nm_km"] == 3.0
    assert cfg.values["link"]["total_length_km"] == 6600.0


def test_section_header_form():
    cfg = parse_config(
        """
        [fiber]
        loss_db_per_km = 0.07
        imi_db_per_km = -60   # degraded mode suppression
        [amplifier]
        total_output_power_dbm = 22.5
        """
    )
    assert cfg.values["fiber"]["loss_db_per_km"] == 0.07
    assert cfg.values["fiber"]["imi_db_per_km"] == -60.0
    assert cfg.values["amplifier"]["total_output_power_dbm"] == 22.5


def test_json_form_equivalent():
    text_cfg = parse_config("fiber.loss_db_per_km = 0.05\nlink.n_fibers_per_direction = 30\n")
    json_cfg = parse_config(json.dumps(
        {"fiber": {"loss_db_per_km": 0.05}, "link": {"n_fibers_per_direction": 30}}
    ))
    assert text_cfg.values == json_cfg.values


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="fiber.attenuation"):
        parse_config("fiber.attenuation = 0.06\n")


def test_unknown_section_named():
    with pytest.raises(ConfigError, match="laser"):
        parse_config("laser.power = 10\n")


def test_type_error_names_key_path():
    with pytest.raises(ConfigError, match="sweep.loss_steps"):
        parse_config("sweep.loss_steps = many\n")
    with pytest.raises(ConfigError, match="fiber.loss_db_per_km"):
        parse_config("fiber.loss_db_per_km = fast\n")


def test_int_field_rejects_fraction():
    with pytest.raises(ConfigError, match="link.n_fibers_per_direction"):
        parse_config("link.n_fibers_per_direction = 26.5\n")


def test_invariant_violation_names_key():
    with pytest.raises(ConfigError, match="link.total_length_km"):
        parse_config("link.total_length_km = -1\n")
    with pytest.raises(ConfigError, match="fiber.imi_db_per_km"):
        parse_config("fiber.imi_db_per_km = 3\n")
    with pytest.raises(ConfigError, match="sweep.loss_steps"):
        parse_config("sweep.loss_steps = 1\n")


def test_cross_field_invariant_caught():
    with pytest.raises(ConfigError, match="channel_spacing_hz"):
        parse_config("link.channel_spacing_hz = 70e9\n")


def test_syntax_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[fiber]\nloss_db_per_km = 0.06\nnot a key value pair\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("loss_db_per_km = 0.06\n")


def test_invalid_json_reported():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json}")


def test_integer_past_the_digit_limit_is_invalid_json():
    # json.loads refuses integers of more than 4300 digits with a plain ValueError.
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config('{"link": {"n_fibers_per_direction": 1' + "0" * 5000 + "}}")


def test_quoted_string_values():
    cfg = parse_config('transceiver.variant = "shannon_gap"\ntransceiver.gap_db = 4.5\n')
    assert cfg.values["transceiver"]["variant"] == "shannon_gap"
    assert cfg.values["transceiver"]["gap_db"] == 4.5


def test_bad_transceiver_variant():
    with pytest.raises(ConfigError, match="transceiver.variant"):
        parse_config("transceiver.variant = psk\n")


def test_resolve_transceiver_explicit_gap():
    cfg = parse_config("transceiver.gap_db = 4.5\n")
    model, resolved = resolve_transceiver(cfg, cfg.plan())
    assert model.gap_db == 4.5
    assert resolved["gap_db"] == 4.5


def test_resolve_transceiver_auto_calibrates(calibrated_gap):
    cfg = parse_config("")
    model, resolved = resolve_transceiver(cfg, cfg.plan())
    assert model.gap_db == pytest.approx(calibrated_gap, abs=1e-9)
    assert resolved["gap_db"] == model.gap_db


def test_resolve_transceiver_tabulated(tmp_path):
    table = tmp_path / "trx.csv"
    table.write_text("10,400\n20,700\n")
    cfg = parse_config("")
    model, resolved = resolve_transceiver(cfg, cfg.plan(), table_path=str(table))
    assert resolved["variant"] == "tabulated"
    assert model.net_rate_gbps(15.0, 73.5e9) == pytest.approx(550.0)


def test_resolve_transceiver_tabulated_requires_path():
    cfg = parse_config("transceiver.variant = tabulated\n")
    with pytest.raises(ConfigError, match="table_path"):
        resolve_transceiver(cfg, cfg.plan())


def test_defaults_have_one_source():
    cfg = parse_config("")
    assert cfg.plan() == LinkPlan(FiberSpec(), AmplifierSpec())
    assert cfg.grid() == GridSpec()
    assert cfg.power_feed() == PowerFeedSpec()
    assert cfg.transceiver() == TransceiverSpec()


# The reference system as the README's configuration table lists it.
_README_DEFAULTS = {
    "fiber": {"loss_db_per_km": 0.06, "dispersion_ps_nm_km": 3.0, "gamma_per_w_km": 5e-4,
              "imi_db_per_km": -65.0, "backscatter_db_per_km": -70.0, "group_index": 1.0003},
    "span": {"span_length_km": 200.0},
    "link": {"total_length_km": 6600.0, "band_hz": 5e12, "channel_spacing_hz": 75e9,
             "symbol_rate_hz": 73.5e9, "n_fibers_per_direction": 26},
    "amplifier": {"noise_figure_db": 4.6, "total_output_power_dbm": 20.3,
                  "pre_input_loss_db": 2.0, "post_output_loss_db": 2.0},
    "transceiver": {"variant": "shannon_gap", "gap_db": None, "max_rate_gbps": None,
                    "table_path": None, "calibration_target_tbps": 1000.0},
    "powerfeed": {"feed_current_a": 1.0, "cable_resistance_ohm_per_km": 1.0,
                  "repeater_power_w": 180.0, "supply_limit_w": 18000.0},
    "sweep": {"loss_min": 0.045, "loss_max": 0.085, "loss_steps": 81, "power_min": 14.0,
              "power_max": 25.0, "power_steps": 111},
}


def test_defaults_match_the_reference_table():
    assert DEFAULTS == _README_DEFAULTS
    assert [list(keys) for keys in DEFAULTS.values()] == [
        list(keys) for keys in _README_DEFAULTS.values()]
    for section, keys in _README_DEFAULTS.items():
        for key, value in keys.items():
            assert type(DEFAULTS[section][key]) is type(value), (section, key)
    kinds = {_kind(section, key) for section, keys in DEFAULTS.items() for key in keys}
    assert kinds == {"float", "int", "str", "float?", "str?"}
    assert (_kind("transceiver", "gap_db"), _kind("transceiver", "table_path")) == (
        "float?", "str?")


@pytest.mark.parametrize(
    "line,message",
    [
        ("transceiver.variant = psk",
         "transceiver.variant must be 'shannon_gap' or 'tabulated' (got 'psk')"),
        ("transceiver.gap_db = -1", "transceiver.gap_db must be >= 0 (got -1.0)"),
        ("transceiver.max_rate_gbps = 0", "transceiver.max_rate_gbps must be > 0 (got 0.0)"),
        ("transceiver.calibration_target_tbps = -5",
         "transceiver.calibration_target_tbps must be > 0 (got -5.0)"),
    ],
)
def test_transceiver_checks_keep_their_messages(line, message):
    with pytest.raises(ConfigError) as info:
        parse_config(line + "\n")
    assert str(info.value) == message


_KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys]
_HUGE_INT = "1" + "0" * 400
# JSON values every key is tried with: boundaries of the keys' ranges, signed
# zeros, subnormals, values near float range, huge integers, non-finite numbers
# and every wrong JSON type.
_CORPUS = (
    "0", "-0.0", "0.0", "1", "-1", "2", "1.0003", "100", "100.5", "300", "-300", "300.5",
    "-300.5", "1000", "1e6", "1000001", "6600", "6600.5", "7.35e10", "7.5e10", "1.934e14",
    "5e-324", "2.2250738585072014e-308", "1e-300", "1e300", "-1e300", "1e20", "4000000",
    _HUGE_INT, "-" + _HUGE_INT, "26.5", "NaN", "Infinity", "-Infinity", "true", "false",
    "[]", "{}", "null", '"abc"', '""', '"26"', '"tabulated"', '"shannon_gap"',
)


def _check_one_key(section: str, key: str, value: str) -> None:
    """parse_config either builds every section from a one-key document, each
    accepted number a finite float, or raises a ConfigError naming the key."""
    text = f'{{"{section}": {{"{key}": {value}}}}}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert f"{section}.{key}" in str(exc), (text, str(exc))
            return
        cfg.plan(), cfg.grid(), cfg.power_feed(), cfg.operating_point(), cfg.transceiver()
    for values in cfg.values.values():
        for accepted in values.values():
            if not isinstance(accepted, (str, type(None))):
                assert math.isfinite(float(accepted)), (text, accepted)


@pytest.mark.parametrize("section,key", _KEYS)
def test_every_key_survives_the_corpus(section, key):
    default = DEFAULTS[section][key]
    scaled = () if isinstance(default, (str, type(None))) else (
        repr(default * 0.5), repr(default * 2))
    for value in (*_CORPUS, *scaled):
        _check_one_key(section, key, value)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    target=st.sampled_from(_KEYS),
    value=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(-1e3, 1e7),
        st.integers(-(10**400), 10**400),
        st.integers(-10, 2 * 10**6),
    ).map(json.dumps),  # NaN and Infinity in their JSON spelling
)
def test_parse_config_fuzz_names_the_key(target, value):
    _check_one_key(*target, value)
