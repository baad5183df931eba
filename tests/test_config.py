from __future__ import annotations

import json
import math
import re
import warnings
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcflink import AmplifierSpec, FiberSpec, GridSpec, LinkPlan, PowerFeedSpec
from hcflink.cli import EXIT_CONFIG, main
from hcflink.config import (
    DEFAULTS,
    ConfigError,
    TransceiverSpec,
    _kind,
    parse_config,
    resolve_transceiver,
)
from hcflink.domain import DOMAIN

README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("line,value", [
    ("table_path = runs/a#1.csv", "runs/a#1.csv"),
    ('table_path = "runs/a#1.csv"  # note', "runs/a#1.csv"),
    ('table_path = "a #b"', "a #b"),
    ("table_path = 'a #b'  #note", "a #b"),
    ("gap_db = 3.5 # note", 3.5),
])
def test_hash_inside_a_value_is_kept(line, value):
    """A '#' opens a comment at the start of a line or after whitespace; a
    value that starts with a quote keeps every character to its closing quote."""
    cfg = parse_config(f"# a comment line\n[transceiver] # note\n{line}\n")
    assert cfg.values["transceiver"][line.split(" ", 1)[0]] == value


def test_hash_glued_to_a_number_is_refused(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("transceiver.gap_db = 3.5#x\n", encoding="utf-8")
    assert main(["latency", "--config", str(config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "config"
    assert error["message"].startswith("transceiver.gap_db: expected a number")


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


@pytest.mark.parametrize("spelling", ["100", "100.0", "1e2", "1E2", "1.0e2", "81.0", "8.1e1"])
def test_integer_key_reads_alike_in_text_and_json(spelling):
    """An integral number is an integer key's value in both forms: the text form reads
    "1e2" or "81.0" as JSON reads the number 1e2 or 81.0, and both give one RunConfig."""
    text_cfg = parse_config(f"[sweep]\nloss_steps = {spelling}\nlink.n_fibers_per_direction = "
                            f"{spelling}\n")
    json_cfg = parse_config(json.dumps({"sweep": {"loss_steps": json.loads(spelling)},
                                        "link": {"n_fibers_per_direction": json.loads(spelling)}}))
    steps = int(float(spelling))
    assert text_cfg.values == json_cfg.values
    assert text_cfg.values["sweep"]["loss_steps"] == steps
    assert type(text_cfg.values["sweep"]["loss_steps"]) is int
    for section in ("plan", "transceiver", "grid", "power_feed"):
        assert getattr(text_cfg, section)() == getattr(json_cfg, section)()
    assert text_cfg.grid().loss_steps == text_cfg.plan().n_fibers_per_direction == steps


@pytest.mark.parametrize("spelling", ["81.5", "8.15e1", "1e-2", "inf", "nan", "1e400", "0x51"])
def test_integer_key_refuses_what_is_not_an_integral_number(spelling):
    message = f"sweep.loss_steps: expected an integer, got '{spelling}'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(f"[sweep]\nloss_steps = {spelling}\n")


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


@pytest.mark.parametrize("quote", ["", '"'])
def test_resolve_transceiver_opens_a_table_path_holding_hash(tmp_path, quote):
    table = tmp_path / "a#1.csv"
    table.write_text("10,400\n20,700\n")
    cfg = parse_config(f"transceiver.variant = tabulated\n"
                       f"transceiver.table_path = {quote}{table}{quote}  # the table\n")
    model, resolved = resolve_transceiver(cfg, cfg.plan())
    assert resolved["table_path"] == str(table)
    assert model.net_rate_gbps(15.0, 73.5e9) == pytest.approx(550.0)


def test_resolve_transceiver_tabulated_requires_path():
    # TransceiverSpec holds the rule, so the document is refused when it is parsed.
    with pytest.raises(ConfigError, match="table_path"):
        parse_config("transceiver.variant = tabulated\n")


_SECTION_CLASSES = (FiberSpec, AmplifierSpec, LinkPlan, TransceiverSpec, GridSpec, PowerFeedSpec)


def test_each_section_is_built_once(monkeypatch):
    """parse_config builds and checks the plan, and each section the document
    names, once; a section it leaves out is the object built at import. The
    accessors and resolve_transceiver hand out those objects instead of building
    new ones."""
    built: Counter[str] = Counter()
    for cls in _SECTION_CLASSES:
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    cfg = parse_config("transceiver.gap_db = 4.5\n")
    for _ in range(2):
        cfg.plan(), cfg.transceiver(), cfg.grid(), cfg.power_feed()
        resolve_transceiver(cfg, cfg.plan())
    assert built == {"TransceiverSpec": 1, "LinkPlan": 1}
    assert cfg.plan() is cfg.plan()
    assert cfg.transceiver() is cfg.transceiver()
    assert cfg.plan().fiber is parse_config("").plan().fiber
    built.clear()
    every = parse_config(json.dumps(DEFAULTS))
    assert built == {cls.__name__: 1 for cls in _SECTION_CLASSES}
    assert every.values == DEFAULTS and every.grid() == cfg.grid()


@pytest.mark.parametrize("document,message", [
    ({"fiber": {"gamma_per_w_km": -1}}, "fiber.gamma_per_w_km must lie in [0, 100], got -1.0"),
    ({"span": {"span_length_km": 7000}},
     "span.span_length_km=7000.0 must not exceed link.total_length_km=6600.0"),
    ({"link": {"n_fibers_per_direction": -1}},
     "link.n_fibers_per_direction must lie in [0, 10000], got -1"),
    ({"amplifier": {"noise_figure_db": -1}},
     "amplifier.noise_figure_db must lie in [0, 30], got -1.0"),
    ({"transceiver": {"gap_db": -1}}, "transceiver.gap_db must lie in [0, 60], got -1.0"),
    ({"powerfeed": {"supply_limit_w": 0}},
     "powerfeed.supply_limit_w must lie in [1e-06, 1e+12], got 0.0"),
    ({"sweep": {"loss_steps": 1}}, "sweep.loss_steps must lie in [2, 2e+06], got 1"),
    ({"sweep": {"loss_max": 5}},
     "sweep.loss_max=5.0 must be >= 0 and keep the span gain (loss x 200 km + amplifier."
     "pre_input_loss_db + amplifier.post_output_loss_db = 1004 dB) <= 1000 dB"),
    # Two bad sections: the first refused is the first built, transceiver to powerfeed.
    ({"amplifier": {"noise_figure_db": -1}, "transceiver": {"gap_db": -1}},
     "transceiver.gap_db must lie in [0, 60], got -1.0"),
    ({"powerfeed": {"supply_limit_w": 0}, "sweep": {"loss_steps": 1}},
     "sweep.loss_steps must lie in [2, 2e+06], got 1"),
    ({"fiber": {"group_index": 0.5}, "amplifier": {"pre_input_loss_db": -1}},
     "fiber.group_index must lie in [1, 2], got 0.5"),
], ids=["fiber", "span", "link", "amplifier", "transceiver", "powerfeed", "sweep",
        "sweep-nli", "transceiver-first", "sweep-first", "fiber-first"])
def test_bad_section_keeps_its_message(document, message):
    """A section built only when named still refuses a bad value as it did when
    every section was built on each parse, and in the same order."""
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(document))
    assert str(info.value) == message


@pytest.mark.parametrize("case", ["pinned gap", "calibrated gap", "tabulated", "--trx-table"])
def test_transceiver_echo_is_the_resolved_section(tmp_path, case):
    """The echo is the config's transceiver section with the table path or the
    calibrated gap filled in: the asdict of the resolved TransceiverSpec, key
    order included. The config's own values stay as parsed."""
    table = tmp_path / "trx.csv"
    table.write_text("10,400\n20,700\n")
    text = {
        "pinned gap": "transceiver.gap_db = 4.5\ntransceiver.max_rate_gbps = 600\n",
        "calibrated gap": "transceiver.calibration_target_tbps = 900\n",
        "tabulated": f"transceiver.variant = tabulated\ntransceiver.table_path = {table}\n",
        "--trx-table": "transceiver.gap_db = 4.5\n",
    }[case]
    cfg = parse_config(text)
    parsed = dict(cfg.values["transceiver"])
    model, echo = resolve_transceiver(cfg, cfg.plan(),
                                      str(table) if case == "--trx-table" else None)
    spec = cfg.transceiver()
    if case == "calibrated gap":
        spec = replace(spec, gap_db=model.gap_db)
    elif case == "--trx-table":
        spec = replace(spec, variant="tabulated", table_path=str(table))
    assert list(echo.items()) == list(asdict(spec).items())
    assert cfg.values["transceiver"] == parsed


def test_echo_is_values_with_the_resolved_section():
    """RunConfig.echo puts resolve_transceiver's section in place of the parsed
    one and shares the other sections with values. The section stays the second
    value of resolve_transceiver: perfbench's set-up probe reads its gap_db."""
    cfg = parse_config("")
    _, section = resolve_transceiver(cfg, cfg.plan())
    echo = cfg.echo(section)
    assert list(echo) == list(cfg.values)
    assert echo["transceiver"] is section and section["gap_db"] > 0
    assert all(echo[name] is cfg.values[name] for name in cfg.values if name != "transceiver")


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
        ("transceiver.gap_db = -1", "transceiver.gap_db must lie in [0, 60], got -1.0"),
        ("transceiver.max_rate_gbps = 0",
         "transceiver.max_rate_gbps must lie in [0.001, 1e+06], got 0.0"),
        ("transceiver.calibration_target_tbps = -5",
         "transceiver.calibration_target_tbps must lie in [0.001, 1e+09], got -5.0"),
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


def test_domain_table_is_readmes_copy():
    """README's domain table holds each key's row, bound for bound, in table order."""
    rows = [line.split("|")[1:4] for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `") and "." in line.split("|")[1]]
    assert [(key.strip().strip("`"), float(low), float(high)) for key, low, high in rows] == [
        (key, float(low), float(high)) for key, (low, high) in DOMAIN.items()]


def test_every_numeric_key_has_a_domain_row():
    numeric = [f"{section}.{key}" for section, keys in DEFAULTS.items() for key in keys
               if _kind(section, key).rstrip("?") in ("float", "int")]
    assert numeric == list(DOMAIN)
    for key, (low, high) in DOMAIN.items():
        section, name = key.split(".")
        default = DEFAULTS[section][name]
        assert low < high and (default is None or low <= default <= high), key


def _outside(key: str, bound: float, outward: float) -> float | int:
    """The nearest value past bound: the next float, or the next integer of an int key."""
    section, name = key.split(".")
    if _kind(section, name) == "int":
        return int(bound) + int(outward)
    return math.nextafter(bound, outward * math.inf)


@pytest.mark.parametrize("key", list(DOMAIN))
def test_value_just_outside_each_bound_is_refused_by_key(key):
    """One step past either bound of a key's row, alone in a document, is refused
    with the row's message, before any cross-key rule."""
    section, name = key.split(".")
    low, high = DOMAIN[key]
    for bound, outward in ((low, -1.0), (high, 1.0)):
        value = _outside(key, bound, outward)
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({section: {name: value}}))
        assert str(info.value) == f"{key} must lie in [{low:g}, {high:g}], got {value}"


@pytest.mark.parametrize("flag,key,argv", [
    ("--span-min", "span.span_length_km", ["span-curve", "--span-max", "250", "--span-min"]),
    ("--span-max", "span.span_length_km", ["span-curve", "--span-min", "150", "--span-max"]),
    ("--losses", "fiber.loss_db_per_km", ["rbs", "--losses"]),
])
def test_flags_use_the_rows_of_their_keys(capsys, tmp_path, flag, key, argv):
    # A 1 km link, so that the least span passes MAX_SPANS and reaches its row.
    cfg = tmp_path / "run.json"
    cfg.write_text('{"link": {"total_length_km": 1}, "span": {"span_length_km": 1}}')
    low, high = DOMAIN[key]
    for value in (math.nextafter(low, 0.0), math.nextafter(high, math.inf)):
        assert main([*argv, repr(value), "--config", str(cfg)]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == f"{flag} must lie in [{low:g}, {high:g}], got {value}"
