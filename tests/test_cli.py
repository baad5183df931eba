from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import pytest

from hcflink import explore
from hcflink.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    main,
    run_command,
)
from hcflink.config import DEFAULTS, _kind, parse_config


def _run_json(capsys, argv):
    assert main(argv) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_rbs_defaults_reproduce_reported_values(capsys):
    doc = _run_json(capsys, ["rbs"])
    by_loss = {row["loss_db_per_km"]: row for row in doc["rows"]}
    assert by_loss[0.05]["gsnr_rbs_db"] == pytest.approx(28.48, abs=0.02)
    assert by_loss[0.07]["gsnr_rbs_db"] == pytest.approx(25.90, abs=0.02)
    assert by_loss[0.05]["enhancement"] == pytest.approx(2.1498, abs=1e-4)
    assert doc["config"]["fiber"]["backscatter_db_per_km"] == -70.0


def test_powerfeed_defaults(capsys):
    doc = _run_json(capsys, ["powerfeed"])
    assert doc["cable_w"] == 6600.0
    assert doc["repeaters_w"] == 5760.0
    assert doc["total_w"] == 12360.0
    assert doc["within_limit"] is True
    assert doc["n_repeaters"] == 32


def test_latency_defaults(capsys):
    doc = _run_json(capsys, ["latency"])
    assert doc["hollow_core_ms"] == pytest.approx(22.0, abs=0.1)
    assert doc["solid_core_ms"] == pytest.approx(32.3, abs=0.5)


def test_budget_reference_point(capsys):
    doc = _run_json(capsys, ["budget"])
    assert doc["budget"]["gsnr_db"] == pytest.approx(16.286, abs=1e-3)
    assert doc["cable_throughput_tbps"] == pytest.approx(1000.0, rel=1e-5)
    assert doc["config"]["transceiver"]["gap_db"] == pytest.approx(4.64, abs=0.01)
    assert doc["n_channels"] == 66
    assert doc["budget"]["snr_rbs_db"] is None


def test_budget_at_defaults_is_pinned(capsys):
    # The scalar rate path (math.log2) gives the bytes numpy's log2 gave.
    golden = Path(__file__).with_name("golden") / "budget_default.json"
    assert main(["budget"]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_span_curve_at_defaults_is_pinned(capsys, fmt):
    # The scalar math solve gives the bytes the numpy array solve gave.
    golden = Path(__file__).with_name("golden") / f"span_curve_default.{fmt}"
    assert main(["span-curve", "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_budget_with_rbs(capsys):
    doc = _run_json(capsys, ["budget", "--include-rbs", "true"])
    assert doc["budget"]["gsnr_db"] == pytest.approx(15.951, abs=1e-3)
    assert doc["budget"]["snr_rbs_db"] == pytest.approx(27.25, abs=0.01)


def test_budget_with_config_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[fiber]\nloss_db_per_km = 0.05\n")
    doc = _run_json(capsys, ["budget", "--config", str(cfg)])
    assert doc["config"]["fiber"]["loss_db_per_km"] == 0.05
    assert doc["operating_point"]["loss_db_per_km"] == 0.05


def test_budget_with_tabulated_transceiver(capsys, tmp_path):
    table = tmp_path / "trx.csv"
    table.write_text("10,400\n20,700\n")
    doc = _run_json(capsys, ["budget", "--trx-table", str(table)])
    assert doc["config"]["transceiver"]["variant"] == "tabulated"
    # GSNR 16.286 dB interpolates between the two rows
    assert doc["channel_net_rate_gbps"] == pytest.approx(400 + 300 * 0.62863, abs=0.5)


def test_contour_csv_to_file(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_steps = 5\npower_steps = 4\n")
    assert main(["contour", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "loss_db_per_km,edfa_power_dbm,gsnr_db,throughput_tbps"
    assert len(body) == 1 + 5 * 4
    assert any(l.startswith("# transceiver.gap_db = ") for l in lines)


def test_contour_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_steps = 4\npower_steps = 3\n")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["contour", "--config", str(cfg), "--output", str(first)]) == EXIT_OK
    assert main(["contour", "--config", str(cfg), "--output", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_contour_svg_matches_extractor(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_steps = 21\npower_steps = 23\n")
    doc = _run_json(capsys, [
        "contour", "--config", str(cfg), "--format", "json", "--levels", "1000",
    ])
    n_polylines = sum(len(c["polylines"]) for c in doc["contours"])
    out = tmp_path / "plot.svg"
    assert main([
        "contour", "--config", str(cfg), "--format", "svg", "--levels", "1000",
        "--output", str(out),
    ]) == EXIT_OK
    assert out.read_text().count("<polyline") == n_polylines


def test_span_curve_csv(capsys):
    assert main(["span-curve", "--span-min", "190", "--span-max", "210",
                 "--span-points", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "span_km,required_edfa_dbm,feasible"
    assert len(body) >= 2


def test_exit_code_config_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("fiber.unknown_knob = 1\n")
    assert main(["budget", "--config", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "config"
    assert "unknown_knob" in err["error"]["message"]


def test_exit_code_missing_config(capsys, tmp_path):
    assert main(["budget", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


def test_exit_code_infeasible(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("transceiver.calibration_target_tbps = 1e9\n")
    assert main(["budget", "--config", str(cfg)]) == EXIT_INFEASIBLE
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "infeasible"


def test_exit_code_io_error(capsys, tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["latency", "--output", str(out)]) == EXIT_IO
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "io"


def test_exit_code_missing_trx_table(capsys, tmp_path):
    assert main(["budget", "--trx-table", str(tmp_path / "absent.csv")]) == EXIT_IO


def test_run_command_rejects_unknown_command():
    cfg = parse_config("")
    with pytest.raises(ValueError):
        run_command("optimize", cfg)


def test_run_command_format_guard():
    cfg = parse_config("")
    with pytest.raises(ValueError, match="format"):
        run_command("latency", cfg, fmt="csv")


@pytest.mark.parametrize("key", ["loss_min", "loss_max", "power_min", "power_max"])
@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_sweep_bound_named(capsys, tmp_path, key, bad):
    cfg = tmp_path / "run.json"
    cfg.write_text(f'{{"sweep": {{"{key}": {bad}}}}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be stray stderr text
        assert main(["contour", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["code"] == "config"
    assert f"sweep.{key}" in err["message"]


def test_grid_size_bounded_before_allocation(capsys, tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("an oversized grid must be refused before the sweep runs")

    monkeypatch.setattr(explore, "sweep_grid", no_sweep)
    cfg = tmp_path / "run.json"
    cfg.write_text('{"sweep": {"loss_steps": 100000, "power_steps": 100000}}')
    assert main(["contour", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert "sweep.loss_steps" in message and "sweep.power_steps" in message


def test_extreme_sweep_power_is_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"sweep": {"power_max": 5000}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["contour", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert (json.loads(lines[0])["error"]["message"]
            == "sweep.power_max must lie within +/-300 dBm, got 5000.0")


def test_sweep_at_the_power_bounds_is_finite(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"sweep": {"power_min": -300, "power_max": 300}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ("csv", "json"):
            assert main(["contour", "--format", fmt, "--config", str(cfg)]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "nan" not in captured.out.lower() and "inf" not in captured.out.lower()
    doc = json.loads(captured.out)
    assert doc["grid"]["edfa_power_dbm"][0] == -300.0
    assert doc["grid"]["edfa_power_dbm"][-1] == 300.0


_HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "command,document",
    [
        ("budget", {}),
        ("contour", {}),
        ("span-curve", {}),
        ("budget", {"transceiver": {"gap_db": 4.64}}),
    ],
)
def test_huge_fiber_count_is_a_config_error(capsys, tmp_path, command, document):
    cfg = tmp_path / "run.json"
    text = json.dumps({**document, "link": {"n_fibers_per_direction": "HUGE"}})
    cfg.write_text(text.replace('"HUGE"', _HUGE_INT))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert _one_config_error(capsys).startswith("link.n_fibers_per_direction must be <= 1e6")


@pytest.mark.parametrize("key", ["fiber.loss_db_per_km", "link.total_length_km",
                                 "transceiver.gap_db", "sweep.power_max"])
def test_float_key_given_a_huge_integer_is_named(capsys, tmp_path, key):
    section, name = key.split(".")
    cfg = tmp_path / "run.json"
    cfg.write_text(f'{{"{section}": {{"{name}": -{_HUGE_INT}}}}}')
    assert main(["budget", "--config", str(cfg)]) == EXIT_CONFIG
    assert _one_config_error(capsys).startswith(f"{key}: must be finite")


def test_span_curve_reaches_targets_past_the_nli_bend(capsys, tmp_path):
    # gamma = 0.05 /W/km bends throughput back down: the peak is ~1250 Tb/s at
    # ~25.7 dBm, yet 30 dBm, the top of the window, falls short of 1125 Tb/s.
    cfg = tmp_path / "hot.json"
    cfg.write_text('{"fiber": {"gamma_per_w_km": 0.05}, "transceiver": {"gap_db": 4.64}}')
    doc = _run_json(capsys, ["span-curve", "--config", str(cfg), "--target-tbps", "1125",
                             "--format", "json"])
    assert all(point["feasible"] for point in doc["points"])
    at_200 = next(point for point in doc["points"] if point["span_km"] == 200.0)
    assert at_200["required_edfa_dbm"] == pytest.approx(22.2693134502, abs=1e-9)


# The sweep section's non-finite bounds are covered by test_non_finite_sweep_bound_named.
_NON_FINITE = [
    (f'{{"{section}": {{"{key}": {bad}}}}}', [f"{section}.{key}"])
    for section, keys in DEFAULTS.items()
    if section != "sweep"
    for key in keys
    if _kind(section, key).startswith("float")
    for bad in ("NaN", "Infinity", "-Infinity")
]


@pytest.mark.parametrize(
    "document,keys",
    _NON_FINITE
    + [
        ('{"amplifier": {"total_output_power_dbm": 5000}}', ["amplifier.total_output_power_dbm"]),
        ('{"amplifier": {"total_output_power_dbm": -5000}}', ["amplifier.total_output_power_dbm"]),
        ('{"link": {"band_hz": 5e10}}', ["link.band_hz", "link.channel_spacing_hz"]),
        ('{"sweep": {"power_min": 30, "power_max": 20}}', ["sweep.power_min", "sweep.power_max"]),
        ('{"sweep": {"loss_min": 0.09}}', ["sweep.loss_min", "sweep.loss_max"]),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_bad_config_value_is_named_on_one_line(capsys, tmp_path, document, keys):
    cfg = tmp_path / "run.json"
    cfg.write_text(document)
    assert main(["budget", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["code"] == "config"
    assert all(key in err["message"] for key in keys)


def _one_config_error(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["code"] == "config"
    return err["message"]


@pytest.mark.parametrize(
    "command,document,keys",
    [
        ("budget", {"amplifier": {"noise_figure_db": 5000}}, ["amplifier.noise_figure_db"]),
        ("budget", {"amplifier": {"pre_input_loss_db": 5000}}, ["amplifier.pre_input_loss_db"]),
        ("budget", {"fiber": {"loss_db_per_km": 1000}}, ["fiber.loss_db_per_km"]),
        ("budget", {"amplifier": {"total_output_power_dbm": 1500}},
         ["amplifier.total_output_power_dbm"]),
        ("budget", {"link": {"total_length_km": 1e300}, "span": {"span_length_km": 1e-10}},
         ["link.total_length_km", "span.span_length_km"]),
        ("budget", {"span": {"span_length_km": 8000}},
         ["span.span_length_km", "link.total_length_km"]),
        ("powerfeed", {"span": {"span_length_km": 8000}},
         ["span.span_length_km", "link.total_length_km"]),
        ("contour", {"sweep": {"loss_max": 1000}}, ["sweep.loss_max"]),
        ("powerfeed", {"powerfeed": {"feed_current_a": 1e300}}, ["powerfeed.feed_current_a"]),
        # An attenuation that underflows: 5e-324 dB/km used to divide by zero.
        ("budget", {"fiber": {"loss_db_per_km": 5e-324}}, ["fiber.loss_db_per_km"]),
        ("span-curve", {"fiber": {"loss_db_per_km": 1e-310}}, ["fiber.loss_db_per_km"]),
        ("contour", {"sweep": {"loss_min": 5e-324}}, ["sweep.loss_min"]),
    ],
)
def test_out_of_range_config_value_is_named(capsys, tmp_path, command, document, keys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    message = _one_config_error(capsys)
    assert all(key in message for key in keys)


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["span-curve", "--target-tbps", "nan", "--format", "json"], "--target-tbps"),
        (["span-curve", "--target-tbps", "nan", "--format", "csv"], "--target-tbps"),
        (["contour", "--format", "json", "--levels", "nan"], "--levels"),
        (["rbs", "--losses", "nan"], "--losses"),
        (["rbs", "--losses", "5000"], "--losses"),
        (["rbs", "--losses", "-0.01"], "--losses"),
        (["span-curve", "--span-min=-inf"], "--span-min"),
        (["span-curve", "--span-max", "inf"], "--span-max"),
        (["span-curve", "--span-points", "0"], "--span-points"),
        (["span-curve", "--span-points", str(explore.MAX_SPAN_POINTS + 1)], "--span-points"),
    ],
)
def test_bad_flag_value_is_named(capsys, argv, flag):
    assert main(argv) == EXIT_CONFIG
    assert flag in _one_config_error(capsys)


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--span-min", "300", "--span-max", "200"], ("--span-min", "--span-max")),
        (["--span-min", "0"], ("--span-min",)),
        (["--span-min", "-5"], ("--span-min",)),
        (["--span-min", "1e-300"], ("--span-min", "link.total_length_km")),
        (["--span-min", "0.0659"], ("--span-min", "link.total_length_km")),
    ],
)
def test_bad_span_range_names_its_flags(capsys, flags, named):
    assert main(["span-curve", *flags]) == EXIT_CONFIG
    message = _one_config_error(capsys)
    assert all(name in message for name in named)


def test_span_min_at_max_spans_runs(capsys):
    # 6600 km / 0.066 km is exactly MAX_SPANS spans, the most allowed.
    assert main(["span-curve", "--span-min", "0.066", "--span-max", "0.066",
                 "--span-points", "1"]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["budget", "span-curve", "contour"])
@pytest.mark.parametrize(
    "document,key",
    [
        ({"fiber": {"loss_db_per_km": 9.7e-308}}, "fiber.loss_db_per_km"),
        ({"fiber": {"loss_db_per_km": 1e-307}}, "fiber.loss_db_per_km"),
        ({"fiber": {"loss_db_per_km": 1e-305}}, "fiber.loss_db_per_km"),
        ({"fiber": {"loss_db_per_km": 1e-302}, "link": {"band_hz": 1.9e14}},
         "fiber.loss_db_per_km"),
        ({"sweep": {"loss_min": 1e-307}}, "sweep.loss_min"),
    ],
)
def test_loss_that_overflows_the_nli_is_named(capsys, tmp_path, command, document, key):
    # Above the attenuation floor, yet 0.5*pi^2*|beta2|*B^2/alpha overflows.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    message = _one_config_error(capsys)
    assert key in message and "asinh argument" in message


@pytest.mark.parametrize(
    "argv,document",
    [
        (["budget"], {"fiber": {"loss_db_per_km": 1e-300}}),
        (["contour", "--format", "json"], {"sweep": {"loss_min": 1e-300}}),
    ],
)
def test_tiny_loss_keeps_a_finite_budget(capsys, tmp_path, argv, document):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    doc = _run_json(capsys, [*argv, "--config", str(cfg)])
    gsnr = doc["budget"]["gsnr_db"] if "budget" in doc else doc["grid"]["gsnr_db"][0][0]
    assert math.isfinite(gsnr)


_FLOAT_KEYS = [
    (section, key)
    for section, keys in DEFAULTS.items()
    for key in keys
    if _kind(section, key).startswith("float")
]


@pytest.mark.parametrize("section,key", _FLOAT_KEYS)
def test_budget_survives_extreme_finite_values(capsys, tmp_path, section, key):
    """No finite value ends in a traceback: budget succeeds or reports one error line."""
    cfg = tmp_path / "run.json"
    for value in (1e300, -1e300, 5000.0, -5000.0, 1e-300):
        cfg.write_text(json.dumps({section: {key: value}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["budget", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE), (value, code)
        if code != EXIT_OK:
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert json.loads(captured.err)["error"]["code"] in ("config", "infeasible")
