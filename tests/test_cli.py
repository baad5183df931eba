from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from xml.etree import ElementTree

import pytest

from hcflink import explore, outputs, system
from hcflink.cli import (
    _HANDLERS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    FORMATS,
    build_parser,
    main,
    run_command,
    write_command,
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


def test_powerfeed_reads_the_plans_repeater_count(monkeypatch):
    cfg = parse_config("")
    calls = []
    count = system.repeater_count
    monkeypatch.setattr(system, "repeater_count", lambda *args: calls.append(args) or count(*args))
    assert json.loads(run_command("powerfeed", cfg))["n_repeaters"] == 32
    assert calls == []


def test_json_records_carry_every_dataclass_field(capsys):
    """budget's operating point and powerfeed's result are written field by
    field; a field added to either record must reach the JSON too."""
    cfg = parse_config("")
    budget = _run_json(capsys, ["budget"])
    assert budget["operating_point"] == asdict(cfg.operating_point())
    doc = _run_json(capsys, ["powerfeed"])
    plan = cfg.plan()
    result = system.power_feed(cfg.power_feed(), plan.total_length_km, doc["n_repeaters"])
    assert {name: doc[name] for name in asdict(result)} == asdict(result)


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


def test_contour_svg_at_defaults_is_pinned(capsys):
    golden = Path(__file__).with_name("golden") / "contour_default.svg"
    assert main(["contour", "--format", "svg", "--levels", "950,1000,1050"]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def _echoed_table_path(text: str, fmt: str) -> str | None:
    """transceiver.table_path as the output echoes it, decoded."""
    if fmt == "json":
        return json.loads(text)["config"]["transceiver"]["table_path"]
    if fmt == "svg":
        builder = ElementTree.TreeBuilder(insert_comments=True)
        root = ElementTree.fromstring(text, ElementTree.XMLParser(target=builder))
        lines = ["#" + node.text for node in root if node.tag is ElementTree.Comment]
    else:
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header] in (outputs.GRID_CSV_HEADER, outputs.SPAN_CSV_HEADER)
        lines = lines[:header]
    prefix = "# transceiver.table_path = "
    (echoed,) = [line[len(prefix):].rstrip() for line in lines if line.startswith(prefix)]
    return None if echoed == "none" else json.loads(echoed) if echoed[0] == '"' else echoed


@pytest.mark.parametrize("table", [None, "a--b.csv", "x-->y<svg>", "x\ny,1,2,3", "a\ud800b"],
                         ids=["default", "double-hyphen", "comment-close", "newline",
                              "surrogate"])
@pytest.mark.parametrize("command,fmt", [(c, f) for c, formats in FORMATS.items()
                                         for f in formats])
def test_every_output_parses_and_echoes_the_table_path(capsys, tmp_path, command, fmt, table):
    """Whatever string transceiver.table_path holds, JSON loads, SVG is
    well-formed XML, CSV has only '#' lines before its header, and the echo
    reads back the value. a--b.csv is a real table, passed by --trx-table to
    the commands that take it; the other values sit in the config, where the
    Shannon-gap variant never opens them."""
    argv = [command, "--format", fmt]
    if table == "a--b.csv":
        table = str(tmp_path / table)
        Path(table).write_text("10,400\n20,700\n")
        if command in ("budget", "contour", "span-curve"):  # the commands with --trx-table
            argv += ["--trx-table", table]
    if table is not None and "--trx-table" not in argv:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"transceiver": {"table_path": table}}))
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_OK
    assert _echoed_table_path(capsys.readouterr().out, fmt) == table


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


def test_contour_json_vertices_lie_on_grid_rows(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_min = 0.0451\nloss_max = 0.0853\nloss_steps = 37\n"
                   "power_steps = 5\n")
    doc = _run_json(capsys, ["contour", "--config", str(cfg), "--format", "json",
                             "--levels", "950,1000,1050"])
    rows = set(doc["grid"]["loss_db_per_km"])
    vertices = [v for c in doc["contours"] for line in c["polylines"] for v in line]
    assert vertices and all(loss in rows for loss, _ in vertices)


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_contour_computes_each_rows_terms_once(monkeypatch, tmp_path, fmt):
    """The sweep and every level read one set of row terms: one gsnr_terms
    call per loss row, whatever the number of levels."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return system.gsnr_terms(*args)

    monkeypatch.setattr(explore, "gsnr_terms", counted)
    explore._row_terms.cache_clear()
    cfg = parse_config("[sweep]\nloss_steps = 37\npower_steps = 5\n")
    run_command("contour", cfg, fmt=fmt, levels=(950.0, 1000.0, 1050.0))
    assert calls == explore._linspace(0.045, 0.085, 37)


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


@pytest.mark.parametrize("flag", ["--config", "--trx-table"])
def test_non_utf8_input_file_is_named(capsys, tmp_path, flag):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# comment \xff\n")
    assert main(["budget", flag, str(path)]) == EXIT_CONFIG
    message = _one_config_error(capsys)
    assert str(path) in message
    assert "'utf-8' codec can't decode byte 0xff in position 10" in message


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


@pytest.mark.parametrize("command,fmt", [(c, f) for c in ("budget", "span-curve", "contour")
                                         for f in FORMATS[c]])
def test_table_segment_that_overflows_is_named(capsys, tmp_path, command, fmt):
    """A table whose one segment's width and rise overflow is refused before any
    output, naming the file and its two rows, by every command and format that reads it."""
    table = tmp_path / "trx.csv"
    table.write_text("-1.7e308,-1.7e308\n1.7e308,1.7e308\n")
    assert main([command, "--format", fmt, "--trx-table", str(table)]) == EXIT_CONFIG
    assert _one_config_error(capsys) == (
        f"{table}: table rows 1 (-1.7e+308, -1.7e+308) and 2 (1.7e+308, 1.7e+308): "
        "the segment's width or slope is beyond float range")


@pytest.mark.parametrize("command,fmt", [(c, f) for c in ("budget", "span-curve", "contour")
                                         for f in FORMATS[c]])
def test_table_rates_that_overflow_the_throughput_are_named(capsys, tmp_path, command, fmt):
    """Finite rates whose product with the plan's 26 x 66 carriers overflows are
    refused before any output, naming the table and its greatest rate."""
    table = tmp_path / "trx.csv"
    table.write_text("10,1e306\n20,1.7e308\n")
    assert main([command, "--format", fmt, "--trx-table", str(table)]) == EXIT_CONFIG
    assert _one_config_error(capsys) == (
        f"{table}: net_rate_gbps 1.7e+308 on 1716 carriers "
        "takes the cable throughput beyond float range")


@pytest.mark.parametrize("command", sorted(FORMATS))
@pytest.mark.parametrize("document", [
    {"link": {"band_hz": 1.9e14, "channel_spacing_hz": 1e6, "symbol_rate_hz": 1e6}},
    {"link": {"channel_spacing_hz": 1e6, "symbol_rate_hz": 1e6,
              "n_fibers_per_direction": 10_000}},
])
def test_channel_count_past_the_bound_is_named(capsys, tmp_path, command, document):
    """A band holding more than MAX_CHANNELS channels of a spacing inside the
    domain is refused by the channel-count rule, which names both widths."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    message = _one_config_error(capsys)
    assert "link.band_hz" in message and "link.channel_spacing_hz" in message
    assert message.endswith(f"exceeds MAX_CHANNELS = {system.MAX_CHANNELS}")


@pytest.mark.parametrize("rows,message", [
    ("10,400\n8,500\n", "table gsnr_db must be strictly increasing: 10.0 then 8.0"),
    ("8,500\n10,400\n", "table net_rate_gbps must be nondecreasing: 500.0 then 400.0"),
], ids=["gsnr-order", "rate-order"])
def test_table_order_error_names_the_file(capsys, tmp_path, rows, message):
    table = tmp_path / "trx.csv"
    table.write_text(rows)
    assert main(["budget", "--trx-table", str(table)]) == EXIT_CONFIG
    assert _one_config_error(capsys) == f"{table}: {message}"


@pytest.mark.parametrize("document,argv,message", [
    # The plan's spans fit; span-curve's range leaves the span row.
    ({"transceiver": {"gap_db": 0}}, ["span-curve", "--span-min", "1e3", "--span-max", "1e5"],
     "--span-max must lie in [0.001, 10000], got 100000.0"),
    # rbs once wrote -inf here and failed in the JSON writer.
    ({"fiber": {"backscatter_db_per_km": 0}}, ["rbs", "--losses", "1e-294"],
     "--losses must lie in [0.0001, 10], got 1e-294"),
], ids=["span-curve-range", "rbs"])
def test_nli_effective_length_names_what_stretches_it(capsys, tmp_path, document, argv, message):
    """A flag that would stretch the NLI effective length, a span past the span
    row or a loss below the loss row, exits 2 naming the flag and the row of the
    key it stands for."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
    assert _one_config_error(capsys) == message


def test_rbs_whose_ratio_underflows_has_no_gsnr(capsys, tmp_path):
    """A backscatter whose linear ratio would underflow to 0 lies outside the
    domain; at the row's floor the rbs table's SNR is the budget's, a number."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[fiber]\nbackscatter_db_per_km = -3240\n")
    for argv in (["budget", "--include-rbs", "true"], ["rbs"]):
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        assert _one_config_error(capsys) == ("fiber.backscatter_db_per_km must lie in [-300, 0], "
                                             "got -3240.0")
    cfg.write_text("[fiber]\nbackscatter_db_per_km = -300\n")
    budget = _run_json(capsys, ["budget", "--include-rbs", "true", "--config", str(cfg)])
    doc = _run_json(capsys, ["rbs", "--config", str(cfg), "--losses", "0.06"])
    assert doc["rows"][0]["gsnr_rbs_db"] == budget["budget"]["snr_rbs_db"] > 250


def _ten_channels(spacing_hz: float, **fiber) -> dict:
    return {"link": {"band_hz": 10 * spacing_hz, "channel_spacing_hz": spacing_hz,
                     "symbol_rate_hz": spacing_hz},
            "fiber": fiber, "transceiver": {"gap_db": 0}}


@pytest.mark.parametrize("document", [
    # The NLI prefix's cube used to leave float range as an uncaught OverflowError.
    _ten_channels(1e-291),
    # An infinite launch PSD without NLI: 0 * inf used to reach the kernels as NaN.
    _ten_channels(5e-324, gamma_per_w_km=0),
], ids=["cube-overflows", "psd-overflows"])
@pytest.mark.parametrize("command", FORMATS)
def test_channel_grid_whose_nli_prefix_overflows_is_named(capsys, tmp_path, command, document):
    """Every command and format refuses channels so narrow that the NLI prefix at
    the 1 mW reference would leave float range, naming the band's domain row;
    ten channels of 1 MHz, the narrowest the domain holds, compute."""
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(document))
    good.write_text(json.dumps(_ten_channels(1e6)))
    for fmt in FORMATS[command]:
        assert main([command, "--format", fmt, "--config", str(bad)]) == EXIT_CONFIG
        assert _one_config_error(capsys) == (f"link.band_hz must lie in [1e+06, 1.934e+14], "
                                             f"got {document['link']['band_hz']}")
        assert main([command, "--format", fmt, "--config", str(good)]) == EXIT_OK
        assert capsys.readouterr().err == ""


def test_run_command_rejects_unknown_command():
    cfg = parse_config("")
    with pytest.raises(ValueError):
        run_command("optimize", cfg)


@pytest.mark.parametrize(
    "command,fmt",
    [("latency", "csv"), ("budget", "csv"), ("rbs", "svg"), ("powerfeed", "csv"),
     ("contour", "xml"), ("span-curve", "svg")],
)
def test_run_command_format_guard(command, fmt):
    cfg = parse_config("")
    with pytest.raises(ValueError, match="format"):
        run_command(command, cfg, fmt=fmt)


@pytest.mark.parametrize("command", ["contour", "span-curve"])
def test_run_command_defaults_to_the_cli_format(capsys, tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_steps = 4\npower_steps = 3\n")
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    assert run_command(command, parse_config(cfg.read_text())) == capsys.readouterr().out
    assert FORMATS[command][0] == "csv"


@pytest.mark.parametrize(
    "argv,named",
    [
        (["span-curve", "--span-points", "abc"], "--span-points"),
        (["budget", "--format", "csv"], "--format"),
        (["latency", "--bogus"], "--bogus"),
        ([], "command"),
        (["contour", "--levels"], "--levels"),
    ],
    ids=["span-points-abc", "budget-format-csv", "unknown-flag", "no-command", "levels-no-value"],
)
def test_usage_error_is_one_json_line(capsys, argv, named):
    assert main(argv) == EXIT_CONFIG
    assert named in _one_config_error(capsys)


def test_help_still_exits_0_with_the_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: hcflink")
    assert captured.err == ""


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command in ("rbs", "powerfeed", "latency")
     for flag in ("--include-rbs", "--target-tbps", "--trx-table")]
    + [("budget", "--target-tbps"), ("contour", "--target-tbps")],
)
def test_flag_the_command_does_not_read_is_refused(capsys, tmp_path, command, flag):
    table = tmp_path / "trx.csv"
    table.write_text("10,400\n20,700\n")
    value = {"--include-rbs": "true", "--target-tbps": "1000", "--trx-table": str(table)}[flag]
    assert main([command, flag, value]) == EXIT_CONFIG
    assert flag in _one_config_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        # The argv shapes the benchmark runs (perfbench/gen.py and perfbench/run.py).
        ["budget", "--include-rbs", "true"],
        ["contour", "--config", "large.json", "--format", "csv"],
        ["contour", "--config", "large.json", "--format", "svg", "--levels", "950,1000"],
        ["span-curve", "--include-rbs", "true", "--trx-table", "t.csv", "--target-tbps", "900",
         "--span-min", "150", "--span-max", "250", "--span-points", "21", "--format", "json"],
    ],
    ids=" ".join,
)
def test_flags_map_onto_write_command_keywords(argv):
    """Only the flags given reach the namespace: --format as write_command's fmt,
    each other flag as a keyword of the command's handler."""
    flags = vars(build_parser().parse_args(argv))
    assert flags.pop("command") == argv[0]
    flags.pop("config", None)
    assert len(flags) == len(argv[1::2]) - ("--config" in argv)
    assert flags.pop("fmt", None) in (None, *FORMATS[argv[0]])
    assert set(flags) <= _keyword_only(_HANDLERS[argv[0]])


def _keyword_only(handler) -> set[str]:
    return {name for name, param in inspect.signature(handler).parameters.items()
            if param.kind is inspect.Parameter.KEYWORD_ONLY}


def test_each_subparser_sets_exactly_its_handler_keywords():
    """Each command's flags, past --config, --output and --format, are its
    handler's keyword-only parameters, which hold their defaults."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(commands.choices) == set(_HANDLERS) == set(FORMATS)
    for command, parser in commands.choices.items():
        dests = {action.dest for action in parser._actions} - {"help", "config", "output", "fmt"}
        assert dests == _keyword_only(_HANDLERS[command]), command
    assert set(inspect.signature(write_command).parameters) == {
        "command", "cfg", "fh", "fmt", "options"}


def test_keyword_the_command_does_not_take_is_a_type_error():
    """A library caller's keyword that the command does not take is refused
    before the first write, as its flag is on the command line."""
    cfg = parse_config("")
    with pytest.raises(TypeError, match="include_rbs"):
        run_command("rbs", cfg, include_rbs=True)
    buf = io.StringIO()
    with pytest.raises(TypeError, match="losses"):
        write_command("budget", cfg, buf, losses=(0.06,))
    assert buf.getvalue() == ""


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

    monkeypatch.setattr(explore, "sweep_rows", no_sweep)
    cfg = tmp_path / "run.json"
    cfg.write_text('{"sweep": {"loss_steps": 100000, "power_steps": 100000}}')
    assert main(["contour", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert "sweep.loss_steps" in message and "sweep.power_steps" in message


# Loss and lumped losses near 0, no NLI and IMI below the least float: 1/GSNR
# would underflow to a subnormal or to 0, and its inverse to inf. The loss lies
# outside its domain row.
_NON_FINITE_GRID = """[fiber]
loss_db_per_km = 1e-20
gamma_per_w_km = 0
imi_db_per_km = -3130
[amplifier]
pre_input_loss_db = 0
post_output_loss_db = 0
[transceiver]
gap_db = 1
[sweep]
loss_min = 1e-20
loss_max = 1e-19
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_non_finite_grid_is_refused_before_the_first_byte(capsys, tmp_path, monkeypatch, fmt,
                                                          to_file):
    """The refusal of a grid that would hold non-finite cells comes before any row
    is written and before any worker forks, even where the grid would be split over
    workers: the domain refuses its loss."""
    def no_fork(rows):
        raise AssertionError("a non-finite grid must be refused before any fork")

    monkeypatch.setattr(outputs, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(outputs, "MIN_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(outputs, "_fork_worker", no_fork)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_NON_FINITE_GRID)
    out = tmp_path / "grid.out"
    argv = ["contour", "--config", str(cfg), "--format", fmt]
    assert main(argv + (["--output", str(out)] if to_file else [])) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {
        "code": "config", "message": "fiber.loss_db_per_km must lie in [0.0001, 10], got 1e-20"}
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_extreme_sweep_power_is_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"sweep": {"power_max": 5000}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["contour", "--config", str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert (json.loads(lines[0])["error"]["message"]
            == "sweep.power_max must lie in [-60, 60], got 5000.0")


def test_sweep_at_the_power_bounds_is_finite(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"sweep": {"power_min": -60, "power_max": 60}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ("csv", "json"):
            assert main(["contour", "--format", fmt, "--config", str(cfg)]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "nan" not in captured.out.lower() and "inf" not in captured.out.lower()
    doc = json.loads(captured.out)
    assert doc["grid"]["edfa_power_dbm"][0] == -60.0
    assert doc["grid"]["edfa_power_dbm"][-1] == 60.0


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
    assert _one_config_error(capsys) == (f"link.n_fibers_per_direction must lie in [0, 10000], "
                                         f"got {_HUGE_INT}")


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
        # The parser's own errors.
        ("[ ]\n", ["line 1: empty section name"]),
        ("[fiber]\n = 1\n", ["line 2: empty key"]),
        ("fiber. = 1\n", ["line 1: malformed dotted key"]),
        (".x = 1\n", ["line 1: malformed dotted key"]),
        ('{"fiber": 1}', ["section 'fiber' must hold key/value pairs"]),
        # Only text that starts with '{' is read as JSON; this is a section line.
        ("[1]", ["unknown section '1'"]),
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
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["code"] == "config"
    return err["message"]


# The 1/SNR terms of this config all round to 0 at every operating point.
_ZERO_TERMS = {"fiber": {"gamma_per_w_km": 0, "imi_db_per_km": -4000, "loss_db_per_km": 1e-20},
               "amplifier": {"pre_input_loss_db": 0, "post_output_loss_db": 0},
               "sweep": {"loss_min": 1e-20, "loss_max": 2e-20}, "transceiver": {"gap_db": 0}}


@pytest.mark.parametrize(
    "command,document,keys",
    [
        ("budget", {"amplifier": {"noise_figure_db": 5000}}, ["amplifier.noise_figure_db"]),
        ("budget", {"amplifier": {"pre_input_loss_db": 5000}}, ["amplifier.pre_input_loss_db"]),
        ("budget", {"fiber": {"loss_db_per_km": 1000}}, ["fiber.loss_db_per_km"]),
        ("budget", {"amplifier": {"total_output_power_dbm": 1500}},
         ["amplifier.total_output_power_dbm"]),
        ("budget", {"link": {"total_length_km": 1e5}, "span": {"span_length_km": 1e-3}},
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
        # A feed budget past float range used to reach the JSON writer as inf; the
        # domain holds it below 1e12 W.
        ("powerfeed", {"powerfeed": {"cable_resistance_ohm_per_km": 1e306}},
         ["powerfeed.cable_resistance_ohm_per_km"]),
        ("powerfeed", {"powerfeed": {"repeater_power_w": 1e307}}, ["powerfeed.repeater_power_w"]),
        # A latency past float range used to reach the JSON writer as inf; the
        # domain holds the link and the group index far below it.
        ("latency", {"link": {"total_length_km": 1e300}}, ["link.total_length_km"]),
        ("latency", {"link": {"total_length_km": 1.7976931348623157e308},
                     "span": {"span_length_km": 1e305}, "fiber": {"loss_db_per_km": 1e-303},
                     "sweep": {"loss_min": 1e-303, "loss_max": 2e-303}},
         ["fiber.loss_db_per_km must lie in [0.0001, 10], got 1e-303"]),
        ("latency", {"fiber": {"group_index": 1e308}}, ["fiber.group_index"]),
        # A huge loss over tiny spans keeps its span gain but would underflow the
        # NLI's denominator pi*|beta2|/alpha to 0; it used to divide by zero.
        *[(command, {"fiber": {"loss_db_per_km": 3e301}, "span": {"span_length_km": 1e-299},
                     "link": {"total_length_km": 1e-297}}, ["fiber.loss_db_per_km"])
          for command in ("budget", "span-curve", "contour")],
        ("contour", {"sweep": {"loss_max": 3e301}}, ["sweep.loss_max"]),
        ("contour", {"sweep": {"loss_min": 1e302, "loss_max": 1e303}}, ["sweep.loss_min"]),
        # A tiny loss over spans whose NLI effective length, squared, would leave
        # float range; it used to overflow in the kernel.
        *[(command, {"link": {"total_length_km": 1e160}, "span": {"span_length_km": 1e155},
                     "fiber": {"loss_db_per_km": 1e-160},
                     "sweep": {"loss_min": 1e-160, "loss_max": 2e-160}},
           ["fiber.loss_db_per_km must lie in [0.0001, 10], got 1e-160"])
          for command in ("budget", "span-curve", "contour")],
        # The fiber's effective length fits; the sweep's least loss would stretch it.
        ("contour", {"sweep": {"loss_min": 1e-160, "loss_max": 2e-160},
                     "transceiver": {"gap_db": 0}},
         ["sweep.loss_min must lie in [0.0001, 10], got 1e-160"]),
        # No NLI, IMI below the least float and span gains whose G - 1 rounds to 0: the
        # terms would sum to 0, or so little that the GSNR overflows. Both used to name
        # no key; the loss row, then the IMI row, refuses them.
        ("budget", _ZERO_TERMS, ["fiber.loss_db_per_km must lie in [0.0001, 10], got 1e-20"]),
        ("budget", {**_ZERO_TERMS, "fiber": {**_ZERO_TERMS["fiber"], "loss_db_per_km": 1e-4,
                                             "imi_db_per_km": -3230},
                    "sweep": {"loss_min": 1e-4, "loss_max": 2e-4}},
         ["fiber.imi_db_per_km must lie in [-300, 0], got -3230.0"]),
        # A 1 mW launch PSD whose NLI prefix is finite, but whose product with the
        # effective length squared is not; it used to name no key.
        *[(command, {"link": {"band_hz": 1e-100, "channel_spacing_hz": 1e-100,
                              "symbol_rate_hz": 1e-100},
                     "fiber": {"gamma_per_w_km": 1e6, "loss_db_per_km": 1e-4},
                     "span": {"span_length_km": 6600}, "amplifier": {"post_output_loss_db": 0},
                     "sweep": {"loss_min": 1e-4, "loss_max": 2e-4}},
           ["fiber.gamma_per_w_km must lie in [0, 100], got 1000000.0"])
          for command in ("budget", "contour")],
        # A span gain that underflows to 0 dB reached ase_inv_snrs, which named no
        # key, and rbs, powerfeed and latency computed.
        *[(command, {"link": {"total_length_km": 1e-30}, "span": {"span_length_km": 1e-30},
                     "fiber": {"loss_db_per_km": 1e-300},
                     "amplifier": {"pre_input_loss_db": 0, "post_output_loss_db": 0}},
           ["fiber.loss_db_per_km must lie in [0.0001, 10], got 1e-300"])
          for command in sorted(FORMATS)],
    ],
)
def test_out_of_range_config_value_is_named(capsys, tmp_path, command, document, keys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    # Each format refuses the config with the same line: contour --format svg
    # builds no sweep grid, yet fails as csv and json do.
    messages = set()
    for fmt in FORMATS[command]:
        assert main([command, "--format", fmt, "--config", str(cfg)]) == EXIT_CONFIG
        messages.add(_one_config_error(capsys))
    (message,) = messages
    assert all(key in message for key in keys)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_sweep_row_is_named(capsys, tmp_path, fmt):
    """A config whose sweep rows would hold non-finite cells lies outside the
    domain: the grid formats and the svg format, which draws no grid, refuse it
    alike, naming the key."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_ZERO_TERMS))
    for argv in (["--format", fmt], ["--format", "svg"]):
        assert main(["contour", *argv, "--config", str(cfg)]) == EXIT_CONFIG
        assert _one_config_error(capsys) == ("fiber.loss_db_per_km must lie in [0.0001, 10], "
                                             "got 1e-20")


@pytest.mark.parametrize(
    "argv",
    [[command] for command in sorted(FORMATS)]
    + [[command, "--trx-table"] for command in ("budget", "contour", "span-curve")],
    ids=" ".join,
)
def test_tabulated_variant_without_a_table_is_refused_by_every_command(capsys, tmp_path, argv):
    """The config is refused when it is parsed, so every command refuses it with
    one message, and --trx-table does not rescue it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[transceiver]\nvariant = tabulated\n")
    table = tmp_path / "table.csv"
    table.write_text("10,400\n20,700\n")
    argv = [*argv, str(table)] if "--trx-table" in argv else argv
    assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
    assert _one_config_error(capsys) == ("transceiver.table_path is required for the tabulated "
                                         "variant (transceiver.variant)")


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
        (["rbs", "--losses", ","], "--losses"),
        (["rbs", "--losses", "0.05,abc"], "--losses"),
        (["contour", "--levels", ""], "--levels"),
        (["span-curve", "--target-tbps", "0"], "--target-tbps"),
        (["span-curve", "--target-tbps", "-5"], "--target-tbps"),
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
    # Above the attenuation floor, yet 0.5*pi^2*|beta2|*B^2/alpha would overflow:
    # the loss row refuses such a loss first.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert _one_config_error(capsys).startswith(f"{key} must lie in [0.0001, 10], got ")


@pytest.mark.parametrize(
    "argv,document",
    [
        (["budget"], {"fiber": {"loss_db_per_km": 1e-4}}),
        (["contour", "--format", "json"], {"sweep": {"loss_min": 1e-4}}),
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


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reader_closing_early_is_an_io_error(tmp_path, unbuffered, fmt):
    """A reader that stops after 100 bytes ends the run in exit 4 and one JSON
    line, whether or not PYTHONUNBUFFERED puts stdout on a raw FileIO."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_steps = 150\npower_steps = 150\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-c", "import sys; from hcflink.cli import main; sys.exit(main())",
         "contour", "--config", str(cfg), "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == EXIT_IO
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == {"code": "io", "message": "[Errno 32] Broken pipe"}


def test_failed_run_leaves_no_new_output_file(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[fiber]\nloss_db_per_km = -1\n")
    out = tmp_path / "budget.json"
    assert main(["budget", "--config", str(cfg), "--output", str(out)]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]
    assert main(["budget", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_failed_run_keeps_the_existing_output_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_steps = 9\npower_steps = 5\n")
    out = tmp_path / "grid.csv"
    out.write_bytes(b"previous,result\n")
    # The writer fails half way: after the parent's rows, in a worker.
    parent, format_rows = os.getpid(), outputs._format_rows
    monkeypatch.setattr(outputs, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(outputs, "MIN_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(outputs, "_format_rows", lambda *a: (
        format_rows(*a) if os.getpid() == parent else 1 / 0))
    assert main(["contour", "--config", str(cfg), "--output", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["code"] == "io"
    assert "exited with status 1" in json.loads(err)["error"]["message"]
    assert out.read_bytes() == b"previous,result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "run.cfg"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_failure_on_stdout_is_one_io_error(capfd, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nloss_steps = 9\npower_steps = 5\n")
    parent, format_rows = os.getpid(), outputs._format_rows
    monkeypatch.setattr(outputs, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(outputs, "MIN_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(outputs, "_format_rows", lambda *a: (
        format_rows(*a) if os.getpid() == parent else 1 / 0))
    assert main(["contour", "--config", str(cfg)]) == EXIT_IO
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["code"] == "io"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_output_file_is_replaced_and_keeps_its_mode(tmp_path):
    out = tmp_path / "latency.json"
    out.write_text("stale")
    out.chmod(0o600)
    assert main(["latency", "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["command"] == "latency"
    assert out.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latency.json"]


def test_output_to_a_device_is_written_in_place():
    assert os.path.exists(os.devnull)
    assert main(["latency", "--output", os.devnull]) == EXIT_OK
    assert os.path.exists(os.devnull) and not Path(os.devnull).is_file()
