"""Hypothesis fuzz of cli.main over every subcommand's flags and every config key.

Each run ends in exit 0, 2, 3 or 4. A failure writes exactly one JSON error line
on stderr and nothing on stdout. A success writes no error text, and no NaN or
infinity reaches its output; the one exception is the span-curve CSV, which marks
an infeasible row with ``nan,false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hcflink.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, FORMATS, main
from hcflink.config import DEFAULTS, _kind, parse_config
from hcflink.explore import MAX_SPAN_POINTS

_CODES = {EXIT_CONFIG: "config", EXIT_INFEASIBLE: "infeasible", EXIT_IO: "io"}

# Boundary, huge, tiny, subnormal, non-numeric, non-finite and empty values.
_ODD = st.sampled_from([
    "", " ", "abc", "1,2", "0x10", "nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400",
    "0", "-0", "1e300", "-1e300", "1.7976931348623157e308", "2.2250738585072014e-308",
    "1e-310", "5e-324",
])


# Huge but finite, from float max down to ~1e148: squared, or multiplied by
# another key or by the 6600 km link, such a value leaves float range.
_HUGE = st.integers(0, 160).map(lambda k: repr(sys.float_info.max / 10.0**k))


def _number(low: float, high: float) -> st.SearchStrategy[str]:
    """Half the draws in [low, high], the rest any float or an odd value."""
    in_range = st.floats(low, high).map(repr)
    return st.one_of(in_range, in_range, st.floats().map(repr), _ODD)


def _number_list(low: float, high: float) -> st.SearchStrategy[str]:
    in_range = st.lists(st.floats(low, high).map(repr), min_size=1, max_size=4).map(",".join)
    odd = st.lists(st.one_of(st.floats(low, high).map(repr), _ODD), max_size=4).map(",".join)
    return st.one_of(in_range, in_range, odd, _ODD)


_LINK = ("--include-rbs", "--trx-table")
# The flags each command takes, past --config and --output, which every command takes.
_COMMAND_FLAGS = {
    "budget": (*_LINK, "--format"),
    "contour": (*_LINK, "--format", "--levels", "--field"),
    "span-curve": (*_LINK, "--format", "--target-tbps", "--span-min", "--span-max",
                   "--span-points"),
    "rbs": ("--format", "--losses"),
    "powerfeed": ("--format",),
    "latency": ("--format",),
}
_ALL_FLAGS = sorted({flag for flags in _COMMAND_FLAGS.values() for flag in flags})


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "small.cfg").write_text("[sweep]\nloss_steps = 5\npower_steps = 6\n")
    (root / "unreachable.cfg").write_text(
        "transceiver.calibration_target_tbps = 1e9\nsweep.loss_steps = 5\n")
    (root / "trx.csv").write_text("5,100\n8,300\n10,300\n14,500\n20,600\n")
    (root / "bad_trx.csv").write_text("10,400\nten,700\n")
    return {name: str(root / name) for name in
            ("small.cfg", "unreachable.cfg", "trx.csv", "bad_trx.csv", "absent.cfg", "out.txt",
             "absent/out.txt", "fuzz.cfg")}


def _values(files: dict[str, str], command: str) -> dict[str, st.SearchStrategy[str]]:
    return {
        "--config": st.sampled_from([files["small.cfg"]] * 4
                                    + [files["unreachable.cfg"], files["absent.cfg"]]),
        "--output": st.sampled_from([files["out.txt"], files["absent/out.txt"]]),
        "--include-rbs": st.sampled_from(["true", "false"] * 2 + ["True", "1", ""]),
        "--trx-table": st.sampled_from([files["trx.csv"]] * 3
                                       + [files["bad_trx.csv"], files["absent.cfg"], ""]),
        "--format": st.sampled_from([*FORMATS[command]] * 2 + ["csv", "svg", "xml", ""]),
        "--levels": _number_list(0.0, 2000.0),
        "--field": st.sampled_from(["throughput", "gsnr", "GSNR", ""]),
        "--target-tbps": _number(0.0, 2000.0),
        "--span-min": _number(50.0, 400.0),
        "--span-max": _number(50.0, 400.0),
        "--span-points": st.one_of(
            st.integers(1, 60).map(str), st.integers(1, 60).map(str), st.integers().map(str),
            st.sampled_from(["0", "-1", str(MAX_SPAN_POINTS + 1), "1.5", "abc", "", "1" * 5000]),
        ),
        "--losses": _number_list(0.0, 0.3),
    }


@st.composite
def _argv(draw, files: dict[str, str]) -> tuple[list[str], bool]:
    """An argv for one command, and whether it holds a flag the command does not take."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    values = _values(files, command)
    own = ("--config", "--output", *_COMMAND_FLAGS[command])
    flags = draw(st.lists(st.sampled_from(own), unique=True, max_size=5))
    foreign = [[flag] for flag in _ALL_FLAGS if flag not in own]
    foreign = draw(st.sampled_from([[]] * 2 * len(foreign) + foreign))  # 1 in 3 has one
    if "--config" not in flags:  # the default 81 x 111 grid would slow contour down
        flags.insert(0, "--config")
    return [command, *(f"{flag}={draw(values[flag])}" for flag in flags + foreign)], bool(foreign)


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _assert_finite(text: str) -> None:
    if text.startswith("{"):
        def refuse(constant):
            raise AssertionError(f"{constant} in the JSON output")

        json.loads(text, parse_constant=refuse)
    else:
        assert not _NON_FINITE.search(text.replace(",nan,false\n", ",,false\n"))


def _run_main(argv: list[str], out_file: str) -> int:
    """Run main(argv) and check its streams: exactly one JSON error line and no
    stdout on failure, and on success no error text and a finite output, which
    goes to out_file when argv names it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO), argv
    if code != EXIT_OK:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1, argv
        error = json.loads(lines[0])["error"]
        assert error["code"] == _CODES[code], argv
        # A non-finite value that reached the JSON writer would surface as a config error.
        assert "JSON compliant" not in error["message"], argv
        return code
    assert err == "", argv
    if f"--output={out_file}" in argv:
        assert out == ""
        with open(out_file, encoding="utf-8") as fh:
            out = fh.read()
    assert out, argv
    _assert_finite(out)
    return code


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_over_every_flag(files, data):
    argv, foreign = data.draw(_argv(files))
    code = _run_main(argv, files["out.txt"])
    if foreign:
        assert code == EXIT_CONFIG, argv


def _key_values(files: dict[str, str], section: str, key: str) -> st.SearchStrategy[str]:
    """Values for one config key: mostly near its default, the rest odd. The
    sweep's step counts stay small, or too large or too few to build a grid."""
    default, kind = DEFAULTS[section][key], _kind(section, key)
    if key.endswith("_steps"):
        return st.one_of(st.integers(2, 8).map(str),
                         st.sampled_from(["1", "0", "-3", "2.5", "abc", "", "10000000"]))
    if key == "variant":
        return st.sampled_from(["shannon_gap", "shannon_gap", "tabulated", "Tabulated", ""])
    if key == "table_path":
        return st.sampled_from([files["trx.csv"], files["bad_trx.csv"], files["absent.cfg"],
                                "none", ""])
    if kind == "int":
        in_range = st.integers(0, 2 * default).map(str)
        return st.one_of(in_range, in_range, st.integers().map(str), _ODD)
    if default is None:  # gap_db, max_rate_gbps: unset or a number
        return st.one_of(st.just("none"), _number(0.0, 1000.0))
    in_range = st.floats(*sorted((0.5 * default, 2.0 * default))).map(repr)
    if default > 0:
        return st.one_of(in_range, in_range, _HUGE, _number(-1e300, 1e300))
    return st.one_of(in_range, in_range, _number(-1e300, 1e300))


@pytest.fixture(scope="module")
def key_values(files) -> dict[str, st.SearchStrategy[str]]:
    """Each config key's value strategy, built once: Hypothesis validates a new
    strategy object on its first draw."""
    return {f"{section}.{key}": _key_values(files, section, key)
            for section, keys in DEFAULTS.items() for key in keys}


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_over_every_config_key(files, key_values, data):
    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    keys = data.draw(st.lists(st.sampled_from(sorted(key_values)), unique=True, min_size=1,
                              max_size=4))
    lines = ["sweep.loss_steps = 5", "sweep.power_steps = 6"]
    lines += [f"{key} = {data.draw(key_values[key])}" for key in keys]
    with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    fmt = data.draw(st.sampled_from(FORMATS[command]))
    _run_main([command, f"--config={files['fuzz.cfg']}", f"--format={fmt}"], files["out.txt"])


_POSITIVE_KEYS = sorted(f"{section}.{key}" for section, keys in DEFAULTS.items()
                        for key, default in keys.items()
                        if _kind(section, key) == "float" and default is not None and default > 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(key=st.sampled_from(_POSITIVE_KEYS), value=_HUGE)
def test_main_over_a_huge_positive_key(files, key, value):
    """One positive key at a huge but finite value, through every command: a
    square or a product with another quantity must not leave float range unseen."""
    with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
        fh.write(f"sweep.loss_steps = 5\nsweep.power_steps = 6\n{key} = {value}\n")
    for command in sorted(_COMMAND_FLAGS):
        _run_main([command, f"--config={files['fuzz.cfg']}"], files["out.txt"])


@st.composite
def _huge_loss_documents(draw) -> list[list[str]]:
    """A huge loss over spans short enough that its span gain stays near the
    1000 dB bound, as the fiber loss, the sweep's least loss or its greatest:
    three keys that the independent per-key draws above do not move together."""
    loss = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(290, 307))
    span_km = draw(st.floats(0.0, 1200.0)) / loss
    link_km = span_km * draw(st.one_of(st.integers(1, 100), st.integers(1, 120_000)))
    lines = ["sweep.loss_steps = 5", "sweep.power_steps = 6",
             f"span.span_length_km = {span_km!r}", f"link.total_length_km = {link_km!r}"]
    return [[*lines, f"fiber.loss_db_per_km = {loss!r}"],
            [*lines, f"sweep.loss_min = {loss!r}", f"sweep.loss_max = {2.0 * loss!r}"],
            [*lines, f"sweep.loss_max = {loss!r}"]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=_huge_loss_documents())
def test_main_over_a_huge_loss_on_tiny_spans(files, documents):
    for lines in documents:
        with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        for command in sorted(_COMMAND_FLAGS):
            _run_main([command, f"--config={files['fuzz.cfg']}"], files["out.txt"])


@st.composite
def _channel_grid_documents(draw) -> list[str]:
    """A symbol rate s down to subnormals, a spacing s*m with m >= 1 that the
    no-overlap rule accepts, and up to 1e6 fibers: a tiny spacing drawn alone
    meets the default symbol rate and is refused for overlap, so the per-key
    draws above never reach a huge channel or carrier count. The spacing's
    decade is drawn from three ranges: one where the 5 THz band over it leaves
    float range, one where it holds 1e6 to 1e290 channels, and one where it
    holds at most MAX_CHANNELS, so the plan is built and the tiny rate goes on."""
    low, high = draw(st.sampled_from([(-323, -290), (-289, 6), (6, 12)]))
    scale = draw(st.integers(low, high))
    rate = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-323, scale))
    spacing = max(rate, draw(st.floats(1.0, 10.0)) * 10.0 ** scale)
    fibers = draw(st.one_of(st.integers(0, 52), st.integers(0, 1_000_000)))
    return ["sweep.loss_steps = 5", "sweep.power_steps = 6", f"link.symbol_rate_hz = {rate!r}",
            f"link.channel_spacing_hz = {spacing!r}", f"link.n_fibers_per_direction = {fibers}"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=_channel_grid_documents())
def test_main_over_a_paired_symbol_rate_and_spacing(files, lines):
    with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for command in sorted(_COMMAND_FLAGS):
        _run_main([command, f"--config={files['fuzz.cfg']}"], files["out.txt"])


@st.composite
def _tiny_loss_documents(draw) -> tuple[list[list[str]], dict[str, list[str]]]:
    """The mirror of _huge_loss_documents: a tiny loss over spans so long that
    the NLI effective length passes or nears sqrt(float max), about 1.3e154 km,
    with a span gain under the 1000 dB bound. It is the fiber loss and the
    sweep's least loss, or the sweep's least loss beside another fiber loss;
    the gap is pinned in half the draws, so the sweep and the solves run past
    the calibration. span-curve's range and rbs's losses follow the span and the
    loss, since their defaults stop at the span count or the span gain."""
    span_km = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(
        st.one_of(st.integers(148, 160), st.integers(140, 307)))
    loss, other = (draw(st.floats(0.0, 500.0)) / span_km for _ in range(2))
    link_km = span_km * draw(st.one_of(st.integers(1, 100), st.integers(1, 120_000)))
    gap = draw(st.sampled_from(["none", "0"]))
    lines = ["sweep.loss_steps = 5", "sweep.power_steps = 6", f"transceiver.gap_db = {gap}",
             f"span.span_length_km = {span_km!r}", f"link.total_length_km = {link_km!r}",
             f"sweep.loss_min = {loss!r}", f"sweep.loss_max = {2.0 * max(loss, other)!r}"]
    flags = {"span-curve": [f"--span-min={span_km!r}", f"--span-max={2.0 * span_km!r}"],
             "rbs": [f"--losses={loss!r}"]}
    return ([[*lines, f"fiber.loss_db_per_km = {loss!r}"],
             [*lines, f"fiber.loss_db_per_km = {other!r}"]], flags)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=_tiny_loss_documents())
def test_main_over_a_tiny_loss_on_huge_spans(files, drawn):
    documents, flags = drawn
    for lines in documents:
        with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        for command in sorted(_COMMAND_FLAGS):
            _run_main([command, f"--config={files['fuzz.cfg']}", *flags.get(command, [])],
                      files["out.txt"])


@st.composite
def _backscatter_documents(draw) -> list[str]:
    """A backscatter down past where its linear ratio underflows to 0 (about
    -3240 dB/km) and any launch power, on the default link at a drawn loss or on
    a tiny loss over huge spans."""
    backscatter = draw(st.one_of(st.floats(-3300.0, -3000.0), st.floats(-5000.0, 0.0)))
    power = draw(st.one_of(st.just(20.3), st.floats(-300.0, 300.0)))
    if draw(st.booleans()):
        gap = draw(st.sampled_from(["none", "0"]))
        lines = ["sweep.loss_steps = 5", "sweep.power_steps = 6", f"transceiver.gap_db = {gap}",
                 f"fiber.loss_db_per_km = {draw(st.floats(0.01, 0.3))!r}"]
    else:
        lines = draw(_tiny_loss_documents())[0][0]
    return [*lines, f"fiber.backscatter_db_per_km = {backscatter!r}",
            f"amplifier.total_output_power_dbm = {power!r}"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=_backscatter_documents())
def test_rbs_at_the_fiber_loss_runs_where_the_budget_with_rbs_runs(files, lines):
    """The rbs table at the fiber's own loss holds the budget's backscatter term,
    so it is written wherever the budget with that term is."""
    text = "\n".join(lines) + "\n"
    with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
        fh.write(text)
    config = f"--config={files['fuzz.cfg']}"
    if _run_main(["budget", config, "--include-rbs=true"], files["out.txt"]) == EXIT_OK:
        loss = parse_config(text).plan().fiber.loss_db_per_km
        assert _run_main(["rbs", config, f"--losses={loss!r}"], files["out.txt"]) == EXIT_OK
