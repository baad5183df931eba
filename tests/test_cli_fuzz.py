"""Hypothesis fuzz of cli.main over every subcommand's flags and every config key.

Each run ends in exit 0, 2, 3 or 4. A failure writes exactly one JSON error line
on stderr and nothing on stdout, and a config error (exit 2) names its cause: a
config key, a flag, or the config or table file that could not be read or parsed.
A success writes no error text, and no NaN or infinity reaches its output; the
one exception is the span-curve CSV, which marks an infeasible row with
``nan,false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hcflink.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, FORMATS, main
from hcflink.config import DEFAULTS, _kind, parse_config
from hcflink.domain import DOMAIN
from hcflink.explore import MAX_SPAN_POINTS
from hcflink.impairments import MIN_ABS_DISPERSION_PS_NM_KM
from hcflink.system import MAX_CHANNELS, MAX_SPAN_GAIN_DB, MAX_SPANS, span_count

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

# What a config error names: a config key, a flag, or a file under the fuzz's
# directory, where every config and table file it reads lives.
_NAMES = [*(f"{section}.{key}" for section, keys in DEFAULTS.items() for key in keys),
          "--config", "--output", *_ALL_FLAGS]


def _names_its_cause(message: str, out_file: str) -> bool:
    return (any(name in message for name in _NAMES)
            or os.path.dirname(out_file) + os.sep in message)


def _assert_finite(text: str) -> None:
    if text.startswith("{"):
        def refuse(constant):
            raise AssertionError(f"{constant} in the JSON output")

        json.loads(text, parse_constant=refuse)
    else:
        assert not _NON_FINITE.search(text.replace(",nan,false\n", ",,false\n"))


def _run_main(argv: list[str], out_file: str) -> int:
    """Run main(argv) and check its streams: exactly one JSON error line and no
    stdout on failure, a config error naming its cause, and on success no error
    text and a finite output, which goes to out_file when argv names it."""
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
        if code == EXIT_CONFIG:
            assert _names_its_cause(error["message"], out_file), (argv, error["message"])
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
def _co_scaled_widths_documents(draw) -> list[str]:
    """The band, channel spacing and symbol rate at one common decade, anywhere
    in float range, with band/spacing up to 10^5.5 and the symbol rate at most
    the spacing: the per-key draws move one width at a time, and the draw above
    keeps the 5 THz band, so neither reaches a tiny band of few channels, whose
    launch PSD at 1 mW is huge. The gap is pinned in half the draws, so the
    solves run past the calibration."""
    spacing = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-323, 13))
    band = spacing * 10.0 ** draw(st.floats(0.0, 5.5))
    rate = spacing * draw(st.floats(0.0, 1.0))
    gap = draw(st.sampled_from(["none", "0"]))
    return ["sweep.loss_steps = 5", "sweep.power_steps = 6", f"transceiver.gap_db = {gap}",
            f"link.band_hz = {band!r}", f"link.channel_spacing_hz = {spacing!r}",
            f"link.symbol_rate_hz = {rate!r}"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=_co_scaled_widths_documents())
def test_main_over_co_scaled_widths(files, lines):
    with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for command in sorted(_COMMAND_FLAGS):
        for fmt in FORMATS[command]:
            _run_main([command, f"--config={files['fuzz.cfg']}", f"--format={fmt}"],
                      files["out.txt"])


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


@st.composite
def _vanishing_terms_documents(draw) -> list[str]:
    """No NLI or a tiny one, an IMI near or below the least float, span gains whose
    G - 1 rounds to 0 and a backscatter near or below the least float, drawn
    together: the four 1/SNR terms sum to 0, or to so little that the GSNR
    overflows, where the per-key draws above move one term at a time."""
    loss = 10.0 ** draw(st.floats(-300.0, -10.0))
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-100)))
    lumped = draw(st.sampled_from(["0", "0", "1e-300"]))
    gap = draw(st.sampled_from(["none", "0"]))
    return ["sweep.loss_steps = 5", "sweep.power_steps = 6", f"transceiver.gap_db = {gap}",
            f"fiber.loss_db_per_km = {loss!r}", f"sweep.loss_min = {loss!r}",
            f"sweep.loss_max = {2.0 * loss!r}", f"fiber.gamma_per_w_km = {gamma!r}",
            f"fiber.imi_db_per_km = {draw(st.floats(-4000.0, -3000.0))!r}",
            f"fiber.backscatter_db_per_km = {draw(st.floats(-4000.0, -3000.0))!r}",
            f"amplifier.pre_input_loss_db = {lumped}", f"amplifier.post_output_loss_db = {lumped}"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=_vanishing_terms_documents())
def test_main_over_vanishing_terms(files, lines):
    with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    config = f"--config={files['fuzz.cfg']}"
    for command in sorted(_COMMAND_FLAGS):
        for fmt in FORMATS[command]:
            _run_main([command, config, f"--format={fmt}"], files["out.txt"])
    _run_main(["budget", config, "--include-rbs=true"], files["out.txt"])


@st.composite
def _domain_documents(draw) -> tuple[list[str], dict[str, list[str]]]:
    """A whole document inside the domain, each key at a bound of its row or drawn
    log-uniform within it (uniform where the row holds 0 or less), moved inward only
    as far as a cross-key rule asks. gamma is 0 in half the draws, the fiber count
    0, 26 or 1e4, and the sweep takes 2 to 5 steps a side. The gap is calibrated or
    pinned, and span-curve's range and rbs's losses keep their span gains within
    MAX_SPAN_GAIN_DB."""
    def value(key: str, low: float = -math.inf, high: float = math.inf) -> float:
        low, high = max(DOMAIN[key][0], low), min(DOMAIN[key][1], high)
        assume(low <= high)
        if draw(st.booleans()):
            return draw(st.sampled_from([low, high]))
        if low > 0:
            exponents = sorted((math.log10(low), math.log10(high)))
            return min(max(10.0 ** draw(st.floats(*exponents)), low), high)
        return draw(st.floats(low, high))

    link = value("link.total_length_km")
    span = value("span.span_length_km", low=link / (0.999 * MAX_SPANS), high=link)
    pre, post = value("amplifier.pre_input_loss_db"), value("amplifier.post_output_loss_db")
    top_loss = 0.999 * (MAX_SPAN_GAIN_DB - pre - post) * span_count(link, span) / link
    loss = value("fiber.loss_db_per_km", high=top_loss)
    loss_min, loss_max = sorted(value("sweep.loss_min", high=top_loss) for _ in range(2))
    power_min, power_max = sorted(value("sweep.power_min") for _ in range(2))
    assume(loss_min < loss_max and power_min < power_max)
    spacing = value("link.channel_spacing_hz")
    symbol_rate = value("link.symbol_rate_hz", high=spacing)
    band = value("link.band_hz", low=spacing, high=0.999 * MAX_CHANNELS * spacing)
    dispersion = draw(st.sampled_from([1.0, -1.0])) * value(
        "fiber.dispersion_ps_nm_km", low=MIN_ABS_DISPERSION_PS_NM_KM)
    gamma = draw(st.sampled_from([0.0, value("fiber.gamma_per_w_km")]))
    gap = draw(st.sampled_from(["none", repr(value("transceiver.gap_db"))]))
    max_rate = draw(st.sampled_from(["none", repr(value("transceiver.max_rate_gbps"))]))
    lines = [
        f"fiber.loss_db_per_km = {loss!r}", f"fiber.dispersion_ps_nm_km = {dispersion!r}",
        f"fiber.gamma_per_w_km = {gamma!r}",
        *(f"{key} = {value(key)!r}" for key in (
            "fiber.imi_db_per_km", "fiber.backscatter_db_per_km", "fiber.group_index",
            "amplifier.noise_figure_db", "amplifier.total_output_power_dbm",
            "transceiver.calibration_target_tbps",
            *(f"powerfeed.{key}" for key in DEFAULTS["powerfeed"]))),
        f"span.span_length_km = {span!r}", f"link.total_length_km = {link!r}",
        f"link.channel_spacing_hz = {spacing!r}", f"link.symbol_rate_hz = {symbol_rate!r}",
        f"link.band_hz = {band!r}",
        f"link.n_fibers_per_direction = {draw(st.sampled_from([0, 26, 10_000]))}",
        f"amplifier.pre_input_loss_db = {pre!r}", f"amplifier.post_output_loss_db = {post!r}",
        f"transceiver.gap_db = {gap}", f"transceiver.max_rate_gbps = {max_rate}",
        f"sweep.loss_min = {loss_min!r}", f"sweep.loss_max = {loss_max!r}",
        f"sweep.power_min = {power_min!r}", f"sweep.power_max = {power_max!r}",
        f"sweep.loss_steps = {draw(st.integers(2, 5))}",
        f"sweep.power_steps = {draw(st.integers(2, 5))}",
    ]
    # The longest span a sample snaps to is at most twice the sample.
    span_max = value("span.span_length_km",
                     high=0.999 * (MAX_SPAN_GAIN_DB - pre - post) / (2.0 * loss))
    span_min = value("span.span_length_km", low=link / (0.999 * MAX_SPANS), high=span_max)
    flags = {"span-curve": [f"--span-min={span_min!r}", f"--span-max={span_max!r}",
                            f"--span-points={draw(st.integers(1, 5))}"],
             "rbs": [f"--losses={loss!r},{loss_min!r}"]}
    return lines, flags


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(drawn=_domain_documents())
def test_main_inside_the_domain(files, drawn):
    """Inside the domain every command and format computes: exit 0 with a finite
    output, or exit 3 where the gap calibration cannot meet its target."""
    lines, flags = drawn
    with open(files["fuzz.cfg"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    calibrated = "transceiver.gap_db = none" in lines
    for command in sorted(_COMMAND_FLAGS):
        for fmt in FORMATS[command]:
            argv = [command, f"--config={files['fuzz.cfg']}", f"--format={fmt}",
                    *flags.get(command, [])]
            code = _run_main(argv, files["out.txt"])
            assert code == EXIT_OK or code == EXIT_INFEASIBLE and calibrated and command in (
                "budget", "contour", "span-curve"), argv
