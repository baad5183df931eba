"""Command-line interface.

Subcommands map one-to-one onto the analyses: ``budget`` (GSNR breakdown and
throughput), ``contour`` (full sweep grid with level lines), ``span-curve``
(required EDFA power vs span length), ``rbs`` (backscatter table),
``powerfeed`` and ``latency``. Each has one handler, which takes (cfg, fh, fmt)
and the command's own flags as keyword-only parameters holding their defaults.

Exit codes: 0 success, 2 config error (a usage error too), 3 infeasible solve,
4 I/O error. Each command writes straight to stdout or to its ``--output`` file,
which is replaced only when the command succeeds.

No command loads numpy: contour --format csv|json evaluates its grid one loss row
at a time in plain floats (explore.sweep_rows), a tabulated rate is a bisect, and
the other commands evaluate scalar closed forms.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import stat
import sys
from pathlib import Path
from typing import IO, Iterator, NoReturn

from . import impairments, outputs, system
from .config import ConfigError, RunConfig, parse_config, resolve_transceiver
from .domain import check_value
from .system import SOLID_CORE_GROUP_INDEX, InfeasibleError
from .units import linear_to_db

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

# The formats each command writes; the first is its default.
FORMATS = {"budget": ("json",), "contour": ("csv", "json", "svg"), "span-curve": ("csv", "json"),
           "rbs": ("json",), "powerfeed": ("json",), "latency": ("json",)}


def run_command(command: str, cfg: RunConfig, **options) -> str:
    """Run one subcommand against a parsed config and return the output text."""
    buf = io.StringIO()
    write_command(command, cfg, buf, **options)
    return buf.getvalue()


def write_command(command: str, cfg: RunConfig, fh: IO[str], *, fmt: str | None = None,
                  **options) -> None:
    """Run one subcommand against a parsed config and write its output to fh, in
    fmt or else the command's first format in FORMATS. Every check runs before
    the first write. The options go to the command's handler, whose keywords
    hold their defaults; one it does not take raises TypeError. A handler
    returns its JSON document's fields, or None once it has written CSV or SVG."""
    if command not in FORMATS:
        raise ConfigError(f"unknown command {command!r}")
    formats = FORMATS[command]
    fmt = formats[0] if fmt is None else fmt
    if fmt not in formats:
        raise ConfigError(f"{command} supports --format {'|'.join(formats)}, got {fmt!r}")
    doc = _HANDLERS[command](cfg, fh, fmt, **options)
    if doc is not None:
        outputs.write_json({"command": command, **doc}, fh)


def _run_budget(cfg: RunConfig, fh: IO[str], fmt: str, *, include_rbs: bool = False,
                trx_table: str | Path | None = None) -> dict:
    plan = cfg.plan()
    trx, section = resolve_transceiver(cfg, plan, trx_table)
    op = cfg.operating_point()
    budget = system.link_gsnr(plan, op, include_rbs)
    rate_gbps = system.channel_net_rate(trx, budget.gsnr_db, plan.symbol_rate_hz)
    return {
        "config": cfg.echo(section),
        "operating_point": {"loss_db_per_km": op.loss_db_per_km,
                            "edfa_total_output_dbm": op.edfa_total_output_dbm},
        "include_rbs": include_rbs,
        "n_channels": plan.n_channels,
        "n_spans": plan.n_spans,
        "effective_span_km": plan.effective_span_km,
        "budget": {
            **{f"inv_snr_{c}": getattr(budget, f"inv_snr_{c}") for c in impairments.COMPONENTS},
            **{f"snr_{c}_db": budget.component_snr_db(c) for c in impairments.COMPONENTS},
            "gsnr_linear": budget.gsnr_linear,
            "gsnr_db": budget.gsnr_db,
        },
        "channel_net_rate_gbps": rate_gbps,
        "cable_throughput_tbps": rate_gbps * (plan.n_carriers / 1e3),
    }


def _run_contour(cfg: RunConfig, fh: IO[str], fmt: str, *, include_rbs: bool = False,
                 trx_table: str | Path | None = None, levels: tuple[float, ...] | None = None,
                 field: str | None = None) -> dict | None:
    from . import explore

    # levels and field default to (1000.0,) and "throughput"; the CSV grid reads neither.
    if fmt == "csv" and (levels is not None or field is not None):
        flag = "--levels" if levels is not None else "--field"
        raise ConfigError(f"{flag} goes with contour --format json|svg, not csv")
    levels = (1000.0,) if levels is None else levels
    field = "throughput" if field is None else field
    for level in levels if field == "throughput" else ():  # a Tb/s level lies in its row
        check_value(level, "transceiver.calibration_target_tbps", "--levels")
    plan, spec = cfg.plan(), cfg.grid()
    trx, section = resolve_transceiver(cfg, plan, trx_table)
    grid = None if fmt == "svg" else explore.sweep_rows(plan, trx, spec, include_rbs)
    echo = cfg.echo(section)
    if fmt == "csv":
        outputs.write_grid_csv(grid, echo, fh)
        return None
    contour_sets = [(level, explore.extract_contour(plan, trx, spec, field, level, include_rbs))
                    for level in levels]
    if fmt == "svg":
        fh.write(outputs.render_contour_svg(contour_sets, spec, field, echo))
        return None
    return {
        "config": echo,
        "include_rbs": include_rbs,
        "field": field,
        "grid": outputs.grid_document(grid),
        "contours": [{"level": level, "polylines": lines} for level, lines in contour_sets],
    }


def _run_span_curve(cfg: RunConfig, fh: IO[str], fmt: str, *, include_rbs: bool = False,
                    trx_table: str | Path | None = None, target_tbps: float = 1000.0,
                    span_min: float = 150.0, span_max: float = 250.0,
                    span_points: int = 21) -> dict | None:
    from . import explore

    plan = cfg.plan()
    loss = plan.fiber.loss_db_per_km
    explore.check_span_range(plan.total_length_km, span_min, span_max, span_points,
                             ("link.total_length_km", "--span-min", "--span-max",
                              "--span-points"))
    check_value(target_tbps, "transceiver.calibration_target_tbps", "--target-tbps")
    trx, section = resolve_transceiver(cfg, plan, trx_table)
    points = explore.span_length_curve(
        plan, trx, loss, span_min, span_max, span_points, target_tbps, include_rbs
    )
    echo = cfg.echo(section)
    if fmt == "csv":
        outputs.write_span_curve_csv(points, echo, fh)
        return None
    return {
        "config": echo,
        "include_rbs": include_rbs,
        "target_tbps": target_tbps,
        "loss_db_per_km": loss,
        "points": [
            {"span_km": p.span_km, "required_edfa_dbm": p.required_dbm if p.feasible else None,
             "feasible": p.feasible}
            for p in points
        ],
    }


def _run_rbs(cfg: RunConfig, fh: IO[str], fmt: str, *,
             losses: tuple[float, ...] = (0.05, 0.06, 0.07)) -> dict:
    plan = cfg.plan()
    launch_w = system.per_channel_launch(
        plan.amp.total_output_power_dbm, plan.n_channels, plan.amp.post_output_loss_db
    )
    backscatter_db, total_km = plan.fiber.backscatter_db_per_km, plan.total_length_km
    rows = []
    for loss in losses:
        check_value(loss, "fiber.loss_db_per_km", "--losses")
        plan.span_gain_db(loss, name="--losses")
        span_loss_db = loss * plan.effective_span_km
        inv = impairments.rbs_inv_snr(backscatter_db, total_km, span_loss_db)
        rows.append({
            "loss_db_per_km": loss,
            "span_loss_db": span_loss_db,
            "enhancement": impairments.rbs_enhancement(span_loss_db),
            "rbs_power_w": impairments.rbs_power(launch_w, backscatter_db, total_km, span_loss_db),
            "gsnr_rbs_db": -linear_to_db(inv),
        })
    return {
        "config": cfg.values,
        "launch_power_w": launch_w,
        "backscatter_db_per_km": backscatter_db,
        "rows": rows,
    }


def _run_powerfeed(cfg: RunConfig, fh: IO[str], fmt: str) -> dict:
    plan, feed = cfg.plan(), cfg.power_feed()
    n_repeaters = plan.n_spans - 1  # LinkPlan has checked the partition
    result = system.power_feed(feed, plan.total_length_km, n_repeaters)
    return {
        "config": cfg.values,
        "n_repeaters": n_repeaters,
        "supply_limit_w": feed.supply_limit_w,
        "cable_w": result.cable_w, "repeaters_w": result.repeaters_w,
        "total_w": result.total_w, "within_limit": result.within_limit,
    }


def _run_latency(cfg: RunConfig, fh: IO[str], fmt: str) -> dict:
    plan = cfg.plan()
    total_km, group_index = plan.total_length_km, plan.fiber.group_index
    return {
        "config": cfg.values,
        "total_length_km": total_km,
        "hollow_core_group_index": group_index,
        "solid_core_group_index": SOLID_CORE_GROUP_INDEX,
        "hollow_core_ms": system.propagation_latency(total_km, group_index, "fiber.group_index"),
        "solid_core_ms": system.propagation_latency(total_km, SOLID_CORE_GROUP_INDEX),
    }


_HANDLERS = {"budget": _run_budget, "contour": _run_contour, "span-curve": _run_span_curve,
             "rbs": _run_rbs, "powerfeed": _run_powerfeed, "latency": _run_latency}


class _Parser(argparse.ArgumentParser):
    """A parser whose flags are absent from the namespace unless given, so that
    each command's handler holds its flags' defaults, which takes no prefix of a
    flag for the flag, and whose usage errors raise ConfigError, so that they
    leave as the one JSON error line."""

    def __init__(self, **kwargs) -> None:
        super().__init__(argument_default=argparse.SUPPRESS, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


def _finite(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _finite_list(raw: str) -> tuple[float, ...]:
    values = tuple(_finite(part) for part in raw.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"must name at least one value, got {raw!r}")
    return values


def _true_false(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"must be true or false, got {raw!r}")
    return raw == "true"


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="hcflink",
        description="Link-budget engine for bidirectional hollow-core-fiber submarine cables.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path,
                        help="key = value or JSON config file (defaults cover every key)")
    common.add_argument("--output", type=Path, help="output file (default: stdout)")
    link = _Parser(add_help=False)
    link.add_argument("--include-rbs", type=_true_false, metavar="{true,false}",
                      help="add the Rayleigh backscattering term to the budget")
    link.add_argument("--trx-table", type=Path,
                      help="tabulated transceiver curve (gsnr_db,net_rate_gbps lines)")

    sub.add_parser("budget", parents=[common, link],
                   help="GSNR breakdown and throughput at the configured operating point")
    contour = sub.add_parser("contour", parents=[common, link],
                             help="sweep the (loss, power) plane; CSV grid, JSON or SVG contours")
    contour.add_argument("--levels", type=_finite_list,
                         help="comma-separated contour levels (json/svg formats)")
    contour.add_argument("--field", choices=("gsnr", "throughput"))
    span = sub.add_parser("span-curve", parents=[common, link],
                          help="required EDFA power vs span length at the configured loss")
    span.add_argument("--target-tbps", type=_finite, help="throughput target of the solves")
    span.add_argument("--span-min", type=_finite)
    span.add_argument("--span-max", type=_finite)
    span.add_argument("--span-points", type=int)
    rbs = sub.add_parser("rbs", parents=[common],
                         help="backscatter enhancement, power and GSNR per loss value")
    rbs.add_argument("--losses", type=_finite_list,
                     help="comma-separated fiber loss values in dB/km")
    sub.add_parser("powerfeed", parents=[common], help="electrical supply budget")
    sub.add_parser("latency", parents=[common],
                   help="hollow-core vs solid-core propagation latency")
    for command, parser in sub.choices.items():
        parser.add_argument("--format", dest="fmt", choices=FORMATS[command],
                            help=f"default {FORMATS[command][0]}")
    return top


def _load_config(path: Path | None) -> RunConfig:
    if path is None:
        return parse_config("")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


@contextlib.contextmanager
def _stdout() -> Iterator[IO[str]]:
    """The handle for output to stdout, looked up at call time.

    A redirected sys.stdout (a StringIO, a test's capture) is written as is.
    The process's own stdout gets a buffered handle on its file descriptor:
    under PYTHONUNBUFFERED sys.stdout's text layer sits on a raw FileIO and
    drops the rest of a short write without a word, while a BufferedWriter
    retries it and raises on a closed pipe."""
    stdout = sys.stdout
    if stdout is not sys.__stdout__:
        yield stdout
        return
    stdout.flush()
    fh = open(stdout.fileno(), "w", encoding=stdout.encoding, errors=stdout.errors,
              closefd=False)
    try:
        yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        raise
    fh.close()


@contextlib.contextmanager
def _output_file(path: Path) -> Iterator[IO[str]]:
    """A handle whose text replaces path only when the command succeeds: it goes
    to a temporary file next to path, which is renamed over path at the end and
    removed on any failure. A path that exists but is no regular file (a device,
    a FIFO) cannot be replaced and is written in place."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{os.path.dirname(target)}/.{os.path.basename(target)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit_error(code: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": str(exc)}}) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
        command, output = flags.pop("command"), flags.pop("output", None)
        cfg = _load_config(flags.pop("config", None))
        with _stdout() if output is None else _output_file(output) as fh:
            write_command(command, cfg, fh, **flags)
    except ValueError as exc:
        # ConfigError (usage errors too) plus any domain error from user values.
        _emit_error("config", exc)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        _emit_error("infeasible", exc)
        return EXIT_INFEASIBLE
    except OSError as exc:
        _emit_error("io", exc)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
