"""Command-line interface.

Subcommands map one-to-one onto the analyses: ``budget`` (GSNR breakdown and
throughput), ``contour`` (full sweep grid with level lines), ``span-curve``
(required EDFA power vs span length), ``rbs`` (backscatter table),
``powerfeed`` and ``latency``.

Exit codes: 0 success, 2 config error, 3 infeasible solve, 4 I/O error.

Only contour (its sweep arrays) and budget --trx-table (the table's np.interp)
load numpy: the other commands evaluate scalar closed forms and start without it.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import impairments, outputs, system
from .config import ConfigError, RunConfig, parse_config, resolve_transceiver
from .system import SOLID_CORE_GROUP_INDEX, InfeasibleError
from .units import linear_to_db

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

COMMANDS = ("budget", "contour", "span-curve", "rbs", "powerfeed", "latency")


def run_command(
    command: str,
    cfg: RunConfig,
    *,
    fmt: str = "json",
    include_rbs: bool = False,
    target_tbps: float = 1000.0,
    levels: tuple[float, ...] = (1000.0,),
    field: str = "throughput",
    span_range: tuple[float, float, int] = (150.0, 250.0, 21),
    losses: tuple[float, ...] = (0.05, 0.06, 0.07),
    trx_table: str | None = None,
) -> str:
    """Run one subcommand against a parsed config and return the output text."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    handler = {
        "budget": _run_budget,
        "contour": _run_contour,
        "span-curve": _run_span_curve,
        "rbs": _run_rbs,
        "powerfeed": _run_powerfeed,
        "latency": _run_latency,
    }[command]
    return handler(cfg, fmt=fmt, include_rbs=include_rbs, target_tbps=target_tbps,
                   levels=levels, field=field, span_range=span_range, losses=losses,
                   trx_table=trx_table)


def _echo(cfg: RunConfig, trx_values: dict | None = None) -> dict:
    echo = copy.deepcopy(cfg.values)
    if trx_values is not None:
        echo["transceiver"] = dict(trx_values)
    return echo


def _json_text(document: dict) -> str:
    buf = io.StringIO()
    outputs.write_json(document, buf)
    return buf.getvalue()


def _require_json(command: str, fmt: str) -> None:
    if fmt != "json":
        raise ConfigError(f"{command} supports only --format json, got {fmt!r}")


def _run_budget(cfg: RunConfig, *, fmt, include_rbs, trx_table, **_) -> str:
    _require_json("budget", fmt)
    plan = cfg.plan()
    trx, trx_values = resolve_transceiver(cfg, plan, trx_table)
    op = cfg.operating_point()
    budget = system.link_gsnr(plan, op, include_rbs)
    rate_gbps = system.channel_net_rate(trx, budget.gsnr_db, plan.symbol_rate_hz)
    doc = {
        "command": "budget",
        "config": _echo(cfg, trx_values),
        "operating_point": asdict(op),
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
        "cable_throughput_tbps": plan.n_fibers_per_direction * plan.n_channels * rate_gbps / 1e3,
    }
    return _json_text(doc)


def _run_contour(cfg: RunConfig, *, fmt, include_rbs, levels, field, trx_table, **_) -> str:
    from . import explore

    plan = cfg.plan()
    trx, trx_values = resolve_transceiver(cfg, plan, trx_table)
    grid = explore.sweep_grid(plan, trx, cfg.grid(), include_rbs)
    echo = _echo(cfg, trx_values)
    if fmt == "csv":
        buf = io.StringIO()
        outputs.write_grid_csv(grid, echo, buf)
        return buf.getvalue()
    contour_sets = [(level, explore.extract_contour(grid, field, level)) for level in levels]
    if fmt == "svg":
        unit = "Tb/s" if field == "throughput" else "dB"
        return outputs.render_contour_svg(
            [(f"{level:g} {unit}", lines) for level, lines in contour_sets],
            xlim=(float(grid.loss_db_per_km[0]), float(grid.loss_db_per_km[-1])),
            ylim=(float(grid.edfa_power_dbm[0]), float(grid.edfa_power_dbm[-1])),
            xlabel="fiber loss (dB/km)",
            ylabel="EDFA output power (dBm)",
            title=f"{field} contours",
            config_values=echo,
        )
    doc = {
        "command": "contour",
        "config": echo,
        "include_rbs": include_rbs,
        "field": field,
        "grid": outputs.grid_document(grid),
        "contours": [
            {"level": level, "polylines": [[[x, y] for x, y in line] for line in lines]}
            for level, lines in contour_sets
        ],
    }
    return _json_text(doc)


def _run_span_curve(cfg: RunConfig, *, fmt, include_rbs, target_tbps, span_range,
                    trx_table, **_) -> str:
    from . import explore

    plan = cfg.plan()
    trx, trx_values = resolve_transceiver(cfg, plan, trx_table)
    span_min, span_max, n_points = span_range
    loss = cfg.values["fiber"]["loss_db_per_km"]
    points = explore.span_length_curve(
        plan, trx, loss, span_min, span_max, n_points, target_tbps, include_rbs
    )
    echo = _echo(cfg, trx_values)
    if fmt == "csv":
        buf = io.StringIO()
        outputs.write_span_curve_csv(points, echo, buf)
        return buf.getvalue()
    if fmt != "json":
        raise ConfigError(f"span-curve supports csv or json, got {fmt!r}")
    doc = {
        "command": "span-curve",
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
    return _json_text(doc)


def _run_rbs(cfg: RunConfig, *, fmt, losses, **_) -> str:
    _require_json("rbs", fmt)
    plan = cfg.plan()
    launch_w = system.per_channel_launch(
        plan.amp.total_output_power_dbm, plan.n_channels, plan.amp.post_output_loss_db
    )
    backscatter_db, total_km = plan.fiber.backscatter_db_per_km, plan.total_length_km
    rows = []
    for loss in losses:
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
    doc = {
        "command": "rbs",
        "config": _echo(cfg),
        "launch_power_w": launch_w,
        "backscatter_db_per_km": backscatter_db,
        "rows": rows,
    }
    return _json_text(doc)


def _run_powerfeed(cfg: RunConfig, *, fmt, **_) -> str:
    _require_json("powerfeed", fmt)
    total_km = cfg.values["link"]["total_length_km"]
    n_repeaters = system.repeater_count(total_km, cfg.values["span"]["span_length_km"])
    result = system.power_feed(cfg.power_feed(), total_km, n_repeaters)
    doc = {
        "command": "powerfeed",
        "config": _echo(cfg),
        "n_repeaters": n_repeaters,
        "supply_limit_w": cfg.values["powerfeed"]["supply_limit_w"],
        **asdict(result),
    }
    return _json_text(doc)


def _run_latency(cfg: RunConfig, *, fmt, **_) -> str:
    _require_json("latency", fmt)
    total_km = cfg.values["link"]["total_length_km"]
    group_index = cfg.values["fiber"]["group_index"]
    doc = {
        "command": "latency",
        "config": _echo(cfg),
        "total_length_km": total_km,
        "hollow_core_group_index": group_index,
        "solid_core_group_index": SOLID_CORE_GROUP_INDEX,
        "hollow_core_ms": system.propagation_latency(total_km, group_index),
        "solid_core_ms": system.propagation_latency(total_km, SOLID_CORE_GROUP_INDEX),
    }
    return _json_text(doc)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hcflink",
        description="Link-budget engine for bidirectional hollow-core-fiber submarine cables.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="key = value or JSON config file (defaults cover every key)")
    common.add_argument("--output", type=Path, default=None,
                        help="output file (default: stdout)")
    common.add_argument("--include-rbs", choices=("true", "false"), default="false",
                        help="add the Rayleigh backscattering term to the budget")
    common.add_argument("--target-tbps", type=float, default=1000.0,
                        help="throughput target for solves (span-curve)")
    common.add_argument("--trx-table", type=Path, default=None,
                        help="tabulated transceiver curve (gsnr_db,net_rate_gbps lines)")

    budget = sub.add_parser("budget", parents=[common],
                            help="GSNR breakdown and throughput at the configured operating point")
    budget.add_argument("--format", choices=("json",), default="json")
    contour = sub.add_parser("contour", parents=[common],
                             help="sweep the (loss, power) plane; CSV grid, JSON or SVG contours")
    contour.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    contour.add_argument("--levels", default="1000",
                         help="comma-separated contour levels (json/svg formats)")
    contour.add_argument("--field", choices=("gsnr", "throughput"), default="throughput")
    span = sub.add_parser("span-curve", parents=[common],
                          help="required EDFA power vs span length at the configured loss")
    span.add_argument("--format", choices=("csv", "json"), default="csv")
    span.add_argument("--span-min", type=float, default=150.0)
    span.add_argument("--span-max", type=float, default=250.0)
    span.add_argument("--span-points", type=int, default=21)
    rbs = sub.add_parser("rbs", parents=[common],
                         help="backscatter enhancement, power and GSNR per loss value")
    rbs.add_argument("--format", choices=("json",), default="json")
    rbs.add_argument("--losses", default="0.05,0.06,0.07",
                     help="comma-separated fiber loss values in dB/km")
    powerfeed = sub.add_parser("powerfeed", parents=[common], help="electrical supply budget")
    powerfeed.add_argument("--format", choices=("json",), default="json")
    latency = sub.add_parser("latency", parents=[common],
                             help="hollow-core vs solid-core propagation latency")
    latency.add_argument("--format", choices=("json",), default="json")
    return top


def _load_config(path: Path | None) -> RunConfig:
    if path is None:
        return parse_config("")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _parse_float_list(raw: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


def _flag_kwargs(args: argparse.Namespace, cfg: RunConfig) -> dict:
    """run_command keywords from the parsed flags; every float must be finite,
    and the span range positive, ordered and at most MAX_SPANS spans of cfg's link."""
    kwargs = {
        "fmt": args.format,
        "include_rbs": args.include_rbs == "true",
        "target_tbps": args.target_tbps,
        "trx_table": str(args.trx_table) if args.trx_table else None,
    }
    floats = {"--target-tbps": (args.target_tbps,)}
    if args.command == "contour":
        kwargs["levels"] = floats["--levels"] = _parse_float_list(args.levels, "--levels")
        kwargs["field"] = args.field
    if args.command == "span-curve":
        from . import explore

        if not 1 <= args.span_points <= explore.MAX_SPAN_POINTS:
            raise ConfigError(f"--span-points must lie in 1..{explore.MAX_SPAN_POINTS}, "
                              f"got {args.span_points}")
        floats["--span-min"], floats["--span-max"] = (args.span_min,), (args.span_max,)
        kwargs["span_range"] = (args.span_min, args.span_max, args.span_points)
    if args.command == "rbs":
        kwargs["losses"] = floats["--losses"] = _parse_float_list(args.losses, "--losses")
    for flag, values in floats.items():
        for value in values:
            if not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
    if args.command == "span-curve":
        if not args.span_min > 0:
            raise ConfigError(f"--span-min must be > 0, got {args.span_min}")
        if args.span_min > args.span_max:
            raise ConfigError(f"--span-min={args.span_min} must not exceed "
                              f"--span-max={args.span_max}")
        total = cfg.values["link"]["total_length_km"]
        if total / args.span_min > system.MAX_SPANS:
            raise ConfigError(f"--span-min={args.span_min} cuts link.total_length_km={total:g} "
                              f"into more than MAX_SPANS = {system.MAX_SPANS} spans")
    return kwargs


def _emit_error(code: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": str(exc)}}) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        text = run_command(args.command, cfg, **_flag_kwargs(args, cfg))
        if args.output is None:
            sys.stdout.write(text)
        else:
            args.output.write_text(text, encoding="utf-8")
    except ValueError as exc:
        # ConfigError plus any domain error triggered by user-supplied values.
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
