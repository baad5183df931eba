"""Result serialization.

Deterministic CSV and JSON writers plus an SVG contour renderer built from
plain polyline emission (no plotting toolkit). Numeric fields carry at least
nine significant digits so regression diffs reflect the model, not rounding.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from .explore import SpanCurvePoint, SweepGrid

FLOAT_FMT = "{:.12g}"

GRID_CSV_HEADER = "loss_db_per_km,edfa_power_dbm,gsnr_db,throughput_tbps"
SPAN_CSV_HEADER = "span_km,required_edfa_dbm,feasible"


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FMT.format(value)
    return str(value)


def config_echo_lines(values: dict[str, dict[str, Any]]) -> list[str]:
    """Comment lines embedding the fully-resolved parameter set."""
    lines = []
    for section in sorted(values):
        for key in sorted(values[section]):
            value = values[section][key]
            lines.append(f"# {section}.{key} = {'none' if value is None else _fmt(value)}")
    return lines


def write_grid_csv(grid: SweepGrid, config_values: dict, fh: IO[str]) -> None:
    """Row-major (loss, then power) dump of a sweep grid."""
    import numpy as np

    for line in config_echo_lines(config_values):
        fh.write(line + "\n")
    fh.write(GRID_CSV_HEADER + "\n")
    # One %-template per grid holds every power of a row; each loss row is one
    # % over its interleaved (gsnr, throughput) cells. "%.12g" and FLOAT_FMT
    # round through the same dtoa, so the bytes match per-cell formatting.
    template = "".join(f"\0,{FLOAT_FMT.format(p)},%.12g,%.12g\n"
                       for p in grid.edfa_power_dbm.tolist())
    cells = np.empty(2 * grid.edfa_power_dbm.size)
    for loss, gsnr, tput in zip(grid.loss_db_per_km.tolist(), grid.gsnr_db,
                                grid.throughput_tbps):
        cells[0::2] = gsnr
        cells[1::2] = tput
        fh.write(template.replace("\0", FLOAT_FMT.format(loss)) % tuple(cells.tolist()))


def write_span_curve_csv(points: Iterable[SpanCurvePoint], config_values: dict,
                         fh: IO[str]) -> None:
    for line in config_echo_lines(config_values):
        fh.write(line + "\n")
    fh.write(SPAN_CSV_HEADER + "\n")
    for p in points:
        required = FLOAT_FMT.format(p.required_dbm) if p.feasible else "nan"
        fh.write(f"{FLOAT_FMT.format(p.span_km)},{required},{_fmt(p.feasible)}\n")


def write_json(document: dict, fh: IO[str]) -> None:
    """Deterministic JSON: sorted keys, no NaN/Infinity, trailing newline."""
    fh.write(json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n")


def grid_document(grid: SweepGrid) -> dict:
    return {
        "loss_db_per_km": [float(v) for v in grid.loss_db_per_km],
        "edfa_power_dbm": [float(v) for v in grid.edfa_power_dbm],
        "gsnr_db": grid.gsnr_db.tolist(),
        "throughput_tbps": grid.throughput_tbps.tolist(),
    }


_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_contour_svg(
    contours: list[tuple[str, list[list[tuple[float, float]]]]],
    xlim: tuple[float, float],
    ylim: tuple[float, float],
    xlabel: str,
    ylabel: str,
    title: str = "",
    width: int = 720,
    height: int = 540,
    config_values: dict[str, dict[str, Any]] | None = None,
) -> str:
    """Render labelled contour polylines over the (x, y) ranges."""
    margin_left, margin_right, margin_top, margin_bottom = 80, 24, 40, 60
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    x0, x1 = xlim
    y0, y1 = ylim

    def px(x: float) -> float:
        return margin_left + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return margin_top + (y1 - y) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if config_values is not None:
        parts += [f"<!-- {line[2:]} -->" for line in config_echo_lines(config_values)]
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        'fill="white" stroke="black" stroke-width="1"/>'
    )
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{title}</text>'
        )
    n_ticks = 6
    for k in range(n_ticks):
        frac = k / (n_ticks - 1)
        x = x0 + frac * (x1 - x0)
        y = y0 + frac * (y1 - y0)
        xp, yp = px(x), py(y)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{margin_top + plot_h}" x2="{xp:.2f}" '
            f'y2="{margin_top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{margin_top + plot_h + 20}" text-anchor="middle" '
            f'font-size="11">{x:.4g}</text>'
        )
        parts.append(
            f'<line x1="{margin_left - 5}" y1="{yp:.2f}" x2="{margin_left}" '
            f'y2="{yp:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin_left - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-size="11">{y:.4g}</text>'
        )
    parts.append(
        f'<text x="{margin_left + plot_w / 2:.1f}" y="{height - 16}" '
        f'text-anchor="middle" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{margin_top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 20 {margin_top + plot_h / 2:.1f})">'
        f"{ylabel}</text>"
    )
    for idx, (label, polylines) in enumerate(contours):
        color = _PALETTE[idx % len(_PALETTE)]
        for line in polylines:
            points_attr = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in line)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points_attr}"/>'
            )
        if polylines:
            longest = max(polylines, key=len)
            lx, ly = longest[len(longest) // 2]
            parts.append(
                f'<text x="{px(lx) + 4:.2f}" y="{py(ly) - 4:.2f}" fill="{color}" '
                f'font-size="11">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
