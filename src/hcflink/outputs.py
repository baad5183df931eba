"""Result serialization.

Deterministic CSV and JSON writers plus an SVG contour renderer built from
plain polyline emission (no plotting toolkit). Numeric fields carry at least
nine significant digits so regression diffs reflect the model, not rounding.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:
    from .config import GridSpec
    from .explore import SpanCurvePoint, SweepRows

FLOAT_FMT = "{:.12g}"

GRID_CSV_HEADER = "loss_db_per_km,edfa_power_dbm,gsnr_db,throughput_tbps"
SPAN_CSV_HEADER = "span_km,required_edfa_dbm,feasible"

# A CSV row worker costs about 1.6 ms (its fork, exit and pipe copy), the time
# the writer takes for ~4,000 cells; at this many cells per worker that cost is
# under a tenth of what the worker saves. The README has the measurement.
MIN_CELLS_PER_WORKER = 50_000
# The largest write of a worker's text into the output handle, in bytes.
COPY_SLICE = 1 << 16


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FMT.format(value)
    return str(value)


def _echo_value(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, str) and ("--" in value or not value.isprintable()):
        # "--" ends an SVG comment; a character isprintable refuses (a control
        # character, a line or paragraph separator, a surrogate) can end a CSV
        # comment line or break the document. The ASCII JSON literal with each
        # "-" escaped holds neither, and json.loads reads the value back.
        return json.dumps(value).replace("-", "\\u002d")
    return _fmt(value)


def config_echo_lines(values: dict[str, dict[str, Any]]) -> list[str]:
    """Comment lines embedding the fully-resolved parameter set. A string value
    holding "--" or a character str.isprintable refuses is written as its JSON
    string literal, with each "-" as \\u002d; every other value as it reads."""
    return [f"# {section}.{key} = {_echo_value(values[section][key])}"
            for section in sorted(values) for key in sorted(values[section])]


def write_grid_csv(sweep: SweepRows, config_values: dict, fh: IO[str]) -> None:
    """Row-major (loss, then power) dump of a sweep grid.

    The loss rows are cut into k contiguous chunks, k = min(usable CPUs,
    cells // MIN_CELLS_PER_WORKER, rows), so grids below two workers' worth of
    cells stay on one loop. The parent evaluates and writes chunk 0 row by row;
    forked workers evaluate and format the others, and the parent copies their
    text to fh in order, in slices of at most COPY_SLICE bytes. The bytes do not
    depend on k. A worker that fails raises OSError; every worker is reaped
    before this returns or raises.
    """
    for line in config_echo_lines(config_values):
        fh.write(line + "\n")
    fh.write(GRID_CSV_HEADER + "\n")
    # One %-template per grid holds every power of a row; each loss row is one
    # % over its interleaved (gsnr, throughput) cells. "%.12g" and FLOAT_FMT
    # round through the same dtoa, so the bytes match per-cell formatting.
    powers = sweep.edfa_power_dbm
    template = "".join(f"\0,{FLOAT_FMT.format(p)},%.12g,%.12g\n" for p in powers)
    n_rows = len(sweep.loss_db_per_km)
    k = max(1, min(_usable_cpus(), n_rows * len(powers) // MIN_CELLS_PER_WORKER, n_rows))
    cuts = [n_rows * i // k for i in range(k + 1)]
    # Each chunk's rows are a generator: a worker evaluates its own rows.
    chunks = [(template, sweep.rows(a, b)) for a, b in zip(cuts, cuts[1:])]
    workers: list[tuple[int, int]] = []
    try:
        for rows in chunks[1:]:
            workers.append(_fork_worker(rows))
        for row in _format_rows(*chunks[0]):
            fh.write(row)
        while workers:
            pid, read_fd = workers[0]
            while data := os.read(read_fd, COPY_SLICE):
                fh.write(data.decode("ascii"))
            os.close(read_fd)
            del workers[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise OSError(f"CSV row worker {pid} exited with status {code}")
    finally:
        # Reached with workers left only on a failure: end and reap them. An
        # unreaped worker still has its pid, so the kill cannot miss.
        if workers:
            import signal

            for pid, read_fd in workers:
                os.close(read_fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _usable_cpus() -> int:
    # Where the affinity call exists, so does fork; elsewhere, one loop.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _format_rows(template: str, rows: Iterable[tuple[float, list[float], list[float]]]
                 ) -> Iterator[str]:
    """The CSV text of each (loss, GSNR cells, throughput cells) row of a chunk."""
    for loss, gsnr, tput in rows:
        cells = gsnr * 2
        cells[0::2] = gsnr
        cells[1::2] = tput
        yield template.replace("\0", FLOAT_FMT.format(loss)) % tuple(cells)


def _fork_worker(rows: tuple) -> tuple[int, int]:
    """Fork a child that formats rows and writes their text down a pipe; returns
    the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns that fork() in a multi-threaded process may deadlock
        # the child on a lock another thread held; a library caller may run
        # threads (numpy's OpenBLAS pool is one). This child takes no such lock:
        # it runs only the row kernel and formatter (float arithmetic and str %)
        # and leaves through os._exit.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    if pid == 0:
        # The child never returns into the caller and never flushes the
        # buffers it inherited: os._exit is its only way out.
        status = 1
        try:
            os.close(read_fd)
            # Format the whole chunk first: the parent reads this pipe only
            # after its own chunk, and a full pipe would stall the worker.
            lines = [row.encode("ascii") for row in _format_rows(*rows)]
            with open(write_fd, "wb") as pipe:  # buffered: it retries a short write
                pipe.writelines(lines)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


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


def grid_document(sweep: SweepRows) -> dict:
    rows = list(sweep.rows())
    return {
        "loss_db_per_km": list(sweep.loss_db_per_km),
        "edfa_power_dbm": sweep.edfa_power_dbm,
        "gsnr_db": [gsnr for _, gsnr, _ in rows],
        "throughput_tbps": [tput for _, _, tput in rows],
    }


SVG_SIZE = (720, 540)  # width, height in px
_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_contour_svg(
    contours: list[tuple[float, list[list[tuple[float, float]]]]],
    grid: GridSpec,
    field: str,
    config_values: dict[str, dict[str, Any]],
) -> str:
    """Render each (level, polylines) pair over the grid's (loss, power) window,
    titled and labelled for field, with the config echoed as comments."""
    width, height = SVG_SIZE
    unit = "Tb/s" if field == "throughput" else "dB"
    margin_left, margin_right, margin_top, margin_bottom = 80, 24, 40, 60
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    x0, x1 = grid.loss_min, grid.loss_max
    y0, y1 = grid.power_min, grid.power_max

    def px(x: float) -> float:
        return margin_left + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return margin_top + (y1 - y) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    parts += [f"<!-- {line[2:]} -->" for line in config_echo_lines(config_values)]
    parts += [
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{field} contours</text>',
    ]
    n_ticks = 6
    for k in range(n_ticks):
        frac = k / (n_ticks - 1)
        x = x0 + frac * (x1 - x0)
        y = y0 + frac * (y1 - y0)
        xp, yp = px(x), py(y)
        parts += [
            f'<line x1="{xp:.2f}" y1="{margin_top + plot_h}" x2="{xp:.2f}" '
            f'y2="{margin_top + plot_h + 5}" stroke="black"/>',
            f'<text x="{xp:.2f}" y="{margin_top + plot_h + 20}" text-anchor="middle" '
            f'font-size="11">{x:.4g}</text>',
            f'<line x1="{margin_left - 5}" y1="{yp:.2f}" x2="{margin_left}" '
            f'y2="{yp:.2f}" stroke="black"/>',
            f'<text x="{margin_left - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-size="11">{y:.4g}</text>',
        ]
    parts += [
        f'<text x="{margin_left + plot_w / 2:.1f}" y="{height - 16}" '
        'text-anchor="middle" font-size="13">fiber loss (dB/km)</text>',
        f'<text x="20" y="{margin_top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 20 {margin_top + plot_h / 2:.1f})">'
        "EDFA output power (dBm)</text>",
    ]
    for idx, (level, polylines) in enumerate(contours):
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
                f'font-size="11">{level:g} {unit}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
