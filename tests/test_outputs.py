from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcflink.config import DEFAULTS
from hcflink.explore import SpanCurvePoint, SweepGrid
from hcflink.outputs import (
    FLOAT_FMT,
    GRID_CSV_HEADER,
    config_echo_lines,
    grid_document,
    render_contour_svg,
    write_grid_csv,
    write_json,
    write_span_curve_csv,
)


def _small_grid():
    xs = np.array([0.05, 0.07])
    ys = np.array([18.0, 22.5])
    gsnr = np.array([[16.0722837, 14.5], [18.1, 16.4306]])
    thr = np.array([[983.260595693, 700.0], [1250.0, 1011.34884043]])
    return SweepGrid(xs, ys, gsnr, thr)


def test_grid_csv_layout():
    buf = io.StringIO()
    write_grid_csv(_small_grid(), DEFAULTS, buf)
    lines = buf.getvalue().splitlines()
    echo = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == GRID_CSV_HEADER
    assert len(body) == 1 + 4
    # row-major: loss varies slowest
    first_cols = [row.split(",")[0] for row in body[1:]]
    assert first_cols == ["0.05", "0.05", "0.07", "0.07"]
    assert "# fiber.loss_db_per_km = 0.06" in echo


def test_csv_keeps_nine_significant_digits():
    buf = io.StringIO()
    write_grid_csv(_small_grid(), DEFAULTS, buf)
    rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][1:]
    assert rows[0].split(",")[3] == "983.260595693"
    parsed = float(rows[0].split(",")[2])
    assert parsed == pytest.approx(16.0722837, rel=1e-9)


def test_grid_csv_matches_per_cell_format():
    xs = np.array([1e-7, 0.0625, 123456789012345.0])
    ys = np.array([-3.5e-5, 14.0, 2.5e21, 7.0])
    gsnr = np.array([[1.0 / 3.0, -1e-300, 6.02214076e23, 1e100],
                     [16.0722837, 5e-324, -0.0, 1234567.890123456],
                     [math.pi, -math.e, 1e16, 99999999999.95]])
    thr = gsnr[::-1] * 7.0
    grid = SweepGrid(xs, ys, gsnr, thr)
    buf = io.StringIO()
    write_grid_csv(grid, DEFAULTS, buf)
    expected = io.StringIO()
    for line in config_echo_lines(DEFAULTS):
        expected.write(line + "\n")
    expected.write(GRID_CSV_HEADER + "\n")
    for i, loss in enumerate(xs):
        for j, power in enumerate(ys):
            row = (float(loss), float(power), float(gsnr[i, j]), float(thr[i, j]))
            expected.write(",".join(FLOAT_FMT.format(v) for v in row) + "\n")
    assert buf.getvalue() == expected.getvalue()
    assert "e+21" in buf.getvalue() and "e-07" in buf.getvalue()


_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16, -2.5e21, 1e-7, 1.0 / 3.0]),
)


@st.composite
def _grids(draw):
    n_loss, n_power = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.lists(_CELL, min_size=n_loss * n_power, max_size=n_loss * n_power)
    return SweepGrid(
        np.array(draw(st.lists(_CELL, min_size=n_loss, max_size=n_loss))),
        np.array(draw(st.lists(_CELL, min_size=n_power, max_size=n_power))),
        np.array(draw(cells)).reshape(n_loss, n_power),
        np.array(draw(cells)).reshape(n_loss, n_power),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_grids())
def test_grid_csv_template_matches_per_cell_format(grid):
    buf = io.StringIO()
    write_grid_csv(grid, DEFAULTS, buf)
    expected = io.StringIO()
    for line in config_echo_lines(DEFAULTS):
        expected.write(line + "\n")
    expected.write(GRID_CSV_HEADER + "\n")
    for i, loss in enumerate(grid.loss_db_per_km):
        for j, power in enumerate(grid.edfa_power_dbm):
            row = (float(loss), float(power), float(grid.gsnr_db[i, j]),
                   float(grid.throughput_tbps[i, j]))
            expected.write(",".join(FLOAT_FMT.format(v) for v in row) + "\n")
    assert buf.getvalue() == expected.getvalue()
    assert "\0" not in buf.getvalue() and "%" not in buf.getvalue()


def test_span_curve_csv():
    points = [
        SpanCurvePoint(200.0, 20.2998046875, True),
        SpanCurvePoint(235.714285714, math.nan, False),
    ]
    buf = io.StringIO()
    write_span_curve_csv(points, DEFAULTS, buf)
    body = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert body[0] == "span_km,required_edfa_dbm,feasible"
    assert body[1] == "200,20.2998046875,true"
    assert body[2].startswith("235.714285714,nan,false")


def test_json_round_trip_identity():
    grid = _small_grid()
    doc = {
        "command": "contour",
        "config": DEFAULTS,
        "grid": grid_document(grid),
        "contours": [{"level": 1000.0, "polylines": [[[0.06, 20.3], [0.061, 20.4]]]}],
    }
    buf = io.StringIO()
    write_json(doc, buf)
    assert json.loads(buf.getvalue()) == doc


def test_json_rejects_nan():
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_json({"x": math.nan}, buf)


def test_json_deterministic():
    doc = {"b": 1.0, "a": {"z": 2.0, "y": 3.0}}
    first, second = io.StringIO(), io.StringIO()
    write_json(doc, first)
    write_json({"a": {"y": 3.0, "z": 2.0}, "b": 1.0}, second)
    assert first.getvalue() == second.getvalue()


def test_config_echo_covers_every_key():
    lines = config_echo_lines(DEFAULTS)
    expected = sum(len(keys) for keys in DEFAULTS.values())
    assert len(lines) == expected
    assert all(line.startswith("# ") and " = " in line for line in lines)


def test_svg_contains_polylines_and_labels():
    polylines = [
        [(0.05, 18.0), (0.06, 20.3), (0.07, 22.5)],
        [(0.05, 19.0), (0.055, 19.5)],
    ]
    svg = render_contour_svg(
        [("1000 Tb/s", polylines)],
        xlim=(0.045, 0.085),
        ylim=(14.0, 25.0),
        xlabel="fiber loss (dB/km)",
        ylabel="EDFA output power (dBm)",
        title="throughput contours",
    )
    assert svg.count("<polyline") == len(polylines)
    assert "1000 Tb/s" in svg
    assert "fiber loss (dB/km)" in svg
    assert "EDFA output power (dBm)" in svg
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_svg_polyline_count_tracks_extractor():
    svg = render_contour_svg(
        [("a", [[(0.05, 15.0), (0.06, 16.0)]]), ("b", [])],
        xlim=(0.045, 0.085),
        ylim=(14.0, 25.0),
        xlabel="x",
        ylabel="y",
    )
    assert svg.count("<polyline") == 1


def test_svg_embeds_config_echo():
    svg = render_contour_svg(
        [("a", [[(0.05, 15.0), (0.06, 16.0)]])],
        xlim=(0.045, 0.085),
        ylim=(14.0, 25.0),
        xlabel="x",
        ylabel="y",
        config_values=DEFAULTS,
    )
    assert "<!-- fiber.loss_db_per_km = 0.06 -->" in svg
    assert svg.count("<!--") == sum(len(keys) for keys in DEFAULTS.values())
