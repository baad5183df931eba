from __future__ import annotations

import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcflink import outputs
from hcflink.config import DEFAULTS, GridSpec
from hcflink.explore import SpanCurvePoint, SweepRows, sweep_grid, sweep_rows
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


def _rows(xs, ys, gsnr, thr) -> SweepRows:
    """A sweep fed by hand: rows(start, stop) hands out the given cells as
    Python floats, as sweep_rows' kernel does."""
    xs, gsnr, thr = (np.asarray(a, dtype=float).tolist() for a in (xs, gsnr, thr))

    def rows(start=0, stop=None):
        return zip(xs[start:stop], gsnr[start:stop], thr[start:stop])

    return SweepRows(tuple(xs), np.asarray(ys, dtype=float).tolist(), rows)


def _small_grid():
    xs = [0.05, 0.07]
    ys = [18.0, 22.5]
    gsnr = [[16.0722837, 14.5], [18.1, 16.4306]]
    thr = [[983.260595693, 700.0], [1250.0, 1011.34884043]]
    return _rows(xs, ys, gsnr, thr)


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


def _per_cell_csv(grid: SweepRows) -> str:
    """The grid CSV with every cell formatted on its own through FLOAT_FMT."""
    expected = io.StringIO()
    for line in config_echo_lines(DEFAULTS):
        expected.write(line + "\n")
    expected.write(GRID_CSV_HEADER + "\n")
    for loss, gsnr, tput in grid.rows():
        for power, g, t in zip(grid.edfa_power_dbm, gsnr, tput):
            expected.write(",".join(FLOAT_FMT.format(v) for v in (loss, power, g, t)) + "\n")
    return expected.getvalue()


def _force_workers(monkeypatch, k: int, min_cells: int = 1) -> list:
    """Make write_grid_csv see k usable CPUs and need min_cells per worker (by
    default any grid with k or more rows is cut into k chunks); the returned
    list records each forked worker's pid and pipe."""
    forked = []
    fork_worker = outputs._fork_worker

    def counted(rows):
        forked.append(fork_worker(rows))
        return forked[-1]

    monkeypatch.setattr(outputs, "_usable_cpus", lambda: k)
    monkeypatch.setattr(outputs, "MIN_CELLS_PER_WORKER", min_cells)
    monkeypatch.setattr(outputs, "_fork_worker", counted)
    return forked


def test_grid_csv_matches_per_cell_format():
    xs = np.array([1e-7, 0.0625, 123456789012345.0])
    ys = np.array([-3.5e-5, 14.0, 2.5e21, 7.0])
    gsnr = np.array([[1.0 / 3.0, -1e-300, 6.02214076e23, 1e100],
                     [16.0722837, 5e-324, -0.0, 1234567.890123456],
                     [math.pi, -math.e, 1e16, 99999999999.95]])
    thr = gsnr[::-1] * 7.0
    grid = _rows(xs, ys, gsnr, thr)
    buf = io.StringIO()
    write_grid_csv(grid, DEFAULTS, buf)
    assert buf.getvalue() == _per_cell_csv(grid)
    assert "e+21" in buf.getvalue() and "e-07" in buf.getvalue()


def _seven_row_grid() -> SweepRows:
    """7 loss rows (no k in 2..6 divides them) with exponent-notation cells."""
    xs = np.array([1e-7, 0.0625, 0.07, 1.5e-5, 3.0, 123456789012345.0, 0.1])
    ys = np.array([-3.5e-5, 14.0, 2.5e21, 7.0, 1e-300])
    gsnr = np.arange(35.0).reshape(7, 5) / 3.0 * np.array([1e-7, 1.0, 1e16, -2.5e21, 5e-324])
    return _rows(xs, ys, gsnr, gsnr[::-1] * 7.0 + 1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grid_csv_is_byte_identical_for_every_worker_count(monkeypatch, k):
    forked = _force_workers(monkeypatch, k)
    grid = _seven_row_grid()
    buf = io.StringIO()
    write_grid_csv(grid, DEFAULTS, buf)
    assert len(forked) == k - 1
    assert buf.getvalue() == _per_cell_csv(grid)
    assert "e+21" in buf.getvalue() and "e-07" in buf.getvalue()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16, -2.5e21, 1e-7, 1.0 / 3.0]),
)


@st.composite
def _grids(draw):
    n_loss, n_power = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.lists(_CELL, min_size=n_loss * n_power, max_size=n_loss * n_power)
    return _rows(
        draw(st.lists(_CELL, min_size=n_loss, max_size=n_loss)),
        draw(st.lists(_CELL, min_size=n_power, max_size=n_power)),
        np.array(draw(cells)).reshape(n_loss, n_power),
        np.array(draw(cells)).reshape(n_loss, n_power),
    )


@pytest.mark.parametrize("steps,workers", [((81, 111), 0), ((401, 250), 1)],
                         ids=["81x111", "401x250"])
def test_grid_csv_splits_only_from_two_workers_worth_of_cells(monkeypatch, steps, workers):
    """The default grid stays on one loop however many CPUs there are; a grid
    of 100,250 cells is split in two."""
    forked = _force_workers(monkeypatch, 64, outputs.MIN_CELLS_PER_WORKER)
    n_loss, n_power = steps
    cells = np.full((n_loss, n_power), 16.0722837)
    grid = _rows(np.linspace(0.05, 0.07, n_loss), np.linspace(14.0, 25.0, n_power),
                 cells, cells * 61.0)
    write_grid_csv(grid, DEFAULTS, io.StringIO())
    assert len(forked) == workers


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_grids(), st.integers(1, 3))
def test_grid_csv_template_matches_per_cell_format(grid, k):
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_workers(monkeypatch, k)
        write_grid_csv(grid, DEFAULTS, buf)
    assert buf.getvalue() == _per_cell_csv(grid)
    assert "\0" not in buf.getvalue() and "%" not in buf.getvalue()


class _RecordingHandle(io.StringIO):
    """A text handle that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("k", [1, 3])
def test_grid_csv_writes_at_most_a_row_or_a_copy_slice(monkeypatch, k):
    _force_workers(monkeypatch, k)
    monkeypatch.setattr(outputs, "COPY_SLICE", 4096)
    grid = _rows(np.linspace(0.05, 0.07, 10), np.linspace(14.0, 25.0, 100),
                 np.full((10, 100), 16.0722837), np.full((10, 100), 983.260595693))
    fh = _RecordingHandle()
    write_grid_csv(grid, DEFAULTS, fh)
    rows = fh.getvalue().splitlines(keepends=True)[-1000:]
    row_len = max(sum(map(len, rows[i:i + 100])) for i in range(0, 1000, 100))
    # A worker's chunk (3 or 4 rows) is well above both bounds.
    assert 3 * row_len > 4096 > row_len / 8
    assert max(fh.sizes) <= max(row_len, 4096)
    assert fh.getvalue() == _per_cell_csv(grid)


def _fail_in_workers(monkeypatch):
    """Make the row formatter raise in every process but this one."""
    parent, format_rows = os.getpid(), outputs._format_rows

    def format_rows_or_fail(*args):
        if os.getpid() != parent:
            raise RuntimeError("row formatter failed in a worker")
        return format_rows(*args)

    monkeypatch.setattr(outputs, "_format_rows", format_rows_or_fail)


def test_failing_worker_raises_oserror_and_every_worker_is_reaped(monkeypatch, tmp_path):
    forked = _force_workers(monkeypatch, 3)
    _fail_in_workers(monkeypatch)
    with pytest.raises(OSError, match="exited with status 1"):
        write_grid_csv(_seven_row_grid(), DEFAULTS, io.StringIO())
    assert len(forked) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # A worker that returned into this test instead of leaving through
    # os._exit would run on from here; the parent reaped it, so its line
    # would already be in the file.
    marker = tmp_path / "bodies.txt"
    with open(marker, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert marker.read_text() == f"{os.getpid()}\n"


class _BrokenHandle(io.StringIO):
    """A handle whose reader goes away once the header is written."""

    def write(self, text):
        if GRID_CSV_HEADER in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_handle_failure_ends_and_reaps_every_worker(monkeypatch):
    forked = _force_workers(monkeypatch, 3)
    with pytest.raises(BrokenPipeError):
        write_grid_csv(_seven_row_grid(), DEFAULTS, _BrokenHandle())
    assert len(forked) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("value", ["/data/a--b.csv", "x-->y<svg>", "x\ny,1,2,3"],
                         ids=["double-hyphen", "comment-close", "newline"])
def test_config_echo_writes_unsafe_strings_as_json_literals(value):
    """A string that could end a CSV comment line or an SVG comment early is
    echoed as a JSON string literal without "-", and reads back unchanged."""
    values = {"transceiver": {"table_path": value, "variant": "shannon_gap"}}
    line = config_echo_lines(values)[0]
    prefix = "# transceiver.table_path = "
    assert line.startswith(prefix)
    literal = line[len(prefix):]
    assert json.loads(literal) == value
    assert "-" not in literal and literal.isprintable()
    assert line.splitlines() == [line]


def test_config_echo_keeps_each_value_on_one_ascii_line():
    for char in ["\r", "\t", "\x00", "\x1c", "\x7f", "\x85", "\u2028", "\u2029", "\ud800",
                 "\ufffe", "\xa0"]:
        line = config_echo_lines({"s": {"k": f"a{char}b"}})[0]
        assert line.splitlines() == [line] and line.isascii()
        assert json.loads(line[len("# s.k = "):]) == f"a{char}b"


def test_config_echo_writes_other_values_as_they_read():
    values = {"a": {"path": "a-b", "variant": "shannon_gap", "loss": 0.06, "big": 1e21,
                    "gap": None, "steps": 81, "tab": "-70", "name": "é x"}}
    assert config_echo_lines(values) == [
        "# a.big = 1e+21", "# a.gap = none", "# a.loss = 0.06", "# a.name = é x",
        "# a.path = a-b", "# a.steps = 81", "# a.tab = -70", "# a.variant = shannon_gap",
    ]


def test_svg_contains_polylines_and_labels():
    polylines = [
        [(0.05, 18.0), (0.06, 20.3), (0.07, 22.5)],
        [(0.05, 19.0), (0.055, 19.5)],
    ]
    svg = render_contour_svg([(1000.0, polylines)], GridSpec(), "throughput", DEFAULTS)
    assert svg.count("<polyline") == len(polylines)
    assert "1000 Tb/s" in svg
    assert "throughput contours" in svg
    assert "fiber loss (dB/km)" in svg
    assert "EDFA output power (dBm)" in svg
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_svg_polyline_count_tracks_extractor():
    svg = render_contour_svg([(15.0, [[(0.05, 15.0), (0.06, 16.0)]]), (16.0, [])],
                             GridSpec(), "gsnr", DEFAULTS)
    assert svg.count("<polyline") == 1
    assert ">15 dB</text>" in svg and ">16 dB</text>" not in svg


def test_svg_embeds_config_echo():
    svg = render_contour_svg([(1000.0, [[(0.05, 15.0), (0.06, 16.0)]])], GridSpec(),
                             "throughput", DEFAULTS)
    assert "<!-- fiber.loss_db_per_km = 0.06 -->" in svg
    assert svg.count("<!--") == sum(len(keys) for keys in DEFAULTS.values())


def test_fork_warning_of_a_threaded_process_does_not_escape(monkeypatch):
    """Python 3.12+ warns at fork() when the process runs other threads (numpy's
    OpenBLAS pool, in a library caller that loaded numpy, is one). The workers
    run only the row kernel and formatter, so the writer silences that warning at
    its fork; nothing reaches stderr."""
    fork = os.fork

    def fork_as_in_a_threaded_process():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", fork_as_in_a_threaded_process)
    forked = _force_workers(monkeypatch, 2)
    grid = _seven_row_grid()
    buf = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_grid_csv(grid, DEFAULTS, buf)
    assert len(forked) == 1
    assert buf.getvalue() == _per_cell_csv(grid)


@pytest.mark.parametrize("k", [2, 3])
def test_grid_csv_of_split_rows_is_sweep_grids_cells(monkeypatch, reference_plan,
                                                     calibrated_trx, k):
    """Split over k workers, each evaluating its own rows through the kernel, the
    CSV holds sweep_grid's array cells, each formatted on its own."""
    forked = _force_workers(monkeypatch, k)
    spec = GridSpec(0.045, 0.085, 9, 14.0, 25.0, 13)
    buf = io.StringIO()
    write_grid_csv(sweep_rows(reference_plan, calibrated_trx, spec, True), DEFAULTS, buf)
    assert len(forked) == k - 1
    grid = sweep_grid(reference_plan, calibrated_trx, spec, True)
    assert buf.getvalue() == _per_cell_csv(_rows(grid.loss_db_per_km, grid.edfa_power_dbm,
                                                 grid.gsnr_db, grid.throughput_tbps))
