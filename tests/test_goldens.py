"""Byte-for-byte goldens of the outputs that tests/test_cli.py does not pin.

Each case runs `hcflink.cli.main` in process from the tests/ directory and
compares stdout with a file in tests/golden/, byte for byte, and stderr with the
empty string. The contour cases run on golden/sweep_9x7.conf, a 9 x 7 sweep, so
their files stay small; the variants read golden/trx_table.csv by that relative
path, which their config echo holds. A golden changes only on purpose:
regenerate it from the tests/ directory with its case's arguments, e.g.

    cd tests
    PYTHONPATH=../src python -m hcflink.cli rbs > golden/rbs_default.json
    PYTHONPATH=../src python -m hcflink.cli contour --config golden/sweep_9x7.conf \\
        --format csv > golden/contour_sweep_9x7.csv
    PYTHONPATH=../src python -m hcflink.cli budget --trx-table golden/trx_table.csv \\
        > golden/budget_table.json

(the arguments of every case are in CASES below), and say in CHANGES.md which
goldens moved and why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from hcflink.cli import EXIT_OK, main

SWEEP = ["--config", "golden/sweep_9x7.conf"]
TABLE = ["--trx-table", "golden/trx_table.csv"]
RBS = ["--include-rbs", "true"]

CASES = {
    "rbs_default.json": ["rbs"],
    "powerfeed_default.json": ["powerfeed"],
    "latency_default.json": ["latency"],
    "contour_sweep_9x7.csv": ["contour", *SWEEP, "--format", "csv"],
    "contour_sweep_9x7.json": ["contour", *SWEEP, "--format", "json"],
    "budget_rbs.json": ["budget", *RBS],
    "budget_table.json": ["budget", *TABLE],
    "span_curve_rbs_table.json": ["span-curve", "--format", "json", *RBS, *TABLE],
    "contour_sweep_9x7_rbs_table.json": ["contour", *SWEEP, "--format", "json", *RBS, *TABLE],
    "contour_sweep_9x7_rbs_table.csv": ["contour", *SWEEP, "--format", "csv", *RBS, *TABLE],
    "contour_sweep_9x7_rbs_table.svg": ["contour", *SWEEP, "--format", "svg", *RBS, *TABLE],
    "span_curve_rbs_table.csv": ["span-curve", "--format", "csv", *RBS, *TABLE],
}


@pytest.mark.parametrize("name", CASES)
def test_output_is_pinned(capsys, monkeypatch, name):
    tests = Path(__file__).parent
    monkeypatch.chdir(tests)
    assert main(CASES[name]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == (tests / "golden" / name).read_text(encoding="utf-8")
    assert captured.err == ""
