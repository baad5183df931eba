"""Byte-for-byte goldens of the command outputs, one table for every file.

Each case runs `hcflink.cli.main` in process from the tests/ directory and
compares stdout with a file in tests/golden/, byte for byte, and stderr with the
empty string. The contour cases run on golden/sweep_9x7.conf, a 9 x 7 sweep, so
their files stay small; the variants read golden/trx_table.csv by that relative
path, which their config echo holds, and the high-gamma span curve reads
golden/high_gamma.conf. A golden changes only on purpose:
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
    "budget_default.json": ["budget"],
    "span_curve_default.csv": ["span-curve", "--format", "csv"],
    "span_curve_default.json": ["span-curve", "--format", "json"],
    "contour_default.svg": ["contour", "--format", "svg", "--levels", "950,1000,1050"],
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
    # Infeasible points: above the throughput peak at a solid-core-like gamma (the
    # 314, 367 and 388 km spans), and roots below the solver's window (150, 200 km).
    "span_curve_high_gamma.json": ["span-curve", "--format", "json", "--config",
                                   "golden/high_gamma.conf", "--span-min", "60", "--span-max",
                                   "400", "--span-points", "9", "--target-tbps", "1100"],
    "span_curve_low_target.csv": ["span-curve", "--format", "csv", "--target-tbps", "100",
                                  "--span-points", "3"],
}


@pytest.mark.parametrize("name", CASES)
def test_output_is_pinned(capsys, monkeypatch, name):
    tests = Path(__file__).parent
    monkeypatch.chdir(tests)
    assert main(CASES[name]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == (tests / "golden" / name).read_text(encoding="utf-8")
    assert captured.err == ""
