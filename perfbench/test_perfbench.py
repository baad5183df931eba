"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench

They live beside the harness, outside the repository's test suite. The last
ones run the benchmark briefly, so the whole file takes about a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from hcflink import cli, config, explore, system  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- generator ------------------------------------------------------------


def _orders(seed, rounds):
    return list(itertools.islice(gen.cli_order(seed), rounds))


def test_generator_is_deterministic_per_seed():
    for seed in (1, 2, 17):
        assert _orders(seed, 6) == _orders(seed, 6)
        assert gen.large_levels(seed) == gen.large_levels(seed)
        assert gen.transceiver_table(seed) == gen.transceiver_table(seed)
        assert gen.csv_row_picks(seed, "x", 8991) == gen.csv_row_picks(seed, "x", 8991)
        assert gen.solve_plans(seed, 4.0, "t.csv") == gen.solve_plans(seed, 4.0, "t.csv")
    assert gen.solve_plans(1, 4.0, "t.csv") != gen.solve_plans(2, 4.0, "t.csv")
    assert _orders(1, 6) != _orders(2, 6)


def test_generator_ranges_and_fixed_gamma_mix():
    for seed in range(5):
        assert all(sorted(r) == sorted(gen.CLI_KINDS) for r in _orders(seed, 4))
        levels = gen.large_levels(seed)
        assert len(set(levels)) == 3 and all(900 <= v <= 1100 for v in levels)
        plans = gen.solve_plans(seed, 4.0, "t.csv")
        high = [p for p in plans if p["high_gamma"]]
        assert len(high) * 4 == len(plans)
        assert sum(p["transceiver"] == "tabulated" for p in high) * 2 == len(high)
        assert sum(p["transceiver"] == "tabulated" for p in plans) * 2 == len(plans)
        assert all(0.045 <= p["loss_db_per_km"] <= 0.085 for p in plans)
        assert all(800 <= p["target_tbps"] <= 1150 for p in plans)
        table = gen.transceiver_table(seed)
        assert all(g1 > g0 and r1 >= r0 for (g0, r0), (g1, r1) in zip(table, table[1:]))


# --- verifier -------------------------------------------------------------


def _default_plan():
    cfg = config.parse_config("")
    plan = cfg.plan()
    trx, _ = config.resolve_transceiver(cfg, plan)
    return plan, trx


def _throughput(plan, trx, loss):
    return lambda p: system.cable_throughput(plan, trx, system.OperatingPoint(loss, p))


def test_verifier_accepts_a_right_solve_and_flags_a_wrong_one():
    plan, trx = _default_plan()
    settings = explore.DEFAULT_SOLVER
    tput = _throughput(plan, trx, 0.06)
    power = explore.required_edfa_power(plan, trx, 0.06, 200.0, 1000.0)
    assert worker.check_solve(tput, power, True, 1000.0, settings) is None
    wrong = worker.check_solve(tput, power + 1.0, True, 1000.0, settings)
    assert wrong["kind"] == "wrong_power"
    # Unreachable target: the infeasible verdict is confirmed by the scan.
    assert worker.check_solve(tput, None, False, 5000.0, settings) is None
    # Reachable target declared infeasible: flagged.
    flagged = worker.check_solve(tput, None, False, 1000.0, settings)
    assert flagged["kind"] == "false_infeasible"


def test_verifier_scan_finds_the_peak_of_a_non_monotone_curve():
    plan, trx = _default_plan()
    hot = config.parse_config('{"fiber": {"gamma_per_w_km": 0.05}}').plan()
    tput = _throughput(hot, trx, 0.06)
    peak_dbm, peak = worker.scan_peak(tput, 5.0, 30.0)
    assert 5.0 < peak_dbm < 30.0
    assert peak > tput(30.0) and peak > tput(peak_dbm - 0.5) and peak > tput(peak_dbm + 0.5)


def test_verifier_flags_a_wrong_csv_row():
    cfg = config.parse_config("")
    text = cli.run_command("contour", cfg, fmt="csv")
    picks = [0, 4321, 8990]
    n_rows, rows, problems = checks.grid_csv_rows(text, picks)
    assert n_rows == 81 * 111 and not problems
    assert worker.check_grid_rows("", rows) == []
    rows[1]["values"][2] += 1e-6
    found = worker.check_grid_rows("", rows)
    assert [p["row"] for p in found] == [1] and "gsnr_db" in found[0]["why"]


def test_output_checks_flag_wrong_cli_outputs():
    cfg = config.parse_config("")
    budget = cli.run_command("budget", cfg, include_rbs=True)
    assert checks.check_budget(budget) == []
    assert checks.check_budget(cli.run_command("budget", cfg, include_rbs=False))
    assert checks.check_rbs(cli.run_command("rbs", cfg)) == []
    assert checks.check_powerfeed(cli.run_command("powerfeed", cfg)) == []
    assert checks.check_latency(cli.run_command("latency", cfg)) == []
    assert checks.check_span_curve(cli.run_command("span-curve", cfg, fmt="csv"), 21) == []
    svg = cli.run_command("contour", cfg, fmt="svg", levels=(950.0, 1000.0))
    assert checks.check_svg(svg, [950.0, 1000.0]) == []
    assert checks.check_svg(svg, [950.0, 1000.0, 1e6])


def test_tail_reports_a_percentile_only_with_ten_samples_beyond():
    assert set(run.tail(list(range(10)))) == {"n", "min", "p50"}
    stats = run.tail(list(range(100)))
    assert stats["p90"] == 89  # ten samples (90..99) lie above it


def test_host_clock_divides_out_the_speed_read_during_the_interval():
    clock = run.HostClock()
    slow, fast = 2 * run.CLOCK_NOMINAL_NS, run.CLOCK_NOMINAL_NS
    clock.samples = ([(t, slow) for t in range(0, 100, 10)]
                     + [(t, fast) for t in range(100, 200, 10)])
    # Ten fast samples fall inside [100, 190]: the wall time stands.
    assert clock.normalised_ns(100, 90) == pytest.approx(90)
    # One sample falls inside [0, 5]: the five nearest (all slow) are used.
    assert clock.normalised_ns(0, 5) == pytest.approx(2.5)
    assert run.normalised(300, 3 * run.CLOCK_NOMINAL_NS) == pytest.approx(100)


# --- the command ----------------------------------------------------------


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("workload,trace", [("cli-default", "0"), ("cli-default", "1"),
                                            ("solve-map", "0"), ("solve-map", "1")])
def test_emitted_metric_names_are_those_of_benchmark_json(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == declared
    assert summary["attempted"] >= 1


def test_solve_map_counts_repeat_whatever_the_run_length():
    counts = []
    for seconds in ("1", "3"):
        done = _bench("--workload", "solve-map", "--seed", "2", "--seconds", seconds,
                      "--trace", "0")
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        counts.append((summary["attempted"], summary["failed"]))
    assert counts[0] == counts[1]


def test_fails_without_the_program_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = _bench("--workload", "cli-default", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
