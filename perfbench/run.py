"""hcflink benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The program is driven only from outside:
CLI runs start ``hcflink.cli:main`` in fresh interpreters exactly as the
console script does, and library workloads run in a child interpreter
(perfbench/worker.py), both with the checkout's src/ on PYTHONPATH. Inputs
come from the seed; outputs are checked outside the timed region.

--trace 0 measures the end-to-end metrics; --trace 1 is the separate traced
run that gives the per-layer metrics. Metric names, units and bounds are in
BENCHMARK.json. A results file with machine notes goes to perfbench/out/ and
the last stdout line is the JSON summary.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen
from spans import reference_loop_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = OUT / "work"

CLI_CODE = "import sys; from hcflink.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import sys, json; from hcflink.cli import main; "
    "from hcflink.config import parse_config, resolve_transceiver; "
    "cfg = parse_config(sys.argv[1]); trx, values = resolve_transceiver(cfg, cfg.plan()); "
    "print(json.dumps(values))"
)
IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import hcflink.cli; t2 = time.perf_counter(); print((t1 - t0) * 1e3, (t2 - t1) * 1e3)"
)
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
HOST_LOOP_REPEATS = 15
RUN_LIMIT_S = 170.0
# Host-normalised times: the reference loop (spans.reference_loop_ns) read
# next to each timed interval tells how fast the shared host ran it, and the
# interval is rescaled to a host on which that loop takes CLOCK_NOMINAL_NS.
# For child processes the loop is timed every CLOCK_INTERVAL_S in a harness
# thread, 5-8 % of one core.
CLOCK_NOMINAL_NS = 1_000_000
CLOCK_INTERVAL_S = 0.025
CLOCK_MIN_SAMPLES = 5
LARGE_POINTS = 1001 * 1001
# solve-map runs its timed passes in this many worker processes, with set-up
# probes between them.
SOLVE_CHUNKS = 4


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    out: str
    err: str
    start_ns: int
    wall_ns: int
    maxrss_kb: int


class Runner:
    """Starts child interpreters one at a time and waits for each."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not old else src + os.pathsep + old)

    def run(self, argv: list[str]) -> Child:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        err_path = WORK / "stderr.txt"
        with open(err_path, "w+b") as err_fh:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_fh,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            except BaseException:
                # Interrupted or terminated: end the child before waiting.
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                timer.cancel()
            wall_ns = time.perf_counter_ns() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err_fh.seek(0)
            err = err_fh.read().decode(errors="replace")
        if time.monotonic() >= self.deadline:
            raise BenchError(f"{argv[:4]} killed at the run time limit")
        return Child(proc.returncode, out.decode(), err, start, wall_ns, usage.ru_maxrss)

    def cli(self, args: list[str]) -> Child:
        return self.run([sys.executable, "-c", CLI_CODE, *args])

    def worker(self, task: str, spec: dict, tag: str) -> tuple[dict, Child]:
        spec_path, result_path = WORK / f"{tag}-spec.json", WORK / f"{tag}-result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        child = self.run([sys.executable, str(HERE / "worker.py"), task, str(spec_path),
                          str(result_path)])
        if child.code != 0:
            raise BenchError(f"worker {task} exited {child.code}: {child.err[-2000:]}")
        result = json.loads(result_path.read_text())
        src = str(ROOT / "src")
        if not result["hcflink_file"].startswith(src):
            raise BenchError(f"worker imported hcflink from {result['hcflink_file']}, not {src}")
        return result, child


class HostClock:
    """Samples the host's speed in a thread while the timed children run.

    The machine is a few vCPUs of a shared host whose speed swings by up to
    2x in phases of seconds to minutes; a child's CPU time swings with its
    wall time, so the slowdown is the CPU's and no estimator within one run
    removes it. A fixed reference loop timed every CLOCK_INTERVAL_S in the
    harness (idle while it waits for the child) reads part of the same
    swings, and normalised_ns() divides them out of each timed interval. It
    follows short children; during a long one it reads a nearly flat time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []  # (midpoint ns, loop ns)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostClock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(CLOCK_INTERVAL_S):
            loop_ns = reference_loop_ns()
            self.samples.append((time.perf_counter_ns() - loop_ns // 2, loop_ns))

    def normalised_ns(self, start_ns: int, wall_ns: int) -> float:
        """wall_ns rescaled to a host on which the reference loop takes
        CLOCK_NOMINAL_NS, by the median loop time of the samples taken during
        [start_ns, start_ns + wall_ns], or of the CLOCK_MIN_SAMPLES nearest to
        it when fewer fell inside."""
        end_ns = start_ns + wall_ns

        def distance(sample):
            return max(start_ns - sample[0], sample[0] - end_ns, 0)

        near = sorted(self.samples, key=distance)
        inside = [sample for sample in near if distance(sample) == 0]
        chosen = inside if len(inside) >= CLOCK_MIN_SAMPLES else near[:CLOCK_MIN_SAMPLES]
        if len(chosen) < CLOCK_MIN_SAMPLES:
            raise BenchError("too few host clock samples")
        return normalised(wall_ns, median([loop_ns for _, loop_ns in chosen]))


def normalised(wall_ns: float, loop_ns: float) -> float:
    """wall_ns on a host on which the reference loop takes CLOCK_NOMINAL_NS."""
    return wall_ns * CLOCK_NOMINAL_NS / loop_ns


# ---------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values)


def iqr_share(values) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail(values) -> dict:
    """Minimum, median and the highest percentile with at least ten samples
    beyond it, with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    result = {"n": n, "min": ordered[0], "p50": median(ordered)}
    if n >= 11:
        k = n - 11  # ten samples lie above ordered[k]
        result[f"p{100 * (k + 1) // n}"] = ordered[k]
    return result


# ---------------------------------------------------------------------------
# machine notes


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _llc() -> str | None:
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, size = _read(str(index / "level")), _read(str(index / "size"))
        if level and size and (best is None or int(level) > best[0]):
            best = (int(level), size)
    return f"L{best[0]} {best[1]}" if best else None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def host_loop_ms() -> float:
    """Median time of the reference loop. Noted at the start and end of a
    run, it shows how fast the shared host ran then."""
    return median([reference_loop_ns() for _ in range(HOST_LOOP_REPEATS)]) / 1e6


def machine_notes(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg_start": _read("/proc/loadavg"),
        "host_loop_ms_start": host_loop_ms(),
    }


# ---------------------------------------------------------------------------
# set-up and import probes


def setup_probe(runner: Runner, config_text: str) -> tuple[Child, dict]:
    """Fresh interpreter: import hcflink.cli, parse_config, resolve_transceiver.
    Returns the child and the resolved transceiver values."""
    child = runner.run([sys.executable, "-c", SETUP_CODE, config_text])
    if child.code != 0:
        raise BenchError(f"set-up probe exited {child.code}: {child.err[-2000:]}")
    return child, json.loads(child.out)


class SetupProbes:
    """SETUP_REPEATS set-up probes, spread over the run so that a slow phase
    of the host reaches only some of them; setup_s is the median of their
    host-normalised wall times."""

    def __init__(self, runner: Runner, config_text: str) -> None:
        self.runner, self.config_text = runner, config_text
        self.children: list[Child] = []
        self.values: dict = {}

    def take(self, share: float = 1.0) -> None:
        """Bring the probes taken up to `share` of SETUP_REPEATS."""
        while len(self.children) < round(SETUP_REPEATS * min(share, 1.0)):
            child, self.values = setup_probe(self.runner, self.config_text)
            self.children.append(child)


def measure_imports(runner: Runner) -> dict:
    """Fresh interpreters that import numpy, then hcflink.cli, and exit: the
    time of each import, and the wall time of the whole process."""
    numpy_ms, cli_ms, wall_ms = [], [], []
    for _ in range(IMPORT_REPEATS):
        child = runner.run([sys.executable, "-c", IMPORT_CODE])
        if child.code != 0:
            raise BenchError(f"import probe exited {child.code}: {child.err[-2000:]}")
        a, b = child.out.split()
        numpy_ms.append(float(a))
        cli_ms.append(float(b))
        wall_ms.append(child.wall_ns / 1e6)
    return {"numpy_ms": numpy_ms, "hcflink_cli_ms": cli_ms, "wall_ms": wall_ms}


# ---------------------------------------------------------------------------
# workloads: each returns the ops it ran, as dicts with kind, wall, rss and
# the problems its output checks found, plus workload-specific extras.


def _grid_rows_for(kind: str, text: str, seed: int, tag: str, n_expected: int,
                   rows_out: list) -> list[str]:
    picks = gen.csv_row_picks(seed, tag, n_expected)
    n_rows, rows, problems = checks.grid_csv_rows(text, picks)
    if n_rows != n_expected:
        problems.append(f"{kind} CSV has {n_rows} rows, want {n_expected}")
    for row in rows:
        rows_out.append({**row, "op": tag})
    return problems


def _verify_rows(runner: Runner, config_text: str, rows: list[dict], ops: list[dict]) -> None:
    """Recompute the picked CSV rows in one worker call; charge problems to ops."""
    if not rows:
        return
    result, _ = runner.worker("verify-rows", {"config_text": config_text, "rows": rows},
                              "verify-rows")
    by_tag = {op["tag"]: op for op in ops}
    for problem in result["problems"]:
        by_tag[rows[problem["row"]]["op"]]["problems"].append(problem["why"])


CLI_CHECKS = {
    "budget": checks.check_budget,
    "rbs": checks.check_rbs,
    "powerfeed": checks.check_powerfeed,
    "latency": checks.check_latency,
    "span-curve": lambda text: checks.check_span_curve(text, 21),
}


def _process_ops(runner: Runner, rounds, check, seconds: float, min_rounds: int,
                 max_rounds: int | None = None, probes: SetupProbes | None = None) -> list[dict]:
    """Closed loop, one process at a time: whole rounds of (kind, argv) until
    `seconds` pass. check(kind, text, tag) returns the output's problems.
    Set-up probes, if given, are taken between operations in step with
    progress: the smaller of the share of `seconds` gone and of the minimum
    rounds done."""
    ops = []
    start = time.monotonic()
    rnd = 0
    while rnd < min_rounds or (time.monotonic() - start < seconds
                               and (max_rounds is None or rnd < max_rounds)):
        todo = next(rounds)
        for kind, argv in todo:
            child = runner.cli(argv)
            tag = f"{kind}#{rnd}"
            op = {"kind": kind, "round": rnd, "tag": tag, "start_ns": child.start_ns,
                  "wall_ns": child.wall_ns, "rss_kb": child.maxrss_kb,
                  "bytes": len(child.out), "problems": []}
            if child.code != 0:
                op["problems"].append(f"exit {child.code}: {child.err[-500:]}")
            else:
                op["problems"] += check(kind, child.out, tag)
            ops.append(op)
            if probes is not None:
                probes.take(min((time.monotonic() - start) / seconds,
                                len(ops) / (min_rounds * len(todo))))
        rnd += 1
    return ops


def _cli_check(seed: int, rows: list):
    """check(kind, text, tag) for cli-default outputs; picked CSV rows go to
    rows, for _verify_rows."""

    def check(kind, text, tag):
        if kind == "contour":
            return _grid_rows_for(kind, text, seed, tag, 81 * 111, rows)
        return CLI_CHECKS[kind](text)

    return check


def _cli_ops(runner: Runner, seed: int, seconds: float, min_rounds: int,
             max_rounds: int | None = None, probes: SetupProbes | None = None) -> list[dict]:
    rows: list[dict] = []
    rounds = ([(kind, gen.CLI_ARGS[kind]) for kind in order] for order in gen.cli_order(seed))
    ops = _process_ops(runner, rounds, _cli_check(seed, rows), seconds, min_rounds, max_rounds,
                       probes)
    _verify_rows(runner, "", rows, ops)
    return ops


def large_args(seed: int) -> dict[str, list[str]]:
    config = str((WORK / "large.json").relative_to(ROOT))
    levels = ",".join(f"{v:g}" for v in gen.large_levels(seed))
    return {
        "contour-csv": ["contour", "--config", config, "--format", "csv"],
        "contour-svg": ["contour", "--config", config, "--format", "svg", "--levels", levels],
    }


def _large_check(seed: int, rows: list):
    """check(kind, text, tag) for sweep-large outputs; picked CSV rows go to
    rows, for _verify_rows."""
    levels = gen.large_levels(seed)

    def check(kind, text, tag):
        if kind == "contour-csv":
            return _grid_rows_for(kind, text, seed, tag, LARGE_POINTS, rows)
        return checks.check_svg(text, levels)

    return check


def _large_ops(runner: Runner, seed: int, seconds: float, probes: SetupProbes) -> list[dict]:
    """Whole csv+svg pairs until `seconds` pass, at least one."""
    rows: list[dict] = []
    rounds = itertools.repeat(list(large_args(seed).items()))
    ops = _process_ops(runner, rounds, _large_check(seed, rows), seconds, 1, probes=probes)
    _verify_rows(runner, json.dumps(gen.LARGE_CONFIG), rows, ops)
    return ops


def _solve_spec(seed: int, gap_db: float) -> dict:
    table = WORK / f"table-{seed}.csv"
    table.write_text("# gsnr_db,net_rate_gbps\n" + "".join(
        f"{g!r},{r!r}\n" for g, r in gen.transceiver_table(seed)))
    plans = gen.solve_plans(seed, gap_db, str(table.relative_to(ROOT)))
    for plan in plans:
        plan.update(span_min_km=gen.SPAN_MIN_KM, span_max_km=gen.SPAN_MAX_KM,
                    span_points=gen.SPAN_POINTS)
    return {"plans": plans, "seed": seed}


# ---------------------------------------------------------------------------
# end-to-end run


def untraced(runner: Runner, workload: str, seed: int, seconds: float,
             probes: SetupProbes, clock: HostClock) -> tuple[dict, dict]:
    """Returns (metric values without setup_s, details for the results file)."""
    if workload == "solve-map":
        # The passes run in SOLVE_CHUNKS workers, with set-up probes before,
        # between and after them; the first worker also verifies the verdicts.
        chunks = []
        for k in range(SOLVE_CHUNKS):
            probes.take((k + 1) / (SOLVE_CHUNKS + 1))
            spec = _solve_spec(seed, probes.values["gap_db"])
            spec.update(seconds=seconds / SOLVE_CHUNKS, verify=k == 0)
            chunks.append(runner.worker("solve-map", spec, "solve-map"))
        probes.take()
        result = chunks[0][0]
        solves = result["solves_per_pass"]
        false_infeasible = [f for f in result["failures"] if f["kind"] == "false_infeasible"]
        wrong = [f for f in result["failures"] if f["kind"] != "false_infeasible"]
        nondeterministic = sum(r["nondeterministic_passes"] + (r["digest"] != result["digest"])
                               for r, _ in chunks)
        # The worker reads the reference loop itself, right after each pass.
        pass_ns = [ns for r, _ in chunks for ns in r["pass_ns"]]
        reference_ns = [ns for r, _ in chunks for ns in r["reference_ns"]]
        pass_ms = [ns / 1e6 for ns in pass_ns]
        norm_ms = [normalised(ns, ref) / 1e6 for ns, ref in zip(pass_ns, reference_ns)]
        values = {
            "round_norm_ms": median(norm_ms),
            "peak_rss_mb": max(child.maxrss_kb for _, child in chunks) / 1024,
        }
        details = {
            # Every pass repeats the same solves and must return the same
            # verdicts, so each distinct solve is one operation, verified once.
            "attempted": solves,
            "failed": solves if nondeterministic else len(result["failures"]),
            "correct": not wrong and nondeterministic == 0,
            "samples": {"round_norm_ms": norm_ms, "round_ms": pass_ms},
            "work_counts": {"solves_per_pass": solves, "curves_per_pass": len(spec["plans"]),
                            "verdicts_per_pass": result["verdicts"]},
            "passes": len(pass_ms),
            "nondeterministic_passes": nondeterministic,
            "round_ms": median(pass_ms),
            "pass_ms": tail(pass_ms),
            "pass_norm_ms": tail(norm_ms),
            "solves_per_s": solves / (median(pass_ms) / 1e3),
            "false_verdicts_per_pass": len(false_infeasible),
            "false_by_class": result["false_by_class"],
            "wrong_outputs": wrong[:20],
            "false_infeasible_examples": false_infeasible[:10],
        }
        return values, details

    if workload == "cli-default":
        ops = _cli_ops(runner, seed, seconds, min_rounds=3, probes=probes)
    else:
        ops = _large_ops(runner, seed, seconds, probes)
    probes.take()
    for op in ops:
        op["norm_ms"] = clock.normalised_ns(op["start_ns"], op["wall_ns"]) / 1e6
    kinds = sorted({op["kind"] for op in ops})
    per_kind = {k: [op["wall_ns"] / 1e6 for op in ops if op["kind"] == k] for k in kinds}
    per_kind_norm = {k: [op["norm_ms"] for op in ops if op["kind"] == k] for k in kinds}
    rounds = sorted({op["round"] for op in ops})

    def round_totals(key, scale):
        return [sum(op[key] for op in ops if op["round"] == r) / scale for r in rounds]

    failed_ops = [op for op in ops if op["problems"]]
    values = {
        "round_norm_ms": sum(median(per_kind_norm[k]) for k in kinds),
        "peak_rss_mb": max(op["rss_kb"] for op in ops) / 1024,
    }
    work_counts = {"ops_per_round": len(kinds)}
    if workload == "sweep-large":
        work_counts.update(
            points_per_command=LARGE_POINTS,
            csv_bytes=[op["bytes"] for op in ops if op["kind"] == "contour-csv"][0],
            svg_bytes=[op["bytes"] for op in ops if op["kind"] == "contour-svg"][0],
        )
    details = {
        "attempted": len(ops),
        "failed": len(failed_ops),
        "correct": not failed_ops,
        "samples": {"round_norm_ms": round_totals("norm_ms", 1),
                    "round_ms": round_totals("wall_ns", 1e6),
                    "peak_rss_mb": [op["rss_kb"] / 1024 for op in ops]},
        "per_kind_ms": {k: tail(v) for k, v in per_kind.items()},
        "per_kind_norm_ms": {k: tail(v) for k, v in per_kind_norm.items()},
        "round_ms": sum(median(per_kind[k]) for k in kinds),
        "per_kind_samples_ms": per_kind,
        "per_kind_spread": {k: iqr_share(v) for k, v in per_kind.items()},
        "per_kind_norm_spread": {k: iqr_share(v) for k, v in per_kind_norm.items()},
        "rounds": len(rounds),
        "work_counts": work_counts,
        "problems": [{"op": op["tag"], "problems": op["problems"]} for op in failed_ops][:20],
    }
    if workload == "sweep-large":
        details["points_per_s"] = {k: LARGE_POINTS / (median(v) / 1e3)
                                   for k, v in per_kind.items()}
    return values, details


# ---------------------------------------------------------------------------
# traced run


def traced(runner: Runner, workload: str, seed: int) -> tuple[dict, dict]:
    imports = measure_imports(runner)
    walls: dict[str, list[float]] = {}
    ops: list[dict] = []
    if workload == "solve-map":
        _, trx_values = setup_probe(runner, "")
        spec = _solve_spec(seed, trx_values["gap_db"])
        spec.update(rounds=9, config_text="")
    else:
        if workload == "cli-default":
            ops = _cli_ops(runner, seed, 0.0, min_rounds=3, max_rounds=3)
            spec = {"ops": [{"kind": k, "argv": gen.CLI_ARGS[k]} for k in next(gen.cli_order(seed))],
                    "rounds": 5, "config_text": ""}
        else:
            # Startup is about 1 % of a 10^6-point command, below the noise of
            # one sample, so wall minus in-process time cannot resolve it. The
            # traced run skips the process pair (which would take as long as
            # the replay again) and takes startup from the import probes.
            argv = large_args(seed)
            spec = {"ops": [{"kind": k, "argv": argv[k]} for k in ("contour-csv", "contour-svg")],
                    "rounds": 1, "config_text": json.dumps(gen.LARGE_CONFIG)}
        for op in ops:
            walls.setdefault(op["kind"], []).append(op["wall_ns"] / 1e6)
    spec.update(workload=workload, seed=seed, outputs_prefix=str(WORK / "replay-"),
                spans_path=str(OUT / f"{workload}-seed{seed}-spans.json"))
    replay, _ = runner.worker("replay", spec, "replay")
    if workload != "solve-map":
        # The in-process replay's outputs get the same checks as the processes'.
        rows: list[dict] = []
        check = (_cli_check if workload == "cli-default" else _large_check)(seed, rows)
        for kind, path in replay["outputs"].items():
            tag = f"{kind}#replay"
            ops.append({"kind": kind, "tag": tag, "replay": True,
                        "problems": check(kind, Path(path).read_text(), tag)})
        _verify_rows(runner, spec["config_text"], rows,
                     [op for op in ops if op.get("replay")])

    totals, counts = replay["totals"], replay["counts"]
    rounds = replay["rounds"]
    kernels = replay["kernels"]["per_call_ns"]

    def mean(name, scale):
        t = totals.get(name)
        return t["incl_ns"] / t["calls"] / scale if t else 0.0

    def per_round(name):
        return counts.get(name, 0) / rounds

    # Fastest sample per kind: each traced copy ran next to its untraced one.
    untraced_ms = {k: min(v) / 1e6 for k, v in replay["untraced_ns"].items()}
    traced_ms = {k: min(v) / 1e6 for k, v in replay["traced_ns"].items()}
    cli_main_ms = 0.0 if workload == "solve-map" else sum(untraced_ms.values())
    if workload == "sweep-large":
        startup_ms = {k: median(imports["wall_ms"]) for k in untraced_ms}
    else:
        startup_ms = {k: min(walls[k]) - untraced_ms[k] for k in walls}
    csv = totals.get("outputs.write_grid_csv")
    calib = totals.get("system.calibrate_trx_gap")
    evals = totals.get("system.cable_throughput")
    sweep = totals.get("explore.sweep_grid")
    values = {
        "import.numpy_ms": median(imports["numpy_ms"]),
        "import.hcflink_cli_ms": median(imports["hcflink_cli_ms"]),
        "config.parse_config_ms": mean("config.parse_config", 1e6),
        "config.resolve_transceiver_ms": mean("config.resolve_transceiver", 1e6),
        "system.calibrate_trx_gap_ms": mean("system.calibrate_trx_gap", 1e6),
        "system.calibrate_link_evals": evals["calls"] / calib["calls"] if calib and evals else 0,
        "units.db_to_linear_ns": kernels.get("units.db_to_linear", 0.0),
        "units.dbm_to_watt_ns": kernels.get("units.dbm_to_watt", 0.0),
        "units.sinhc_ns": kernels.get("units.sinhc", 0.0),
        "impairments.ase_inv_snr_ns": kernels.get("impairments.ase_inv_snr", 0.0),
        "impairments.gn_nli_psd_per_span_ns": kernels.get("impairments.gn_nli_psd_per_span", 0.0),
        "impairments.rbs_inv_snr_ns": kernels.get("impairments.rbs_inv_snr", 0.0),
        "impairments.combine_gsnr_ns": kernels.get("impairments.combine_gsnr", 0.0),
        "impairments.rbs_brute_force_ms": replay["rbs_brute_force"]["per_call_ns"] / 1e6,
        "system.link_gsnr_us": kernels.get("system.link_gsnr", 0.0) / 1e3,
        "system.cable_throughput_us": kernels.get("system.cable_throughput", 0.0) / 1e3,
        "explore.sweep_grid_s": mean("explore.sweep_grid", 1e9),
        "explore.sweep_ns_per_point": (sweep["incl_ns"] / counts["explore.points"]
                                       if sweep else 0.0),
        "explore.points": per_round("explore.points"),
        "explore.grid_bytes_computed": per_round("explore.grid_bytes_computed"),
        "explore.extract_contour_s": mean("explore.extract_contour", 1e9),
        "explore.contour_segments": per_round("explore.contour_segments"),
        "explore.required_edfa_power_us": mean("explore.required_edfa_power", 1e3),
        "explore.span_length_curve_ms": mean("explore.span_length_curve", 1e6),
        "explore.solves": (totals["explore.required_edfa_power"]["calls"] / rounds
                           if "explore.required_edfa_power" in totals else 0.0),
        "outputs.write_grid_csv_s": mean("outputs.write_grid_csv", 1e9),
        "outputs.csv_bytes": per_round("outputs.csv_bytes"),
        "outputs.csv_mb_per_s": (counts["outputs.csv_bytes"] / csv["incl_ns"] * 1e3
                                 if csv else 0.0),
        "outputs.svg_bytes": per_round("outputs.svg_bytes"),
        "outputs.render_contour_svg_ms": mean("outputs.render_contour_svg", 1e6),
        "outputs.write_json_ms": mean("outputs.write_json", 1e6),
        "cli.main_ms": cli_main_ms,
        "cli.run_command_ms": (totals["cli.run_command"]["incl_ns"] / rounds / 1e6
                               if "cli.run_command" in totals else 0.0),
        "proc.startup_ms": sum(startup_ms.values()),
        "trace.overhead_share": (sum(traced_ms.values()) / sum(untraced_ms.values()) - 1.0),
    }
    self_ms = {name: t["self_ns"] / rounds / 1e6 for name, t in totals.items()}
    failed_ops = [op for op in ops if op["problems"]]
    details = {
        "attempted": len(ops) + sum(len(v) for v in replay["traced_ns"].values()),
        "failed": len(failed_ops),
        "correct": not failed_ops and replay["rbs_brute_force"]["relative_error"] < 1e-3,
        "process_wall_ms": {k: tail(v) for k, v in walls.items()},
        "in_process_untraced_ms": untraced_ms,
        "in_process_traced_ms": traced_ms,
        "startup_ms": startup_ms,
        "self_ms_per_round": dict(sorted(self_ms.items(), key=lambda kv: -kv[1])),
        "unattributed_share": {k: median(v) for k, v in replay["unattributed"].items()},
        "calls": {name: t["calls"] / rounds for name, t in totals.items()},
        "kernel_calls": replay["kernels"]["calls"],
        "kernel_probe_points": replay.get("kernel_probe_points"),
        "kernel_ns_per_call": kernels,
        "rbs_brute_force_relative_error": replay["rbs_brute_force"]["relative_error"],
        "span_records": replay["span_records"],
        "import_ms": imports,
        "problems": [{"op": op["tag"], "problems": op["problems"]} for op in failed_ops][:20],
    }
    return values, details


# ---------------------------------------------------------------------------


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def run(argv: list[str]) -> dict:
    bench = load_benchmark()
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    if not (ROOT / "src" / "hcflink" / "cli.py").is_file():
        raise BenchError(f"no hcflink sources under {ROOT / 'src'}; run from a checkout")
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "large.json").write_text(json.dumps(gen.LARGE_CONFIG))
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    notes = machine_notes(args.seed)

    if args.trace:
        values, details = traced(runner, args.workload, args.seed)
        wanted = bench["per_layer"]
    else:
        config_text = json.dumps(gen.LARGE_CONFIG) if args.workload == "sweep-large" else ""
        probes = SetupProbes(runner, config_text)
        with HostClock() as clock:
            values, details = untraced(runner, args.workload, args.seed, args.seconds,
                                       probes, clock)
        setup_walls = [c.wall_ns / 1e9 for c in probes.children]
        setup_norm = [clock.normalised_ns(c.start_ns, c.wall_ns) / 1e9 for c in probes.children]
        values["setup_s"] = median(setup_norm)
        details["samples"]["setup_s"] = setup_norm
        details["samples"]["setup_wall_s"] = setup_walls
        details["host_clock"] = {"samples": len(clock.samples),
                                 "loop_ms": tail([ns / 1e6 for _, ns in clock.samples])}
        wanted = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    notes["loadavg_end"] = _read("/proc/loadavg")
    notes["host_loop_ms_end"] = host_loop_ms()
    spread = {name: iqr_share(samples) for name, samples in details.get("samples", {}).items()}
    attempted, failed = details.pop("attempted"), details.pop("failed")
    summary = {
        "correct": details.pop("correct"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": notes,
        "failed_share": failed / attempted,
        "spread_within_run": spread,
        **summary,
        "details": details,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True))
    for name in units:
        print(f"{args.workload} {name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload} failed_share = {failed}/{attempted} = {failed / attempted:.6g}; "
          f"results in {path.relative_to(ROOT)}")
    return summary


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    # SIGTERM unwinds like an exception, so the running child is killed and
    # waited for and the host clock thread is joined.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        summary = run(argv)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
