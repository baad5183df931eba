"""In-process side of the benchmark, run in a child interpreter.

Usage: python3 perfbench/worker.py <task> <spec.json> <result.json>

The harness starts this script with the checkout's src/ on PYTHONPATH and
reads the result file back. Tasks:

  solve-map    timed passes over the seeded span-curve family, then, if
               asked, the verdict checks (outside the timed region)
  verify-rows  recompute grid CSV rows through scalar link_gsnr
  replay       traced in-process replay of a workload, for per-layer metrics
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import hcflink
from hcflink import cli as hc_cli
from hcflink import config as hc_config
from hcflink import explore, impairments, outputs, system

from spans import Patches, Sampler, Tracer, reference_loop_ns, time_per_call_ns

# Reference loops timed right after each solve-map pass, in the same thread,
# to read how fast the host ran the pass.
REFERENCE_REPEATS = 5

# Power scan used to confirm an infeasible verdict: coarse grid over the
# solver bracket, then a golden-section refinement around the best sample.
# Throughput is unimodal in power (ASE falls, NLI rises), so this finds the peak.
SCAN_STEP_DB = 0.25
GOLDEN_ITERATIONS = 40


# --------------------------------------------------------------------------
# Verification (shared by the tasks and the harness self-tests)


def check_solve(throughput, power_dbm, feasible: bool, target: float,
                settings: explore.SolverSettings) -> dict | None:
    """Return {"kind", "why"} when a solve verdict is wrong, None when it holds.

    throughput(power_dbm) -> Tb/s is the program's cable_throughput for the
    plan. A feasible verdict must cross the target within the solver
    tolerance of the returned power. An infeasible verdict must be confirmed
    by a power scan over the solver bracket finding no power that reaches it.
    """
    if feasible:
        tol = settings.tolerance_db
        t_mid = throughput(power_dbm)
        t_lo, t_hi = throughput(power_dbm - tol), throughput(power_dbm + tol)
        slack = max(abs(t_lo - t_mid), abs(t_hi - t_mid)) + 1e-9 * target
        if abs(t_mid - target) > slack:
            return {"kind": "wrong_power",
                    "why": f"feasible power {power_dbm:.6g} dBm gives {t_mid:.6g} Tb/s, "
                           f"target {target:.6g} +/- {slack:.3g}"}
        return None
    peak_dbm, peak = scan_peak(throughput, *settings.power_bracket_dbm)
    if peak >= target:
        return {"kind": "false_infeasible",
                "why": f"infeasible verdict, but {peak:.6g} Tb/s >= target {target:.6g} "
                       f"at {peak_dbm:.4f} dBm"}
    return None


def scan_peak(throughput, lo: float, hi: float) -> tuple[float, float]:
    n = max(2, int(round((hi - lo) / SCAN_STEP_DB)) + 1)
    grid = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    values = [throughput(p) for p in grid]
    best = max(range(n), key=values.__getitem__)
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, n - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = throughput(c), throughput(d)
    for _ in range(GOLDEN_ITERATIONS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = throughput(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = throughput(d)
    candidates = [(values[best], grid[best]), (fc, c), (fd, d)]
    peak, peak_dbm = max(candidates)
    return peak_dbm, peak


def check_grid_rows(config_text: str, rows: list[dict]) -> list[dict]:
    """Recompute grid CSV rows through scalar link_gsnr; return the mismatches
    as {"row": position in rows, "why": ...}.

    Each row is {"index": k, "values": [loss, power, gsnr_db, throughput]}
    with k the row-major data-row index. The CSV holds 12 significant digits.
    The contour sweep runs without RBS, so the recomputation does too.
    """
    import numpy as np

    cfg = hc_config.parse_config(config_text)
    plan = cfg.plan()
    trx, _ = hc_config.resolve_transceiver(cfg, plan)
    grid = cfg.grid()
    losses = np.linspace(grid.loss_min, grid.loss_max, grid.loss_steps)
    powers = np.linspace(grid.power_min, grid.power_max, grid.power_steps)
    scale = plan.n_fibers_per_direction * plan.n_channels / 1e3
    problems = []
    for position, row in enumerate(rows):
        i, j = divmod(row["index"], grid.power_steps)
        loss, power = float(losses[i]), float(powers[j])
        budget = system.link_gsnr(plan, system.OperatingPoint(loss, power))
        expected = (loss, power, budget.gsnr_db,
                    scale * system.channel_net_rate(trx, budget.gsnr_db, plan.symbol_rate_hz))
        for name, got, want in zip(("loss", "power", "gsnr_db", "throughput"),
                                   row["values"], expected):
            if not math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12):
                problems.append({"row": position, "why": f"row {row['index']} {name}: "
                                 f"csv {got!r}, recomputed {want!r}"})
    return problems


# --------------------------------------------------------------------------
# solve-map


def _plan(plan_spec: dict):
    cfg = hc_config.parse_config(plan_spec["config_text"])
    plan = cfg.plan()
    trx, _ = hc_config.resolve_transceiver(cfg, plan)
    return plan, trx


def _run_pass(plans: list[dict]) -> list[list[tuple]]:
    """One pass of the family: a new plan and one span curve per spec."""
    results = []
    for spec in plans:
        plan, trx = _plan(spec)
        points = explore.span_length_curve(
            plan, trx, spec["loss_db_per_km"], spec["span_min_km"], spec["span_max_km"],
            spec["span_points"], spec["target_tbps"],
        )
        results.append([(p.span_km, p.required_dbm if p.feasible else None, p.feasible)
                        for p in points])
    return results


def _verify_pass(plans: list[dict], results: list[list[tuple]]) -> dict:
    settings = explore.DEFAULT_SOLVER
    failures = []
    verdicts = {"feasible": 0, "infeasible": 0}
    false_by_class: dict[str, int] = {}
    for index, (spec, points) in enumerate(zip(plans, results)):
        plan, trx = _plan(spec)
        for span_km, power, feasible in points:
            verdicts["feasible" if feasible else "infeasible"] += 1
            working = replace(plan, span_length_km=span_km)

            def throughput(p_dbm, working=working):
                return system.cable_throughput(
                    working, trx, system.OperatingPoint(spec["loss_db_per_km"], p_dbm))

            failure = check_solve(throughput, power, feasible, spec["target_tbps"], settings)
            if failure is not None:
                label = f"{spec['transceiver']}/{'high' if spec['high_gamma'] else 'default'}_gamma"
                false_by_class[label] = false_by_class.get(label, 0) + 1
                failures.append({"plan": index, "span_km": span_km, **failure})
    return {"verdicts": verdicts, "failures": failures, "false_by_class": false_by_class}


def task_solve_map(spec: dict) -> dict:
    """Passes until spec["seconds"] pass. The digest of the first pass's
    verdicts lets the harness compare worker processes; the verdicts are
    verified only when spec["verify"] is set."""
    plans = spec["plans"]
    deadline_ns = spec["seconds"] * 1e9
    pass_ns, reference_ns = [], []
    first = None
    nondeterministic = 0
    start = time.perf_counter_ns()
    while True:
        t0 = time.perf_counter_ns()
        results = _run_pass(plans)
        t1 = time.perf_counter_ns()
        pass_ns.append(t1 - t0)
        reference_ns.append(sorted(reference_loop_ns()
                                   for _ in range(REFERENCE_REPEATS))[REFERENCE_REPEATS // 2])
        if first is None:
            first = results
        elif results != first:
            nondeterministic += 1
        if t1 - start >= deadline_ns:
            break
    result = {
        "pass_ns": pass_ns,
        "reference_ns": reference_ns,
        "solves_per_pass": sum(len(points) for points in first),
        "nondeterministic_passes": nondeterministic,
        "digest": hashlib.sha256(json.dumps(first).encode()).hexdigest(),
    }
    if spec["verify"]:
        result.update(_verify_pass(plans, first))
    return result


# --------------------------------------------------------------------------
# verify-rows


def task_verify_rows(spec: dict) -> dict:
    return {"problems": check_grid_rows(spec["config_text"], spec["rows"])}


# --------------------------------------------------------------------------
# replay (traced run)


def _cli_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hc_cli.main(argv)
    return code, buf.getvalue()


def _install_stage_spans(tracer: Tracer, patches: Patches) -> None:
    """Spans at each public-function boundary a CLI run or a library call
    crosses: config, calibration, sweep, contour, solves and writers."""

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    def sweep(fn):
        traced = tracer.wrap("explore.sweep_grid", fn)

        def call(*args, **kwargs):
            grid = traced(*args, **kwargs)
            tracer.count("explore.points", grid.gsnr_db.size)
            tracer.count("explore.grid_bytes_computed", sum(
                a.nbytes for a in (grid.loss_db_per_km, grid.edfa_power_dbm,
                                   grid.gsnr_db, grid.throughput_tbps)))
            return grid

        return call

    def contour(fn):
        traced = tracer.wrap("explore.extract_contour", fn)

        def call(*args, **kwargs):
            lines = traced(*args, **kwargs)
            tracer.count("explore.contour_segments", sum(len(line) - 1 for line in lines))
            return lines

        return call

    def csv_writer(fn):
        traced = tracer.wrap("outputs.write_grid_csv", fn)

        def call(grid, config_values, fh):
            before = fh.tell()
            traced(grid, config_values, fh)
            tracer.count("outputs.csv_bytes", fh.tell() - before)

        return call

    def svg_writer(fn):
        traced = tracer.wrap("outputs.render_contour_svg", fn)

        def call(*args, **kwargs):
            text = traced(*args, **kwargs)
            tracer.count("outputs.svg_bytes", len(text.encode()))
            return text

        return call

    patches.replace(hc_cli, "parse_config", span("config.parse_config"))
    patches.replace(hc_config, "parse_config", span("config.parse_config"))
    patches.replace(hc_cli, "run_command", span("cli.run_command"))
    patches.replace(hc_config.RunConfig, "plan", span("config.RunConfig.plan"))
    patches.replace(hc_cli, "resolve_transceiver", span("config.resolve_transceiver"))
    patches.replace(hc_config, "resolve_transceiver", span("config.resolve_transceiver"))
    patches.replace(hc_config, "calibrate_trx_gap", span("system.calibrate_trx_gap"))
    patches.replace(hc_config, "load_transceiver_table", span("system.load_transceiver_table"))
    # Within system only calibrate_trx_gap calls cable_throughput: link evals.
    patches.replace(system, "cable_throughput", span("system.cable_throughput"))
    patches.replace(explore, "sweep_grid", sweep)
    patches.replace(explore, "extract_contour", contour)
    patches.replace(explore, "span_length_curve", span("explore.span_length_curve"))
    patches.replace(explore, "required_edfa_power", span("explore.required_edfa_power"))
    patches.replace(outputs, "write_grid_csv", csv_writer)
    patches.replace(outputs, "write_span_curve_csv", span("outputs.write_span_curve_csv"))
    patches.replace(outputs, "render_contour_svg", svg_writer)
    patches.replace(outputs, "write_json", span("outputs.write_json"))


# Kernel call sites: (module, attribute, layer name). Every namespace that
# imported the function by name is patched so all calls are counted.
KERNEL_SITES = (
    (impairments, "db_to_linear", "units.db_to_linear"),
    (system, "db_to_linear", "units.db_to_linear"),
    (system, "dbm_to_watt", "units.dbm_to_watt"),
    (impairments, "sinhc", "units.sinhc"),
    (system, "ase_inv_snr", "impairments.ase_inv_snr"),
    (system, "gn_nli_psd_per_span", "impairments.gn_nli_psd_per_span"),
    (system, "rbs_inv_snr", "impairments.rbs_inv_snr"),
    (impairments, "rbs_inv_snr", "impairments.rbs_inv_snr"),
    (system, "combine_gsnr", "impairments.combine_gsnr"),
    (explore, "link_gsnr", "system.link_gsnr"),
    (system, "link_gsnr", "system.link_gsnr"),
    (explore, "cable_throughput", "system.cable_throughput"),
    (system, "cable_throughput", "system.cable_throughput"),
    (explore, "required_edfa_power", "explore.required_edfa_power"),
)


def _kernel_probe(seed: int, body) -> dict:
    """Run body() with counting wrappers on every kernel call site, then time
    the unwrapped kernels on a sample of the arguments they received."""
    sampler = Sampler(seed)
    patches = Patches()
    for module, attr, name in KERNEL_SITES:
        patches.replace(module, attr, lambda fn, name=name: sampler.wrap(name, fn))
    try:
        body()
    finally:
        patches.restore()
    per_call_ns = {name: time_per_call_ns(sampler.functions[name], sampler.samples[name])
                   for name in sampler.functions if sampler.calls[name]}
    return {"calls": dict(sampler.calls), "per_call_ns": per_call_ns}


def _rbs_brute_force_probe(plan: system.LinkPlan) -> dict:
    """The quadrature cross-check of the RBS closed form, on the workload's plan."""
    launch_w = system.per_channel_launch(20.3, plan.n_channels, plan.amp.post_output_loss_db)
    span = plan.effective_span_km
    args = (launch_w, plan.fiber.backscatter_db_per_km, plan.fiber.loss_db_per_km, span,
            plan.n_spans, 0.05)
    brute = impairments.rbs_brute_force(*args)
    closed = impairments.rbs_power(launch_w, plan.fiber.backscatter_db_per_km,
                                   plan.total_length_km, plan.fiber.loss_db_per_km * span)
    return {
        "per_call_ns": time_per_call_ns(impairments.rbs_brute_force, [(args, {})]),
        "relative_error": abs(brute - closed) / closed,
    }


def _cli_call(argv: list[str]):
    def call():
        code, text = _cli_main(argv)
        if code != 0:
            raise RuntimeError(f"in-process hcflink {' '.join(argv)} exited {code}")
        return text

    return call


def _replay(ops: list[tuple[str, object]], rounds: int, root_name: str) -> dict:
    """Run each op once untraced and once traced per round, back to back, so
    both copies see the same machine state; their difference is the tracing
    overhead. The root span's own self time is the part of the op that no
    stage span covers; its share of the op is reported as unattributed. The
    last untraced result of each op is kept for the output checks."""
    tracer = Tracer()
    printed = {}
    untraced = {kind: [] for kind, _ in ops}
    traced = {kind: [] for kind, _ in ops}
    unattributed = {kind: [] for kind, _ in ops}

    def run_untraced(kind, call, r):
        start = time.perf_counter_ns()
        printed[kind] = call()
        untraced[kind].append(time.perf_counter_ns() - start)

    def run_traced(kind, call, r):
        patches = Patches()
        _install_stage_spans(tracer, patches)
        tracer.op = f"{kind}#{r}"
        try:
            with tracer.span(root_name) as root:
                call()
        finally:
            patches.restore()
        traced[kind].append(root.duration_ns)
        # The root closes last, so its record is the newest.
        unattributed[kind].append(tracer.records[-1]["self_ns"] / root.duration_ns)

    for r in range(rounds):
        # Alternate which copy goes first, so neither always inherits the heap
        # and caches the other left behind.
        steps = (run_untraced, run_traced) if r % 2 == 0 else (run_traced, run_untraced)
        for kind, call in ops:
            for step in steps:
                step(kind, call, r)
    return {"untraced_ns": untraced, "traced_ns": traced, "unattributed": unattributed,
            "rounds": rounds, "tracer": tracer, "outputs": printed}


def task_replay(spec: dict) -> dict:
    workload = spec["workload"]
    if workload == "solve-map":
        plans = spec["plans"]
        ops = [("pass", lambda: _run_pass(plans))]
        replay = _replay(ops, spec["rounds"], "solve_map.pass")
        del replay["outputs"]  # the untraced run verifies the verdicts
    else:
        ops = [(op["kind"], _cli_call(op["argv"])) for op in spec["ops"]]
        replay = _replay(ops, spec["rounds"], "cli.main")
        # What each command printed goes to a file the harness checks.
        for kind, text in replay["outputs"].items():
            path = Path(f"{spec['outputs_prefix']}{kind}.out")
            path.write_text(text)
            replay["outputs"][kind] = str(path)

    probe = [call for _, call in ops]
    if workload == "sweep-large":
        # The per-point call pattern does not depend on grid size, so kernels
        # are sampled on a 51 x 51 grid over the same ranges instead of 10^6
        # wrapped points.
        cfg = hc_config.parse_config(spec["config_text"])
        plan = cfg.plan()
        trx, _ = hc_config.resolve_transceiver(cfg, plan)
        small = replace(cfg.grid(), loss_steps=51, power_steps=51)
        probe = [lambda: explore.sweep_grid(plan, trx, small)]
        replay["kernel_probe_points"] = small.loss_steps * small.power_steps
    replay["kernels"] = _kernel_probe(spec["seed"], lambda: [call() for call in probe])
    replay["rbs_brute_force"] = _rbs_brute_force_probe(
        hc_config.parse_config(spec["config_text"]).plan())
    tracer: Tracer = replay.pop("tracer")
    replay["totals"] = {name: {"calls": t[0], "incl_ns": t[1], "self_ns": t[2]}
                        for name, t in tracer.totals.items()}
    replay["counts"] = dict(tracer.counts)
    Path(spec["spans_path"]).write_text(json.dumps(tracer.records))
    replay["span_records"] = len(tracer.records)
    return replay


TASKS = {"solve-map": task_solve_map, "verify-rows": task_verify_rows, "replay": task_replay}


def main(argv: list[str]) -> int:
    task, spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = TASKS[task](spec)
    result["hcflink_file"] = hcflink.__file__
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
