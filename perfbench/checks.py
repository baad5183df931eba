"""Output checks on what the CLI printed, run outside the timed region.

Each check returns a list of problems (empty when the output is right).
Values pinned here come from the acceptance gate and the default config.
Checks that need the program itself (recomputing grid rows, confirming
solve verdicts) live in worker.py.
"""

from __future__ import annotations

import io
import json
import math
import re

# Default config: 6600 km of 200 km spans, GSNR and throughput with RBS.
BUDGET_GSNR_DB = 15.951
BUDGET_THROUGHPUT_TBPS = 973.80
# Acceptance criterion 1: GSNR_RBS at 0.05 and 0.07 dB/km, +/- 0.02 dB.
RBS_GSNR_DB = {0.05: 28.48, 0.07: 25.90}
# 32 repeaters at 180 W plus 1 A^2 * 1 ohm/km * 6600 km.
POWERFEED_TOTAL_W = 6600.0 + 32 * 180.0
# 6600 km at group index 1.0003.
HOLLOW_CORE_MS = 6600.0 * 1.0003 / 299792.458 * 1e3

GRID_HEADER = "loss_db_per_km,edfa_power_dbm,gsnr_db,throughput_tbps"
SPAN_HEADER = "span_km,required_edfa_dbm,feasible"


def _json(text: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_budget(text: str) -> list[str]:
    doc, problems = _json(text)
    if doc is None:
        return problems
    gsnr = doc["budget"]["gsnr_db"]
    tput = doc["cable_throughput_tbps"]
    if abs(gsnr - BUDGET_GSNR_DB) > 5e-4:
        problems.append(f"budget GSNR {gsnr:.6f} dB, want {BUDGET_GSNR_DB}")
    if abs(tput - BUDGET_THROUGHPUT_TBPS) > 5e-3:
        problems.append(f"budget throughput {tput:.4f} Tb/s, want {BUDGET_THROUGHPUT_TBPS}")
    if doc["include_rbs"] is not True:
        problems.append("budget ran without RBS")
    return problems


def check_rbs(text: str) -> list[str]:
    doc, problems = _json(text)
    if doc is None:
        return problems
    rows = {round(r["loss_db_per_km"], 6): r["gsnr_rbs_db"] for r in doc["rows"]}
    for loss, want in RBS_GSNR_DB.items():
        got = rows.get(loss)
        if got is None or abs(got - want) > 0.02:
            problems.append(f"rbs GSNR at {loss} dB/km is {got}, want {want} +/- 0.02")
    return problems


def check_powerfeed(text: str) -> list[str]:
    doc, problems = _json(text)
    if doc is None:
        return problems
    if doc["n_repeaters"] != 32 or not math.isclose(doc["total_w"], POWERFEED_TOTAL_W):
        problems.append(f"powerfeed {doc['n_repeaters']} repeaters, {doc['total_w']} W; "
                        f"want 32 and {POWERFEED_TOTAL_W} W")
    return problems


def check_latency(text: str) -> list[str]:
    doc, problems = _json(text)
    if doc is None:
        return problems
    if not math.isclose(doc["hollow_core_ms"], HOLLOW_CORE_MS, rel_tol=1e-9):
        problems.append(f"latency {doc['hollow_core_ms']} ms, want {HOLLOW_CORE_MS}")
    if not doc["solid_core_ms"] > doc["hollow_core_ms"]:
        problems.append("solid-core latency not above hollow-core")
    return problems


def check_span_curve(text: str, max_rows: int) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != SPAN_HEADER:
        return ["span-curve CSV header missing"]
    rows = [ln.split(",") for ln in lines[1:]]
    problems = []
    if not 1 <= len(rows) <= max_rows:
        problems.append(f"span-curve has {len(rows)} rows, want 1..{max_rows}")
    for span, power, feasible in rows:
        if feasible not in ("true", "false") or float(span) <= 0:
            problems.append(f"span-curve row {span},{power},{feasible} malformed")
        elif feasible == "true" and not math.isfinite(float(power)):
            problems.append(f"span-curve feasible row at {span} km has power {power}")
    return problems


def grid_csv_rows(text: str, picks: list[int]) -> tuple[int, list[dict], list[str]]:
    """Count the data rows of a grid CSV and return the picked ones parsed."""
    wanted = set(picks)
    rows, problems = [], []
    n = -1
    for line in io.StringIO(text):
        if n < 0:
            if line.startswith("#"):
                continue
            if line.rstrip("\n") != GRID_HEADER:
                return 0, [], [f"grid CSV header is {line.strip()!r}"]
            n = 0
            continue
        if n in wanted:
            rows.append({"index": n, "values": [float(v) for v in line.split(",")]})
        n += 1
    if n < 0:
        problems.append("grid CSV has no header")
    return max(n, 0), rows, problems


_POLYLINE = re.compile(r'<polyline [^>]*stroke="([^"]+)"')


def check_svg(text: str, levels: list[float]) -> list[str]:
    """At least one polyline per throughput level, and every level labelled
    (the renderer labels a level only when it drew a polyline for it)."""
    problems = []
    if not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
        problems.append("output is not an SVG document")
    colours = set(_POLYLINE.findall(text))
    if len(colours) < len(levels):
        problems.append(f"{len(colours)} polyline colours for {len(levels)} levels")
    for level in levels:
        if f">{level:g} Tb/s</text>" not in text:
            problems.append(f"no contour drawn for level {level:g} Tb/s")
    return problems
