"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the workload seed,
with the standard library only, so the same seed always yields the same
inputs and the harness never imports the program to build them.
"""

from __future__ import annotations

import json
import math
import random
from typing import Iterator

CLI_ARGS = {
    "budget": ["budget", "--include-rbs", "true"],
    "contour": ["contour"],
    "span-curve": ["span-curve"],
    "rbs": ["rbs"],
    "powerfeed": ["powerfeed"],
    "latency": ["latency"],
}
CLI_KINDS = tuple(CLI_ARGS)

LARGE_CONFIG = {"sweep": {"loss_steps": 1001, "power_steps": 1001}}
ROWS_CHECKED_PER_CSV = 4

# solve-map: span_length_curve over 100-330 km with 101 samples per curve.
SPAN_MIN_KM = 100.0
SPAN_MAX_KM = 330.0
SPAN_POINTS = 101
CURVES_PER_PASS = 40
# Solid-core-like nonlinearity, where throughput falls again at high power.
HIGH_GAMMA = 0.05
# Position within each block of eight plans: even positions use the calibrated
# Shannon-gap transceiver, odd ones the generated table; positions 3 and 6 use
# HIGH_GAMMA, so a fixed 1 in 4 plans does, split evenly between transceivers.
HIGH_GAMMA_SLOTS = (3, 6)

SYMBOL_RATE_HZ = 73.5e9


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent generator per purpose, so adding a draw in one stream does
    not shift the inputs of another."""
    return random.Random(f"{seed}:{stream}")


def cli_order(seed: int) -> Iterator[list[str]]:
    """Interleaving of the six subcommands: one seeded permutation per round."""
    rng = rng_for(seed, "cli-order")
    while True:
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        yield kinds


def large_levels(seed: int) -> list[float]:
    """Three distinct contour levels in 900-1100 Tb/s, rounded to 0.1 Tb/s."""
    rng = rng_for(seed, "levels")
    levels: set[float] = set()
    while len(levels) < 3:
        levels.add(round(rng.uniform(900.0, 1100.0), 1))
    return sorted(levels)


def csv_row_picks(seed: int, tag: str, n_rows: int) -> list[int]:
    """Data-row indices of a grid CSV to recompute; tag separates outputs."""
    rng = rng_for(seed, f"rows:{tag}")
    return sorted(rng.sample(range(n_rows), ROWS_CHECKED_PER_CSV))


def transceiver_table(seed: int) -> list[tuple[float, float]]:
    """Monotone (gsnr_db, net_rate_gbps) staircase near the calibrated model.

    A Shannon-gap curve with a seeded gap, floored to 12.5 Gb/s steps the way
    a transceiver offers discrete rates; repeated rates give flat segments.
    """
    rng = rng_for(seed, "table")
    gap_db = rng.uniform(3.5, 5.5)
    rows = []
    for k in range(45):
        gsnr_db = 2.0 + 0.5 * k
        rate = 2.0 * SYMBOL_RATE_HZ * math.log2(1.0 + 10.0 ** ((gsnr_db - gap_db) / 10.0)) / 1e9
        rows.append((gsnr_db, 12.5 * math.floor(rate / 12.5)))
    return rows


def _stratified(rng: random.Random, low: float, high: float, n: int) -> list[float]:
    """n uniform draws from [low, high], one in each of n equal strata, in
    random order: each draw is still U[low, high], but every seed covers the
    range evenly, so the work of a pass varies little between seeds."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [low + (high - low) * (k + rng.random()) / n for k in strata]


def solve_plans(seed: int, calibrated_gap_db: float, table_path: str) -> list[dict]:
    """The seeded family of span-curve plans run by one solve-map pass.

    Each plan carries the config text the program parses, the loss and the
    target handed to span_length_curve. The Shannon-gap plans pin the gap to
    the value calibrated on the default config, so every plan uses the same
    transceiver device whatever its fiber. Losses and targets are stratified
    within each (transceiver, gamma) class: the share of unreachable targets,
    and so the work of a pass, differs most between classes.
    """
    rng = rng_for(seed, "plans")
    classes = [(k % 8 % 2 == 0, k % 8 in HIGH_GAMMA_SLOTS) for k in range(CURVES_PER_PASS)]
    draws = {}
    for cls in sorted(set(classes)):
        n = classes.count(cls)
        draws[cls] = list(zip(_stratified(rng, 0.045, 0.085, n),
                              _stratified(rng, 800.0, 1150.0, n)))
    plans = []
    for cls in classes:
        shannon, high_gamma = cls
        loss, target = draws[cls].pop()
        doc: dict = {"fiber": {"loss_db_per_km": loss}}
        if high_gamma:
            doc["fiber"]["gamma_per_w_km"] = HIGH_GAMMA
        if shannon:
            doc["transceiver"] = {"gap_db": calibrated_gap_db}
        else:
            doc["transceiver"] = {"variant": "tabulated", "table_path": table_path}
        plans.append(
            {
                "config_text": json.dumps(doc, sort_keys=True),
                "loss_db_per_km": loss,
                "target_tbps": target,
                "high_gamma": high_gamma,
                "transceiver": "shannon_gap" if shannon else "tabulated",
            }
        )
    return plans
