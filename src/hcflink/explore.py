"""Parametric studies over the (fiber loss, EDFA power) design plane.

Full rectangular sweeps with contour extraction, required-power solves at
fixed throughput targets, span-length trade-off curves, and sensitivity
deltas between plans.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .system import (
    DEFAULT_CONSTANTS,
    InfeasibleError,
    LinkPlan,
    OperatingPoint,
    TransceiverModel,
    cable_throughput,  # noqa: F401  (perfbench's traced run patches explore.cable_throughput)
    link_gsnr,
    span_count,
)
from .units import PhysicalConstants


# Largest lattice a sweep may evaluate; 4e6 cells hold 64 MB of float64 fields.
MAX_GRID_POINTS = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice of operating points (the config's sweep section)."""

    loss_min: float
    loss_max: float
    loss_steps: int
    power_min: float
    power_max: float
    power_steps: int

    def __post_init__(self) -> None:
        for name in ("loss_min", "loss_max", "power_min", "power_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"sweep.{name} must be finite, got {getattr(self, name)}")
        if self.loss_steps * self.power_steps > MAX_GRID_POINTS:
            raise ValueError(
                f"sweep.loss_steps * sweep.power_steps = {self.loss_steps * self.power_steps} "
                f"exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        if not self.loss_min > 0:
            raise ValueError(f"sweep.loss_min must be > 0, got {self.loss_min}")
        if not self.loss_min < self.loss_max:
            raise ValueError(
                f"sweep.loss_min={self.loss_min} must be < sweep.loss_max={self.loss_max}"
            )
        if not self.power_min < self.power_max:
            raise ValueError(
                f"sweep.power_min={self.power_min} must be < sweep.power_max={self.power_max}"
            )
        if self.loss_steps < 2 or self.power_steps < 2:
            raise ValueError("sweep.loss_steps and sweep.power_steps must be >= 2")


@dataclass(frozen=True)
class SweepGrid:
    """Evaluated lattice: axes plus GSNR and throughput per cell."""

    loss_db_per_km: np.ndarray
    edfa_power_dbm: np.ndarray
    gsnr_db: np.ndarray
    throughput_tbps: np.ndarray

    def __post_init__(self) -> None:
        shape = (len(self.loss_db_per_km), len(self.edfa_power_dbm))
        if self.gsnr_db.shape != shape or self.throughput_tbps.shape != shape:
            raise ValueError(f"field shapes must be {shape}")
        if not (np.all(np.isfinite(self.gsnr_db)) and np.all(np.isfinite(self.throughput_tbps))):
            raise ValueError("grid contains non-finite cells")


@dataclass(frozen=True)
class SolverSettings:
    """Admissible EDFA power window of the required-power solve, and the accuracy
    (dB) its returned power guarantees; the closed form holds it above ~1e-12 dB."""

    power_bracket_dbm: tuple[float, float] = (5.0, 30.0)
    tolerance_db: float = 0.01

    def __post_init__(self) -> None:
        low, high = self.power_bracket_dbm
        if not low < high:
            raise ValueError(f"power bracket must satisfy low < high, got {low}..{high}")
        if not self.tolerance_db > 0:
            raise ValueError(f"tolerance_db must be > 0, got {self.tolerance_db}")


DEFAULT_SOLVER = SolverSettings()


@dataclass(frozen=True)
class SpanCurvePoint:
    """One sample of the span trade-off curve.

    span_km is snapped to an integer partition of the link; required_dbm is
    NaN when the solve is infeasible (feasible flags it).
    """

    span_km: float
    required_dbm: float
    feasible: bool


def _gsnr_coefficients(plan: LinkPlan, loss_db_per_km: float, include_rbs: bool,
                       const: PhysicalConstants) -> tuple[float, float, float]:
    """(A, B, C) of 1/GSNR(p) = A/p + B*p^2 + C at one loss, p the EDFA power in mW:
    the ASE, NLI and IMI + RBS terms of one link_gsnr call at 0 dBm. The form is
    exact because the incoherent GN model's NLI PSD scales as P^3."""
    ref = link_gsnr(plan, OperatingPoint(loss_db_per_km, 0.0), include_rbs, const)
    return ref.inv_snr_ase, ref.inv_snr_nli, ref.inv_snr_imi + ref.inv_snr_rbs


def sweep_grid(
    plan: LinkPlan,
    trx: TransceiverModel,
    grid: GridSpec,
    include_rbs: bool = False,
    const: PhysicalConstants = DEFAULT_CONSTANTS,
) -> SweepGrid:
    """Evaluate GSNR and throughput at every lattice point.

    Each loss row follows as arrays from its _gsnr_coefficients, and the
    whole grid goes through one array call of the transceiver rate.

    Cells match per-point link_gsnr + channel_net_rate to within 1e-12 dB of
    GSNR and 1e-12 relative throughput, not bit for bit: numpy's vectorised
    log10 and power may differ from the C library's by one ulp.
    """
    losses = np.linspace(grid.loss_min, grid.loss_max, grid.loss_steps)
    powers = np.linspace(grid.power_min, grid.power_max, grid.power_steps)
    gsnr = np.empty((grid.loss_steps, grid.power_steps))
    # Powers beyond float range overflow to non-finite cells, which SweepGrid
    # rejects; numpy's warnings about them would only be stray stderr text.
    with np.errstate(all="ignore"):
        power_mw = 10.0 ** (powers / 10.0)
        inv_power_mw = 1.0 / power_mw
        power_mw_sq = power_mw * power_mw
        for i, loss in enumerate(losses.tolist()):
            a, b, c = _gsnr_coefficients(plan, loss, include_rbs, const)
            inv = a * inv_power_mw + b * power_mw_sq
            inv += c
            gsnr[i] = 10.0 * np.log10(1.0 / inv)
        throughput = trx.net_rate_gbps(gsnr, plan.symbol_rate_hz)
    throughput *= plan.n_fibers_per_direction * plan.n_channels / 1e3
    return SweepGrid(losses, powers, gsnr, throughput)


def _edge_crossing(pa, pb, va: float, vb: float, level: float) -> tuple[float, float]:
    t = (level - va) / (vb - va)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def extract_contour(
    grid: SweepGrid,
    field: str,
    level: float,
) -> list[list[tuple[float, float]]]:
    """Marching-squares polylines of `field` ("gsnr" or "throughput") at `level`.

    Points are (loss_db_per_km, edfa_power_dbm) with linear interpolation along
    cell edges; saddle cells are disambiguated by the cell-center average.
    Returns an empty list when the level is never crossed.
    """
    fields = {"gsnr": grid.gsnr_db, "throughput": grid.throughput_tbps}
    if field not in fields:
        raise ValueError(f"field must be one of {sorted(fields)}, got {field!r}")
    values = fields[field]
    if not np.all(np.isfinite(values)):
        raise ValueError("grid contains non-finite cells")
    xs = grid.loss_db_per_km
    ys = grid.edfa_power_dbm
    cases = _cell_cases(values, level)

    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    crossed = (cases != 0) & (cases != 15)
    for i, j in zip(*(axis.tolist() for axis in np.nonzero(crossed))):
        case = int(cases[i, j])
        v00 = float(values[i, j])
        v10 = float(values[i + 1, j])
        v11 = float(values[i + 1, j + 1])
        v01 = float(values[i, j + 1])
        p00, p10 = (float(xs[i]), float(ys[j])), (float(xs[i + 1]), float(ys[j]))
        p01, p11 = (float(xs[i]), float(ys[j + 1])), (float(xs[i + 1]), float(ys[j + 1]))
        edges = {
            "bottom": lambda: _edge_crossing(p00, p10, v00, v10, level),
            "right": lambda: _edge_crossing(p10, p11, v10, v11, level),
            "top": lambda: _edge_crossing(p01, p11, v01, v11, level),
            "left": lambda: _edge_crossing(p00, p01, v00, v01, level),
        }
        pairs = _SEGMENT_TABLE.get(case)
        if pairs is None:
            # Saddle: connect around the corners that match the center.
            center_inside = (v00 + v10 + v01 + v11) / 4.0 >= level
            if case == 5:
                pairs = (
                    (("bottom", "right"), ("top", "left"))
                    if center_inside
                    else (("left", "bottom"), ("right", "top"))
                )
            else:
                pairs = (
                    (("left", "bottom"), ("right", "top"))
                    if center_inside
                    else (("bottom", "right"), ("top", "left"))
                )
        for edge_a, edge_b in pairs:
            a, b = edges[edge_a](), edges[edge_b]()
            if a != b:
                segments.append((a, b))
    return _chain_segments(segments)


def _cell_cases(values: np.ndarray, level: float) -> np.ndarray:
    """Marching-squares case of every cell: bit k is set when corner k
    (00, 10, 11, 01 in that order) is at or above the level."""
    above = (values >= level).astype(np.uint8)
    cases = above[:-1, :-1].copy()
    cases |= above[1:, :-1] << 1
    cases |= above[1:, 1:] << 2
    cases |= above[:-1, 1:] << 3
    return cases


_SEGMENT_TABLE: dict[int, tuple[tuple[str, str], ...]] = {
    1: (("left", "bottom"),),
    2: (("bottom", "right"),),
    3: (("left", "right"),),
    4: (("right", "top"),),
    6: (("bottom", "top"),),
    7: (("left", "top"),),
    8: (("top", "left"),),
    9: (("bottom", "top"),),
    11: (("right", "top"),),
    12: (("left", "right"),),
    13: (("bottom", "right"),),
    14: (("left", "bottom"),),
}


def _chain_segments(
    segments: list[tuple[tuple[float, float], tuple[float, float]]],
) -> list[list[tuple[float, float]]]:
    """Join segments sharing endpoints into polylines (exact float matching:
    shared cell edges interpolate from identical values)."""
    by_point: dict[tuple[float, float], list[int]] = defaultdict(list)
    for idx, (a, b) in enumerate(segments):
        by_point[a].append(idx)
        by_point[b].append(idx)
    used = [False] * len(segments)
    polylines: list[list[tuple[float, float]]] = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        line = [a, b]
        for grow_at_end in (True, False):
            while True:
                tip = line[-1] if grow_at_end else line[0]
                next_idx = next((k for k in by_point[tip] if not used[k]), None)
                if next_idx is None:
                    break
                used[next_idx] = True
                pa, pb = segments[next_idx]
                nxt = pb if pa == tip else pa
                if grow_at_end:
                    line.append(nxt)
                else:
                    line.insert(0, nxt)
        polylines.append(line)
    return polylines


def required_edfa_power(
    plan: LinkPlan,
    trx: TransceiverModel,
    loss_db_per_km: float,
    span_km: float,
    target_tbps: float,
    include_rbs: bool = False,
    settings: SolverSettings = DEFAULT_SOLVER,
    const: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Least EDFA output power (dBm) at which throughput reaches target_tbps.

    Closed form: with g* the least GSNR carrying the target, A/p + B*p^2 =
    D = 1/g* - C (see _gsnr_coefficients) becomes eps*x^3 - x + 1 = 0 for
    p = (A/D)*x, eps = B*A^2/D^3. It has a root iff eps <= 4/27, i.e. D >=
    1.5*A/P_opt with P_opt = (A/2B)^(1/3) the peak-GSNR power; the smaller
    root, x in [1, 1.5], is on the rising branch. A target is infeasible only
    above the throughput peak or outside the window settings.power_bracket_dbm.
    """
    working = replace(plan, span_length_km=span_km)
    what = f"target {target_tbps:g} Tb/s at {loss_db_per_km:g} dB/km, {span_km:g} km spans"
    n_carriers = working.n_fibers_per_direction * working.n_channels
    a, b, c = _gsnr_coefficients(working, loss_db_per_km, include_rbs, const)
    # numpy scalars carry the limits: no fibers ask an infinite rate, and a
    # GSNR that any power reaches gives D = inf and p = 0 mW.
    with np.errstate(all="ignore"):
        rate_gbps = np.divide(target_tbps * 1e3, n_carriers)
        gsnr_db = trx.required_gsnr_db(rate_gbps, working.symbol_rate_hz)
        d = np.power(10.0, -gsnr_db / 10.0) - c
        r = a / d  # the root without NLI
        eps = b * r * r * r / a
        if not (d > 0 and eps <= 4.0 / 27.0):
            p_opt_mw = np.cbrt(np.divide(a, 2.0 * b))
            peak_db = -10.0 * np.log10(1.5 * a / p_opt_mw + c)
            peak = n_carriers * float(trx.net_rate_gbps(peak_db, working.symbol_rate_hz)) / 1e3
            raise InfeasibleError(f"{what} is above the throughput peak {peak:.6g} Tb/s "
                                  f"(at {10.0 * np.log10(p_opt_mw):.4g} dBm)")
        # u = sqrt(eps) * (largest root), by the trigonometric formula; Vieta's
        # product then gives the smallest root without the cancellation the
        # direct trigonometric middle root suffers at small eps.
        s = np.sqrt(eps)
        u = 2.0 / np.sqrt(3.0) * np.cos(np.arccos(max(-1.0, -1.5 * np.sqrt(3.0) * s)) / 3.0)
        power_dbm = float(10.0 * np.log10(2.0 * r / (u * u + u * np.sqrt(u * u + 4.0 * s / u))))
    low, high = settings.power_bracket_dbm
    if not low <= power_dbm <= high:
        raise InfeasibleError(
            f"{what} needs {power_dbm:.6g} dBm, outside the window {low:g}..{high:g} dBm"
        )
    return power_dbm


def span_length_curve(
    plan: LinkPlan,
    trx: TransceiverModel,
    loss_db_per_km: float,
    span_min_km: float,
    span_max_km: float,
    n_points: int,
    target_tbps: float,
    include_rbs: bool = False,
    settings: SolverSettings = DEFAULT_SOLVER,
    const: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list[SpanCurvePoint]:
    """Required EDFA power across span lengths.

    Samples snap to integer partitions of the link, so consecutive samples
    landing on the same span count collapse to one point. Infeasible solves
    are kept as flagged gaps rather than aborting the curve.
    """
    if not span_min_km > 0:
        raise ValueError(f"span_min_km must be > 0, got {span_min_km}")
    if span_min_km > span_max_km:
        raise ValueError(f"span range is empty: {span_min_km}..{span_max_km}")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    points: list[SpanCurvePoint] = []
    seen: set[int] = set()
    for span in np.linspace(span_min_km, span_max_km, n_points):
        n = span_count(plan.total_length_km, float(span))
        if n < 1 or n in seen:
            continue
        seen.add(n)
        effective = plan.total_length_km / n
        try:
            power = required_edfa_power(
                plan, trx, loss_db_per_km, effective, target_tbps, include_rbs, settings, const
            )
            points.append(SpanCurvePoint(effective, power, True))
        except InfeasibleError:
            points.append(SpanCurvePoint(effective, math.nan, False))
    return points


def sensitivity_delta(
    plan: LinkPlan,
    trx: TransceiverModel,
    base: OperatingPoint,
    modified_plan: LinkPlan,
    target_tbps: float,
    include_rbs: bool = False,
    settings: SolverSettings = DEFAULT_SOLVER,
    const: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Extra EDFA power (dB) the modified plan needs for the same target.

    The baseline solve always runs without backscatter; include_rbs applies
    to the modified solve only, so switching backscatter on is itself a
    sensitivity that can be measured with identical plans.
    """
    base_dbm = required_edfa_power(
        plan, trx, base.loss_db_per_km, plan.span_length_km, target_tbps, False, settings, const
    )
    modified_dbm = required_edfa_power(
        modified_plan,
        trx,
        base.loss_db_per_km,
        modified_plan.span_length_km,
        target_tbps,
        include_rbs,
        settings,
        const,
    )
    return modified_dbm - base_dbm
