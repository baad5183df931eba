"""Parametric studies over the (fiber loss, EDFA power) design plane.

Full rectangular sweeps with contour extraction, required-power solves at
fixed throughput targets, span-length trade-off curves, and sensitivity
deltas between plans.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .impairments import MAX_ABS_POWER_DBM
from .system import (
    InfeasibleError,
    LinkPlan,
    OperatingPoint,
    TransceiverModel,
    gsnr_terms,
    span_count,
)
# perfbench's traced run patches these two names here.
from .system import cable_throughput, link_gsnr  # noqa: F401


# Largest lattice a sweep may evaluate; 4e6 cells hold 64 MB of float64 fields.
MAX_GRID_POINTS = 4_000_000

# Most samples a span trade-off curve may take.
MAX_SPAN_POINTS = 100_000


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice of operating points (the config's sweep section);
    the defaults are the 81 x 111 reference plane."""

    loss_min: float = 0.045
    loss_max: float = 0.085
    loss_steps: int = 81
    power_min: float = 14.0
    power_max: float = 25.0
    power_steps: int = 111

    def __post_init__(self) -> None:
        for name in ("loss_min", "loss_max", "power_min", "power_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"sweep.{name} must be finite, got {getattr(self, name)}")
        for name in ("power_min", "power_max"):
            if not abs(getattr(self, name)) <= MAX_ABS_POWER_DBM:
                raise ValueError(f"sweep.{name} must lie within +/-{MAX_ABS_POWER_DBM:g} dBm, "
                                 f"got {getattr(self, name)}")
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


def sweep_grid(plan: LinkPlan, trx: TransceiverModel, grid: GridSpec,
               include_rbs: bool = False) -> SweepGrid:
    """Evaluate GSNR and throughput at every lattice point.

    Each loss row follows as arrays from its gsnr_terms, 1/GSNR = ASE/p +
    NLI*p^2 + IMI + RBS at p mW, and the whole grid goes through one array
    call of the transceiver rate.

    Cells match per-point link_gsnr + channel_net_rate to within 1e-12 dB of
    GSNR and 1e-12 relative throughput, not bit for bit: numpy's vectorised
    log10 and power may differ from the C library's by one ulp.
    """
    losses = np.linspace(grid.loss_min, grid.loss_max, grid.loss_steps)
    powers = np.linspace(grid.power_min, grid.power_max, grid.power_steps)
    gsnr = np.empty((grid.loss_steps, grid.power_steps))
    n_spans = plan.n_spans
    # Extreme library inputs can overflow to non-finite cells, which SweepGrid
    # rejects; numpy's warnings about them would only be stray stderr text.
    with np.errstate(all="ignore"):
        power_mw = 10.0 ** (powers / 10.0)
        inv_power_mw = 1.0 / power_mw
        power_mw_sq = power_mw * power_mw
        for i, loss in enumerate(losses.tolist()):
            ase, nli, imi, rbs = gsnr_terms(plan, loss, n_spans, include_rbs)
            inv = ase * inv_power_mw + nli * power_mw_sq
            inv += imi + rbs
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
            pairs = _SADDLE_PAIRS[(case == 5) == center_inside]
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

# Saddle cases 5 and 10: [True] when case 5 has its center inside or case 10 not.
_SADDLE_PAIRS = ((("left", "bottom"), ("right", "top")), (("bottom", "right"), ("top", "left")))


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


def _solve_power_dbm(plan: LinkPlan, trx: TransceiverModel, loss_db_per_km: float,
                     span_counts: list[int], target_tbps: float,
                     include_rbs: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least EDFA output power (dBm) reaching target_tbps for each span count,
    NaN above the throughput peak; also the peak-GSNR power P_opt (dBm) and
    the peak throughput (Tb/s).

    Closed form: with g* the least GSNR carrying the target and A, B, C the
    ASE, NLI and IMI + RBS terms of gsnr_terms, A/p + B*p^2 = D = 1/g* - C
    becomes eps*x^3 - x + 1 = 0 for p = (A/D)*x, eps = B*A^2/D^3. It has a
    root iff eps <= 4/27, i.e. D >= 1.5*A/P_opt with P_opt = (A/2B)^(1/3);
    the smaller root, x in [1, 1.5], is on the rising branch.
    """
    terms = [gsnr_terms(plan, loss_db_per_km, n, include_rbs) for n in span_counts]
    a, b, imi, rbs = np.reshape(terms, (-1, 4)).T
    c = imi + rbs
    n_carriers = plan.n_fibers_per_direction * plan.n_channels
    # numpy carries the limits: no fibers ask an infinite rate, and a GSNR
    # that any power reaches gives D = inf and p = 0 mW.
    with np.errstate(all="ignore"):
        rate_gbps = np.divide(target_tbps * 1e3, n_carriers)
        gsnr_db = trx.required_gsnr_db(rate_gbps, plan.symbol_rate_hz)
        d = np.power(10.0, -gsnr_db / 10.0) - c
        r = a / d  # the root without NLI
        eps = b * r * r * r / a
        # u = sqrt(eps) * (largest root), by the trigonometric formula; Vieta's
        # product then gives the smallest root without the cancellation the
        # direct trigonometric middle root suffers at small eps.
        s = np.sqrt(eps)
        u = 2.0 / np.sqrt(3.0) * np.cos(np.arccos(np.maximum(-1.0, -1.5 * np.sqrt(3.0) * s)) / 3.0)
        power_dbm = 10.0 * np.log10(2.0 * r / (u * u + u * np.sqrt(u * u + 4.0 * s / u)))
        p_opt_mw = np.cbrt(np.divide(a, 2.0 * b))
        peak_db = -10.0 * np.log10(1.5 * a / p_opt_mw + c)
        peak_tbps = n_carriers * trx.net_rate_gbps(peak_db, plan.symbol_rate_hz) / 1e3
        feasible = (d > 0) & (eps <= 4.0 / 27.0)
        return np.where(feasible, power_dbm, np.nan), 10.0 * np.log10(p_opt_mw), peak_tbps


def required_edfa_power(
    plan: LinkPlan,
    trx: TransceiverModel,
    loss_db_per_km: float,
    span_km: float,
    target_tbps: float,
    include_rbs: bool = False,
    settings: SolverSettings = DEFAULT_SOLVER,
) -> float:
    """Least EDFA output power (dBm) at which throughput reaches target_tbps,
    with the link cut into span_km spans (snapped to a whole count).

    A target is infeasible only above the throughput peak or outside the
    window settings.power_bracket_dbm; see _solve_power_dbm.
    """
    if not 0 < span_km <= plan.total_length_km:
        raise ValueError(f"span_km={span_km} must lie in (0, {plan.total_length_km:g}] km")
    what = f"target {target_tbps:g} Tb/s at {loss_db_per_km:g} dB/km, {span_km:g} km spans"
    n = span_count(plan.total_length_km, span_km)
    power, p_opt, peak = _solve_power_dbm(plan, trx, loss_db_per_km, [n], target_tbps, include_rbs)
    power_dbm = float(power[0])
    if math.isnan(power_dbm):
        raise InfeasibleError(f"{what} is above the throughput peak {float(peak[0]):.6g} Tb/s "
                              f"(at {float(p_opt[0]):.4g} dBm)")
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
) -> list[SpanCurvePoint]:
    """Required EDFA power across span lengths, in one solve.

    Samples snap to integer partitions of the link, so samples landing on
    the same span count collapse to one point. A point is feasible when its power lies inside the
    window settings.power_bracket_dbm; infeasible points are kept as
    flagged gaps rather than aborting the curve.
    """
    if not span_min_km > 0:
        raise ValueError(f"span_min_km must be > 0, got {span_min_km}")
    if span_min_km > span_max_km:
        raise ValueError(f"span range is empty: {span_min_km}..{span_max_km}")
    if not 1 <= n_points <= MAX_SPAN_POINTS:
        raise ValueError(f"n_points must lie in 1..{MAX_SPAN_POINTS}, got {n_points}")
    spans = np.linspace(span_min_km, span_max_km, n_points).tolist()
    counts = dict.fromkeys(span_count(plan.total_length_km, s) for s in spans)
    counts.pop(0, None)  # samples over twice the link length leave no full span
    power, _, _ = _solve_power_dbm(plan, trx, loss_db_per_km, list(counts), target_tbps,
                                   include_rbs)
    low, high = settings.power_bracket_dbm
    points = []
    for n, p in zip(counts, power.tolist()):
        feasible = low <= p <= high
        points.append(SpanCurvePoint(plan.total_length_km / n, p if feasible else math.nan,
                                     feasible))
    return points


def sensitivity_delta(
    plan: LinkPlan,
    trx: TransceiverModel,
    base: OperatingPoint,
    modified_plan: LinkPlan,
    target_tbps: float,
    include_rbs: bool = False,
    settings: SolverSettings = DEFAULT_SOLVER,
) -> float:
    """Extra EDFA power (dB) the modified plan needs for the same target.

    The baseline solve always runs without backscatter; include_rbs applies
    to the modified solve only, so switching backscatter on is itself a
    sensitivity that can be measured with identical plans.
    """
    loss, span_km = base.loss_db_per_km, plan.span_length_km
    base_dbm = required_edfa_power(plan, trx, loss, span_km, target_tbps, False, settings)
    modified_dbm = required_edfa_power(
        modified_plan, trx, loss, modified_plan.span_length_km, target_tbps, include_rbs, settings
    )
    return modified_dbm - base_dbm
