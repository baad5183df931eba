"""Parametric studies over the (fiber loss, EDFA power) design plane.

Full rectangular sweeps with contour extraction, required-power solves at
fixed throughput targets, span-length trade-off curves, and sensitivity
deltas between plans.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import MAX_GRID_POINTS, GridSpec  # noqa: F401  (re-exported)
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

if TYPE_CHECKING:
    import numpy as np

# Most samples a span trade-off curve may take.
MAX_SPAN_POINTS = 100_000


@dataclass(frozen=True)
class SweepGrid:
    """Evaluated lattice: axes plus GSNR and throughput per cell."""

    loss_db_per_km: np.ndarray
    edfa_power_dbm: np.ndarray
    gsnr_db: np.ndarray
    throughput_tbps: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


def _target_inv_gsnr(plan: LinkPlan, trx: TransceiverModel, target_tbps: float) -> float:
    """1/g* for g* the least GSNR carrying target_tbps: 0 when no GSNR carries it,
    inf when every GSNR does."""
    n_carriers = plan.n_fibers_per_direction * plan.n_channels
    # No fibers: the rate is x/0 as IEEE division gives it, +-inf or NaN.
    rate_gbps = target_tbps * 1e3 / n_carriers if n_carriers else target_tbps * math.inf
    gsnr_db = trx.required_gsnr_db(rate_gbps, plan.symbol_rate_hz)
    try:
        return 10.0 ** (-gsnr_db / 10.0)
    except OverflowError:  # g* far below 0 dB, past float range
        return math.inf


def _solve_power_dbm(terms: tuple[float, float, float, float], inv_gsnr: float) -> float:
    """Least EDFA output power (dBm) at which 1/GSNR = A/p + B*p^2 + C falls to
    inv_gsnr, for A, B and C = IMI + RBS the gsnr_terms of one span count: NaN
    above the GSNR peak, -inf when every power reaches it.

    Closed form: A/p + B*p^2 = D = inv_gsnr - C becomes eps*x^3 - x + 1 = 0 for
    p = (A/D)*x, eps = B*A^2/D^3. It has a root iff eps <= 4/27, i.e.
    D >= 1.5*A/P_opt with P_opt = (A/2B)^(1/3); the smaller root, x in [1, 1.5],
    is on the rising branch.
    """
    a, b, imi, rbs = terms
    d = inv_gsnr - (imi + rbs)
    if not d > 0:
        return math.nan
    r = a / d  # the root without NLI
    if r == 0:  # D = inf (a target rate <= 0), or no ASE
        return -math.inf
    eps = b * r * r * r / a
    if not eps <= 4.0 / 27.0:
        return math.nan
    # u = sqrt(eps) * (largest root), by the trigonometric formula; Vieta's
    # product then gives the smallest root without the cancellation the
    # direct trigonometric middle root suffers at small eps.
    s = math.sqrt(eps)
    u = 2.0 / math.sqrt(3.0) * math.cos(math.acos(max(-1.0, -1.5 * math.sqrt(3.0) * s)) / 3.0)
    return 10.0 * math.log10(2.0 * r / (u * u + u * math.sqrt(u * u + 4.0 * s / u)))


def _throughput_peak(plan: LinkPlan, trx: TransceiverModel,
                     terms: tuple[float, float, float, float]) -> tuple[float, float]:
    """Power P_opt (dBm) of the GSNR peak 1/(1.5*A/P_opt + C) and the throughput
    there (Tb/s); without NLI or without ASE the peak is 1/C, at +inf or -inf dBm."""
    a, b, imi, rbs = terms
    if a > 0 and b > 0:
        p_opt_mw = (a / (2.0 * b)) ** (1.0 / 3.0)
        p_opt_dbm, inv_gsnr = 10.0 * math.log10(p_opt_mw), 1.5 * a / p_opt_mw + (imi + rbs)
    else:
        p_opt_dbm, inv_gsnr = (math.inf if b == 0 else -math.inf), imi + rbs
    # Below the least normal float the peak counts as +inf: 10**(GSNR/10) would overflow.
    peak_db = -10.0 * math.log10(inv_gsnr) if inv_gsnr >= sys.float_info.min else math.inf
    n_carriers = plan.n_fibers_per_direction * plan.n_channels
    return p_opt_dbm, n_carriers * trx.net_rate_gbps(peak_db, plan.symbol_rate_hz) / 1e3


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
    terms = gsnr_terms(plan, loss_db_per_km, n, include_rbs)
    power_dbm = _solve_power_dbm(terms, _target_inv_gsnr(plan, trx, target_tbps))
    if math.isnan(power_dbm):
        p_opt_dbm, peak_tbps = _throughput_peak(plan, trx, terms)
        raise InfeasibleError(f"{what} is above the throughput peak {peak_tbps:.6g} Tb/s "
                              f"(at {p_opt_dbm:.4g} dBm)")
    low, high = settings.power_bracket_dbm
    if not low <= power_dbm <= high:
        raise InfeasibleError(
            f"{what} needs {power_dbm:.6g} dBm, outside the window {low:g}..{high:g} dBm"
        )
    return power_dbm


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) as floats, for num >= 1 and a step that does
    not underflow: start + k*step, the last of several samples exactly stop."""
    step = (stop - start) / max(num - 1, 1)
    samples = [start + k * step for k in range(num)]
    if num > 1:
        samples[-1] = stop
    return samples


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
    """Required EDFA power across span lengths, one closed-form solve per span count.

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
    spans = _linspace(span_min_km, span_max_km, n_points)
    counts = dict.fromkeys(span_count(plan.total_length_km, s) for s in spans)
    counts.pop(0, None)  # samples over twice the link length leave no full span
    inv_gsnr = _target_inv_gsnr(plan, trx, target_tbps)
    low, high = settings.power_bracket_dbm
    points = []
    for n in counts:
        p = _solve_power_dbm(gsnr_terms(plan, loss_db_per_km, n, include_rbs), inv_gsnr)
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
