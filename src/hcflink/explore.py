"""Parametric studies over the (fiber loss, EDFA power) design plane.

Full rectangular sweeps, one pure-Python loss row at a time, with contour
extraction, required-power solves at fixed throughput targets, span-length
trade-off curves, and sensitivity deltas between plans. system holds the 1/GSNR
law's closed forms: sweep_rows' cells are its row kernel, and the solves call its
roots, window rule and reasons. Only sweep_grid, which packs the rows into arrays,
imports numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .config import MAX_GRID_POINTS, GridSpec  # noqa: F401  (re-exported)
from .domain import check_value
from .system import (
    InfeasibleError,
    LinkPlan,
    TransceiverModel,
    _cable_rows,
    _falling_powers_dbm,
    _infeasible_reason,
    _inv_db,
    _power_column,
    _solve_powers_dbm,
    _target_inv_gsnr,
    gsnr_terms,
    repeater_count,
    span_count,
    span_terms,
)
# perfbench's traced run patches these two names here.
from .system import cable_throughput, link_gsnr  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

# Most samples a span trade-off curve may take.
MAX_SPAN_POINTS = 100_000


@dataclass(frozen=True)
class SweepGrid:
    """Evaluated lattice: axes plus GSNR and throughput per cell, as sweep_grid
    packs sweep_rows' finite cells."""

    loss_db_per_km: np.ndarray
    edfa_power_dbm: np.ndarray
    gsnr_db: np.ndarray
    throughput_tbps: np.ndarray


@dataclass(frozen=True)
class SolverSettings:
    """Admissible EDFA power window of the required-power solve, low < high with each
    end in the row of amplifier.total_output_power_dbm, and the accuracy (dB) its
    returned power guarantees; the closed form holds it above ~1e-12 dB."""

    power_bracket_dbm: tuple[float, float] = (5.0, 30.0)
    tolerance_db: float = 0.01

    def __post_init__(self) -> None:
        low, high = self.power_bracket_dbm
        check_value(low, "amplifier.total_output_power_dbm", "power_bracket_dbm")
        check_value(high, "amplifier.total_output_power_dbm", "power_bracket_dbm")
        if not low < high:
            raise ValueError(f"power bracket must satisfy low < high, got {low}..{high}")
        if not self.tolerance_db > 0:
            raise ValueError(f"tolerance_db must be > 0, got {self.tolerance_db}")


DEFAULT_SOLVER = SolverSettings()


class SpanCurvePoint(NamedTuple):
    """One sample of the span trade-off curve, an immutable record.

    span_km is snapped to an integer partition of the link; required_dbm is
    NaN when the solve is infeasible (feasible flags it).
    """

    span_km: float
    required_dbm: float
    feasible: bool


class SweepRows(NamedTuple):
    """A sweep grid by loss rows: its two axes, and rows(start, stop), which evaluates
    the loss rows start..stop-1 (all by default) one at a time, each as (loss, GSNR
    cells, throughput cells) of Python floats."""

    loss_db_per_km: tuple[float, ...]
    edfa_power_dbm: list[float]
    rows: Callable[..., Iterator[tuple[float, list[float], list[float]]]]


def sweep_rows(plan: LinkPlan, trx: TransceiverModel, grid: GridSpec,
               include_rbs: bool = False) -> SweepRows:
    """GSNR and throughput at every lattice point, one loss row at a time: a row is
    system._cable_rows at its gsnr_terms over the grid's power columns, so each cell
    is link_gsnr's GSNR and cable_throughput's Tb/s at its point, bit for bit."""
    losses, terms = _row_terms(plan, grid, include_rbs)
    powers = _linspace(grid.power_min, grid.power_max, grid.power_steps)
    columns = [_power_column(p) for p in powers]

    def rows(start: int = 0, stop: int | None = None
             ) -> Iterator[tuple[float, list[float], list[float]]]:
        for loss, row_terms in zip(losses[start:stop], terms[start:stop]):
            yield loss, *_cable_rows(plan, trx, row_terms, columns)

    return SweepRows(losses, powers, rows)


def sweep_grid(plan: LinkPlan, trx: TransceiverModel, grid: GridSpec,
               include_rbs: bool = False) -> SweepGrid:
    """The cells of sweep_rows as numpy arrays, the one place the package needs
    numpy (the `arrays` extra); without it, the import raises ModuleNotFoundError."""
    import numpy as np

    sweep = sweep_rows(plan, trx, grid, include_rbs)
    _, gsnr, throughput = zip(*sweep.rows())
    return SweepGrid(np.array(sweep.loss_db_per_km), np.array(sweep.edfa_power_dbm),
                     np.array(gsnr), np.array(throughput))


def extract_contour(plan: LinkPlan, trx: TransceiverModel, grid: GridSpec, field: str,
                    level: float, include_rbs: bool = False) -> list[list[tuple[float, float]]]:
    """Polylines of `field` ("gsnr" or "throughput") at `level` in the grid's
    power window, [] where none: (loss_db_per_km, edfa_power_dbm) on its loss rows.

    A row's 1/GSNR = A/p + B*p^2 + C meets the level at inv_gsnr: 10^(-level/10)
    for dB, 1/g* for Tb/s (_target_inv_gsnr refuses a level outside its row), at the rising root
    of system._solve_powers_dbm and the falling root of _falling_powers_dbm.
    Each run of rows with roots is walked out along the rising roots and back
    along the falling ones, joined within each end row inside the grid (a tip),
    and cut wherever a vertex leaves the window.
    """
    if field not in ("gsnr", "throughput"):
        raise ValueError(f"field must be one of ['gsnr', 'throughput'], got {field!r}")
    inv_gsnr = _inv_db(level) if field == "gsnr" else _target_inv_gsnr(plan, trx, level, "level")
    losses, terms = _row_terms(plan, grid, include_rbs)
    low, high = grid.power_min, grid.power_max
    rising = _solve_powers_dbm(terms, inv_gsnr)
    falling = _falling_powers_dbm(terms, inv_gsnr, rising, high)
    rows = [None if math.isnan(p_lo) else (loss, p_lo, p_hi)  # None above the GSNR peak
            for loss, p_lo, p_hi in zip(losses, rising, falling)]
    polylines: list[list[tuple[float, float]]] = []
    end = 0  # one past the run's last row
    for has_roots, group in groupby(rows, key=lambda row: row is not None):
        run = list(group)
        end += len(run)
        if not has_roots:
            continue
        walk = [(x, p_lo) for x, p_lo, _ in run]
        if end == len(rows) and len(run) > 1:
            walk.append(None)  # no tip on the grid's last row; one row closes at its start
        walk += [(x, p_hi) for x, _, p_hi in reversed(run)]
        walk = [v if v is not None and low <= v[1] <= high else None for v in walk]
        if end > len(run) > 1:  # the walk also closes within its first row
            cut = walk.index(None) if None in walk else 0
            walk = walk[cut:] + walk[:cut + 1]
        pieces = (list(g) for inside, g in groupby(walk, key=lambda v: v is not None) if inside)
        polylines += [piece for piece in pieces if len(piece) > 1]
    return polylines


@functools.lru_cache(maxsize=1)
def _row_terms(plan: LinkPlan, grid: GridSpec, include_rbs: bool
               ) -> tuple[tuple[float, ...], tuple[tuple[float, float, float, float], ...]]:
    """The grid's loss rows and the gsnr_terms of each, computed once for a
    command's sweep and all its contour levels."""
    losses = tuple(_linspace(grid.loss_min, grid.loss_max, grid.loss_steps))
    n_spans = plan.n_spans
    return losses, tuple([gsnr_terms(plan, loss, n_spans, include_rbs) for loss in losses])


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) for num >= 1, bit for bit, as a list."""
    div, delta = num - 1, stop - start
    if div == 0:  # numpy's one sample is 0*delta + start: NaN for an infinite delta
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:  # numpy's branch for a step that underflows to 0
        return [k / div * delta + start for k in range(div)] + [stop]
    return [k * step + start for k in range(div)] + [stop]


def required_edfa_power(
    plan: LinkPlan,
    trx: TransceiverModel,
    loss_db_per_km: float,
    span_km: float,
    target_tbps: float,
    include_rbs: bool = False,
    settings: SolverSettings = DEFAULT_SOLVER,
) -> float:
    """Least EDFA output power (dBm) at which throughput reaches target_tbps (in its
    row, system._target_inv_gsnr), the link cut into span_km spans (a whole count).

    A target is infeasible only above the throughput peak or outside the
    window settings.power_bracket_dbm; system._infeasible_reason says which.
    """
    n = repeater_count(plan.total_length_km, span_km, ("plan.total_length_km", "span_km")) + 1
    terms = gsnr_terms(plan, loss_db_per_km, n, include_rbs)
    inv_gsnr, window = _target_inv_gsnr(plan, trx, target_tbps), settings.power_bracket_dbm
    [power_dbm] = _solve_powers_dbm((terms,), inv_gsnr, window)
    if math.isnan(power_dbm):
        what = f"target {target_tbps:g} Tb/s at {loss_db_per_km:g} dB/km, {span_km:g} km spans"
        raise InfeasibleError(f"{what} {_infeasible_reason(plan, trx, terms, inv_gsnr, window)}")
    return power_dbm


def check_span_range(total_length_km: float, span_min_km: float, span_max_km: float,
                     n_points: int, names: tuple[str, str, str, str]) -> tuple[int, ...]:
    """The span counts the range samples (_span_counts). Raises, naming the link
    length and each other value by `names` (in the order of the parameters),
    unless n_points lies in 1..MAX_SPAN_POINTS, span_count accepts the shortest
    span, both ends lie in the domain row of span.span_length_km and the range is
    not empty. Spans may be longer than the link."""
    total_name, min_name, max_name, points_name = names
    if not 1 <= n_points <= MAX_SPAN_POINTS:
        raise ValueError(f"{points_name} must lie in 1..{MAX_SPAN_POINTS}, got {n_points}")
    span_count(total_length_km, span_min_km, (total_name, min_name))
    check_value(span_min_km, "span.span_length_km", min_name)
    check_value(span_max_km, "span.span_length_km", max_name)
    if not span_min_km <= span_max_km:
        raise ValueError(f"{min_name}={span_min_km} must not exceed {max_name}={span_max_km}")
    return _span_counts(total_length_km, span_min_km, span_max_km, n_points)


@functools.lru_cache(maxsize=8)
def _span_counts(total_km: float, span_min_km: float, span_max_km: float,
                 n_points: int) -> tuple[int, ...]:
    """The distinct span counts, in sample order, that span_length_curve's samples
    snap to, computed once per link length, range and sample count."""
    # The samples snapped by span_count's rounding (floor is int for positive ratios);
    # check_span_range's count of the shortest span covers them all, so none is checked.
    counts = dict.fromkeys([math.floor(total_km / span + 0.5)
                            for span in _linspace(span_min_km, span_max_km, n_points)])
    counts.pop(0, None)  # samples over twice the link length leave no full span
    return tuple(counts)


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
    """Required EDFA power across span lengths at target_tbps (in its row, checked after
    the span range): one span_terms and one _solve_powers_dbm call for all span counts.

    Samples snap to integer partitions of the link, so samples landing on
    the same span count collapse to one point. A point is feasible when its power lies inside the
    window settings.power_bracket_dbm; infeasible points are kept as
    flagged gaps (NaN) rather than aborting the curve.
    """
    total = plan.total_length_km
    counts = check_span_range(total, span_min_km, span_max_km, n_points,
                              ("plan.total_length_km", "span_min_km", "span_max_km", "n_points"))
    inv_gsnr = _target_inv_gsnr(plan, trx, target_tbps)
    powers = _solve_powers_dbm(span_terms(plan, loss_db_per_km, counts, include_rbs), inv_gsnr,
                               settings.power_bracket_dbm)
    new = tuple.__new__  # SpanCurvePoint._make without its length check
    return [new(SpanCurvePoint, (total / n, p, p == p)) for n, p in zip(counts, powers)]


def sensitivity_delta(
    plan: LinkPlan,
    trx: TransceiverModel,
    loss_db_per_km: float,
    modified_plan: LinkPlan,
    target_tbps: float,
    include_rbs: bool = False,
    settings: SolverSettings = DEFAULT_SOLVER,
) -> float:
    """Extra EDFA power (dB) the modified plan needs for the same target and loss.

    The baseline solve always runs without backscatter; include_rbs applies
    to the modified solve only, so switching backscatter on is itself a
    sensitivity that can be measured with identical plans.
    """
    base_dbm = required_edfa_power(plan, trx, loss_db_per_km, plan.span_length_km, target_tbps,
                                   False, settings)
    modified_dbm = required_edfa_power(modified_plan, trx, loss_db_per_km,
                                       modified_plan.span_length_km, target_tbps, include_rbs,
                                       settings)
    return modified_dbm - base_dbm
