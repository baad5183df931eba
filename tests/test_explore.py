from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcflink import explore, impairments
from hcflink.explore import (
    MAX_GRID_POINTS,
    MAX_SPAN_POINTS,
    GridSpec,
    SolverSettings,
    SpanCurvePoint,
    _solve_powers_dbm,
    _target_inv_gsnr,
    extract_contour,
    required_edfa_power,
    sensitivity_delta,
    span_length_curve,
    sweep_grid,
)
from hcflink.impairments import FiberSpec, gn_nli_psds_per_span
from hcflink.system import (
    DEFAULT_CONSTANTS,
    InfeasibleError,
    OperatingPoint,
    ShannonGapTransceiver,
    TabulatedTransceiver,
    cable_throughput,
    channel_net_rate,
    gsnr_terms,
    link_gsnr,
    span_count,
)


def test_grid_spec_validation():
    GridSpec(0.045, 0.085, 81, 14.0, 25.0, 111)
    with pytest.raises(ValueError):
        GridSpec(0.085, 0.045, 81, 14.0, 25.0, 111)
    with pytest.raises(ValueError):
        GridSpec(0.045, 0.085, 1, 14.0, 25.0, 111)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.085, 81, 14.0, 25.0, 111)


@pytest.mark.parametrize("key", ["loss_min", "loss_max", "power_min", "power_max"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_grid_spec_rejects_non_finite_bounds(key, bad):
    bounds = {"loss_min": 0.045, "loss_max": 0.085, "power_min": 14.0, "power_max": 25.0}
    bounds[key] = bad
    with pytest.raises(ValueError, match=f"sweep.{key}"):
        GridSpec(bounds["loss_min"], bounds["loss_max"], 81,
                 bounds["power_min"], bounds["power_max"], 111)


def test_grid_spec_bounds_point_count():
    GridSpec(0.045, 0.085, 1001, 14.0, 25.0, 1001)
    GridSpec(0.045, 0.085, 2, 14.0, 25.0, MAX_GRID_POINTS // 2)
    with pytest.raises(ValueError, match="sweep.loss_steps \\* sweep.power_steps"):
        GridSpec(0.045, 0.085, 2001, 14.0, 25.0, MAX_GRID_POINTS // 2000 + 1)


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(power_bracket_dbm=(30.0, 5.0))
    with pytest.raises(ValueError):
        SolverSettings(tolerance_db=0.0)


def test_sweep_corner_points_near_one_pbps(reference_plan, calibrated_trx):
    grid = sweep_grid(
        reference_plan, calibrated_trx, GridSpec(0.05, 0.07, 2, 18.0, 22.5, 2),
        include_rbs=False,
    )
    assert grid.throughput_tbps[0, 0] == pytest.approx(1000.0, rel=0.03)
    assert grid.throughput_tbps[1, 1] == pytest.approx(1000.0, rel=0.03)


def test_sweep_cells_match_direct_evaluation(reference_plan, calibrated_trx):
    grid = sweep_grid(
        reference_plan, calibrated_trx, GridSpec(0.05, 0.07, 2, 18.0, 22.5, 2)
    )
    for i, loss in enumerate(grid.loss_db_per_km):
        for j, power in enumerate(grid.edfa_power_dbm):
            direct = cable_throughput(
                reference_plan, calibrated_trx, OperatingPoint(float(loss), float(power))
            )
            assert grid.throughput_tbps[i, j] == pytest.approx(direct, rel=1e-12)


_TABLE_TRX = TabulatedTransceiver(((6.0, 200.0), (10.0, 400.0), (14.0, 560.0), (18.0, 680.0)))


@pytest.mark.parametrize("gamma", [0.0, 0.05])
@pytest.mark.parametrize("include_rbs", [False, True])
@pytest.mark.parametrize("tabulated", [False, True])
def test_sweep_matches_scalar_budget_at_every_point(
    reference_plan, calibrated_trx, gamma, include_rbs, tabulated
):
    # The sweep evaluates 1/GSNR = A/p + B*p^2 + C per row; the reference is
    # the per-point scalar budget and rate, which the sweep must track to
    # within the documented 1e-12 bounds.
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma))
    trx = _TABLE_TRX if tabulated else calibrated_trx
    grid = sweep_grid(plan, trx, GridSpec(0.045, 0.085, 9, 5.0, 30.0, 26), include_rbs)
    scale = plan.n_fibers_per_direction * plan.n_channels / 1e3
    for i, loss in enumerate(grid.loss_db_per_km):
        for j, power in enumerate(grid.edfa_power_dbm):
            budget = link_gsnr(plan, OperatingPoint(float(loss), float(power)), include_rbs)
            rate = channel_net_rate(trx, budget.gsnr_db, plan.symbol_rate_hz)
            assert abs(grid.gsnr_db[i, j] - budget.gsnr_db) <= 1e-12
            assert abs(grid.throughput_tbps[i, j] / (scale * rate) - 1.0) <= 1e-12


def test_sweep_monotone_along_power_axis(reference_plan, calibrated_trx):
    grid = sweep_grid(
        reference_plan, calibrated_trx, GridSpec(0.05, 0.07, 3, 10.0, 25.0, 50)
    )
    for i in range(grid.gsnr_db.shape[0]):
        column = grid.gsnr_db[i, :]
        assert np.all(np.diff(column) >= 0)


def test_sweep_deterministic(reference_plan, calibrated_trx):
    spec = GridSpec(0.05, 0.07, 5, 16.0, 24.0, 7)
    first = sweep_grid(reference_plan, calibrated_trx, spec)
    second = sweep_grid(reference_plan, calibrated_trx, spec)
    assert np.array_equal(first.gsnr_db, second.gsnr_db)
    assert np.array_equal(first.throughput_tbps, second.throughput_tbps)


def test_contour_rejects_unknown_field(reference_plan, calibrated_trx):
    with pytest.raises(ValueError, match="field must be one of"):
        extract_contour(reference_plan, calibrated_trx, GridSpec(), "osnr", 0.5)


def test_contour_vertices_reproduce_level(reference_plan, calibrated_trx):
    spec = GridSpec(0.045, 0.085, 50, 14.0, 25.0, 50)
    polylines = extract_contour(reference_plan, calibrated_trx, spec, "throughput", 1000.0)
    assert polylines
    checked = 0
    for line in polylines:
        for loss, power in line:
            thr = cable_throughput(
                reference_plan, calibrated_trx, OperatingPoint(loss, power)
            )
            assert thr == pytest.approx(1000.0, rel=1e-9)
            checked += 1
    assert checked >= 20


def test_contour_passes_through_reference_point(reference_plan, calibrated_trx):
    polylines = extract_contour(reference_plan, calibrated_trx, GridSpec(), "throughput", 1000.0)
    best = min(
        abs(power - 20.3)
        for line in polylines
        for loss, power in line
        if abs(loss - 0.06) <= 5e-4
    )
    assert best <= 0.3


def _row_crossings_dbm(plan, loss, inv_gsnr, low, high):
    """Powers (dBm) in [low, high] where the GSNR at this loss equals 1/inv_gsnr:
    the roots of A/p + B*p^2 + C = inv_gsnr, by bisection on each side of
    the GSNR peak, the smaller on the rising branch and the larger on the falling."""
    a, b, imi, rbs = gsnr_terms(plan, loss, plan.n_spans)

    def below(dbm):
        p = 10.0 ** (dbm / 10.0)
        return a / p + b * p * p + imi + rbs > inv_gsnr

    peak_dbm = 10.0 * math.log10((a / (2.0 * b)) ** (1.0 / 3.0))
    roots = []
    for lo, hi in ((low, min(peak_dbm, high)), (max(peak_dbm, low), high)):
        if lo < hi and below(lo) != below(hi):
            lo_below = below(lo)
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if below(mid) == lo_below else (lo, mid)
            roots.append(0.5 * (lo + hi))
    return roots


# A table whose rate is flat from 15 to 17 dB: 500 Gb/s on each of the reference
# plan's 26 x 66 carriers is 858 Tb/s, first carried at g* = 15 dB.
_FLAT_TABLE = TabulatedTransceiver(((10.0, 300.0), (15.0, 500.0), (17.0, 500.0), (20.0, 700.0)))


@pytest.mark.parametrize(
    "field,gamma,level,window,n_roots,trx",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}-{tag}-{case[4]}")
     for case, tag in [
         (("throughput", 5e-4, 1000.0, (14.0, 25.0), 1, None), "window0"),  # the peak is far above
         (("throughput", 0.05, 1000.0, (10.0, 40.0), 2, None), "window1"),  # solid-core-like
         (("throughput", 1.0, 400.0, (0.0, 30.0), 2, None), "window2"),
         (("gsnr", 5e-4, 16.0, (14.0, 25.0), 1, None), "window3"),
         (("gsnr", 0.05, 15.0, (10.0, 40.0), 2, None), "window4"),
         (("gsnr", 1.0, 8.0, (0.0, 30.0), 2, None), "window5"),
         (("throughput", 0.05, 1000.0, (10.0, 40.0), 2, "capped"), "capped"),
         (("throughput", 0.05, 858.0, (10.0, 40.0), 2, "table"), "table")]],
)
def test_contour_rows_meet_the_analytic_roots(reference_plan, calibrated_trx, field, gamma,
                                              level, window, n_roots, trx):
    # A throughput level T crosses where 1/GSNR = 1/g*(T), a GSNR level L dB
    # where 1/GSNR = 10^(-L/10): the same cubic in p, with the same two branches.
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma))
    model = {None: calibrated_trx, "table": _FLAT_TABLE,
             "capped": ShannonGapTransceiver(calibrated_trx.gap_db, 600.0)}[trx]
    if field == "gsnr":
        inv_gsnr = 10.0 ** (-level / 10.0)
    elif trx == "table":
        inv_gsnr = 10.0 ** (-15.0 / 10.0)  # the left end of the flat segment
    else:
        inv_gsnr = _target_inv_gsnr(plan, model, level)
    spec = GridSpec(0.05, 0.07, 5, *window, 3)
    vertices = {v for line in extract_contour(plan, model, spec, field, level) for v in line}
    losses = np.linspace(0.05, 0.07, 5).tolist()
    assert {loss for loss, _ in vertices} == set(losses)
    for loss in losses:
        roots = _row_crossings_dbm(plan, loss, inv_gsnr, *window)
        on_row = sorted(power for x, power in vertices if x == loss)
        assert len(roots) == n_roots and len(on_row) == n_roots, (gamma, loss)
        for root, vertex in zip(roots, on_row):
            assert abs(vertex - root) <= 1e-9, (gamma, loss)


@pytest.mark.parametrize(
    "gamma,field,levels,spec,n_lines",
    [(5e-4, "throughput", (950.0, 1000.0, 1050.0), GridSpec(), 1),  # the rising branch only
     (0.05, "throughput", (1000.0,), GridSpec(0.045, 0.085, 81, 10.0, 40.0, 121), 2),
     (1.0, "gsnr", (8.0,), GridSpec(0.045, 0.12, 16, 0.0, 30.0, 121), 1)],  # a tip at 0.09
)
def test_contour_topology(reference_plan, calibrated_trx, gamma, field, levels, spec, n_lines):
    # Marching squares on the sampled grid gave these topologies too.
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma))
    for level in levels:
        lines = extract_contour(plan, calibrated_trx, spec, field, level)
        assert len(lines) == n_lines and lines[0][0][0] == 0.045
        ends = [(line[0][0], line[-1][0]) for line in lines]
        if n_lines == 2:  # one line per branch, across every row
            assert ends == [(0.045, 0.085), (0.085, 0.045)]
            assert all(len(line) == spec.loss_steps for line in lines)
            assert all(p < q for (_, p), (_, q) in zip(lines[0], lines[1][::-1]))
        elif gamma == 1.0:  # out along the rising branch, back along the falling one
            (line,) = lines
            tip = max(range(len(line)), key=lambda k: line[k][0])
            assert ends == [(0.045, 0.045)]
            assert line[tip][0] == line[tip + 1][0] == pytest.approx(0.09)
            assert line[tip][1] < line[tip + 1][1]


def test_contour_walk_closes_within_interior_rows(reference_plan, calibrated_trx, monkeypatch):
    # The plans here have roots from the first row on, so hide the roots of the
    # first and last rows: the walk then closes within both end rows of its run.
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=0.05))
    spec = GridSpec(0.045, 0.085, 5, 10.0, 30.0, 3)
    rising, falling = extract_contour(plan, calibrated_trx, spec, "throughput", 1000.0)
    falling = falling[::-1]  # in row order
    solve = explore._solve_powers_dbm

    def hide(rows, above=()):
        def solve_rows(terms, inv_gsnr):
            powers = solve(terms, inv_gsnr)
            for k in rows:
                powers[k] = math.nan  # above the GSNR peak
            for k in above:
                powers[k] = 35.0  # above the window
            return powers

        return solve_rows

    monkeypatch.setattr(explore, "_solve_powers_dbm", hide((0, 4)))
    assert extract_contour(plan, calibrated_trx, spec, "throughput", 1000.0) == [
        rising[1:4] + falling[3:0:-1] + rising[1:2]]
    # A rising root above the window leaves both roots of row 3 out: the ring
    # opens there, and its closing link joins the pieces on either side.
    monkeypatch.setattr(explore, "_solve_powers_dbm", hide((0, 4), above=(3,)))
    assert extract_contour(plan, calibrated_trx, spec, "throughput", 1000.0) == [
        [falling[2], falling[1], rising[1], rising[2]]]
    # A run of one row joins its two roots, on either edge of the grid.
    for row in (0, 4):
        monkeypatch.setattr(explore, "_solve_powers_dbm", hide({0, 1, 2, 3, 4} - {row}))
        assert extract_contour(plan, calibrated_trx, spec, "throughput", 1000.0) == [
            [rising[row], falling[row]]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gamma=st.sampled_from([0.0, 5e-4, 0.05, 1.0, 100.0]),
       n_fibers=st.sampled_from([0, 26]),
       trx=st.sampled_from([ShannonGapTransceiver(4.0), ShannonGapTransceiver(4.0, 600.0),
                            _FLAT_TABLE]),
       field_level=(st.tuples(st.just("gsnr"), st.floats(5.0, 25.0))
                    | st.tuples(st.just("throughput"), st.floats(500.0, 1500.0))
                    | st.tuples(st.sampled_from(["gsnr", "throughput"]),
                                st.floats(-1e308, 1e308) | st.sampled_from([-1e308, 0.0, 1e308]))),
       loss_min=(st.floats(0.01, 0.2) | st.floats(1e-4, 5.0) | st.sampled_from([1e-4, 5.0])),
       loss_width=st.floats(1e-9, 0.2),
       powers=st.lists(st.floats(-60.0, 60.0) | st.floats(0.0, 40.0)
                       | st.sampled_from([-60.0, 60.0]),
                       min_size=2, max_size=2, unique=True).map(sorted),
       include_rbs=st.booleans())
@example(gamma=0.05, n_fibers=26, trx=ShannonGapTransceiver(4.0),
         field_level=("throughput", 1000.0), loss_min=1e-4,
         loss_width=0.1, powers=[-60.0, 60.0], include_rbs=True)
def test_contour_never_crashes(reference_plan, gamma, n_fibers, trx, field_level, loss_min,
                               loss_width, powers, include_rbs):
    """Finite vertices on the loss rows inside the window of a grid in the domain, or
    sweep_grid's ValueError (a span gain past MAX_SPAN_GAIN_DB)."""
    field, level = field_level
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma),
                   n_fibers_per_direction=n_fibers)
    losses = (loss_min, loss_min + loss_width)
    spec = GridSpec(*losses, 4, powers[0], powers[1], 3)
    try:
        lines = extract_contour(plan, trx, spec, field, level, include_rbs)
    except ValueError as exc:
        with pytest.raises(ValueError) as swept:
            sweep_grid(plan, trx, spec, include_rbs)
        assert str(swept.value) == str(exc)
        return
    rows = set(np.linspace(*losses, 4).tolist())
    for line in lines:
        assert len(line) >= 2
        for loss, power in line:
            assert loss in rows and powers[0] <= power <= powers[1]


@settings(max_examples=500, deadline=None)
@given(start=st.floats(-1e300, 1e300), stop=st.floats(-1e300, 1e300),
       num=st.integers(1, 60))
# Adjacent floats at the loss floor: the step underflows to 0 from 9 samples on.
@example(start=impairments.MIN_LOSS_DB_PER_KM,
         stop=math.nextafter(impairments.MIN_LOSS_DB_PER_KM, math.inf), num=9)
@example(start=impairments.MIN_LOSS_DB_PER_KM,
         stop=math.nextafter(impairments.MIN_LOSS_DB_PER_KM, math.inf), num=33)
@example(start=0.045, stop=0.085, num=1001)
@example(start=-0.0, stop=1.0, num=1)  # numpy's one sample is 0*delta + start: 0.0
def test_loss_rows_are_numpys_linspace(start, stop, num):
    samples = explore._linspace(start, stop, num)
    assert [x.hex() for x in samples] == [x.hex() for x in np.linspace(start, stop, num).tolist()]


def test_required_power_cross_validation(reference_plan, calibrated_trx):
    at_005 = required_edfa_power(reference_plan, calibrated_trx, 0.05, 200.0, 1000.0)
    at_007 = required_edfa_power(reference_plan, calibrated_trx, 0.07, 200.0, 1000.0)
    assert at_005 == pytest.approx(18.234, abs=0.02)
    assert at_007 == pytest.approx(22.341, abs=0.02)


def test_required_power_recovers_reference(reference_plan, calibrated_trx):
    power = required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1000.0)
    assert power == pytest.approx(20.3, abs=0.02)


def test_required_power_bisection_converges(reference_plan, calibrated_trx):
    fine = SolverSettings(tolerance_db=1e-6)
    for loss in (0.05, 0.06, 0.07):
        coarse_power = required_edfa_power(
            reference_plan, calibrated_trx, loss, 200.0, 1000.0
        )
        true_power = required_edfa_power(
            reference_plan, calibrated_trx, loss, 200.0, 1000.0, settings=fine
        )
        assert abs(coarse_power - true_power) <= 0.01


def test_required_power_monotone_in_loss(reference_plan, calibrated_trx):
    powers = [
        required_edfa_power(reference_plan, calibrated_trx, loss, 200.0, 1000.0)
        for loss in (0.05, 0.055, 0.06, 0.065, 0.07)
    ]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_required_power_bracket_failure(reference_plan, calibrated_trx):
    with pytest.raises(InfeasibleError, match="Tb/s at"):
        required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1e6)


# Staircase, flat from 8 to 10 dB and clamped at 600 Gb/s: 1716 carriers top out at 1030 Tb/s.
_STAIRCASE = TabulatedTransceiver(
    ((5.0, 100.0), (8.0, 300.0), (10.0, 300.0), (14.0, 500.0), (20.0, 600.0))
)


def test_required_power_infeasible_reasons(reference_plan, calibrated_trx):
    with pytest.raises(InfeasibleError, match="above the throughput peak"):
        required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1e6)
    narrow = SolverSettings(power_bracket_dbm=(5.0, 18.0))
    with pytest.raises(InfeasibleError, match="needs 20.3.* outside the window 5..18 dBm"):
        required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1000.0, settings=narrow)
    with pytest.raises(InfeasibleError, match="outside the window"):
        required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1.0)
    no_fibers = replace(reference_plan, n_fibers_per_direction=0)
    with pytest.raises(InfeasibleError, match="above the throughput peak 0 Tb/s"):
        required_edfa_power(no_fibers, calibrated_trx, 0.06, 200.0, 1000.0)
    for trx in (calibrated_trx, _STAIRCASE):
        for target in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InfeasibleError, match="Tb/s at"):
                required_edfa_power(reference_plan, trx, 0.06, 200.0, target)


@pytest.mark.parametrize("span_km, words", [(1e-3, ("span_km=", "MAX_SPANS")),
                                             (7000.0, ("span_km=", "must not exceed"))])
def test_required_power_names_its_span(reference_plan, calibrated_trx, span_km, words):
    with pytest.raises(ValueError) as info:
        required_edfa_power(reference_plan, calibrated_trx, 0.06, span_km, 1000.0)
    assert all(word in str(info.value) for word in (*words, "plan.total_length_km"))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.0, 1.0),
    loss=st.floats(0.03, 0.1),
    span=st.floats(100.0, 300.0),
    share=st.floats(0.3, 1.15),
    include_rbs=st.booleans(),
    tabulated=st.booleans(),
)
def test_required_power_agrees_with_a_dense_scan(
    reference_plan, calibrated_trx, gamma, loss, span, share, include_rbs, tabulated
):
    """A feasible power reproduces the target and nothing below it in the window
    reaches it; an infeasible verdict means no power in the window is the least
    one reaching the target."""
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma))
    working = replace(plan, span_length_km=span)
    trx = _STAIRCASE if tabulated else calibrated_trx
    low, high = SolverSettings().power_bracket_dbm

    def throughput(power_dbm):
        return cable_throughput(working, trx, OperatingPoint(loss, power_dbm), include_rbs)

    scan = [(p, throughput(p)) for p in np.linspace(low, high, 251).tolist()]
    target = share * max(t for _, t in scan)
    try:
        power = required_edfa_power(plan, trx, loss, span, target, include_rbs)
    except InfeasibleError:
        reached_below = throughput(low) >= target * (1 - 1e-9)
        assert reached_below or all(t < target * (1 + 1e-9) for _, t in scan)
        return
    assert low <= power <= high
    assert abs(throughput(power) - target) <= 1e-9 * target
    assert all(t < target for p, t in scan if p < power - 1e-6)


def _numpy_solve_power_dbm(plan, trx, loss_db_per_km, span_counts, target_tbps, include_rbs):
    """The array form of the closed-form solve, kept as a reference: the least
    power (dBm) per span count, NaN above the throughput peak."""
    terms = [gsnr_terms(plan, loss_db_per_km, n, include_rbs) for n in span_counts]
    a, b, imi, rbs = np.reshape(terms, (-1, 4)).T
    c = imi + rbs
    n_carriers = plan.n_fibers_per_direction * plan.n_channels
    with np.errstate(all="ignore"):
        rate_gbps = np.divide(target_tbps * 1e3, n_carriers)
        gsnr_db = trx.required_gsnr_db(rate_gbps, plan.symbol_rate_hz)
        d = np.power(10.0, -gsnr_db / 10.0) - c
        r = a / d
        eps = b * r * r * r / a
        s = np.sqrt(eps)
        u = 2.0 / np.sqrt(3.0) * np.cos(np.arccos(np.maximum(-1.0, -1.5 * np.sqrt(3.0) * s)) / 3.0)
        power_dbm = 10.0 * np.log10(2.0 * r / (u * u + u * np.sqrt(u * u + 4.0 * s / u)))
        feasible = (d > 0) & (eps <= 4.0 / 27.0)
        return np.where(feasible, power_dbm, np.nan)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    total=st.floats(50.0, 1600.0),
    lo_share=st.floats(1e-3, 3.0),
    width_share=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    n_points=st.one_of(st.sampled_from([1, 2, 3, 101]), st.integers(1, 300)),
)
@example(total=1000.0, lo_share=0.1, width_share=0.3, n_points=1)
@example(total=1000.0, lo_share=0.1, width_share=0.3, n_points=2)
@example(total=1000.0, lo_share=0.1, width_share=0.3, n_points=3)
@example(total=1000.0, lo_share=0.5, width_share=2.5, n_points=101)
def test_span_samples_are_numpys_linspace_snapped(reference_plan, calibrated_trx, total,
                                                   lo_share, width_share, n_points):
    """The curve's spans are the distinct span_count of np.linspace's samples,
    in order, without the count 0 of a sample over twice the link. A single
    sample is span_min's; the examples pin that and spans past twice the link."""
    plan = replace(reference_plan, total_length_km=total, span_length_km=total)
    lo = total * lo_share
    hi = lo + total * width_share
    curve = span_length_curve(plan, calibrated_trx, 0.06, lo, hi, n_points, 1000.0)
    counts = dict.fromkeys([span_count(total, span)
                            for span in np.linspace(lo, hi, n_points).tolist()])
    counts.pop(0, None)
    assert [p.span_km for p in curve] == [total / n for n in counts]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    total=st.floats(50.0, 1600.0),
    lo_share=st.floats(1e-3, 3.0),
    width_share=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    n_points=st.one_of(st.sampled_from([1, 2, 101]), st.integers(1, 300)),
)
def test_memoised_span_counts_are_the_inline_rule(reference_plan, calibrated_trx, total,
                                                  lo_share, width_share, n_points):
    """_span_counts is the rule span_length_curve applied inline: the distinct
    floor(total/span + 0.5) of the _linspace samples, in order, without 0. A
    curve drawn with the counts cached gives the points it gave with none."""
    lo = total * lo_share
    hi = lo + total * width_share
    counts = dict.fromkeys([math.floor(total / span + 0.5)
                            for span in explore._linspace(lo, hi, n_points)])
    counts.pop(0, None)
    plan = replace(reference_plan, total_length_km=total, span_length_km=total)
    explore._span_counts.cache_clear()
    cold = span_length_curve(plan, calibrated_trx, 0.06, lo, hi, n_points, 1000.0)
    warm = span_length_curve(plan, calibrated_trx, 0.06, lo, hi, n_points, 1000.0)
    assert explore._span_counts.cache_info()[:2] == (1, 1)  # one hit, one miss
    assert explore._span_counts(total, lo, hi, n_points) == tuple(counts)
    assert repr(warm) == repr(cold)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.0, 1.0),
    loss=st.floats(0.03, 0.1),
    counts=st.lists(st.integers(1, 200), min_size=1, max_size=6),
    target=st.one_of(st.floats(1.0, 1500.0), st.sampled_from([0.0, -1.0, 1e-310, 1e9])),
    include_rbs=st.booleans(),
    tabulated=st.booleans(),
    fibers=st.sampled_from([26, 0]),
)
def test_scalar_solve_matches_the_numpy_reference(
    reference_plan, calibrated_trx, gamma, loss, counts, target, include_rbs, tabulated, fibers
):
    """One math solve per span count gives the array solve's power within
    1e-12 dB (numpy's log10 and arccos may differ from libm's by an ulp), and
    NaN exactly where it gave NaN."""
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma),
                   n_fibers_per_direction=fibers)
    trx = _STAIRCASE if tabulated else calibrated_trx
    reference = _numpy_solve_power_dbm(plan, trx, loss, counts, target, include_rbs).tolist()
    inv_gsnr = _target_inv_gsnr(plan, trx, target)
    for n, want in zip(counts, reference):
        [got] = _solve_powers_dbm((gsnr_terms(plan, loss, n, include_rbs),), inv_gsnr)
        if math.isnan(want) or math.isinf(want):
            assert got == want or math.isnan(got) and math.isnan(want)
        else:
            assert abs(got - want) <= 1e-12


def test_target_below_any_gsnr_needs_no_power(reference_plan, calibrated_trx):
    # 1e-310 Tb/s asks a GSNR near -3190 dB, whose 10**(-g/10) is past float range.
    assert _target_inv_gsnr(reference_plan, calibrated_trx, 1e-310) == math.inf
    with pytest.raises(InfeasibleError, match="needs -inf dBm, outside the window"):
        required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1e-310)


def test_infeasible_message_peak_at_the_kernel_limits(reference_plan, calibrated_trx):
    """The peak the message reports without NLI (gamma = 0) and without ASE (a unit
    span gain: no lumped losses and a loss argument whose span loss rounds to 0 dB)."""
    capped = ShannonGapTransceiver(calibrated_trx.gap_db, 500.0)  # 1716 carriers: 858 Tb/s
    fiber = reference_plan.fiber
    no_nli = replace(reference_plan, fiber=replace(fiber, gamma_per_w_km=0.0))
    with pytest.raises(InfeasibleError, match=r"peak 858 Tb/s \(at inf dBm\)"):
        required_edfa_power(no_nli, capped, 0.06, 200.0, 1000.0)
    no_ase = replace(reference_plan, amp=replace(reference_plan.amp, pre_input_loss_db=0.0,
                                                 post_output_loss_db=0.0))
    assert gsnr_terms(no_ase, 1e-20, no_ase.n_spans)[0] == 0.0
    with pytest.raises(InfeasibleError, match=r"\(at -inf dBm\)"):
        required_edfa_power(no_ase, calibrated_trx, 1e-20, 200.0, 1e6)


def test_span_curve_increasing(reference_plan, calibrated_trx):
    points = span_length_curve(
        reference_plan, calibrated_trx, 0.06, 150.0, 250.0, 21, 1000.0
    )
    assert all(p.feasible for p in points)
    spans = [p.span_km for p in points]
    required = [p.required_dbm for p in points]
    assert all(b > a for a, b in zip(spans, spans[1:]))
    assert all(b > a for a, b in zip(required, required[1:]))


def test_span_curve_170_vs_200(reference_plan, calibrated_trx):
    at_170 = required_edfa_power(reference_plan, calibrated_trx, 0.06, 170.0, 1000.0)
    at_200 = required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1000.0)
    assert at_200 - at_170 == pytest.approx(1.18, abs=0.05)


def test_span_curve_single_point(reference_plan, calibrated_trx):
    points = span_length_curve(
        reference_plan, calibrated_trx, 0.06, 200.0, 200.0, 1, 1000.0
    )
    assert len(points) == 1
    direct = required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1000.0)
    assert points[0].required_dbm == pytest.approx(direct, abs=1e-12)


def test_span_curve_flags_infeasible_points(reference_plan, calibrated_trx):
    narrow = SolverSettings(power_bracket_dbm=(5.0, 18.0))
    points = span_length_curve(
        reference_plan, calibrated_trx, 0.07, 150.0, 250.0, 11, 1000.0,
        settings=narrow,
    )
    assert any(not p.feasible for p in points)
    for p in points:
        if not p.feasible:
            assert math.isnan(p.required_dbm)


def test_sensitivity_identical_plans(reference_plan, calibrated_trx, reference_op):
    delta = sensitivity_delta(
        reference_plan, calibrated_trx, reference_op.loss_db_per_km, reference_plan, 1000.0
    )
    assert delta == pytest.approx(0.0, abs=1e-12)


def test_sensitivity_imi_degradation(reference_plan, calibrated_trx, reference_op):
    degraded = replace(
        reference_plan, fiber=replace(reference_plan.fiber, imi_db_per_km=-60.0)
    )
    delta = sensitivity_delta(
        reference_plan, calibrated_trx, reference_op.loss_db_per_km, degraded, 1000.0
    )
    assert delta == pytest.approx(1.03, abs=0.05)


def test_sensitivity_rbs_activation(reference_plan, calibrated_trx):
    delta = sensitivity_delta(
        reference_plan, calibrated_trx, 0.05, reference_plan, 1000.0, include_rbs=True
    )
    assert delta == pytest.approx(0.30, abs=0.05)


@pytest.mark.parametrize(
    "args,keys",
    [
        ((0.0, 0.085, 81, 14.0, 25.0, 111), ["sweep.loss_min"]),
        ((0.085, 0.045, 81, 14.0, 25.0, 111), ["sweep.loss_min", "sweep.loss_max"]),
        ((0.045, 0.085, 81, 25.0, 14.0, 111), ["sweep.power_min", "sweep.power_max"]),
        ((0.045, 0.085, 1, 14.0, 25.0, 111), ["sweep.loss_steps"]),
    ],
)
def test_grid_spec_errors_name_sweep_keys(args, keys):
    with pytest.raises(ValueError) as info:
        GridSpec(*args)
    assert all(key in str(info.value) for key in keys)


@pytest.mark.parametrize("gamma", [5e-4, 0.05])
@pytest.mark.parametrize("tabulated", [False, True])
@pytest.mark.parametrize("include_rbs", [False, True])
@pytest.mark.parametrize("window", [(5.0, 30.0), (18.0, 21.0)])
def test_span_curve_equals_per_span_solves(
    reference_plan, calibrated_trx, gamma, tabulated, include_rbs, window
):
    """The one-solve curve gives each span count the power (exactly) and the
    verdict of required_edfa_power at that snapped span."""
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma))
    trx = _STAIRCASE if tabulated else calibrated_trx
    solver = SolverSettings(power_bracket_dbm=window)
    target = 900.0 if tabulated else 1125.0
    points = span_length_curve(plan, trx, 0.06, 100.0, 330.0, 101, target, include_rbs, solver)
    assert len(points) > 10 and any(p.feasible for p in points)
    if window == (18.0, 21.0):
        assert any(not p.feasible for p in points)
    for point in points:
        try:
            power = required_edfa_power(
                plan, trx, 0.06, point.span_km, target, include_rbs, solver
            )
        except InfeasibleError:
            assert not point.feasible and math.isnan(point.required_dbm)
        else:
            assert point.feasible and point.required_dbm == power


def test_span_curve_without_a_full_span_is_empty(reference_plan, calibrated_trx):
    # Spans longer than twice the link round to zero spans: no point is left.
    short = replace(reference_plan, total_length_km=4000.0)
    assert span_length_curve(short, calibrated_trx, 0.06, 8001.0, 10000.0, 5, 1000.0) == []


def test_span_points_bounded_before_allocation(reference_plan, calibrated_trx, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an oversized curve must be refused before sampling")

    # Every sample is snapped through span_count.
    monkeypatch.setattr(explore, "span_count", no_sampling)
    with pytest.raises(ValueError, match="n_points"):
        span_length_curve(
            reference_plan, calibrated_trx, 0.06, 150.0, 250.0, MAX_SPAN_POINTS + 1, 1000.0
        )


def test_span_points_bounded_before_the_samples_are_counted(reference_plan, calibrated_trx,
                                                           monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("an oversized curve must be refused before its samples are counted")

    # The samples are snapped inline and their counts go to one span_terms call.
    monkeypatch.setattr(explore, "span_terms", no_counting)
    with pytest.raises(ValueError, match="n_points"):
        span_length_curve(
            reference_plan, calibrated_trx, 0.06, 150.0, 250.0, MAX_SPAN_POINTS + 1, 1000.0
        )


@pytest.mark.parametrize("span_min,span_max,match", [(1e-300, 250.0, "span_min_km.*MAX_SPANS"),
                                                     (300.0, 200.0, "span_min_km.*span_max_km"),
                                                     (100.0, math.inf, "^span_max_km must lie in .*, "
                                                      "got inf$")])
def test_span_curve_names_its_bad_range(reference_plan, calibrated_trx, span_min, span_max, match):
    with pytest.raises(ValueError, match=match):
        span_length_curve(reference_plan, calibrated_trx, 0.06, span_min, span_max, 21, 1000.0)


def test_span_curve_window_is_inclusive(reference_plan, calibrated_trx):
    power = required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1000.0)
    for window in ((power - 1.0, power), (power, power + 1.0)):
        [point] = span_length_curve(reference_plan, calibrated_trx, 0.06, 200.0, 200.0, 1,
                                    1000.0, settings=SolverSettings(power_bracket_dbm=window))
        assert point.feasible and point.required_dbm == power


def test_span_curve_builds_the_fiber_once(reference_plan, calibrated_trx, monkeypatch):
    built = []
    check = impairments.FiberSpec.__post_init__

    def counting(self):
        built.append(self.loss_db_per_km)
        check(self)

    monkeypatch.setattr(impairments.FiberSpec, "__post_init__", counting)
    # 6600 km in 103.125..330 km spans: every count from 20 to 64.
    points = span_length_curve(reference_plan, calibrated_trx, 0.06, 103.125, 330.0, 1000,
                               1000.0)
    assert len(points) == 45
    assert built == []


def test_span_curve_points_are_immutable_records(reference_plan, calibrated_trx):
    [point] = span_length_curve(reference_plan, calibrated_trx, 0.06, 200.0, 200.0, 1, 1000.0)
    for field in SpanCurvePoint._fields:
        with pytest.raises(AttributeError):
            setattr(point, field, 0.0)
    assert point == SpanCurvePoint(point.span_km, point.required_dbm, point.feasible)


_LOSS_FLOOR = "^loss_db_per_km must be >= 9.663e-308"
# 1e-307 passes FiberSpec but overflows the NLI's asinh argument; 5 dB/km over
# 200 km spans is a 1004 dB span gain, above MAX_SPAN_GAIN_DB.
_BAD_LOSSES = [(0.0, _LOSS_FLOOR), (-1.0, _LOSS_FLOOR), (5e-324, _LOSS_FLOOR),
               (1e-307, "^loss_db_per_km=1e-307 puts the NLI's asinh argument"),
               (5.0, "^loss_db_per_km=5.0 must be >= 0 and keep the span gain"),
               (math.inf, "^loss_db_per_km=inf must be >= 0 and keep the span gain"),
               (1e302, r"^loss_db_per_km=1e\+302 must be >= 0 and keep the span gain")]


@pytest.mark.parametrize("loss,message", _BAD_LOSSES)
def test_bad_loss_gives_one_message_on_both_solves(reference_plan, calibrated_trx, loss,
                                                   message):
    with pytest.raises(ValueError, match=message) as single:
        required_edfa_power(reference_plan, calibrated_trx, loss, 200.0, 1000.0)
    with pytest.raises(ValueError) as curve:
        span_length_curve(reference_plan, calibrated_trx, loss, 200.0, 200.0, 1, 1000.0)
    assert str(curve.value) == str(single.value)


@pytest.mark.parametrize("loss", [loss for loss, message in _BAD_LOSSES[:4]])
def test_bad_loss_is_refused_without_a_full_span(reference_plan, calibrated_trx, loss):
    """The loss checks that need no span count run even when no count is left."""
    short = replace(reference_plan, total_length_km=4000.0)
    with pytest.raises(ValueError) as single:
        required_edfa_power(short, calibrated_trx, loss, 200.0, 1000.0)
    with pytest.raises(ValueError) as curve:
        span_length_curve(short, calibrated_trx, loss, 8001.0, 10000.0, 5, 1000.0)
    assert str(curve.value) == str(single.value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    loss_exp=st.floats(-300.0, 1.0),
    total_exp=st.one_of(st.floats(-3.0, 5.0), st.floats(5.0, 160.0)),
    lo_exp=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 3.0),
    n_points=st.integers(1, 50),
)
def test_span_range_check_refuses_what_the_nli_kernel_refuses(loss_exp, total_exp, lo_exp,
                                                              width, n_points):
    """check_span_range refuses, by the span row alone, every range that samples a
    span whose NLI effective length the kernel refuses: a range it accepts samples
    spans of at most 1e4 km, whose effective lengths pass the kernel at any loss."""
    loss, total = 10.0 ** loss_exp, 10.0 ** total_exp
    lo = total * 10.0 ** lo_exp
    hi = lo * width
    names = ("total", "lo", "hi", "n")
    try:
        counts = explore.check_span_range(total, lo, hi, n_points, names)
    except ValueError as exc:
        assert str(exc).startswith(("lo must lie in", "hi must lie in", "total=")), exc
    else:
        gn_nli_psds_per_span(FiberSpec(), 0.0, [total / n for n in counts], 5e12,
                             DEFAULT_CONSTANTS, loss)


def _row_by_row_sweep(plan, trx, grid, include_rbs):
    """The per-cell formula, row by row: one gsnr_terms per loss, 1/p and p^2 once
    per power, and each cell's rate from the scalar form, in plain floats."""
    losses = np.linspace(grid.loss_min, grid.loss_max, grid.loss_steps).tolist()
    powers = np.linspace(grid.power_min, grid.power_max, grid.power_steps).tolist()
    power_mw = [10.0 ** (p / 10.0) for p in powers]
    gsnr, throughput = [], []
    for loss in losses:
        ase, nli, imi, rbs = gsnr_terms(plan, loss, plan.n_spans, include_rbs)
        row = [10.0 * math.log10(1.0 / (ase * (1.0 / p) + nli * (p * p) + (imi + rbs)))
               for p in power_mw]
        gsnr.append(row)
        throughput.append([trx.net_rate_gbps(g, plan.symbol_rate_hz) * (plan.n_carriers / 1e3)
                           for g in row])
    return losses, powers, gsnr, throughput


def _numpy_broadcast_sweep(plan, trx, grid, include_rbs):
    """The whole-grid numpy broadcast sweep_grid once was, with numpy's rate."""
    losses = np.linspace(grid.loss_min, grid.loss_max, grid.loss_steps)
    powers = np.linspace(grid.power_min, grid.power_max, grid.power_steps)
    ase, nli, imi, rbs = np.array([gsnr_terms(plan, loss, plan.n_spans, include_rbs)
                                   for loss in losses.tolist()]).T
    power_mw = 10.0 ** (powers / 10.0)
    gsnr = np.multiply.outer(ase, 1.0 / power_mw)
    gsnr += np.multiply.outer(nli, power_mw * power_mw)
    gsnr += (imi + rbs)[:, None]
    gsnr = 10.0 * np.log10(1.0 / gsnr)
    if isinstance(trx, TabulatedTransceiver):
        gsnr_knots, rate_knots = zip(*trx.points)
        rate = np.interp(gsnr, gsnr_knots, rate_knots)
    else:
        snr = 10.0 ** ((gsnr - trx.gap_db) / 10.0)
        rate = np.minimum(2.0 * plan.symbol_rate_hz * np.log2(1.0 + snr) / 1e9, trx.max_rate_gbps)
    return gsnr, rate * (plan.n_carriers / 1e3)


_SWEEP_TRX = TabulatedTransceiver(((5.0, 100.0), (8.0, 300.0), (10.0, 300.0), (14.0, 500.0),
                                   (20.0, 600.0)))


@pytest.mark.parametrize("grid", [GridSpec(), GridSpec(0.0451, 0.0849, 37, 13.3, 27.7, 53)],
                         ids=["default", "odd"])
@pytest.mark.parametrize("include_rbs", [False, True])
@pytest.mark.parametrize("tabulated", [False, True])
def test_sweep_broadcast_is_the_row_by_row_sweep(reference_plan, calibrated_trx, grid,
                                                 include_rbs, tabulated):
    """sweep_grid, a whole-grid broadcast before its row kernel, gives every cell
    the bits of the per-cell formula evaluated row by row in plain floats."""
    trx = _SWEEP_TRX if tabulated else calibrated_trx
    swept = sweep_grid(reference_plan, trx, grid, include_rbs)
    expected = _row_by_row_sweep(reference_plan, trx, grid, include_rbs)
    for got, want in zip((swept.loss_db_per_km, swept.edfa_power_dbm, swept.gsnr_db,
                          swept.throughput_tbps), expected):
        assert got.tolist() == want


@pytest.mark.parametrize("grid", [GridSpec(), GridSpec(0.0451, 0.0849, 37, 13.3, 27.7, 53)],
                         ids=["default", "odd"])
@pytest.mark.parametrize("include_rbs", [False, True])
@pytest.mark.parametrize("tabulated", [False, True])
def test_sweep_cells_are_the_numpy_broadcasts_within_2e_15(reference_plan, calibrated_trx, grid,
                                                           include_rbs, tabulated):
    """numpy's vectorised power, log10 and log2 may differ from the C library's by
    an ulp: the row kernel's cells stay within 2e-15 relative of the numpy
    broadcast's, GSNR and throughput alike."""
    trx = _SWEEP_TRX if tabulated else calibrated_trx
    swept = sweep_grid(reference_plan, trx, grid, include_rbs)
    gsnr, throughput = _numpy_broadcast_sweep(reference_plan, trx, grid, include_rbs)
    np.testing.assert_allclose(swept.gsnr_db, gsnr, rtol=2e-15, atol=0.0)
    np.testing.assert_allclose(swept.throughput_tbps, throughput, rtol=2e-15, atol=0.0)
