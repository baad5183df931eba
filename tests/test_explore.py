from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcflink import explore
from hcflink.explore import (
    MAX_GRID_POINTS,
    MAX_SPAN_POINTS,
    GridSpec,
    SolverSettings,
    SweepGrid,
    _cell_cases,
    _linspace,
    _solve_power_dbm,
    _target_inv_gsnr,
    extract_contour,
    required_edfa_power,
    sensitivity_delta,
    span_length_curve,
    sweep_grid,
)
from hcflink.system import (
    InfeasibleError,
    OperatingPoint,
    ShannonGapTransceiver,
    TabulatedTransceiver,
    cable_throughput,
    channel_net_rate,
    gsnr_terms,
    link_gsnr,
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
        GridSpec(0.045, 0.085, 2, 14.0, 25.0, MAX_GRID_POINTS // 2 + 1)


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


def _toy_grid(values):
    values = np.asarray(values, dtype=float)
    xs = np.linspace(0.0, 1.0, values.shape[0])
    ys = np.linspace(0.0, 1.0, values.shape[1])
    return SweepGrid(xs, ys, values, np.copy(values))


def test_contour_constant_field_is_empty():
    grid = _toy_grid(np.ones((4, 4)))
    assert extract_contour(grid, "gsnr", 0.5) == []
    assert extract_contour(grid, "gsnr", 2.0) == []


def test_contour_simple_midline():
    # field rises along the power axis only: contour is a line at mid power
    grid = _toy_grid([[0.0, 1.0], [0.0, 1.0]])
    polylines = extract_contour(grid, "gsnr", 0.5)
    assert len(polylines) == 1
    points = polylines[0]
    assert len(points) == 2
    assert all(y == pytest.approx(0.5, abs=1e-12) for _, y in points)
    assert sorted(x for x, _ in points) == [0.0, 1.0]


@pytest.mark.parametrize(
    "values, level, expected",
    [
        # case 5 (corners 00 and 11 above), center above / below the level
        ([[1.0, 0.0], [0.0, 1.0]], 0.25,
         [[(0.75, 0.0), (1.0, 0.25)], [(0.25, 1.0), (0.0, 0.75)]]),
        ([[1.0, 0.0], [0.0, 1.0]], 0.75,
         [[(0.0, 0.25), (0.25, 0.0)], [(1.0, 0.75), (0.75, 1.0)]]),
        # case 10 (corners 10 and 01 above), center above / below the level
        ([[0.0, 1.0], [1.0, 0.0]], 0.25,
         [[(0.0, 0.25), (0.25, 0.0)], [(1.0, 0.75), (0.75, 1.0)]]),
        ([[0.0, 1.0], [1.0, 0.0]], 0.75,
         [[(0.75, 0.0), (1.0, 0.25)], [(0.25, 1.0), (0.0, 0.75)]]),
    ],
)
def test_contour_saddle_cells(values, level, expected):
    assert extract_contour(_toy_grid(values), "gsnr", level) == expected


def test_cell_cases_match_per_cell_classification():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 4, size=(9, 7)).astype(float)  # many ties at the level
    level = 2.0
    cases = _cell_cases(values, level)
    assert cases.shape == (8, 6)
    for i in range(8):
        for j in range(6):
            corners = (values[i, j], values[i + 1, j], values[i + 1, j + 1], values[i, j + 1])
            expected = sum(1 << bit for bit, v in enumerate(corners) if v >= level)
            assert cases[i, j] == expected


def test_contour_rejects_nan_cells():
    grid = _toy_grid(np.ones((3, 3)))
    grid.gsnr_db[1, 1] = np.nan
    with pytest.raises(ValueError):
        extract_contour(grid, "gsnr", 0.5)


def test_contour_rejects_unknown_field():
    grid = _toy_grid(np.ones((3, 3)))
    with pytest.raises(ValueError):
        extract_contour(grid, "osnr", 0.5)


def test_contour_vertices_reproduce_level(reference_plan, calibrated_trx):
    grid = sweep_grid(
        reference_plan, calibrated_trx, GridSpec(0.045, 0.085, 50, 14.0, 25.0, 50)
    )
    polylines = extract_contour(grid, "throughput", 1000.0)
    assert polylines
    checked = 0
    for line in polylines:
        for loss, power in line:
            thr = cable_throughput(
                reference_plan, calibrated_trx, OperatingPoint(loss, power)
            )
            assert thr == pytest.approx(1000.0, rel=0.01)
            checked += 1
    assert checked >= 20


def test_contour_passes_through_reference_point(reference_plan, calibrated_trx):
    grid = sweep_grid(
        reference_plan, calibrated_trx, GridSpec(0.045, 0.085, 81, 14.0, 25.0, 111)
    )
    polylines = extract_contour(grid, "throughput", 1000.0)
    best = min(
        abs(power - 20.3)
        for line in polylines
        for loss, power in line
        if abs(loss - 0.06) <= 5e-4
    )
    assert best <= 0.3


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
@given(start=st.floats(1e-3, 1e6), width=st.floats(0.0, 1e6), num=st.integers(1, 300))
def test_span_samples_are_numpys_linspace(start, width, num):
    stop = start + width
    assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


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
        got = _solve_power_dbm(gsnr_terms(plan, loss, n, include_rbs), inv_gsnr)
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
    """The peak the message reports without NLI (gamma = 0), without ASE (a unit
    span gain) and with a crosstalk floor below the least normal float."""
    capped = ShannonGapTransceiver(calibrated_trx.gap_db, 500.0)  # 1716 carriers: 858 Tb/s
    fiber = reference_plan.fiber
    no_nli = replace(reference_plan, fiber=replace(fiber, gamma_per_w_km=0.0))
    with pytest.raises(InfeasibleError, match=r"peak 858 Tb/s \(at inf dBm\)"):
        required_edfa_power(no_nli, capped, 0.06, 200.0, 1000.0)
    no_ase = replace(reference_plan, fiber=replace(fiber, loss_db_per_km=1e-20),
                     amp=replace(reference_plan.amp, pre_input_loss_db=0.0,
                                 post_output_loss_db=0.0))
    assert gsnr_terms(no_ase, 1e-20, no_ase.n_spans)[0] == 0.0
    with pytest.raises(InfeasibleError, match=r"\(at -inf dBm\)"):
        required_edfa_power(no_ase, calibrated_trx, 1e-20, 200.0, 1e6)
    subnormal_floor = replace(no_nli, fiber=replace(no_nli.fiber, imi_db_per_km=-3130.0))
    with pytest.raises(InfeasibleError, match=r"peak 858 Tb/s \(at inf dBm\)"):
        required_edfa_power(subnormal_floor, capped, 0.06, 200.0, 1000.0)


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
        reference_plan, calibrated_trx, reference_op, reference_plan, 1000.0
    )
    assert delta == pytest.approx(0.0, abs=1e-12)


def test_sensitivity_imi_degradation(reference_plan, calibrated_trx, reference_op):
    degraded = replace(
        reference_plan, fiber=replace(reference_plan.fiber, imi_db_per_km=-60.0)
    )
    delta = sensitivity_delta(
        reference_plan, calibrated_trx, reference_op, degraded, 1000.0
    )
    assert delta == pytest.approx(1.03, abs=0.05)


def test_sensitivity_rbs_activation(reference_plan, calibrated_trx):
    base = OperatingPoint(0.05, 18.0)
    delta = sensitivity_delta(
        reference_plan, calibrated_trx, base, reference_plan, 1000.0, include_rbs=True
    )
    assert delta == pytest.approx(0.30, abs=0.05)


@pytest.mark.parametrize(
    "args,keys",
    [
        ((0.0, 0.085, 81, 14.0, 25.0, 111), ["sweep.loss_min"]),
        ((0.085, 0.045, 81, 14.0, 25.0, 111), ["sweep.loss_min", "sweep.loss_max"]),
        ((0.045, 0.085, 81, 25.0, 14.0, 111), ["sweep.power_min", "sweep.power_max"]),
        ((0.045, 0.085, 1, 14.0, 25.0, 111), ["sweep.loss_steps", "sweep.power_steps"]),
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
    assert span_length_curve(
        reference_plan, calibrated_trx, 0.06, 14000.0, 20000.0, 5, 1000.0
    ) == []


def test_span_points_bounded_before_allocation(reference_plan, calibrated_trx, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an oversized curve must be refused before sampling")

    # Every sample is snapped through span_count.
    monkeypatch.setattr(explore, "span_count", no_sampling)
    with pytest.raises(ValueError, match="n_points"):
        span_length_curve(
            reference_plan, calibrated_trx, 0.06, 150.0, 250.0, MAX_SPAN_POINTS + 1, 1000.0
        )


def test_span_curve_window_is_inclusive(reference_plan, calibrated_trx):
    power = required_edfa_power(reference_plan, calibrated_trx, 0.06, 200.0, 1000.0)
    for window in ((power - 1.0, power), (power, power + 1.0)):
        [point] = span_length_curve(reference_plan, calibrated_trx, 0.06, 200.0, 200.0, 1,
                                    1000.0, settings=SolverSettings(power_bracket_dbm=window))
        assert point.feasible and point.required_dbm == power
