from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcflink.impairments import MIN_LOSS_DB_PER_KM
from hcflink.system import (
    InfeasibleError,
    LinkPlan,
    OperatingPoint,
    PowerFeedSpec,
    ShannonGapTransceiver,
    TabulatedTransceiver,
    cable_throughput,
    calibrate_trx_gap,
    channel_net_rate,
    channels_in_band,
    gsnr_terms,
    link_gsnr,
    load_transceiver_table,
    per_channel_launch,
    power_feed,
    propagation_latency,
    repeater_count,
)


def test_channels_in_band():
    assert channels_in_band(5e12, 75e9) == 66
    assert channels_in_band(75e9, 75e9) == 1
    assert channels_in_band(5e12, 5e12) == 1
    with pytest.raises(ValueError):
        channels_in_band(0.0, 75e9)
    with pytest.raises(ValueError):
        channels_in_band(5e12, 0.0)


def test_per_channel_launch():
    assert per_channel_launch(20.3, 66, 2.0) == pytest.approx(0.0010243681445333056, rel=1e-12)
    assert per_channel_launch(0.0, 1, 0.0) == pytest.approx(1e-3, rel=1e-12)
    assert per_channel_launch(20.3, 66, 0.0) == pytest.approx(0.0016235140988448578, rel=1e-12)
    with pytest.raises(ValueError):
        per_channel_launch(20.3, 0, 2.0)


def test_link_plan_derived_quantities(reference_plan):
    assert reference_plan.n_spans == 33
    assert reference_plan.effective_span_km == pytest.approx(200.0)
    assert reference_plan.n_channels == 66


def test_link_plan_rounds_span_count_half_up(reference_fiber, reference_amp):
    plan = LinkPlan(fiber=reference_fiber, amp=reference_amp,
                    total_length_km=100.0, span_length_km=40.0)
    assert plan.n_spans == 3  # 100/40 = 2.5 rounds up
    assert plan.effective_span_km == pytest.approx(100.0 / 3.0)


def test_link_plan_validation(reference_fiber, reference_amp):
    with pytest.raises(ValueError):
        LinkPlan(fiber=reference_fiber, amp=reference_amp, total_length_km=0.0)
    with pytest.raises(ValueError):
        LinkPlan(fiber=reference_fiber, amp=reference_amp,
                 channel_spacing_hz=70e9, symbol_rate_hz=73.5e9)
    with pytest.raises(ValueError):
        LinkPlan(fiber=reference_fiber, amp=reference_amp,
                 total_length_km=100.0, span_length_km=500.0)
    with pytest.raises(ValueError):
        LinkPlan(fiber=reference_fiber, amp=reference_amp, n_fibers_per_direction=-1)


def test_link_gsnr_reference_point(reference_plan, reference_op):
    with_rbs = link_gsnr(reference_plan, reference_op, include_rbs=True)
    without = link_gsnr(reference_plan, reference_op, include_rbs=False)
    assert without.gsnr_db == pytest.approx(16.286273438717828, abs=1e-9)
    assert with_rbs.gsnr_db == pytest.approx(15.95135228349376, abs=1e-9)
    assert with_rbs.component_snr_db("ase") == pytest.approx(16.69, abs=5e-3)
    assert with_rbs.component_snr_db("nli") == pytest.approx(75.8, abs=0.05)
    assert with_rbs.component_snr_db("imi") == pytest.approx(26.80, abs=5e-3)
    assert with_rbs.component_snr_db("rbs") == pytest.approx(27.25, abs=5e-3)
    assert without.inv_snr_rbs == 0.0


def test_link_gsnr_rbs_always_costs_something(reference_plan):
    for loss in (0.05, 0.06, 0.07):
        for power in (16.0, 20.3, 24.0):
            op = OperatingPoint(loss, power)
            off = link_gsnr(reference_plan, op, include_rbs=False)
            on = link_gsnr(reference_plan, op, include_rbs=True)
            assert off.gsnr_db > on.gsnr_db


def test_link_gsnr_zero_length_rejected(reference_fiber, reference_amp):
    with pytest.raises(ValueError):
        LinkPlan(fiber=reference_fiber, amp=reference_amp, total_length_km=0.0)


def test_shannon_rate_at_unity_snr():
    trx = ShannonGapTransceiver(gap_db=0.0)
    assert channel_net_rate(trx, 0.0, 73.5e9) == pytest.approx(147.0, rel=1e-12)


def test_shannon_rate_cap_binds():
    trx = ShannonGapTransceiver(gap_db=0.0, max_rate_gbps=100.0)
    assert channel_net_rate(trx, 30.0, 73.5e9) == 100.0


def test_tabulated_rate_interpolates_and_clamps():
    trx = TabulatedTransceiver(((10.0, 400.0), (20.0, 700.0)))
    assert channel_net_rate(trx, 15.0, 73.5e9) == pytest.approx(550.0, rel=1e-12)
    assert channel_net_rate(trx, 5.0, 73.5e9) == 400.0
    assert channel_net_rate(trx, 25.0, 73.5e9) == 700.0


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedTransceiver(((10.0, 400.0), (10.0, 500.0)))
    with pytest.raises(ValueError):
        TabulatedTransceiver(((10.0, 400.0), (20.0, 300.0)))
    with pytest.raises(ValueError):
        TabulatedTransceiver(())


@pytest.mark.parametrize(
    "points, row",
    [
        (((math.nan, 5.0),), 1),
        (((10.0, 400.0), (20.0, math.nan)), 2),
        (((10.0, math.inf),), 1),
        (((-math.inf, 100.0), (10.0, 400.0)), 1),
    ],
)
def test_tabulated_rejects_non_finite_rows(points, row):
    with pytest.raises(ValueError, match=f"table row {row} .* must be finite"):
        TabulatedTransceiver(points)


def test_rate_models_accept_arrays():
    gsnr = np.linspace(-10.0, 30.0, 81)
    for trx in (
        ShannonGapTransceiver(gap_db=4.5, max_rate_gbps=900.0),
        TabulatedTransceiver(((0.0, 100.0), (10.0, 400.0), (20.0, 700.0))),
    ):
        rates = trx.net_rate_gbps(gsnr, 73.5e9)
        assert rates.shape == gsnr.shape
        # numpy's vectorised power/log2 may differ from the scalar path by an ulp
        scalar = [channel_net_rate(trx, g, 73.5e9) for g in gsnr.tolist()]
        np.testing.assert_allclose(rates, scalar, rtol=1e-14, atol=0.0)
        assert type(channel_net_rate(trx, 15.0, 73.5e9)) is float


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    gsnr_db=st.floats(min_value=-1e300, max_value=3000.0),
    gap_db=st.floats(min_value=0.0, max_value=60.0),
    max_rate_gbps=st.sampled_from([math.inf, 600.0]),
)
def test_shannon_scalar_and_array_rates_agree(gsnr_db, gap_db, max_rate_gbps):
    """A Python float goes through math.log2 and min, an array through numpy.

    math.log2 and numpy's log2 differ by at most 1 ulp, which the scaling by
    2*Rs/1e9 can spread to 3 ulps of the rate: that bounds the scalar path
    against numpy's log2 of the same float. The array path's power may also
    differ from Python's by an ulp, which can move 1 + SNR/gap by one ulp of
    its own: log2 moves by up to 2^-52/ln 2 more, times 2*Rs/1e9.
    """
    rs = 73.5e9
    trx = ShannonGapTransceiver(gap_db, max_rate_gbps)
    scalar = trx.net_rate_gbps(gsnr_db, rs)
    assert type(scalar) is float
    ulps = 3 * math.ulp(scalar)
    numpy_log2 = 2.0 * rs * float(np.log2(1.0 + 10.0 ** ((gsnr_db - gap_db) / 10.0))) / 1e9
    assert abs(scalar - min(numpy_log2, max_rate_gbps)) <= ulps
    array = float(trx.net_rate_gbps(np.array([gsnr_db]), rs)[0])
    assert abs(scalar - array) <= ulps + 2.0 * rs / 1e9 * 2.0**-52 / math.log(2.0)


def test_rate_monotone_in_gsnr_both_variants():
    shannon = ShannonGapTransceiver(gap_db=4.5)
    table = TabulatedTransceiver(((0.0, 100.0), (10.0, 400.0), (20.0, 700.0)))
    for trx in (shannon, table):
        rates = [channel_net_rate(trx, g, 73.5e9) for g in np.linspace(-10.0, 30.0, 81)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_channel_net_rate_rejects_non_finite():
    with pytest.raises(ValueError):
        channel_net_rate(ShannonGapTransceiver(0.0), math.nan, 73.5e9)


def test_load_transceiver_table(tmp_path):
    table = tmp_path / "trx.csv"
    table.write_text(
        "# net rate curve\n"
        "\n"
        "10.0, 400.0\n"
        "15, 550  # midpoint\n"
        "20.0, 700.0\n"
    )
    trx = load_transceiver_table(table)
    assert trx.points == ((10.0, 400.0), (15.0, 550.0), (20.0, 700.0))


def test_load_transceiver_table_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("10.0\n")
    with pytest.raises(ValueError):
        load_transceiver_table(bad)
    bad.write_text("10.0, abc\n")
    with pytest.raises(ValueError):
        load_transceiver_table(bad)
    bad.write_text("# rate curve\n10.0, 400.0\n20.0, inf\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite entry"):
        load_transceiver_table(bad)
    bad.write_text("# only comments\n")
    with pytest.raises(ValueError):
        load_transceiver_table(bad)


def test_cable_throughput_reference(reference_plan, reference_op, calibrated_trx):
    thr = cable_throughput(reference_plan, calibrated_trx, reference_op, include_rbs=False)
    assert thr == pytest.approx(1000.0, rel=1e-5)


def test_cable_throughput_zero_fibers(reference_plan, reference_op, calibrated_trx):
    plan = replace(reference_plan, n_fibers_per_direction=0)
    assert cable_throughput(plan, calibrated_trx, reference_op) == 0.0


def test_repeater_count():
    assert repeater_count(6600.0, 200.0) == 32
    assert repeater_count(6600.0, 6600.0) == 0
    assert repeater_count(6600.0, 66.0) == 99
    with pytest.raises(ValueError):
        repeater_count(6600.0, 6601.0)


def test_repeater_count_partition_identity():
    for span in (66.0, 170.0, 200.0, 230.0, 330.0):
        n_spans = repeater_count(6600.0, span) + 1
        assert n_spans * (6600.0 / n_spans) == pytest.approx(6600.0, abs=1e-9)


def test_power_feed_reference_numbers():
    result = power_feed(PowerFeedSpec(), 6600.0, 32)
    assert result.cable_w == 6600.0
    assert result.repeaters_w == 5760.0
    assert result.total_w == 12360.0
    assert result.within_limit


def test_power_feed_zero():
    result = power_feed(PowerFeedSpec(), 0.0, 0)
    assert result.total_w == 0.0 and result.within_limit


def test_power_feed_quadratic_in_current():
    result = power_feed(PowerFeedSpec(feed_current_a=2.0), 6600.0, 32)
    assert result.cable_w == 26400.0
    assert not result.within_limit


def test_power_feed_linear_in_repeaters():
    feed = PowerFeedSpec()
    for n in (0, 1, 10, 32, 100):
        assert power_feed(feed, 0.0, n).repeaters_w == n * 180.0


def test_power_feed_spec_validation():
    with pytest.raises(ValueError):
        PowerFeedSpec(feed_current_a=0.0)


def test_propagation_latency():
    assert propagation_latency(6600.0, 1.0003) == pytest.approx(22.02, abs=5e-3)
    assert propagation_latency(6600.0, 1.468) == pytest.approx(32.32, abs=5e-3)
    assert propagation_latency(0.0, 1.5) == 0.0
    with pytest.raises(ValueError):
        propagation_latency(6600.0, 0.99)


def test_calibrated_gap_value(calibrated_gap):
    # frozen from solving 147*log2(1 + SNR/gap) = 1e6/(26*66) at the
    # reference GSNR of 16.2863 dB
    assert calibrated_gap == pytest.approx(4.640121712601395, abs=2e-3)


def test_calibration_residual(reference_plan, reference_op, calibrated_trx):
    thr = cable_throughput(reference_plan, calibrated_trx, reference_op)
    assert abs(thr - 1000.0) <= 1e-6 * 1000.0


def test_calibration_zero_gap_target(reference_plan, reference_op):
    zero_gap = cable_throughput(reference_plan, ShannonGapTransceiver(0.0), reference_op)
    assert calibrate_trx_gap(reference_plan, reference_op, zero_gap) == 0.0


def test_calibrated_gap_is_the_closed_form(reference_plan, reference_op, calibrated_trx):
    # gap = SNR / (2^(R/2Rs) - 1): exact, not a bisection's 1e-6 stopping rule
    assert calibrated_trx.gap_db == pytest.approx(4.640121712601395, abs=1e-9)
    thr = cable_throughput(reference_plan, calibrated_trx, reference_op)
    assert thr == pytest.approx(1000.0, rel=1e-12)


def test_required_gsnr_inverts_the_rate():
    shannon = ShannonGapTransceiver(4.64, max_rate_gbps=800.0)
    for rate in (1e-3, 300.0, 799.9, 800.0):
        gsnr_db = shannon.required_gsnr_db(rate, 73.5e9)
        assert channel_net_rate(shannon, gsnr_db, 73.5e9) == pytest.approx(rate, rel=1e-12)
    assert shannon.required_gsnr_db(800.1, 73.5e9) == math.inf
    assert shannon.required_gsnr_db(0.0, 73.5e9) == -math.inf
    assert ShannonGapTransceiver(0.0).required_gsnr_db(1e300, 73.5e9) == math.inf
    table = TabulatedTransceiver(((5.0, 100.0), (8.0, 300.0), (10.0, 300.0), (14.0, 500.0)))
    assert table.required_gsnr_db(200.0, 73.5e9) == pytest.approx(6.5, abs=1e-12)
    assert table.required_gsnr_db(300.0, 73.5e9) == 8.0  # left end of the flat segment
    assert table.required_gsnr_db(500.0, 73.5e9) == 14.0
    assert table.required_gsnr_db(100.0, 73.5e9) == -math.inf
    assert table.required_gsnr_db(500.1, 73.5e9) == math.inf


def test_calibration_infeasible_target(reference_plan, reference_op):
    zero_gap = cable_throughput(reference_plan, ShannonGapTransceiver(0.0), reference_op)
    with pytest.raises(InfeasibleError):
        calibrate_trx_gap(reference_plan, reference_op, 10.0 * zero_gap)


@pytest.mark.parametrize("include_rbs", [False, True])
def test_gsnr_terms_scale_to_the_operating_point(reference_plan, include_rbs):
    """At p mW the budget is ASE/p + NLI*p^2 + IMI + RBS of the 1 mW terms."""
    ase, nli, imi, rbs = gsnr_terms(reference_plan, 0.06, reference_plan.n_spans, include_rbs)
    assert (rbs > 0) == include_rbs
    budget = link_gsnr(reference_plan, OperatingPoint(0.06, 20.3), include_rbs)
    p_mw = 10.0 ** 2.03
    assert budget.inv_snr_ase == pytest.approx(ase / p_mw, rel=1e-15)
    assert budget.inv_snr_nli == pytest.approx(nli * p_mw * p_mw, rel=1e-15)
    assert (budget.inv_snr_imi, budget.inv_snr_rbs) == (imi, rbs)


def test_gsnr_terms_follow_the_span_count(reference_plan):
    """Fewer, longer spans: more gain per block, so more ASE in total."""
    short = gsnr_terms(reference_plan, 0.06, 40)
    long = gsnr_terms(reference_plan, 0.06, 20)
    assert long[0] > short[0]
    assert long[2] == short[2]  # crosstalk depends on the length only
    with pytest.raises(ValueError, match="span gain"):
        gsnr_terms(reference_plan, 0.5, 1)  # 3300 dB in one span


@pytest.mark.parametrize(
    "kwargs,keys",
    [
        ({"span_length_km": 8000.0}, ["span.span_length_km", "link.total_length_km"]),
        ({"span_length_km": -1.0}, ["span.span_length_km"]),
        ({"total_length_km": 1e300, "span_length_km": 1e-10},
         ["link.total_length_km", "span.span_length_km"]),
        ({"band_hz": 1e300}, ["link.band_hz"]),
    ],
)
def test_link_plan_names_its_keys(reference_fiber, reference_amp, kwargs, keys):
    with pytest.raises(ValueError) as info:
        LinkPlan(fiber=reference_fiber, amp=reference_amp, **kwargs)
    assert all(key in str(info.value) for key in keys)


@pytest.mark.parametrize("power", [300.5, -300.5, 4000.0, math.nan])
def test_operating_point_power_is_bounded(power):
    with pytest.raises(ValueError, match="edfa_total_output_dbm"):
        OperatingPoint(0.06, power)


def test_link_gsnr_at_power_bound_is_finite(reference_plan):
    for power in (-300.0, 300.0):
        budget = link_gsnr(reference_plan, OperatingPoint(0.06, power))
        assert math.isfinite(budget.gsnr_db)


def test_shannon_rate_beyond_float_range_is_a_value_error():
    trx = ShannonGapTransceiver(0.0)
    with pytest.raises(ValueError, match="gsnr_db"):
        channel_net_rate(trx, 4000.0, 73.5e9)
    assert math.isfinite(channel_net_rate(trx, 3000.0, 73.5e9))
    # Arrays keep numpy's overflow to inf; only the scalar path raises.
    with np.errstate(over="ignore"):
        assert trx.net_rate_gbps(np.array([20.0, 4000.0]), 73.5e9)[1] == math.inf


def test_shannon_rate_overflow_is_the_same_error_for_a_numpy_scalar():
    trx = ShannonGapTransceiver(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gsnr_db in (4000.0, np.float64(4000.0)):
            with pytest.raises(ValueError, match="gsnr_db = 4000.0 puts SNR/gap beyond float range"):
                channel_net_rate(trx, gsnr_db, 73.5e9)
        assert channel_net_rate(trx, np.float64(20.0), 73.5e9) == channel_net_rate(
            trx, 20.0, 73.5e9)


@pytest.mark.parametrize("count", [10**6 + 1, 10**400])
def test_fiber_count_is_bounded(reference_fiber, reference_amp, count):
    with pytest.raises(ValueError, match=r"link\.n_fibers_per_direction must be <= 1e6"):
        LinkPlan(fiber=reference_fiber, amp=reference_amp, n_fibers_per_direction=count)
    plan = LinkPlan(fiber=reference_fiber, amp=reference_amp, n_fibers_per_direction=10**6)
    assert plan.n_fibers_per_direction == 10**6


def _searchsorted_required_gsnr_db(table: TabulatedTransceiver, rate_gbps: float) -> float:
    """The tabulated inverse as numpy's searchsorted computed it."""
    gsnr = np.array([g for g, _ in table.points])
    rate = np.array([r for _, r in table.points])
    k = int(np.searchsorted(rate, rate_gbps))
    if k in (0, len(rate)):
        return -math.inf if k == 0 else math.inf
    share = (rate[k] - rate_gbps) / (rate[k] - rate[k - 1])
    return float(gsnr[k] - share * (gsnr[k] - gsnr[k - 1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    steps=st.lists(st.tuples(st.floats(0.01, 10.0), st.sampled_from([0.0, 0.5, 1.0, 37.0])),
                   min_size=1, max_size=8),
    pick=st.integers(0, 7),
    rate=st.one_of(st.floats(-10.0, 400.0), st.sampled_from([math.nan, math.inf, -math.inf])),
)
def test_tabulated_inverse_matches_searchsorted(steps, pick, rate):
    """bisect_left on the stored rates is np.searchsorted(side="left"), bit for bit,
    on flat segments, at table rates, outside the table and for NaN."""
    points, g, r = [], 0.0, 50.0
    for dg, dr in steps:
        g, r = g + dg, r + dr
        points.append((g, r))
    table = TabulatedTransceiver(tuple(points))
    for x in (rate, points[pick % len(points)][1]):
        assert table.required_gsnr_db(x, 73.5e9) == _searchsorted_required_gsnr_db(table, x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    exponent=st.floats(-307.99, -295.0),
    band_hz=st.floats(75e9, 1.9e14),
    dispersion=st.floats(1e-6, 1e6),
)
def test_tiny_loss_is_named_or_gives_finite_terms(reference_plan, exponent, band_hz, dispersion):
    """Near the NLI's asinh overflow a loss either is refused by check_nli_loss,
    naming its key, or gives finite gsnr_terms; never an inf term."""
    fiber = replace(reference_plan.fiber, dispersion_ps_nm_km=dispersion)
    plan = replace(reference_plan, fiber=fiber, band_hz=band_hz)
    loss = max(10.0**exponent, MIN_LOSS_DB_PER_KM)
    try:
        plan.check_nli_loss(loss, name="sweep.loss_min")
    except ValueError as exc:
        assert "sweep.loss_min" in str(exc) and "asinh argument" in str(exc)
        return
    assert all(math.isfinite(term) for term in gsnr_terms(plan, loss, plan.n_spans))
