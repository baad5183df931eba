from __future__ import annotations

import hashlib
import itertools
import math
import re
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcflink import system
from hcflink.config import GridSpec
from hcflink.domain import DOMAIN
from hcflink.explore import required_edfa_power, sensitivity_delta, span_length_curve, sweep_rows
from hcflink.impairments import (
    AmplifierSpec,
    FiberSpec,
    gn_nli_psd_per_span,
    gn_nli_psds_per_span,
    imi_inv_snr,
    nli_inv_snrs,
    rbs_brute_force,
    rbs_inv_snr,
    rbs_power,
)
from hcflink.system import (
    DEFAULT_CONSTANTS,
    MAX_CHANNELS,
    MAX_SPAN_GAIN_DB,
    MAX_SPANS,
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
    span_count,
    span_terms,
)


def test_channels_in_band():
    assert channels_in_band(5e12, 75e9) == 66
    assert channels_in_band(75e9, 75e9) == 1
    assert channels_in_band(5e12, 5e12) == 1
    assert channels_in_band(float(MAX_CHANNELS), 1.0) == MAX_CHANNELS
    assert channels_in_band(5e12, 5e12 / MAX_CHANNELS) == MAX_CHANNELS
    with pytest.raises(ValueError):
        channels_in_band(0.0, 75e9)
    with pytest.raises(ValueError):
        channels_in_band(5e12, 0.0)


@pytest.mark.parametrize("band,spacing", [(0.0, 75e9), (5e12, -1.0), (5e12, 1e-300),
                                          (MAX_CHANNELS + 1.0, 1.0)])
def test_channels_in_band_names_its_widths(band, spacing):
    with pytest.raises(ValueError) as info:
        channels_in_band(band, spacing, ("the-band", "the-spacing"))
    wanted = {"the-band"} if band <= 0 else {"the-spacing"} if spacing <= 0 else {
        "the-band", "the-spacing", "MAX_CHANNELS"}
    assert all(name in str(info.value) for name in wanted)


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


@pytest.mark.parametrize("total,span", [(0.0, 200.0), (6600.0, -1.0), (6600.0, 1e-300)])
def test_span_count_names_its_lengths(total, span):
    with pytest.raises(ValueError) as info:
        span_count(total, span, ("the-total", "the-span"))
    wanted = {"the-total"} if total <= 0 else {"the-span"} if span <= 0 else {
        "the-total", "the-span", "MAX_SPANS"}
    assert all(name in str(info.value) for name in wanted)


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


def test_tabulated_checks_every_row_before_the_order():
    """Row 3's NaN is named although rows 1 and 2 already break the order."""
    with pytest.raises(ValueError, match=r"^table row 3 \(20.0, nan\) must be finite$"):
        TabulatedTransceiver(((10.0, 400.0), (5.0, 300.0), (20, "nan")))
    with pytest.raises(ValueError, match="^table gsnr_db must be strictly increasing: 10.0 then 5"):
        TabulatedTransceiver(((10.0, 400.0), (5.0, 300.0), (20, 700)))


@pytest.mark.parametrize(
    "points, named",
    [
        (((-1.7e308, -1.7e308), (1.7e308, 1.7e308)),
         "rows 1 (-1.7e+308, -1.7e+308) and 2 (1.7e+308, 1.7e+308)"),
        (((-1.7e308, 5.0), (1.7e308, 5.0)), "rows 1 (-1.7e+308, 5.0) and 2 (1.7e+308, 5.0)"),
        (((0.0, -1.7e308), (1.0, 1.7e308)), "rows 1 (0.0, -1.7e+308) and 2 (1.0, 1.7e+308)"),
        (((10.0, 400.0), (20.0, 700.0), (20.000000000000004, 1e300)),
         "rows 2 (20.0, 700.0) and 3 (20.000000000000004, 1e+300)"),
    ],
)
def test_tabulated_rejects_a_segment_that_overflows(points, named):
    """A segment whose width g1 - g0 or slope (r1 - r0)/(g1 - g0) is beyond float
    range is refused, naming both rows."""
    with pytest.raises(ValueError, match=f"^table {re.escape(named)}: the segment's width or "
                                         f"slope is beyond float range$"):
        TabulatedTransceiver(points)


def test_tabulated_checks_the_order_before_the_segments():
    """Rows 1 and 2 overflow, but row 3 breaks the order, and that is named."""
    with pytest.raises(ValueError, match="^table gsnr_db must be strictly increasing"):
        TabulatedTransceiver(((-1.7e308, 0.0), (1.7e308, 1.0), (0.0, 2.0)))


def test_rate_models_have_a_sequence_form():
    gsnr = np.linspace(-10.0, 30.0, 81)
    shannon = ShannonGapTransceiver(gap_db=4.5, max_rate_gbps=900.0)
    table = TabulatedTransceiver(((0.0, 100.0), (10.0, 400.0), (20.0, 700.0)))
    for trx, numpy_rates in (
        (shannon, np.minimum(2.0 * 73.5e9 * np.log2(1.0 + 10.0 ** ((gsnr - 4.5) / 10.0)) / 1e9,
                             900.0)),
        (table, np.interp(gsnr, (0.0, 10.0, 20.0), (100.0, 400.0, 700.0))),
    ):
        rates = trx.net_rates_gbps(gsnr.tolist(), 73.5e9)
        assert type(rates) is list and len(rates) == len(gsnr)
        assert all(type(rate) is float for rate in rates)
        # numpy's vectorised power/log2 may differ from the math calls by an ulp
        np.testing.assert_allclose(rates, numpy_rates, rtol=1e-14, atol=0.0)
        # The scalar form is the sequence form of one GSNR, bit for bit.
        assert rates == [channel_net_rate(trx, g, 73.5e9) for g in gsnr.tolist()]
        assert trx.net_rates_gbps((), 73.5e9) == []
        assert type(channel_net_rate(trx, 15.0, 73.5e9)) is float


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    gsnr_db=st.floats(min_value=-1e300, max_value=3000.0),
    gap_db=st.floats(min_value=0.0, max_value=60.0),
    max_rate_gbps=st.sampled_from([math.inf, 600.0]),
)
def test_shannon_scalar_and_sequence_rates_agree(gsnr_db, gap_db, max_rate_gbps):
    """The scalar form is the sequence form of one GSNR, and both use math.log2.

    math.log2 and numpy's log2 differ by at most 1 ulp, which the scaling by
    2*Rs/1e9 can spread to 3 ulps of the rate: that bounds the math path against
    numpy's log2 of the same float. numpy's vectorised power may also differ from
    Python's by an ulp, which can move 1 + SNR/gap by one ulp of its own: log2
    moves by up to 2^-52/ln 2 more, times 2*Rs/1e9.
    """
    rs = 73.5e9
    trx = ShannonGapTransceiver(gap_db, max_rate_gbps)
    scalar = trx.net_rate_gbps(gsnr_db, rs)
    assert type(scalar) is float
    ulps = 3 * math.ulp(scalar)
    numpy_log2 = 2.0 * rs * float(np.log2(1.0 + 10.0 ** ((gsnr_db - gap_db) / 10.0))) / 1e9
    assert abs(scalar - min(numpy_log2, max_rate_gbps)) <= ulps
    assert trx.net_rates_gbps([gsnr_db, gsnr_db], rs) == [scalar, scalar]
    array = float(np.minimum(
        2.0 * rs * np.log2(1.0 + 10.0 ** ((np.array([gsnr_db]) - gap_db) / 10.0)) / 1e9,
        max_rate_gbps)[0])
    assert abs(scalar - array) <= ulps + 2.0 * rs / 1e9 * 2.0**-52 / math.log(2.0)


def _knots(n):
    """n strictly increasing GSNR knots and n nondecreasing rates of any sign."""
    ends = [-1.7e308, 1.7e308]  # a segment between them overflows: the table is refused
    gsnr = st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, 5e-324, *ends]),
                    min_size=n, max_size=n, unique=True).map(sorted)
    rate = st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1e-300, 5e-324, *ends]),
                    min_size=n, max_size=n).map(sorted)
    return st.tuples(gsnr, rate).filter(lambda gr: all(b > a for a, b in zip(gr[0], gr[0][1:])))


@st.composite
def _tables_and_gsnrs(draw):
    n = draw(st.integers(1, 6))
    gsnr, rate = draw(_knots(n))
    if n > 1 and draw(st.booleans()):  # a flat segment
        j = draw(st.integers(0, n - 2))
        rate[j + 1] = rate[j]
    near = [x for g in gsnr
            for x in (g, math.nextafter(g, -math.inf), math.nextafter(g, math.inf))]
    xs = draw(st.lists(st.sampled_from(near) | st.floats(-2e6, 2e6)
                       | st.sampled_from([gsnr[0] - 1.0, gsnr[-1] + 1.0, -math.inf, math.inf,
                                          math.nan]),
                       min_size=1, max_size=12))
    try:
        table = TabulatedTransceiver(tuple(zip(gsnr, rate)))
    except ValueError:  # a segment whose width or slope overflows
        assume(False)
    return table, xs


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(_tables_and_gsnrs())
@example((TabulatedTransceiver(((-8.9e307, 2.0), (0.0, 2.0), (8.9e307, 3.0))),
          [-1e307, -0.0, math.nextafter(0.0, -1.0), 1e307, math.nextafter(8.9e307, 0.0)]))
@example((TabulatedTransceiver(((-1.0, 2.0), (8.9e307, 2.0))), [0.0, 8.8e307]))
@example((TabulatedTransceiver(((0.0, -0.0), (1.0, 0.0), (2.0, 5.0))),
          [-math.inf, math.inf, 0.5, 1.5, -1.0, 3.0]))
@example((TabulatedTransceiver(((5.0, 100.0),)), [math.nan, 5.0, -math.inf, math.inf]))
@example((TabulatedTransceiver(((0.0, 1.0), (1.0, 2.0), (2.0, 2.0))), [math.nan, 1.5]))
@example((TabulatedTransceiver(((-0.0, 1.0), (1.0, 2.0))), [-0.0, 0.0, 5e-324]))
def test_tabulated_rates_are_np_interp_bit_for_bit(table_xs):
    """Accepted tables only: one-point tables, flat segments, every knot and one
    nextafter either side of it, and GSNRs beyond both ends: the sequence and the
    scalar form give np.interp's float, NaN only for a NaN GSNR in a table of two
    or more points. The examples run each branch of net_rates_gbps: a flat
    segment beside a +-8.9e307 knot, a +-inf GSNR, NaN in a one-point and a
    longer table, and x on a -0.0 knot."""
    table, xs = table_xs
    gsnr, rate = zip(*table.points)
    want = np.interp(np.array(xs), np.array(gsnr), np.array(rate)).tolist()
    got = table.net_rates_gbps(xs, 73.5e9)
    scalar = [table.net_rate_gbps(x, 73.5e9) for x in xs]
    for x, w, g, one in zip(xs, want, got, scalar):
        assert (math.isnan(w) and math.isnan(g) and math.isnan(one)) or (
            float.hex(g) == float.hex(w) == float.hex(one))
        assert not math.isnan(g) or (math.isnan(x) and len(gsnr) > 1)


def test_rate_monotone_in_gsnr_both_variants():
    shannon = ShannonGapTransceiver(gap_db=4.5)
    table = TabulatedTransceiver(((0.0, 100.0), (10.0, 400.0), (20.0, 700.0)))
    for trx in (shannon, table):
        rates = [channel_net_rate(trx, g, 73.5e9) for g in np.linspace(-10.0, 30.0, 81)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: ShannonGapTransceiver(-0.5), "gap_db must be >= 0, got -0.5",
                     id="shannon-gap"),
        pytest.param(lambda: ShannonGapTransceiver(1.0, 0.0),
                     "max_rate_gbps must be > 0, got 0.0", id="shannon-cap"),
        pytest.param(lambda: per_channel_launch(20.0, 10, -1.0),
                     "post_output_loss_db must lie in [0, 50], got -1.0", id="per_channel_launch"),
        pytest.param(lambda: power_feed(PowerFeedSpec(), -1.0, 3),
                     "total_length_km must lie in [0.001, 100000], got -1.0",
                     id="power_feed-length"),
        pytest.param(lambda: power_feed(PowerFeedSpec(), 100.0, -1),
                     "n_repeaters must lie in [0, 99999], got -1", id="power_feed-repeaters"),
        pytest.param(lambda: propagation_latency(-1.0, 1.0),
                     "total_length_km must lie in [0.001, 100000], got -1.0",
                     id="propagation_latency"),
        pytest.param(lambda: imi_inv_snr(-30.0, -1.0),
                     "total_length_km must lie in [0.001, 100000], got -1.0", id="imi_inv_snr"),
        pytest.param(lambda: calibrate_trx_gap(LinkPlan(FiberSpec(), AmplifierSpec()),
                                               OperatingPoint(0.06, 20.3), 0.0),
                     "target_tbps must lie in [0.001, 1e+09], got 0.0", id="calibrate_trx_gap"),
        pytest.param(lambda: nli_inv_snrs([(-1e-30, 3)], 73.5e9, 1e-3),
                     "psd_per_span_w_hz must be >= 0, got -1e-30", id="nli_inv_snrs"),
        pytest.param(lambda: rbs_power(-1.0, -70.0, 100.0, 12.0),
                     "launch_w must be >= 0, got -1.0", id="rbs_power"),
        pytest.param(lambda: rbs_brute_force(-1.0, -70.0, 0.06, 200.0, 3, 1.0),
                     "launch_w must be >= 0, got -1.0", id="rbs_brute_force-launch"),
        pytest.param(lambda: rbs_brute_force(1e-3, -70.0, 0.06, 0.0, 3, 1.0),
                     "span_km must be > 0, got 0.0", id="rbs_brute_force-span"),
        pytest.param(lambda: rbs_brute_force(1e-3, -70.0, 0.06, 200.0, -1, 1.0),
                     "n_spans must be >= 0, got -1", id="rbs_brute_force-count"),
        # The NLI prefix's cube used to leave float range as an uncaught OverflowError.
        pytest.param(lambda: gn_nli_psd_per_span(FiberSpec(), 1e103, 100.0, 5e12,
                                                 DEFAULT_CONSTANTS),
                     "launch_psd_w_hz=1e+103 puts the NLI prefix (8/27)*gamma^2*PSD^3 beyond "
                     "float range at fiber.gamma_per_w_km=0.0005", id="gn_nli-prefix-overflow"),
        pytest.param(lambda: gn_nli_psd_per_span(FiberSpec(gamma_per_w_km=0.0), math.inf, 100.0,
                                                 5e12, DEFAULT_CONSTANTS),
                     "launch_psd_w_hz=inf puts the NLI prefix (8/27)*gamma^2*PSD^3 beyond "
                     "float range at fiber.gamma_per_w_km=0", id="gn_nli-prefix-nan"),
    ],
)
def test_library_argument_check_names_its_argument(call, message):
    """The argument checks no command reaches, each with its message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Each raw library argument that a row holds: the call with that argument set to v,
# the name its refusal gives, and the row (a count's as ints).
_ROW_ARGUMENTS = {
    "propagation_latency-length": (lambda v: propagation_latency(v, 1.0003), "total_length_km",
                                   DOMAIN["link.total_length_km"]),
    "propagation_latency-index": (lambda v: propagation_latency(6600.0, v), "group_index",
                                  DOMAIN["fiber.group_index"]),
    "propagation_latency-named-index": (
        lambda v: propagation_latency(6600.0, v, "fiber.group_index"), "fiber.group_index",
        DOMAIN["fiber.group_index"]),
    "power_feed-length": (lambda v: power_feed(PowerFeedSpec(), v, 32), "total_length_km",
                          DOMAIN["link.total_length_km"]),
    "power_feed-repeaters": (lambda v: power_feed(PowerFeedSpec(), 6600.0, v), "n_repeaters",
                             (0, MAX_SPANS - 1)),
    "imi_inv_snr-ratio": (lambda v: imi_inv_snr(v, 6600.0), "imi_db_per_km",
                          DOMAIN["fiber.imi_db_per_km"]),
    "imi_inv_snr-length": (lambda v: imi_inv_snr(-65.0, v), "total_length_km",
                           DOMAIN["link.total_length_km"]),
    "rbs_power-ratio": (lambda v: rbs_power(1e-3, v, 6600.0, 12.0), "backscatter_db_per_km",
                        DOMAIN["fiber.backscatter_db_per_km"]),
    "rbs_power-length": (lambda v: rbs_power(1e-3, -70.0, v, 12.0), "total_length_km",
                         DOMAIN["link.total_length_km"]),
    "rbs_inv_snr-ratio": (lambda v: rbs_inv_snr(v, 6600.0, 12.0), "backscatter_db_per_km",
                          DOMAIN["fiber.backscatter_db_per_km"]),
    "rbs_inv_snr-length": (lambda v: rbs_inv_snr(-70.0, v, 12.0), "total_length_km",
                           DOMAIN["link.total_length_km"]),
    "per_channel_launch-power": (lambda v: per_channel_launch(v, 66, 2.0), "edfa_total_output_dbm",
                                 DOMAIN["amplifier.total_output_power_dbm"]),
    "per_channel_launch-channels": (lambda v: per_channel_launch(20.3, v, 2.0), "n_channels",
                                    (1, MAX_CHANNELS)),
    "per_channel_launch-loss": (lambda v: per_channel_launch(20.3, 66, v), "post_output_loss_db",
                                DOMAIN["amplifier.post_output_loss_db"]),
}


@pytest.mark.parametrize("argument", list(_ROW_ARGUMENTS))
def test_raw_library_value_outside_its_row_is_refused_by_name(argument):
    """0 where the row leaves it out, the values just past either end, NaN and +-inf
    are refused with the row's message under the argument's name, and a count that is
    not whole inside its row under its name; both ends give a finite result."""
    call, name, (low, high) = _ROW_ARGUMENTS[argument]
    if isinstance(low, int):
        below, above, zero = low - 1, high + 1, 0
        for value in (low + 0.5, high - 0.5):
            message = f"{name} must be a whole number, got {value}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value)
    else:
        below, above, zero = math.nextafter(low, -math.inf), math.nextafter(high, math.inf), 0.0
    for value in [zero] * (not low <= 0 <= high) + [below, above, math.nan, math.inf, -math.inf]:
        message = f"{name} must lie in [{low:g}, {high:g}], got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    for value in (low, high):
        result = call(value)
        assert 0 <= getattr(result, "total_w", result) < math.inf


def test_latency_and_feed_budget_are_finite_at_their_rows_corners():
    """The audit behind the missing overflow checks: at every corner of the length,
    group-index, feed and repeater-count rows, the latency is at most 667.2 ms and
    the feed budget at most 1.1e12 W."""
    lengths, indices = DOMAIN["link.total_length_km"], DOMAIN["fiber.group_index"]
    assert all(0 < propagation_latency(km, n) <= 667.2 for km in lengths for n in indices)
    feed_rows = [DOMAIN[f"powerfeed.{field.name}"] for field in fields(PowerFeedSpec)]
    for values in itertools.product(*feed_rows):
        for km, n_repeaters in itertools.product(lengths, (0, MAX_SPANS - 1)):
            assert 0 < power_feed(PowerFeedSpec(*values), km, n_repeaters).total_w <= 1.1e12


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


def test_load_transceiver_table_reads_a_rewritten_file(tmp_path):
    table = tmp_path / "trx.csv"
    table.write_text("10.0, 400.0\n20.0, 700.0\n")
    assert load_transceiver_table(table).points == ((10.0, 400.0), (20.0, 700.0))
    table.write_text("10.0, 400.0\n20.0, 800.0\n")  # same path, maybe the same mtime
    assert load_transceiver_table(table).points == ((10.0, 400.0), (20.0, 800.0))


def test_load_transceiver_table_raises_on_every_call(tmp_path):
    table = tmp_path / "trx.csv"
    table.write_text("10.0, 400.0\n")
    load_transceiver_table(table)
    table.write_text("10.0, 400.0\n20.0, abc\n")
    for _ in range(3):
        with pytest.raises(ValueError, match=r"trx\.csv:2: non-numeric entry '20\.0, abc'$"):
            load_transceiver_table(table)


def test_load_transceiver_table_errors_name_their_own_path(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    for path in (first, second, first):
        path.write_text("10.0, 400.0\n\n12.0\n")
        with pytest.raises(ValueError) as info:
            load_transceiver_table(path)
        assert str(info.value) == f"{path}:3: expected 'gsnr_db,net_rate_gbps'"


def test_load_transceiver_table_parses_each_text_once(tmp_path):
    """The same (path, text) returns the same immutable model; each call
    still reads the file."""
    table = tmp_path / "trx.csv"
    table.write_text("10.0, 400.0\n20.0, 700.0\n")
    first = load_transceiver_table(table)
    assert load_transceiver_table(str(table)) is first
    table.write_text("10.0, 400.0\n20.0, 750.0\n")
    assert load_transceiver_table(table) is not first
    table.write_text("10.0, 400.0\n20.0, 700.0\n")
    assert load_transceiver_table(table) is first



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


def test_repeater_count_checks_the_lengths_before_their_order():
    # A link of negative length is refused as such, not as shorter than its span.
    with pytest.raises(ValueError, match="total_length_km must be > 0, got -1"):
        repeater_count(-1, 200)
    with pytest.raises(ValueError, match="the-span=6601.0 must not exceed the-total=6600.0"):
        repeater_count(6600.0, 6601.0, ("the-total", "the-span"))


def test_power_feed_reference_numbers():
    result = power_feed(PowerFeedSpec(), 6600.0, 32)
    assert result.cable_w == 6600.0
    assert result.repeaters_w == 5760.0
    assert result.total_w == 12360.0
    assert result.within_limit


def test_power_feed_zero():
    result = power_feed(PowerFeedSpec(), 1e-3, 0)
    assert result.cable_w == 1e-3 and result.repeaters_w == 0.0 and result.within_limit


def test_power_feed_quadratic_in_current():
    result = power_feed(PowerFeedSpec(feed_current_a=2.0), 6600.0, 32)
    assert result.cable_w == 26400.0
    assert not result.within_limit


def test_power_feed_linear_in_repeaters():
    feed = PowerFeedSpec()
    for n in (0, 1, 10, 32, 100):
        assert power_feed(feed, 1e-3, n).repeaters_w == n * 180.0


_FEED_CORNER = PowerFeedSpec(feed_current_a=100.0, cable_resistance_ohm_per_km=1e3,
                             repeater_power_w=1e6)


@pytest.mark.parametrize("feed,total_km,n_repeaters,name", [
    # The lengths and counts that overflowed the budget of feeds inside their rows.
    pytest.param(_FEED_CORNER, 1e303, 32, "total_length_km", id="cable"),
    pytest.param(_FEED_CORNER, 6600.0, 10**303, "n_repeaters", id="repeaters"),
    pytest.param(PowerFeedSpec(), math.inf, 0, "total_length_km", id="feed2-inf-0"),
])
def test_power_feed_refuses_an_overflowing_budget(feed, total_km, n_repeaters, name):
    """A length or count that overflowed the budget is refused by its row; at the
    corner of the feed, length and count rows the budget is finite, at most 1.1e12 W."""
    with pytest.raises(ValueError, match=f"^{name} must lie in "):
        power_feed(feed, total_km, n_repeaters)
    assert power_feed(feed, 1e5, MAX_SPANS - 1).total_w <= 1.1e12


def test_power_feed_spec_validation():
    with pytest.raises(ValueError):
        PowerFeedSpec(feed_current_a=0.0)


def test_propagation_latency():
    assert propagation_latency(6600.0, 1.0003) == pytest.approx(22.02, abs=5e-3)
    assert propagation_latency(6600.0, 1.468) == pytest.approx(32.32, abs=5e-3)
    assert propagation_latency(1e-3, 1.5) == pytest.approx(1.5e-3 / 299.792458, rel=1e-12)
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
        ({"total_length_km": 1e5, "span_length_km": 1e-3},
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


@pytest.mark.parametrize("build,message", [
    (lambda p: AmplifierSpec(total_output_power_dbm=p),
     "amplifier.total_output_power_dbm must lie in [-60, 60], got {}"),
    (lambda p: OperatingPoint(0.06, p), "edfa_total_output_dbm must lie in [-60, 60], got {}"),
    (lambda p: GridSpec(power_min=p), "sweep.power_min must lie in [-60, 60], got {}"),
    (lambda p: GridSpec(power_max=p), "sweep.power_max must lie in [-60, 60], got {}"),
], ids=["amplifier", "operating-point", "sweep-min", "sweep-max"])
@pytest.mark.parametrize("power", [300.5, -301.0, 1e6, 60.01, -60.01])
def test_power_window_has_one_message(build, message, power):
    """Every power key of the config, and an OperatingPoint's power, which the library
    builds from any float, is held to its domain row, +/-60 dBm, with the row's wording;
    the OperatingPoint names its own argument."""
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(power))}$"):
        build(power)


def test_operating_point_holds_its_loss_to_the_floor():
    """A subnormal loss is refused where the point is built, under its own name, with
    the row of fiber.loss_db_per_km."""
    with pytest.raises(ValueError,
                       match=r"^loss_db_per_km must lie in \[0.0001, 10\], got 1e-310$"):
        OperatingPoint(1e-310, 20.0)


def test_link_gsnr_at_power_bound_is_finite(reference_plan):
    for power in (-60.0, 60.0):
        budget = link_gsnr(reference_plan, OperatingPoint(0.06, power))
        assert math.isfinite(budget.gsnr_db)


def test_shannon_rate_beyond_float_range_is_a_value_error():
    trx = ShannonGapTransceiver(0.0)
    with pytest.raises(ValueError, match="gsnr_db"):
        channel_net_rate(trx, 4000.0, 73.5e9)
    assert math.isfinite(channel_net_rate(trx, 3000.0, 73.5e9))
    # The sequence form raises too, naming the first GSNR past float range.
    with pytest.raises(ValueError, match=r"^gsnr_db = 4000.0 puts SNR/gap beyond float range"):
        trx.net_rates_gbps([20.0, 4000.0, 5000.0], 73.5e9)


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
    with pytest.raises(ValueError,
                       match=r"^link\.n_fibers_per_direction must lie in \[0, 10000\], got "):
        LinkPlan(fiber=reference_fiber, amp=reference_amp, n_fibers_per_direction=count)
    plan = LinkPlan(fiber=reference_fiber, amp=reference_amp, n_fibers_per_direction=10**4)
    assert plan.n_fibers_per_direction == 10**4


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


def _terms_or_error(call):
    try:
        return [tuple(term.hex() for term in terms) for terms in call()]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.0, 1.0),
    loss=st.one_of(
        st.floats(0.03, 0.1),
        st.floats(-4.0, -3.0).map(lambda e: max(10.0**e, 1e-4)),
        st.sampled_from([1e-4, 9.99e-5, 5e-324, 0.0, 10.01]),
    ),
    counts=st.lists(st.one_of(st.just(1), st.integers(1, 300), st.integers(1, MAX_SPANS),
                              st.just(MAX_SPANS), st.just(MAX_SPANS + 1)), min_size=1,
                    max_size=8),
    include_rbs=st.booleans(),
    fibers=st.sampled_from([26, 0]),
)
def test_span_terms_are_the_per_count_gsnr_terms(reference_plan, gamma, loss, counts,
                                                 include_rbs, fibers):
    """One span_terms call gives, bit for bit, the gsnr_terms of every count in
    turn (repeats included), or raises the message the first of those raises."""
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma),
                   n_fibers_per_direction=fibers)
    counts = counts + counts[::2]
    assert _terms_or_error(lambda: span_terms(plan, loss, counts, include_rbs)) == \
        _terms_or_error(lambda: [gsnr_terms(plan, loss, n, include_rbs) for n in counts])


def test_link_gsnr_names_a_tiny_loss(reference_plan):
    # 1e-307 dB/km lies far below the loss row, which refuses it before the NLI kernel.
    with pytest.raises(ValueError,
                       match=r"^loss_db_per_km must lie in \[0.0001, 10\], got 1e-307$"):
        link_gsnr(reference_plan, OperatingPoint(1e-307, 20.3))


# float.hex of span_terms(plan, 0.06, (20, 33, 44, 66), True) at the reference
# plan, (ASE, NLI, IMI, RBS) per count. A reassociated product changes them.
_PINNED_TERMS = {
    5e-4: [
        ("0x1.1219adc2b53b3p+3", "0x1.b3cd3e8411dcbp-40", "0x1.118f90740c0cap-9",
         "0x1.c4f73bb22637ep-8"),
        ("0x1.25e9d2f486ec2p+1", "0x1.424fe21438bfap-39", "0x1.118f90740c0cap-9",
         "0x1.ee398b5766dc9p-10"),
        ("0x1.7ebdddd1a6828p+0", "0x1.7612466b63646p-39", "0x1.118f90740c0cap-9",
         "0x1.46549019170e4p-10"),
        ("0x1.10a0b95b3fedbp+0", "0x1.9bc6a26c1626bp-39", "0x1.118f90740c0cap-9",
         "0x1.d31a396ac5707p-11"),
    ],
    0.05: [
        ("0x1.1219adc2b53b3p+3", "0x1.09fe05681be6fp-26", "0x1.118f90740c0cap-9",
         "0x1.c4f73bb22637ep-8"),
        ("0x1.25e9d2f486ec2p+1", "0x1.89728379af460p-26", "0x1.118f90740c0cap-9",
         "0x1.ee398b5766dc9p-10"),
        ("0x1.7ebdddd1a6828p+0", "0x1.c8a14ef616d40p-26", "0x1.118f90740c0cap-9",
         "0x1.46549019170e4p-10"),
        ("0x1.10a0b95b3fedbp+0", "0x1.f6a7f944f10a4p-26", "0x1.118f90740c0cap-9",
         "0x1.d31a396ac5707p-11"),
    ],
}


@pytest.mark.parametrize("gamma", sorted(_PINNED_TERMS))
def test_span_terms_keep_their_bits(reference_plan, gamma):
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma))
    terms = span_terms(plan, 0.06, (20, 33, 44, 66), True)
    assert [tuple(x.hex() for x in t) for t in terms] == _PINNED_TERMS[gamma]


# sha256 of the float.hex of every term of span_terms(plan, 0.06, range(1, 67), include_rbs)
# at the reference plan, as span_terms computed them when it built the 1 mW reference itself.
_REFERENCE_TERMS_SHA256 = {
    False: "57aee787cf0867a3fa72d129e53e3d01eec603c9c25052e47c047f58f413e619",
    True: "cc4afff6c9a6172c5a2d4900352deadf8925976ae213cd5c7255dfaff6e6c1ec",
}


def test_span_terms_read_the_plans_1mw_reference(reference_plan, monkeypatch):
    """LinkPlan builds the 1 mW output, launch, launch PSD and IMI term once, as
    plain attributes that replace() recomputes; span_terms reads them, builds
    none of them, and keeps every term's bits."""
    assert not {f.name for f in fields(LinkPlan)} & {
        "channel_output_w", "channel_launch_w", "launch_psd_w_hz", "inv_snr_imi"}
    wider = replace(reference_plan, channel_spacing_hz=100e9)
    assert wider.launch_psd_w_hz == wider.channel_launch_w / 100e9
    assert wider.launch_psd_w_hz != reference_plan.launch_psd_w_hz
    assert wider == LinkPlan(reference_plan.fiber, reference_plan.amp, channel_spacing_hz=100e9)

    def rebuilt(*args):
        raise AssertionError("span_terms rebuilt a quantity of the plan's 1 mW reference")

    for name in ("per_channel_launch", "dbm_to_watt", "imi_inv_snr"):
        monkeypatch.setattr(system, name, rebuilt)
    for include_rbs, digest in _REFERENCE_TERMS_SHA256.items():
        terms = span_terms(reference_plan, 0.06, range(1, 67), include_rbs)
        assert hashlib.sha256(" ".join(x.hex() for t in terms for x in t).encode()
                              ).hexdigest() == digest


def test_span_counts_check_the_total_then_name_a_bad_sample():
    names = ("plan.total_length_km", "span_km")
    with pytest.raises(ValueError, match="^plan.total_length_km must be > 0"):
        span_count(0.0, 0.0, names)
    assert [span_count(6600.0, span) for span in (200.0, 150.0, 6600.0, 14000.0)] == \
        [33, 44, 1, 0]
    with pytest.raises(ValueError, match=r"^plan.total_length_km=6600 km in span_km=1e-300 km "
                                         r"spans exceeds MAX_SPANS = 100000$"):
        span_count(6600.0, 1e-300, names)
    with pytest.raises(ValueError, match="^span_km must be > 0, got 0.0$"):
        span_count(6600.0, 0.0, names)
    for total, span in ((6600.0, 200.0), (0.0, 0.0), (6600.0, 1e-300), (6600.0, 0.0)):
        assert _value_or_error(lambda: [span_count(total, span, names)]) == \
            _value_or_error(lambda: _reference_span_counts(total, [span], names))


def _reference_span_counts(total, spans, names):
    """span_count of each span, as a loop that checks each span as it reaches it."""
    total_name, span_name = names
    if not total > 0:
        raise ValueError(f"{total_name} must be > 0, got {total}")
    counts = []
    for span in spans:
        if not span > 0:
            raise ValueError(f"{span_name} must be > 0, got {span}")
        ratio = total / span
        if ratio > MAX_SPANS:
            raise ValueError(f"{total_name}={total:g} km in {span_name}={span:g} km spans "
                             f"exceeds MAX_SPANS = {MAX_SPANS}")
        counts.append(int(ratio + 0.5))
    return counts


def _reference_span_gains(plan, loss, spans, name):
    """LinkPlan.span_gains_db as a loop that checks each gain as it computes it."""
    gains = []
    for span in spans:
        gain = loss * span + plan.amp.pre_input_loss_db + plan.amp.post_output_loss_db
        if not (loss >= 0 and gain <= MAX_SPAN_GAIN_DB):
            raise ValueError(f"{name}={loss} must be >= 0 and keep the span gain (loss x "
                             f"{span:g} km + amplifier.pre_input_loss_db + amplifier."
                             f"post_output_loss_db = {gain:g} dB) <= {MAX_SPAN_GAIN_DB:g} dB")
        gains.append(gain)
    return gains


def _value_or_error(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


# 6600 km over 0.066 km is MAX_SPANS up to rounding; the spans around it, 0.06,
# 1e-300 and the subnormals give more spans than that.
_BAD_SPANS = [0.0, -0.0, -1.0, -200.0, math.nan, -math.inf, math.inf, 5e-324, 1e-310, 1e-300,
              0.06, 0.066, math.nextafter(0.066, 0.0), math.nextafter(0.066, 1.0)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    total=st.one_of(st.just(6600.0), st.sampled_from([1.0, 0.0, -1.0, math.nan])),
    # The long spans at up to 0.3 dB/km give span gains above MAX_SPAN_GAIN_DB.
    spans=st.lists(st.one_of(st.floats(50.0, 7000.0), st.sampled_from(_BAD_SPANS)),
                   max_size=8),
    loss=st.one_of(st.floats(0.0, 0.3), st.sampled_from(
        [0.06, 0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, 5e-324, 1e-310, 5.0])),
)
def test_span_checks_keep_the_first_error(reference_plan, total, spans, loss):
    """span_count of each span, and span_gains_db, give the values, or the
    message, of a loop that checks each span in turn, wherever the bad spans
    sit; span_gain_db is the one-span form at the plan's effective span."""
    names = ("plan.total_length_km", "span_km")
    for span in (*spans, 200.0):
        assert _value_or_error(lambda: [span_count(total, span, names)]) == \
            _value_or_error(lambda: _reference_span_counts(total, [span], names))
    name = "loss_db_per_km"
    gains = _value_or_error(lambda: reference_plan.span_gains_db(loss, spans, name))
    assert gains == _value_or_error(lambda: _reference_span_gains(reference_plan, loss, spans,
                                                                 name))
    assert _value_or_error(lambda: [reference_plan.span_gain_db(loss, name)]) == \
        _value_or_error(lambda: _reference_span_gains(
            reference_plan, loss, [reference_plan.effective_span_km], name))


@pytest.mark.parametrize("call,least", [
    (lambda plan: gsnr_terms(plan, 0.06, 0), 0),
    (lambda plan: gsnr_terms(plan, 0.06, -1), -1),
    (lambda plan: span_terms(plan, 0.06, [1, 0]), 0),
    (lambda plan: span_terms(plan, 0.06, [33, -1, 0, 2]), -1),
], ids=["gsnr_terms-0", "gsnr_terms-minus-1", "span_terms-1-0", "span_terms-mixed"])
def test_span_count_below_one_is_named(reference_plan, call, least):
    with pytest.raises(ValueError, match=f"^n_spans must be >= 1, got {least}$"):
        call(reference_plan)


def test_loss_floor_comes_before_the_span_counts(reference_plan):
    for counts in ([1, 0], [1, MAX_SPANS + 1]):
        with pytest.raises(ValueError, match=r"^loss_db_per_km must lie in \[0.0001, 10\]"):
            span_terms(reference_plan, 0.0, counts)


@pytest.mark.parametrize("loss", [9.99e-5, 10.01, 0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call,name", [
    pytest.param(lambda plan, trx, loss: OperatingPoint(loss, 20.3), "loss_db_per_km",
                 id="OperatingPoint"),
    pytest.param(lambda plan, trx, loss: span_terms(plan, loss, (33, 20)), "loss_db_per_km",
                 id="span_terms"),
    pytest.param(lambda plan, trx, loss: gsnr_terms(plan, loss, 33), "loss_db_per_km",
                 id="gsnr_terms"),
    pytest.param(lambda plan, trx, loss: gn_nli_psds_per_span(
        plan.fiber, 1e-14, (200.0,), 5e12, DEFAULT_CONSTANTS, loss), "fiber.loss_db_per_km",
                 id="gn_nli_psds_per_span"),
    pytest.param(lambda plan, trx, loss: gn_nli_psds_per_span(
        plan.fiber, 1e-14, (), 5e12, DEFAULT_CONSTANTS, loss, "sweep.loss_min"),
                 "sweep.loss_min", id="gn_nli_psds_per_span-named"),
    pytest.param(lambda plan, trx, loss: required_edfa_power(plan, trx, loss, 200.0, 1000.0),
                 "loss_db_per_km", id="required_edfa_power"),
    pytest.param(lambda plan, trx, loss: span_length_curve(plan, trx, loss, 150.0, 250.0, 5,
                                                           1000.0),
                 "loss_db_per_km", id="span_length_curve"),
    pytest.param(lambda plan, trx, loss: sensitivity_delta(plan, trx, loss, plan, 1000.0),
                 "loss_db_per_km", id="sensitivity_delta"),
])
def test_library_loss_outside_its_row_is_refused(reference_plan, calibrated_trx, call, name,
                                                 loss):
    """Every library entry point that takes a raw loss holds it to the row of
    fiber.loss_db_per_km, with the row's message, naming its own argument."""
    message = f"{name} must lie in [0.0001, 10], got {loss}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(reference_plan, calibrated_trx, loss)


@pytest.mark.parametrize("call", [
    lambda plan: span_terms(plan, 0.06, (33, MAX_SPANS + 1, 20)),
    lambda plan: gsnr_terms(plan, 0.06, MAX_SPANS + 1),
], ids=["span_terms", "gsnr_terms"])
def test_span_count_above_max_spans_is_named(reference_plan, call):
    """span_terms holds its counts to span_count's range 1..MAX_SPANS; MAX_SPANS passes."""
    with pytest.raises(ValueError, match=f"^n_spans must be <= MAX_SPANS = {MAX_SPANS}, "
                                         f"got {MAX_SPANS + 1}$"):
        call(reference_plan)
    assert all(map(math.isfinite, gsnr_terms(reference_plan, 0.06, MAX_SPANS)))


def test_plan_record_is_its_fields_only(reference_plan):
    """The counts are no fields: equality, hash, repr, asdict and replace see
    the init fields alone, and a replaced plan counts its own spans."""
    assert (reference_plan.n_spans, reference_plan.n_channels) == (33, 66)
    shorter = replace(reference_plan, span_length_km=100.0)
    assert (shorter.n_spans, reference_plan.n_spans) == (66, 33)
    assert list(asdict(reference_plan)) == [f.name for f in fields(LinkPlan)]
    copy = replace(reference_plan)
    assert copy == reference_plan and hash(copy) == hash(reference_plan)
    assert repr(copy) == repr(reference_plan)
    assert "n_spans" not in repr(reference_plan)
    assert [f.name for f in fields(LinkPlan)] == [
        "fiber", "amp", "total_length_km", "span_length_km", "band_hz",
        "channel_spacing_hz", "symbol_rate_hz", "n_fibers_per_direction"]
    assert [f.name for f in fields(TabulatedTransceiver)] == ["points"]
    assert asdict(TabulatedTransceiver(((10.0, 100.0),))) == {"points": ((10.0, 100.0),)}


def test_plan_counts_are_set_once_when_built(monkeypatch, reference_fiber, reference_amp,
                                             reference_op):
    """Building a plan runs the partition and channel checks once; reading the
    counts and budgeting the plan run them no more."""
    calls = Counter()
    for name in ("repeater_count", "channels_in_band"):
        def counted(*args, _name=name, _func=getattr(system, name)):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(system, name, counted)
    plan = LinkPlan(fiber=reference_fiber, amp=reference_amp)
    assert calls == {"repeater_count": 1, "channels_in_band": 1}
    assert (plan.n_spans, plan.effective_span_km, plan.n_channels, plan.n_carriers) == \
        (33, 200.0, 66, 26 * 66)
    for _ in range(3):
        link_gsnr(plan, reference_op, include_rbs=True)
    assert calls == {"repeater_count": 1, "channels_in_band": 1}
    with pytest.raises(FrozenInstanceError):
        plan.n_spans = 5


@st.composite
def _corner_plans(draw) -> LinkPlan:
    """A plan with every key at a bound of its domain row, moved inward only as far
    as a cross-key rule asks: the span within the link and MAX_SPANS, the band
    within 1..MAX_CHANNELS channels, the symbol rate within the spacing and the
    loss within the span-gain bound. |dispersion| is 1e-6 or 1e3."""
    def corner(key):
        return draw(st.sampled_from(DOMAIN[key]))

    link = corner("link.total_length_km")
    span = min(max(corner("span.span_length_km"), link / (0.999 * MAX_SPANS)), link)
    spacing = corner("link.channel_spacing_hz")
    band = min(max(corner("link.band_hz"), spacing), 0.999 * MAX_CHANNELS * spacing)
    amp = AmplifierSpec(*(corner(f"amplifier.{f.name}") for f in fields(AmplifierSpec)))
    gain_db = MAX_SPAN_GAIN_DB - amp.pre_input_loss_db - amp.post_output_loss_db
    loss = min(corner("fiber.loss_db_per_km"), 0.999 * gain_db * span_count(link, span) / link)
    fiber = FiberSpec(loss, draw(st.sampled_from([-1e3, -1e-6, 1e-6, 1e3])),
                      *(corner(f"fiber.{key}") for key in ("gamma_per_w_km", "imi_db_per_km",
                                                          "backscatter_db_per_km", "group_index")))
    return LinkPlan(fiber, amp, link, span, band, spacing,
                    min(corner("link.symbol_rate_hz"), spacing),
                    corner("link.n_fibers_per_direction"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plan=_corner_plans(),
       loss=st.sampled_from(DOMAIN["fiber.loss_db_per_km"]),
       count=st.sampled_from([1, MAX_SPANS]),
       power=st.sampled_from(DOMAIN["amplifier.total_output_power_dbm"]),
       gap=st.sampled_from(DOMAIN["transceiver.gap_db"]),
       include_rbs=st.booleans())
def test_domain_corners_keep_every_term_finite(plan, loss, count, power, gap, include_rbs):
    """The executable half of the domain's audit. At the domain's corners the
    plan's 1 mW reference is bounded, and so is every term: span_terms at the ends
    of the loss row and of the counts 1..MAX_SPANS (or the span gain refuses the
    loss, naming it), with the ASE term A above 0, so the GSNR peak has a finite
    P_opt wherever NLI is present; the budget at the ends of an OperatingPoint's
    power row, with the IMI term holding 1/GSNR at 1e-33 or above; and every sweep
    cell."""
    assert 0 < plan.launch_psd_w_hz <= 1e-9 and 1e-33 <= plan.inv_snr_imi <= 1e5
    for n in (count, plan.n_spans):
        try:
            [terms] = span_terms(plan, loss, (n,), include_rbs)
        except ValueError as exc:
            assert str(exc).startswith("loss_db_per_km"), exc
            continue
        assert 0 < terms[0] and all(0 <= term < math.inf for term in terms)
        p_opt_dbm, _ = system._throughput_peak(plan, ShannonGapTransceiver(gap), terms)
        assert math.isfinite(p_opt_dbm) or terms[1] == 0
    for op_loss in (loss, plan.fiber.loss_db_per_km):
        try:
            budget = link_gsnr(plan, OperatingPoint(op_loss, power), include_rbs)
        except ValueError as exc:
            assert str(exc).startswith("loss_db_per_km"), exc
            continue
        assert 0 < budget.gsnr_linear <= 1e33
    gain_db = MAX_SPAN_GAIN_DB - plan.amp.pre_input_loss_db - plan.amp.post_output_loss_db
    grid = GridSpec(1e-4, min(0.999 * gain_db / plan.effective_span_km, 10.0), 2, -60.0, 60.0, 3)
    for _, gsnr, tput in sweep_rows(plan, ShannonGapTransceiver(gap), grid, include_rbs).rows():
        assert all(map(math.isfinite, gsnr + tput))


# Rates across the peak GSNRs of the plans below, so the peak is no table end.
_PEAK_TABLE = TabulatedTransceiver(((10.0, 200.0), (16.0, 400.0), (22.0, 550.0), (28.0, 640.0)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(1e-3, 1.0), loss=st.floats(0.03, 0.12), include_rbs=st.booleans(),
       tabulated=st.booleans())
def test_throughput_peak_is_cable_throughput_at_p_opt(reference_plan, calibrated_trx, gamma, loss,
                                                      include_rbs, tabulated):
    """The peak _throughput_peak reports is cable_throughput at its P_opt, bit for
    bit, and no cell of a fine power row around P_opt lies above it by more than
    1e-12 relative."""
    plan = replace(reference_plan, fiber=replace(reference_plan.fiber, gamma_per_w_km=gamma))
    trx = _PEAK_TABLE if tabulated else calibrated_trx
    p_opt_dbm, peak_tbps = system._throughput_peak(
        plan, trx, gsnr_terms(plan, loss, plan.n_spans, include_rbs))
    assert peak_tbps == cable_throughput(plan, trx, OperatingPoint(loss, p_opt_dbm), include_rbs)
    grid = GridSpec(loss, loss + 0.01, 2, p_opt_dbm - 1.0, p_opt_dbm + 1.0, 2001)
    _, _, row = next(sweep_rows(plan, trx, grid, include_rbs).rows())
    assert max(row) <= peak_tbps * (1.0 + 1e-12)
