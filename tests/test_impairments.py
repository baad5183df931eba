from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcflink.impairments import (
    MAX_EFFECTIVE_LENGTH_KM,
    MIN_LOSS_DB_PER_KM,
    AmplifierSpec,
    FiberSpec,
    ase_inv_snr,
    ase_inv_snrs,
    combine_gsnr,
    gn_nli_psd_per_span,
    gn_nli_psds_per_span,
    imi_inv_snr,
    nli_inv_snr,
    nli_inv_snrs,
    rbs_brute_force,
    rbs_enhancement,
    rbs_inv_snr,
    rbs_power,
)
from hcflink.units import attenuation_db_to_per_km, db_to_linear, dbm_to_watt, linear_to_db

# Reference chain values, frozen from independent evaluation of the closed
# forms (h = 6.62607015e-34 J s, nu = 193.4 THz, lambda = 1550 nm).
REF_P_OUT_W = 0.0016235140988448578      # dbm_to_watt(20.3 - 10 log10 66)
REF_P_LAUNCH_W = 0.0010243681445333056   # 2 dB below P_out
REF_INV_ASE = 0.02142936886248197
REF_NLI_PSD = 1.1105075687381861e-23
REF_INV_NLI = 2.6294610217517306e-08
REF_INV_IMI = 0.00208710325571113
REF_INV_RBS = 0.0018853179261445355      # 12 dB span loss


def test_fiber_spec_validation():
    good = FiberSpec(0.06, 3.0, 5e-4, -65.0, -70.0)
    assert good.group_index == 1.0003
    with pytest.raises(ValueError):
        FiberSpec(0.0, 3.0, 5e-4, -65.0, -70.0)
    with pytest.raises(ValueError):
        FiberSpec(0.06, 0.0, 5e-4, -65.0, -70.0)
    with pytest.raises(ValueError):
        FiberSpec(0.06, 3.0, -1e-4, -65.0, -70.0)
    with pytest.raises(ValueError):
        FiberSpec(0.06, 3.0, 5e-4, 5.0, -70.0)
    with pytest.raises(ValueError):
        FiberSpec(0.06, 3.0, 5e-4, -65.0, 1.0)


def test_amplifier_spec_validation():
    amp = AmplifierSpec(4.6, 20.3)
    assert amp.pre_input_loss_db == 2.0 and amp.post_output_loss_db == 2.0
    with pytest.raises(ValueError):
        AmplifierSpec(0.0, 20.3)
    with pytest.raises(ValueError):
        AmplifierSpec(4.6, math.inf)
    with pytest.raises(ValueError):
        AmplifierSpec(4.6, 20.3, pre_input_loss_db=-1.0)


def test_ase_reference_point(reference_amp, const):
    inv = ase_inv_snr(reference_amp, REF_P_OUT_W, 16.0, 33, 73.5e9, const)
    assert inv == pytest.approx(REF_INV_ASE, rel=1e-12)
    assert -linear_to_db(inv) == pytest.approx(16.69, abs=5e-3)


def test_ase_no_amps_no_noise(reference_amp, const):
    assert ase_inv_snr(reference_amp, 1e-3, 16.0, 0, 73.5e9, const) == 0.0


def test_ase_inverse_linear_in_power(reference_amp, const):
    for p in (1e-5, 1e-4, 1e-3, 1e-2):
        one = ase_inv_snr(reference_amp, p, 16.0, 33, 73.5e9, const)
        two = ase_inv_snr(reference_amp, 2 * p, 16.0, 33, 73.5e9, const)
        assert two == pytest.approx(one / 2.0, rel=1e-12)


def test_ase_domain_errors(reference_amp, const):
    with pytest.raises(ValueError):
        ase_inv_snr(reference_amp, 1e-3, 0.0, 33, 73.5e9, const)
    with pytest.raises(ValueError):
        ase_inv_snr(reference_amp, 0.0, 16.0, 33, 73.5e9, const)
    with pytest.raises(ValueError):
        ase_inv_snr(reference_amp, 1e-3, 16.0, -1, 73.5e9, const)


def test_gn_psd_reference_point(reference_fiber, const):
    psd = gn_nli_psd_per_span(reference_fiber, REF_P_LAUNCH_W / 75e9, 200.0, 5e12, const)
    assert psd == pytest.approx(REF_NLI_PSD, rel=1e-12)
    # spec example with the rounded launch power 1.024 mW
    rounded = gn_nli_psd_per_span(reference_fiber, 1.024e-3 / 75e9, 200.0, 5e12, const)
    assert rounded == pytest.approx(1.11e-23, rel=2e-3)


def test_gn_psd_zero_input(reference_fiber, const):
    assert gn_nli_psd_per_span(reference_fiber, 0.0, 200.0, 5e12, const) == 0.0


def test_gn_psd_cubic_scaling(reference_fiber, const):
    base = gn_nli_psd_per_span(reference_fiber, REF_P_LAUNCH_W / 75e9, 200.0, 5e12, const)
    doubled = gn_nli_psd_per_span(reference_fiber, 2 * REF_P_LAUNCH_W / 75e9, 200.0, 5e12, const)
    assert doubled == pytest.approx(8.0 * base, rel=1e-9)


def test_gn_psd_keeps_the_effective_length_at_tiny_loss(reference_fiber, const):
    # At alpha*L ~ 5e-19, 1 - exp(-alpha*L) rounds to 0; expm1 keeps
    # L_eff = L, so the PSD grows as L_eff^2 with the span.
    fiber = replace(reference_fiber, loss_db_per_km=1e-20)
    short, long = (gn_nli_psd_per_span(fiber, REF_P_LAUNCH_W / 75e9, span, 5e12, const)
                   for span in (100.0, 200.0))
    assert 0 < short < math.inf
    assert long / short == pytest.approx(4.0, rel=1e-12)


def test_fiber_loss_whose_attenuation_underflows_is_rejected():
    assert attenuation_db_to_per_km(MIN_LOSS_DB_PER_KM) == sys.float_info.min
    FiberSpec(loss_db_per_km=MIN_LOSS_DB_PER_KM)
    for loss in (math.nextafter(MIN_LOSS_DB_PER_KM, 0.0), 1e-310, 5e-324, 0.0):
        with pytest.raises(ValueError, match="fiber.loss_db_per_km must be >= 9.663e-308"):
            FiberSpec(loss_db_per_km=loss)


def test_gn_psd_domain_errors(reference_fiber, const):
    with pytest.raises(ValueError):
        gn_nli_psd_per_span(reference_fiber, 1e-14, 0.0, 5e12, const)
    with pytest.raises(ValueError):
        gn_nli_psd_per_span(reference_fiber, -1e-14, 200.0, 5e12, const)


def test_sequence_kernels_check_before_an_empty_sequence(reference_amp, reference_fiber, const):
    """The checks that need no element run even when no element follows."""
    psd = REF_P_LAUNCH_W / 75e9
    assert ase_inv_snrs(reference_amp, 1e-3, (), 73.5e9, const) == []
    assert gn_nli_psds_per_span(reference_fiber, psd, (), 5e12, const) == []
    assert nli_inv_snrs((), 73.5e9, REF_P_LAUNCH_W) == []
    with pytest.raises(ValueError, match="^per_channel_output_w must be > 0"):
        ase_inv_snrs(reference_amp, 0.0, (), 73.5e9, const)
    with pytest.raises(ValueError, match="^noise_bw_hz must be > 0"):
        ase_inv_snrs(reference_amp, 1e-3, (), 0.0, const)
    with pytest.raises(ValueError, match="^launch_psd_w_hz must be >= 0"):
        gn_nli_psds_per_span(reference_fiber, -psd, (), 5e12, const)
    with pytest.raises(ValueError, match="^comb_bw_hz must be > 0"):
        gn_nli_psds_per_span(reference_fiber, psd, (), 0.0, const)
    with pytest.raises(ValueError, match="^channel_bw_hz must be >= 0"):
        nli_inv_snrs((), -1.0, REF_P_LAUNCH_W)
    with pytest.raises(ValueError, match="^per_channel_launch_w must be > 0"):
        nli_inv_snrs((), 73.5e9, 0.0)


def test_sequence_kernels_name_a_bad_element_mid_sequence(reference_amp, reference_fiber,
                                                          const):
    psd = REF_P_LAUNCH_W / 75e9
    with pytest.raises(ValueError, match="^span_km must be > 0, got 0.0$"):
        gn_nli_psds_per_span(reference_fiber, psd, (200.0, 0.0, 100.0), 5e12, const)
    with pytest.raises(ValueError, match="^transparency requires gain > 0 dB, got 0.0$"):
        ase_inv_snrs(reference_amp, 1e-3, ((16.0, 33), (0.0, 33), (16.0, 33)), 73.5e9, const)
    with pytest.raises(ValueError, match="^n_amps must be >= 0, got -1$"):
        ase_inv_snrs(reference_amp, 1e-3, ((16.0, 33), (16.0, -1), (16.0, 33)), 73.5e9, const)
    with pytest.raises(ValueError, match="^n_spans must be >= 0, got -1$"):
        nli_inv_snrs(((psd, 33), (psd, -1), (psd, 33)), 73.5e9, REF_P_LAUNCH_W)


def test_sequence_kernels_give_each_element_its_scalar_value(reference_amp, reference_fiber,
                                                             const):
    """An element's value does not depend on its neighbours: zero counts and a
    zero PSD included, each is its scalar call, bit for bit."""
    spans = (200.0, 1e-3, 6600.0, 200.0)
    pairs = ((16.0, 33), (0.5, 0), (40.0, 1), (16.0, 33))
    for psd in (REF_P_LAUNCH_W / 75e9, 0.0):
        assert gn_nli_psds_per_span(reference_fiber, psd, spans, 5e12, const) == \
            [gn_nli_psd_per_span(reference_fiber, psd, s, 5e12, const) for s in spans]
    assert ase_inv_snrs(reference_amp, 1e-3, pairs, 73.5e9, const) == \
        [ase_inv_snr(reference_amp, 1e-3, g, n, 73.5e9, const) for g, n in pairs]
    assert nli_inv_snrs(pairs, 73.5e9, REF_P_LAUNCH_W) == \
        [nli_inv_snr(p, n, 73.5e9, REF_P_LAUNCH_W) for p, n in pairs]


def _db_to_linear_ase_inv_snrs(amp, per_channel_output_w, pairs, noise_bw_hz, const):
    """ase_inv_snrs as a loop over units.db_to_linear, kept as a reference."""
    noise_prefix = (db_to_linear(amp.noise_figure_db) * const.planck_j_s
                    * const.reference_frequency_hz)
    inv_snrs = []
    for gain_db, n_amps in pairs:
        if not gain_db > 0:
            raise ValueError(f"transparency requires gain > 0 dB, got {gain_db}")
        if n_amps < 0:
            raise ValueError(f"n_amps must be >= 0, got {n_amps}")
        p_ase = noise_prefix * (db_to_linear(gain_db) - 1.0) * noise_bw_hz if n_amps else 0.0
        inv_snrs.append(n_amps * p_ase / per_channel_output_w)
    return inv_snrs


def _outcome(func, *args):
    try:
        return func(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(st.tuples(
    st.one_of(st.sampled_from([math.inf, math.nan, 0.0, -3.0, -math.inf, 16.0]),
              st.floats(-100.0, 4000.0)),
    st.sampled_from([0, 1, 33]),
), max_size=4))
@example(pairs=[(math.inf, 0)])
@example(pairs=[(16.0, 33), (math.inf, 1)])
@example(pairs=[(16.0, 0), (math.nan, 33), (math.inf, 33)])
def test_ase_gain_is_db_to_linear(reference_amp, const, pairs):
    """The inlined gain conversion gives db_to_linear's value, or its error with
    the same message: inf raises only where an amplifier uses it."""
    got = _outcome(ase_inv_snrs, reference_amp, 1e-3, pairs, 73.5e9, const)
    want = _outcome(_db_to_linear_ase_inv_snrs, reference_amp, 1e-3, pairs, 73.5e9, const)
    assert got == want


def test_nli_inv_snr_chain():
    inv = nli_inv_snr(REF_NLI_PSD, 33, 73.5e9, REF_P_LAUNCH_W)
    assert inv == pytest.approx(REF_INV_NLI, rel=1e-12)
    assert -linear_to_db(inv) == pytest.approx(75.8, abs=0.05)
    assert nli_inv_snr(0.0, 33, 73.5e9, REF_P_LAUNCH_W) == 0.0
    doubled_spans = nli_inv_snr(REF_NLI_PSD, 66, 73.5e9, REF_P_LAUNCH_W)
    assert doubled_spans == 2.0 * inv


def test_imi_examples():
    assert imi_inv_snr(-65.0, 6600.0) == pytest.approx(REF_INV_IMI, rel=1e-12)
    assert -linear_to_db(imi_inv_snr(-65.0, 6600.0)) == pytest.approx(26.80, abs=5e-3)
    assert imi_inv_snr(-65.0, 0.0) == 0.0
    assert imi_inv_snr(-60.0, 6600.0) == pytest.approx(6.6e-3, rel=1e-12)
    with pytest.raises(ValueError):
        imi_inv_snr(0.1, 6600.0)


def test_imi_monotone_in_length():
    values = [imi_inv_snr(-65.0, l) for l in range(0, 10001, 500)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rbs_enhancement():
    assert rbs_enhancement(0.0) == 1.0
    assert rbs_enhancement(10.0) == pytest.approx(2.1497576854210965, rel=1e-12)
    assert rbs_enhancement(14.0) == pytest.approx(3.8898909246374496, rel=1e-10)
    with pytest.raises(ValueError):
        rbs_enhancement(-0.1)


def test_rbs_enhancement_monotone():
    values = [rbs_enhancement(a / 10.0) for a in range(0, 201)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rbs_power():
    assert rbs_power(0.0, -70.0, 6600.0, 10.0) == 0.0
    # lossless span: no enhancement, plain L_tot * P * B
    assert rbs_power(1e-3, -70.0, 6600.0, 0.0) == pytest.approx(6600 * 1e-3 * 1e-7, rel=1e-12)
    assert rbs_power(1e-3, -70.0, 6600.0, 10.0) == pytest.approx(1.4188400723779238e-06, rel=1e-12)


def test_rbs_inv_snr_reference_values():
    assert -linear_to_db(rbs_inv_snr(-70.0, 6600.0, 10.0)) == pytest.approx(28.48, abs=0.02)
    assert -linear_to_db(rbs_inv_snr(-70.0, 6600.0, 14.0)) == pytest.approx(25.90, abs=0.02)
    assert rbs_inv_snr(-70.0, 6600.0, 0.0) == pytest.approx(6.6e-4, rel=1e-12)
    assert -linear_to_db(rbs_inv_snr(-70.0, 6600.0, 0.0)) == pytest.approx(31.80, abs=5e-3)


def test_rbs_power_independence_of_launch():
    ratios = [
        rbs_power(p, -70.0, 6600.0, 12.0) / p
        for p in (1e-6, 1e-4, 1e-2, 1.0)
    ]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)
    assert ratios[0] == pytest.approx(rbs_inv_snr(-70.0, 6600.0, 12.0), rel=1e-12)


def _rbs_inv_snr_own_body(backscatter_db_per_km, total_length_km, span_loss_db):
    """rbs_inv_snr with checks and a product of its own, kept as a reference."""
    if total_length_km < 0:
        raise ValueError(f"total_length_km must be >= 0, got {total_length_km}")
    if backscatter_db_per_km > 0:
        raise ValueError(f"backscatter_db_per_km must be <= 0, got {backscatter_db_per_km}")
    return total_length_km * db_to_linear(backscatter_db_per_km) * rbs_enhancement(span_loss_db)


def _bits_or_error(func, *args):
    outcome = _outcome(func, *args)
    return outcome.hex() if isinstance(outcome, float) else outcome


_ODD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, math.nan, math.inf,
               -math.inf]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    backscatter=st.one_of(st.floats(-200.0, 0.0), st.floats(), st.sampled_from(_ODD_FLOATS)),
    total=st.one_of(st.floats(0.0, 1e5), st.floats(), st.sampled_from(_ODD_FLOATS)),
    # sinhc overflows past a span loss of about 3086 dB.
    span_loss=st.one_of(st.floats(0.0, 100.0), st.floats(2500.0, 1e6), st.floats(),
                        st.sampled_from(_ODD_FLOATS)),
)
def test_rbs_inv_snr_is_rbs_power_at_1_w(backscatter, total, span_loss):
    """rbs_inv_snr keeps the bits, or the error and its message, of the ratio
    computed with its own checks and product."""
    assert _bits_or_error(rbs_inv_snr, backscatter, total, span_loss) == \
        _bits_or_error(_rbs_inv_snr_own_body, backscatter, total, span_loss)


def test_rbs_brute_force_converges():
    closed = rbs_power(1e-3, -70.0, 33 * 200.0, 0.05 * 200.0)
    brute = rbs_brute_force(1e-3, -70.0, 0.05, 200.0, 33, 0.1)
    assert abs(closed - brute) / closed <= 1e-3


def test_rbs_brute_force_single_slab_bound():
    # A single midpoint slab underestimates by exactly the enhancement factor,
    # which stays below 4 for span losses up to 14 dB.
    for loss, span in ((0.05, 200.0), (0.07, 200.0), (0.03, 200.0)):
        crude = rbs_brute_force(1e-3, -70.0, loss, span, 1, span)
        closed = rbs_power(1e-3, -70.0, span, loss * span)
        assert 1.0 <= closed / crude <= 4.0


def test_rbs_brute_force_edge_cases():
    assert rbs_brute_force(0.0, -70.0, 0.05, 200.0, 33, 0.1) == 0.0
    with pytest.raises(ValueError):
        rbs_brute_force(1e-3, -70.0, 0.05, 200.0, 33, 0.3)  # 0.3 does not divide 200
    with pytest.raises(ValueError):
        rbs_brute_force(1e-3, -70.0, 0.05, 200.0, 33, 0.0)


def _gn_integral_psd(fiber, launch_psd_w_hz, span_km, comb_bw_hz, const, n=200):
    """Oracle for gn_nli_psd_per_span: the single-span GN integral
    (16/27)*gamma^2*G^3 * double integral of |(1 - e^((-alpha+jc)L))/(alpha - jc)|^2,
    c = 4*pi^2*|beta2|*f1*f2 and alpha the power attenuation, over the hexagon
    |f1|, |f2|, |f1+f2| <= B/2. Midpoint nodes on f = (B/2)*u^4 for each sign, n
    per half, weighted by the map's derivative, crowd the axes where the
    integrand peaks. The closed form drops the link function's e^(-alpha L)
    terms, so it needs alpha*L >> 1; this keeps them."""
    alpha = attenuation_db_to_per_km(fiber.loss_db_per_km)
    beta2 = (abs(fiber.dispersion_ps_nm_km) * 1e-3 * const.reference_wavelength_m**2
             / (2.0 * math.pi * const.light_speed_km_s * 1e3))
    half = 0.5 * comb_bw_hz
    u = (np.arange(n) + 0.5) / n
    f = np.concatenate((-half * u[::-1] ** 4, half * u**4))
    w = np.concatenate((u[::-1] ** 3, u**3)) * (4.0 * half / n)
    f1, f2 = f[:, None], f[None, :]
    c = 4.0 * math.pi**2 * beta2 * f1 * f2
    link = np.abs(-np.expm1((-alpha + 1j * c) * span_km) / (alpha - 1j * c)) ** 2
    inside = np.abs(f1 + f2) <= half
    integral = float(np.sum(np.where(inside, link, 0.0) * (w[:, None] * w[None, :])))
    return (16.0 / 27.0) * fiber.gamma_per_w_km**2 * launch_psd_w_hz**3 * integral


# Closed form over the GN integral at 5 THz and 3 ps/(nm km), by span loss:
# (loss dB/km, span km, span loss dB, ratio).
GN_ORACLE_RATIOS = (
    (20.0 / 150.0, 150.0, 20.0, 0.9807),
    (0.08, 200.0, 16.0, 0.9524),
    (0.06, 200.0, 12.0, 0.8854),
    (0.025, 200.0, 5.0, 0.5396),
    (0.005, 200.0, 1.0, 0.1332),
)


def _gn_closed_over_integral(reference_fiber, const, loss, span, n=200):
    fiber = replace(reference_fiber, loss_db_per_km=loss)
    psd = REF_P_LAUNCH_W / 75e9
    return (gn_nli_psd_per_span(fiber, psd, span, 5e12, const)
            / _gn_integral_psd(fiber, psd, span, 5e12, const, n))


def test_gn_integral_oracle_is_converged(reference_fiber, const):
    for loss, span in ((0.06, 200.0), (0.005, 200.0)):
        coarse, fine = (_gn_closed_over_integral(reference_fiber, const, loss, span, n)
                        for n in (200, 400))
        assert coarse == pytest.approx(fine, abs=1e-4)


def test_gn_closed_form_meets_the_integral_at_high_span_loss(reference_fiber, const):
    # The closed form undercounts the NLI by at most 12 % at a span loss of
    # 12 dB and above, and ever more as the span loss falls below that.
    ratios = []
    for loss, span, span_loss_db, expected in GN_ORACLE_RATIOS:
        ratio = _gn_closed_over_integral(reference_fiber, const, loss, span)
        assert ratio == pytest.approx(expected, abs=1e-3)
        if span_loss_db >= 12.0:
            assert 0.88 <= ratio <= 1.0
        ratios.append(ratio)
    assert all(high > low for high, low in zip(ratios, ratios[1:]))


def test_combine_single_source():
    budget = combine_gsnr([0.01, 0.0, 0.0, 0.0])
    assert budget.gsnr_linear == pytest.approx(100.0, rel=1e-12)
    assert budget.gsnr_db == pytest.approx(20.0, abs=1e-12)
    assert budget.inv_snr_ase == 0.01 and budget.inv_snr_rbs == 0.0


def test_combine_two_equal_sources_3db_below():
    x = 0.004
    budget = combine_gsnr([x, x])
    alone = combine_gsnr([x])
    assert alone.gsnr_db - budget.gsnr_db == pytest.approx(10 * math.log10(2), abs=1e-9)


def test_combine_reference_budget():
    budget = combine_gsnr([REF_INV_ASE, REF_INV_NLI, REF_INV_IMI, REF_INV_RBS])
    assert budget.gsnr_db == pytest.approx(15.95, abs=0.01)
    no_rbs = combine_gsnr([REF_INV_ASE, REF_INV_NLI, REF_INV_IMI])
    assert no_rbs.gsnr_db == pytest.approx(16.29, abs=0.01)


def test_combine_errors():
    with pytest.raises(ValueError):
        combine_gsnr([])
    with pytest.raises(ValueError):
        combine_gsnr([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="infinite GSNR"):
        combine_gsnr([6.52e-320])  # 1/total overflows
    with pytest.raises(ValueError):
        combine_gsnr([-0.1])
    with pytest.raises(ValueError):
        combine_gsnr([0.1] * 5)


def test_combine_bounded_by_smallest_component():
    cases = [
        [0.01, 0.002, 0.0003, 0.00004],
        [1e-3, 1e-3, 1e-3, 1e-3],
        [0.5, 0.0, 0.0, 0.0],
        [2e-2, 3e-8, 2e-3, 2e-3],
    ]
    for components in cases:
        budget = combine_gsnr(components)
        smallest_snr = min(1.0 / c for c in components if c > 0)
        assert budget.gsnr_linear <= smallest_snr * (1 + 1e-12)
        if sum(1 for c in components if c > 0) == 1:
            assert budget.gsnr_linear == pytest.approx(smallest_snr, rel=1e-12)


def test_combine_adds_left_to_right():
    """The total is ((ase + nli) + imi) + rbs on every Python: a compensated sum,
    which sum() is from 3.12, would keep the two 1e-16 terms."""
    components = [1.0, 1e-16, 1e-16, 0.0]
    assert 1.0 / math.fsum(components) != 1.0
    assert combine_gsnr(components).gsnr_linear == 1.0


def test_component_snr_db_reporting():
    budget = combine_gsnr([0.01, 0.0, 0.001, 0.0])
    assert budget.component_snr_db("ase") == pytest.approx(20.0, abs=1e-12)
    assert budget.component_snr_db("nli") is None
    assert budget.component_snr_db("imi") == pytest.approx(30.0, abs=1e-12)
    with pytest.raises(ValueError):
        budget.component_snr_db("bogus")


def test_rbs_past_the_sinh_overflow_is_a_value_error():
    """A span loss of 1e6 dB puts sinh beyond float range in every RBS form."""
    for call in (lambda: rbs_enhancement(1e6), lambda: rbs_inv_snr(-70.0, 6600.0, 1e6),
                 lambda: rbs_power(1e-3, -70.0, 6600.0, 1e6)):
        with pytest.raises(ValueError, match=r"^sinhc argument .* beyond float range"):
            call()


@pytest.mark.parametrize("loss,name,shown", [
    (math.inf, None, "fiber.loss_db_per_km=inf"),
    (1e302, "loss_db_per_km", r"loss_db_per_km=1e\+302"),
    (3e301, "sweep.loss_max", r"sweep.loss_max=3e\+301"),
])
def test_gn_psd_refuses_a_loss_that_underflows_its_denominator(const, loss, name, shown):
    """Above about 2e301 dB/km pi*|beta2|/alpha underflows to 0; the kernel's
    count-independent checks name the loss, even for no spans."""
    fiber = FiberSpec(loss_db_per_km=loss) if name is None else FiberSpec()
    args = () if name is None else (loss, name)
    for spans in ((), (1e-299, 200.0)):
        with pytest.raises(ValueError, match=f"^{shown} puts the NLI's denominator"):
            gn_nli_psds_per_span(fiber, 1e-14, spans, 5e12, const, *args)
    assert gn_nli_psds_per_span(FiberSpec(), 1e-14, (), 5e12, const, 1e301) == []


def test_gn_psd_refuses_a_span_whose_effective_length_squared_overflows(const):
    """The square of an effective length past MAX_EFFECTIVE_LENGTH_KM leaves float
    range; the kernel names the loss and the span. One just below it is finite."""
    fiber = FiberSpec(loss_db_per_km=1e-160)
    with pytest.raises(ValueError, match=r"^loss_db_per_km=1e-160 gives a 2e\+154 km span "
                                         r"the NLI effective length 2e\+154 km, whose square"):
        gn_nli_psds_per_span(fiber, 1e-14, (200.0, 2e154), 5e12, const, 1e-160,
                             "loss_db_per_km")
    [psd] = gn_nli_psds_per_span(fiber, 1e-14, (MAX_EFFECTIVE_LENGTH_KM,), 5e12, const)
    assert math.isfinite(psd) and psd > 0
