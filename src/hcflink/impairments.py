"""Per-channel noise and interference contributions.

Each impairment (amplifier ASE, Kerr nonlinear interference, inter-modal
crosstalk, Rayleigh backscattering) is expressed as a dimensionless linear
1/SNR so that contributions can be summed into a single GSNR.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .units import (
    DB_PER_NEPER,
    PhysicalConstants,
    attenuation_db_to_per_km,
    db_to_linear,
    linear_to_db,
    sinhc,
)

# The 1/SNR components of a budget, in SnrBudget field order.
COMPONENTS = ("ase", "nli", "imi", "rbs")

# Bounds, far beyond any real component, that keep every 1/SNR term finite:
# beta2 underflows near |D| = 1e-280, gamma^2 overflows near 1e154, a dB value
# near 3000, and the NLI term, cubic in power, near 1500 dBm.
MIN_ABS_DISPERSION_PS_NM_KM = 1e-6
MAX_GAMMA_PER_W_KM = 1e6
MAX_AMPLIFIER_DB = 100.0
MAX_ABS_POWER_DBM = 300.0

# Least loss whose attenuation (1/km) is a normal float; below it the
# attenuation underflows to a subnormal or 0 and the NLI's 1/alpha to inf.
MIN_LOSS_DB_PER_KM = DB_PER_NEPER * sys.float_info.min


@dataclass(frozen=True)
class FiberSpec:
    """Physical fiber parameters (the config's fiber section); the defaults
    are the reference hollow-core fiber.

    imi_db_per_km and backscatter_db_per_km are per-km power ratios below
    unity, hence nonpositive in dB.
    """

    loss_db_per_km: float = 0.06
    dispersion_ps_nm_km: float = 3.0
    gamma_per_w_km: float = 5e-4
    imi_db_per_km: float = -65.0
    backscatter_db_per_km: float = -70.0
    group_index: float = 1.0003

    def __post_init__(self) -> None:
        if not self.loss_db_per_km >= MIN_LOSS_DB_PER_KM:
            raise ValueError(f"fiber.loss_db_per_km must be >= {MIN_LOSS_DB_PER_KM:.4g} (its "
                             f"attenuation must not underflow), got {self.loss_db_per_km}")
        if not abs(self.dispersion_ps_nm_km) >= MIN_ABS_DISPERSION_PS_NM_KM:
            raise ValueError(f"fiber.dispersion_ps_nm_km must have magnitude >= "
                             f"{MIN_ABS_DISPERSION_PS_NM_KM:g}, got {self.dispersion_ps_nm_km}")
        if not 0 <= self.gamma_per_w_km <= MAX_GAMMA_PER_W_KM:
            raise ValueError(f"fiber.gamma_per_w_km must lie in [0, {MAX_GAMMA_PER_W_KM:g}], "
                             f"got {self.gamma_per_w_km}")
        if self.imi_db_per_km > 0:
            raise ValueError(f"fiber.imi_db_per_km must be <= 0, got {self.imi_db_per_km}")
        if self.backscatter_db_per_km > 0:
            raise ValueError(
                f"fiber.backscatter_db_per_km must be <= 0, got {self.backscatter_db_per_km}"
            )
        if not self.group_index >= 1:
            raise ValueError(f"fiber.group_index must be >= 1, got {self.group_index}")


@dataclass(frozen=True)
class AmplifierSpec:
    """Repeater gain block: the EDFA plus the lumped losses around it (the
    config's amplifier section); the defaults are the reference repeater."""

    noise_figure_db: float = 4.6
    total_output_power_dbm: float = 20.3
    pre_input_loss_db: float = 2.0
    post_output_loss_db: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.noise_figure_db <= MAX_AMPLIFIER_DB:
            raise ValueError(f"amplifier.noise_figure_db must lie in (0, {MAX_AMPLIFIER_DB:g}] "
                             f"dB, got {self.noise_figure_db}")
        if not abs(self.total_output_power_dbm) <= MAX_ABS_POWER_DBM:
            raise ValueError(f"amplifier.total_output_power_dbm must lie within "
                             f"+/-{MAX_ABS_POWER_DBM:g} dBm, got {self.total_output_power_dbm}")
        for name in ("pre_input_loss_db", "post_output_loss_db"):
            if not 0 <= getattr(self, name) <= MAX_AMPLIFIER_DB:
                raise ValueError(f"amplifier.{name} must lie in [0, {MAX_AMPLIFIER_DB:g}] dB, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True)
class SnrBudget:
    """Linear 1/SNR per impairment plus the combined GSNR."""

    inv_snr_ase: float
    inv_snr_nli: float
    inv_snr_imi: float
    inv_snr_rbs: float
    gsnr_linear: float
    gsnr_db: float

    def component_snr_db(self, component: str) -> float | None:
        """SNR of one component in dB, or None when the component is absent."""
        if component not in COMPONENTS:
            raise ValueError(f"unknown component {component!r}")
        inv = getattr(self, f"inv_snr_{component}")
        if inv == 0:
            return None
        return -linear_to_db(inv)


def ase_inv_snr(
    amp: AmplifierSpec,
    per_channel_output_w: float,
    gain_db: float,
    n_amps: int,
    noise_bw_hz: float,
    const: PhysicalConstants,
) -> float:
    """Accumulated amplifier noise-to-signal ratio.

    Each gain block adds F*h*nu*(G-1)*B_n of noise power (both polarizations)
    referenced to the per-channel power at its output.
    """
    if not per_channel_output_w > 0:
        raise ValueError(f"per_channel_output_w must be > 0, got {per_channel_output_w}")
    if not gain_db > 0:
        raise ValueError(f"transparency requires gain > 0 dB, got {gain_db}")
    if n_amps < 0:
        raise ValueError(f"n_amps must be >= 0, got {n_amps}")
    if not noise_bw_hz > 0:
        raise ValueError(f"noise_bw_hz must be > 0, got {noise_bw_hz}")
    if n_amps == 0:
        return 0.0
    noise_factor = db_to_linear(amp.noise_figure_db)
    gain = db_to_linear(gain_db)
    p_ase = (
        noise_factor
        * const.planck_j_s
        * const.reference_frequency_hz
        * (gain - 1.0)
        * noise_bw_hz
    )
    return n_amps * p_ase / per_channel_output_w


def gn_asinh_scale(dispersion_ps_nm_km: float, const: PhysicalConstants) -> tuple[float, float]:
    """|beta2| (s^2/km) and 0.5*pi^2*|beta2|: the GN closed form's asinh argument
    is that scale times B^2/alpha, and overflows to inf at a loss below about
    1.1e-305 dB/km (3 ps/(nm km), 5 THz)."""
    light_m_s = const.light_speed_km_s * 1e3
    beta2 = (
        abs(dispersion_ps_nm_km)
        * 1e-3
        * const.reference_wavelength_m**2
        / (2.0 * math.pi * light_m_s)
    )
    return beta2, 0.5 * math.pi**2 * beta2


def gn_nli_psd_per_span(
    fiber: FiberSpec,
    launch_psd_w_hz: float,
    span_km: float,
    comb_bw_hz: float,
    const: PhysicalConstants,
) -> float:
    """Nonlinear-interference PSD generated in one span (W/Hz).

    Incoherent Gaussian-noise closed form for the center channel of a flat
    comb of PSD `launch_psd_w_hz` spanning `comb_bw_hz`.
    """
    if launch_psd_w_hz < 0:
        raise ValueError(f"launch_psd_w_hz must be >= 0, got {launch_psd_w_hz}")
    if not span_km > 0:
        raise ValueError(f"span_km must be > 0, got {span_km}")
    if not comb_bw_hz > 0:
        raise ValueError(f"comb_bw_hz must be > 0, got {comb_bw_hz}")
    if fiber.dispersion_ps_nm_km == 0:
        raise ValueError("nonlinear interference is singular at zero dispersion")
    if launch_psd_w_hz == 0:
        return 0.0
    alpha = attenuation_db_to_per_km(fiber.loss_db_per_km)
    l_eff = -math.expm1(-alpha * span_km) / alpha
    l_eff_a = 1.0 / alpha
    beta2, asinh_scale = gn_asinh_scale(fiber.dispersion_ps_nm_km, const)
    asinh_arg = asinh_scale * l_eff_a * comb_bw_hz**2
    return (
        (8.0 / 27.0)
        * fiber.gamma_per_w_km**2
        * launch_psd_w_hz**3
        * l_eff**2
        * math.asinh(asinh_arg)
        / (math.pi * beta2 * l_eff_a)
    )


def nli_inv_snr(
    psd_per_span_w_hz: float,
    n_spans: int,
    channel_bw_hz: float,
    per_channel_launch_w: float,
) -> float:
    """Nonlinear-interference-to-signal ratio, accumulated linearly over spans."""
    if psd_per_span_w_hz < 0:
        raise ValueError(f"psd_per_span_w_hz must be >= 0, got {psd_per_span_w_hz}")
    if n_spans < 0:
        raise ValueError(f"n_spans must be >= 0, got {n_spans}")
    if channel_bw_hz < 0:
        raise ValueError(f"channel_bw_hz must be >= 0, got {channel_bw_hz}")
    if not per_channel_launch_w > 0:
        raise ValueError(f"per_channel_launch_w must be > 0, got {per_channel_launch_w}")
    return n_spans * psd_per_span_w_hz * channel_bw_hz / per_channel_launch_w


def imi_inv_snr(imi_db_per_km: float, total_length_km: float) -> float:
    """Inter-modal crosstalk ratio accumulated linearly over the link length."""
    if imi_db_per_km > 0:
        raise ValueError(f"imi_db_per_km must be <= 0, got {imi_db_per_km}")
    if total_length_km < 0:
        raise ValueError(f"total_length_km must be >= 0, got {total_length_km}")
    return total_length_km * db_to_linear(imi_db_per_km)


def rbs_enhancement(span_loss_db: float) -> float:
    """Backscatter build-up factor of lumped over distributed amplification.

    Equals 1 for a lossless span and grows with the fiber-only span loss.
    """
    if not span_loss_db >= 0:
        raise ValueError(f"span_loss_db must be >= 0, got {span_loss_db}")
    return sinhc(span_loss_db / DB_PER_NEPER)


def rbs_power(
    launch_w: float,
    backscatter_db_per_km: float,
    total_length_km: float,
    span_loss_db: float,
) -> float:
    """Total backscattered power (W) returned to the link input.

    Closed form for a transparent multi-span bidirectional link:
    L_tot * P_ch * B * enh(A_dB).
    """
    if launch_w < 0:
        raise ValueError(f"launch_w must be >= 0, got {launch_w}")
    if total_length_km < 0:
        raise ValueError(f"total_length_km must be >= 0, got {total_length_km}")
    if backscatter_db_per_km > 0:
        raise ValueError(
            f"backscatter_db_per_km must be <= 0, got {backscatter_db_per_km}"
        )
    return (
        total_length_km
        * launch_w
        * db_to_linear(backscatter_db_per_km)
        * rbs_enhancement(span_loss_db)
    )


def rbs_inv_snr(
    backscatter_db_per_km: float,
    total_length_km: float,
    span_loss_db: float,
) -> float:
    """Backscatter-to-signal ratio: L_tot * B * enh(A_dB).

    Takes no power argument; the ratio is independent of launch power.
    """
    if total_length_km < 0:
        raise ValueError(f"total_length_km must be >= 0, got {total_length_km}")
    if backscatter_db_per_km > 0:
        raise ValueError(
            f"backscatter_db_per_km must be <= 0, got {backscatter_db_per_km}"
        )
    return (
        total_length_km
        * db_to_linear(backscatter_db_per_km)
        * rbs_enhancement(span_loss_db)
    )


def rbs_brute_force(
    launch_w: float,
    backscatter_db_per_km: float,
    loss_db_per_km: float,
    span_km: float,
    n_spans: int,
    dz_km: float,
) -> float:
    """Midpoint-rule integration of the backscatter differential, span by span.

    Numerical cross-check for rbs_power: each slab dz scatters P(z)*B*dz, the
    scatter attenuates back over z, and the backward amplifier restores span
    transparency with gain exp(alpha*L_span). Converges to the closed form as
    dz -> 0.
    """
    if launch_w < 0:
        raise ValueError(f"launch_w must be >= 0, got {launch_w}")
    if not span_km > 0:
        raise ValueError(f"span_km must be > 0, got {span_km}")
    if n_spans < 0:
        raise ValueError(f"n_spans must be >= 0, got {n_spans}")
    if not dz_km > 0:
        raise ValueError(f"dz_km must be > 0, got {dz_km}")
    steps = round(span_km / dz_km)
    if steps < 1 or abs(steps * dz_km - span_km) > 1e-9 * span_km:
        raise ValueError(f"dz_km={dz_km} does not divide span_km={span_km}")
    import numpy as np

    alpha = attenuation_db_to_per_km(loss_db_per_km)
    b_lin = db_to_linear(backscatter_db_per_km)
    midpoints = (np.arange(steps) + 0.5) * dz_km
    per_span = float(np.sum(launch_w * np.exp(-2.0 * alpha * midpoints) * b_lin * dz_km))
    # Backward gain restores transparency at each span start; the return path
    # through earlier spans has net gain 1, so every span contributes equally.
    return n_spans * per_span * math.exp(alpha * span_km)


def combine_gsnr(components: Sequence[float]) -> SnrBudget:
    """Sum up to four 1/SNR contributions (ase, nli, imi, rbs order) into a budget."""
    values = [float(v) for v in components]
    if not values:
        raise ValueError("at least one 1/SNR component is required")
    if len(values) > len(COMPONENTS):
        raise ValueError(f"at most {len(COMPONENTS)} components (ase, nli, imi, rbs)")
    for v in values:
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"1/SNR components must be finite and >= 0, got {v}")
    values += [0.0] * (len(COMPONENTS) - len(values))
    total = sum(values)
    if total == 0:
        raise ValueError("all components are zero: infinite GSNR is not an operating point")
    gsnr = 1.0 / total
    return SnrBudget(*values, gsnr_linear=gsnr, gsnr_db=linear_to_db(gsnr))
