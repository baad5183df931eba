"""Per-channel noise and interference contributions.

Each impairment (amplifier ASE, Kerr nonlinear interference, inter-modal
crosstalk, Rayleigh backscattering) is expressed as a dimensionless linear
1/SNR so that contributions can be summed into a single GSNR.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .domain import check_domain
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

# The least |D| of a fiber, since the NLI divides by |beta2|, and the power window
# of an OperatingPoint: the NLI term, cubic in power, leaves float range near
# 1500 dBm.
MIN_ABS_DISPERSION_PS_NM_KM = 1e-6
MAX_ABS_POWER_DBM = 300.0

# Longest NLI effective length whose square is a finite float.
MAX_EFFECTIVE_LENGTH_KM = math.sqrt(sys.float_info.max)

# Least loss whose attenuation (1/km) is a normal float; below it the
# attenuation underflows to a subnormal or 0 and the NLI's 1/alpha to inf.
MIN_LOSS_DB_PER_KM = DB_PER_NEPER * sys.float_info.min


def _check_loss_floor(loss_db_per_km: float, name: str = "fiber.loss_db_per_km") -> None:
    if not loss_db_per_km >= MIN_LOSS_DB_PER_KM:
        raise ValueError(f"{name} must be >= {MIN_LOSS_DB_PER_KM:.4g} (its "
                         f"attenuation must not underflow), got {loss_db_per_km}")


@dataclass(frozen=True)
class FiberSpec:
    """Physical fiber parameters (the config's fiber section); the defaults
    are the reference hollow-core fiber. Each lies in its domain row, and
    |dispersion_ps_nm_km| is at least MIN_ABS_DISPERSION_PS_NM_KM.

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
        check_domain(self, "fiber")
        if not abs(self.dispersion_ps_nm_km) >= MIN_ABS_DISPERSION_PS_NM_KM:
            raise ValueError(f"fiber.dispersion_ps_nm_km must have magnitude >= "
                             f"{MIN_ABS_DISPERSION_PS_NM_KM:g}, got {self.dispersion_ps_nm_km}")


@dataclass(frozen=True)
class AmplifierSpec:
    """Repeater gain block: the EDFA plus the lumped losses around it (the
    config's amplifier section); the defaults are the reference repeater. Each
    lies in its domain row."""

    noise_figure_db: float = 4.6
    total_output_power_dbm: float = 20.3
    pre_input_loss_db: float = 2.0
    post_output_loss_db: float = 2.0

    def __post_init__(self) -> None:
        check_domain(self, "amplifier")


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


def ase_inv_snrs(amp: AmplifierSpec, per_channel_output_w: float,
                 gains_db_and_counts: Iterable[tuple[float, int]], noise_bw_hz: float,
                 const: PhysicalConstants) -> list[float]:
    """Accumulated amplifier noise-to-signal ratio of each (gain_db, n_amps) pair.

    Each gain block adds F*h*nu*(G-1)*B_n of noise power (both polarizations)
    referenced to the per-channel power at its output. The checks and the
    factor F*h*nu that need no pair run once, before the first pair.
    """
    if not per_channel_output_w > 0:
        raise ValueError(f"per_channel_output_w must be > 0, got {per_channel_output_w}")
    if not noise_bw_hz > 0:
        raise ValueError(f"noise_bw_hz must be > 0, got {noise_bw_hz}")
    noise_prefix = (db_to_linear(amp.noise_figure_db) * const.planck_j_s
                    * const.reference_frequency_hz)
    inv_snrs = []
    for gain_db, n_amps in gains_db_and_counts:
        if not gain_db > 0:
            raise ValueError(f"transparency requires gain > 0 dB, got {gain_db}")
        if n_amps < 0:
            raise ValueError(f"n_amps must be >= 0, got {n_amps}")
        if n_amps and gain_db == math.inf:  # db_to_linear's check, inlined below
            raise ValueError(f"dB value must be finite, got {gain_db}")
        p_ase = noise_prefix * (10.0 ** (gain_db / 10.0) - 1.0) * noise_bw_hz if n_amps else 0.0
        inv_snrs.append(n_amps * p_ase / per_channel_output_w)
    return inv_snrs


def ase_inv_snr(amp: AmplifierSpec, per_channel_output_w: float, gain_db: float, n_amps: int,
                noise_bw_hz: float, const: PhysicalConstants) -> float:
    """The ase_inv_snrs of one (gain_db, n_amps) pair."""
    return ase_inv_snrs(amp, per_channel_output_w, ((gain_db, n_amps),), noise_bw_hz, const)[0]


def gn_nli_psds_per_span(fiber: FiberSpec, launch_psd_w_hz: float, spans_km: Iterable[float],
                         comb_bw_hz: float, const: PhysicalConstants,
                         loss_db_per_km: float | None = None,
                         name: str = "fiber.loss_db_per_km") -> list[float]:
    """Nonlinear-interference PSD (W/Hz) generated in one span of each length,
    at loss_db_per_km (default: the fiber's).

    Incoherent Gaussian-noise closed form for the center channel of a flat
    comb of PSD `launch_psd_w_hz` spanning `comb_bw_hz`. The checks, the
    factor (8/27)*gamma^2*PSD^3, the asinh term and the denominator need no
    span length, so they run once; each span adds only its effective length.
    Those checks refuse a loss below FiberSpec's floor, then, naming `name`,
    one whose asinh argument 0.5*pi^2*|beta2|*B^2/alpha is beyond float range
    (below about 1.1e-305 dB/km at 3 ps/(nm km) and 5 THz) and one whose
    denominator pi*|beta2|/alpha underflows to 0 (above about 2e301 dB/km at
    3 ps/(nm km), and an infinite loss). A PSD whose factor leaves float range, or
    is NaN, is refused next, and a span whose effective length passes
    MAX_EFFECTIVE_LENGTH_KM (about 1.3e154 km) last, naming `name` and the span.
    """
    if launch_psd_w_hz < 0:
        raise ValueError(f"launch_psd_w_hz must be >= 0, got {launch_psd_w_hz}")
    if not comb_bw_hz > 0:
        raise ValueError(f"comb_bw_hz must be > 0, got {comb_bw_hz}")
    loss = fiber.loss_db_per_km if loss_db_per_km is None else loss_db_per_km
    _check_loss_floor(loss, name)
    alpha = attenuation_db_to_per_km(loss)
    l_eff_a = 1.0 / alpha
    beta2 = (abs(fiber.dispersion_ps_nm_km) * 1e-3 * const.reference_wavelength_m**2
             / (2.0 * math.pi * (const.light_speed_km_s * 1e3)))
    asinh_arg = 0.5 * math.pi**2 * beta2 * l_eff_a * comb_bw_hz**2
    if asinh_arg == math.inf:
        raise ValueError(f"{name}={loss} puts the NLI's asinh argument 0.5*pi^2*|beta2|*B^2/"
                         f"alpha beyond float range at fiber.dispersion_ps_nm_km="
                         f"{fiber.dispersion_ps_nm_km:g} and link.band_hz={comb_bw_hz:g}")
    denominator = math.pi * beta2 * l_eff_a
    if denominator == 0:
        raise ValueError(f"{name}={loss} puts the NLI's denominator pi*|beta2|/alpha below "
                         f"float range at fiber.dispersion_ps_nm_km={fiber.dispersion_ps_nm_km:g}")
    try:
        prefix = (8.0 / 27.0) * fiber.gamma_per_w_km**2 * launch_psd_w_hz**3
    except OverflowError:
        prefix = math.inf
    if not prefix < math.inf:  # NaN too: no NLI (gamma = 0) times an infinite PSD
        raise ValueError(f"launch_psd_w_hz={launch_psd_w_hz:g} puts the NLI prefix (8/27)*gamma^2*"
                         f"PSD^3 beyond float range at fiber.gamma_per_w_km="
                         f"{fiber.gamma_per_w_km:g}")
    asinh_value = math.asinh(asinh_arg)
    psds = []
    for span_km in spans_km:
        if not span_km > 0:
            raise ValueError(f"span_km must be > 0, got {span_km}")
        l_eff = -math.expm1(-alpha * span_km) / alpha
        if l_eff > MAX_EFFECTIVE_LENGTH_KM:
            raise ValueError(f"{name}={loss} gives a {span_km:g} km span the NLI effective "
                             f"length {l_eff:g} km, whose square is beyond float range")
        psds.append(prefix * l_eff**2 * asinh_value / denominator)
    return psds


def gn_nli_psd_per_span(fiber: FiberSpec, launch_psd_w_hz: float, span_km: float,
                        comb_bw_hz: float, const: PhysicalConstants) -> float:
    """The gn_nli_psds_per_span of one span length."""
    return gn_nli_psds_per_span(fiber, launch_psd_w_hz, (span_km,), comb_bw_hz, const)[0]


def nli_inv_snrs(psds_and_counts: Iterable[tuple[float, int]], channel_bw_hz: float,
                 per_channel_launch_w: float) -> list[float]:
    """Nonlinear-interference-to-signal ratio of each (psd_per_span_w_hz, n_spans)
    pair, accumulated linearly over spans."""
    if channel_bw_hz < 0:
        raise ValueError(f"channel_bw_hz must be >= 0, got {channel_bw_hz}")
    if not per_channel_launch_w > 0:
        raise ValueError(f"per_channel_launch_w must be > 0, got {per_channel_launch_w}")
    inv_snrs = []
    for psd_per_span_w_hz, n_spans in psds_and_counts:
        if psd_per_span_w_hz < 0:
            raise ValueError(f"psd_per_span_w_hz must be >= 0, got {psd_per_span_w_hz}")
        if n_spans < 0:
            raise ValueError(f"n_spans must be >= 0, got {n_spans}")
        inv_snrs.append(n_spans * psd_per_span_w_hz * channel_bw_hz / per_channel_launch_w)
    return inv_snrs


def nli_inv_snr(psd_per_span_w_hz: float, n_spans: int, channel_bw_hz: float,
                per_channel_launch_w: float) -> float:
    """The nli_inv_snrs of one (psd_per_span_w_hz, n_spans) pair."""
    return nli_inv_snrs(((psd_per_span_w_hz, n_spans),), channel_bw_hz, per_channel_launch_w)[0]


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
    """Backscatter-to-signal ratio L_tot * B * enh(A_dB): the rbs_power of a
    1 W launch, since the ratio is independent of launch power."""
    return rbs_power(1.0, backscatter_db_per_km, total_length_km, span_loss_db)


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
    alpha = attenuation_db_to_per_km(loss_db_per_km)
    b_lin = db_to_linear(backscatter_db_per_km)
    per_span = math.fsum(launch_w * math.exp(-2.0 * alpha * ((k + 0.5) * dz_km)) * b_lin * dz_km
                         for k in range(steps))
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
    # Left to right, as sum() adds floats before Python 3.12 and not after.
    total = values[0] + values[1] + values[2] + values[3]
    if total == 0 or 1.0 / total == math.inf:
        raise ValueError(f"the components sum to {total:g}: infinite GSNR is not an operating "
                         "point")
    gsnr = 1.0 / total
    return SnrBudget(*values, gsnr_linear=gsnr, gsnr_db=linear_to_db(gsnr))
