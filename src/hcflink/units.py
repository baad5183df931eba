"""Decibel and power conversions plus the hyperbolic sinc.

Everything downstream computes in linear units (watts, per-km, Hz); dB and
dBm appear only at module boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 10*log10(e) ~ 4.342945: dB of attenuation per neper of power decay.
DB_PER_NEPER = 10.0 * math.log10(math.e)

_SINHC_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants shared by the noise models: Planck's constant, the speed of light
    and a reference carrier. The carrier is optical, its frequency in [1e14, 1e15] Hz
    (0.3-3 um), and frequency * wavelength agrees with c to within 0.3% (C-band
    centering is a convention); anything else, NaN too, is refused."""

    planck_j_s = 6.62607015e-34
    light_speed_km_s = 299792.458
    reference_frequency_hz: float = 193.4e12
    reference_wavelength_m: float = 1550e-9

    def __post_init__(self) -> None:
        if not 1e14 <= self.reference_frequency_hz <= 1e15:
            raise ValueError(f"reference_frequency_hz must lie in [1e+14, 1e+15], "
                             f"got {self.reference_frequency_hz}")
        c_km_s = self.reference_frequency_hz * self.reference_wavelength_m / 1e3
        if not abs(c_km_s - self.light_speed_km_s) <= 3e-3 * self.light_speed_km_s:
            raise ValueError(
                "reference_frequency_hz * reference_wavelength_m deviates from "
                "the speed of light by more than 0.3%"
            )


def db_to_linear(value_db: float) -> float:
    """Power ratio for a dB value."""
    if not math.isfinite(value_db):
        raise ValueError(f"dB value must be finite, got {value_db}")
    return 10.0 ** (value_db / 10.0)


def linear_to_db(ratio: float) -> float:
    """dB value of a positive power ratio."""
    if not ratio > 0:
        raise ValueError(f"ratio must be > 0, got {ratio}")
    return 10.0 * math.log10(ratio)


def dbm_to_watt(power_dbm: float) -> float:
    """Absolute power in watts for a dBm value."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"dBm value must be finite, got {power_dbm}")
    return 1e-3 * 10.0 ** (power_dbm / 10.0)


def watt_to_dbm(power_w: float) -> float:
    """dBm value of a positive power in watts."""
    if not power_w > 0:
        raise ValueError(f"power must be > 0 W, got {power_w}")
    return 10.0 * math.log10(power_w / 1e-3)


def attenuation_db_to_per_km(loss_db_per_km: float) -> float:
    """Linear power attenuation coefficient (1/km) for a dB/km loss."""
    if not loss_db_per_km >= 0:
        raise ValueError(f"attenuation must be >= 0 dB/km, got {loss_db_per_km}")
    return loss_db_per_km / DB_PER_NEPER


def sinhc(x: float) -> float:
    """sinh(x)/x with the removable singularity at zero filled in.

    Equals 1 at x = 0 and increases monotonically; small arguments use the
    Taylor series 1 + x^2/6 + x^4/120 so the distributed-amplification limit
    is exact. Raises ValueError where sinh(x) passes float range (x > ~710.5).
    """
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(f"sinhc argument must be finite and >= 0, got {x}")
    if x < _SINHC_SERIES_CUTOFF:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    try:
        return math.sinh(x) / x
    except OverflowError:
        raise ValueError(f"sinhc argument {x} puts sinh(x) beyond float range") from None
