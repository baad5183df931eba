from __future__ import annotations

import math
import re

import numpy as np
import pytest

from hcflink.units import (
    DB_PER_NEPER,
    PhysicalConstants,
    attenuation_db_to_per_km,
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    sinhc,
    watt_to_dbm,
)


def test_db_to_linear_examples():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(4.6) == pytest.approx(2.884031503126606, rel=1e-12)


def test_db_to_linear_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            db_to_linear(bad)


def test_linear_to_db_examples():
    assert linear_to_db(1.0) == 0.0
    assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)
    assert linear_to_db(2.884031503126606) == pytest.approx(4.6, abs=1e-12)


def test_linear_to_db_rejects_non_positive():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            linear_to_db(bad)


def test_db_round_trip_within_1e9():
    for x in np.linspace(-100.0, 100.0, 2001):
        assert linear_to_db(db_to_linear(float(x))) == pytest.approx(float(x), abs=1e-9)


def test_dbm_watt_examples():
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(20.3) == pytest.approx(0.1071519305237607, rel=1e-12)
    assert watt_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
    assert watt_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    assert watt_to_dbm(0.10715) == pytest.approx(20.3, abs=1e-3)


def test_dbm_watt_round_trip():
    for p in np.linspace(-60.0, 40.0, 101):
        assert watt_to_dbm(dbm_to_watt(float(p))) == pytest.approx(float(p), abs=1e-12)


def test_dbm_watt_domain_errors():
    with pytest.raises(ValueError):
        dbm_to_watt(math.nan)
    for bad in (0.0, -1e-3):
        with pytest.raises(ValueError):
            watt_to_dbm(bad)


def test_attenuation_conversion():
    assert attenuation_db_to_per_km(0.0) == 0.0
    assert attenuation_db_to_per_km(0.06) == pytest.approx(0.013815510557964273, rel=1e-12)
    assert attenuation_db_to_per_km(DB_PER_NEPER) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        attenuation_db_to_per_km(-0.01)


def test_sinhc_examples():
    assert sinhc(0.0) == 1.0
    # sinh(ln 10) = (10 - 1/10)/2 = 4.95 exactly
    assert sinhc(math.log(10.0)) == pytest.approx(4.95 / math.log(10.0), rel=1e-12)
    assert sinhc(2.302585) == pytest.approx(2.14976, abs=1e-4)
    assert sinhc(14.0 / DB_PER_NEPER) == pytest.approx(3.8898909246374496, rel=1e-10)
    with pytest.raises(ValueError):
        sinhc(-1e-9)


def test_sinhc_monotone_and_bounded_below():
    xs = np.linspace(0.0, 20.0, 1000)
    values = [sinhc(float(x)) for x in xs]
    assert all(v >= 1.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sinhc_series_guard_near_zero():
    for x in [0.0, 1e-8, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3]:
        assert abs(sinhc(x) - (1.0 + x * x / 6.0)) <= 1e-10


def test_constants_defaults_consistent():
    const = PhysicalConstants()
    c_km_s = const.reference_frequency_hz * const.reference_wavelength_m / 1e3
    assert abs(c_km_s - const.light_speed_km_s) <= 3e-3 * const.light_speed_km_s


def test_constants_reject_inconsistent_grid():
    with pytest.raises(ValueError):
        PhysicalConstants(reference_frequency_hz=200e12, reference_wavelength_m=1600e-9)


@pytest.mark.parametrize("frequency_hz,wavelength_m,message", [
    (math.nan, 1550e-9, "reference_frequency_hz must lie in [1e+14, 1e+15], got nan"),
    (math.inf, 0.0, "reference_frequency_hz must lie in [1e+14, 1e+15], got inf"),
    (2.99792458e-152, 1e160,
     "reference_frequency_hz must lie in [1e+14, 1e+15], got 2.99792458e-152"),
    (math.nextafter(1e14, 0.0), 2.99792458e-6,
     "reference_frequency_hz must lie in [1e+14, 1e+15], got 99999999999999.98"),
    (math.nextafter(1e15, math.inf), 2.99792458e-7,
     "reference_frequency_hz must lie in [1e+14, 1e+15], got 1000000000000000.1"),
    (193.4e12, math.nan, "reference_frequency_hz * reference_wavelength_m deviates from the "
                         "speed of light by more than 0.3%"),
    (193.4e12, math.inf, "reference_frequency_hz * reference_wavelength_m deviates from the "
                         "speed of light by more than 0.3%"),
], ids=["nan", "inf", "1e160-m", "below", "above", "nan-wavelength", "inf-wavelength"])
def test_constants_refuse_a_carrier_outside_the_optical_row(frequency_hz, wavelength_m, message):
    """The carrier lies in [1e14, 1e15] Hz, with a wavelength within 0.3% of c/f;
    NaN and far carriers are refused when the constants are built."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PhysicalConstants(reference_frequency_hz=frequency_hz, reference_wavelength_m=wavelength_m)


def test_constants_hold_planck_and_c_as_class_constants():
    const = PhysicalConstants(reference_frequency_hz=1e15, reference_wavelength_m=2.99792458e-7)
    assert (const.planck_j_s, const.light_speed_km_s) == (6.62607015e-34, 299792.458)
    with pytest.raises(TypeError, match="planck_j_s"):
        PhysicalConstants(planck_j_s=6.6e-34)


def test_sinhc_past_the_sinh_overflow_is_a_value_error():
    """sinh overflows near x = 710.5; past it sinhc refuses the argument by value,
    and a negative or non-finite one keeps its own message."""
    assert math.isfinite(sinhc(710.0))
    for x in (711.0, 1e6, 1e308):
        with pytest.raises(ValueError, match=rf"^sinhc argument {re.escape(str(x))} puts sinh"):
            sinhc(x)
    for x in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^sinhc argument must be finite and >= 0"):
            sinhc(x)
