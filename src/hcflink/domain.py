"""The physical domain of every numeric config value: DOMAIN bounds each key to a
closed range far wider than any cable (README gives each bound's reason)."""

from __future__ import annotations

DOMAIN: dict[str, tuple[float, float]] = {
    "fiber.loss_db_per_km": (1e-4, 10.0),
    "fiber.dispersion_ps_nm_km": (-1e3, 1e3),
    "fiber.gamma_per_w_km": (0.0, 100.0),
    "fiber.imi_db_per_km": (-300.0, 0.0),
    "fiber.backscatter_db_per_km": (-300.0, 0.0),
    "fiber.group_index": (1.0, 2.0),
    "span.span_length_km": (1e-3, 1e4),
    "link.total_length_km": (1e-3, 1e5),
    "link.band_hz": (1e6, 193.4e12),
    "link.channel_spacing_hz": (1e6, 193.4e12),
    "link.symbol_rate_hz": (1e6, 193.4e12),
    "link.n_fibers_per_direction": (0, 10_000),
    "amplifier.noise_figure_db": (0.0, 30.0),
    "amplifier.total_output_power_dbm": (-60.0, 60.0),
    "amplifier.pre_input_loss_db": (0.0, 50.0),
    "amplifier.post_output_loss_db": (0.0, 50.0),
    "transceiver.gap_db": (0.0, 60.0),
    "transceiver.max_rate_gbps": (1e-3, 1e6),
    "transceiver.calibration_target_tbps": (1e-3, 1e9),
    "powerfeed.feed_current_a": (1e-6, 100.0),
    "powerfeed.cable_resistance_ohm_per_km": (1e-6, 1e3),
    "powerfeed.repeater_power_w": (1e-6, 1e6),
    "powerfeed.supply_limit_w": (1e-6, 1e12),
    "sweep.loss_min": (1e-4, 10.0),
    "sweep.loss_max": (1e-4, 10.0),
    "sweep.loss_steps": (2, 2_000_000),
    "sweep.power_min": (-60.0, 60.0),
    "sweep.power_max": (-60.0, 60.0),
    "sweep.power_steps": (2, 2_000_000),
}


def check_value(value: float, key: str, name: str | None = None) -> None:
    """Raise ValueError, naming `name` or else the key, unless value lies in its row."""
    low, high = DOMAIN[key]
    if not low <= value <= high:  # NaN too
        raise ValueError(f"{name or key} must lie in [{low:g}, {high:g}], got {value}")


def check_domain(obj: object, *sections: str) -> None:
    """check_value of each field of obj that the sections' rows name; None passes."""
    for section in sections:
        for field, key, low, high in _ROWS[section]:
            value = getattr(obj, field)
            if value is not None and not low <= value <= high:
                check_value(value, key)


# Each section's (field, key, low, high) rows in table order, built once.
_ROWS = {section: tuple((key.partition(".")[2], key, low, high)
                        for key, (low, high) in DOMAIN.items() if key.startswith(f"{section}."))
         for section in dict.fromkeys(key.partition(".")[0] for key in DOMAIN)}
