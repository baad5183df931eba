"""Link-budget engine and design-space explorer for bidirectional
hollow-core-fiber submarine cables.

Names are exported lazily (PEP 562): `from hcflink import link_gsnr` imports
only the module that defines it. That is not what keeps numpy out, since no
module imports numpy when it is imported. It keeps start-up short: the CLI
imports this package first, and budget, rbs, powerfeed and latency never
import explore (tests/test_startup.py).
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("DEFAULTS", "ConfigError", "GridSpec", "RunConfig", "parse_config",
               "resolve_transceiver"),
    "explore": ("SolverSettings", "SpanCurvePoint", "SweepGrid", "extract_contour",
                "required_edfa_power", "sensitivity_delta", "span_length_curve",
                "sweep_grid"),
    "impairments": ("AmplifierSpec", "FiberSpec", "SnrBudget", "ase_inv_snr", "combine_gsnr",
                    "gn_nli_psd_per_span", "imi_inv_snr", "nli_inv_snr", "rbs_brute_force",
                    "rbs_enhancement", "rbs_inv_snr", "rbs_power"),
    "system": ("DEFAULT_CONSTANTS", "InfeasibleError", "LinkPlan", "OperatingPoint",
               "PowerFeedResult", "PowerFeedSpec", "ShannonGapTransceiver",
               "TabulatedTransceiver", "TransceiverModel", "cable_throughput",
               "calibrate_trx_gap", "channel_net_rate", "channels_in_band", "gsnr_terms",
               "link_gsnr", "load_transceiver_table", "per_channel_launch", "power_feed",
               "propagation_latency", "repeater_count"),
    "units": ("PhysicalConstants", "attenuation_db_to_per_km", "db_to_linear", "dbm_to_watt",
              "linear_to_db", "sinhc", "watt_to_dbm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Only exported names resolve here; any other name, a submodule not yet
    # imported included, raises so that `from hcflink import explore` falls
    # back to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
