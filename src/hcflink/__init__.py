"""Link-budget engine and design-space explorer for bidirectional
hollow-core-fiber submarine cables."""

from .config import DEFAULTS, ConfigError, RunConfig, parse_config, resolve_transceiver
from .explore import (
    GridSpec,
    SolverSettings,
    SpanCurvePoint,
    SweepGrid,
    extract_contour,
    required_edfa_power,
    sensitivity_delta,
    span_length_curve,
    sweep_grid,
)
from .impairments import (
    AmplifierSpec,
    FiberSpec,
    SnrBudget,
    ase_inv_snr,
    combine_gsnr,
    gn_nli_psd_per_span,
    imi_inv_snr,
    nli_inv_snr,
    rbs_brute_force,
    rbs_enhancement,
    rbs_inv_snr,
    rbs_power,
)
from .system import (
    DEFAULT_CONSTANTS,
    InfeasibleError,
    LinkPlan,
    OperatingPoint,
    PowerFeedResult,
    PowerFeedSpec,
    ShannonGapTransceiver,
    TabulatedTransceiver,
    TransceiverModel,
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
from .units import (
    PhysicalConstants,
    attenuation_db_to_per_km,
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    sinhc,
    watt_to_dbm,
)

__version__ = "0.1.0"
