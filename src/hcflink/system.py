"""End-to-end link composition.

Builds the channel grid, assembles the GSNR budget at an operating point,
maps GSNR to net throughput through a transceiver model, and evaluates the
electrical power feed and propagation latency.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .impairments import (
    MAX_ABS_POWER_DBM,
    AmplifierSpec,
    FiberSpec,
    SnrBudget,
    ase_inv_snr,
    combine_gsnr,
    gn_asinh_scale,
    gn_nli_psd_per_span,
    imi_inv_snr,
    nli_inv_snr,
    rbs_inv_snr,
)
from .units import PhysicalConstants, attenuation_db_to_per_km, dbm_to_watt
from .units import db_to_linear  # noqa: F401  (perfbench's traced run patches system.db_to_linear)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CONSTANTS = PhysicalConstants()

# Group index used for the solid-core latency comparison output.
SOLID_CORE_GROUP_INDEX = 1.468

# Most spans a link may be cut into; it also keeps total/span from reaching
# float overflow before the count is rounded to an int.
MAX_SPANS = 100_000

# Largest span gain: fiber span loss plus the lumped losses around the EDFA.
# The linear gain and the backscatter build-up sinh(x)/x overflow near 3000 dB.
MAX_SPAN_GAIN_DB = 1000.0


class InfeasibleError(RuntimeError):
    """The requested target cannot be reached inside the admissible power window."""


def span_count(total_length_km: float, span_length_km: float) -> int:
    """Number of spans partitioning the link, rounding half up."""
    if not total_length_km > 0:
        raise ValueError(f"total_length_km must be > 0, got {total_length_km}")
    if not span_length_km > 0:
        raise ValueError(f"span_length_km must be > 0, got {span_length_km}")
    ratio = total_length_km / span_length_km
    if ratio > MAX_SPANS:
        raise ValueError(f"{total_length_km:g} km in {span_length_km:g} km spans exceeds "
                         f"MAX_SPANS = {MAX_SPANS}")
    return int(ratio + 0.5)


def channels_in_band(band_hz: float, spacing_hz: float) -> int:
    """How many channels of the given spacing fit in the band."""
    if not band_hz > 0:
        raise ValueError(f"band_hz must be > 0, got {band_hz}")
    if not spacing_hz > 0:
        raise ValueError(f"spacing_hz must be > 0, got {spacing_hz}")
    return int(math.floor(band_hz / spacing_hz + 1e-9))


@dataclass(frozen=True)
class LinkPlan:
    """Topology and channel grid of one cable direction."""

    fiber: FiberSpec
    amp: AmplifierSpec
    total_length_km: float = 6600.0
    span_length_km: float = 200.0
    band_hz: float = 5e12
    channel_spacing_hz: float = 75e9
    symbol_rate_hz: float = 73.5e9
    n_fibers_per_direction: int = 26

    def __post_init__(self) -> None:
        if not self.total_length_km > 0:
            raise ValueError(f"link.total_length_km must be > 0, got {self.total_length_km}")
        if not 0 < self.span_length_km <= self.total_length_km:
            raise ValueError(f"span.span_length_km={self.span_length_km} must lie in "
                             f"(0, link.total_length_km={self.total_length_km}]")
        ratio = self.total_length_km / self.span_length_km
        if ratio > MAX_SPANS:
            raise ValueError(f"link.total_length_km / span.span_length_km = {ratio:g} "
                             f"exceeds MAX_SPANS = {MAX_SPANS}")
        self.span_gain_db(self.fiber.loss_db_per_km)
        if not self.symbol_rate_hz > 0:
            raise ValueError(f"link.symbol_rate_hz must be > 0, got {self.symbol_rate_hz}")
        if self.channel_spacing_hz < self.symbol_rate_hz:
            raise ValueError(
                f"link.channel_spacing_hz={self.channel_spacing_hz} must be >= "
                f"link.symbol_rate_hz={self.symbol_rate_hz} (no spectral overlap)"
            )
        if not 0 < self.band_hz < DEFAULT_CONSTANTS.reference_frequency_hz:
            raise ValueError(f"link.band_hz must lie between 0 and the carrier frequency "
                             f"{DEFAULT_CONSTANTS.reference_frequency_hz:g} Hz, got {self.band_hz}")
        self.check_nli_loss(self.fiber.loss_db_per_km)
        if self.n_fibers_per_direction < 0:
            raise ValueError(
                f"link.n_fibers_per_direction must be >= 0, got {self.n_fibers_per_direction}"
            )
        if self.n_fibers_per_direction > 1e6:  # far beyond any cable; the count stays a float
            raise ValueError(
                f"link.n_fibers_per_direction must be <= 1e6, got {self.n_fibers_per_direction}"
            )
        if self.n_channels < 1:
            raise ValueError(
                f"link.band_hz={self.band_hz} holds no channel at "
                f"link.channel_spacing_hz={self.channel_spacing_hz}"
            )

    @property
    def n_spans(self) -> int:
        return span_count(self.total_length_km, self.span_length_km)

    @property
    def effective_span_km(self) -> float:
        """Span length after snapping to an integer partition of the link."""
        return self.total_length_km / self.n_spans

    @property
    def n_channels(self) -> int:
        return channels_in_band(self.band_hz, self.channel_spacing_hz)

    def span_gain_db(self, loss_db_per_km: float, n_spans: int | None = None,
                     name: str = "fiber.loss_db_per_km") -> float:
        """Gain (dB) of one of n_spans equal spans (default: the plan's) at this
        loss: fiber span loss plus lumped losses. Raises, naming `name`, for a
        negative loss or a gain above MAX_SPAN_GAIN_DB."""
        span_km = self.total_length_km / (self.n_spans if n_spans is None else n_spans)
        amp = self.amp
        gain_db = loss_db_per_km * span_km + amp.pre_input_loss_db + amp.post_output_loss_db
        if not (loss_db_per_km >= 0 and gain_db <= MAX_SPAN_GAIN_DB):
            raise ValueError(f"{name}={loss_db_per_km} must be >= 0 and keep the span gain (loss x "
                             f"{span_km:g} km + amplifier.pre_input_loss_db + amplifier."
                             f"post_output_loss_db = {gain_db:g} dB) <= {MAX_SPAN_GAIN_DB:g} dB")
        return gain_db

    def check_nli_loss(self, loss_db_per_km: float, name: str = "fiber.loss_db_per_km") -> None:
        """Raise, naming `name`, when the NLI's asinh argument 0.5*pi^2*|beta2|*B^2/alpha
        is inf at this loss, as gn_nli_psd_per_span computes it: below about
        1.1e-305 dB/km at 3 ps/(nm km) and 5 THz."""
        alpha = attenuation_db_to_per_km(loss_db_per_km)
        scale = gn_asinh_scale(self.fiber.dispersion_ps_nm_km, DEFAULT_CONSTANTS)[1]
        if not alpha > 0 or scale * (1.0 / alpha) * self.band_hz**2 == math.inf:
            raise ValueError(f"{name}={loss_db_per_km} puts the NLI's asinh argument "
                             f"0.5*pi^2*|beta2|*B^2/alpha beyond float range at fiber.dispersion_"
                             f"ps_nm_km={self.fiber.dispersion_ps_nm_km:g} and link.band_hz="
                             f"{self.band_hz:g}")


@dataclass(frozen=True)
class OperatingPoint:
    """One point of the design plane: fiber loss and total EDFA output power."""

    loss_db_per_km: float
    edfa_total_output_dbm: float

    def __post_init__(self) -> None:
        if not self.loss_db_per_km > 0:
            raise ValueError(f"loss_db_per_km must be > 0, got {self.loss_db_per_km}")
        if not abs(self.edfa_total_output_dbm) <= MAX_ABS_POWER_DBM:
            raise ValueError(f"edfa_total_output_dbm must lie within +/-{MAX_ABS_POWER_DBM:g} "
                             f"dBm, got {self.edfa_total_output_dbm}")


@dataclass(frozen=True)
class PowerFeedSpec:
    """Electrical supply model: conductor dissipation plus repeater load."""

    feed_current_a: float = 1.0
    cable_resistance_ohm_per_km: float = 1.0
    repeater_power_w: float = 180.0
    supply_limit_w: float = 18000.0

    def __post_init__(self) -> None:
        for name in (
            "feed_current_a",
            "cable_resistance_ohm_per_km",
            "repeater_power_w",
            "supply_limit_w",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"powerfeed.{name} must be > 0, got {getattr(self, name)}")
        if self.feed_current_a > 1e6:  # far beyond any real feed; I^2 stays a finite float
            raise ValueError(f"powerfeed.feed_current_a must be <= 1e6, got {self.feed_current_a}")


@dataclass(frozen=True)
class PowerFeedResult:
    cable_w: float
    repeaters_w: float
    total_w: float
    within_limit: bool


@dataclass(frozen=True)
class ShannonGapTransceiver:
    """Net rate 2*Rs*log2(1 + SNR/gap) in Gb/s, optionally capped."""

    gap_db: float
    max_rate_gbps: float = math.inf

    def __post_init__(self) -> None:
        if not self.gap_db >= 0:
            raise ValueError(f"gap_db must be >= 0, got {self.gap_db}")
        if not self.max_rate_gbps > 0:
            raise ValueError(f"max_rate_gbps must be > 0, got {self.max_rate_gbps}")

    def net_rate_gbps(self, gsnr_db: float | np.ndarray,
                      symbol_rate_hz: float) -> float | np.ndarray:
        """Rate at a finite GSNR or at every element of an array of them; a
        Python number goes through math, so it needs no numpy."""
        if isinstance(gsnr_db, (int, float)):
            log2, minimum = math.log2, min
        else:
            import numpy as np

            log2, minimum = np.log2, np.minimum
        try:
            snr = 10.0 ** ((gsnr_db - self.gap_db) / 10.0)
        except OverflowError:  # a Python float past 10^308; arrays give inf
            raise ValueError(f"gsnr_db = {gsnr_db} puts SNR/gap beyond float range "
                             f"(gap_db = {self.gap_db})") from None
        rate = 2.0 * symbol_rate_hz * log2(1.0 + snr) / 1e9
        return minimum(rate, self.max_rate_gbps) if self.max_rate_gbps < math.inf else rate

    def required_gsnr_db(self, rate_gbps: float, symbol_rate_hz: float) -> float:
        """Least GSNR (dB) whose rate reaches rate_gbps, SNR = gap * (2^(R/2Rs) - 1):
        +inf above the cap or beyond float range, -inf for a rate <= 0."""
        bits = rate_gbps * 1e9 / (2.0 * symbol_rate_hz)
        if rate_gbps > self.max_rate_gbps or bits >= sys.float_info.max_exp - 1:
            return math.inf
        snr = math.expm1(bits * math.log(2.0))
        return self.gap_db + 10.0 * math.log10(snr) if snr > 0 else -math.inf


@dataclass(frozen=True)
class TabulatedTransceiver:
    """Piecewise-linear (gsnr_db, net_rate_gbps) curve, clamped at the ends."""

    points: tuple[tuple[float, float], ...]
    _gsnr_db: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _rate_gbps: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = tuple((float(g), float(r)) for g, r in self.points)
        if not points:
            raise ValueError("transceiver table needs at least one point")
        for row, (g, r) in enumerate(points, 1):
            if not (math.isfinite(g) and math.isfinite(r)):
                raise ValueError(f"table row {row} ({g}, {r}) must be finite")
        for (g0, r0), (g1, r1) in zip(points, points[1:]):
            if not g1 > g0:
                raise ValueError(f"table gsnr_db must be strictly increasing: {g0} then {g1}")
            if r1 < r0:
                raise ValueError(f"table net_rate_gbps must be nondecreasing: {r0} then {r1}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_gsnr_db", tuple(g for g, _ in points))
        object.__setattr__(self, "_rate_gbps", tuple(r for _, r in points))

    def net_rate_gbps(self, gsnr_db: float | np.ndarray, symbol_rate_hz: float) -> np.ndarray:
        """Rate at a finite GSNR or at every element of an array of them."""
        import numpy as np

        return np.interp(gsnr_db, self._gsnr_db, self._rate_gbps)

    def required_gsnr_db(self, rate_gbps: float, symbol_rate_hz: float) -> float:
        """Least GSNR (dB) whose rate reaches rate_gbps: the left end of a flat
        segment; -inf at or below the first rate, +inf above the last or for NaN."""
        gsnr, rate = self._gsnr_db, self._rate_gbps
        if math.isnan(rate_gbps):  # np.searchsorted's order puts NaN after every rate
            return math.inf
        k = bisect.bisect_left(rate, rate_gbps)  # rate[k-1] < rate_gbps <= rate[k]
        if k in (0, len(rate)):
            return -math.inf if k == 0 else math.inf
        share = (rate[k] - rate_gbps) / (rate[k] - rate[k - 1])
        return gsnr[k] - share * (gsnr[k] - gsnr[k - 1])


TransceiverModel = Union[ShannonGapTransceiver, TabulatedTransceiver]


def load_transceiver_table(path: str | Path) -> TabulatedTransceiver:
    """Read a "gsnr_db,net_rate_gbps" table; '#' starts a comment."""
    points: list[tuple[float, float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'gsnr_db,net_rate_gbps'")
            try:
                row = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry {line!r}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite entry {line!r}")
            points.append(row)
    if not points:
        raise ValueError(f"{path}: empty transceiver table")
    return TabulatedTransceiver(tuple(points))


def per_channel_launch(
    edfa_total_output_dbm: float,
    n_channels: int,
    post_output_loss_db: float,
) -> float:
    """Per-channel power (W) entering the fiber after the post-EDFA losses."""
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if post_output_loss_db < 0:
        raise ValueError(f"post_output_loss_db must be >= 0, got {post_output_loss_db}")
    return dbm_to_watt(
        edfa_total_output_dbm - 10.0 * math.log10(n_channels) - post_output_loss_db
    )


def gsnr_terms(plan: LinkPlan, loss_db_per_km: float, n_spans: int,
               include_rbs: bool = False) -> tuple[float, float, float, float]:
    """ASE, NLI, IMI and RBS 1/SNR at a total EDFA output of 1 mW, the link
    cut into n_spans equal spans.

    At a total output of p mW, 1/GSNR = ASE/p + NLI*p^2 + IMI + RBS: the
    incoherent GN model's NLI PSD scales as the launch power cubed. Each span
    has one gain block restoring its fiber loss plus the lumped pre/post
    losses. The backscatter term uses the fiber-only span loss and is 0
    unless include_rbs is set.
    """
    fiber = replace(plan.fiber, loss_db_per_km=loss_db_per_km)
    n_channels = plan.n_channels
    span_km = plan.total_length_km / n_spans
    gain_db = plan.span_gain_db(loss_db_per_km, n_spans, "loss_db_per_km")
    p_out_w = dbm_to_watt(-10.0 * math.log10(n_channels))
    p_launch_w = per_channel_launch(0.0, n_channels, plan.amp.post_output_loss_db)
    psd = gn_nli_psd_per_span(
        fiber, p_launch_w / plan.channel_spacing_hz, span_km, plan.band_hz, DEFAULT_CONSTANTS
    )
    inv_rbs = (
        rbs_inv_snr(fiber.backscatter_db_per_km, plan.total_length_km, loss_db_per_km * span_km)
        if include_rbs
        else 0.0
    )
    return (
        ase_inv_snr(plan.amp, p_out_w, gain_db, n_spans, plan.symbol_rate_hz, DEFAULT_CONSTANTS),
        nli_inv_snr(psd, n_spans, plan.symbol_rate_hz, p_launch_w),
        imi_inv_snr(fiber.imi_db_per_km, plan.total_length_km),
        inv_rbs,
    )


def link_gsnr(plan: LinkPlan, op: OperatingPoint, include_rbs: bool = False) -> SnrBudget:
    """The four-impairment budget at one operating point, from gsnr_terms."""
    ase, nli, imi, rbs = gsnr_terms(plan, op.loss_db_per_km, plan.n_spans, include_rbs)
    p_mw = 10.0 ** (op.edfa_total_output_dbm / 10.0)
    return combine_gsnr([ase / p_mw, nli * p_mw * p_mw, imi, rbs])


def channel_net_rate(trx: TransceiverModel, gsnr_db: float, symbol_rate_hz: float) -> float:
    """Net information rate (Gb/s) of one channel at the given GSNR."""
    gsnr_db = float(gsnr_db)  # a numpy scalar would overflow to inf where a float raises
    if not math.isfinite(gsnr_db):
        raise ValueError(f"gsnr_db must be finite, got {gsnr_db}")
    return float(trx.net_rate_gbps(gsnr_db, symbol_rate_hz))


def cable_throughput(plan: LinkPlan, trx: TransceiverModel, op: OperatingPoint,
                     include_rbs: bool = False) -> float:
    """Net cable throughput in one direction, in Tb/s."""
    if plan.n_fibers_per_direction == 0:
        return 0.0
    budget = link_gsnr(plan, op, include_rbs)
    rate_gbps = channel_net_rate(trx, budget.gsnr_db, plan.symbol_rate_hz)
    return plan.n_fibers_per_direction * plan.n_channels * rate_gbps / 1e3


def repeater_count(total_length_km: float, span_length_km: float) -> int:
    """In-line repeaters: one per span boundary, end blocks live on shore."""
    if span_length_km > total_length_km:
        raise ValueError(
            f"span_length_km={span_length_km} exceeds total_length_km={total_length_km}"
        )
    return span_count(total_length_km, span_length_km) - 1


def power_feed(
    feed: PowerFeedSpec,
    total_length_km: float,
    n_repeaters: int,
) -> PowerFeedResult:
    """Electrical budget: I^2*R conductor dissipation plus repeater load."""
    if total_length_km < 0:
        raise ValueError(f"total_length_km must be >= 0, got {total_length_km}")
    if n_repeaters < 0:
        raise ValueError(f"n_repeaters must be >= 0, got {n_repeaters}")
    cable_w = feed.feed_current_a**2 * feed.cable_resistance_ohm_per_km * total_length_km
    repeaters_w = n_repeaters * feed.repeater_power_w
    total_w = cable_w + repeaters_w
    return PowerFeedResult(cable_w, repeaters_w, total_w, total_w <= feed.supply_limit_w)


def propagation_latency(total_length_km: float, group_index: float) -> float:
    """One-way propagation time in milliseconds."""
    if group_index < 1:
        raise ValueError(f"group_index must be >= 1, got {group_index}")
    if total_length_km < 0:
        raise ValueError(f"total_length_km must be >= 0, got {total_length_km}")
    return total_length_km * group_index / DEFAULT_CONSTANTS.light_speed_km_s * 1e3


def calibrate_trx_gap(plan: LinkPlan, reference: OperatingPoint, target_tbps: float,
                      include_rbs: bool = False) -> float:
    """Shannon gap (dB) that pins the plan to target_tbps at the reference point.

    Closed form: gap = SNR / (2^(R/2Rs) - 1) at the reference GSNR, with R the
    per-channel rate the target asks for. A target within 1e-6 of the zero-gap
    throughput gives a gap of exactly 0.
    """
    if not target_tbps > 0:
        raise ValueError(f"target_tbps must be > 0, got {target_tbps}")
    gsnr_db = link_gsnr(plan, reference, include_rbs).gsnr_db
    zero_gap_trx = ShannonGapTransceiver(0.0)
    n_carriers = plan.n_fibers_per_direction * plan.n_channels
    zero_gap = n_carriers * channel_net_rate(zero_gap_trx, gsnr_db, plan.symbol_rate_hz) / 1e3
    if target_tbps > zero_gap:
        raise InfeasibleError(
            f"target {target_tbps:g} Tb/s exceeds the zero-gap Shannon throughput "
            f"{zero_gap:.6g} Tb/s at the reference point"
        )
    if abs(zero_gap - target_tbps) <= 1e-6 * target_tbps:
        return 0.0
    rate_gbps = target_tbps * 1e3 / n_carriers
    gap_db = gsnr_db - zero_gap_trx.required_gsnr_db(rate_gbps, plan.symbol_rate_hz)
    if gap_db > 60.0:
        raise InfeasibleError(f"target {target_tbps:g} Tb/s would need a shaping gap above 60 dB")
    return gap_db
