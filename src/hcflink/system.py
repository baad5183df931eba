"""End-to-end link composition.

Builds the channel grid, assembles the GSNR budget at an operating point,
maps GSNR to net throughput through a transceiver model, and evaluates the
electrical power feed and propagation latency. It owns the closed forms of
1/GSNR = A/p + B*p^2 + C: terms, forward law (one row kernel, _cable_rows, whose
bits link_gsnr's budget has), peak, target inverse, and the whole solve: rising
root, power window, the reason a target misses it, falling root. Each transceiver's
rate law has one sequence form in plain floats, net_rates_gbps, and net_rate_gbps
is its one-element wrapper; nothing here needs numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence, Union

from .domain import check_domain, check_value
from .impairments import (
    AmplifierSpec,
    FiberSpec,
    SnrBudget,
    ase_inv_snrs,
    combine_gsnr,
    gn_nli_psds_per_span,
    imi_inv_snr,
    nli_inv_snrs,
    rbs_inv_snr,
)
from .units import PhysicalConstants, dbm_to_watt

# perfbench's traced run patches these three names here; span_terms calls
# the sequence forms of the first two.
from .impairments import ase_inv_snr  # noqa: F401
from .impairments import gn_nli_psd_per_span  # noqa: F401
from .units import db_to_linear  # noqa: F401

DEFAULT_CONSTANTS = PhysicalConstants()

# The trigonometric cubic formula's factors 2/sqrt(3) and -1.5*sqrt(3).
_TRIG_SCALE = 2.0 / math.sqrt(3.0)
_TRIG_ARG = -1.5 * math.sqrt(3.0)

# Group index used for the solid-core latency comparison output.
SOLID_CORE_GROUP_INDEX = 1.468

# Most spans a link may be cut into; it also keeps total/span from reaching
# float overflow before the count is rounded to an int.
MAX_SPANS = 100_000

# Most channels a band may hold: the carrier count over the fibers stays an exact
# float, and band/spacing stays below float overflow before int() in library calls.
MAX_CHANNELS = 1_000_000

# Largest span gain: fiber span loss plus the lumped losses around the EDFA.
# The linear gain and the backscatter build-up sinh(x)/x overflow near 3000 dB.
MAX_SPAN_GAIN_DB = 1000.0


class InfeasibleError(RuntimeError):
    """The requested target cannot be reached inside the admissible power window."""


def span_count(total_length_km: float, span_length_km: float,
               names: tuple[str, str] = ("total_length_km", "span_length_km")) -> int:
    """Number of spans partitioning the link into spans of the given length,
    rounding half up. Raises, naming the two lengths by `names`, unless both
    are > 0 and the span gives at most MAX_SPANS."""
    total_name, span_name = names
    if not total_length_km > 0:
        raise ValueError(f"{total_name} must be > 0, got {total_length_km}")
    if not span_length_km > 0:
        raise ValueError(f"{span_name} must be > 0, got {span_length_km}")
    ratio = total_length_km / span_length_km
    if ratio > MAX_SPANS:
        raise ValueError(f"{total_name}={total_length_km:g} km in {span_name}="
                         f"{span_length_km:g} km spans exceeds MAX_SPANS = {MAX_SPANS}")
    return int(ratio + 0.5)


def channels_in_band(band_hz: float, spacing_hz: float,
                     names: tuple[str, str] = ("band_hz", "spacing_hz")) -> int:
    """How many channels of the given spacing fit in the band. Raises, naming
    the two by `names`, unless both are > 0 and they give at most MAX_CHANNELS."""
    band_name, spacing_name = names
    if not band_hz > 0:
        raise ValueError(f"{band_name} must be > 0, got {band_hz}")
    if not spacing_hz > 0:
        raise ValueError(f"{spacing_name} must be > 0, got {spacing_hz}")
    ratio = band_hz / spacing_hz
    if ratio > MAX_CHANNELS:
        raise ValueError(f"{band_name}={band_hz:g} Hz at {spacing_name}={spacing_hz:g} Hz "
                         f"exceeds MAX_CHANNELS = {MAX_CHANNELS}")
    return int(math.floor(ratio + 1e-9))


@dataclass(frozen=True)
class LinkPlan:
    """Topology and channel grid of one cable direction. Each number lies in its
    domain row (span and link), the span is no longer than the link and cuts it
    into at most MAX_SPANS spans, the span gain at the fiber loss is at most
    MAX_SPAN_GAIN_DB, the spacing is at least the symbol rate, and the band holds
    1 to MAX_CHANNELS channels. Building it sets n_spans, effective_span_km (the
    span snapped to an integer partition of the link), n_channels, n_carriers
    (channels summed over the fibers of one direction) and span_terms' 1 mW
    reference: channel_output_w, channel_launch_w, launch_psd_w_hz and inv_snr_imi."""

    fiber: FiberSpec
    amp: AmplifierSpec
    total_length_km: float = 6600.0
    span_length_km: float = 200.0
    band_hz: float = 5e12
    channel_spacing_hz: float = 75e9
    symbol_rate_hz: float = 73.5e9
    n_fibers_per_direction: int = 26

    def __post_init__(self) -> None:
        check_domain(self, "span", "link")
        n_spans = repeater_count(self.total_length_km, self.span_length_km,
                                 ("link.total_length_km", "span.span_length_km")) + 1
        object.__setattr__(self, "n_spans", n_spans)
        object.__setattr__(self, "effective_span_km", self.total_length_km / n_spans)
        self.span_gain_db(self.fiber.loss_db_per_km)
        if self.channel_spacing_hz < self.symbol_rate_hz:
            raise ValueError(
                f"link.channel_spacing_hz={self.channel_spacing_hz} must be >= "
                f"link.symbol_rate_hz={self.symbol_rate_hz} (no spectral overlap)"
            )
        n_channels = channels_in_band(self.band_hz, self.channel_spacing_hz,
                                      ("link.band_hz", "link.channel_spacing_hz"))
        if n_channels < 1:
            raise ValueError(
                f"link.band_hz={self.band_hz} holds no channel at "
                f"link.channel_spacing_hz={self.channel_spacing_hz}"
            )
        launch_w = per_channel_launch(0.0, n_channels, self.amp.post_output_loss_db)
        object.__setattr__(self, "n_channels", n_channels)
        object.__setattr__(self, "n_carriers", self.n_fibers_per_direction * n_channels)
        object.__setattr__(self, "channel_output_w", dbm_to_watt(-10.0 * math.log10(n_channels)))
        object.__setattr__(self, "channel_launch_w", launch_w)
        object.__setattr__(self, "launch_psd_w_hz", launch_w / self.channel_spacing_hz)
        object.__setattr__(self, "inv_snr_imi",
                           imi_inv_snr(self.fiber.imi_db_per_km, self.total_length_km))

    def span_gains_db(self, loss_db_per_km: float, spans_km: Iterable[float],
                      name: str = "fiber.loss_db_per_km") -> list[float]:
        """Gain (dB) of a span of each length at this loss: fiber span loss plus
        lumped losses. Raises, naming `name`, for a negative loss or a gain
        above MAX_SPAN_GAIN_DB."""
        pre_db, post_db = self.amp.pre_input_loss_db, self.amp.post_output_loss_db
        gains_db = []
        for span_km in spans_km:
            gain_db = loss_db_per_km * span_km + pre_db + post_db
            if not (loss_db_per_km >= 0 and gain_db <= MAX_SPAN_GAIN_DB):
                raise ValueError(
                    f"{name}={loss_db_per_km} must be >= 0 and keep the span gain (loss x "
                    f"{span_km:g} km + amplifier.pre_input_loss_db + amplifier."
                    f"post_output_loss_db = {gain_db:g} dB) <= {MAX_SPAN_GAIN_DB:g} dB")
            gains_db.append(gain_db)
        return gains_db

    def span_gain_db(self, loss_db_per_km: float, name: str = "fiber.loss_db_per_km") -> float:
        """The span_gains_db of the plan's effective span."""
        return self.span_gains_db(loss_db_per_km, (self.effective_span_km,), name)[0]


@dataclass(frozen=True)
class OperatingPoint:
    """One point of the design plane: fiber loss and total EDFA output power, each
    in its config key's domain row (fiber.loss_db_per_km, amplifier.total_output_power_dbm)."""

    loss_db_per_km: float
    edfa_total_output_dbm: float

    def __post_init__(self) -> None:
        check_value(self.loss_db_per_km, "fiber.loss_db_per_km", "loss_db_per_km")
        check_value(self.edfa_total_output_dbm, "amplifier.total_output_power_dbm",
                    "edfa_total_output_dbm")


@dataclass(frozen=True)
class PowerFeedSpec:
    """Electrical supply model: conductor dissipation plus repeater load. Each
    value lies in its domain row."""

    feed_current_a: float = 1.0
    cable_resistance_ohm_per_km: float = 1.0
    repeater_power_w: float = 180.0
    supply_limit_w: float = 18000.0

    def __post_init__(self) -> None:
        check_domain(self, "powerfeed")


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

    def net_rates_gbps(self, gsnrs_db: Sequence[float], symbol_rate_hz: float) -> list[float]:
        """Rate at each of a sequence of finite GSNRs, in one loop of math calls."""
        gap, cap, log2, two_rs = self.gap_db, self.max_rate_gbps, math.log2, 2.0 * symbol_rate_hz
        try:
            rates = [two_rs * log2(1.0 + 10.0 ** ((g - gap) / 10.0)) / 1e9 for g in gsnrs_db]
        except OverflowError:  # name the first GSNR whose SNR/gap is past 10^308
            for g in gsnrs_db:
                try:
                    10.0 ** ((g - gap) / 10.0)
                except OverflowError:
                    raise ValueError(f"gsnr_db = {g} puts SNR/gap beyond float range "
                                     f"(gap_db = {gap})") from None
            raise
        return [cap if cap < rate else rate for rate in rates] if cap < math.inf else rates

    def net_rate_gbps(self, gsnr_db: float, symbol_rate_hz: float) -> float:
        """The net_rates_gbps of one GSNR."""
        return self.net_rates_gbps((gsnr_db,), symbol_rate_hz)[0]

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

    def __post_init__(self) -> None:
        # Every row's finiteness is checked before the order of any two rows.
        points = tuple([(float(g), float(r)) for g, r in self.points])
        if not points:
            raise ValueError("transceiver table needs at least one point")
        for row, (g, r) in enumerate(points, 1):
            if not (math.isfinite(g) and math.isfinite(r)):
                raise ValueError(f"table row {row} ({g}, {r}) must be finite")
        gsnr, rate = zip(*points)
        for g0, g1, r0, r1 in zip(gsnr, gsnr[1:], rate, rate[1:]):
            if not g1 > g0:
                raise ValueError(f"table gsnr_db must be strictly increasing: {g0} then {g1}")
            if r1 < r0:
                raise ValueError(f"table net_rate_gbps must be nondecreasing: {r0} then {r1}")
        # A finite width and slope keep slope*(x - g[j]) + r[j] free of NaN.
        for row, (g0, g1, r0, r1) in enumerate(zip(gsnr, gsnr[1:], rate, rate[1:]), 1):
            if not (math.isfinite(g1 - g0) and math.isfinite((r1 - r0) / (g1 - g0))):
                raise ValueError(f"table rows {row} ({g0}, {r0}) and {row + 1} ({g1}, {r1}): "
                                 f"the segment's width or slope is beyond float range")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_gsnr_db", gsnr)
        object.__setattr__(self, "_rate_gbps", rate)

    def net_rates_gbps(self, gsnrs_db: Sequence[float], symbol_rate_hz: float) -> list[float]:
        """Rate at each of a sequence of GSNRs, by np.interp's rule bit for bit: the
        end rates outside the table and at its last point, the point's rate on a
        point, else slope*(x - g[j]) + r[j] on the segment g[j] < x < g[j+1]; NaN
        stays NaN except in a one-point table."""
        gsnr, rate = self._gsnr_db, self._rate_gbps
        last = len(gsnr) - 1
        rates = []
        for x in gsnrs_db:
            j = bisect.bisect_right(gsnr, x) - 1  # gsnr[j] <= x < gsnr[j+1]
            if x != x:
                y = x if last else rate[0]
            elif j < 0:
                y = rate[0]
            elif j == last or gsnr[j] == x:
                y = rate[j]
            else:
                slope = (rate[j + 1] - rate[j]) / (gsnr[j + 1] - gsnr[j])
                y = slope * (x - gsnr[j]) + rate[j]
            rates.append(y)
        return rates

    def net_rate_gbps(self, gsnr_db: float, symbol_rate_hz: float) -> float:
        """The net_rates_gbps of one GSNR."""
        return self.net_rates_gbps((gsnr_db,), symbol_rate_hz)[0]

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
    """Read a "gsnr_db,net_rate_gbps" table; '#' starts a comment. The file is
    read on every call; each (path, text) is parsed once and its model shared."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    return _parse_transceiver_table(str(path), text)


@functools.lru_cache(maxsize=8)  # it caches no exception: a bad table raises on every call
def _parse_transceiver_table(path: str, text: str) -> TabulatedTransceiver:
    points: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.partition("#")[0]
        parts = line.split(",")  # float() ignores the spaces around each part
        if len(parts) != 2:
            if not line.strip():
                continue
            raise ValueError(f"{path}:{lineno}: expected 'gsnr_db,net_rate_gbps'")
        try:
            row = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric entry {line.strip()!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: non-finite entry {line.strip()!r}")
        points.append(row)
    if not points:
        raise ValueError(f"{path}: empty transceiver table")
    try:
        return TabulatedTransceiver(tuple(points))
    except ValueError as exc:  # the order and segment rules, which name no file
        raise ValueError(f"{path}: {exc}") from None


def per_channel_launch(
    edfa_total_output_dbm: float,
    n_channels: int,
    post_output_loss_db: float,
) -> float:
    """Per-channel power (W) entering the fiber after the post-EDFA losses. Raises,
    naming the argument, for a power or loss outside its amplifier row or a channel
    count outside 1..MAX_CHANNELS or not whole."""
    check_value(edfa_total_output_dbm, "amplifier.total_output_power_dbm", "edfa_total_output_dbm")
    if not 1 <= n_channels <= MAX_CHANNELS:
        raise ValueError(f"n_channels must lie in [1, {MAX_CHANNELS:g}], got {n_channels}")
    if n_channels != int(n_channels):
        raise ValueError(f"n_channels must be a whole number, got {n_channels}")
    check_value(post_output_loss_db, "amplifier.post_output_loss_db", "post_output_loss_db")
    return dbm_to_watt(
        edfa_total_output_dbm - 10.0 * math.log10(n_channels) - post_output_loss_db
    )


def span_terms(plan: LinkPlan, loss_db_per_km: float, counts: Iterable[int],
               include_rbs: bool = False) -> list[tuple[float, float, float, float]]:
    """ASE, NLI, IMI and RBS 1/SNR at a total EDFA output of 1 mW, for the
    link cut into n equal spans, one tuple per n in counts.

    At a total output of p mW, 1/GSNR = ASE/p + NLI*p^2 + IMI + RBS: the
    incoherent GN model's NLI PSD scales as the launch power cubed. Each span
    has one gain block restoring its fiber loss plus the lumped pre/post
    losses. The backscatter term uses the fiber-only span loss and is 0
    unless include_rbs is set.

    The launch powers, launch PSD and IMI term are the plan's. Each sequence kernel
    runs its count-independent checks and factors once; per count there are only the
    span gain, the effective length and the terms' last products. Checks run in this
    order: the loss in the row of fiber.loss_db_per_km, counts in 1..MAX_SPANS (as
    span_count's), each span gain, then the NLI kernel's checks (even for empty counts).
    """
    fiber = plan.fiber
    check_value(loss_db_per_km, "fiber.loss_db_per_km", "loss_db_per_km")
    counts = list(counts)
    if min(counts, default=1) < 1:
        raise ValueError(f"n_spans must be >= 1, got {min(counts)}")
    if max(counts, default=1) > MAX_SPANS:
        raise ValueError(f"n_spans must be <= MAX_SPANS = {MAX_SPANS}, got {max(counts)}")
    total_km = plan.total_length_km
    spans_km = [total_km / n for n in counts]
    gains_db = plan.span_gains_db(loss_db_per_km, spans_km, "loss_db_per_km")
    psds = gn_nli_psds_per_span(fiber, plan.launch_psd_w_hz, spans_km, plan.band_hz,
                                DEFAULT_CONSTANTS, loss_db_per_km, "loss_db_per_km")
    ases = ase_inv_snrs(plan.amp, plan.channel_output_w, zip(gains_db, counts),
                        plan.symbol_rate_hz, DEFAULT_CONSTANTS)
    nlis = nli_inv_snrs(zip(psds, counts), plan.symbol_rate_hz, plan.channel_launch_w)
    rbss = ([rbs_inv_snr(fiber.backscatter_db_per_km, total_km, loss_db_per_km * span_km)
             for span_km in spans_km] if include_rbs else repeat(0.0))
    return list(zip(ases, nlis, repeat(plan.inv_snr_imi), rbss))


def gsnr_terms(plan: LinkPlan, loss_db_per_km: float, n_spans: int,
               include_rbs: bool = False) -> tuple[float, float, float, float]:
    """The span_terms of one span count: ASE, NLI, IMI and RBS 1/SNR at a
    total EDFA output of 1 mW, the link cut into n_spans equal spans."""
    return span_terms(plan, loss_db_per_km, (n_spans,), include_rbs)[0]


def _power_column(power_dbm: float) -> tuple[float, float]:
    """(1/p, p^2) for a total EDFA output of p mW: the column _cable_rows reads."""
    p_mw = 10.0 ** (power_dbm / 10.0)
    return 1.0 / p_mw, p_mw * p_mw


def _cable_rows(plan: LinkPlan, trx: TransceiverModel, terms: tuple[float, float, float, float],
                columns: Sequence[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """GSNR 10*log10(1/(A*(1/p) + B*p^2 + (IMI + RBS))) (dB) and rate x n_carriers/1e3
    (Tb/s) at each _power_column, for one span count's gsnr_terms A, B, IMI and RBS."""
    a, b, imi, rbs = terms
    c, log10, scale = imi + rbs, math.log10, plan.n_carriers / 1e3
    gsnr = [10.0 * log10(1.0 / (a * inv_p + b * p_sq + c)) for inv_p, p_sq in columns]
    return gsnr, [rate * scale for rate in trx.net_rates_gbps(gsnr, plan.symbol_rate_hz)]


def link_gsnr(plan: LinkPlan, op: OperatingPoint, include_rbs: bool = False) -> SnrBudget:
    """The four-impairment budget at one operating point, from gsnr_terms and the
    products and sum of _cable_rows, whose cell its gsnr_db is bit for bit."""
    ase, nli, imi, rbs = gsnr_terms(plan, op.loss_db_per_km, plan.n_spans, include_rbs)
    inv_p, p_sq = _power_column(op.edfa_total_output_dbm)
    return combine_gsnr([ase * inv_p, nli * p_sq, imi, rbs])


def _inv_db(level_db: float) -> float:
    """10^(-level_db/10): inf past float range."""
    try:
        return 10.0 ** (-level_db / 10.0)
    except OverflowError:
        return math.inf


def _carrier_rate_gbps(plan: LinkPlan, target_tbps: float, name: str = "target_tbps") -> float:
    """Gb/s per carrier (inf with no fibers), or ValueError naming `name` outside the row."""
    check_value(target_tbps, "transceiver.calibration_target_tbps", name)
    return target_tbps * 1e3 / plan.n_carriers if plan.n_carriers else math.inf


def _target_inv_gsnr(plan: LinkPlan, trx: TransceiverModel, target_tbps: float,
                     name: str = "target_tbps") -> float:
    """1/g* for g* the least GSNR carrying _carrier_rate_gbps: 0 if none does, inf if all do."""
    return _inv_db(trx.required_gsnr_db(_carrier_rate_gbps(plan, target_tbps, name),
                                        plan.symbol_rate_hz))


def _solve_powers_dbm(terms: Iterable[tuple[float, float, float, float]], inv_gsnr: float,
                      window: tuple[float, float] = (-math.inf, math.inf)) -> list[float]:
    """Least EDFA output power (dBm) at which 1/GSNR = A/p + B*p^2 + C falls to
    inv_gsnr, for A, B and C = IMI + RBS the gsnr_terms of each span count: NaN
    above the GSNR peak or outside the window (inclusive), -inf when all reach it.

    Closed form: A/p + B*p^2 = D = inv_gsnr - C becomes eps*x^3 - x + 1 = 0 for
    p = (A/D)*x, eps = B*A^2/D^3. It has a root iff eps <= 4/27, i.e.
    D >= 1.5*A/P_opt with P_opt = (A/2B)^(1/3); the smaller root, x in [1, 1.5],
    is on the rising branch.
    """
    sqrt, cos, acos, log10 = math.sqrt, math.cos, math.acos, math.log10
    scale, arg, (low, high) = _TRIG_SCALE, _TRIG_ARG, window
    powers = []
    for a, b, imi, rbs in terms:
        d = inv_gsnr - (imi + rbs)
        if not d > 0:
            p = math.nan
        elif (r := a / d) == 0:  # D = inf (a target at or below a table's first rate)
            p = -math.inf
        elif not (eps := b * r * r * r / a) <= 4.0 / 27.0:
            p = math.nan
        else:
            # u = sqrt(eps) * (largest root), by the trigonometric formula; Vieta's
            # product then gives the smallest root without the cancellation the
            # direct trigonometric middle root suffers at small eps.
            s = sqrt(eps)
            x = arg * s  # eps <= 4/27 puts x at -1 or above, but for rounding
            u = scale * cos(acos(x if x > -1.0 else -1.0) / 3.0)
            uu = u * u
            p = 10.0 * log10(2.0 * r / (uu + u * sqrt(uu + 4.0 * s / u)))
        powers.append(p if low <= p <= high else math.nan)
    return powers


def _falling_powers_dbm(terms: Iterable[tuple[float, float, float, float]], inv_gsnr: float,
                        rising: Iterable[float], high: float) -> list[float]:
    """Falling root (dBm) beside each rising root p_lo: the roots of B*p^3 - D*p + A sum
    to 0 and pair to -D/B, so it is (sqrt(4D/B - 3*p_lo^2) - p_lo)/2; +inf without NLI
    or where p_lo is NaN or above high (as the falling root then is), -inf where <= 0."""
    falling = []
    for (_, b, imi, rbs), p_lo in zip(terms, rising):
        p_hi = math.inf
        if b > 0 and p_lo <= high:
            lo = 10.0 ** (p_lo / 10.0)
            hi = (math.sqrt(4.0 * (inv_gsnr - (imi + rbs)) / b - 3.0 * lo * lo) - lo) / 2.0
            p_hi = 10.0 * math.log10(hi) if hi > 0 else -math.inf
        falling.append(p_hi)
    return falling


def _infeasible_reason(plan: LinkPlan, trx: TransceiverModel,
                       terms: tuple[float, float, float, float], inv_gsnr: float,
                       window: tuple[float, float]) -> str:
    """Why no power in the window reaches inv_gsnr: the peak, or the root it misses."""
    [power_dbm] = _solve_powers_dbm((terms,), inv_gsnr)
    if math.isnan(power_dbm):
        p_opt_dbm, peak_tbps = _throughput_peak(plan, trx, terms)
        return f"is above the throughput peak {peak_tbps:.6g} Tb/s (at {p_opt_dbm:.4g} dBm)"
    low, high = window
    return f"needs {power_dbm:.6g} dBm, outside the window {low:g}..{high:g} dBm"


def _throughput_peak(plan: LinkPlan, trx: TransceiverModel,
                     terms: tuple[float, float, float, float]) -> tuple[float, float]:
    """Power P_opt = (A/2B)^(1/3) (dBm) of the GSNR peak, A > 0 in the domain, and
    cable_throughput there (Tb/s). Without NLI the peak is 1/C, the kernel at the column
    (0, 0), at +inf dBm; C holds the plan's IMI term, so the peak GSNR is finite."""
    a, b, _, _ = terms
    if b > 0:
        p_opt_dbm = 10.0 * math.log10((a / (2.0 * b)) ** (1.0 / 3.0))
        column = _power_column(p_opt_dbm)
    else:
        p_opt_dbm, column = math.inf, (0.0, 0.0)
    return p_opt_dbm, _cable_rows(plan, trx, terms, (column,))[1][0]


def channel_net_rate(trx: TransceiverModel, gsnr_db: float, symbol_rate_hz: float) -> float:
    """Net information rate (Gb/s) of one channel at the given GSNR."""
    gsnr_db = float(gsnr_db)  # a numpy scalar would overflow to inf where a float raises
    if not math.isfinite(gsnr_db):
        raise ValueError(f"gsnr_db must be finite, got {gsnr_db}")
    return trx.net_rate_gbps(gsnr_db, symbol_rate_hz)


def cable_throughput(plan: LinkPlan, trx: TransceiverModel, op: OperatingPoint,
                     include_rbs: bool = False) -> float:
    """Net cable throughput in one direction, in Tb/s: _cable_rows at one point."""
    terms = gsnr_terms(plan, op.loss_db_per_km, plan.n_spans, include_rbs)
    return _cable_rows(plan, trx, terms, (_power_column(op.edfa_total_output_dbm),))[1][0]


def repeater_count(total_length_km: float, span_length_km: float,
                   names: tuple[str, str] = ("total_length_km", "span_length_km")) -> int:
    """In-line repeaters: one per span boundary, end blocks live on shore. Raises,
    naming the two lengths by `names`, where span_count does or when the span is
    longer than the link."""
    n_spans = span_count(total_length_km, span_length_km, names)
    if not span_length_km <= total_length_km:
        raise ValueError(f"{names[1]}={span_length_km} must not exceed "
                         f"{names[0]}={total_length_km}")
    return n_spans - 1


def power_feed(
    feed: PowerFeedSpec,
    total_length_km: float,
    n_repeaters: int,
) -> PowerFeedResult:
    """Electrical budget: I^2*R conductor dissipation plus repeater load. Raises,
    naming the argument, for a length outside the row of link.total_length_km or a
    repeater count outside repeater_count's 0..MAX_SPANS - 1 or not whole."""
    check_value(total_length_km, "link.total_length_km", "total_length_km")
    if not 0 <= n_repeaters <= MAX_SPANS - 1:
        raise ValueError(f"n_repeaters must lie in [0, {MAX_SPANS - 1:g}], got {n_repeaters}")
    if n_repeaters != int(n_repeaters):
        raise ValueError(f"n_repeaters must be a whole number, got {n_repeaters}")
    cable_w = feed.feed_current_a**2 * feed.cable_resistance_ohm_per_km * total_length_km
    repeaters_w = n_repeaters * feed.repeater_power_w
    total_w = cable_w + repeaters_w
    return PowerFeedResult(cable_w, repeaters_w, total_w, total_w <= feed.supply_limit_w)


def propagation_latency(total_length_km: float, group_index: float,
                        name: str = "group_index") -> float:
    """One-way propagation time in milliseconds. Raises, naming the argument (the
    group index by `name`), for a length or index outside the row of
    link.total_length_km or fiber.group_index."""
    check_value(total_length_km, "link.total_length_km", "total_length_km")
    check_value(group_index, "fiber.group_index", name)
    return total_length_km * group_index / DEFAULT_CONSTANTS.light_speed_km_s * 1e3


def calibrate_trx_gap(plan: LinkPlan, reference: OperatingPoint, target_tbps: float,
                      include_rbs: bool = False) -> float:
    """Shannon gap (dB) that pins the plan to target_tbps at the reference point.

    Closed form: gap = SNR / (2^(R/2Rs) - 1) at the reference GSNR, with R the
    per-channel rate the target asks for (_carrier_rate_gbps, which refuses a target
    outside its row). A target within 1e-6 of the zero-gap throughput gives a gap of 0.
    """
    rate_gbps = _carrier_rate_gbps(plan, target_tbps)
    terms = gsnr_terms(plan, reference.loss_db_per_km, plan.n_spans, include_rbs)
    zero_gap_trx = ShannonGapTransceiver(0.0)
    column = _power_column(reference.edfa_total_output_dbm)
    [gsnr_db], [zero_gap] = _cable_rows(plan, zero_gap_trx, terms, (column,))
    if target_tbps > zero_gap:
        raise InfeasibleError(
            f"target {target_tbps:g} Tb/s exceeds the zero-gap Shannon throughput "
            f"{zero_gap:.6g} Tb/s at the reference point"
        )
    if abs(zero_gap - target_tbps) <= 1e-6 * target_tbps:
        return 0.0
    gap_db = gsnr_db - zero_gap_trx.required_gsnr_db(rate_gbps, plan.symbol_rate_hz)
    if gap_db > 60.0:
        raise InfeasibleError(f"target {target_tbps:g} Tb/s would need a shaping gap above 60 dB")
    return gap_db
