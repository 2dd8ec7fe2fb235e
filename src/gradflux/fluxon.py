"""Phase-slip rates and fluxon-escape telegraph traces.

The granular-aluminum superinductor is modeled as an effective array of
Josephson junctions (one per grain). Its quantum phase-slip rate

    v = N * (4/sqrt(pi)) * (8 E_J^3 E_C)^(1/4) * exp(-sqrt(8 E_J/E_C)) / h

is evaluated in log space: for the device values the exponent is about -94
and the prefactor ~1e18 Hz, a combination that invites under/overflow when
composed naively. Energies are given as frequencies, absorbing the 1/h.

The rest of the module generates and analyzes two-state (even/odd fluxon
parity) telegraph traces: synthetic Markov traces with Gaussian readout
noise, robust jump detection, censored dwell-time rate estimation with
exact Poisson confidence intervals, and coincidence counting across
devices.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import chi2

from .units import require_finite

#: Gaussian consistency factor: sigma = MAD_GAUSS * mad.
MAD_GAUSS = 1.4826022185056018

#: Significance, in standard errors, a level step must reach to be verified.
Z_VERIFY = 6.0

#: Std of a sample median relative to sigma/sqrt(n) for Gaussian noise.
MEDIAN_EFF = 1.2533141373155003

#: Default gate (in noise MADs) and rolling-median window (in samples) of
#: :func:`detect_jumps`.
JUMP_THRESHOLD_MADS = 6.0
JUMP_WINDOW = 15

#: Largest expected switch count of simulate_telegraph's Python loop.
MAX_SWITCHES = 10**6

#: Confidence level of the Poisson rate bounds of estimate_lifetime.
CONFIDENCE = 0.95


def _span(span):
    """(start, end) of an observation window [s], both finite, end > start."""
    t0 = require_finite("span", float(span[0]))
    t1 = require_finite("span", float(span[1]))
    if t1 <= t0:
        raise ValueError("span end must exceed span start")
    return t0, t1


@dataclass(frozen=True)
class JunctionArrayModel:
    """Effective junction array describing the superinductor wire.

    ``ej_grain_ghz`` and ``ec_grain_ghz`` are the per-grain Josephson and
    charging energies as frequencies [GHz]; the measured film has roughly
    53 THz and 48 GHz with about 75e3 grains around the outer loop.
    """

    n_junctions: int
    ej_grain_ghz: float
    ec_grain_ghz: float

    def __post_init__(self):
        if self.n_junctions < 0:
            raise ValueError("n_junctions must be >= 0")
        require_finite("ej_grain_ghz", self.ej_grain_ghz, ">")
        require_finite("ec_grain_ghz", self.ec_grain_ghz, ">")


#: Device values: 300 um wire of 4 nm grains, E_J ~ 53 THz, E_C ~ 48 GHz.
DEVICE_ARRAY = JunctionArrayModel(n_junctions=75_000, ej_grain_ghz=53_000.0,
                                  ec_grain_ghz=48.0)

#: Outer-loop bias [Phi_0] above which circulating currents activate phase
#: slips in the measured device. Reported as an empirical threshold only;
#: the quantum rate below applies to the quiet (low-bias) regime.
CURRENT_ACTIVATED_BIAS_PHI0 = 130.0


@dataclass(frozen=True)
class PhaseSlipRate:
    rate_hz: float           # inf beyond the float range
    log10_rate_hz: float     # -inf for zero junctions, else finite
    warning: str | None = None


def phase_slip_rate(model: JunctionArrayModel) -> PhaseSlipRate:
    """Quantum phase-slip rate of the junction array [Hz].

    Linear in the junction count; exponentially suppressed in
    sqrt(E_J/E_C). Outside the E_J >= E_C regime the dilute-phase-slip
    formula is not trustworthy and the result carries a warning.
    """
    warning = None
    if model.ej_grain_ghz < model.ec_grain_ghz:
        warning = ("E_J/E_C = "
                   f"{model.ej_grain_ghz / model.ec_grain_ghz:.3g} < 1: "
                   "outside the dilute phase-slip regime")
    if model.n_junctions == 0:
        return PhaseSlipRate(rate_hz=0.0, log10_rate_hz=-math.inf,
                             warning=warning)
    ej, ec = model.ej_grain_ghz, model.ec_grain_ghz
    ln_rate = (math.log(model.n_junctions)
               + math.log(4.0 / math.sqrt(math.pi))
               + 0.25 * (math.log(8.0) + 3.0 * math.log(ej) + math.log(ec))
               + math.log(1e9)                      # GHz -> Hz
               - math.sqrt(8.0 * ej) / math.sqrt(ec))
    try:
        rate_hz = math.exp(ln_rate)
    except OverflowError:
        rate_hz = math.inf
    return PhaseSlipRate(rate_hz=rate_hz,
                         log10_rate_hz=ln_rate / math.log(10.0),
                         warning=warning)


def effective_junction_count(wire_length_m: float,
                             grain_size_m: float) -> int:
    """Number of effective junctions: one per grain along the wire."""
    require_finite("wire_length_m", wire_length_m, ">")
    require_finite("grain_size_m", grain_size_m, ">")
    n = wire_length_m / grain_size_m
    if n == math.inf:
        raise ValueError("wire_length_m / grain_size_m overflows")
    return int(round(n))


@dataclass(frozen=True)
class TimeTrace:
    """Sampled readout trace. ``value`` is a frequency proxy or parity level.

    ``switch_times`` holds the ground-truth transition times for synthetic
    traces (None for measured data).
    """

    t_s: np.ndarray
    value: np.ndarray
    noise_sigma: float = 0.0
    label: str = ""
    switch_times: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "t_s", require_finite(
            "trace times", np.asarray(self.t_s, dtype=float)))
        object.__setattr__(self, "value", require_finite(
            "trace values", np.asarray(self.value, dtype=float)))
        if self.t_s.size != self.value.size:
            raise ValueError("t_s and value must have equal length")
        if not np.all(np.diff(self.t_s) > 0):
            raise ValueError("t_s must be strictly increasing")

    @property
    def span_s(self) -> tuple:
        return float(self.t_s[0]), float(self.t_s[-1])


def simulate_telegraph(rate_eo_hz: float, rate_oe_hz: float,
                       duration_s: float, dt_s: float,
                       noise_sigma: float = 0.0, seed: int = 0,
                       label: str = "") -> TimeTrace:
    """Two-state Markov telegraph trace sampled on a uniform grid.

    ``rate_eo_hz`` is the even-to-odd switching rate and ``rate_oe_hz`` the
    reverse; dwell times are exponential. The trace starts in the even
    state, which reads 0; the odd state reads 1. Gaussian readout noise of
    standard deviation ``noise_sigma`` is added per sample. Reproducible
    per seed.
    Raises ``ValueError`` when the expected number of switches,
    2 T / (1/rate_eo + 1/rate_oe), exceeds :data:`MAX_SWITCHES`.
    """
    require_finite("rate_eo_hz", rate_eo_hz, ">=")
    require_finite("rate_oe_hz", rate_oe_hz, ">=")
    require_finite("dt_s", dt_s, ">")
    require_finite("duration_s", duration_s, ">")
    if duration_s < dt_s:
        raise ValueError("need duration_s >= dt_s")
    require_finite("noise_sigma", noise_sigma, ">=")
    if rate_eo_hz > 0 and rate_oe_hz > 0:
        expected = 2.0 * duration_s / (1.0 / rate_eo_hz + 1.0 / rate_oe_hz)
        if expected > MAX_SWITCHES:
            raise ValueError(f"{expected:.3g} switches expected, more than "
                             f"MAX_SWITCHES = {MAX_SWITCHES}")
    rng = np.random.default_rng(seed)
    n = int(math.floor(duration_s / dt_s))
    t = dt_s * np.arange(n)

    switches = []
    state = 0
    now = 0.0
    rates = (rate_eo_hz, rate_oe_hz)
    while True:
        rate = rates[state]
        if rate == 0.0:
            break
        now += rng.exponential(1.0 / rate)
        if now >= duration_s:
            break
        switches.append(now)
        state = 1 - state
    switches = np.asarray(switches)

    state_idx = np.searchsorted(switches, t, side="right") % 2
    value = state_idx.astype(float)
    if noise_sigma > 0:
        value = value + rng.normal(0.0, noise_sigma, size=n)
    return TimeTrace(t_s=t, value=value, noise_sigma=noise_sigma,
                     label=label, switch_times=switches)


@dataclass(frozen=True)
class JumpEvent:
    """Detected level change: first sample index/time of the new level."""

    time_s: float
    index: int
    direction: int      # +1 up, -1 down
    size: float         # verified level difference


def _runs(mask):
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1) + 1
    return np.split(idx, breaks)


def _rolling_median_shift(x, w):
    """Difference of trailing and leading window medians at each boundary."""
    med = np.median(sliding_window_view(x, w), axis=1)
    s = np.zeros(x.size)
    idx = np.arange(w, x.size - w + 1)
    s[idx] = med[idx] - med[idx - w]
    return s


def _localize(x, j0, w):
    """Best two-plateau split inside a fixed bracket around j0."""
    a = max(0, j0 - w)
    b = min(x.size, j0 + w + 1)
    seg = x[a:b]
    best_j, best_sse = j0, np.inf
    for j in range(1, seg.size):
        left, right = seg[:j], seg[j:]
        sse = float(((left - left.mean()) ** 2).sum()
                    + ((right - right.mean()) ** 2).sum())
        if sse < best_sse:
            best_sse, best_j = sse, a + j
    return best_j


def detect_jumps(trace: TimeTrace,
                 threshold_in_mads: float = JUMP_THRESHOLD_MADS,
                 window: int = JUMP_WINDOW) -> list:
    """Detect level jumps in a noisy two-level trace.

    Three stages: (1) candidate boundaries, one per run of rolling-median
    shifts above half the threshold and one per run below minus half of
    it (in units of the noise MAD, estimated from first differences so slow
    drifts and the steps themselves drop out; on a noise-free trace the
    MAD and so the gate is 0, and every nonzero shift counts);
    (2) boundary localization by a two-plateau least-squares scan;
    (3) verification of each boundary against the median levels of the full
    adjacent segments, requiring a nonzero median difference, the MAD gate
    and a :data:`Z_VERIFY`-sigma significance, iterated until the retained
    set is stable. The two-stage gate keeps single-window false positives
    suppressed while retaining near-threshold events that a one-shot window
    test at the full threshold would drop.
    """
    require_finite("threshold_in_mads", threshold_in_mads, ">")
    if window < 2:
        raise ValueError("window must be >= 2")
    x = trace.value
    n = x.size
    if n < 10:
        raise ValueError("need at least 10 samples")
    w = min(window, n // 2)

    s = _rolling_median_shift(x, w)
    mad = float(np.median(np.abs(np.diff(x)))) / math.sqrt(2.0)
    gate = 0.5 * threshold_in_mads * mad

    candidates = [int(run[np.argmax(s[run])]) for run in _runs(s > gate)]
    candidates += [int(run[np.argmin(s[run])]) for run in _runs(s < -gate)]

    boundaries = sorted({_localize(x, j0, w) for j0 in candidates})

    sigma = MAD_GAUSS * mad
    sizes = {}
    while boundaries:
        edges = [0] + boundaries + [n]
        keep = []
        changed = False
        for k, b in enumerate(boundaries):
            left = x[edges[k]:b]
            right = x[b:edges[k + 2]]
            dlev = float(np.median(right) - np.median(left))
            se = MEDIAN_EFF * sigma * math.sqrt(1.0 / left.size
                                                + 1.0 / right.size)
            # on a noise-free trace gate and se are 0: a boundary between
            # equal medians is no step
            if (dlev != 0.0 and abs(dlev) >= gate
                    and abs(dlev) >= Z_VERIFY * se):
                keep.append(b)
                sizes[b] = dlev
            else:
                changed = True
        boundaries = keep
        if not changed:
            break

    return [JumpEvent(time_s=float(trace.t_s[b]), index=int(b),
                      direction=1 if sizes[b] > 0 else -1,
                      size=sizes[b])
            for b in boundaries]


@dataclass(frozen=True)
class DwellStats:
    """Dwell-time summary and rate estimate for one trace.

    The dwell in progress at the trace end is right-censored (it bounds the
    next dwell from below but does not equal it); the estimator divides the
    number of completed dwells by the total observed time including the
    censored tail. Confidence bounds are exact Poisson (chi-square) limits
    at level ``confidence``; zero-event traces yield the standard
    rule-of-three upper bound.
    """

    rate_hz: float
    ci_low_hz: float
    ci_high_hz: float
    n_events: int
    total_time_s: float
    censored_time_s: float
    dwell_times_s: np.ndarray = field(repr=False)
    censored: np.ndarray = field(repr=False)
    confidence: float = CONFIDENCE

    @property
    def lifetime_s(self) -> float:
        return math.inf if self.rate_hz == 0.0 else 1.0 / self.rate_hz

    @property
    def lifetime_lower_bound_s(self) -> float:
        return 1.0 / self.ci_high_hz if self.ci_high_hz > 0 else math.inf


def estimate_lifetime(events, span) -> DwellStats:
    """Escape-rate estimate from detected jump events over a trace span.

    ``events`` is a list of :class:`JumpEvent` or an array of event times;
    ``span`` is the (start, end) observation window in seconds. The rate
    estimate is n_events / span, bounded at the :data:`CONFIDENCE` level; a
    zero-event trace gives rate 0 with a -ln(1-CONFIDENCE)/span upper bound
    (about 3/T at 95%). Non-finite event times or span ends raise
    ``ValueError``.
    """
    t0, t1 = _span(span)
    times = _event_times(events)
    if times.size and (times[0] < t0 or times[-1] > t1):
        raise ValueError("events must lie within the span")

    edges = np.concatenate(([t0], times, [t1]))
    dwells = np.diff(edges)
    censored = np.zeros(dwells.size, dtype=bool)
    censored[-1] = True      # dwell in progress at trace end
    n = times.size
    total = t1 - t0

    alpha = 1.0 - CONFIDENCE
    rate = n / total
    if n > 0:
        ci_low = chi2.ppf(alpha / 2.0, 2 * n) / (2.0 * total)
        ci_high = chi2.ppf(1.0 - alpha / 2.0, 2 * n + 2) / (2.0 * total)
    else:
        # one-sided upper bound: -ln(alpha)/T, the rule of three at 95%
        ci_low = 0.0
        ci_high = chi2.ppf(CONFIDENCE, 2) / (2.0 * total)
    return DwellStats(rate_hz=float(rate), ci_low_hz=float(ci_low),
                      ci_high_hz=float(ci_high), n_events=int(n),
                      total_time_s=float(total),
                      censored_time_s=float(dwells[-1]),
                      dwell_times_s=dwells, censored=censored)


@dataclass(frozen=True)
class PairCoincidence:
    trace_a: int
    trace_b: int
    observed: int
    expected: float
    excess_ratio: float | None
    rate_a_hz: float
    rate_b_hz: float


@dataclass(frozen=True)
class CoincidenceResult:
    pairs: list
    window_s: float
    span: tuple


def _event_times(events):
    return require_finite("event times", np.sort(np.asarray(
        [e.time_s if isinstance(e, JumpEvent) else float(e) for e in events],
        dtype=float)))


def coincidence_analysis(event_lists, window_s: float,
                         span) -> CoincidenceResult:
    """Pairwise coincidence counts between event lists on a common span.

    Only events inside ``span`` (ends included) count, in the rates as in
    the observed coincidences; events outside it are dropped. For each
    ordered pair the observed count is the number of events in the
    first list with at least one partner in the second within +-window; the
    expectation under independent Poisson processes is
    2 * rate_a * rate_b * window * T, and the excess ratio their quotient
    (None when the expectation vanishes). Ratios near one indicate
    uncorrelated tunneling events. Non-finite event times or span ends
    raise ``ValueError``.
    """
    if len(event_lists) < 2:
        raise ValueError("need at least two event lists")
    require_finite("window_s", window_s, ">")
    t0, t1 = _span(span)
    total = t1 - t0

    times = []
    for ev in event_lists:
        tt = _event_times(ev)
        times.append(tt[np.searchsorted(tt, t0, side="left"):
                        np.searchsorted(tt, t1, side="right")])
    rates = [tt.size / total for tt in times]
    pairs = []
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            ta, tb = times[i], times[j]
            left = np.searchsorted(tb, ta - window_s, side="left")
            right = np.searchsorted(tb, ta + window_s, side="right")
            observed = int(np.count_nonzero(right > left))
            expected = 2.0 * rates[i] * rates[j] * window_s * total
            ratio = observed / expected if expected > 0 else None
            pairs.append(PairCoincidence(
                trace_a=i, trace_b=j, observed=observed, expected=expected,
                excess_ratio=ratio, rate_a_hz=rates[i], rate_b_hz=rates[j]))
    return CoincidenceResult(pairs=pairs, window_s=window_s, span=(t0, t1))
