"""Fluxon-dynamics tests: phase slips, telegraph traces, dwell statistics."""

import math
import time

import numpy as np
import pytest

from gradflux import (DEVICE_ARRAY, JumpEvent, JunctionArrayModel,
                      coincidence_analysis, detect_jumps,
                      effective_junction_count, estimate_lifetime,
                      phase_slip_rate, simulate_telegraph)
from gradflux.fluxon import TimeTrace


def planted_trace(rng, n, k_jumps, dwell_min, snr, sigma=1.0, dt=1.0):
    """Two-level trace with k jumps at uniform positions, dwell >= dwell_min."""
    slack = n - (k_jumps + 1) * dwell_min
    cuts = np.sort(rng.choice(slack, size=k_jumps, replace=False))
    pos = cuts + dwell_min * (1 + np.arange(k_jumps))
    level = np.zeros(n)
    state, prev = 0, 0
    for p in pos:
        level[prev:p] = state * snr * sigma
        state = 1 - state
        prev = p
    level[prev:] = state * snr * sigma
    value = level + rng.normal(0.0, sigma, n)
    return TimeTrace(t_s=dt * np.arange(n), value=value, noise_sigma=sigma), pos


class TestPhaseSlipRate:
    def test_zero_junctions(self):
        model = JunctionArrayModel(n_junctions=0, ej_grain_ghz=53e3,
                                   ec_grain_ghz=48.0)
        result = phase_slip_rate(model)
        assert result.rate_hz == 0.0
        assert math.isinf(result.log10_rate_hz)

    def test_device_rate_below_1e20(self):
        result = phase_slip_rate(DEVICE_ARRAY)
        assert 0.0 < result.rate_hz <= 1e-20
        assert result.warning is None

    def test_extended_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        ej, ec = mp.mpf(53_000), mp.mpf(48)
        exact = (DEVICE_ARRAY.n_junctions * 4 / mp.sqrt(mp.pi)
                 * (8 * ej ** 3 * ec) ** mp.mpf("0.25") * mp.mpf(1e9)
                 * mp.exp(-mp.sqrt(8 * ej / ec)))
        got = phase_slip_rate(DEVICE_ARRAY).rate_hz
        ratio = got / float(exact)
        assert 1 / 1.01 < ratio < 1.01

    def test_tiny_charging_energy_keeps_log_finite(self):
        # E_J / E_C overflows at E_C = 1e-320; sqrt(8 E_J) / sqrt(E_C) does
        # not, and the log rate is about -sqrt(8 * 53e3 / 1e-320) / ln 10
        result = phase_slip_rate(JunctionArrayModel(75_000, 53e3, 1e-320))
        assert math.isfinite(result.log10_rate_hz)
        assert result.log10_rate_hz == pytest.approx(-2.828e162, rel=1e-3)
        assert result.rate_hz == 0.0
        assert phase_slip_rate(DEVICE_ARRAY).rate_hz == pytest.approx(
            3.983963932495194e-23, rel=1e-12)

    def test_linear_in_junction_count(self):
        single = phase_slip_rate(JunctionArrayModel(1, 53e3, 48.0)).rate_hz
        double = phase_slip_rate(JunctionArrayModel(2, 53e3, 48.0)).rate_hz
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_monotone_in_barrier_ratio(self):
        rates = [phase_slip_rate(JunctionArrayModel(100, r * 48.0, 48.0))
                 .log10_rate_hz for r in (10, 30, 100, 300)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_regime_warning(self):
        result = phase_slip_rate(JunctionArrayModel(100, 10.0, 48.0))
        assert result.warning is not None

    def test_validation(self):
        for ej, ec, name in ((math.inf, 48.0, "ej_grain_ghz"),
                             (53e3, math.nan, "ec_grain_ghz"),
                             (0.0, 48.0, "ej_grain_ghz")):
            with pytest.raises(ValueError, match=name):
                JunctionArrayModel(10, ej, ec)
        with pytest.raises(ValueError, match="n_junctions"):
            JunctionArrayModel(-1, 53e3, 48.0)

    def test_current_activation_threshold_reported(self):
        from gradflux.fluxon import CURRENT_ACTIVATED_BIAS_PHI0
        assert CURRENT_ACTIVATED_BIAS_PHI0 == 130.0

    def test_matches_naive_evaluation_when_safe(self):
        model = JunctionArrayModel(100, 480.0, 48.0)
        naive = (100 * 4 / math.sqrt(math.pi)
                 * (8 * 480.0 ** 3 * 48.0) ** 0.25 * 1e9
                 * math.exp(-math.sqrt(8 * 480.0 / 48.0)))
        assert phase_slip_rate(model).rate_hz == pytest.approx(naive,
                                                               rel=1e-12)


class TestJunctionCount:
    def test_device_wire(self):
        assert effective_junction_count(300e-6, 4e-9) == 75_000

    def test_single_grain(self):
        assert effective_junction_count(4e-9, 4e-9) == 1

    def test_micron_wire(self):
        assert effective_junction_count(1e-6, 4e-9) == 250

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_junction_count(0.0, 4e-9)
        with pytest.raises(ValueError, match="wire_length_m"):
            effective_junction_count(math.inf, 4e-9)
        with pytest.raises(ValueError, match="grain_size_m"):
            effective_junction_count(300e-6, math.nan)
        with pytest.raises(ValueError, match="grain_size_m"):
            effective_junction_count(300e-6, math.inf)
        with pytest.raises(ValueError, match="overflows"):
            effective_junction_count(1e308, 1e-300)


class TestSimulateTelegraph:
    def test_zero_rates_constant(self):
        trace = simulate_telegraph(0.0, 0.0, 100.0, 1.0, noise_sigma=0.0,
                                   seed=1)
        assert np.all(trace.value == trace.value[0])
        assert trace.switch_times.size == 0

    def test_seed_determinism(self):
        a = simulate_telegraph(0.01, 0.02, 500.0, 0.5, noise_sigma=0.3,
                               seed=7)
        b = simulate_telegraph(0.01, 0.02, 500.0, 0.5, noise_sigma=0.3,
                               seed=7)
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.switch_times, b.switch_times)
        c = simulate_telegraph(0.01, 0.02, 500.0, 0.5, noise_sigma=0.3,
                               seed=8)
        assert not np.array_equal(a.value, c.value)

    def test_mean_dwell_matches_rate(self):
        lam = 1.0 / 1800.0
        trace = simulate_telegraph(lam, lam, 1e5, 1.0, seed=3)
        dwells = np.diff(np.concatenate(([0.0], trace.switch_times)))
        assert dwells.size > 10
        stderr = 1800.0 / math.sqrt(dwells.size)
        assert abs(dwells.mean() - 1800.0) < 2 * stderr

    def test_levels_and_alternation(self):
        trace = simulate_telegraph(0.05, 0.05, 400.0, 1.0, noise_sigma=0.0,
                                   seed=5)
        assert set(np.unique(trace.value)) == {0.0, 1.0}
        assert trace.value[0] == 0.0      # starts even

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_telegraph(-0.1, 0.1, 10.0, 1.0)
        with pytest.raises(ValueError):
            simulate_telegraph(0.1, 0.1, 0.5, 1.0)
        for kwargs, name in (({"noise_sigma": math.nan}, "noise_sigma"),
                             ({"noise_sigma": math.inf}, "noise_sigma"),
                             ({"noise_sigma": -0.1}, "noise_sigma"),
                             ({"dt_s": math.nan}, "dt_s"),
                             ({"duration_s": math.inf}, "duration_s")):
            args = {"duration_s": 10.0, "dt_s": 1.0} | kwargs
            with pytest.raises(ValueError, match=name):
                simulate_telegraph(0.1, 0.1, **args)

    def test_switch_count_cap_rejects_up_front(self):
        # 1e12 expected switches: refused before any switch is drawn
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_SWITCHES"):
            simulate_telegraph(1e9, 1e9, 1e3, 1.0)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError):
            simulate_telegraph(math.inf, 1.0, 1e3, 1.0)


class TestDetectJumps:
    def test_constant_trace_no_events(self):
        trace = TimeTrace(t_s=np.arange(100.0), value=np.ones(100))
        assert detect_jumps(trace) == []

    def test_noise_only_no_events(self):
        rng = np.random.default_rng(0)
        trace = TimeTrace(t_s=np.arange(5000.0),
                          value=rng.normal(0, 1, 5000))
        assert detect_jumps(trace) == []

    def test_zero_noise_step(self):
        value = np.r_[np.zeros(60), np.ones(80)]
        trace = TimeTrace(t_s=np.arange(140.0), value=value)
        events = detect_jumps(trace)
        assert len(events) == 1
        assert events[0].index == 60
        assert events[0].direction == 1

    def test_zero_noise_short_dwells(self):
        # dwells shorter than the window give rolling-median shifts of both
        # signs in one run; each sign still makes its own candidate
        trace = simulate_telegraph(0.08, 0.08, 3000.0, 1.0, noise_sigma=0.0,
                                   seed=1)
        events = detect_jumps(trace)
        for e in events:
            assert np.min(np.abs(trace.switch_times - e.time_s)) <= 1.0
        assert {1637, 1871, 1992, 2961} <= {e.index for e in events}
        # gate and standard error are 0 here, so a boundary between equal
        # medians (these six once passed as size-0 steps) must not verify
        assert all(e.size != 0.0 for e in events)
        assert not {655, 826, 1977, 2038, 2396, 2720} & {e.index
                                                         for e in events}

    def test_single_step_at_85_minutes(self):
        # readout-frequency jump 85 min into a two-hour trace, SNR 10
        dt = 30.0
        t = np.arange(0.0, 7200.0, dt)
        true_index = int(85 * 60 / dt)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            value = np.where(np.arange(t.size) >= true_index, 1.0, 0.0)
            value = value + rng.normal(0, 0.1, t.size)
            events = detect_jumps(TimeTrace(t_s=t, value=value,
                                            noise_sigma=0.1))
            assert len(events) == 1
            assert abs(events[0].index - true_index) <= 1
            assert abs(events[0].time_s - 85 * 60) <= dt

    def test_exact_recovery_snr5(self):
        # invariant: planted count recovered exactly at SNR >= 5 with
        # dwell >= 20 samples, over 100 seeds
        for seed in range(100):
            rng = np.random.default_rng(seed)
            trace, pos = planted_trace(rng, 2000, k_jumps=8, dwell_min=20,
                                       snr=5.0)
            events = detect_jumps(trace)
            assert len(events) == 8, f"seed {seed}"
            got = np.array([e.index for e in events])
            assert np.max(np.abs(got - pos)) <= 2

    def test_exact_recovery_snr8(self):
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            trace, pos = planted_trace(rng, 1500, k_jumps=5, dwell_min=25,
                                       snr=8.0)
            events = detect_jumps(trace)
            assert len(events) == 5
            assert np.max(np.abs([e.index for e in events] - pos)) <= 1

    def test_directions_alternate(self):
        rng = np.random.default_rng(2)
        trace, _ = planted_trace(rng, 1200, k_jumps=6, dwell_min=30, snr=8.0)
        directions = [e.direction for e in detect_jumps(trace)]
        assert directions == [1, -1, 1, -1, 1, -1]

    @pytest.mark.parametrize("n", [0, 1])
    def test_trace_of_fewer_than_two_samples_accepted(self, n):
        trace = TimeTrace(t_s=np.arange(float(n)), value=np.zeros(n))
        assert trace.t_s.size == trace.value.size == n

    def test_validation(self):
        trace = TimeTrace(t_s=np.arange(100.0), value=np.zeros(100))
        with pytest.raises(ValueError):
            detect_jumps(trace, threshold_in_mads=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold_in_mads"):
                detect_jumps(trace, threshold_in_mads=bad)
        short = TimeTrace(t_s=np.arange(5.0), value=np.zeros(5))
        with pytest.raises(ValueError):
            detect_jumps(short)
        for last in (math.inf, math.nan):
            with pytest.raises(ValueError, match="times must be finite"):
                TimeTrace(t_s=np.r_[np.arange(9.0), last],
                          value=np.zeros(10))


class TestEstimateLifetime:
    def test_zero_events_rule_of_three(self):
        span = (0.0, 48 * 3600.0)
        stats = estimate_lifetime([], span)
        assert stats.rate_hz == 0.0
        assert stats.ci_low_hz == 0.0
        assert stats.ci_high_hz * span[1] == pytest.approx(3.0, rel=0.01)
        assert stats.censored[-1]
        assert stats.censored_time_s == span[1]

    def test_single_event_at_85_minutes(self):
        stats = estimate_lifetime([85 * 60.0], (0.0, 120 * 60.0))
        assert stats.rate_hz == pytest.approx(1.0 / (120 * 60.0), rel=1e-12)
        assert stats.n_events == 1
        assert stats.ci_low_hz <= stats.rate_hz <= stats.ci_high_hz
        assert stats.ci_high_hz / stats.ci_low_hz > 50   # wide CI
        assert stats.dwell_times_s == pytest.approx([85 * 60.0, 35 * 60.0])
        assert list(stats.censored) == [False, True]

    def test_synthetic_rate_within_two_sigma(self):
        lam = 1.0 / 1800.0
        rng = np.random.default_rng(17)
        duration = 200 / lam
        times = np.cumsum(rng.exponential(1 / lam, size=400))
        times = times[times < duration]
        stats = estimate_lifetime(times, (0.0, duration))
        sigma = math.sqrt(200) / duration
        assert abs(stats.rate_hz - lam) < 2 * sigma

    def test_unbiased_over_many_seeds(self):
        lam = 1.0 / 1800.0
        duration = 200 / lam
        estimates = []
        for seed in range(500):
            rng = np.random.default_rng(seed)
            times = np.cumsum(rng.exponential(1 / lam, size=400))
            times = times[times < duration]
            estimates.append(
                estimate_lifetime(times, (0.0, duration)).rate_hz)
        assert np.mean(estimates) == pytest.approx(lam, rel=0.03)

    def test_exact_poisson_interval_brackets_estimate(self):
        for n in (1, 5, 55):
            times = np.linspace(10.0, 900.0, n)
            stats = estimate_lifetime(times, (0.0, 1000.0))
            assert stats.ci_low_hz <= stats.rate_hz <= stats.ci_high_hz

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_lifetime([5.0], (0.0, 1.0))
        with pytest.raises(ValueError):
            estimate_lifetime([], (10.0, 10.0))


class TestCoincidence:
    def test_identical_lists_count_events(self):
        times = np.sort(np.random.default_rng(0).uniform(0, 1e4, 40))
        for window in (1e-6, 1.0, 1e6):
            result = coincidence_analysis([times, times], window,
                                          (0.0, 1e4))
            assert result.pairs[0].observed == 40

    def test_disjoint_lists_zero(self):
        a = np.array([100.0, 300.0, 500.0])
        b = a + 50.0
        result = coincidence_analysis([a, b], 10.0, (0.0, 1000.0))
        assert result.pairs[0].observed == 0

    def test_independent_processes_excess_near_one(self):
        lam, duration, window = 0.01, 1e5, 1.0
        total_obs = total_exp = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a = np.sort(rng.uniform(0, duration, rng.poisson(lam * duration)))
            b = np.sort(rng.uniform(0, duration, rng.poisson(lam * duration)))
            result = coincidence_analysis([a, b], window, (0.0, duration))
            total_obs += result.pairs[0].observed
            total_exp += result.pairs[0].expected
        assert abs(total_obs - total_exp) < 2 * math.sqrt(total_exp)

    def test_three_traces_pairwise(self):
        lists = [np.array([1.0, 2.0]), np.array([10.0, 20.0]),
                 np.array([30.0])]
        result = coincidence_analysis(lists, 0.5, (0.0, 100.0))
        assert len(result.pairs) == 3
        keys = {(p.trace_a, p.trace_b) for p in result.pairs}
        assert keys == {(0, 1), (0, 2), (1, 2)}

    def test_accepts_jump_events(self):
        events = [JumpEvent(time_s=5.0, index=5, direction=1, size=1.0)]
        result = coincidence_analysis([events, events], 1.0, (0.0, 10.0))
        assert result.pairs[0].observed == 1

    def test_events_outside_span_dropped(self):
        # A covers [0, 1000] s and B [500, 1500] s; on their common span
        # each holds 50 events, one every 10 s, and A's events at 5..495 s
        # and B's at 1005..1495 s must not count
        a = np.arange(5.0, 1000.0, 10.0)
        b = np.arange(505.0, 1500.0, 10.0)
        pair = coincidence_analysis([a, b], 1.0, (500.0, 1000.0)).pairs[0]
        assert pair.rate_a_hz == pytest.approx(0.1, rel=1e-12)
        assert pair.rate_b_hz == pytest.approx(0.1, rel=1e-12)
        assert pair.observed == 50
        assert pair.expected == pytest.approx(2 * 0.1 * 0.1 * 1.0 * 500.0)

    @pytest.mark.parametrize("empty", [0, 1], ids=["first", "second"])
    def test_empty_list_gives_no_coincidence(self, empty):
        lists = [np.array([2.0, 5.0]), np.array([2.5, 8.0])]
        lists[empty] = []
        pair = coincidence_analysis(lists, 1.0, (0.0, 10.0)).pairs[0]
        assert pair.observed == 0 and pair.expected == 0.0
        assert pair.excess_ratio is None

    def test_validation(self):
        with pytest.raises(ValueError):
            coincidence_analysis([np.array([1.0])], 1.0, (0.0, 10.0))
        with pytest.raises(ValueError):
            coincidence_analysis([np.array([1.0]), np.array([2.0])], 0.0,
                                 (0.0, 10.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="window_s"):
                coincidence_analysis([np.array([1.0]), np.array([2.0])],
                                     bad, (0.0, 10.0))


class TestPipeline:
    def test_detect_and_estimate_recover_planted_rate(self):
        lam = 1.0 / 1800.0
        trace = simulate_telegraph(lam, lam, 1e5, 1.0, noise_sigma=0.125,
                                   seed=1)
        events = detect_jumps(trace)
        stats = estimate_lifetime(events, trace.span_s)
        sigma = math.sqrt(lam * 1e5) / 1e5
        assert abs(stats.rate_hz - lam) < 2 * sigma
