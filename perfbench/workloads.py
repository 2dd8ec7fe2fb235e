"""The benchmark's three workloads, each a closed loop over gradflux's API.

Every workload makes its inputs from the run's seed, runs one operation at a
time through :class:`Run` (which times each stage and checks its result),
names the gradflux functions its traced operations wrap in spans, and turns
those spans into its per-layer metrics. Why each workload exists, and which
end-to-end number each layer metric should move, is in README.md.
"""

import hashlib
import math
import statistics
import sys
import time
import traceback

import numpy as np

import gradflux as gf
from gradflux import estimation, spectrum
from gradflux import io as gio

#: Telegraph inputs (and their recorded outputs) exist for seed % POOL.
POOL = 16


class Run:
    """Ledger of one run: stage times per operation, attempts and failures.

    A stage fails if it raises or if its check reports a problem; either
    way the loop goes on with the next stage.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops = []            # one {stage: seconds} dict per operation

    def begin(self):
        self.ops.append({})

    def stage(self, tracer, name, fn, check):
        self.attempted += 1
        problems = ["raised"]
        t0 = time.perf_counter()
        try:
            with tracer.span(name):
                result = fn()
            self.ops[-1][name] = time.perf_counter() - t0
            problems = check(result)
        except Exception:
            traceback.print_exc()
        if problems:
            self.failed += 1
            print(f"perfbench: {name} failed: {'; '.join(problems)}",
                  file=sys.stderr)


class Reference:
    """Recorded outputs to compare against, or, when recording, a sink."""

    def __init__(self, values, recording=False):
        self.values = values
        self.recording = recording

    def exact(self, key, got):
        if self.recording:
            self.values[key] = got
            return []
        want = self.values[key]
        return [] if got == want else [f"{key}: {got!r} != {want!r}"]

    def close(self, key, got, tol):
        if self.recording:
            self.values[key] = got
            return []
        want = np.asarray(self.values[key], dtype=float)   # None -> nan
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            return [f"{key}: shape {got.shape} != {want.shape}"]
        off = ~np.isclose(got, want, rtol=0.0, atol=tol, equal_nan=True)
        return ([f"{key}: {int(off.sum())} values off by more than {tol}"]
                if off.any() else [])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------

class Twomode:
    """Device flux sweep at 25x15, then the chi convergence ladder."""

    name = "twomode"
    STAGES = ("sweep_s", "ladder_s")
    DEVICE = dict(lq_eff=172.0, ls=2.8, lr=21.6, cr=20.2, cj=3.4, ej=5.1)
    LADDER = ((25, 15), (40, 25), (50, 40), (70, 50))
    DIMS = tuple(m * n for m, n in LADDER)
    CHI_TOL_MHZ = 1e-6
    SWEEP_TOL = 1e-6         # GHz for frequencies, MHz for chi

    def __init__(self, seed, workdir, reference):
        self.ref = reference
        self.eff = gf.reduce_circuit(gf.balanced_branch_circuit(**self.DEVICE))
        # The seed orders the grid; every point is solved independently.
        self.grid = np.random.default_rng(seed).permutation(
            np.linspace(0.0, 1.0, 101))
        self.basis = gf.FockBasisSpec(25, 15)

    def warmup(self):
        gf.flux_sweep(self.eff, [0.3], self.basis, transitions=("f01", "fr"))
        gf.dispersive_shift(self.eff, 0.5, gf.FockBasisSpec(40, 25))

    def op(self, run, tracer):
        run.stage(tracer, "sweep_s", lambda: gf.flux_sweep(
            self.eff, self.grid, self.basis, transitions=("f01", "fr")),
            lambda sweep: self.check_sweep(sweep, tracer))
        run.stage(tracer, "ladder_s", lambda: gf.convergence_report(
            self.eff, 0.5, self.LADDER), self.check_ladder)
        if tracer.detail:
            for m, n in self.LADDER:
                run.stage(tracer, "label_probe",
                          lambda: self.probe(tracer, gf.FockBasisSpec(m, n)),
                          lambda shift: self.check_probe(shift, tracer))

    def probe(self, tracer, basis):
        with tracer.span("spectrum.dispersive_shift", dim=basis.dim):
            return gf.dispersive_shift(self.eff, 0.5, basis)

    def check_sweep(self, sweep, tracer):
        for p in sweep.points:
            tracer.note("chi_valid", p.chi_valid)
        rows = sorted((p.flux_phi0, p.transition, p.freq_ghz,
                       p.chi_mhz if p.chi_valid else None)
                      for p in sweep.points)
        problems = []
        if len(sweep.points) != 202 or sweep.errors:
            problems.append(f"{len(sweep.points)} points and "
                            f"{len(sweep.errors)} errors, want 202 and 0")
        problems += self.ref.close("sweep_freq_ghz", [r[2] for r in rows],
                                   self.SWEEP_TOL)
        problems += self.ref.close("sweep_chi_mhz",
                                   [r[3] for r in rows if r[1] == "fr"],
                                   self.SWEEP_TOL)
        return problems

    def check_ladder(self, rows):
        problems = self.ref.close("chi_mhz", rows[-1].chi_mhz,
                                  self.CHI_TOL_MHZ)
        if [r.dim for r in rows] != list(self.DIMS):
            problems.append(f"ladder dims {[r.dim for r in rows]}")
        if not abs(rows[-1].delta_chi_mhz) < 0.01:
            problems.append("chi not converged to 0.01 MHz")
        return problems

    def check_probe(self, shift, tracer):
        tracer.note("min_overlap", shift.min_overlap)
        return [] if shift.valid else [f"chi invalid: {shift.reason}"]

    @staticmethod
    def patches():
        return [
            (spectrum, "build_hamiltonian", "spectrum.build",
             lambda args, kwargs, h: {"dim": h.basis.dim,
                                      "mb": h.matrix.nbytes / 1e6}),
            (spectrum, "solve_hermitian", "spectrum.solve",
             lambda args, kwargs, res: {"dim": args[0].shape[0]}),
        ]

    def layer_metrics(self, tr):
        m = {}
        sweeps, ladders = tr.select("sweep_s"), tr.select("ladder_s")
        for d in self.DIMS:
            m[f"spectrum.build_s.d{d}"] = tr.median(
                tr.select("spectrum.build", dim=d))
            m[f"spectrum.solve_s.d{d}"] = tr.median(
                tr.select("spectrum.solve", dim=d))
            m[f"spectrum.label_s.d{d}"] = tr.median(
                tr.select("spectrum.dispersive_shift", dim=d), tr.self_time)
        # The sweep is serial: a point runs from its build to the next one.
        points = []
        for s in sweeps:
            starts = [tr.spans[i][1]
                      for i in tr.select("spectrum.build", within={s})]
            points += list(np.diff(starts + [tr.spans[s][2]]))
        m["spectrum.sweep_point_s.p50"] = float(np.percentile(points, 50))
        m["spectrum.sweep_point_s.p90"] = float(np.percentile(points, 90))
        m["spectrum.eigensolves"] = len(tr.select(
            "spectrum.solve", within=set(sweeps + ladders))) / len(sweeps)
        m["spectrum.matrix_mb.d3500"] = tr.spans[
            tr.select("spectrum.build", dim=3500)[0]][4]["mb"]
        m["spectrum.min_overlap"] = min(tr.notes["min_overlap"])
        valid = tr.notes["chi_valid"]
        m["spectrum.chi_valid_ratio"] = sum(valid) / len(valid)
        return m


# ---------------------------------------------------------------------------

def reference_levels(lq, cj, ej, phis, m=30):
    """Lowest three single-loop fluxonium levels [GHz], one row per flux.

    Written here rather than taken from gradflux, so that a change to the
    library's forward model cannot move the synthetic data along with it.
    """
    ec = gf.EC_GHZ_FF / cj
    el = gf.EL_GHZ_NH / lq
    a = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    theta, v = np.linalg.eigh((2.0 * ec / el) ** 0.25 * (a + a.T))
    levels = []
    for phi in phis:
        cos_op = (v * np.cos(theta + 2.0 * np.pi * phi)) @ v.T
        h = np.diag(math.sqrt(8.0 * ec * el) * np.arange(m)) - ej * cos_op
        levels.append(np.linalg.eigvalsh(h)[:3])
    return np.array(levels)


class SpectroFit:
    """Single-loop fit of the criterion-5 dataset, rows shuffled per operation.

    The noise is one fixed draw. The number of objective evaluations a fit
    needs depends on the draw (about 2 000 for most, 3 600 for some), so a
    fresh draw per operation would make fit_s measure the draws as much as
    the code. The seed shuffles the rows of each operation's dataset
    instead, which leaves the fit's work unchanged (1 974 evaluations).
    """

    name = "spectro-fit"
    STAGES = ("fit_s",)
    TRUTH = {"lq_nh": 172.0, "cj_ff": 3.4, "ej_ghz": 5.1}
    SIGMA_GHZ = 1e-3
    PARAM_TOL = 0.01

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.n_ops = 0
        self.phis = np.linspace(0.05, 0.95, 40)
        self.transitions = np.array(["f01" if i % 2 == 0 else "f02"
                                     for i in range(40)])
        lv = reference_levels(*self.TRUTH.values(), self.phis)
        clean = np.where(self.transitions == "f01",
                         lv[:, 1] - lv[:, 0], lv[:, 2] - lv[:, 0])
        self.noise = np.random.default_rng([0, 0]).normal(
            0.0, self.SIGMA_GHZ, size=self.phis.size)
        self.freq = clean + self.noise

    def warmup(self):
        gf.single_loop_transitions(*self.TRUTH.values(), self.phis, m=30)

    def op(self, run, tracer):
        rows = np.random.default_rng([self.seed, self.n_ops]).permutation(
            self.phis.size)
        self.n_ops += 1
        data = gf.SpectroscopyDataset(
            x=self.phis[rows],
            transition=tuple(self.transitions[rows].tolist()),
            freq_ghz=self.freq[rows],
            sigma_ghz=np.full(self.phis.size, self.SIGMA_GHZ))
        # No fit may end worse than the true parameters themselves score.
        chi2_truth = float(np.sum((self.noise / self.SIGMA_GHZ) ** 2))
        run.stage(tracer, "fit_s",
                  lambda: gf.fit_spectrum(data, n_starts=8, seed=0),
                  lambda fit: self.check(fit, chi2_truth, tracer))

    def check(self, fit, chi2_truth, tracer):
        tracer.note("nfev", fit.nfev)
        problems = [f"{k} off by {abs(fit.params[k] / v - 1):.2%}"
                    for k, v in self.TRUTH.items()
                    if abs(fit.params[k] / v - 1) >= self.PARAM_TOL]
        if not fit.chi2 <= chi2_truth * (1 + 1e-9):
            problems.append(f"chi2 {fit.chi2:.6f} above the truth's "
                            f"{chi2_truth:.6f}")
        return problems

    @staticmethod
    def patches():
        return [(estimation, "single_loop_transitions", "estimation.forward",
                 None)]

    def layer_metrics(self, tr):
        fit_s = tr.median(tr.select("fit_s"))
        nfev = statistics.median(tr.notes["nfev"])
        forward = tr.median(tr.select("estimation.forward"))
        return {"estimation.forward_s.p50": forward,
                "estimation.nfev": nfev,
                "estimation.eval_s": fit_s / nfev,
                "estimation.forward_share": nfev * forward / fit_s}


# ---------------------------------------------------------------------------

class Telegraph:
    """Quiet trace written and analyzed; busy pair read and coincided."""

    name = "telegraph"
    STAGES = ("simulate_s", "analyze_s", "coincidence_s")
    QUIET = dict(rate_eo_hz=1 / 1800, rate_oe_hz=1 / 1800, duration_s=1e6,
                 dt_s=1.0, noise_sigma=0.125)
    # current-activated regime: a switch a minute on average
    BUSY = dict(rate_eo_hz=1 / 60, rate_oe_hz=1 / 60, duration_s=2e5,
                dt_s=1.0, noise_sigma=0.125)
    WINDOW_S = 5.0

    def __init__(self, seed, workdir, reference):
        self.ref = reference
        key = seed % POOL
        self.quiet_seed = 1000 + key
        workdir.mkdir(parents=True, exist_ok=True)
        self.quiet_csv = workdir / "quiet.csv"
        self.dwell_json = workdir / "dwell.json"
        self.coincidence_json = workdir / "coincidence.json"
        self.busy_csv = [workdir / f"busy{i}.csv" for i in (0, 1)]
        self.busy_switches = 0
        for i, path in enumerate(self.busy_csv):
            trace = gf.simulate_telegraph(**self.BUSY, seed=2000 + 2 * key + i)
            gio.write_trace_csv(path, trace)
            self.busy_switches += trace.switch_times.size

    def warmup(self):
        small = gf.simulate_telegraph(0.01, 0.01, 2000, 1.0, noise_sigma=0.1)
        path = self.quiet_csv.with_name("warmup.csv")
        gio.write_trace_csv(path, small)
        gf.detect_jumps(gio.read_trace_csv(path))

    def op(self, run, tracer):
        run.stage(tracer, "simulate_s", lambda: self.simulate(tracer),
                  lambda _: self.check_simulate())
        run.stage(tracer, "analyze_s", lambda: self.analyze(tracer),
                  lambda events: self.check_analyze(events, tracer))
        run.stage(tracer, "coincidence_s", lambda: self.coincidence(tracer),
                  lambda events: self.check_coincidence(events, tracer))

    def simulate(self, tracer):
        with tracer.span("fluxon.simulate"):
            trace = gf.simulate_telegraph(**self.QUIET, seed=self.quiet_seed)
        with tracer.span("io.trace_write"):
            gio.write_trace_csv(self.quiet_csv, trace)

    def analyze(self, tracer):
        with tracer.span("io.trace_read", kind="quiet"):
            trace = gio.read_trace_csv(self.quiet_csv)
        with tracer.span("fluxon.detect", kind="quiet"):
            events = gf.detect_jumps(trace)
        with tracer.span("fluxon.lifetime"):
            stats = gf.estimate_lifetime(events, trace.span_s)
        with tracer.span("io.dwell_json"):
            gio.write_dwell_json(self.dwell_json, stats, events=events)
        return events

    def coincidence(self, tracer):
        traces, event_lists = [], []
        for path in self.busy_csv:
            with tracer.span("io.trace_read", kind="busy"):
                traces.append(gio.read_trace_csv(path))
            with tracer.span("fluxon.detect", kind="busy"):
                event_lists.append(gf.detect_jumps(traces[-1]))
        span = (max(t.span_s[0] for t in traces),
                min(t.span_s[1] for t in traces))
        with tracer.span("fluxon.coincidence"):
            result = gf.coincidence_analysis(event_lists, self.WINDOW_S, span)
        with tracer.span("io.coincidence_json"):
            gio.write_json(self.coincidence_json, {
                "window_s": result.window_s, "span_s": list(result.span),
                "pairs": [vars(p) for p in result.pairs]})
        return event_lists

    def check_simulate(self):
        return (self.ref.exact("quiet_csv_sha256", sha256(self.quiet_csv))
                + self.ref.exact("quiet_sidecar_sha256",
                                 sha256(self.quiet_csv.with_suffix(".json"))))

    def check_analyze(self, events, tracer):
        tracer.note("events_quiet", len(events))
        return (self.ref.exact("events_quiet", len(events))
                + self.ref.exact("dwell_sha256", sha256(self.dwell_json)))

    def check_coincidence(self, event_lists, tracer):
        counts = [len(e) for e in event_lists]
        tracer.note("events_busy", sum(counts))
        return (self.ref.exact("events_busy", counts)
                + self.ref.exact("coincidence_sha256",
                                 sha256(self.coincidence_json)))

    @staticmethod
    def patches():
        return []

    def layer_metrics(self, tr):
        med = lambda name, **kw: tr.median(tr.select(name, **kw))
        trace_mb = self.quiet_csv.stat().st_size / 1e6
        write_s = med("io.trace_write")
        read_quiet = med("io.trace_read", kind="quiet")
        busy_events = statistics.median(tr.notes["events_busy"])
        return {
            "fluxon.simulate_s": med("fluxon.simulate"),
            "fluxon.detect_s.quiet": med("fluxon.detect", kind="quiet"),
            "fluxon.detect_s.busy": med("fluxon.detect", kind="busy"),
            "fluxon.events.quiet": statistics.median(
                tr.notes["events_quiet"]),
            "fluxon.events.busy": busy_events,
            "fluxon.recall.busy": busy_events / self.busy_switches,
            "io.trace_write_s": write_s,
            "io.trace_write_mb_per_s": trace_mb / write_s,
            "io.trace_read_s.quiet": read_quiet,
            "io.trace_read_s.busy": med("io.trace_read", kind="busy"),
            "io.trace_read_mb_per_s": trace_mb / read_quiet,
            "io.dwell_json_s": med("io.dwell_json"),
            "io.trace_mb": trace_mb,
        }


WORKLOADS = {w.name: w for w in (Twomode, SpectroFit, Telegraph)}
