"""Command-line interface.

Subcommands wrap the library for batch use: flux sweeps, spectrum fits,
dispersive-shift and phase-slip evaluation, telegraph-trace simulation and
analysis. :func:`main` resolves the configuration once: built-in defaults,
then the INI file given by ``--config`` (unknown sections or keys are
rejected), then the flags given, whose argparse ``dest`` names their
"section.key". A flag value is cast and checked like an INI value, by
:data:`CONFIG_SCHEMA`, with the same error message; ``fit`` checks
``fit.forward``, from either, before it reads its dataset. ``junctions``
is the one subcommand without ``--config``. Every output path is then
checked once, before any work. Every output embeds the resolved
configuration and tool version, and re-running with the same inputs
reproduces outputs bit-identically.

Exit codes: 0 success, 1 numerical non-convergence, 2 input/config error
or an unreadable or unwritable file.
"""

import argparse
import configparser
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .circuit import BranchCircuit, balanced_branch_circuit, reduce_circuit
from .estimation import (BASIS_M, MAX_NFEV, N_STARTS, FitError, fit_decay,
                         fit_parabola, fit_spectrum)
from .fluxon import (CURRENT_ACTIVATED_BIAS_PHI0, DEVICE_ARRAY,
                     JUMP_THRESHOLD_MADS, JUMP_WINDOW,
                     JunctionArrayModel, coincidence_analysis, detect_jumps,
                     effective_junction_count, estimate_lifetime,
                     phase_slip_rate, simulate_telegraph)
from .spectrum import (DEFAULT_BASIS, MIN_CONFIDENCE, FockBasisSpec,
                       LabelError, SolverError, convergence_report,
                       dispersive_shift, flux_sweep)


class ConfigError(ValueError):
    """Invalid configuration file or option."""


DEFAULT_CONFIG = {
    "circuit": {"lq_eff": 172.0, "cj": 3.4, "ej": 5.1, "cr": 20.2,
                "lr": 21.6, "ls": 2.8},
    "basis": {"m_qubit": DEFAULT_BASIS.m_qubit,
              "n_res": DEFAULT_BASIS.n_res},
    "sweep": {"start": 0.0, "stop": 1.0, "points": 101,
              "transitions": "f01"},
    "geometry": {"wire_length_m": 300e-6, "grain_size_m": 4e-9},
    "trace": {"rate_eo_hz": 1.0 / 1800.0, "rate_oe_hz": 1.0 / 1800.0,
              "duration_s": 100_000.0, "dt_s": 1.0, "noise_sigma": 0.1,
              "seed": 0, "threshold_mads": JUMP_THRESHOLD_MADS,
              "window": JUMP_WINDOW},
    "fit": {"n_starts": N_STARTS, "seed": 0, "basis_m": BASIS_M,
            "forward": "single-loop", "max_nfev": MAX_NFEV},
    "tolerances": {"min_confidence": MIN_CONFIDENCE},
}

#: Type of every config key: that of its default, plus the optional branch
#: inductances.
CONFIG_SCHEMA = {sec: {key: type(value) for key, value in vals.items()}
                 for sec, vals in DEFAULT_CONFIG.items()}
CONFIG_SCHEMA["circuit"].update(l1=float, l2=float, l3=float)


def load_config(path=None) -> dict:
    """Defaults merged with an INI file; unknown keys are rejected."""
    config = {sec: dict(vals) for sec, vals in DEFAULT_CONFIG.items()}
    if path is None:
        return config
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {sec: parser.items(sec) for sec in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section, items in sections.items():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items:
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(
                    f"unknown config key '{key}' in section [{section}]")
            config[section][key] = _cast(section, key, raw)
    return config


def _cast(section, key, raw):
    """An INI or flag value cast to its key's CONFIG_SCHEMA type."""
    try:
        return CONFIG_SCHEMA[section][key](raw)
    except ValueError as exc:
        raise ConfigError(
            f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc


def effective_from_config(circ: dict):
    """Effective fluxonium from a [circuit] section.

    Any branch inductance (l1 and l3, optional l2) selects the branch
    circuit, which needs both l1 and l3; otherwise the balanced-gradiometer
    reconstruction matching lq_eff is used.
    """
    if any(key in circ for key in ("l1", "l2", "l3")):
        if not ("l1" in circ and "l3" in circ):
            raise ConfigError("branch circuit needs both l1 and l3")
        branch = BranchCircuit(l1=circ["l1"], l2=circ.get("l2", 0.0),
                               l3=circ["l3"], ls=circ["ls"], lr=circ["lr"],
                               cr=circ["cr"], cj=circ["cj"], ej=circ["ej"])
    else:
        branch = balanced_branch_circuit(
            lq_eff=circ["lq_eff"], ls=circ["ls"], lr=circ["lr"],
            cr=circ["cr"], cj=circ["cj"], ej=circ["ej"])
    return reduce_circuit(branch)


def build_meta(command: str, config: dict) -> dict:
    return {"tool": "gradflux", "version": __version__, "command": command,
            "config": config}


def _basis_from(config):
    return FockBasisSpec(config["basis"]["m_qubit"],
                         config["basis"]["n_res"])


def _check_out(args):
    """Reject output paths that cannot take a file, before any work: ``--out``
    when set and, for a ``companion`` command, its :func:`io.companion` file.

    No output may name the same file as another output, an input of
    ``args`` (``--config``, ``--data``, ``--trace``, ``--traces``) or an
    input trace's sidecar.
    """
    traces = getattr(args, "traces", None) or [getattr(args, "trace", None)]
    traces = [p for p in traces if p]
    taken = {Path(p).resolve() for p in [
        args.config, getattr(args, "data", None), *traces,
        *map(io.companion, traces)] if p}
    outs = [args.out] + ([io.companion(args.out)] if args.companion else [])
    for path in map(Path, filter(None, outs)):
        if path.is_dir():
            raise ConfigError(f"output path {path} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"output path {path}: no directory "
                              f"{path.parent}")
        if path.resolve() in taken:
            raise ConfigError(f"output path {path} names an input or "
                              "another output of this command")
        taken.add(path.resolve())


def cmd_sweep(args, config, meta) -> int:
    eff = effective_from_config(config["circuit"])
    sweep_cfg = config["sweep"]
    if sweep_cfg["points"] < 1:
        raise ConfigError(
            f"sweep.points must be at least 1, got {sweep_cfg['points']}")
    grid = np.linspace(sweep_cfg["start"], sweep_cfg["stop"],
                       sweep_cfg["points"])
    transitions = tuple(t.strip() for t in
                        sweep_cfg["transitions"].split(",") if t.strip())
    if not transitions:
        raise ConfigError("sweep.transitions must name at least one "
                          f"transition, got {sweep_cfg['transitions']!r}")
    sweep = flux_sweep(eff, grid, basis=_basis_from(config),
                       transitions=transitions,
                       min_confidence=config["tolerances"]["min_confidence"])
    io.write_sweep_csv(args.out, sweep, meta=meta)
    print(f"sweep: {len(sweep.points)} rows, {len(sweep.errors)} errors "
          f"-> {args.out}")
    if args.strict and sweep.errors:
        print("strict mode: per-point errors present", file=sys.stderr)
        return 1
    return 0


def cmd_chi(args, config, meta) -> int:
    eff = effective_from_config(config["circuit"])
    min_conf = config["tolerances"]["min_confidence"]
    if args.ladder:
        ladder = []
        for token in args.ladder.split(","):
            try:
                m, n = (int(v) for v in token.split("x"))
            except ValueError:
                raise ConfigError(f"bad --ladder rung {token!r}: expected "
                                  "MxN, e.g. 25x15") from None
            ladder.append((m, n))
        rows = convergence_report(eff, args.flux, ladder,
                                  min_confidence=min_conf)
        chi = rows[-1].chi_mhz
        result = {"rows": rows, "chi_MHz": chi}
    else:
        shift = dispersive_shift(eff, args.flux, _basis_from(config),
                                 min_confidence=min_conf)
        chi = shift.chi_mhz
        result = io.fields(shift)
    if args.out:
        io.write_json(args.out, {"meta": meta, "flux_phi0": args.flux,
                                 **result})
    if chi is None:
        print("chi: invalid (avoided-crossing exclusion zone)")
        return 1
    print(f"chi({args.flux} Phi_0) = {chi:+.4f} MHz")
    return 0


def cmd_fit(args, config, meta) -> int:
    fit_cfg = config["fit"]
    if fit_cfg["forward"] not in ("single-loop", "coupled"):
        raise ConfigError("fit.forward must be 'single-loop' or 'coupled', "
                          f"got {fit_cfg['forward']!r}")
    dataset = io.read_spectroscopy_csv(args.data)
    resonator = None
    if fit_cfg["forward"] == "coupled":
        circ = config["circuit"]
        resonator = {"ls": circ["ls"], "lr": circ["lr"], "cr": circ["cr"]}
    fit = fit_spectrum(dataset, resonator=resonator,
                       basis_m=fit_cfg["basis_m"],
                       n_starts=fit_cfg["n_starts"], seed=fit_cfg["seed"],
                       max_nfev=fit_cfg["max_nfev"])
    io.write_json(args.out, {"meta": meta, **io.fields(fit)})
    pstr = ", ".join(f"{k}={v:.6g}" for k, v in fit.params.items())
    print(f"fit: {pstr} (rms {fit.rms_residual_ghz * 1e3:.3f} MHz)")
    return 0


def cmd_phaseslip(args, config, meta) -> int:
    n = args.n_junctions
    if n is None:
        geom = config["geometry"]
        n = effective_junction_count(geom["wire_length_m"],
                                     geom["grain_size_m"])
    model = JunctionArrayModel(n_junctions=n, ej_grain_ghz=args.ej_ghz,
                               ec_grain_ghz=args.ec_ghz)
    rate = phase_slip_rate(model)
    if args.out:
        io.write_json(args.out, {
            "meta": meta, **io.fields(model), **io.fields(rate),
            "current_activated_above_phi0": CURRENT_ACTIVATED_BIAS_PHI0})
    print(f"phase-slip rate: {rate.rate_hz:.3e} Hz "
          f"(log10 = {rate.log10_rate_hz:.6g})")
    if rate.warning:
        print("warning: " + rate.warning, file=sys.stderr)
    return 0


def cmd_junctions(args, config, meta) -> int:
    geom = config["geometry"]
    n = effective_junction_count(geom["wire_length_m"], geom["grain_size_m"])
    if args.out:
        io.write_json(args.out, {"meta": meta, **geom, "n_junctions": n})
    print(f"effective junctions: {n}")
    return 0


def cmd_simulate_trace(args, config, meta) -> int:
    tc = config["trace"]
    trace = simulate_telegraph(tc["rate_eo_hz"], tc["rate_oe_hz"],
                               tc["duration_s"], tc["dt_s"],
                               noise_sigma=tc["noise_sigma"], seed=tc["seed"],
                               label=args.label)
    io.write_trace_csv(args.out, trace, meta=meta)
    print(f"trace: {trace.t_s.size} samples, {trace.switch_times.size} "
          f"switches -> {args.out}")
    return 0


def cmd_analyze_trace(args, config, meta) -> int:
    trace = io.read_trace_csv(args.trace)
    events = detect_jumps(trace,
                          threshold_in_mads=config["trace"]["threshold_mads"],
                          window=config["trace"]["window"])
    stats = estimate_lifetime(events, trace.span_s)
    io.write_dwell_json(args.out, stats, events=events, meta=meta)
    print(f"analyze: {stats.n_events} events, lambda = "
          f"{stats.rate_hz:.3e} Hz "
          f"[{stats.ci_low_hz:.3e}, {stats.ci_high_hz:.3e}]")
    return 0


def cmd_coincidence(args, config, meta) -> int:
    if len(args.traces) < 2:
        raise ConfigError("coincidence needs at least two traces")
    traces = [io.read_trace_csv(p) for p in args.traces]
    spans = [tr.span_s for tr in traces]
    span = (max(s[0] for s in spans), min(s[1] for s in spans))
    event_lists = [detect_jumps(
        tr, threshold_in_mads=config["trace"]["threshold_mads"],
        window=config["trace"]["window"]) for tr in traces]
    result = coincidence_analysis(event_lists, args.window, span)
    io.write_json(args.out, {"meta": meta, **io.fields(result),
                             "traces": [str(p) for p in args.traces]})
    for p in result.pairs:
        ratio = "n/a" if p.excess_ratio is None else f"{p.excess_ratio:.3f}"
        print(f"pair ({p.trace_a},{p.trace_b}): observed {p.observed}, "
              f"expected {p.expected:.2f}, excess {ratio}")
    return 0


def cmd_decay_fit(args, config, meta) -> int:
    fit = fit_decay(io.read_decay_csv(args.data, args.kind))
    io.write_json(args.out, {"meta": meta, **io.fields(fit)})
    names = {"exponential": "T1", "ramsey": "T2*", "echo": "T2"}
    print(f"{names[fit.kind]} = {fit.tau:.4g} +- {fit.tau_stderr:.2g} us")
    return 0


def cmd_parabola_fit(args, config, meta) -> int:
    fit = fit_parabola(*io.read_columns(args.data, io.PARABOLA_COLUMNS))
    io.write_json(args.out, {"meta": meta, **io.fields(fit)})
    print(f"parabola: f_max = {fit.f_max:.6f} GHz at "
          f"B = {fit.b_offset:.4g} uT, curvature {fit.curvature:.4g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradflux",
        description="Gradiometric fluxonium spectra, fits, and fluxon "
                    "trace analysis")
    parser.add_argument("--version", action="version",
                        version=f"gradflux {__version__}")
    parser.set_defaults(config=None, companion=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand but junctions reads an INI file
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="INI configuration file")
    configured = functools.partial(sub.add_parser, parents=[config])

    p = configured("sweep", help="flux sweep of transitions and chi")
    p.add_argument("--start", dest="sweep.start")
    p.add_argument("--stop", dest="sweep.stop")
    p.add_argument("--points", dest="sweep.points")
    p.add_argument("--transitions", dest="sweep.transitions",
                   help="comma list, e.g. f01,f02,fr")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any per-point error")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep, companion=True)

    p = configured("chi", help="dispersive shift at one flux bias")
    p.add_argument("--flux", type=float, default=0.5)
    p.add_argument("--ladder", default=None,
                   help="basis ladder, e.g. 25x15,40x25,70x50")
    p.add_argument("--out", default=None, help="output JSON path")
    p.set_defaults(func=cmd_chi)

    p = configured("fit", help="fit circuit parameters to spectroscopy")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--forward", dest="fit.forward",
                   help="single-loop or coupled")
    p.add_argument("--starts", dest="fit.n_starts")
    p.add_argument("--seed", dest="fit.seed")
    p.add_argument("--basis-m", dest="fit.basis_m",
                   help="Fock states of the single-loop model; the coupled "
                        "model uses a fixed 20x8 basis")
    p.set_defaults(func=cmd_fit)

    p = configured("phaseslip", help="junction-array phase-slip rate")
    p.add_argument("--n-junctions", type=int, default=None)
    p.add_argument("--ej-ghz", type=float, default=DEVICE_ARRAY.ej_grain_ghz)
    p.add_argument("--ec-ghz", type=float, default=DEVICE_ARRAY.ec_grain_ghz)
    p.add_argument("--wire-length-m", dest="geometry.wire_length_m")
    p.add_argument("--grain-size-m", dest="geometry.grain_size_m")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phaseslip)

    p = sub.add_parser("junctions", help="effective junction count")
    p.add_argument("--wire-length-m", dest="geometry.wire_length_m",
                   required=True)
    p.add_argument("--grain-size-m", dest="geometry.grain_size_m",
                   required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_junctions)

    p = configured("simulate-trace", help="synthetic telegraph trace")
    p.add_argument("--rate-eo", dest="trace.rate_eo_hz")
    p.add_argument("--rate-oe", dest="trace.rate_oe_hz")
    p.add_argument("--duration", dest="trace.duration_s")
    p.add_argument("--dt", dest="trace.dt_s")
    p.add_argument("--noise", dest="trace.noise_sigma")
    p.add_argument("--seed", dest="trace.seed")
    p.add_argument("--label", default="")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate_trace, companion=True)

    p = configured("analyze-trace", help="detect jumps, estimate rate")
    p.add_argument("--trace", required=True, help="trace CSV")
    p.add_argument("--threshold", dest="trace.threshold_mads")
    p.add_argument("--window", dest="trace.window")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_analyze_trace)

    p = configured("coincidence", help="pairwise event coincidences")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coincidence)

    p = configured("decay-fit", help="fit T1/Ramsey/echo curve")
    p.add_argument("--data", required=True, help="curve CSV (t_us,inversion)")
    p.add_argument("--kind", choices=("exponential", "ramsey", "echo"),
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decay_fit)

    p = configured("parabola-fit", help="fit kinetic-inductance parabola")
    p.add_argument("--data", required=True, help="curve CSV (b_ut,freq_GHz)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_parabola_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        for dest, raw in vars(args).items():
            section, dot, key = dest.partition(".")
            if dot and raw is not None:
                config[section][key] = _cast(section, key, raw)
        _check_out(args)
        return args.func(args, config, build_meta(args.command, config))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, LabelError, SolverError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
