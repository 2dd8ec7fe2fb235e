"""File formats: sweep tables, spectroscopy datasets, traces, fit reports.

All files carry units in their headers and embed the resolved configuration
and tool version in their metadata, so any output can be reproduced
bit-identically from the file alone (given the same seed). CSV files start
with '#'-prefixed metadata comment lines; JSON files keep metadata under a
"meta" key. No timestamps anywhere, by design.
"""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .estimation import (DEFAULT_SIGMA_GHZ, DecayCurve, FitResult,
                         SpectroscopyDataset)
from .fluxon import (CoincidenceResult, DwellStats, JunctionArrayModel,
                     PhaseSlipRate, TimeTrace)
from .spectrum import SweepPoint

SWEEP_COLUMNS = ("flux_phi0", "transition", "freq_GHz", "chi_MHz",
                 "chi_valid")
DATASET_COLUMNS = ("field_or_flux", "unit", "transition", "freq_GHz",
                   "sigma_GHz")
TRACE_COLUMNS = ("t_s", "value")
DECAY_COLUMNS = ("t_us", "inversion")
PARABOLA_COLUMNS = ("b_ut", "freq_GHz")

#: JSON keys of the result fields that are written under another name.
JSON_KEYS = {
    SweepPoint: {"freq_ghz": "freq_GHz", "chi_mhz": "chi_MHz"},
    FitResult: {"rms_residual_ghz": "rms_residual_GHz",
                "residuals_ghz": "residuals_GHz",
                "history": "objective_history"},
    DwellStats: {"rate_hz": "lambda_hz"},
    JunctionArrayModel: {"ej_grain_ghz": "ej_grain_GHz",
                         "ec_grain_ghz": "ec_grain_GHz"},
    PhaseSlipRate: {"rate_hz": "rate_Hz", "log10_rate_hz": "log10_rate_Hz"},
    CoincidenceResult: {"span": "span_s"},
}


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def fields(obj) -> dict:
    """A dataclass instance's fields by their :data:`JSON_KEYS` names.

    Payloads merge the fields of one or more results with keys of their
    own, such as ``meta``.
    """
    keys = JSON_KEYS.get(type(obj), {})
    return {keys.get(f.name, f.name): getattr(obj, f.name)
            for f in dataclasses.fields(obj)}


def _sanitize(obj):
    """Make a payload json-serializable.

    Arrays become lists, numpy scalars Python numbers, and dataclass
    instances dicts of their fields, keyed as in :data:`JSON_KEYS`.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = fields(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)     # "inf" / "-inf" / "nan" as strings
    return obj


def write_json(path, payload) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_csv(path, columns, rows, meta=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta is not None:
            fh.write("# meta: " + json.dumps(_sanitize(meta),
                                             sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_csv(path, expected_columns, required=None):
    """Data rows of a CSV file whose header is ``expected_columns``, and
    the line number of each.

    '#' lines and blank rows are skipped. Every row needs at least
    ``required`` cells (default: one per column); a shorter row, like a
    file without data rows, raises ValueError naming the file and line.
    """
    if required is None:
        required = len(expected_columns)
    with open(path, newline="", encoding="utf-8") as fh:
        # comment lines read as blank rows, so line_num counts file lines
        reader = csv.reader("" if line.startswith("#") else line
                            for line in fh)
        nonblank = (row for row in reader if "".join(row).strip())
        header = next(nonblank, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        header = tuple(h.strip() for h in header)
        if header != tuple(expected_columns):
            raise ValueError(
                f"{path}: expected header {','.join(expected_columns)}, "
                f"got {','.join(header)}")
        rows, lines = [], []
        for row in nonblank:
            if len(row) < required:
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(row)} cells, "
                    f"expected at least {required}")
            rows.append(row)
            lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows, lines


def _number(path, line, cell):
    try:
        return float(cell)
    except ValueError as exc:
        raise ValueError(f"{path}, line {line}: {exc}") from None


def read_columns(path, columns) -> list:
    """One float array per column of a numeric CSV file.

    A cell that is not a finite number raises ValueError naming the file
    and line.
    """
    rows, lines = _read_csv(path, columns)
    arrays = [np.array([_number(path, line, r[k])
                        for line, r in zip(lines, rows)])
              for k in range(len(columns))]
    finite = np.logical_and.reduce([np.isfinite(a) for a in arrays])
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{path}, line {lines[i]}: non-finite number in "
                         f"{','.join(rows[i])}")
    return arrays


def write_sweep_csv(path, sweep, meta=None) -> None:
    rows = [(p.flux_phi0, p.transition, p.freq_ghz, p.chi_mhz, p.chi_valid)
            for p in sweep.points]
    _write_csv(path, SWEEP_COLUMNS, rows, meta=meta)


def write_sweep_json(path, sweep, meta=None) -> None:
    write_json(path, {"meta": meta or {}, **fields(sweep)})


def write_spectroscopy_csv(path, dataset: SpectroscopyDataset,
                           meta=None) -> None:
    rows = [(dataset.x[i], dataset.unit, dataset.transition[i],
             dataset.freq_ghz[i], dataset.sigma_ghz[i])
            for i in range(len(dataset))]
    _write_csv(path, DATASET_COLUMNS, rows, meta=meta)


def read_spectroscopy_csv(path) -> SpectroscopyDataset:
    """Load a spectroscopy dataset; missing sigmas default to 1 MHz."""
    # the sigma cell may be left out
    rows, lines = _read_csv(path, DATASET_COLUMNS, len(DATASET_COLUMNS) - 1)
    x, units, trans, freq, sigma = [], set(), [], [], []
    defaulted = False
    for line, row in zip(lines, rows):
        x.append(_number(path, line, row[0]))
        units.add(row[1].strip())
        trans.append(row[2].strip())
        freq.append(_number(path, line, row[3]))
        cell = row[4].strip() if len(row) > 4 else ""
        if cell:
            sigma.append(_number(path, line, cell))
        else:
            sigma.append(DEFAULT_SIGMA_GHZ)
            defaulted = True
    if len(units) != 1:
        raise ValueError(f"{path}: mixed units {sorted(units)}")
    return SpectroscopyDataset(x=np.array(x), transition=tuple(trans),
                               freq_ghz=np.array(freq),
                               sigma_ghz=np.array(sigma),
                               unit=units.pop(), sigma_defaulted=defaulted)


def write_trace_csv(path, trace: TimeTrace, meta=None) -> None:
    """Trace CSV plus a JSON sidecar holding units and noise scale."""
    path = Path(path)
    rows = zip(trace.t_s, trace.value)
    _write_csv(path, TRACE_COLUMNS, rows)
    sidecar = {
        "meta": meta or {},
        "units": {"t": "s", "value": "arb"},
        "noise_sigma": trace.noise_sigma,
        "label": trace.label,
    }
    write_json(path.with_suffix(".json"), sidecar)


def read_trace_csv(path) -> TimeTrace:
    path = Path(path)
    t, v = read_columns(path, TRACE_COLUMNS)
    noise = 0.0
    label = ""
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        info = read_json(sidecar)
        noise = float(info.get("noise_sigma", 0.0))
        label = str(info.get("label", ""))
    return TimeTrace(t_s=t, value=v, noise_sigma=noise, label=label)


def write_dwell_json(path, stats, events=None, meta=None) -> None:
    payload = {"meta": meta or {}, **fields(stats),
               "lifetime_s": stats.lifetime_s,
               "lifetime_lower_bound_s": stats.lifetime_lower_bound_s}
    if events is not None:
        payload["events"] = events
    write_json(path, payload)


def write_fit_json(path, fit, meta=None) -> None:
    write_json(path, {"meta": meta or {}, **fields(fit)})


def read_decay_csv(path, kind: str) -> DecayCurve:
    t, v = read_columns(path, DECAY_COLUMNS)
    return DecayCurve(t=t, value=v, kind=kind)


def write_decay_csv(path, curve: DecayCurve, meta=None) -> None:
    _write_csv(path, DECAY_COLUMNS, zip(curve.t, curve.value), meta=meta)
