"""File formats: sweep tables, spectroscopy datasets, traces, fit reports.

All files carry units in their headers and embed the resolved configuration
and tool version in their metadata, so any output can be reproduced
bit-identically from the file alone (given the same seed). CSV files start
with '#'-prefixed metadata comment lines; JSON files keep metadata under a
"meta" key. No timestamps anywhere, by design.

Every CSV reader takes its rows from one header-checking line source,
:func:`_data_lines`; numeric files are parsed from it by one
:func:`numpy.loadtxt` call. Rows are written by :mod:`csv`, floats as their
repr. JSON payloads take result fields from :func:`fields`, under the names
of :data:`JSON_KEYS`. A CSV output's JSON file sits beside it, at
:func:`companion`.
"""

import csv
import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .estimation import (DEFAULT_SIGMA_GHZ, DecayCurve, DecayFit, FitResult,
                         ParabolaFit, SpectroscopyDataset)
from .fluxon import (CoincidenceResult, DwellStats, JunctionArrayModel,
                     PhaseSlipRate, TimeTrace)
from .spectrum import DispersiveShiftResult, SweepPoint

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
    DispersiveShiftResult: {"chi_mhz": "chi_MHz"},
    FitResult: {"rms_residual_ghz": "rms_residual_GHz",
                "residuals_ghz": "residuals_GHz",
                "history": "objective_history"},
    DwellStats: {"rate_hz": "lambda_hz"},
    JunctionArrayModel: {"ej_grain_ghz": "ej_grain_GHz",
                         "ec_grain_ghz": "ec_grain_GHz"},
    PhaseSlipRate: {"rate_hz": "rate_Hz", "log10_rate_hz": "log10_rate_Hz"},
    CoincidenceResult: {"span": "span_s"},
    DecayFit: {"tau": "tau_us", "tau_stderr": "tau_stderr_us"},
    ParabolaFit: {"f_max": "f_max_GHz", "b_offset": "b_offset_uT",
                  "curvature": "curvature_GHz_per_uT2"},
}


def companion(path) -> Path:
    """The JSON file written beside the CSV file ``path``: a trace's
    sidecar, a sweep's mirror."""
    return Path(path).with_suffix(".json")


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

    Arrays become lists, numpy scalars Python scalars, and dataclass
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
    if isinstance(obj, np.generic):
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
    """Header and rows of Python scalars, by :mod:`csv`: a float is
    written as its repr, None as an empty cell, and a cell holding a comma
    is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta is not None:
            fh.write("# meta: " + json.dumps(_sanitize(meta),
                                             sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _data_lines(fh, path, columns, lines):
    """The data lines of an open CSV file whose header is ``columns``.

    '#' lines and lines of blank cells are skipped. The header is checked,
    and a data line looked for, before this returns; as each data line is
    yielded, its file line number is appended to ``lines``. A file without
    the header or without data lines raises ValueError naming it.
    """
    # a line of empty cells, such as ",", is blank too
    numbered = ((n, line) for n, line in enumerate(fh, 1)
                if not line.startswith("#") and line.strip(' \t\r\n,"'))
    header = next(numbered, None)
    if header is None:
        raise ValueError(f"{path}: empty CSV")
    header = tuple(h.strip() for h in next(csv.reader([header[1]])))
    if header != tuple(columns):
        raise ValueError(
            f"{path}: expected header {','.join(columns)}, "
            f"got {','.join(header)}")
    first = next(numbered, None)
    if first is None:
        raise ValueError(f"{path}: no data rows")
    return (lines.append(n) or line
            for n, line in itertools.chain([first], numbered))


def _number(path, line, cell, column):
    try:
        value = float(cell)
        if not np.isfinite(value):
            raise ValueError(f"column {column} must be finite, got {value}")
    except ValueError as exc:
        raise ValueError(f"{path}, line {line}: {exc}") from None
    return value


def read_columns(path, columns) -> list:
    """One float array per column of a numeric CSV file, parsed by one
    :func:`numpy.loadtxt` call over its data lines.

    Cells may be quoted and padded with spaces; cells past the last column
    are ignored. A cell that is not a finite number, a row too short, or a
    time that does not exceed the one above it raises ValueError naming
    the file and line.
    """
    lines = []
    with open(path, newline="", encoding="utf-8") as fh:
        data_lines = _data_lines(fh, path, columns, lines)
        try:
            data = np.loadtxt(data_lines, delimiter=",", comments=None,
                              quotechar='"', usecols=range(len(columns)),
                              ndmin=2)
        except ValueError as exc:
            # numpy counts rows from the first data line; name the file line
            reason = re.sub(r" at row \d+", "", str(exc))
            raise ValueError(f"{path}, line {lines[-1]}: {reason}") from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}, line {lines[i]}: column {columns[j]} "
                         f"must be finite, got {data[i, j]}")
    t = data[:, 0]      # the sample times, in a trace or decay file
    back = np.flatnonzero(np.diff(t) <= 0) + 1
    if columns in (TRACE_COLUMNS, DECAY_COLUMNS) and back.size:
        i = back[0]
        raise ValueError(f"{path}, line {lines[i]}: column {columns[0]} must "
                         f"be strictly increasing, got {t[i - 1]} then {t[i]}")
    return list(data.T.copy())


def write_sweep_csv(path, sweep, meta=None) -> None:
    """Sweep rows as CSV, plus the whole result as its JSON mirror at
    :func:`companion`."""
    rows = [(p.flux_phi0, p.transition, p.freq_ghz, p.chi_mhz,
             "true" if p.chi_valid else "false") for p in sweep.points]
    _write_csv(path, SWEEP_COLUMNS, rows, meta=meta)
    write_json(companion(path), {"meta": meta or {}, **fields(sweep)})


def write_spectroscopy_csv(path, dataset: SpectroscopyDataset,
                           meta=None) -> None:
    rows = zip(dataset.x.tolist(), itertools.repeat(dataset.unit),
               dataset.transition, dataset.freq_ghz.tolist(),
               dataset.sigma_ghz.tolist())
    _write_csv(path, DATASET_COLUMNS, rows, meta=meta)


def read_spectroscopy_csv(path) -> SpectroscopyDataset:
    """Load a spectroscopy dataset; missing sigmas default to 1 MHz."""
    lines = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(_data_lines(fh, path, DATASET_COLUMNS,
                                           lines)))
    required = len(DATASET_COLUMNS) - 1      # the sigma cell may be left out
    x, units, trans, freq, sigma = [], set(), [], [], []
    defaulted = False
    for line, row in zip(lines, rows):
        if len(row) < required:
            raise ValueError(f"{path}, line {line}: {len(row)} cells, "
                             f"expected at least {required}")
        x.append(_number(path, line, row[0], "x"))
        units.add(row[1].strip())
        trans.append(row[2].strip())
        freq.append(_number(path, line, row[3], "freq_ghz"))
        cell = row[4].strip() if len(row) > 4 else ""
        if cell:
            sigma.append(_number(path, line, cell, "sigma_ghz"))
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
    """Trace CSV plus a JSON sidecar at :func:`companion` holding units,
    noise scale and label."""
    _write_csv(path, TRACE_COLUMNS,
               zip(trace.t_s.tolist(), trace.value.tolist()))
    sidecar = {
        "meta": meta or {},
        "units": {"t": "s", "value": "arb"},
        "noise_sigma": trace.noise_sigma,
        "label": trace.label,
    }
    write_json(companion(path), sidecar)


def read_trace_csv(path) -> TimeTrace:
    """A trace CSV's samples, as measured data: the sidecar is not read,
    so its noise scale and label stay at their defaults."""
    return TimeTrace(*read_columns(path, TRACE_COLUMNS))


def write_dwell_json(path, stats, events, meta=None) -> None:
    write_json(path, {"meta": meta or {}, **fields(stats),
                      "lifetime_s": stats.lifetime_s,
                      "lifetime_lower_bound_s": stats.lifetime_lower_bound_s,
                      "events": events})


def read_decay_csv(path, kind: str) -> DecayCurve:
    t, v = read_columns(path, DECAY_COLUMNS)
    return DecayCurve(t=t, value=v, kind=kind)


def write_decay_csv(path, curve: DecayCurve, meta=None) -> None:
    _write_csv(path, DECAY_COLUMNS,
               zip(curve.t.tolist(), curve.value.tolist()), meta=meta)
