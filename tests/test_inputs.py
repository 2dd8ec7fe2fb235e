"""Every public entry that takes numbers from its caller rejects NaN and
+-inf with a typed error that names the input, never a non-finite result."""

import numpy as np
import pytest

from gradflux import (DecayCurve, FockBasisSpec, HamiltonianMatrix,
                      SolverError, SpectroscopyDataset, coincidence_analysis,
                      estimate_lifetime, fit_parabola,
                      single_loop_transitions)
from gradflux.fluxon import TimeTrace
from gradflux.spectrum import fold_flux, solve_hermitian

T = np.arange(6.0)


def with_bad(x, bad, at=-1):
    """A float copy of ``x`` with ``bad`` at index ``at``."""
    x = np.array(x, dtype=float)
    x[at] = bad
    return x


def hamiltonian(diagonal=np.ones(12), coupling=np.zeros((4, 4))):
    return HamiltonianMatrix(diagonal=diagonal, coupling=coupling,
                             basis=FockBasisSpec(4, 3),
                             qubit_vectors=np.eye(4))


def dataset(column, bad):
    cols = dict(x=np.linspace(0.1, 0.4, 4), freq_ghz=np.full(4, 2.0),
                sigma_ghz=np.full(4, 1e-3))
    cols[column] = with_bad(cols[column], bad)
    return SpectroscopyDataset(transition=("f01",) * 4, **cols)


# (entry and input, the call with the bad value x, error type, message)
ROWS = {
    "estimate_lifetime-events": (
        lambda x: estimate_lifetime([1.0, x], (0.0, 10.0)),
        ValueError, "event times must be finite"),
    "estimate_lifetime-span_end": (
        lambda x: estimate_lifetime([1.0], (0.0, x)),
        ValueError, "span must be finite"),
    "estimate_lifetime-span_start": (
        lambda x: estimate_lifetime([1.0], (x, 10.0)),
        ValueError, "span must be finite"),
    "coincidence_analysis-events": (
        lambda x: coincidence_analysis([[1.0, x], [2.0]], 0.5, (0.0, 10.0)),
        ValueError, "event times must be finite"),
    "coincidence_analysis-span_end": (
        lambda x: coincidence_analysis([[1.0], [2.0]], 0.5, (0.0, x)),
        ValueError, "span must be finite"),
    "fit_parabola-b": (
        lambda x: fit_parabola(with_bad(T, x), -T ** 2),
        ValueError, "b must be finite"),
    "fit_parabola-f": (
        lambda x: fit_parabola(T, with_bad(-T ** 2, x)),
        ValueError, "f must be finite"),
    "DecayCurve-t": (
        lambda x: DecayCurve(t=with_bad(T, x), value=np.exp(-T)),
        ValueError, "curve column t must be finite"),
    "DecayCurve-value": (
        lambda x: DecayCurve(t=T, value=with_bad(np.exp(-T), x)),
        ValueError, "curve column value must be finite"),
    "single_loop_transitions-ej": (
        lambda x: single_loop_transitions(172.0, 3.4, x, [0.3, 0.5], m=6),
        SolverError, r"\[dim=6, non-finite entries in stack=72\]$"),
    "single_loop_transitions-flux": (
        lambda x: single_loop_transitions(172.0, 3.4, 5.1, [0.3, x], m=6),
        ValueError, "fluxes must be finite"),
    "solve_hermitian-diagonal": (
        lambda x: solve_hermitian(hamiltonian(
            diagonal=with_bad(np.ones(12), x, 0)), 2),
        SolverError, r"\[dim=12, non-finite entries in factors=1\]$"),
    "solve_hermitian-coupling": (
        lambda x: solve_hermitian(hamiltonian(
            coupling=with_bad(np.zeros((4, 4)), x, (1, 2))), 12),
        SolverError, r"\[dim=12, non-finite entries in factors=1\]$"),
    "fold_flux": (
        lambda x: fold_flux([0.3, x]),
        ValueError, "fluxes must be finite"),
    "TimeTrace-t_s": (
        lambda x: TimeTrace(t_s=with_bad(T, x), value=np.zeros(6)),
        ValueError, "trace times must be finite"),
    "TimeTrace-value": (
        lambda x: TimeTrace(t_s=T, value=with_bad(np.zeros(6), x)),
        ValueError, "trace values must be finite"),
    "SpectroscopyDataset-x": (
        lambda x: dataset("x", x),
        ValueError, "dataset column x must be finite"),
    "SpectroscopyDataset-freq_ghz": (
        lambda x: dataset("freq_ghz", x),
        ValueError, "dataset column freq_ghz must be finite"),
    "SpectroscopyDataset-sigma_ghz": (
        lambda x: dataset("sigma_ghz", x),
        ValueError, "dataset column sigma_ghz must be finite"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", ROWS)
def test_non_finite_input_rejected(row, bad):
    call, error, message = ROWS[row]
    with pytest.raises(error, match=message):
        call(bad)
