"""Every public entry that takes numbers from its caller rejects NaN and
+-inf with a typed error that names the input, never a non-finite result;
an array input's message also names its first bad entry."""

import numpy as np
import pytest

from gradflux import (DecayCurve, FockBasisSpec, HamiltonianMatrix,
                      LoopGeometry, SolverError, SpectroscopyDataset,
                      balanced_branch_circuit, coincidence_analysis,
                      convergence_report, dispersive_shift,
                      estimate_lifetime, field_suppression_factor,
                      fit_parabola, fit_shared_inductance, flux_sweep,
                      reduce_circuit, single_loop_transitions)
from gradflux.fluxon import TimeTrace
from gradflux.spectrum import fold_flux, solve_hermitian
from gradflux.units import require_finite

T = np.arange(6.0)
DEVICE = dict(ls=2.8, lr=21.6, cr=20.2, cj=3.4, ej=5.1)
EFF = reduce_circuit(balanced_branch_circuit(lq_eff=172.0, **DEVICE))


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


# (entry and input, the call with the bad value x, error type, message);
# a message ending in "got {bad}$" names the bad value of an array input
ROWS = {
    "estimate_lifetime-events": (
        lambda x: estimate_lifetime([1.0, x], (0.0, 10.0)),
        ValueError, "event times must be finite, got {bad}$"),
    "estimate_lifetime-span_end": (
        lambda x: estimate_lifetime([1.0], (0.0, x)),
        ValueError, "span must be finite"),
    "estimate_lifetime-span_start": (
        lambda x: estimate_lifetime([1.0], (x, 10.0)),
        ValueError, "span must be finite"),
    "coincidence_analysis-events": (
        lambda x: coincidence_analysis([[1.0, x], [2.0]], 0.5, (0.0, 10.0)),
        ValueError, "event times must be finite, got {bad}$"),
    "coincidence_analysis-span_end": (
        lambda x: coincidence_analysis([[1.0], [2.0]], 0.5, (0.0, x)),
        ValueError, "span must be finite"),
    "fit_parabola-b": (
        lambda x: fit_parabola(with_bad(T, x), -T ** 2),
        ValueError, "b must be finite, got {bad}$"),
    "fit_parabola-f": (
        lambda x: fit_parabola(T, with_bad(-T ** 2, x)),
        ValueError, "f must be finite, got {bad}$"),
    "DecayCurve-t": (
        lambda x: DecayCurve(t=with_bad(T, x), value=np.exp(-T)),
        ValueError, "curve column t must be finite, got {bad}$"),
    "DecayCurve-value": (
        lambda x: DecayCurve(t=T, value=with_bad(np.exp(-T), x)),
        ValueError, "curve column value must be finite, got {bad}$"),
    "single_loop_transitions-lq": (
        lambda x: single_loop_transitions(x, 3.4, 5.1, [0.3, 0.5], m=6),
        ValueError, "^lq must be finite"),
    "single_loop_transitions-cj": (
        lambda x: single_loop_transitions(172.0, x, 5.1, [0.3, 0.5], m=6),
        ValueError, "^cj must be finite"),
    "single_loop_transitions-ej": (
        lambda x: single_loop_transitions(172.0, 3.4, x, [0.3, 0.5], m=6),
        ValueError, "^ej must be finite"),
    "single_loop_transitions-flux": (
        lambda x: single_loop_transitions(172.0, 3.4, 5.1, [0.3, x], m=6),
        ValueError, "fluxes must be finite, got {bad}$"),
    "solve_hermitian-diagonal": (
        lambda x: solve_hermitian(hamiltonian(
            diagonal=with_bad(np.ones(12), x, 0)), 2),
        SolverError, r"\[dim=12, non-finite entries in factors=1\]$"),
    "solve_hermitian-coupling": (
        lambda x: solve_hermitian(hamiltonian(
            coupling=with_bad(np.zeros((4, 4)), x, (1, 2))), 12),
        SolverError, r"\[dim=12, non-finite entries in factors=1\]$"),
    "balanced_branch_circuit-lq_eff": (
        lambda x: balanced_branch_circuit(lq_eff=x, **DEVICE),
        ValueError, "^lq_eff must be finite"),
    "LoopGeometry-outer_area_m2": (
        LoopGeometry,
        ValueError, "^outer_area_m2 must be finite"),
    "field_suppression_factor-alpha": (
        field_suppression_factor,
        ValueError, "^alpha must be finite"),
    "fit_shared_inductance-chi_measured_mhz": (
        lambda x: fit_shared_inductance(x, lq_nh=172.0, cj_ff=3.4,
                                        ej_ghz=5.1, cr_ff=20.2, lr_nh=21.6),
        ValueError, "^chi_measured_mhz must be finite"),
    "dispersive_shift-min_confidence": (
        lambda x: dispersive_shift(EFF, 0.5, min_confidence=x),
        ValueError, "^min_confidence must be finite"),
    "flux_sweep-min_confidence": (
        lambda x: flux_sweep(EFF, [0.5], min_confidence=x),
        ValueError, "^min_confidence must be finite"),
    "convergence_report-min_confidence": (
        lambda x: convergence_report(EFF, 0.5, [(8, 4)], min_confidence=x),
        ValueError, "^min_confidence must be finite"),
    "fold_flux": (
        lambda x: fold_flux([0.3, x]),
        ValueError, "fluxes must be finite, got {bad}$"),
    "TimeTrace-t_s": (
        lambda x: TimeTrace(t_s=with_bad(T, x), value=np.zeros(6)),
        ValueError, "trace times must be finite, got {bad}$"),
    "TimeTrace-value": (
        lambda x: TimeTrace(t_s=T, value=with_bad(np.zeros(6), x)),
        ValueError, "trace values must be finite, got {bad}$"),
    "SpectroscopyDataset-x": (
        lambda x: dataset("x", x),
        ValueError, "dataset column x must be finite, got {bad}$"),
    "SpectroscopyDataset-freq_ghz": (
        lambda x: dataset("freq_ghz", x),
        ValueError,
        "dataset column freq_ghz must be finite and > 0, got {bad}$"),
    "SpectroscopyDataset-sigma_ghz": (
        lambda x: dataset("sigma_ghz", x),
        ValueError,
        "dataset column sigma_ghz must be finite and > 0, got {bad}$"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", ROWS)
def test_non_finite_input_rejected(row, bad):
    call, error, message = ROWS[row]
    with pytest.raises(error, match=message.format(bad=bad)):
        call(bad)


@pytest.mark.parametrize("column, bad", [("freq_ghz", 0.0),
                                         ("sigma_ghz", -1.0)])
def test_dataset_frequencies_and_sigmas_must_be_positive(column, bad):
    with pytest.raises(ValueError, match=rf"^dataset column {column} must be "
                                         rf"finite and > 0, got {bad}$"):
        dataset(column, bad)


@pytest.mark.parametrize("value, bound, got", [
    ([1.0, np.nan, -np.inf], "", "nan"),
    ([1.0, -np.inf, np.nan], "", "-inf"),
    ([2.0, 0.0, -1.0], ">", "0.0"),
    ([2.0, 0.0, -1.0], ">=", "-1.0"),
    ([[1.0, 2.0], [np.inf, 0.0]], ">", "inf"),
], ids=["nan-first", "-inf-first", "zero", "negative", "2d"])
def test_require_finite_names_the_first_offending_entry(value, bound, got):
    with pytest.raises(ValueError, match=rf", got {got}$"):
        require_finite("v", np.array(value), bound)
