"""Gradiometric fluxonium modeling toolkit.

Circuit reduction, coupled qubit-resonator spectra, spectroscopy fits,
junction-array phase-slip rates, and fluxon-escape trace statistics.
"""

__version__ = "0.1.0"

from .circuit import (BranchCircuit, CircuitError, DEVICE_GEOMETRY,
                      EffectiveFluxonium, LoopFluxes, LoopGeometry,
                      TrappedFluxState, balanced_branch_circuit,
                      effective_flux, field_suppression_factor,
                      flux_from_field, initialization_parity, reduce_circuit)
from .estimation import (DecayCurve, DecayFit, FitError, FitResult,
                         ParabolaFit, SharedInductanceFit,
                         SpectroscopyDataset, fit_decay, fit_parabola,
                         fit_shared_inductance, fit_spectrum, initial_guess,
                         single_loop_transitions)
from .fluxon import (DEVICE_ARRAY, CoincidenceResult, DwellStats, JumpEvent,
                     JunctionArrayModel, PhaseSlipRate, TimeTrace,
                     coincidence_analysis, detect_jumps,
                     effective_junction_count, estimate_lifetime,
                     phase_slip_rate, simulate_telegraph)
from .spectrum import (DEFAULT_BASIS, DispersiveShiftResult, FockBasisSpec,
                       HamiltonianMatrix, LabelError, SolverError,
                       SpectrumResult, SweepResult, build_hamiltonian,
                       convergence_report, diagonalize_labeled,
                       dispersive_shift, flux_sweep, parse_transition,
                       transition_frequency)
from .units import EC_GHZ_FF, EL_GHZ_NH, PHI0

__all__ = [name for name in dir() if not name.startswith("_")]
