"""Two-mode qubit-resonator spectra in a truncated product basis.

The coupled Hamiltonian, with energies expressed as frequencies (GHz) and
phases dimensionless, is

    H = 4 E_Cr n_r^2 + E_Lr phi_r^2 / 2          (readout mode)
      + 4 E_Cq n_q^2 + E_Lq phi_q^2 / 2          (fluxonium mode)
      - E_J cos(phi_q + 2 pi phi_ext)            (junction, flux-biased)
      - E_Lrq phi_r phi_q / 2                    (inductive coupling)

with E_C = e^2/2C and E_L = (Phi_0/2pi)^2/L for each mode, and
E_Lrq = (Phi_0/2pi)^2 / L_rq for the coupling. The fluxonium is first
expanded in the Fock basis of its own harmonic part; the cosine is
evaluated by diagonalizing the truncated phase operator, applying the
cosine to its eigenvalues and rotating back, which avoids
series-truncation artifacts. The two-mode matrix is then written in the
basis of uncoupled fluxonium eigenstates x resonator Fock states, where
everything but the coupling is diagonal: H = diag(e_q (+) k f_r) - g phi_q
(x) X_n, kept as those factors.

:func:`solve_hermitian`, the one eigensolver entry, takes those factors
and picks the method: dense for full solves and up to a measured dimension
crossover, above it matrix-free Lanczos for the lowest levels (ARPACK's
implicitly restarted Lanczos through :func:`scipy.sparse.linalg.eigsh`,
applying H as the structured product above, so no dim^2 array is formed).

Eigenvalues are reported relative to the harmonic zero-point energy, so two
uncoupled linear modes give exactly n*f_r + m*f_q.

One builder, :func:`qubit_hamiltonians`, supplies the fluxonium here and
in the spectroscopy forward model of :mod:`gradflux.estimation`.

Dressed levels get one exclusive labeling, by :func:`diagonalize_labeled`
for full and subset (``n_lowest``) solves alike: each level takes the
|n_r m_q> label of the basis state (uncoupled fluxonium eigenstate x
resonator Fock state) with its largest squared eigenvector component, and
of two levels claiming one label only the higher-overlap one keeps it. A
label no solved level keeps counts as overlap 0. Near avoided crossings
the overlap drops and label-dependent quantities (transition frequencies,
dispersive shift) are flagged invalid below a configurable confidence.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .circuit import EffectiveFluxonium
from .units import EL_GHZ_NH, mode_frequency, phase_zpf


class SolverError(RuntimeError):
    """Eigensolver failure (dense or Lanczos), naming the dimension and the
    non-finite entries counted in the Hamiltonian's factors."""


class LabelError(RuntimeError):
    """A requested |n_r m_q> label could not be resolved confidently."""

    def __init__(self, message, label=None, confidence=None):
        super().__init__(message)
        self.label = label
        self.confidence = confidence


@dataclass(frozen=True)
class FockBasisSpec:
    """Truncation: m_qubit fluxonium Fock states, whose eigenstates are all
    kept, and n_res resonator Fock states."""

    m_qubit: int
    n_res: int

    def __post_init__(self):
        if self.m_qubit < 2 or self.n_res < 2:
            raise ValueError("need at least 2 Fock states per mode")

    @property
    def dim(self) -> int:
        return self.m_qubit * self.n_res


#: Default truncation: 25 qubit and 15 resonator Fock states.
DEFAULT_BASIS = FockBasisSpec(25, 15)

#: Levels solved for chi, sweeps and convergence rungs: enough, because the
#: (0,0), (1,0), (0,1) and (1,1) levels sit at the bottom of the spectrum
#: for the device regime.
N_LOWEST = 80

#: Largest dimension whose lowest-N_LOWEST solve stays dense; above it the
#: matrix-free Lanczos solve runs. Measured crossover (device circuit,
#: phi = 0.5, 1-2 BLAS threads):
#:
#:     dim    dense subset eigh   Lanczos
#:     375    20 ms               40-46 ms
#:     1000   120-130 ms          90-140 ms    (break-even)
#:     2000   0.55-0.83 s         0.28-0.34 s
#:     3500   2.2-3.7 s           0.57-0.82 s
DENSE_MAX_DIM = 1000

#: Default label overlap below which chi and transitions are flagged.
MIN_CONFIDENCE = 0.7


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real-symmetric two-mode Hamiltonian, held as its factors.

    H = diag(diagonal) - coupling (x) X_n, with X_n the resonator phase
    quadrature and ``coupling`` = g phi_q the symmetric m x m qubit factor.
    The basis is uncoupled fluxonium eigenstates x resonator Fock states,
    qubit-major: composite index k = i_q * n_res + i_r, where i_q counts
    the fluxonium eigenstates at the bias flux upwards. Entries are in GHz.
    ``shape`` and ``matvec`` make it a matrix-free linear operator for the
    Lanczos solve; ``matrix`` assembles the dense array on demand.
    """

    diagonal: np.ndarray
    coupling: np.ndarray
    basis: FockBasisSpec

    @property
    def shape(self) -> tuple:
        return (self.basis.dim, self.basis.dim)

    @property
    def matrix(self) -> np.ndarray:
        """Dense dim x dim array, exactly symmetric."""
        h = np.kron(-self.coupling, _phase_quadrature(self.basis.n_res))
        h.flat[::self.basis.dim + 1] += self.diagonal
        return h

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x at O(m^2 n + m n^2), without forming H."""
        x = np.ravel(x)
        y = self.coupling @ x.reshape(self.basis.m_qubit, self.basis.n_res)
        return (self.diagonal * x
                - (y @ _phase_quadrature(self.basis.n_res)).ravel())


def _phase_quadrature(n):
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    return a + a.T


def qubit_hamiltonians(lq: float, cj: float, ej: float, phis,
                       m: int) -> np.ndarray:
    """Fluxonium Hamiltonians (n_flux x m x m, GHz) in harmonic Fock bases.

    The cosine is evaluated exactly on the truncated phase operator: the
    tridiagonal phi matrix is diagonalized once, cos(theta + 2 pi phi) is
    applied to its eigenvalues for every flux in ``phis``, and the stack is
    rotated back in one contraction. Symmetric up to rounding.
    """
    if lq <= 0 or cj <= 0:
        raise ValueError("inductance and capacitance must be positive")
    if m < 2:
        raise ValueError("need at least 2 Fock states")
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    theta, v = np.linalg.eigh(phase_zpf(lq, cj) * _phase_quadrature(m))
    cos_stack = np.einsum("ik,pk,jk->pij", v,
                          np.cos(theta[None, :] + 2.0 * np.pi * phis[:, None]),
                          v, optimize=True)
    return np.diag(mode_frequency(lq, cj) * np.arange(m)) - ej * cos_stack


def build_hamiltonian(eff: EffectiveFluxonium, phi_eff: float,
                      basis: FockBasisSpec = DEFAULT_BASIS) -> HamiltonianMatrix:
    """Factor the two-mode Hamiltonian at a given effective flux.

    The fluxonium is diagonalized once; its eigenenergies and the resonator
    ladder make the diagonal, and the coupling is a product of symmetric
    factors, so the matrix is exactly symmetric.
    """
    if not math.isfinite(phi_eff):
        raise ValueError("phi_eff must be finite")
    m, n = basis.m_qubit, basis.n_res
    e_q, u_q = np.linalg.eigh(
        qubit_hamiltonians(eff.lq, eff.cj, eff.ej, phi_eff, m)[0])
    phi_q = u_q.T @ _phase_quadrature(m) @ u_q
    g = (0.5 * (EL_GHZ_NH / eff.lrq) * phase_zpf(eff.lq, eff.cj)
         * phase_zpf(eff.lr, eff.cr))
    f_r = float(mode_frequency(eff.lr, eff.cr))
    return HamiltonianMatrix(
        diagonal=np.add.outer(e_q, f_r * np.arange(n)).ravel(),
        coupling=g * (0.5 * (phi_q + phi_q.T)), basis=basis)


def hermiticity_defect(matrix: np.ndarray) -> float:
    """max|H - H^dag| normalized by max|H|; zero for exactly symmetric H."""
    scale = np.abs(matrix).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(matrix - matrix.conj().T).max() / scale)


def solve_hermitian(h: HamiltonianMatrix, lowest: int | None = None):
    """Ascending eigenvalues and eigenvectors of the two-mode Hamiltonian.

    The one place that picks the eigensolver: a full dense ``eigh`` of
    ``h.matrix`` when ``lowest`` is None or not below the dimension, the
    dense subset driver for the lowest ``lowest`` pairs up to
    :data:`DENSE_MAX_DIM`, and above it ARPACK Lanczos on ``h.matvec`` from
    a fixed start vector to machine precision, so reruns repeat. Non-finite
    factors and solver failures raise :class:`SolverError`.
    """
    dim = h.basis.dim
    nonfinite = sum(int(np.count_nonzero(~np.isfinite(x)))
                    for x in (h.diagonal, h.coupling))
    try:
        if nonfinite:
            raise ValueError("factors must not contain infs or NaNs")
        if lowest is None or lowest >= dim:
            return np.linalg.eigh(h.matrix)
        if dim <= DENSE_MAX_DIM:
            return sla.eigh(h.matrix, subset_by_index=(0, lowest - 1))
        op = spla.LinearOperator(h.shape, matvec=h.matvec, dtype=float)
        return spla.eigsh(op, k=lowest, which="SA", v0=np.ones(dim), tol=0)
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError,
            spla.ArpackError) as exc:
        raise SolverError(f"eigensolver failed: {exc} [dim={dim}, "
                          f"non-finite entries in factors={nonfinite}]"
                          ) from exc


@dataclass(frozen=True)
class SpectrumResult:
    """Labeled spectrum of the coupled system.

    ``index_of`` maps each retained (n_r, m_q) product label to its level
    index; a label two levels claim is kept by the one with larger overlap.
    ``confidence[j]`` is level j's squared overlap with its best-matching
    uncoupled product state.
    """

    energies: np.ndarray
    confidence: np.ndarray
    index_of: dict

    def energy(self, label, min_confidence: float = 0.0) -> float:
        label = tuple(label)
        if label not in self.index_of:
            raise LabelError(f"label {label} not retained in spectrum",
                             label=label)
        j = self.index_of[label]
        if self.confidence[j] < min_confidence:
            raise LabelError(
                f"label {label} resolved with overlap "
                f"{self.confidence[j]:.3f} < {min_confidence:.3f} "
                "(near an avoided crossing)",
                label=label, confidence=float(self.confidence[j]))
        return float(self.energies[j])


def diagonalize_labeled(h: HamiltonianMatrix,
                        n_lowest: int | None = None) -> SpectrumResult:
    """Ascending spectrum with |n_r m_q> labels by maximal overlap.

    ``n_lowest`` restricts the solve to the lowest levels (all by default);
    :func:`solve_hermitian` picks the dense or Lanczos method.
    The basis states (uncoupled fluxonium eigenstates x resonator Fock
    states) are the unit vectors, so a level's squared overlaps are its
    squared eigenvector components, and it claims the label of the largest;
    when two levels claim the same label (possible near avoided crossings)
    only the higher-overlap claimant retains it.
    """
    w, v = solve_hermitian(h, n_lowest)
    ov = v ** 2
    best = np.argmax(ov, axis=0)               # per level: best basis index
    conf = ov[best, np.arange(w.size)]
    index_of = {}
    for j in range(w.size):
        mq, nr = divmod(int(best[j]), h.basis.n_res)
        prev = index_of.get((nr, mq))
        if prev is None or conf[j] > conf[prev]:
            index_of[(nr, mq)] = j
    return SpectrumResult(energies=w, confidence=conf, index_of=index_of)


def parse_transition(name):
    """Map a transition name to a ((n_r, m_q), (n_r, m_q)) label pair.

    Accepts qubit transitions like "f01"/"f12", the readout "fr", or an
    explicit pair of labels.
    """
    if isinstance(name, str):
        if name == "fr":
            return (0, 0), (1, 0)
        if len(name) == 3 and name[0] == "f" and name[1:].isdigit():
            return (0, int(name[1])), (0, int(name[2]))
        raise ValueError(f"unknown transition name {name!r}")
    pair = tuple(tuple(lbl) for lbl in name)
    if len(pair) != 2 or any(len(lbl) != 2 for lbl in pair):
        raise ValueError(f"transition must be a pair of (n_r, m_q) labels, "
                         f"got {name!r}")
    return pair


def transition_frequency(spec: SpectrumResult, from_label, to_label,
                         min_confidence: float = MIN_CONFIDENCE) -> float:
    """Energy difference E(to) - E(from) in GHz between labeled levels."""
    e0 = spec.energy(from_label, min_confidence)
    e1 = spec.energy(to_label, min_confidence)
    return e1 - e0


@dataclass(frozen=True)
class DispersiveShiftResult:
    """Qubit-state-dependent pull of the readout mode at one flux point.

    chi_mhz = [E(1,1) - E(0,1)] - [E(1,0) - E(0,0)] in MHz, i.e. the full
    change of the resonator frequency when the qubit is excited. Invalid
    (chi_mhz None) inside avoided-crossing exclusion zones where the label
    overlap drops below the confidence threshold; ``reason`` then says why.
    """

    chi_mhz: float | None
    valid: bool
    min_overlap: float
    reason: str | None = None


def _chi_from_levels(spec: SpectrumResult,
                     min_confidence: float) -> DispersiveShiftResult:
    levels = [spec.index_of.get(label)
              for label in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    worst = min(0.0 if j is None else float(spec.confidence[j])
                for j in levels)
    if None in levels or worst < min_confidence:
        return DispersiveShiftResult(chi_mhz=None, valid=False,
                                     min_overlap=worst,
                                     reason="avoided-crossing exclusion zone")
    e00, e10, e01, e11 = (float(spec.energies[j]) for j in levels)
    chi_ghz = (e11 - e01) - (e10 - e00)
    return DispersiveShiftResult(chi_mhz=1e3 * chi_ghz, valid=True,
                                 min_overlap=worst)


def dispersive_shift(eff: EffectiveFluxonium, phi_eff: float,
                     basis: FockBasisSpec = DEFAULT_BASIS,
                     min_confidence: float = MIN_CONFIDENCE
                     ) -> DispersiveShiftResult:
    """Dispersive shift chi at one flux bias, in MHz.

    Uses a lowest-:data:`N_LOWEST` subset solve. Results are flagged invalid
    near avoided crossings.
    """
    spec = diagonalize_labeled(build_hamiltonian(eff, phi_eff, basis),
                               N_LOWEST)
    return _chi_from_levels(spec, min_confidence)


@dataclass(frozen=True)
class SweepPoint:
    flux_phi0: float
    transition: str
    freq_ghz: float
    chi_mhz: float | None
    chi_valid: bool


@dataclass(frozen=True)
class SweepError:
    flux_phi0: float
    transition: str
    message: str


@dataclass(frozen=True)
class SweepResult:
    points: list
    errors: list
    transitions: tuple
    basis: FockBasisSpec
    min_confidence: float


def _transition_name(tr):
    if isinstance(tr, str):
        return tr
    pair = parse_transition(tr)
    return f"{pair[0]}->{pair[1]}"


def flux_sweep(eff: EffectiveFluxonium, flux_grid,
               basis: FockBasisSpec = DEFAULT_BASIS,
               transitions=("f01",),
               min_confidence: float = MIN_CONFIDENCE) -> SweepResult:
    """Transition frequencies and chi over a flux grid.

    Grid points are solved one after another, in grid order. Per-point
    solver and label failures are recorded in ``errors`` and the sweep
    continues.
    """
    flux_grid = np.atleast_1d(np.asarray(flux_grid, dtype=float))
    if not np.all(np.isfinite(flux_grid)):
        raise ValueError("flux grid must be finite")
    pairs = [(str(_transition_name(tr)), parse_transition(tr))
             for tr in transitions]
    points, errors = [], []
    for phi in flux_grid:
        try:
            spec = diagonalize_labeled(build_hamiltonian(eff, phi, basis),
                                       N_LOWEST)
        except SolverError as exc:
            errors.append(SweepError(phi, "*", str(exc)))
            continue
        shift = _chi_from_levels(spec, min_confidence)
        for name, pair in pairs:
            try:
                freq = transition_frequency(spec, *pair, min_confidence)
            except LabelError as exc:
                errors.append(SweepError(phi, name, str(exc)))
                continue
            points.append(SweepPoint(flux_phi0=float(phi), transition=name,
                                     freq_ghz=freq, chi_mhz=shift.chi_mhz,
                                     chi_valid=shift.valid))
    return SweepResult(points=points, errors=errors,
                       transitions=tuple(name for name, _ in pairs),
                       basis=basis, min_confidence=min_confidence)


@dataclass(frozen=True)
class ConvergenceRow:
    m_qubit: int
    n_res: int
    dim: int
    f01_ghz: float
    chi_mhz: float | None
    delta_f01_ghz: float | None
    delta_chi_mhz: float | None


def convergence_report(eff: EffectiveFluxonium, phi_eff: float,
                       basis_ladder,
                       min_confidence: float = MIN_CONFIDENCE) -> list:
    """f01 and chi versus basis size, with successive differences.

    ``basis_ladder`` holds (m_qubit, n_res) pairs of strictly rising dim.
    Quote chi at the +-0.01 MHz level only after the chi deltas at the top
    of the ladder drop below that scale. f01 is read at any overlap, but a
    rung where no solved level keeps the (0, 0) or (0, 1) label raises
    :class:`LabelError`.
    """
    bases = [FockBasisSpec(int(m), int(n)) for m, n in basis_ladder]
    if any(b.dim <= a.dim for a, b in zip(bases, bases[1:])):
        raise ValueError("basis ladder dims must strictly ascend, got "
                         f"{[b.dim for b in bases]}")
    rows = []
    prev_f01 = prev_chi = None
    for basis in bases:
        spec = diagonalize_labeled(build_hamiltonian(eff, phi_eff, basis),
                                   N_LOWEST)
        f01 = transition_frequency(spec, (0, 0), (0, 1), 0.0)
        shift = _chi_from_levels(spec, min_confidence)
        chi = shift.chi_mhz
        rows.append(ConvergenceRow(
            m_qubit=basis.m_qubit, n_res=basis.n_res, dim=basis.dim,
            f01_ghz=f01, chi_mhz=chi,
            delta_f01_ghz=None if prev_f01 is None else f01 - prev_f01,
            delta_chi_mhz=(None if (prev_chi is None or chi is None)
                           else chi - prev_chi)))
        prev_f01 = f01
        if chi is not None:
            prev_chi = chi
    return rows
