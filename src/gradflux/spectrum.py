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

Every dense symmetric solve, of the fluxonium as of the two-mode matrix,
goes through :func:`_solve_lowest` (LAPACK's MRRR driver, lowest k pairs).
:func:`solve_hermitian` uses it on the two-mode factors for full solves and
up to a measured dimension crossover; above it ARPACK's implicitly restarted
Lanczos (:func:`scipy.sparse.linalg.eigsh`) finds the lowest levels,
applying H as the structured product above, so no dim^2 array is formed.

Eigenvalues are reported relative to the harmonic zero-point energy, so two
uncoupled linear modes give exactly n*f_r + m*f_q.

One builder, :func:`qubit_hamiltonians`, supplies the fluxonium here and
in the spectroscopy forward models of :mod:`gradflux.estimation`, in the
one cached phase eigenbasis that :func:`qubit_gradient` also reads.

Dressed levels get one exclusive labeling, by :func:`diagonalize_labeled`:
each level takes the |n_r m_q> label of the basis state (uncoupled
fluxonium eigenstate x resonator Fock state) with its largest squared
eigenvector component, and of two levels claiming one label only the
higher-overlap one keeps it. A label no solved level keeps counts as
overlap 0. Near avoided crossings the overlap drops and label-dependent
quantities (transition frequencies, dispersive shift) are flagged invalid
below a configurable confidence.

Callers name the labels they read (chi's four, a sweep's transitions), and
only the lowest :data:`N_START` levels are solved if a certificate shows
no higher level could take those labels: the level keeping label b must
overlap it by more than the weight 1 - sum_j v_bj^2 the solved levels
leave to the unsolved ones. Otherwise the solve doubles, up to
:data:`N_LOWEST` levels, where the labels are taken as they come.
"""

import functools
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
    """A requested |n_r m_q> label could not be resolved confidently; the
    message names the label and, if it was resolved, its overlap."""


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

#: Labels chi reads: |00>, |10>, |01> and |11> as (n_r, m_q).
CHI_LABELS = ((0, 0), (1, 0), (0, 1), (1, 1))

#: Levels a labeled subset solve starts from; enough to certify the chi and
#: transition labels at every point of the device sweep.
N_START = 16

#: Most levels a labeled subset solve reaches by doubling :data:`N_START`
#: while a wanted label fails its certificate; at this size the labels are
#: taken as they come, certified or not.
N_LOWEST = 80

#: Largest dimension whose subset solve stays dense; above it the
#: matrix-free Lanczos solve runs. Measured crossover for the N_START = 16
#: pairs of a labeled solve (device circuit, phi = 0.5, 2 BLAS threads,
#: median of 15 solves; 1 thread gives the same crossover):
#:
#:     dim    dense dsyevr        Lanczos
#:     375    12.5-12.9 ms        14.2-17.0 ms
#:     450    17.8 ms             17.6-19.3 ms  (break-even)
#:     500    21.6-22.5 ms        18.7-19.5 ms
#:     600    26.8-27.6 ms        19.5-19.7 ms
#:     1000   83 ms               31 ms
#:     2000   0.57 s              0.06 s
#:
#: A labeled solve that doubles past N_START is routed by the same bound.
DENSE_MAX_DIM = 450

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
    ``qubit_vectors`` holds those fluxonium eigenstates in its Fock basis.
    """

    diagonal: np.ndarray
    coupling: np.ndarray
    basis: FockBasisSpec
    qubit_vectors: np.ndarray | None = None

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


# The phase quadrature a + a^T and its eigenbasis depend on the Fock count
# alone, so each is built once per count (the Lanczos matvec needs the
# quadrature on every call) and handed out read-only.
@functools.cache
def _phase_quadrature(n):
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    x = a + a.T
    x.flags.writeable = False
    return x


@functools.cache
def _phase_eigenbasis(m):
    (theta,), (v,) = _solve_lowest(_phase_quadrature(m)[None], m, vectors=True)
    theta.flags.writeable = v.flags.writeable = False
    return theta, v


def qubit_hamiltonians(lq: float, cj: float, ej: float, phis,
                       m: int) -> np.ndarray:
    """Fluxonium Hamiltonians (n_flux x m x m, GHz) in harmonic Fock bases.

    The cosine is evaluated exactly on the truncated phase operator
    phi = zeta X: X = V diag(theta) V^T comes from the cached
    :func:`_phase_eigenbasis`, cos(zeta theta + 2 pi phi) is applied to its
    eigenvalues for every flux in ``phis``, and the stack is rotated back
    in one batched product. Symmetric up to rounding, and C-contiguous.
    """
    if lq <= 0 or cj <= 0:
        raise ValueError("inductance and capacitance must be positive")
    if m < 2:
        raise ValueError("need at least 2 Fock states")
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    theta, v = _phase_eigenbasis(m)
    arg = phase_zpf(lq, cj) * theta + 2.0 * np.pi * phis[:, None]
    h = (v * np.cos(arg)[:, None, :]) @ v.T
    h *= -ej
    k = np.arange(m)
    h[:, k, k] += mode_frequency(lq, cj) * k
    return h


def qubit_gradient(lq: float, cj: float, ej: float, phis,
                   y: np.ndarray) -> np.ndarray:
    """y^T (dH/dp) y for each column of y (..., m, k), states in the Fock
    basis, with H the :func:`qubit_hamiltonians` matrix at ``phis``
    (broadcast over y's leading axes) and p = (lq, cj, ej, phi): (..., k, 4).
    For eigenvectors these are the Hellmann-Feynman derivatives of their
    energies (Groszkowski & Koch, Quantum 5, 583 (2021))."""
    m = y.shape[-2]
    theta, v = _phase_eigenbasis(m)
    zeta = phase_zpf(lq, cj)
    arg = zeta * theta + 2.0 * np.pi * np.asarray(phis)[..., None]
    sin = np.sin(arg)
    # dH/dE_J, dH/dzeta / E_J and dH/dphi / E_J are each V diag(term) V^T,
    # so y^T (dH/dp) y sums the term weighted by (V^T y)^2
    terms = np.stack([-np.cos(arg), theta * sin, 2.0 * np.pi * sin], axis=-1)
    d_ej, d_zeta, d_phi = np.moveaxis(
        np.swapaxes(v.T @ y, -1, -2) ** 2 @ terms, -1, 0)
    d_fq = np.arange(m) @ y ** 2
    fq = mode_frequency(lq, cj)
    d_lq = -0.5 * fq / lq * d_fq + 0.25 * zeta * ej / lq * d_zeta
    d_cj = -0.5 * fq / cj * d_fq - 0.25 * zeta * ej / cj * d_zeta
    return np.stack([d_lq, d_cj, d_ej, ej * d_phi], axis=-1)


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
    (e_q,), (u_q,) = _solve_lowest(qubit_hamiltonians(
        eff.lq, eff.cj, eff.ej, phi_eff, m), m, vectors=True)
    phi_q = u_q.T @ _phase_quadrature(m) @ u_q
    g = (0.5 * (EL_GHZ_NH / eff.lrq) * phase_zpf(eff.lq, eff.cj)
         * phase_zpf(eff.lr, eff.cr))
    f_r = float(mode_frequency(eff.lr, eff.cr))
    return HamiltonianMatrix(
        diagonal=np.add.outer(e_q, f_r * np.arange(n)).ravel(),
        coupling=g * (0.5 * (phi_q + phi_q.T)), basis=basis,
        qubit_vectors=u_q)


def solve_hermitian(h: HamiltonianMatrix, lowest: int | None = None):
    """Ascending eigenvalues and eigenvectors of the two-mode Hamiltonian.

    The lowest ``lowest`` pairs (all when None), by :func:`_solve_lowest`
    on ``h.matrix`` for a full solve or up to :data:`DENSE_MAX_DIM`, else
    by ARPACK Lanczos on ``h.matvec`` from a fixed start vector to machine
    precision, so reruns repeat; failures raise :class:`SolverError`.
    """
    dim = h.basis.dim
    nonfinite = sum(int(np.count_nonzero(~np.isfinite(x)))
                    for x in (h.diagonal, h.coupling))
    if nonfinite:
        raise SolverError("eigensolver failed: factors must not contain infs "
                          f"or NaNs [dim={dim}, non-finite entries in "
                          f"factors={nonfinite}]")
    k = dim if lowest is None else min(lowest, dim)
    if k < 1:
        raise ValueError(f"lowest must be >= 1, got {lowest}")
    if k == dim or dim <= DENSE_MAX_DIM:
        (w,), (v,) = _solve_lowest(h.matrix[None], k, vectors=True)
        return w, v
    op = spla.LinearOperator(h.shape, matvec=h.matvec, dtype=float)
    try:
        return spla.eigsh(op, k=k, which="SA", v0=np.ones(dim), tol=0)
    except spla.ArpackError as exc:
        raise SolverError(f"eigensolver failed: {exc} [dim={dim}, "
                          "non-finite entries in factors=0]") from exc


def _solve_lowest(h: np.ndarray, k: int, vectors: bool = False):
    """Lowest ``k`` eigenpairs of each symmetric matrix in a stack, by
    LAPACK's MRRR subset driver ``dsyevr`` (Dhillon & Parlett, Linear
    Algebra Appl. 387, 1 (2004)): the one dense eigensolver of gradflux.

    ``h`` is (n, m, m), read by its lower triangle; k = m solves it all.
    Returns the ascending eigenvalues (n, k), with ``vectors`` the pair
    (values, vectors (n, m, k)). Non-finite entries and solver failures
    raise :class:`SolverError`, as in :func:`solve_hermitian`.
    """
    n, m = h.shape[0], h.shape[-1]
    nonfinite = int(np.count_nonzero(~np.isfinite(h)))
    if nonfinite:
        raise SolverError("eigensolver failed: stack must not contain infs "
                          f"or NaNs [dim={m}, non-finite entries in "
                          f"stack={nonfinite}]")
    values = np.empty((n, k))
    vecs = np.empty((n, m, k)) if vectors else None
    for i in range(n):
        # h[i].T is Fortran-ordered; its upper triangle is h[i]'s lower one
        w, z, _, _, info = sla.lapack.dsyevr(
            h[i].T, compute_v=vectors, range="I", lower=0, il=1, iu=k)
        if info != 0:
            raise SolverError(f"eigensolver failed: dsyevr info={info} "
                              f"[dim={m}, non-finite entries in stack=0]")
        values[i] = w[:k]
        if vectors:
            vecs[i] = z
    return (values, vecs) if vectors else values


@dataclass(frozen=True)
class SpectrumResult:
    """Labeled spectrum of the coupled system.

    ``index_of`` maps each retained (n_r, m_q) product label to its level
    index; a label two levels claim is kept by the one with larger overlap.
    ``confidence[j]`` is level j's squared overlap with its best-matching
    uncoupled product state, and ``vectors[:, j]`` its eigenvector.
    """

    energies: np.ndarray
    confidence: np.ndarray
    index_of: dict
    vectors: np.ndarray

    def energy(self, label, min_confidence: float = 0.0) -> float:
        label = tuple(label)
        if label not in self.index_of:
            raise LabelError(f"label {label} not retained in spectrum")
        j = self.index_of[label]
        if self.confidence[j] < min_confidence:
            raise LabelError(
                f"label {label} resolved with overlap "
                f"{self.confidence[j]:.3f} < {min_confidence:.3f} "
                "(near an avoided crossing)")
        return float(self.energies[j])


def _labeled(h: HamiltonianMatrix, lowest: int | None) -> SpectrumResult:
    w, v = solve_hermitian(h, lowest)
    ov = v ** 2
    best = np.argmax(ov, axis=0)               # per level: best basis index
    conf = ov[best, np.arange(w.size)]
    index_of = {}
    for j in range(w.size):
        mq, nr = divmod(int(best[j]), h.basis.n_res)
        prev = index_of.get((nr, mq))
        if prev is None or conf[j] > conf[prev]:
            index_of[(nr, mq)] = j
    return SpectrumResult(energies=w, confidence=conf, index_of=index_of,
                          vectors=v)


def _certified(spec: SpectrumResult, labels, basis: FockBasisSpec) -> bool:
    """The certificate of :func:`diagonalize_labeled`: True if no unsolved
    level can take any of ``labels``."""
    n = basis.n_res
    residual = 1.0 - np.sum(spec.vectors ** 2, axis=1)
    for nr, mq in labels:
        if not (0 <= nr < n and 0 <= mq < basis.m_qubit):
            continue                       # no basis state: no level keeps it
        j = spec.index_of.get((nr, mq))
        if j is None or spec.confidence[j] <= residual[mq * n + nr]:
            return False
    return True


def diagonalize_labeled(h: HamiltonianMatrix,
                        labels=None) -> SpectrumResult:
    """Ascending spectrum with |n_r m_q> labels by maximal overlap.

    The basis states (uncoupled fluxonium eigenstates x resonator Fock
    states) are the unit vectors, so a level's squared overlaps are its
    squared eigenvector components, and it claims the label of the largest;
    when two levels claim the same label (possible near avoided crossings)
    only the higher-overlap claimant retains it.

    Without ``labels`` every level is solved. With ``labels``, the
    (n_r, m_q) labels the caller reads, only the lowest levels are: first
    :data:`N_START`, doubled while the certificate fails for a wanted label,
    up to :data:`N_LOWEST`. The certificate holds when the level keeping the
    label overlaps its basis state b by more than r_b = 1 - sum_j v_bj^2
    over the solved levels j; no unsolved level can overlap b by more than
    r_b, so none can take the label, and the wanted labels keep the levels
    and confidences of any larger solve. :func:`solve_hermitian` picks the
    dense or Lanczos method for each solve.
    """
    if labels is None:
        return _labeled(h, None)
    labels = list(labels)
    k = N_START
    while True:
        spec = _labeled(h, min(k, N_LOWEST))
        if (k >= min(N_LOWEST, h.basis.dim)
                or _certified(spec, labels, h.basis)):
            return spec
        k *= 2


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
    levels = [spec.index_of.get(label) for label in CHI_LABELS]
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

    Solves only the levels the four chi labels need. Results are flagged
    invalid near avoided crossings.
    """
    spec = diagonalize_labeled(build_hamiltonian(eff, phi_eff, basis),
                               CHI_LABELS)
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
    pairs = []
    for tr in transitions:
        pair = parse_transition(tr)
        pairs.append((tr if isinstance(tr, str) else f"{pair[0]}->{pair[1]}",
                      pair))
    labels = set(CHI_LABELS).union(*(pair for _, pair in pairs))
    points, errors = [], []
    for phi in flux_grid:
        try:
            spec = diagonalize_labeled(build_hamiltonian(eff, phi, basis),
                                       labels)
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
                                   CHI_LABELS)
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
