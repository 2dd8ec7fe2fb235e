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
goes through :func:`_solve_lowest`: numpy's ``eigh`` for full solves,
LAPACK's MRRR driver for the lowest k pairs of a larger matrix.
:func:`solve_hermitian` uses it on the two-mode factors for full solves and
up to a measured dimension crossover, 192; above it a block Davidson solve
finds the lowest levels, applying H as the structured product above, so no
dim^2 array is formed. Its projected and Gram matrices, a few block widths
wide, are solved in full by :func:`_solve_lowest` as well, so each
iteration runs on numpy's BLAS alone.

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

Callers name the labels they read (chi's four, a sweep's transitions). The
first solve takes the lowest levels up to the highest-ranked basis state of
those labels among the uncoupled levels, and is kept if a certificate shows
no higher level could take those labels: the level keeping label b must
overlap it by more than the weight 1 - sum_j v_bj^2 the solved levels leave
to the unsolved ones. Otherwise the solve doubles, up to :data:`N_LOWEST`
levels, where the labels are taken as they come.

H has period Phi_0, and the Fock parity of both modes maps H(phi) to
H(-phi), so every spectrum is even about the sweet spots 0 and Phi_0/2.
:func:`fold_flux` reduces a flux set to its distinct spectra, which
:func:`folded_spectra` solves once each for :func:`flux_sweep` and the
coupled forward model; the single-loop model folds its fluxonium stack
too. The chi ladder, at one flux, has nothing to fold.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .circuit import EffectiveFluxonium
from .units import EL_GHZ_NH, mode_frequency, phase_zpf, require_finite


class SolverError(RuntimeError):
    """Eigensolver failure (dense or Davidson), naming the dimension and the
    non-finite entries counted in the factors or stack given to solve."""


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

#: Most levels a labeled subset solve reaches by doubling while a wanted
#: label fails its certificate; at this size the labels are taken as they
#: come, certified or not.
N_LOWEST = 80

#: Largest dimension whose subset solve stays dense; above it the
#: matrix-free block Davidson solve runs, and a full solve is dense at any
#: dimension. Dense ``dsyevr`` costs about the same at any pair count k, the
#: Davidson solve grows with its block. Break-even dims for k pairs (device
#: circuit, phi = 0.5 and 0.26, 2 BLAS threads, median of 9 solves; dense,
#: with its matrix assembly, / Davidson on either side):
#:
#:     k     break-even    below                    above
#:     2     120-150       0.5 / 0.7 ms at 120      0.9 / 0.7 ms at 150
#:     4     120-165       0.9 / 1.4 ms at 120      1.3 / 0.8 ms at 165
#:     6     150-180       1.2 / 1.3 ms at 150      1.6 / 1.6 ms at 180
#:     8     150-180       1.2 / 1.6 ms at 150      1.6 / 1.5 ms at 180
#:     16    180-195       2.6 / 3.7 ms at 180      2.4 / 2.2 ms at 195
#:
#: The bound stays above the few-pair break-even to keep the coupled fit's
#: dim-160 solves dense, and with them that model's Hellmann-Feynman
#: Jacobian exact to rounding. A Davidson eigenvector, and so the Jacobian,
#: errs to first order in ||r|| / delta (residual norm over gap), its
#: energy only to second: on Davidson at TOL the 20x8 coupled model's
#: frequencies moved by under 1e-13 GHz but its Jacobian by up to 1.3e-9.
DENSE_MAX_DIM = 192

#: The Davidson solve: GUARD pairs beyond the wanted ones ride in its block
#: (they speed up the highest wanted pair), its basis holds CAP blocks before
#: a thick restart, and it stops once every wanted residual norm is at most
#: TOL (GHz), or fails after MAX_ITER iterations. An energy then errs by
#: at most about TOL^2 / gap, far below what gradflux reports. The device
#: sweep takes 6-7 iterations (315 over its 51 solves) and each rung of the
#: chi ladder 7; a circuit at half the coupling where H loses its lower
#: bound takes about 50.
GUARD = 2
CAP = 3
TOL = 1e-8
MAX_ITER = 200

#: Smallest |diagonal - theta| (GHz) a Davidson correction divides by, and
#: the Gram eigenvalue below which a normalized correction direction counts
#: as already in the basis.
FLOOR = 1e-8
LINDEP = 1e-14

#: Default label overlap below which chi and transitions are flagged.
MIN_CONFIDENCE = 0.7

#: Folded fluxes (Phi_0) at most this far apart are one spectrum in
#: :func:`fold_flux`. A grid point phi and its mirror 1 - phi fold to
#: values one rounding apart (at most 2.2e-16 on linspace grids over
#: [0, 1], [0.05, 0.95] and [-1, 2]), while distinct points of those grids
#: lie 0.0099 or more apart. 4 ulp of 1.0 merges every such mirror pair
#: and keeps any two fluxes a grid means to tell apart (1e-9 and more).
FOLD_ATOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real-symmetric two-mode Hamiltonian, held as its factors.

    H = diag(diagonal) - coupling (x) X_n, with X_n the resonator phase
    quadrature and ``coupling`` = g phi_q the symmetric m x m qubit factor.
    The basis is uncoupled fluxonium eigenstates x resonator Fock states,
    qubit-major: composite index k = i_q * n_res + i_r, where i_q counts
    the fluxonium eigenstates at the bias flux upwards. Entries are in GHz.
    ``matvec`` applies it without forming the dense array, for the Davidson
    solve; ``matrix`` assembles that array on demand.
    ``qubit_vectors`` holds those fluxonium eigenstates in its Fock basis.
    """

    diagonal: np.ndarray
    coupling: np.ndarray
    basis: FockBasisSpec
    qubit_vectors: np.ndarray

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
        """H @ x for a vector or a (dim, b) block, at O(m^2 n + m n^2) per
        column, without forming H."""
        m, n = self.basis.m_qubit, self.basis.n_res
        # rows of x.T are the columns of x, each an m x n array
        y = ((self.coupling @ x.T.reshape(-1, m, n)).reshape(-1, n)
             @ _phase_quadrature(n))
        hx = x.T * self.diagonal
        hx -= y.reshape(hx.shape)
        return hx.T


# The phase quadrature a + a^T and its eigenbasis depend on the Fock count
# alone, so each is built once per count (every matvec needs the
# quadrature) and handed out read-only.
@functools.cache
def _phase_quadrature(n):
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    x = a + a.T
    x.flags.writeable = False
    return x


@functools.cache
def _phase_eigenbasis(m):
    theta, v = _solve_lowest(_phase_quadrature(m), m)
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
    ``lq`` and ``cj`` must be finite and > 0, ``ej`` finite.
    """
    require_finite("lq", lq, ">")
    require_finite("cj", cj, ">")
    require_finite("ej", ej)
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


def fold_flux(phis):
    """The distinct spectra of a set of fluxes: ``(representatives,
    inverse, sign)``.

    H(phi + 1) = H(phi), and the Fock parity of both modes, which flips
    phi_q and phi_r, maps H(phi) to H(-phi) in the truncated basis too. So
    levels, labels and squared overlaps at phi are those at its folded
    value, phi mod 1 reflected into [0, 1/2], and only dE/dphi changes
    sign: ``sign`` is -1 where phi was reflected, else +1. Folded values
    within :data:`FOLD_ATOL` of their sorted neighbour form one group,
    solved at its smallest value, so ``representatives[inverse]`` stands
    for every phi whatever the order of ``phis``. A NaN or +-inf flux
    raises ``ValueError``.
    """
    phis = require_finite("fluxes",
                          np.atleast_1d(np.asarray(phis, dtype=float)))
    r = np.mod(phis, 1.0)
    folded = np.minimum(r, 1.0 - r)
    order = np.argsort(folded, kind="stable")
    start = np.diff(folded[order], prepend=-np.inf) > FOLD_ATOL
    inverse = np.empty(phis.size, dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    return folded[order][start], inverse, np.where(r > 0.5, -1.0, 1.0)


def build_hamiltonian(eff: EffectiveFluxonium, phi_eff: float,
                      basis: FockBasisSpec = DEFAULT_BASIS) -> HamiltonianMatrix:
    """Factor the two-mode Hamiltonian at a given effective flux.

    The fluxonium is diagonalized once; its eigenenergies and the resonator
    ladder make the diagonal, and the coupling is a product of symmetric
    factors, so the matrix is exactly symmetric.
    """
    require_finite("phi_eff", phi_eff)
    m, n = basis.m_qubit, basis.n_res
    e_q, u_q = _solve_lowest(qubit_hamiltonians(
        eff.lq, eff.cj, eff.ej, phi_eff, m)[0], m)
    phi_q = u_q.T @ _phase_quadrature(m) @ u_q
    g = (0.5 * (EL_GHZ_NH / eff.lrq) * phase_zpf(eff.lq, eff.cj)
         * phase_zpf(eff.lr, eff.cr))
    f_r = float(mode_frequency(eff.lr, eff.cr))
    return HamiltonianMatrix(
        diagonal=np.add.outer(e_q, f_r * np.arange(n)).ravel(),
        coupling=g * (0.5 * (phi_q + phi_q.T)), basis=basis,
        qubit_vectors=u_q)


def solve_hermitian(h: HamiltonianMatrix, lowest: int):
    """Ascending eigenvalues and eigenvectors of the two-mode Hamiltonian.

    The lowest ``lowest`` pairs, by :func:`_solve_lowest` on ``h.matrix``
    for a full solve or up to :data:`DENSE_MAX_DIM`, else by
    :func:`_davidson` on ``h.matvec``; both repeat bit for bit on rerun.
    Checked here once, non-finite factors or energies and failing solves
    raise :class:`SolverError` ending in ``[dim=D, non-finite entries in
    factors=N]``.
    """
    dim = h.basis.dim
    k = min(lowest, dim)
    if k < 1:
        raise ValueError(f"lowest must be >= 1, got {lowest}")
    nonfinite = sum(int(np.count_nonzero(~np.isfinite(x)))
                    for x in (h.diagonal, h.coupling))
    try:
        if nonfinite:
            raise SolverError("eigensolver failed: factors must not contain "
                              "infs or NaNs")
        w, v = (_solve_lowest(h.matrix, k) if k == dim or dim <= DENSE_MAX_DIM
                else _davidson(h, k))
        if not np.all(np.isfinite(w)):
            raise SolverError("eigensolver failed: non-finite energies")
    except SolverError as exc:
        raise SolverError(f"{exc} [dim={dim}, non-finite entries in "
                          f"factors={nonfinite}]") from exc
    return w, v


def _davidson(h: HamiltonianMatrix, k: int):
    """Lowest ``k`` pairs of ``h`` by block Davidson (Davidson, J. Comput.
    Phys. 17, 87 (1975)) on ``h.matvec``.

    The block of k + :data:`GUARD` vectors starts as the unit vectors of the
    lowest diagonal entries, in stable order, so reruns repeat bit for bit.
    Each iteration takes the Ritz pairs of the basis from its projected
    matrix, updated by the new columns only, and extends the basis by the
    Jacobi correction (residual / (diagonal - theta)) of every Ritz pair
    not yet converged, made orthonormal to it by :func:`_orthonormalize`.
    A full basis (:data:`CAP` blocks) restarts from the block's Ritz
    vectors. With zero coupling the start block is exact and the residuals
    are 0. The solve ends when every wanted residual norm is at most
    :data:`TOL`, and raises :class:`SolverError` after :data:`MAX_ITER`
    iterations.

    The Ritz vectors returned are orthonormal to rounding by construction.
    A Ritz value with residual norm ||r|| errs by at most ||r||^2 / delta,
    delta its gap to the rest of the spectrum (the Kato-Temple bound;
    Parlett, The Symmetric Eigenvalue Problem, SIAM 1998), and its squared
    overlaps err to first order in ||r|| / delta. An iteration could skip
    a level that no correction reached, but the labels stay right all the
    same: :func:`_certified` needs only orthonormal eigenvectors, since for
    each basis state b the weight r_b = 1 - sum_j v_bj^2 left by the solved
    levels bounds b's overlap with every unsolved level, skipped ones
    included. A skipped level cannot take a certified label, so the labels
    read through ``index_of`` are right and their energies within those
    bounds.
    """
    dim, d = h.basis.dim, h.diagonal
    b = min(k + GUARD, dim)
    cap = min(CAP * b, dim)
    # vectors are rows: the basis, the Ritz block and the residual block
    basis = np.zeros((cap, dim))
    t = np.zeros((cap, cap))
    basis[np.arange(b), np.argsort(d, kind="stable")[:b]] = 1.0
    n, w = 0, b
    for _ in range(MAX_ITER):
        t[n:n + w, :n + w] = h.matvec(basis[n:n + w].T).T @ basis[:n + w].T
        n += w
        theta, y = _solve_lowest(t[:n, :n], n)
        theta, ritz = theta[:b], y[:, :b].T @ basis[:n]
        res = h.matvec(ritz.T).T
        res -= theta[:, None] * ritz
        norm = np.sqrt(np.einsum("ij,ij->i", res, res))
        if np.all(norm[:k] <= TOL):
            return theta[:k], ritz[:k].T
        active = norm > TOL
        if n + np.count_nonzero(active) > cap:
            basis[:b] = ritz
            t[:b, :b] = np.diag(theta)
            n = b
        # free each block once read, before the next one is allocated
        del ritz
        denom = d - theta[:, None]
        denom[np.abs(denom) < FLOOR] = FLOOR
        res /= denom
        del denom
        block = _orthonormalize(basis[:n], res[active])
        w = len(block)
        basis[n:n + w] = block
        del res, block
    raise SolverError(f"eigensolver failed: no convergence in {MAX_ITER} "
                      "iterations")


def _orthonormalize(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of ``w`` made orthonormal to those of ``v`` and to each other
    by two passes of block Gram-Schmidt and SVQB (Stathopoulos & Wu, SIAM
    J. Sci. Comput. 23, 2165 (2002)); dependent directions are dropped."""
    w = w / np.sqrt(np.einsum("ij,ij->i", w, w))[:, None]
    for _ in range(2):
        w -= (w @ v.T) @ v
        lam, u = _solve_lowest(w @ w.T, len(w))
        keep = lam > LINDEP
        w = (u[:, keep] / np.sqrt(lam[keep])).T @ w
    return w


def _solve_lowest(h: np.ndarray, k: int):
    """Lowest ``k`` eigenpairs of a symmetric matrix, or of each matrix in
    a stack: the one dense eigensolver of gradflux.

    ``h`` is (..., m, m), read by its lower triangle; k = m solves it all,
    by numpy's batched ``eigh``. A subset (k < m) goes through LAPACK's
    MRRR subset driver ``dsyevr`` (Dhillon & Parlett, Linear Algebra Appl.
    387, 1 (2004)), faster there. numpy and scipy each bundle their own
    BLAS thread pool, and the Davidson iteration, whose inner solves are
    all full, stays in numpy's. Returns the ascending eigenvalues
    (..., k) and their eigenvectors (..., m, k). It trusts its callers'
    entries to be finite, as :func:`solve_hermitian` checks them; a LAPACK
    failure raises :class:`SolverError`, which callers tag with the size.
    """
    m = h.shape[-1]
    if k == m:
        try:
            return np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
    values = np.empty(h.shape[:-2] + (k,))
    vectors = np.empty(h.shape[:-1] + (k,))
    for i in np.ndindex(h.shape[:-2]):
        # h[i].T is Fortran-ordered; its upper triangle is h[i]'s lower one
        w, z, _, _, info = sla.lapack.dsyevr(h[i].T, range="I", lower=0,
                                             il=1, iu=k)
        if info != 0:
            raise SolverError(f"eigensolver failed: dsyevr info={info}")
        values[i] = w[:k]
        vectors[i] = z
    return values, vectors


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


def _labeled(h: HamiltonianMatrix, lowest: int) -> SpectrumResult:
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


def _basis_states(labels, basis: FockBasisSpec):
    """(label, basis index) of each of ``labels`` with a basis state."""
    n = basis.n_res
    return [((nr, mq), mq * n + nr) for nr, mq in labels
            if 0 <= nr < n and 0 <= mq < basis.m_qubit]


def _certified(spec: SpectrumResult, labels, basis: FockBasisSpec) -> bool:
    """The certificate of :func:`diagonalize_labeled`: True if no unsolved
    level can take any of ``labels``."""
    residual = 1.0 - np.sum(spec.vectors ** 2, axis=1)
    for label, b in _basis_states(labels, basis):
        j = spec.index_of.get(label)
        if j is None or spec.confidence[j] <= residual[b]:
            return False
    return True


def diagonalize_labeled(h: HamiltonianMatrix, labels) -> SpectrumResult:
    """Ascending spectrum with |n_r m_q> labels by maximal overlap.

    The basis states (uncoupled fluxonium eigenstates x resonator Fock
    states) are the unit vectors, so a level's squared overlaps are its
    squared eigenvector components, and it claims the label of the largest;
    when two levels claim the same label (possible near avoided crossings)
    only the higher-overlap claimant retains it.

    Only the lowest levels are solved, enough for ``labels``, the (n_r, m_q)
    labels the caller reads. The first solve takes 1 + the highest rank any
    wanted label's basis state has in the stable-sorted diagonal (the
    uncoupled energies); labels without a basis state are skipped. It
    doubles while the certificate fails for a wanted label, up to
    :data:`N_LOWEST`. The
    certificate holds when the level keeping the label overlaps its basis
    state b by more than r_b = 1 - sum_j v_bj^2 over the solved levels j;
    no unsolved level can overlap b by more than r_b, so none can take the
    label, and the wanted labels keep the levels and confidences of any
    larger solve. :func:`solve_hermitian` picks the dense or Davidson method
    for each solve.
    """
    labels = list(labels)
    rank = np.argsort(np.argsort(h.diagonal, kind="stable"))
    k = 1 + max((int(rank[b]) for _, b in _basis_states(labels, h.basis)),
                default=0)
    while True:
        spec = _labeled(h, min(k, N_LOWEST))
        if (k >= min(N_LOWEST, h.basis.dim)
                or _certified(spec, labels, h.basis)):
            return spec
        k *= 2


def folded_spectra(eff: EffectiveFluxonium, phis, labels,
                   basis: FockBasisSpec):
    """Each distinct spectrum of a flux set, built and labeled once:
    ``(representatives, solved, inverse, sign)``, folded by :func:`fold_flux`.

    Each representative, in ascending folded flux, is solved by
    :func:`diagonalize_labeled` for the union of ``labels[i]`` over the
    ``phis[i]`` it stands for. ``solved[r]`` is ``(h, spec)``, or the
    :class:`SolverError` its build or solve raised. The device sweep's 101
    points on [0, 1] fold to 51 solves, the fit grid's 40 on [0.05, 0.95]
    to 20.
    """
    reps, inverse, sign = fold_flux(phis)
    wanted = [set() for _ in reps]
    for r, row in zip(inverse, labels, strict=True):
        wanted[r].update(row)
    solved = []
    for phi, row in zip(reps, wanted):
        try:
            h = build_hamiltonian(eff, phi, basis)
            solved.append((h, diagonalize_labeled(h, row)))
        except SolverError as exc:
            solved.append(exc)
    return reps, solved, inverse, sign


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
    It is derived from ``valid``, so it is not a field and not written.
    """

    chi_mhz: float | None
    valid: bool
    min_overlap: float

    @property
    def reason(self) -> str | None:
        return None if self.valid else "avoided-crossing exclusion zone"


def _chi_from_levels(spec: SpectrumResult,
                     min_confidence: float) -> DispersiveShiftResult:
    levels = [spec.index_of.get(label) for label in CHI_LABELS]
    worst = min(0.0 if j is None else float(spec.confidence[j])
                for j in levels)
    if None in levels or worst < min_confidence:
        return DispersiveShiftResult(chi_mhz=None, valid=False,
                                     min_overlap=worst)
    e00, e10, e01, e11 = (float(spec.energies[j]) for j in levels)
    chi_ghz = (e11 - e01) - (e10 - e00)
    return DispersiveShiftResult(chi_mhz=1e3 * chi_ghz, valid=True,
                                 min_overlap=worst)


def dispersive_shift(eff: EffectiveFluxonium, phi_eff: float,
                     basis: FockBasisSpec = DEFAULT_BASIS,
                     min_confidence: float = MIN_CONFIDENCE
                     ) -> DispersiveShiftResult:
    """Dispersive shift chi at one flux bias, in MHz.

    Solves only the levels the four chi labels need, at ``phi_eff`` folded
    by :func:`fold_flux` as :func:`flux_sweep` folds it, so the two agree
    bit for bit. Results are flagged invalid near avoided crossings.
    """
    require_finite("min_confidence", min_confidence, ">=")
    phi = float(fold_flux(phi_eff)[0][0])
    spec = diagonalize_labeled(build_hamiltonian(eff, phi, basis),
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

    Every grid point reads its representative's spectrum from
    :func:`folded_spectra`, solved once for the chi labels and every
    transition's, so mirrored points are bit-equal; rows come in grid
    order. Solver and label failures are recorded in ``errors`` at every
    grid point they stand for, and the sweep continues. A non-finite flux or
    a negative or non-finite ``min_confidence`` raises ``ValueError`` first.
    """
    require_finite("min_confidence", min_confidence, ">=")
    flux_grid = np.atleast_1d(np.asarray(flux_grid, dtype=float))
    pairs = []
    for tr in transitions:
        pair = parse_transition(tr)
        pairs.append((tr if isinstance(tr, str) else f"{pair[0]}->{pair[1]}",
                      pair))
    labels = set(CHI_LABELS).union(*(pair for _, pair in pairs))
    _, solved, inverse, _ = folded_spectra(
        eff, flux_grid, [labels] * flux_grid.size, basis)
    points, errors = [], []
    for phi, r in zip(flux_grid, inverse):
        if isinstance(solved[r], SolverError):
            errors.append(SweepError(phi, "*", str(solved[r])))
            continue
        _, spec = solved[r]
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
    :class:`LabelError`. Each rung solves ``phi_eff`` folded by
    :func:`fold_flux`, as :func:`dispersive_shift` does.
    """
    require_finite("min_confidence", min_confidence, ">=")
    phi = float(fold_flux(phi_eff)[0][0])
    bases = [FockBasisSpec(int(m), int(n)) for m, n in basis_ladder]
    if any(b.dim <= a.dim for a, b in zip(bases, bases[1:])):
        raise ValueError("basis ladder dims must strictly ascend, got "
                         f"{[b.dim for b in bases]}")
    rows = []
    prev_f01 = prev_chi = None
    for basis in bases:
        spec = diagonalize_labeled(build_hamiltonian(eff, phi, basis),
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
