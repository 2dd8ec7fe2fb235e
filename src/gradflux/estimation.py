"""Parameter estimation from spectroscopy and time-domain data.

Spectrum fits recover the effective circuit parameters (shunt inductance,
junction capacitance, Josephson energy) from measured f01/f02 transition
frequencies by weighted least squares against the numerically diagonalized
fluxonium model. Each start of a Latin-hypercube multi-start runs scipy's
trust-region-reflective least squares (Branch, Coleman & Li, SIAM J. Sci.
Comput. 21, 1 (1999)) on the weighted residual vector, with the bounds
handled by reflection; everything is deterministic given the seed. Both
forward models, single-loop and coupled two-mode, return the levels and
their Hellmann-Feynman derivatives from the same eigensolve, so the
Jacobian is analytic and the fit takes no finite differences.

Also here: extraction of the shared inductance from a measured dispersive
shift (bracketed root search), exponential/Ramsey/echo decay-curve fits,
and the parabolic kinetic-inductance frequency shift.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, curve_fit, least_squares

from .circuit import DEVICE_GEOMETRY, balanced_branch_circuit, reduce_circuit
from .spectrum import (DEFAULT_BASIS, FockBasisSpec, LabelError,
                       SolverError, _solve_lowest, build_hamiltonian,
                       diagonalize_labeled, dispersive_shift,
                       parse_transition, qubit_gradient, qubit_hamiltonians,
                       transition_frequency)
from .units import EC_GHZ_FF, EL_GHZ_NH, mode_frequency

TRANSITION_KINDS = ("f01", "f02")

#: Default frequency uncertainty when a dataset provides none: two-tone
#: linewidth scale, 1 MHz.
DEFAULT_SIGMA_GHZ = 1e-3

#: Truncation of the coupled two-mode forward model of :func:`fit_spectrum`.
COUPLED_BASIS = FockBasisSpec(20, 8)


class FitError(RuntimeError):
    """Fit failure; ``best`` carries the best-so-far result if any."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SpectroscopyDataset:
    """Measured transition frequencies versus flux or applied field.

    ``x`` is either the effective flux in Phi_0 (unit="phi0") or the applied
    field in tesla (unit="tesla"); in the latter case field-to-flux scale
    and offset enter the fit as nuisance parameters unless pinned. The
    numeric columns must be finite.
    """

    x: np.ndarray
    transition: tuple
    freq_ghz: np.ndarray
    sigma_ghz: np.ndarray
    unit: str = "phi0"
    sigma_defaulted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "freq_ghz",
                           np.asarray(self.freq_ghz, dtype=float))
        object.__setattr__(self, "sigma_ghz",
                           np.asarray(self.sigma_ghz, dtype=float))
        object.__setattr__(self, "transition", tuple(self.transition))
        if self.unit not in ("phi0", "tesla"):
            raise ValueError("unit must be 'phi0' or 'tesla'")
        n = self.x.size
        if not (len(self.transition) == n and self.freq_ghz.size == n
                and self.sigma_ghz.size == n):
            raise ValueError("dataset columns must have equal length")
        if n == 0:
            raise ValueError("dataset is empty")
        for name in ("x", "freq_ghz", "sigma_ghz"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"dataset column {name} must be finite")
        bad = set(self.transition) - set(TRANSITION_KINDS)
        if bad:
            raise ValueError(f"unsupported transitions {sorted(bad)}")
        if not np.all(self.freq_ghz > 0):
            raise ValueError("frequencies must be > 0 GHz")
        if not np.all(self.sigma_ghz > 0):
            raise ValueError("sigmas must be > 0 GHz")

    def __len__(self):
        return self.x.size


def single_loop_transitions(lq, cj, ej, phis, m=30, n_levels=3, *,
                            gradient=False):
    """Batched single-loop fluxonium levels over flux points.

    Returns an (n_flux, n_levels) array of the lowest eigenvalues [GHz] of
    the Hamiltonian stack of :func:`~gradflux.spectrum.qubit_hamiltonians`.
    Only those ``n_levels`` eigenpairs of each matrix are solved for
    (LAPACK's subset driver), so a fit reading three levels at m = 30
    solves a tenth of the spectrum. Non-finite parameters or fluxes raise
    :class:`~gradflux.spectrum.SolverError`; ``n_levels`` outside
    [1, m] raises ``ValueError``.

    With ``gradient=True`` the same solve also returns the eigenvectors and
    the result is ``(levels, d_levels)``: ``d_levels`` (n_flux, n_levels, 4)
    holds the Hellmann-Feynman derivatives
    (:func:`~gradflux.spectrum.qubit_gradient`) of each level with respect
    to lq [nH], cj [fF], ej [GHz] and the flux [Phi_0], in that order, exact
    wherever the levels are non-degenerate.
    """
    if not 1 <= n_levels <= m:
        raise ValueError(f"n_levels must be in [1, m={m}], got {n_levels}")
    h = qubit_hamiltonians(lq, cj, ej, phis, m)
    if not gradient:
        return _solve_lowest(h, n_levels)
    levels, u = _solve_lowest(h, n_levels, vectors=True)
    return levels, qubit_gradient(lq, cj, ej, np.atleast_1d(phis), u)


def _model_freqs_single_loop(lq, cj, ej, phis, transitions, m):
    """f01 or f02 per row, and its derivatives in (lq, cj, ej, phi)."""
    levels, d_levels = single_loop_transitions(lq, cj, ej, phis, m=m,
                                               n_levels=3, gradient=True)
    rows = np.arange(levels.shape[0])
    upper = np.where(np.asarray(transitions) == "f02", 2, 1)
    return (levels[rows, upper] - levels[:, 0],
            d_levels[rows, upper] - d_levels[:, 0])


def _model_freqs_coupled(lq, cj, ej, phis, transitions, resonator, basis):
    """Labeled transition per row of the two-mode model, and its
    derivatives in (lq, cj, ej, phi).

    With H = diag(D) - g phi_q (x) X_n, D = e_q (+) k f_r, a level E with
    eigenvector v has dE/df_r = sum k v^2, dE/dln g = E - sum D v^2, and
    the qubit part :func:`~gradflux.spectrum.qubit_gradient` of (u_q (x) I) v.
    """
    arms = balanced_branch_circuit(lq_eff=lq, cj=cj, ej=ej, **resonator)
    eff, ls, lr = reduce_circuit(arms), arms.ls, arms.lr
    m, n = basis.m_qubit, basis.n_res
    freqs = np.empty(len(phis))
    d_lng = np.empty((len(phis), 2))
    y = np.empty((len(phis), 2, m, n))
    for i, phi in enumerate(phis):
        h = build_hamiltonian(eff, phi, basis)
        pair = parse_transition(transitions[i])
        spec = diagonalize_labeled(h, pair)
        freqs[i] = transition_frequency(spec, *pair, min_confidence=0.0)
        j = [spec.index_of[label] for label in pair]
        d_lng[i] = spec.energies[j] - h.diagonal @ spec.vectors[:, j] ** 2
        y[i] = h.qubit_vectors @ spec.vectors[:, j].T.reshape(2, m, n)
    d_fr = (y ** 2).sum(axis=-2) @ np.arange(n)
    # balanced arms (l2 = 0, l3 = l1 + ls): with q = l1 (lr + ls) + ls lr,
    # lr_eff = q / l3, 1/lrq = 2 ls / q and 1/lq = (lr + ls)/q + 1/l3
    q = arms.l1 * (lr + ls) + ls * lr
    dl1 = 1.0 / (lq ** 2 * ((lr + ls) ** 2 / q ** 2 + 1.0 / arms.l3 ** 2))
    dln_lr = ((lr + ls) / q - 1.0 / arms.l3) * dl1
    # f_r ~ (lr_eff cr)^-1/2 and g ~ (1/lrq) zeta_q zeta_r, zeta ~ (L/C)^1/4
    dln_g = -(lr + ls) / q * dl1 + 0.25 / lq + 0.25 * dln_lr
    d = qubit_gradient(lq, cj, ej, np.asarray(phis)[:, None], y).sum(-2)
    d[..., 0] += (dln_g * d_lng
                  - 0.5 * mode_frequency(eff.lr, eff.cr) * dln_lr * d_fr)
    d[..., 1] -= 0.25 / cj * d_lng
    return freqs, d[:, 1] - d[:, 0]


@dataclass(frozen=True)
class FitResult:
    """Spectrum-fit outcome.

    ``params`` holds lq_nh, cj_ff, ej_ghz and, for field-unit datasets, the
    nuisance scale_phi0_per_t and offset_phi0. ``sensitivity`` is the rms
    derivative of the model frequencies per parameter at the optimum (GHz
    per parameter unit); ``stderr`` the covariance-proxy standard errors
    from the weighted Jacobian, nan only if it is singular. ``nfev`` counts
    forward-model evaluations over all starts. ``status`` is "converged",
    or, on the result a :class:`FitError` carries, "max-evaluations" or
    "model-failure". ``forward`` names the model fitted, "single-loop" or
    "coupled".
    """

    params: dict
    stderr: dict
    sensitivity: dict
    rms_residual_ghz: float
    chi2: float
    residuals_ghz: np.ndarray = field(repr=False)
    status: str = "converged"
    forward: str = "single-loop"
    n_starts: int = 0
    best_start: int = 0
    seed: int = 0
    nfev: int = 0
    history: np.ndarray = field(repr=False, default=None)
    start_objectives: tuple = ()
    sigma_defaulted: bool = False
    bounds: dict = field(default_factory=dict)


def initial_guess(dataset: SpectroscopyDataset) -> dict:
    """Heuristic starting point for the circuit parameters.

    The junction capacitance is set by the transmon-like anharmonicity scale
    of the f02 branch, the plasma scale then fixes E_J + E_L, and the
    inductance follows from the f01 modulation depth. Crude by design; the
    multi-start explores a wide band around it.
    """
    f01 = dataset.freq_ghz[np.asarray(dataset.transition) == "f01"]
    f02 = dataset.freq_ghz[np.asarray(dataset.transition) == "f02"]
    if f01.size == 0:
        raise FitError("initial guess needs at least one f01 row")
    f01_max, f01_min = float(f01.max()), float(f01.min())
    if f02.size:
        ec0 = abs(2.0 * f01_max - float(f02.max()))
    else:
        ec0 = 0.5 * f01_max
    ec0 = min(max(ec0, 0.5), 50.0)
    etot0 = max((f01_max + ec0) ** 2 / (8.0 * ec0), 0.2)
    el0 = max(etot0 * (f01_min / f01_max) ** 2, 0.05)
    ej0 = max(etot0 - el0, 0.1)
    return {"lq_nh": EL_GHZ_NH / el0, "cj_ff": EC_GHZ_FF / ec0,
            "ej_ghz": ej0}


def _default_bounds(init):
    return {k: (v / 3.0, v * 3.0) for k, v in init.items()}


def _latin_hypercube(lo, hi, n_starts, rng):
    """Stratified start points in log space, one stratum per start per axis."""
    d = lo.size
    pts = np.empty((n_starts, d))
    for k in range(d):
        strata = (rng.permutation(n_starts) + rng.random(n_starts)) / n_starts
        pts[:, k] = np.exp(np.log(lo[k]) + strata * (np.log(hi[k]) -
                                                     np.log(lo[k])))
    return pts


class _StopStart(Exception):
    """Ends one fit start on a model failure."""


@dataclass
class _Start:
    """Best point one fit start evaluated, and what the start spent."""

    p: np.ndarray
    chi2: float = np.inf
    freqs: np.ndarray | None = None
    jac: np.ndarray | None = None   # at p
    nfev: int = 0
    end: str = "converged"      # or "max-evaluations", "model-failure"
    failure: str = ""           # the model's error, for "model-failure"
    history: list = field(default_factory=list)


def fit_spectrum(dataset: SpectroscopyDataset, init: dict | None = None,
                 bounds: dict | None = None, *,
                 resonator: dict | None = None, basis_m: int = 30,
                 n_starts: int = 8, seed: int = 0,
                 max_nfev: int = 2000) -> FitResult:
    """Weighted least-squares fit of circuit parameters to a spectrum.

    Minimizes sum(((f_model - f_meas)/sigma)^2) by trust-region-reflective
    least squares (``scipy.optimize.least_squares``, method "trf") on the
    weighted residual vector, from the heuristic initial guess plus
    ``n_starts - 1`` Latin-hypercube points over the bounds (deterministic
    per ``seed``). Parameters with zero-width bounds are pinned at that
    value and left out of the solve.
    Giving ``resonator`` ({ls, lr, cr}) selects the coupled two-mode
    forward model in the fixed :data:`COUPLED_BASIS`; without it the
    single-loop fluxonium model in ``basis_m`` Fock states is fitted.
    ``forward`` in the result records which. Datasets in tesla add
    field-to-flux scale and offset nuisance parameters unless they are
    pinned via ``init``/``bounds`` with zero-width bounds.

    Either model returns its analytic Jacobian with every evaluation, and
    TRF's Jacobian at a point reuses the evaluation just made there; the
    same Jacobian at the optimum gives ``stderr`` and ``sensitivity``.

    Each start may spend ``max_nfev`` forward evaluations, TRF's own
    budget; ``nfev`` is their total over all starts. A start whose budget
    runs out, or whose model raises :class:`LabelError` or
    :class:`SolverError`, ends at the best point it evaluated; the other
    starts go on. The result is the lowest chi^2 any start evaluated;
    ``history`` lists that start's successive best values.

    Raises :class:`FitError` if no start converges, with the best-so-far
    result attached: its ``status`` is "max-evaluations" if some start ran
    out of budget, else "model-failure". Raises ``ValueError`` for
    under-determined datasets, bounds with lower > upper and an
    ``n_starts`` or ``max_nfev`` below 1.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if max_nfev < 1:
        raise ValueError(f"max_nfev must be at least 1, got {max_nfev}")

    init = dict(init) if init else initial_guess(dataset)
    names = ["lq_nh", "cj_ff", "ej_ghz"]
    if dataset.unit == "tesla":
        init.setdefault("scale_phi0_per_t", 1.0 / DEVICE_GEOMETRY.field_per_phi0_t)
        init.setdefault("offset_phi0", 0.0)
        names += ["scale_phi0_per_t", "offset_phi0"]
    if len(dataset) < len(names):
        raise ValueError(
            f"under-determined: {len(dataset)} rows for {len(names)} "
            "parameters")

    all_bounds = _default_bounds({k: init[k] for k in names if init[k] != 0})
    all_bounds["offset_phi0"] = (-0.6, 0.6)     # either sign
    if bounds:
        all_bounds.update(bounds)
    missing = [k for k in names if k not in all_bounds]
    if missing:
        raise ValueError(
            f"no bounds for {missing}: zero initial values need explicit "
            "bounds")
    lo = np.array([all_bounds[k][0] for k in names])
    hi = np.array([all_bounds[k][1] for k in names])
    crossed = [k for k, a, b in zip(names, lo, hi) if not a <= b]
    if crossed:
        raise ValueError(f"bounds for {crossed} have lower > upper")
    x0 = np.clip(np.array([init[k] for k in names]), lo, hi)

    x_meas = dataset.x
    f_meas = dataset.freq_ghz
    sig = dataset.sigma_ghz
    trs = dataset.transition

    def model(p):
        """Model frequencies at p and their Jacobian in ``names`` order."""
        phis = p[3] * x_meas + p[4] if dataset.unit == "tesla" else x_meas
        if resonator is None:
            freqs, d = _model_freqs_single_loop(p[0], p[1], p[2], phis, trs,
                                                basis_m)
        else:
            freqs, d = _model_freqs_coupled(p[0], p[1], p[2], phis, trs,
                                            resonator, COUPLED_BASIS)
        if dataset.unit == "tesla":    # phi = scale * x + offset
            return freqs, np.column_stack([d[:, :3], d[:, 3] * x_meas,
                                           d[:, 3]])
        return freqs, d[:, :3]

    rng = np.random.default_rng(seed)
    starts = [x0]
    if n_starts > 1:
        span_lo = np.where(lo > 0, lo, np.maximum(lo, 1e-6))
        pts = _latin_hypercube(span_lo, np.maximum(hi, span_lo * (1 + 1e-12)),
                               n_starts - 1, rng)
        if "offset_phi0" in names:      # linear axis, not log
            k = names.index("offset_phi0")
            pts[:, k] = lo[k] + rng.random(n_starts - 1) * (hi[k] - lo[k])
        starts += [np.clip(p, lo, hi) for p in pts]

    # least_squares rejects zero-width bounds: pinned parameters stay out of
    # the solver's vector and keep their start value, which is the pin
    free = lo < hi

    def run_start(st):
        out = _Start(p=st)
        last = None         # the latest evaluated point and its Jacobian

        def residuals(x):
            nonlocal last
            out.nfev += 1
            p = st.copy()
            p[free] = x
            try:
                freqs, jac = model(p)
            except (LabelError, SolverError) as exc:
                out.failure = str(exc)
                raise _StopStart from None
            r = (freqs - f_meas) / sig
            chi2 = float(np.dot(r, r))
            if chi2 < out.chi2:
                out.p, out.chi2, out.freqs, out.jac = p, chi2, freqs, jac
                out.history.append(chi2)
            last = (x.copy(), jac)
            return r

        def jacobian(x):
            # TRF asks for the Jacobian at the point it has just evaluated
            if last is None or not np.array_equal(x, last[0]):
                residuals(x)
            return last[1][:, free] / sig[:, None]

        try:
            if not least_squares(
                    residuals, st[free], bounds=(lo[free], hi[free]),
                    jac=jacobian, method="trf", x_scale="jac", xtol=1e-10,
                    ftol=1e-12, gtol=1e-12, max_nfev=max_nfev).success:
                out.end = "max-evaluations"
        except _StopStart:
            out.end = "model-failure"   # at its best point so far
        return out

    outcomes = [run_start(st) for st in starts]

    start_objs = tuple(o.chi2 for o in outcomes)
    best_idx = int(np.argmin(start_objs))
    best = outcomes[best_idx]
    failures = [o.failure for o in outcomes if o.end == "model-failure"]
    if best.freqs is None:
        raise FitError("the forward model failed at every start point: "
                       f"{failures[0]}")
    ends = [o.end for o in outcomes]
    status = next(e for e in ("converged", "max-evaluations",
                              "model-failure") if e in ends)

    p = best.p
    resid = best.freqs - f_meas
    params = dict(zip(names, (float(v) for v in p)))

    # covariance proxy and sensitivities from the Jacobian at the optimum,
    # which came with its evaluation
    jac = best.jac
    sensitivity = {names[k]: float(np.sqrt(np.mean(jac[:, k] ** 2)))
                   for k in range(len(names))}
    jw = jac / sig[:, None]
    stderr = {k: float("nan") for k in names}
    try:
        cov = np.linalg.inv(jw.T @ jw)
        stderr = {names[k]: float(np.sqrt(max(cov[k, k], 0.0)))
                  for k in range(len(names))}
    except np.linalg.LinAlgError:
        pass

    result = FitResult(
        params=params, stderr=stderr, sensitivity=sensitivity,
        rms_residual_ghz=float(np.sqrt(np.mean(resid ** 2))),
        chi2=best.chi2, residuals_ghz=resid,
        status=status,
        forward="single-loop" if resonator is None else "coupled",
        n_starts=len(starts), best_start=best_idx,
        seed=seed, nfev=sum(o.nfev for o in outcomes),
        history=np.asarray(best.history), start_objectives=start_objs,
        sigma_defaulted=dataset.sigma_defaulted,
        bounds={k: tuple(map(float, all_bounds[k])) for k in names})
    if status != "converged":
        message = (f"no start converged: {ends.count('max-evaluations')} of "
                   f"{len(ends)} used up their {max_nfev} evaluations, "
                   f"{len(failures)} stopped on a model failure")
        if failures:
            message += f" (first: {failures[0]})"
        raise FitError(message, best=result)
    return result


@dataclass(frozen=True)
class SharedInductanceFit:
    """Fitted shared inductance and the model chi it reproduces."""

    ls_nh: float
    chi_model_mhz: float


def fit_shared_inductance(chi_measured_mhz: float, *, lq_nh: float,
                          cj_ff: float, ej_ghz: float, cr_ff: float,
                          lr_nh: float, bracket=(0.2, 10.0),
                          basis: FockBasisSpec = DEFAULT_BASIS,
                          ) -> SharedInductanceFit:
    """Shared inductance from the measured half-flux dispersive shift.

    Solves chi_model(ls) = chi_measured by bracketed root search, where the
    model chi is evaluated at phi_eff = 0.5 for the balanced gradiometer
    with all other parameters held fixed. |chi_model| grows monotonically
    with ls in the working range, so the root is unique; it is located to
    1e-4 nH. A model chi with unresolved labels raises :class:`FitError`.
    """
    if chi_measured_mhz == 0.0:
        raise ValueError("chi_measured must be nonzero")

    def residual(ls):
        eff = reduce_circuit(balanced_branch_circuit(
            lq_eff=lq_nh, ls=ls, lr=lr_nh, cr=cr_ff, cj=cj_ff, ej=ej_ghz))
        shift = dispersive_shift(eff, 0.5, basis)
        if not shift.valid:
            raise FitError(f"chi invalid at half flux: {shift.reason}")
        return shift.chi_mhz - chi_measured_mhz

    fa, fb = residual(bracket[0]), residual(bracket[1])
    if np.sign(fa) == np.sign(fb):
        raise FitError(
            f"no sign change of chi_model - chi_measured over ls bracket "
            f"{bracket} (values {fa:+.3f}, {fb:+.3f} MHz); widen the bracket")
    ls = brentq(residual, bracket[0], bracket[1], xtol=1e-4)
    return SharedInductanceFit(ls_nh=float(ls),
                               chi_model_mhz=chi_measured_mhz + residual(ls))


@dataclass(frozen=True)
class DecayCurve:
    """Sampled time-domain curve (population inversion versus time).

    ``kind`` selects the fit model: "exponential" (energy relaxation),
    "ramsey" (decaying cosine) or "echo" (exponential).
    """

    t: np.ndarray
    value: np.ndarray
    kind: str = "exponential"

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "value",
                           np.asarray(self.value, dtype=float))
        if self.kind not in ("exponential", "ramsey", "echo"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.t.size < 5:
            raise ValueError(f"{self.kind} curve needs >= 5 samples")
        if self.t.size != self.value.size:
            raise ValueError("t and value must have equal length")
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("t must be strictly increasing")


@dataclass(frozen=True)
class DecayFit:
    kind: str
    tau: float            # time constant, in the units of the input t
    tau_stderr: float
    params: dict
    stderr: dict


def fit_decay(curve: DecayCurve) -> DecayFit:
    """Fit a decay model and return the time constant with standard error.

    exponential / echo:  a * exp(-t/tau) + c
    ramsey:              a * exp(-t/tau) * cos(2 pi delta t + phi0) + c

    Time is normalized internally to the curve span, so rescaling t rescales
    the fitted time constant exactly. Negative fitted time constants and
    unresolvable (constant) curves raise :class:`FitError`.
    """
    t, y = curve.t, curve.value
    if np.ptp(y) == 0.0:
        raise FitError("constant curve: no decay resolvable")
    span = t[-1] - t[0]
    ts = (t - t[0]) / span

    if curve.kind in ("exponential", "echo"):
        def f(ts_, a, tau, c):
            return a * np.exp(-ts_ / tau) + c

        tail = y[-max(2, y.size // 5):].mean()
        p0 = [y[0] - tail, 1.0 / 3.0, tail]
        names = ("amplitude", "tau", "offset")
    else:
        yc = y - y.mean()
        dt = np.mean(np.diff(ts))
        spec_pow = np.abs(np.fft.rfft(yc)) ** 2
        freqs = np.fft.rfftfreq(y.size, d=dt)
        f0 = float(freqs[np.argmax(spec_pow[1:]) + 1])

        def f(ts_, a, tau, delta, phi0, c):
            return a * np.exp(-ts_ / tau) * np.cos(
                2.0 * np.pi * delta * ts_ + phi0) + c

        p0 = [np.ptp(y) / 2.0, 1.0 / 3.0, f0, 0.0, y.mean()]
        names = ("amplitude", "tau", "detuning", "phase", "offset")

    try:
        popt, pcov = curve_fit(f, ts, y, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"decay fit did not converge: {exc}") from exc
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))

    params = dict(zip(names, (float(v) for v in popt)))
    stderr = dict(zip(names, (float(v) for v in perr)))
    tau = params["tau"] * span
    tau_err = stderr["tau"] * span
    if curve.kind == "ramsey":
        # report detuning back in 1/t units, sign conventions free
        params["detuning"] = params["detuning"] / span
        stderr["detuning"] = stderr["detuning"] / span
    if tau <= 0:
        raise FitError(f"fitted time constant not positive: {tau:g}")
    if tau > 100.0 * span:
        raise FitError(
            f"no decay resolvable: fitted time constant {tau:g} vastly "
            f"exceeds the observation window {span:g}")
    params["tau"] = tau
    stderr["tau"] = tau_err
    return DecayFit(kind=curve.kind, tau=float(tau), tau_stderr=float(tau_err),
                    params=params, stderr=stderr)


@dataclass(frozen=True)
class ParabolaFit:
    f_max: float
    b_offset: float
    curvature: float       # c >= 0 in f(B) = f_max - c (B - B_offset)^2


def fit_parabola(b, f) -> ParabolaFit:
    """Least-squares concave parabola f(B) = f_max - c (B - B_offset)^2.

    ``b`` holds the fields and ``f`` the frequencies, of equal length. The
    curvature c is required to be non-negative (the kinetic-inductance
    shift always bends the resonance down); convex or collinear-degenerate
    data raise :class:`FitError`.
    """
    b, fvals = np.asarray(b, dtype=float), np.asarray(f, dtype=float)
    if b.shape != fvals.shape:
        raise ValueError("b and f must have equal length")
    if np.unique(b).size < 3:
        raise FitError("degenerate data: need >= 3 distinct abscissae")
    a2, a1, a0 = np.polyfit(b, fvals, 2)
    scale = max(abs(fvals).max(), 1e-30)
    if abs(a2) * np.ptp(b) ** 2 < 1e-12 * scale:
        raise FitError("degenerate data: no resolvable curvature")
    if a2 > 0:
        raise FitError("data curvature is convex; c >= 0 unattainable")
    c = -a2
    b_offset = a1 / (2.0 * c)
    f_max = a0 + c * b_offset ** 2
    return ParabolaFit(f_max=float(f_max), b_offset=float(b_offset),
                       curvature=float(c))
