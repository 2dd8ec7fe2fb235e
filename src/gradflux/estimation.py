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

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeWarning, brentq, curve_fit, least_squares

from .circuit import DEVICE_GEOMETRY, balanced_branch_circuit, reduce_circuit
from .spectrum import (DEFAULT_BASIS, FockBasisSpec, LabelError,
                       SolverError, _solve_lowest, dispersive_shift,
                       fold_flux, folded_spectra, parse_transition,
                       qubit_gradient, qubit_hamiltonians,
                       transition_frequency)
from .units import EC_GHZ_FF, EL_GHZ_NH, mode_frequency, require_finite

TRANSITION_KINDS = ("f01", "f02")

#: Default frequency uncertainty when a dataset provides none: two-tone
#: linewidth scale, 1 MHz.
DEFAULT_SIGMA_GHZ = 1e-3

#: Default effort of :func:`fit_spectrum`: starts, forward evaluations per
#: start, and Fock states of its single-loop fluxonium model (also the
#: default truncation of :func:`single_loop_transitions`).
N_STARTS = 8
MAX_NFEV = 2000
BASIS_M = 30

#: Truncation of the coupled two-mode forward model of :func:`fit_spectrum`.
COUPLED_BASIS = FockBasisSpec(20, 8)

#: Relative chi^2 within which :func:`fit_spectrum` takes starts to have
#: reached one minimum, so that the lowest such start index is the best
#: start. The 8 starts of a normal fit end within about 2e-11 of each other
#: and fitted parameters reproduce to about 2e-9, so a last-digit change
#: would otherwise pick another start.
BEST_START_RTOL = 1e-10


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
    numeric columns must be finite, and the frequencies and sigmas > 0.
    """

    x: np.ndarray
    transition: tuple
    freq_ghz: np.ndarray
    sigma_ghz: np.ndarray
    unit: str = "phi0"
    sigma_defaulted: bool = False

    def __post_init__(self):
        for name, bound in (("x", ""), ("freq_ghz", ">"), ("sigma_ghz", ">")):
            object.__setattr__(self, name, require_finite(
                f"dataset column {name}",
                np.asarray(getattr(self, name), dtype=float), bound))
        object.__setattr__(self, "transition", tuple(self.transition))
        if self.unit not in ("phi0", "tesla"):
            raise ValueError("unit must be 'phi0' or 'tesla'")
        n = self.x.size
        if not (len(self.transition) == n and self.freq_ghz.size == n
                and self.sigma_ghz.size == n):
            raise ValueError("dataset columns must have equal length")
        if n == 0:
            raise ValueError("dataset is empty")
        bad = set(self.transition) - set(TRANSITION_KINDS)
        if bad:
            raise ValueError(f"unsupported transitions {sorted(bad)}")

    def __len__(self):
        return self.x.size


def single_loop_transitions(lq, cj, ej, phis, m=BASIS_M, n_levels=3):
    """Single-loop fluxonium levels over flux points and their derivatives.

    Returns ``(levels, d_levels)``: the lowest ``n_levels`` eigenvalues
    [GHz] of the :func:`~gradflux.spectrum.qubit_hamiltonians` matrix at
    each flux (n_flux, n_levels), solved for alone when n_levels < m,
    and their Hellmann-Feynman derivatives
    (:func:`~gradflux.spectrum.qubit_gradient`; n_flux, n_levels, 4) in lq
    [nH], cj [fF], ej [GHz] and the flux [Phi_0], from the same solve's
    eigenvectors and exact wherever the levels are non-degenerate.

    Only the distinct spectra are solved, folded as in
    :func:`~gradflux.spectrum.folded_spectra`; the flux derivative of a
    reflected point changes sign. A non-finite flux, parameter (see
    :func:`~gradflux.spectrum.qubit_hamiltonians`) or ``n_levels`` outside
    [1, m] raises ``ValueError``. The folded stack (20 x 30 x 30 on the fit
    grid) is checked here, once: non-finite entries, which finite
    parameters can still overflow to, and a failing solve raise
    :class:`~gradflux.spectrum.SolverError` ending in
    ``[dim=m, non-finite entries in stack=N]``.
    """
    if not 1 <= n_levels <= m:
        raise ValueError(f"n_levels must be in [1, m={m}], got {n_levels}")
    reps, inverse, sign = fold_flux(phis)
    h = qubit_hamiltonians(lq, cj, ej, reps, m)
    nonfinite = int(np.count_nonzero(~np.isfinite(h)))
    try:
        if nonfinite:
            raise SolverError("eigensolver failed: stack must not contain "
                              "infs or NaNs")
        levels, u = _solve_lowest(h, n_levels)
    except SolverError as exc:
        raise SolverError(f"{exc} [dim={m}, non-finite entries in "
                          f"stack={nonfinite}]") from exc
    d_levels = qubit_gradient(lq, cj, ej, reps, u)[inverse]
    d_levels[..., 3] *= sign[:, None]
    return levels[inverse], d_levels


def _model_freqs_single_loop(lq, cj, ej, phis, transitions, m):
    """f01 or f02 per row, and its derivatives in (lq, cj, ej, phi)."""
    levels, d_levels = single_loop_transitions(lq, cj, ej, phis, m)
    rows = np.arange(levels.shape[0])
    upper = np.where(np.asarray(transitions) == "f02", 2, 1)
    return (levels[rows, upper] - levels[:, 0],
            d_levels[rows, upper] - d_levels[:, 0])


def _model_freqs_coupled(lq, cj, ej, phis, transitions, resonator, basis):
    """Labeled transition per row of the two-mode model, and its
    derivatives in (lq, cj, ej, phi).

    Rows read their spectra from :func:`~gradflux.spectrum.folded_spectra`,
    whose first SolverError is raised. With H = diag(D) - g phi_q (x) X_n,
    D = e_q (+) k f_r, a level E with eigenvector v has dE/df_r = sum k v^2,
    dE/dln g = E - sum D v^2, and the qubit part
    :func:`~gradflux.spectrum.qubit_gradient` of (u_q (x) I) v.
    """
    arms = balanced_branch_circuit(lq_eff=lq, cj=cj, ej=ej, **resonator)
    eff, ls, lr = reduce_circuit(arms), arms.ls, arms.lr
    m, n = basis.m_qubit, basis.n_res
    pairs = [parse_transition(t) for t in transitions]
    reps, solved, inverse, sign = folded_spectra(eff, phis, pairs, basis)
    for outcome in solved:
        if isinstance(outcome, SolverError):
            raise outcome
    freqs = np.empty(len(phis))
    d_lng = np.empty((len(phis), 2))
    y = np.empty((len(phis), 2, m, n))
    for i, pair in enumerate(pairs):
        h, spec = solved[inverse[i]]
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
    # y lives in the folded flux's basis; dE/dphi flips where reflected
    d = qubit_gradient(lq, cj, ej, reps[inverse, None], y).sum(-2)
    d[..., 3] *= sign[:, None]
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
    from the weighted Jacobian's free columns: 0 if pinned, nan if those
    are singular. ``nfev`` counts forward-model evaluations over all
    starts. ``status`` is "converged", or, on the result a
    :class:`FitError` carries, "max-evaluations" or "model-failure".
    ``forward`` names the model fitted, "single-loop" or "coupled".
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
    multi-start explores a wide band around it. A dataset without f01 rows
    raises ``ValueError``.
    """
    f01 = dataset.freq_ghz[np.asarray(dataset.transition) == "f01"]
    f02 = dataset.freq_ghz[np.asarray(dataset.transition) == "f02"]
    if f01.size == 0:
        raise ValueError("initial guess needs at least one f01 row")
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
    """A factor of 3 around each initial value, ordered for either sign."""
    return {k: tuple(sorted((v / 3.0, v * 3.0))) for k, v in init.items()}


def _latin_hypercube(lo, hi, n_starts, rng):
    """Stratified start points (McKay, Beckman & Conover, Technometrics 21,
    239 (1979)): each axis draws a permutation of its strata, then a point
    in each, spread in log space where lo > 0 and linearly otherwise; a
    zero-width axis lands on its value to rounding."""
    pts = np.empty((n_starts, lo.size))
    for k, log in enumerate(lo > 0):
        strata = (rng.permutation(n_starts) + rng.random(n_starts)) / n_starts
        a, b = (np.log(lo[k]), np.log(hi[k])) if log else (lo[k], hi[k])
        t = a + strata * (b - a)
        pts[:, k] = np.exp(t) if log else t
    return pts


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
                 resonator: dict | None = None, basis_m: int = BASIS_M,
                 n_starts: int = N_STARTS, seed: int = 0,
                 max_nfev: int = MAX_NFEV) -> FitResult:
    """Weighted least-squares fit of circuit parameters to a spectrum.

    Minimizes sum(((f_model - f_meas)/sigma)^2) by trust-region-reflective
    least squares (``scipy.optimize.least_squares``, method "trf") on the
    weighted residual vector, from ``init`` plus ``n_starts - 1``
    :func:`_latin_hypercube` points over the bounds (deterministic per
    ``seed``), by default :func:`_default_bounds` and (-0.6, 0.6) for the
    offset. Parameters with zero-width bounds are pinned at that value and
    left out of the solve; an axis missing from ``init`` starts from
    :func:`initial_guess`, the device geometry's scale or a zero offset.
    Giving ``resonator`` ({ls, lr, cr}) selects the coupled two-mode
    forward model in the fixed :data:`COUPLED_BASIS`; without it the
    single-loop fluxonium model in ``basis_m`` Fock states is fitted.
    ``forward`` in the result records which. Tesla datasets add the
    field-to-flux scale and offset to the fit's axes, which every key of
    ``init``, ``bounds`` and ``stderr`` names.

    Either model returns its analytic Jacobian with every evaluation, and
    TRF's Jacobian at a point reuses the evaluation just made there; the
    same Jacobian at the optimum gives ``stderr`` and ``sensitivity``.

    Each start may spend ``max_nfev`` forward evaluations, TRF's own
    budget; ``nfev`` is their total over all starts. A start whose budget
    runs out, or whose model raises :class:`LabelError` or
    :class:`SolverError`, ends at the best point it evaluated; the other
    starts go on. The result is the best point of the lowest-index start
    whose chi^2 lies within :data:`BEST_START_RTOL` (relative) of the lowest
    any start evaluated; ``history`` lists that start's successive best
    values.

    Raises :class:`FitError` if no start converges, with the best-so-far
    result attached: its ``status`` is "max-evaluations" if some start ran
    out of budget, else "model-failure". Raises ``ValueError`` for an
    unknown key, a non-finite ``init`` or ``bounds`` value (named by its
    axis), fewer rows than free parameters, a guess on a dataset without
    f01 rows, crossed bounds and ``n_starts`` or ``max_nfev`` < 1.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if max_nfev < 1:
        raise ValueError(f"max_nfev must be at least 1, got {max_nfev}")

    defaults = ({"scale_phi0_per_t": 1.0 / DEVICE_GEOMETRY.field_per_phi0_t,
                 "offset_phi0": 0.0} if dataset.unit == "tesla" else {})
    names = ["lq_nh", "cj_ff", "ej_ghz", *defaults]
    init, bounds = init or {}, bounds or {}
    unknown = [k for k in [*init, *bounds] if k not in names]
    if unknown:
        raise ValueError(f"unknown keys {unknown}: the fit's axes are {names}")
    for k, v in [*init.items(), *bounds.items()]:     # a start or both ends
        require_finite(k, np.asarray(v, dtype=float))
    if not init.keys() >= set(names[:3]):   # the guess needs an f01 row
        defaults.update(initial_guess(dataset))
    init = {**defaults, **init}

    all_bounds = {**_default_bounds({k: init[k] for k in names if init[k]}),
                  "offset_phi0": (-0.6, 0.6), **bounds}   # offset: either sign
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
    # least_squares rejects zero-width bounds: pinned parameters stay out of
    # the solver's vector and keep their start value, which is the pin
    free = lo < hi
    if len(dataset) < np.count_nonzero(free):
        raise ValueError(f"under-determined: {len(dataset)} rows for "
                         f"{np.count_nonzero(free)} free parameters")
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

    def weighted_free(jac):     # what TRF solves with, and the covariance
        return jac[:, free] / sig[:, None]

    pts = _latin_hypercube(lo, hi, n_starts - 1, np.random.default_rng(seed))
    starts = [x0] + [np.clip(p, lo, hi) for p in pts]

    def run_start(st):
        out = _Start(p=st)
        last = None         # the latest evaluated point and its Jacobian

        def residuals(x):
            nonlocal last
            out.nfev += 1
            p = st.copy()
            p[free] = x
            freqs, jac = model(p)
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
            return weighted_free(last[1])

        try:
            if not least_squares(
                    residuals, st[free], bounds=(lo[free], hi[free]),
                    jac=jacobian, method="trf", x_scale="jac", xtol=1e-10,
                    ftol=1e-12, gtol=1e-12, max_nfev=max_nfev).success:
                out.end = "max-evaluations"
        except (LabelError, SolverError) as exc:
            out.end = "model-failure"   # at its best point so far
            out.failure = str(exc)
        return out

    outcomes = [run_start(st) for st in starts]

    start_objs = tuple(o.chi2 for o in outcomes)
    best_idx = int(np.flatnonzero(
        np.asarray(start_objs) <= min(start_objs) * (1 + BEST_START_RTOL))[0])
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
    jw = weighted_free(jac)
    var = np.zeros(len(names))                  # a pinned axis does not vary
    try:
        var[free] = np.diag(np.linalg.inv(jw.T @ jw))
    except np.linalg.LinAlgError:
        var[free] = np.nan
    stderr = dict(zip(names, map(float, np.sqrt(np.maximum(var, 0.0)))))

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
    require_finite("chi_measured_mhz", chi_measured_mhz)
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
    "ramsey" (decaying cosine) or "echo" (exponential). Both columns must
    be finite.
    """

    t: np.ndarray
    value: np.ndarray
    kind: str = "exponential"

    def __post_init__(self):
        for name in ("t", "value"):
            object.__setattr__(self, name, require_finite(
                f"curve column {name}",
                np.asarray(getattr(self, name), dtype=float)))
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
    unresolvable curves (constant, or a fit whose covariance is not finite)
    raise :class:`FitError`.
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

    with warnings.catch_warnings():
        # an unestimated covariance is raised below as a FitError
        warnings.simplefilter("ignore", OptimizeWarning)
        try:
            popt, pcov = curve_fit(f, ts, y, p0=p0, maxfev=20000)
        except RuntimeError as exc:
            raise FitError(f"decay fit did not converge: {exc}") from exc
    if not np.all(np.isfinite(pcov)):
        raise FitError("no decay resolvable: the fit's covariance is not "
                       "finite")
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))

    params = dict(zip(names, (float(v) for v in popt)))
    stderr = dict(zip(names, (float(v) for v in perr)))
    for d in (params, stderr):      # back to the units of t
        d["tau"] *= span
        if curve.kind == "ramsey":  # detuning in 1/t, sign convention free
            d["detuning"] /= span
    tau = float(params["tau"])
    if tau <= 0:
        raise FitError(f"fitted time constant not positive: {tau:g}")
    if tau > 100.0 * span:
        raise FitError(
            f"no decay resolvable: fitted time constant {tau:g} vastly "
            f"exceeds the observation window {span:g}")
    return DecayFit(kind=curve.kind, tau=tau, tau_stderr=float(stderr["tau"]),
                    params=params, stderr=stderr)


@dataclass(frozen=True)
class ParabolaFit:
    f_max: float
    b_offset: float
    curvature: float       # c >= 0 in f(B) = f_max - c (B - B_offset)^2


def fit_parabola(b, f) -> ParabolaFit:
    """Least-squares concave parabola f(B) = f_max - c (B - B_offset)^2.

    ``b`` holds the fields and ``f`` the frequencies, of equal length and
    finite, else ``ValueError``. The curvature c is required to be
    non-negative (the kinetic-inductance shift always bends the resonance
    down); convex or collinear-degenerate data raise :class:`FitError`.
    """
    b = require_finite("b", np.asarray(b, dtype=float))
    fvals = require_finite("f", np.asarray(f, dtype=float))
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
