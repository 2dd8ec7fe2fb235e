"""Estimation tests: fit roundtrips, decay curves, parabola, shared inductance."""

import numpy as np
import pytest

from gradflux import (DecayCurve, FitError, LabelError, SpectroscopyDataset,
                      balanced_branch_circuit, dispersive_shift, estimation,
                      fit_decay, fit_parabola, fit_shared_inductance,
                      fit_spectrum, initial_guess, reduce_circuit,
                      single_loop_transitions)
from gradflux.spectrum import (FockBasisSpec, SolverError, qubit_gradient,
                               qubit_hamiltonians)

TRUE = dict(lq_nh=172.0, cj_ff=3.4, ej_ghz=5.1)


def synthetic_dataset(n=40, noise_ghz=0.0, seed=0, unit="phi0",
                      scale=None, offset=0.0, m=30):
    """Forward-model generated f01/f02 rows over [0.05, 0.95] Phi_0."""
    rng = np.random.default_rng(seed)
    phis = np.linspace(0.05, 0.95, n)
    levels = single_loop_transitions(TRUE["lq_nh"], TRUE["cj_ff"],
                                     TRUE["ej_ghz"], phis, m=m)
    trans = tuple("f01" if i % 2 == 0 else "f02" for i in range(n))
    freq = np.where([t == "f01" for t in trans],
                    levels[:, 1] - levels[:, 0],
                    levels[:, 2] - levels[:, 0])
    freq = freq + rng.normal(0.0, noise_ghz, size=n) if noise_ghz else freq
    x = phis if unit == "phi0" else (phis - offset) / scale
    return SpectroscopyDataset(x=x, transition=trans, freq_ghz=freq,
                               sigma_ghz=np.full(n, max(noise_ghz, 1e-3)),
                               unit=unit)


class TestFitSpectrum:
    def test_zero_noise_roundtrip(self):
        data = synthetic_dataset()
        fit = fit_spectrum(data, n_starts=4, seed=0)
        for key, val in TRUE.items():
            assert fit.params[key] == pytest.approx(val, rel=1e-3)
        assert fit.rms_residual_ghz < 1e-5
        assert fit.status == "converged"
        assert fit.forward == "single-loop"

    def test_noisy_roundtrip_one_percent(self):
        data = synthetic_dataset(noise_ghz=1e-3, seed=3)
        fit = fit_spectrum(data, n_starts=4, seed=0)
        for key, val in TRUE.items():
            assert fit.params[key] == pytest.approx(val, rel=0.01)
        # fitted model reproduces both branches within the linewidth scale
        assert fit.rms_residual_ghz < 1.5e-3
        assert np.max(np.abs(fit.residuals_ghz)) < 4e-3

    def test_monotone_accepted_objective(self):
        data = synthetic_dataset(noise_ghz=1e-3, seed=1)
        fit = fit_spectrum(data, n_starts=2, seed=0)
        assert np.all(np.diff(fit.history) <= 0)
        assert fit.history[-1] == pytest.approx(fit.chi2)

    def test_reported_diagnostics(self):
        data = synthetic_dataset(noise_ghz=1e-3, seed=2)
        fit = fit_spectrum(data, n_starts=2, seed=0)
        assert set(fit.sensitivity) == {"lq_nh", "cj_ff", "ej_ghz"}
        assert all(v > 0 for v in fit.sensitivity.values())
        assert all(v > 0 for v in fit.stderr.values())
        assert fit.residuals_ghz.shape == (len(data),)
        assert len(fit.start_objectives) == fit.n_starts

    def test_field_axis_nuisance_parameters(self):
        scale = 3.6e6            # Phi_0 per tesla
        offset = 0.02            # trapped-flux offset in Phi_0
        data = synthetic_dataset(unit="tesla", scale=scale, offset=offset)
        init = dict(TRUE, scale_phi0_per_t=3.5e6, offset_phi0=0.0)
        bounds = {"scale_phi0_per_t": (3.0e6, 4.2e6),
                  "offset_phi0": (-0.1, 0.1)}
        fit = fit_spectrum(data, init=init, bounds=bounds, n_starts=4,
                           seed=0, max_nfev=4000)
        assert fit.params["scale_phi0_per_t"] == pytest.approx(scale,
                                                               rel=1e-3)
        assert fit.params["offset_phi0"] == pytest.approx(offset, abs=1e-3)
        assert fit.params["lq_nh"] == pytest.approx(TRUE["lq_nh"], rel=1e-3)

    def test_pinned_field_axis_via_zero_width_bounds(self):
        scale = 3.6e6
        data = synthetic_dataset(n=24, unit="tesla", scale=scale, offset=0.0)
        fit = fit_spectrum(
            data,
            init=dict(lq_nh=180.0, cj_ff=3.2, ej_ghz=4.8,
                      scale_phi0_per_t=scale, offset_phi0=0.0),
            bounds={"scale_phi0_per_t": (scale, scale),
                    "offset_phi0": (0.0, 0.0)},
            n_starts=2, seed=0)
        assert fit.params["scale_phi0_per_t"] == scale
        assert fit.params["offset_phi0"] == 0.0
        assert fit.params["lq_nh"] == pytest.approx(TRUE["lq_nh"], rel=1e-3)

    def test_zero_init_needs_explicit_bounds(self):
        data = synthetic_dataset(n=12)
        with pytest.raises(ValueError, match="bounds"):
            fit_spectrum(data, init=dict(lq_nh=180.0, cj_ff=3.2, ej_ghz=0.0),
                         n_starts=1)

    def test_under_determined_dataset(self):
        data = synthetic_dataset(n=2)
        with pytest.raises(ValueError, match="under-determined"):
            fit_spectrum(data)

    def test_budget_below_one_rejected(self):
        data = synthetic_dataset(n=12)
        with pytest.raises(ValueError, match="max_nfev must be at least 1"):
            fit_spectrum(data, n_starts=1, max_nfev=0)

    @pytest.mark.parametrize("n_starts", [0, -3])
    def test_starts_below_one_rejected(self, n_starts):
        data = synthetic_dataset(n=12)
        with pytest.raises(ValueError, match="n_starts must be at least 1"):
            fit_spectrum(data, n_starts=n_starts)

    def test_exhausted_budget_carries_best_so_far(self):
        data = synthetic_dataset(noise_ghz=1e-3, seed=4)
        with pytest.raises(FitError) as err:
            fit_spectrum(data, n_starts=2, seed=0, max_nfev=5)
        best = err.value.best
        assert best is not None
        assert best.status == "max-evaluations"
        assert set(best.params) == {"lq_nh", "cj_ff", "ej_ghz"}
        assert np.isfinite(best.chi2)

    def test_nfev_counts_every_forward_evaluation(self, monkeypatch):
        """nfev is every forward call, and either model makes each through
        its analytic-Jacobian path (no difference probes, none at the
        optimum); an exhausted budget stops each start at exactly
        max_nfev."""
        coupled, resonator, basis = coupled_dataset()
        cases = [("single_loop_transitions",
                  synthetic_dataset(noise_ghz=1e-3, seed=4), {}),
                 ("_model_freqs_coupled", coupled,
                  dict(init=dict(lq_nh=180.0, cj_ff=3.2, ej_ghz=4.8),
                       resonator=resonator))]
        monkeypatch.setattr(estimation, "COUPLED_BASIS", basis)
        for name, data, kwargs in cases:
            calls = []
            forward = getattr(estimation, name)

            def counted(*a, forward=forward, **kw):
                calls.append(kw.get("gradient", True))
                return forward(*a, **kw)

            monkeypatch.setattr(estimation, name, counted)
            fit = fit_spectrum(data, n_starts=3, seed=0, **kwargs)
            assert fit.status == "converged"
            assert fit.nfev == len(calls) and all(calls)
            calls.clear()
            with pytest.raises(FitError) as err:
                fit_spectrum(data, n_starts=3, seed=0, max_nfev=5, **kwargs)
            assert err.value.best.nfev == len(calls) == 3 * 5
            assert err.value.best.status == "max-evaluations"

    def test_model_failure_during_optimization_ends_start(self, monkeypatch):
        """A label failure partway through a start ends that start at its
        best point while the others go on; if no start can converge, the
        FitError says a model failure ended them, not the budget."""
        data = synthetic_dataset(noise_ghz=1e-3, seed=4)
        clean = fit_spectrum(data, n_starts=3, seed=0)
        model = estimation._model_freqs_single_loop

        def failing(fails_at):
            calls = []

            def wrapped(*a):
                calls.append(a)
                if fails_at(len(calls)):
                    raise LabelError("label (1, 1) not retained in spectrum")
                return model(*a)
            return wrapped

        # from the 5th call on, inside the first start (7 calls when clean),
        # every call fails
        monkeypatch.setattr(estimation, "_model_freqs_single_loop",
                            failing(lambda n: n >= 5))
        with pytest.raises(FitError, match=r"0 of 3 used up their 2000 "
                           r"evaluations, 3 stopped on a model failure "
                           r"\(first: label \(1, 1\)") as err:
            fit_spectrum(data, n_starts=3, seed=0)
        best = err.value.best
        assert best.status == "model-failure"
        assert best.best_start == 0 and best.nfev == 5 + 1 + 1
        assert best.start_objectives[1:] == (np.inf, np.inf)
        assert best.chi2 == best.history[-1] > clean.chi2

        # only the 5th call fails: the first start ends, the others converge
        monkeypatch.setattr(estimation, "_model_freqs_single_loop",
                            failing(lambda n: n == 5))
        fit = fit_spectrum(data, n_starts=3, seed=0)
        assert fit.status == "converged"
        assert fit.start_objectives[0] == best.start_objectives[0]
        assert fit.start_objectives[1:] == clean.start_objectives[1:]
        assert fit.chi2 == pytest.approx(clean.chi2, rel=1e-9)

    def test_solver_error_ends_start_as_model_failure(self, monkeypatch):
        """A non-finite entry in the single-loop stack makes the forward's
        own eigensolve raise SolverError, which ends each start at its best
        point as a model failure, as the coupled model's failures do."""
        data = synthetic_dataset(noise_ghz=1e-3, seed=4)
        build = estimation.qubit_hamiltonians
        calls = []

        def poisoned(*a):
            calls.append(a)
            h = build(*a)
            if len(calls) >= 3:
                h[0, 0, 0] = np.nan
            return h

        monkeypatch.setattr(estimation, "qubit_hamiltonians", poisoned)
        with pytest.raises(FitError, match=r"0 of 2 used up their 2000 "
                           r"evaluations, 2 stopped on a model failure "
                           r"\(first: eigensolver failed: .*non-finite "
                           r"entries in stack=1\]") as err:
            fit_spectrum(data, n_starts=2, seed=0)
        best = err.value.best
        assert best.status == "model-failure"
        assert best.best_start == 0 and best.nfev == len(calls) == 2 + 1 + 1
        assert np.isfinite(best.chi2) and best.start_objectives[1] == np.inf

    def test_negative_offset_start_is_not_pinned(self):
        """A negative start offset keeps the offset's default (-0.6, 0.6)
        bounds, so the fit recovers it."""
        scale, offset = 3.6e6, -0.02
        data = synthetic_dataset(n=24, unit="tesla", scale=scale,
                                 offset=offset)
        fit = fit_spectrum(data, init=dict(lq_nh=180.0, cj_ff=3.2,
                                           ej_ghz=4.8, scale_phi0_per_t=scale,
                                           offset_phi0=-0.01),
                           n_starts=1, seed=0)
        assert fit.bounds["offset_phi0"] == (-0.6, 0.6)
        assert fit.params["offset_phi0"] == pytest.approx(offset, abs=1e-6)
        assert fit.params["lq_nh"] == pytest.approx(TRUE["lq_nh"], rel=1e-6)

    def test_crossed_bounds_rejected(self):
        data = synthetic_dataset(n=12)
        with pytest.raises(ValueError, match=r"\['cj_ff'\].*lower > upper"):
            fit_spectrum(data, init=dict(TRUE), bounds={"cj_ff": (4.0, 3.0)},
                         n_starts=1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            SpectroscopyDataset(x=np.array([]), transition=(),
                                freq_ghz=np.array([]),
                                sigma_ghz=np.array([]))

    def test_initial_guess_within_band(self):
        data = synthetic_dataset()
        guess = initial_guess(data)
        for key, val in TRUE.items():
            assert val / 3 < guess[key] < val * 3

    def test_coupled_forward_roundtrip(self, monkeypatch):
        data, resonator, basis = coupled_dataset()
        monkeypatch.setattr(estimation, "COUPLED_BASIS", basis)
        fit = fit_spectrum(data, init=dict(TRUE), resonator=resonator,
                           n_starts=1, seed=0, max_nfev=600)
        assert fit.forward == "coupled"
        for key, val in TRUE.items():
            assert fit.params[key] == pytest.approx(val, rel=5e-3)


def coupled_dataset():
    """Eight f01 rows of the coupled model at the truth, in a 16x6 basis."""
    basis = FockBasisSpec(16, 6)
    resonator = {"ls": 2.8, "lr": 21.6, "cr": 20.2}
    phis = np.linspace(0.1, 0.9, 8)
    trans = tuple("f01" for _ in phis)
    freq, _ = estimation._model_freqs_coupled(
        TRUE["lq_nh"], TRUE["cj_ff"], TRUE["ej_ghz"], phis, trans,
        resonator, basis)
    data = SpectroscopyDataset(x=phis, transition=trans, freq_ghz=freq,
                               sigma_ghz=np.full(8, 1e-3))
    return data, resonator, basis


class TestJacobian:
    """The fit's Hellmann-Feynman Jacobians, single-loop and coupled,
    against central differences."""

    @staticmethod
    def central(f, p, k, step):
        pp, pm = list(p), list(p)
        pp[k] += step
        pm[k] -= step
        return (f(pp) - f(pm)) / (2.0 * step)

    @pytest.mark.parametrize("t", [None, 0.25, 0.75],
                             ids=["truth", "low", "high"])
    def test_levels_match_central_differences(self, t):
        if t is None:
            p = list(TRUE.values())
        else:           # log-space points inside the default fit bounds
            bounds = estimation._default_bounds(
                initial_guess(synthetic_dataset()))
            p = [lo ** (1 - t) * hi ** t for lo, hi in bounds.values()]
        phis = np.array([0.0, 0.25, 0.5])
        levels, d_levels = single_loop_transitions(*p, phis, gradient=True)
        np.testing.assert_allclose(levels, single_loop_transitions(*p, phis),
                                   rtol=0, atol=1e-12)
        for k in range(3):
            fd = self.central(lambda q: single_loop_transitions(*q, phis),
                              p, k, 1e-4 * p[k])
            np.testing.assert_allclose(d_levels[..., k], fd, rtol=1e-6)
        fd = (single_loop_transitions(*p, phis + 1e-5)
              - single_loop_transitions(*p, phis - 1e-5)) / 2e-5
        # dE/dphi vanishes at 0 and 0.5 by symmetry: those entries get atol
        np.testing.assert_allclose(d_levels[..., 3], fd, rtol=1e-6,
                                   atol=1e-8)

    @pytest.mark.parametrize("p", [list(TRUE.values()), [150.0, 4.0, 6.0]],
                             ids=["truth", "off-truth"])
    def test_coupled_matches_central_differences(self, p):
        _, resonator, basis = coupled_dataset()
        phis = np.tile([0.1, 0.3, 0.5], 2)
        trans = ("f01",) * 3 + ("f02",) * 3

        def freqs(q, x=phis):
            return estimation._model_freqs_coupled(*q, x, trans, resonator,
                                                   basis)[0]

        _, jac = estimation._model_freqs_coupled(*p, phis, trans, resonator,
                                                 basis)
        for k in range(3):
            np.testing.assert_allclose(
                jac[:, k], self.central(freqs, p, k, 1e-5 * p[k]), rtol=1e-6)
        fd = (freqs(p, phis + 1e-5) - freqs(p, phis - 1e-5)) / 2e-5
        # df/dphi vanishes at 0.5 by symmetry: those entries get atol
        np.testing.assert_allclose(jac[:, 3], fd, rtol=1e-6, atol=1e-8)

    def test_coupled_without_shared_inductance_is_single_loop(self):
        """At ls = 0 the coupling g vanishes (lrq = inf) and the coupled
        Jacobian is the single loop's, with no RuntimeWarning (which the
        test configuration turns into an error) on the way."""
        _, resonator, basis = coupled_dataset()
        phis = np.tile([0.1, 0.3, 0.5], 2)
        upper = np.repeat([1, 2], 3)
        freqs, jac = estimation._model_freqs_coupled(
            *TRUE.values(), phis, ("f01",) * 3 + ("f02",) * 3,
            dict(resonator, ls=0.0), basis)
        levels, d_levels = single_loop_transitions(
            *TRUE.values(), phis, m=basis.m_qubit, gradient=True)
        rows = np.arange(phis.size)
        np.testing.assert_allclose(
            freqs, levels[rows, upper] - levels[:, 0], rtol=1e-12)
        np.testing.assert_allclose(
            jac, d_levels[rows, upper] - d_levels[:, 0], rtol=1e-9,
            atol=1e-12)

    def test_field_axis_columns_match_weighted_residual(self, monkeypatch):
        """The scale and offset columns TRF receives for a tesla dataset
        match central differences of the residual it receives, for either
        forward model."""
        data = synthetic_dataset(n=12, unit="tesla", scale=3.6e6,
                                 offset=0.02)
        init = dict(TRUE, scale_phi0_per_t=3.5e6, offset_phi0=0.01)
        _, resonator, basis = coupled_dataset()
        checked_at = []

        def checked(fun, x0, **kwargs):
            jac = kwargs["jac"](x0)
            for k, step in ((3, 1e-4 * x0[3]), (4, 1e-5)):
                fd = self.central(lambda x: fun(np.array(x)), x0, k, step)
                np.testing.assert_allclose(jac[:, k], fd, rtol=1e-6,
                                           atol=1e-6 * np.abs(fd).max())
            checked_at.append(x0)
            return least_squares(fun, x0, **kwargs)

        least_squares = estimation.least_squares
        monkeypatch.setattr(estimation, "least_squares", checked)
        monkeypatch.setattr(estimation, "COUPLED_BASIS", basis)
        for model in ({}, dict(resonator=resonator)):
            fit_spectrum(data, init=init, bounds={
                "scale_phi0_per_t": (3.0e6, 4.2e6),
                "offset_phi0": (-0.1, 0.1)}, n_starts=1, seed=0, **model)
        assert len(checked_at) == 2


class TestSubsetForward:
    """The single-loop forward solves only the levels it returns; its
    results match a full ``eigh`` of the same Hamiltonian stack."""

    @pytest.mark.parametrize("m", [20, 30, 80])
    @pytest.mark.parametrize("n_flux", [1, 40])
    def test_matches_full_eigh(self, n_flux, m):
        # one flux at 0.5, where E1 - E0 is smallest; else the fit's grid
        phis = (np.array([0.5]) if n_flux == 1
                else np.linspace(0.05, 0.95, n_flux))
        p = list(TRUE.values())
        h = qubit_hamiltonians(*p, phis, m)
        assert h.flags.c_contiguous
        values, vectors = np.linalg.eigh(h)
        levels, d_levels = single_loop_transitions(*p, phis, m=m,
                                                   gradient=True)
        np.testing.assert_allclose(levels, values[:, :3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            d_levels, qubit_gradient(*p, phis, vectors[:, :, :3]), rtol=0,
            atol=1e-12)
        np.testing.assert_allclose(single_loop_transitions(*p, phis, m=m),
                                   levels, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_levels", [0, -1, 5])
    def test_n_levels_outside_basis_rejected(self, n_levels):
        with pytest.raises(ValueError, match=r"n_levels must be in \[1, "
                           r"m=4\]"):
            single_loop_transitions(*TRUE.values(), [0.5], m=4,
                                    n_levels=n_levels)

    @pytest.mark.parametrize("gradient", [False, True])
    @pytest.mark.parametrize("params, phis, count", [
        ((np.nan, 3.4, 5.1), np.linspace(0.05, 0.95, 40), 40 * 30 * 30),
        ((172.0, 3.4, np.inf), np.linspace(0.05, 0.95, 40), 40 * 30 * 30),
        ((172.0, 3.4, 5.1), [np.nan], 30 * 30)],
        ids=["lq-nan", "ej-inf", "phi-nan"])
    def test_non_finite_input_raises_solver_error(self, params, phis, count,
                                                  gradient):
        with pytest.raises(SolverError, match=r"\[dim=30, non-finite "
                           rf"entries in stack={count}\]"):
            single_loop_transitions(*params, phis, gradient=gradient)


class TestSharedInductance:
    def test_roundtrip_values(self):
        for ls0 in (1.0, 2.8, 5.0):
            eff = reduce_circuit(balanced_branch_circuit(
                172.0, ls0, 21.6, 20.2, 3.4, 5.1))
            chi0 = dispersive_shift(eff, 0.5).chi_mhz
            fit = fit_shared_inductance(chi0, lq_nh=172.0, cj_ff=3.4,
                                        ej_ghz=5.1, cr_ff=20.2, lr_nh=21.6)
            assert fit.ls_nh == pytest.approx(ls0, abs=1e-3)

    def test_device_extraction(self):
        fit = fit_shared_inductance(-7.8, lq_nh=172.0, cj_ff=3.4,
                                    ej_ghz=5.1, cr_ff=20.2, lr_nh=21.6)
        assert fit.ls_nh == pytest.approx(2.8, rel=0.10)
        assert fit.chi_model_mhz == pytest.approx(-7.8, abs=0.01)

    def test_monotone_coupling_strength(self):
        basis = FockBasisSpec(20, 10)
        chis = []
        for ls in np.linspace(0.5, 10.0, 20):
            eff = reduce_circuit(balanced_branch_circuit(
                172.0, ls, 21.6, 20.2, 3.4, 5.1))
            chis.append(dispersive_shift(eff, 0.5, basis).chi_mhz)
        assert np.all(np.diff(np.abs(chis)) > 0)

    def test_small_coupling_limit(self):
        # chi -> 0 forces ls -> 0: a tiny target roots at a tiny ls
        eff = reduce_circuit(balanced_branch_circuit(
            172.0, 0.05, 21.6, 20.2, 3.4, 5.1))
        chi_small = dispersive_shift(eff, 0.5).chi_mhz
        fit = fit_shared_inductance(chi_small, lq_nh=172.0, cj_ff=3.4,
                                    ej_ghz=5.1, cr_ff=20.2, lr_nh=21.6,
                                    bracket=(0.01, 2.0))
        assert fit.ls_nh == pytest.approx(0.05, abs=1e-3)

    def test_no_sign_change_suggests_widening(self):
        with pytest.raises(FitError, match="widen"):
            fit_shared_inductance(-500.0, lq_nh=172.0, cj_ff=3.4,
                                  ej_ghz=5.1, cr_ff=20.2, lr_nh=21.6,
                                  bracket=(0.5, 3.0))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            fit_shared_inductance(0.0, lq_nh=172.0, cj_ff=3.4, ej_ghz=5.1,
                                  cr_ff=20.2, lr_nh=21.6)


class TestFitDecay:
    def test_exponential_t1(self):
        t = np.linspace(0.0, 40.0, 60)
        y = 0.8 * np.exp(-t / 10.0) - 0.05
        fit = fit_decay(DecayCurve(t=t, value=y, kind="exponential"))
        assert fit.tau == pytest.approx(10.0, rel=1e-3)

    def test_ramsey_t2star(self):
        t = np.linspace(0.0, 2.5, 80)
        y = 0.6 * np.exp(-t / 0.59) * np.cos(2 * np.pi * 2.0 * t + 0.3) + 0.1
        fit = fit_decay(DecayCurve(t=t, value=y, kind="ramsey"))
        assert fit.tau == pytest.approx(0.59, rel=0.01)
        assert abs(fit.params["detuning"]) == pytest.approx(2.0, rel=0.01)

    def test_echo_t2(self):
        t = np.linspace(0.0, 25.0, 50)
        y = 0.7 * np.exp(-t / 5.3) + 0.02
        fit = fit_decay(DecayCurve(t=t, value=y, kind="echo"))
        assert fit.tau == pytest.approx(5.3, rel=1e-3)
        assert fit.tau_stderr >= 0.0

    def test_constant_curve_rejected(self):
        curve = DecayCurve(t=np.linspace(0, 10, 20),
                           value=np.full(20, 0.3), kind="exponential")
        with pytest.raises(FitError, match="constant"):
            fit_decay(curve)

    def test_growing_curve_rejected(self):
        # exponential growth forces a negative fitted time constant
        t = np.linspace(0.0, 10.0, 30)
        curve = DecayCurve(t=t, value=0.1 * np.exp(t / 3.0),
                           kind="exponential")
        with pytest.raises(FitError):
            fit_decay(curve)

    def test_time_scale_equivariance_exact(self):
        t = np.linspace(0.0, 12.0, 48)
        y = 0.9 * np.exp(-t / 4.0) + 0.05
        base = fit_decay(DecayCurve(t=t, value=y, kind="exponential"))
        scaled = fit_decay(DecayCurve(t=4.0 * t, value=y,
                                      kind="exponential"))
        assert scaled.tau == 4.0 * base.tau      # bitwise, power-of-two scale
        third = fit_decay(DecayCurve(t=3.0 * t, value=y, kind="exponential"))
        assert third.tau == pytest.approx(3.0 * base.tau, rel=1e-9)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            DecayCurve(t=[0, 1, 2, 2, 3], value=[1, 2, 3, 4, 5])
        with pytest.raises(ValueError):
            DecayCurve(t=[0, 1, 2], value=[1, 2, 3], kind="exponential")
        with pytest.raises(ValueError):
            fit_decay(DecayCurve(t=[0, 1, 2], value=[3, 2, 1],
                                 kind="parabola"))


class TestFitParabola:
    def test_exact_parabola(self):
        b = np.linspace(-4.0, 9.0, 9)
        y = 7.4321 - 0.025 * (b - 1.5) ** 2
        fit = fit_parabola(b, y)
        assert fit.f_max == pytest.approx(7.4321, abs=1e-10)
        assert fit.b_offset == pytest.approx(1.5, abs=1e-9)
        assert fit.curvature == pytest.approx(0.025, rel=1e-9)

    def test_symmetric_data_centers_offset(self):
        b0 = 0.14
        b = b0 + np.linspace(-5, 5, 11)
        y = 7.445 - 0.01 * (b - b0) ** 2
        fit = fit_parabola(b, y)
        assert fit.b_offset == pytest.approx(b0, abs=1e-10)

    def test_noisy_curvature_within_five_percent(self):
        rng = np.random.default_rng(12)
        b = np.linspace(-10.0, 10.0, 41)
        y = 7.445 - 2e-4 * (b - 0.3) ** 2 + rng.normal(0, 1e-6, b.size)
        fit = fit_parabola(b, y)
        assert fit.curvature == pytest.approx(2e-4, rel=0.05)

    def test_collinear_rejected(self):
        b = np.linspace(0, 10, 7)
        with pytest.raises(FitError, match="degenerate"):
            fit_parabola(b, 2.0 + 0.5 * b)

    def test_convex_rejected(self):
        b = np.linspace(-5, 5, 9)
        with pytest.raises(FitError, match="convex"):
            fit_parabola(b, 1.0 + 0.3 * b ** 2)
