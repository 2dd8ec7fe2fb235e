"""Spectrum tests: harmonic limits, normal-mode oracle, labels, sweeps."""

import math
import re

import numpy as np
import pytest
import scipy.linalg

from gradflux import (EffectiveFluxonium, FockBasisSpec, LabelError,
                      balanced_branch_circuit, build_hamiltonian,
                      convergence_report, diagonalize_labeled,
                      dispersive_shift, flux_sweep, parse_transition,
                      reduce_circuit, single_loop_transitions,
                      transition_frequency)
from gradflux import estimation, spectrum
from gradflux.spectrum import (CHI_LABELS, DENSE_MAX_DIM, MIN_CONFIDENCE,
                               N_LOWEST, N_START, HamiltonianMatrix,
                               SolverError, qubit_hamiltonians,
                               solve_hermitian)
from gradflux.units import (charging_energy, inductive_energy, mode_frequency,
                            phase_zpf)

# effective parameters of the measured device (balanced reconstruction)
EFF = reduce_circuit(balanced_branch_circuit(172.0, 2.8, 21.6, 20.2, 3.4, 5.1))
BASIS = FockBasisSpec(25, 15)


def uncoupled(ej=0.0, lq=100.0, lr=20.0, cj=3.0, cr=18.0):
    return EffectiveFluxonium(lq=lq, lr=lr, lrq=math.inf, cj=cj, cr=cr,
                              ej=ej, alpha=0.0)


class TestHarmonicLimits:
    def test_two_uncoupled_oscillators(self):
        eff = uncoupled()
        f_q = mode_frequency(eff.lq, eff.cj)
        f_r = mode_frequency(eff.lr, eff.cr)
        basis = FockBasisSpec(6, 5)
        spec = diagonalize_labeled(build_hamiltonian(eff, 0.3, basis))
        expected = np.sort([m * f_q + n * f_r
                            for m in range(6) for n in range(5)])
        assert np.max(np.abs(spec.energies - expected)) < 1e-9

    def test_flux_independent_without_junction(self):
        eff = uncoupled()
        w1 = diagonalize_labeled(build_hamiltonian(eff, 0.1, BASIS)).energies
        w2 = diagonalize_labeled(build_hamiltonian(eff, 0.9, BASIS)).energies
        assert np.max(np.abs(w1 - w2)) < 1e-12

    def test_labels_are_product_indices(self):
        eff = uncoupled()
        f_q = mode_frequency(eff.lq, eff.cj)
        f_r = mode_frequency(eff.lr, eff.cr)
        basis = FockBasisSpec(5, 4)
        spec = diagonalize_labeled(build_hamiltonian(eff, 0.0, basis))
        for mq in range(3):
            for nr in range(3):
                assert spec.energy((nr, mq)) == pytest.approx(
                    mq * f_q + nr * f_r, abs=1e-9)

    @pytest.mark.parametrize("lowest", [None, 2])
    def test_solver_failure_carries_diagnostics(self, lowest):
        bad = HamiltonianMatrix(diagonal=np.r_[np.nan, np.ones(11)],
                                coupling=np.zeros((4, 4)),
                                basis=FockBasisSpec(4, 3))
        with pytest.raises(SolverError,
                           match=r"dim=12, non-finite entries in factors=1"):
            solve_hermitian(bad, lowest)


class TestNormalModeOracle:
    def test_coupled_linear_modes(self):
        # EJ = 0 with finite coupling: the exact normal-mode frequencies of
        # the classical coupled LC pair follow from the 2x2 generalized
        # eigenproblem of the stiffness and inverse-mass matrices
        eff = EffectiveFluxonium(lq=172.0, lr=24.38, lrq=1498.0, cj=3.4,
                                 cr=20.2, ej=0.0, alpha=0.0)
        el_q = inductive_energy(eff.lq)
        el_r = inductive_energy(eff.lr)
        el_rq = inductive_energy(eff.lrq)
        stiffness = np.array([[el_r, -0.5 * el_rq], [-0.5 * el_rq, el_q]])
        mass_half = np.diag([math.sqrt(8 * charging_energy(eff.cr)),
                             math.sqrt(8 * charging_energy(eff.cj))])
        f_modes = np.sort(np.sqrt(np.linalg.eigvalsh(
            mass_half @ stiffness @ mass_half)))

        spec = diagonalize_labeled(build_hamiltonian(eff, 0.2,
                                                     FockBasisSpec(12, 12)))
        got = np.sort([spec.energies[1], spec.energies[2]]) - spec.energies[0]
        assert np.max(np.abs(got - f_modes)) < 1e-9


class TestHamiltonianProperties:
    def test_hermiticity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lq, lr, lrq = rng.uniform(10, 500, 3)
            cj, cr = rng.uniform(1, 30, 2)
            ej = rng.uniform(0, 12)
            eff = EffectiveFluxonium(lq=lq, lr=lr, lrq=lrq, cj=cj, cr=cr,
                                     ej=ej, alpha=0.0)
            h = build_hamiltonian(eff, rng.uniform(0, 1), FockBasisSpec(8, 6))
            assert np.array_equal(h.matrix, h.matrix.T)
            x = rng.normal(size=h.basis.dim)
            assert np.allclose(h.matvec(x), h.matrix @ x,
                               rtol=0.0, atol=1e-12 * np.abs(h.matrix).max())

    def test_periodicity_one_flux_quantum(self):
        for phi in (0.13, 0.37):
            w1, _ = solve_hermitian(build_hamiltonian(EFF, phi, BASIS), 40)
            w2, _ = solve_hermitian(
                build_hamiltonian(EFF, phi + 1.0, BASIS), 40)
            assert np.max(np.abs(w1 - w2)) < 1e-9

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    def test_half_flux_symmetry(self, delta):
        w1, _ = solve_hermitian(build_hamiltonian(EFF, 0.5 + delta, BASIS),
                                40)
        w2, _ = solve_hermitian(build_hamiltonian(EFF, 0.5 - delta, BASIS),
                                40)
        assert np.max(np.abs(w1 - w2)) < 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            EffectiveFluxonium(lq=-5.0, lr=20.0, lrq=100.0, cj=3.4, cr=20.2,
                               ej=5.1, alpha=0.0)
        with pytest.raises(ValueError):
            build_hamiltonian(EFF, math.nan, BASIS)
        for lowest in (0, -1):
            with pytest.raises(ValueError, match="lowest must be >= 1"):
                solve_hermitian(build_hamiltonian(EFF, 0.5, BASIS), lowest)
        with pytest.raises(ValueError):
            FockBasisSpec(1, 5)


class TestOneDenseSolver:
    """Every dense solve runs through ``spectrum._solve_lowest``."""

    def test_no_other_dense_eigensolver(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("dense solve outside _solve_lowest")

        for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (scipy.linalg, "eigh")):
            monkeypatch.setattr(module, name, boom)
        spectrum._phase_eigenbasis.cache_clear()
        assert BASIS.dim <= DENSE_MAX_DIM
        h = build_hamiltonian(EFF, 0.5, BASIS)
        assert solve_hermitian(h)[0].shape == (BASIS.dim,)
        assert solve_hermitian(h, 16)[1].shape == (BASIS.dim, 16)
        single_loop_transitions(172.0, 3.4, 5.1, [0.3, 0.5], 30)
        single_loop_transitions(172.0, 3.4, 5.1, [0.3, 0.5], 30,
                                gradient=True)
        assert dispersive_shift(EFF, 0.5, BASIS).valid
        assert flux_sweep(EFF, [0.5], BASIS).points

    @pytest.mark.parametrize("phi", [0.0, 0.26, 0.5])
    def test_builder_and_gradient_share_one_basis(self, phi):
        m, n = BASIS.m_qubit, BASIS.n_res
        levels, _ = single_loop_transitions(EFF.lq, EFF.cj, EFF.ej, phi, m=m,
                                            n_levels=m, gradient=True)
        h = build_hamiltonian(EFF, phi, BASIS)
        assert np.array_equal(h.diagonal[::n], levels[0])


def fock_basis_reference(eff, phi, basis):
    """Spectrum and index_of from the harmonic Fock basis of both modes,
    labeled by squared overlaps with the uncoupled product states."""
    m, n = basis.m_qubit, basis.n_res
    h_q = qubit_hamiltonians(eff.lq, eff.cj, eff.ej, phi, m)[0]
    quad = [np.diag(np.sqrt(np.arange(1, k)), 1) for k in (m, n)]
    h = (np.kron(h_q, np.eye(n))
         + np.kron(np.eye(m), np.diag(mode_frequency(eff.lr, eff.cr)
                                      * np.arange(n))))
    if math.isfinite(eff.lrq):
        h -= (0.5 * inductive_energy(eff.lrq) * phase_zpf(eff.lq, eff.cj)
              * phase_zpf(eff.lr, eff.cr)
              * np.kron(quad[0] + quad[0].T, quad[1] + quad[1].T))
    w, v = np.linalg.eigh(0.5 * (h + h.T))
    _, u_q = np.linalg.eigh(h_q)
    amps = np.tensordot(u_q.T, v.reshape(m, n, -1), axes=1)
    ov = amps.reshape(m * n, -1) ** 2
    index_of = {}
    for j in range(w.size):
        mq, nr = divmod(int(np.argmax(ov[:, j])), n)
        prev = index_of.get((nr, mq))
        if prev is None or ov[:, j].max() > ov[:, prev].max():
            index_of[(nr, mq)] = j
    return w, index_of


class TestFockBasisReference:
    """The uncoupled-eigenbasis build against the two-mode Fock basis."""

    def cases(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            lq, lr, lrq = rng.uniform(10, 500, 3)
            cj, cr = rng.uniform(1, 30, 2)
            yield (EffectiveFluxonium(lq=lq, lr=lr, lrq=lrq, cj=cj, cr=cr,
                                      ej=rng.uniform(0, 12), alpha=0.0),
                   rng.uniform(0, 1), FockBasisSpec(10, 6))
        yield uncoupled(ej=5.1), 0.3, FockBasisSpec(10, 6)
        yield EFF, 0.247, BASIS
        yield EFF, 0.5, BASIS

    def test_spectrum_and_labels_match(self):
        for eff, phi, basis in self.cases():
            w, index_of = fock_basis_reference(eff, phi, basis)
            spec = diagonalize_labeled(build_hamiltonian(eff, phi, basis))
            assert np.max(np.abs(spec.energies - w)) < 1e-9
            assert spec.index_of == index_of


class TestSingleLoopEquivalence:
    def test_gradiometric_reduction_matches_reference(self):
        # ls = 0, l2 = 0, l1 = l3 = 2 lq at a flux-imbalance sweep
        lq, cj, ej = 172.0, 3.4, 5.1
        from gradflux import BranchCircuit
        eff = reduce_circuit(BranchCircuit(
            l1=2 * lq, l2=0.0, l3=2 * lq, ls=0.0, lr=21.6,
            cr=20.2, cj=cj, ej=ej))
        assert eff.lq == pytest.approx(lq, rel=1e-12)
        basis = FockBasisSpec(25, 4)
        for phi_delta in np.linspace(0.0, 1.0, 5):
            spec = diagonalize_labeled(build_hamiltonian(eff, phi_delta,
                                                         basis))
            reference = single_loop_transitions(lq, cj, ej, phi_delta, 25,
                                                n_levels=25)[0]
            qubit_sector = np.array(
                [spec.energy((0, m)) for m in range(10)])
            assert np.max(np.abs(qubit_sector - reference[:10])) < 1e-6

    def test_harmonic_ladder_without_junction(self):
        w = single_loop_transitions(100.0, 3.0, 0.0, 0.3, 20, n_levels=20)[0]
        f_q = mode_frequency(100.0, 3.0)
        assert np.max(np.abs(np.diff(w) - f_q)) < 1e-9

    def test_half_flux_gap_shrinks_with_ej(self):
        gaps = []
        for ej in (5.1, 8.0, 12.0, 20.0):
            w = single_loop_transitions(172.0, 3.4, ej, 0.5, 40,
                                        n_levels=40)[0]
            gaps.append(w[1] - w[0])
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_reference_converged_at_double_basis(self):
        w40 = single_loop_transitions(172.0, 3.4, 5.1, 0.5, 40)[0]
        w80 = single_loop_transitions(172.0, 3.4, 5.1, 0.5, 80)[0]
        f40, f80 = w40[1] - w40[0], w80[1] - w80[0]
        assert abs(f40 - f80) < 1e-6   # < 1 kHz on basis doubling
        assert f80 == pytest.approx(3.904685, abs=2e-5)


class TestLabeledTransitions:
    def test_same_label_zero(self):
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.5, BASIS))
        assert transition_frequency(spec, (0, 1), (0, 1)) == 0.0

    def test_harmonic_f01(self):
        eff = uncoupled()
        spec = diagonalize_labeled(build_hamiltonian(eff, 0.0,
                                                     FockBasisSpec(8, 4)))
        assert transition_frequency(spec, (0, 0), (0, 1)) == pytest.approx(
            mode_frequency(eff.lq, eff.cj), abs=1e-9)

    def test_sweet_spot_f01_frozen_oracle(self):
        # dressed f01 at half flux; converged dense-diagonalization value
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.5, BASIS))
        assert transition_frequency(spec, (0, 0), (0, 1)) == pytest.approx(
            3.902433, abs=1e-4)

    def test_level_ordering_away_from_crossings(self):
        # at low flux f01 lies above the readout: order (0,0),(1,0),(0,1)
        order = [(0, 0), (1, 0), (0, 1)]
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.05, BASIS))
        assert [spec.index_of[label] for label in order] == [0, 1, 2]
        bigger = diagonalize_labeled(
            build_hamiltonian(EFF, 0.05, FockBasisSpec(35, 21)))
        assert [bigger.index_of[label] for label in order] == [0, 1, 2]
        for j in range(3):
            assert abs((bigger.energies[j] - bigger.energies[0])
                       - (spec.energies[j] - spec.energies[0])) < 1e-4

    def test_unresolved_label_near_crossing(self):
        # at phi = 0.26 the (1,1) level hybridizes strongly with (0,2)
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.26, BASIS))
        with pytest.raises(LabelError) as err:
            transition_frequency(spec, (0, 1), (1, 1), min_confidence=0.7)
        found = re.fullmatch(r"label \(1, 1\) resolved with overlap (\S+) "
                             r"< 0\.700 \(near an avoided crossing\)",
                             str(err.value))
        assert found and float(found.group(1)) < 0.7

    def test_one_level_never_carries_two_labels(self):
        # at phi = 0.247 one dressed level overlaps both (1,1) and (2,0)
        # by about one half; only one label may keep it
        pairs = (((0, 0), (1, 1)), ((0, 0), (2, 0)))
        sweep = flux_sweep(EFF, [0.247], FockBasisSpec(25, 15),
                           transitions=pairs, min_confidence=0.0)
        freqs = [p.freq_ghz for p in sweep.points]
        assert len(freqs) == len(set(freqs))
        assert len(sweep.points) + len(sweep.errors) == 2
        assert not dispersive_shift(EFF, 0.247).valid

    def test_subset_labels_match_full_solve(self):
        h = build_hamiltonian(EFF, 0.3, BASIS)
        full = diagonalize_labeled(h)
        labels = [(nr, mq) for nr in range(3) for mq in range(3)]
        low = diagonalize_labeled(h, labels)
        k = low.energies.size
        assert N_START <= k < full.energies.size
        assert np.allclose(low.energies, full.energies[:k], atol=1e-9)
        for label in labels:
            assert low.index_of[label] == full.index_of[label]

    def test_parse_transition(self):
        assert parse_transition("f01") == ((0, 0), (0, 1))
        assert parse_transition("f12") == ((0, 1), (0, 2))
        assert parse_transition("fr") == ((0, 0), (1, 0))
        assert parse_transition(((0, 0), (1, 1))) == ((0, 0), (1, 1))
        with pytest.raises(ValueError):
            parse_transition("x01")


class TestDispersiveShift:
    def test_zero_without_coupling(self):
        shift = dispersive_shift(uncoupled(ej=5.1), 0.5, BASIS)
        assert shift.valid
        assert abs(shift.chi_mhz) < 1e-6

    def test_device_value_at_half_flux(self):
        shift = dispersive_shift(EFF, 0.5, BASIS)
        assert shift.valid
        assert shift.chi_mhz < 0
        assert shift.chi_mhz == pytest.approx(-7.670, abs=0.02)

    def test_within_two_percent_of_experiment(self):
        shift = dispersive_shift(EFF, 0.5, BASIS)
        assert abs(shift.chi_mhz - (-7.8)) / 7.8 < 0.02

    def test_exclusion_zone_near_crossing(self):
        shift = dispersive_shift(EFF, 0.26, BASIS)
        assert not shift.valid
        assert shift.chi_mhz is None
        assert shift.min_overlap < 0.7
        assert "exclusion" in shift.reason

    def test_qubit_crosses_readout_near_measured_frequency(self):
        # f01 sweeps from above to below the readout; the crossing sits
        # near the measured 7.445 GHz readout frequency
        grid = np.linspace(0.05, 0.45, 21)
        sweep = flux_sweep(EFF, grid, BASIS, transitions=("f01", "fr"),
                           min_confidence=0.0)
        f01 = np.array([p.freq_ghz for p in sweep.points
                        if p.transition == "f01"])
        fr = np.array([p.freq_ghz for p in sweep.points
                       if p.transition == "fr"])
        gap = f01 - fr
        assert gap[0] > 0 and gap[-1] < 0      # a crossing exists
        k = int(np.flatnonzero(np.diff(np.sign(gap)))[0])
        crossing_freq = 0.5 * (fr[k] + fr[k + 1])
        assert abs(crossing_freq - 7.445) / 7.445 < 0.05


class TestFluxSweep:
    def test_single_point_matches_direct_call(self):
        sweep = flux_sweep(EFF, [0.5], BASIS, transitions=("f01", "fr"))
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.5, BASIS))
        by_name = {p.transition: p for p in sweep.points}
        assert by_name["f01"].freq_ghz == pytest.approx(
            transition_frequency(spec, (0, 0), (0, 1)), rel=1e-12)
        assert by_name["fr"].freq_ghz == pytest.approx(
            transition_frequency(spec, (0, 0), (1, 0)), rel=1e-12)
        shift = dispersive_shift(EFF, 0.5, BASIS)
        assert by_name["f01"].chi_mhz == pytest.approx(shift.chi_mhz,
                                                       rel=1e-12)

    def test_periodicity_pointwise(self):
        grid = np.linspace(0.0, 1.0, 11)
        a = flux_sweep(EFF, grid, BASIS)
        b = flux_sweep(EFF, grid + 1.0, BASIS)
        fa = [p.freq_ghz for p in a.points]
        fb = [p.freq_ghz for p in b.points]
        assert np.max(np.abs(np.array(fa) - np.array(fb))) < 1e-9

    def test_symmetry_about_half_flux(self):
        deltas = np.array([0.05, 0.1, 0.15, 0.2])
        up = flux_sweep(EFF, 0.5 + deltas, BASIS)
        dn = flux_sweep(EFF, 0.5 - deltas, BASIS)
        fu = np.array([p.freq_ghz for p in up.points])
        fd = np.array([p.freq_ghz for p in dn.points])
        assert np.max(np.abs(fu - fd)) < 1e-9

    def test_errors_recorded_and_sweep_continues(self):
        sweep = flux_sweep(EFF, [0.1, 0.5], BASIS,
                           transitions=(((0, 0), (0, 99)), "f01"))
        assert len(sweep.errors) == 2            # bad label at each point
        f01_rows = [p for p in sweep.points if p.transition == "f01"]
        assert len(f01_rows) == 2                # good rows still present


class TestConvergenceReport:
    def test_single_rung_has_no_deltas(self):
        rows = convergence_report(EFF, 0.5, [(25, 15)])
        assert len(rows) == 1
        assert rows[0].delta_f01_ghz is None
        assert rows[0].delta_chi_mhz is None

    @pytest.mark.parametrize("ladder", [[(40, 25), (25, 15)],
                                        [(25, 15), (15, 25)]],
                             ids=["descending", "repeated-dim"])
    def test_ladder_must_ascend(self, ladder):
        with pytest.raises(ValueError, match="ascend"):
            convergence_report(EFF, 0.5, ladder)

    def test_ladder_shows_convergence(self):
        rows = convergence_report(EFF, 0.5, [(25, 15), (40, 25), (50, 40)])
        assert abs(rows[2].delta_chi_mhz) < 0.01
        assert abs(rows[2].delta_f01_ghz) < 1e-5
        # f01 converges faster than chi in relative terms
        rel_f01 = abs(rows[1].delta_f01_ghz) / rows[1].f01_ghz
        rel_chi = abs(rows[1].delta_chi_mhz) / abs(rows[1].chi_mhz)
        assert rel_f01 < rel_chi


# the criterion-1 rungs on Lanczos, and a rung just above the crossover
ABOVE_CROSSOVER = [(50, 40), (70, 50), (24, 20)]


class TestLanczosSolve:
    """Matrix-free Lanczos above DENSE_MAX_DIM against the dense solve."""

    @pytest.mark.parametrize("phi", [0.0, 0.26, 0.5])
    @pytest.mark.parametrize("m, n", ABOVE_CROSSOVER)
    def test_parity_with_dense(self, m, n, phi, monkeypatch):
        # from the first labeled solve size and from the largest
        h = build_hamiltonian(EFF, phi, FockBasisSpec(m, n))
        assert h.basis.dim > DENSE_MAX_DIM
        for start in (N_START, N_LOWEST):
            monkeypatch.setattr(spectrum, "N_START", start)
            monkeypatch.setattr(spectrum, "DENSE_MAX_DIM", DENSE_MAX_DIM)
            lanczos = diagonalize_labeled(h, CHI_LABELS)
            monkeypatch.setattr(spectrum, "DENSE_MAX_DIM", h.basis.dim)
            dense = diagonalize_labeled(h, CHI_LABELS)
            assert lanczos.energies.size == dense.energies.size >= start
            assert np.max(np.abs(lanczos.energies - dense.energies)) < 1e-9
            assert lanczos.index_of == dense.index_of
            assert np.max(np.abs(lanczos.confidence
                                 - dense.confidence)) < 1e-9

    def test_rerun_bit_identical(self):
        ladder = [ABOVE_CROSSOVER[-1]]
        assert (convergence_report(EFF, 0.5, ladder)
                == convergence_report(EFF, 0.5, ladder))

    @pytest.mark.parametrize("exc", [
        spectrum.spla.ArpackNoConvergence("no convergence", np.empty(0),
                                          np.empty((0, 0))),
        spectrum.spla.ArpackError(-9999)])
    def test_arpack_failure_is_solver_error(self, exc, monkeypatch):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(spectrum.spla, "eigsh", fail)
        with pytest.raises(SolverError,
                           match=r"dim=1125, non-finite entries in factors=0"):
            convergence_report(EFF, 0.5, [(45, 25)])

    @pytest.mark.parametrize("m, n, calls", [(30, 15, 0), (31, 15, 1)])
    def test_routing_at_crossover(self, m, n, calls, monkeypatch):
        # dim 450 is the last dense one, dim 465 the first on Lanczos
        seen = []
        eigsh = spectrum.spla.eigsh

        def spy(*args, **kwargs):
            seen.append(args[0].shape)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectrum.spla, "eigsh", spy)
        diagonalize_labeled(build_hamiltonian(EFF, 0.5, FockBasisSpec(m, n)),
                            CHI_LABELS)
        assert len(seen) == calls


class TestCertifiedSolve:
    """Labeled lowest-k solves against the N_LOWEST solve they replace."""

    @staticmethod
    def both(h, labels, monkeypatch):
        certified = diagonalize_labeled(h, labels)
        with monkeypatch.context() as mp:
            mp.setattr(spectrum, "N_START", N_LOWEST)
            full = diagonalize_labeled(h, labels)
        assert full.energies.size == N_LOWEST
        return certified, full

    @staticmethod
    def chi_valid(spec):
        levels = [spec.index_of.get(label) for label in CHI_LABELS]
        return None not in levels and min(
            spec.confidence[j] for j in levels) >= MIN_CONFIDENCE

    def test_sweep_grid_matches_full_solve(self, monkeypatch):
        # 101 points, through the avoided crossing near 0.26
        labels = set(CHI_LABELS) | {(0, 2), (2, 0)}
        invalid = 0
        for phi in np.linspace(0.0, 1.0, 101):
            certified, full = self.both(build_hamiltonian(EFF, phi, BASIS),
                                        labels, monkeypatch)
            assert certified.energies.size == N_START
            for label in labels:
                j = certified.index_of[label]
                assert j == full.index_of[label]
                assert abs(certified.energies[j] - full.energies[j]) < 1e-12
            assert self.chi_valid(certified) == self.chi_valid(full)
            invalid += not self.chi_valid(certified)
        assert invalid > 0                # the exclusion zones are covered

    def test_doubling_reaches_full_solve_result(self, monkeypatch):
        sizes = []
        solve = spectrum.solve_hermitian

        def spy(h, lowest=None):
            sizes.append(lowest)
            return solve(h, lowest)

        h = build_hamiltonian(EFF, 0.26, BASIS)
        _, full = self.both(h, CHI_LABELS, monkeypatch)
        monkeypatch.setattr(spectrum, "N_START", 2)
        monkeypatch.setattr(spectrum, "solve_hermitian", spy)
        certified = diagonalize_labeled(h, CHI_LABELS)
        assert sizes[:2] == [2, 4]
        assert sizes[-1] == certified.energies.size
        for label in CHI_LABELS:
            j = certified.index_of[label]
            assert j == full.index_of[label]
            assert abs(certified.energies[j] - full.energies[j]) < 1e-12
            assert abs(certified.confidence[j] - full.confidence[j]) < 1e-12

    def test_label_beyond_lowest_levels_raises(self):
        # the top fluxonium state is in the basis but far above 80 levels
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.5, BASIS),
                                   [(0, 0), (0, 24)])
        assert spec.energies.size == N_LOWEST
        with pytest.raises(LabelError, match="not retained"):
            spec.energy((0, 24))

    @pytest.mark.parametrize("p", [(172.0, 3.4, 5.1), (150.0, 4.0, 6.0)],
                             ids=["truth", "off-truth"])
    def test_coupled_forward_matches_60_pairs(self, p, monkeypatch):
        resonator = {"ls": 2.8, "lr": 21.6, "cr": 20.2}
        basis = FockBasisSpec(20, 8)
        phis = np.tile([0.1, 0.26, 0.5], 2)
        trans = ("f01",) * 3 + ("f02",) * 3

        def forward():
            return estimation._model_freqs_coupled(*p, phis, trans,
                                                   resonator, basis)

        freqs, jac = forward()
        monkeypatch.setattr(spectrum, "N_START", 60)
        freqs_60, jac_60 = forward()
        np.testing.assert_allclose(freqs, freqs_60, rtol=0, atol=1e-10)
        np.testing.assert_allclose(jac, jac_60, rtol=0, atol=1e-10)
