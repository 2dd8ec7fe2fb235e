"""Spectrum tests: harmonic limits, normal-mode oracle, labels, sweeps."""

import math
import re
import sys

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
                               N_LOWEST, HamiltonianMatrix, SolverError,
                               qubit_hamiltonians, solve_hermitian)
from gradflux.units import (charging_energy, inductive_energy, mode_frequency,
                            phase_zpf)

# effective parameters of the measured device (balanced reconstruction)
EFF = reduce_circuit(balanced_branch_circuit(172.0, 2.8, 21.6, 20.2, 3.4, 5.1))
BASIS = FockBasisSpec(25, 15)


def full_spectrum(h):
    """Every level of ``h``, labeled."""
    return spectrum._labeled(h, h.basis.dim)


def start_size(h, labels):
    """1 + the highest position of a label's basis state among the
    uncoupled levels, sorted stably by energy."""
    order = list(np.argsort(h.diagonal, kind="stable"))
    return 1 + max(order.index(mq * h.basis.n_res + nr) for nr, mq in labels)


def solve_sizes(monkeypatch):
    """The pair counts of every labeled solve from here on, in order."""
    sizes = []
    labeled = spectrum._labeled

    def spy(h, lowest):
        sizes.append(lowest)
        return labeled(h, lowest)

    monkeypatch.setattr(spectrum, "_labeled", spy)
    return sizes


def second_order_chi(h):
    """chi [MHz] of ``h`` from second-order perturbation theory in its
    coupling (Zhu, Ferguson, Manucharyan & Koch, Phys. Rev. B 87, 024510
    (2013)), read from its factors alone, and the largest first-order
    admixture amplitude of the four chi states.

    State (i, k) couples to (j, k + 1) by C_ij sqrt(k + 1) across
    e_i - e_j - f_r and to (j, k - 1) by C_ij sqrt(k) across
    e_i - e_j + f_r, so E2(i, k) = sum_j C_ij^2 [k / (e_i - e_j + f_r)
    + (k + 1) / (e_i - e_j - f_r)].
    """
    e = h.diagonal.reshape(h.basis.m_qubit, h.basis.n_res)[:, 0]
    f_r = h.diagonal[1] - h.diagonal[0]
    c = h.coupling
    # C_ij over the detuning to (j, k + 1) and to (j, k - 1), for i = 0, 1
    up = c[:2] / (e[:2, None] - e - f_r)
    down = c[:2] / (e[:2, None] - e + f_r)

    def e2(i, k):
        return c[i] @ (k * down[i] + (k + 1) * up[i])

    chi = (e2(1, 1) - e2(1, 0)) - (e2(0, 1) - e2(0, 0))
    # at k <= 1 the largest matrix elements are sqrt(2) C_ij up, C_ij down
    return 1e3 * chi, max(np.abs(np.sqrt(2.0) * up).max(), np.abs(down).max())


def uncoupled(ej=0.0, lq=100.0, lr=20.0, cj=3.0, cr=18.0):
    return EffectiveFluxonium(lq=lq, lr=lr, lrq=math.inf, cj=cj, cr=cr,
                              ej=ej, alpha=0.0)


class TestHarmonicLimits:
    def test_two_uncoupled_oscillators(self):
        eff = uncoupled()
        f_q = mode_frequency(eff.lq, eff.cj)
        f_r = mode_frequency(eff.lr, eff.cr)
        basis = FockBasisSpec(6, 5)
        spec = full_spectrum(build_hamiltonian(eff, 0.3, basis))
        expected = np.sort([m * f_q + n * f_r
                            for m in range(6) for n in range(5)])
        assert np.max(np.abs(spec.energies - expected)) < 1e-9

    def test_flux_independent_without_junction(self):
        eff = uncoupled()
        w1 = full_spectrum(build_hamiltonian(eff, 0.1, BASIS)).energies
        w2 = full_spectrum(build_hamiltonian(eff, 0.9, BASIS)).energies
        assert np.max(np.abs(w1 - w2)) < 1e-12

    def test_labels_are_product_indices(self):
        eff = uncoupled()
        f_q = mode_frequency(eff.lq, eff.cj)
        f_r = mode_frequency(eff.lr, eff.cr)
        basis = FockBasisSpec(5, 4)
        labels = [(nr, mq) for mq in range(3) for nr in range(3)]
        spec = diagonalize_labeled(build_hamiltonian(eff, 0.0, basis), labels)
        for nr, mq in labels:
            assert spec.energy((nr, mq)) == pytest.approx(
                mq * f_q + nr * f_r, abs=1e-9)

    @pytest.mark.parametrize("lowest", [2])
    def test_solver_failure_carries_diagnostics(self, lowest):
        bad = HamiltonianMatrix(diagonal=np.r_[np.nan, np.ones(11)],
                                coupling=np.zeros((4, 4)),
                                basis=FockBasisSpec(4, 3),
                                qubit_vectors=np.eye(4))
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

        spec = full_spectrum(build_hamiltonian(eff, 0.2,
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
            atol = 1e-12 * np.abs(h.matrix).max()
            x = rng.normal(size=h.basis.dim)
            assert np.allclose(h.matvec(x), h.matrix @ x, rtol=0.0, atol=atol)
            # a block, C-ordered and as the transposed rows _davidson passes
            rows = rng.normal(size=(3, h.basis.dim))
            for block in (np.ascontiguousarray(rows.T), rows.T):
                assert np.allclose(h.matvec(block), h.matrix @ block,
                                   rtol=0.0, atol=atol)

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
        def boom(message):
            def fail(*args, **kwargs):
                raise AssertionError(message)
            return fail

        def only_in_solve_lowest(solve):
            def checked(*args, **kwargs):
                if sys._getframe(1).f_code is not (
                        spectrum._solve_lowest.__code__):
                    raise AssertionError("dense solve outside _solve_lowest")
                return solve(*args, **kwargs)
            return checked

        # numpy's full solves are _solve_lowest's own; scipy's eigh is no one's
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name,
                                only_in_solve_lowest(getattr(np.linalg, name)))
        monkeypatch.setattr(scipy.linalg, "eigh",
                            boom("dense solve outside _solve_lowest"))
        spectrum._phase_eigenbasis.cache_clear()
        small = FockBasisSpec(12, 16)
        assert small.dim <= DENSE_MAX_DIM < BASIS.dim
        h = build_hamiltonian(EFF, 0.5, BASIS)
        assert solve_hermitian(h, BASIS.dim)[0].shape == (BASIS.dim,)
        assert solve_hermitian(h, 16)[1].shape == (BASIS.dim, 16)
        assert solve_hermitian(build_hamiltonian(EFF, 0.5, small),
                               16)[1].shape == (small.dim, 16)
        single_loop_transitions(172.0, 3.4, 5.1, [0.3, 0.5], 30)
        assert dispersive_shift(EFF, 0.5, BASIS).valid
        assert flux_sweep(EFF, [0.5], BASIS).points
        # a Davidson solve stays in numpy's LAPACK and BLAS thread pool
        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr",
                            boom("dsyevr inside a Davidson solve"))
        assert spectrum._davidson(h, N_LOWEST)[1].shape == (BASIS.dim,
                                                            N_LOWEST)

    @pytest.mark.parametrize("phi", [0.0, 0.26, 0.5])
    def test_builder_and_gradient_share_one_basis(self, phi):
        m, n = BASIS.m_qubit, BASIS.n_res
        levels, _ = single_loop_transitions(EFF.lq, EFF.cj, EFF.ej, phi, m=m,
                                            n_levels=m)
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
            spec = full_spectrum(build_hamiltonian(eff, phi, basis))
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
        labels = [(0, m) for m in range(10)]
        for phi_delta in np.linspace(0.0, 1.0, 5):
            spec = diagonalize_labeled(build_hamiltonian(eff, phi_delta,
                                                         basis), labels)
            reference = single_loop_transitions(lq, cj, ej, phi_delta, 25,
                                                n_levels=25)[0][0]
            qubit_sector = np.array([spec.energy(label) for label in labels])
            assert np.max(np.abs(qubit_sector - reference[:10])) < 1e-6

    def test_harmonic_ladder_without_junction(self):
        w = single_loop_transitions(100.0, 3.0, 0.0, 0.3, 20,
                                    n_levels=20)[0][0]
        f_q = mode_frequency(100.0, 3.0)
        assert np.max(np.abs(np.diff(w) - f_q)) < 1e-9

    def test_half_flux_gap_shrinks_with_ej(self):
        gaps = []
        for ej in (5.1, 8.0, 12.0, 20.0):
            w = single_loop_transitions(172.0, 3.4, ej, 0.5, 40,
                                        n_levels=40)[0][0]
            gaps.append(w[1] - w[0])
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_reference_converged_at_double_basis(self):
        w40 = single_loop_transitions(172.0, 3.4, 5.1, 0.5, 40)[0][0]
        w80 = single_loop_transitions(172.0, 3.4, 5.1, 0.5, 80)[0][0]
        f40, f80 = w40[1] - w40[0], w80[1] - w80[0]
        assert abs(f40 - f80) < 1e-6   # < 1 kHz on basis doubling
        assert f80 == pytest.approx(3.904685, abs=2e-5)


class TestLabeledTransitions:
    def test_same_label_zero(self):
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.5, BASIS),
                                   [(0, 1)])
        assert transition_frequency(spec, (0, 1), (0, 1)) == 0.0

    def test_harmonic_f01(self):
        eff = uncoupled()
        spec = diagonalize_labeled(build_hamiltonian(eff, 0.0,
                                                     FockBasisSpec(8, 4)),
                                   CHI_LABELS)
        assert transition_frequency(spec, (0, 0), (0, 1)) == pytest.approx(
            mode_frequency(eff.lq, eff.cj), abs=1e-9)

    def test_sweet_spot_f01_frozen_oracle(self):
        # dressed f01 at half flux; converged dense-diagonalization value
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.5, BASIS),
                                   CHI_LABELS)
        assert transition_frequency(spec, (0, 0), (0, 1)) == pytest.approx(
            3.902433, abs=1e-4)

    def test_level_ordering_away_from_crossings(self):
        # at low flux f01 lies above the readout: order (0,0),(1,0),(0,1)
        order = [(0, 0), (1, 0), (0, 1)]
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.05, BASIS), order)
        assert [spec.index_of[label] for label in order] == [0, 1, 2]
        bigger = diagonalize_labeled(
            build_hamiltonian(EFF, 0.05, FockBasisSpec(35, 21)), order)
        assert [bigger.index_of[label] for label in order] == [0, 1, 2]
        for j in range(3):
            assert abs((bigger.energies[j] - bigger.energies[0])
                       - (spec.energies[j] - spec.energies[0])) < 1e-4

    def test_unresolved_label_near_crossing(self):
        # at phi = 0.26 the (1,1) level hybridizes strongly with (0,2)
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.26, BASIS),
                                   CHI_LABELS)
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
        full = full_spectrum(h)
        labels = [(nr, mq) for nr in range(3) for mq in range(3)]
        low = diagonalize_labeled(h, labels)
        k = low.energies.size
        assert start_size(h, labels) <= k < full.energies.size
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

    @pytest.mark.parametrize("basis, fluxes", [
        (BASIS, np.linspace(0.0, 0.5, 51)),
        (FockBasisSpec(70, 50), [0.0, 0.1, 0.4, 0.5])], ids=["25x15", "70x50"])
    def test_second_order_perturbation_oracle(self, basis, fluxes):
        """The numerical chi against second-order perturbation theory.

        Both the perturbative error and the labels' lost overlap are second
        order in the admixture amplitudes, so the relative deviation is
        bounded by a multiple of 1 - min_overlap: over the 51 fluxes at
        25x15 the ratio spans 0.84-2.1, peaking at 0.24 beside the qubit-
        readout crossing. Every flagged point must lie where the expansion
        breaks down, a chi state being admixed with amplitude >= 1/2.
        """
        valid = 0
        for phi in fluxes:
            shift = dispersive_shift(EFF, phi, basis)
            chi, amplitude = second_order_chi(
                build_hamiltonian(EFF, phi, basis))
            if not shift.valid:
                assert amplitude >= 0.5, phi
                continue
            valid += 1
            assert np.sign(chi) == np.sign(shift.chi_mhz), phi
            assert (abs(chi - shift.chi_mhz) / abs(shift.chi_mhz)
                    <= 2.5 * (1.0 - shift.min_overlap)), phi
        assert valid >= 0.9 * len(fluxes)

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
        spec = diagonalize_labeled(build_hamiltonian(EFF, 0.5, BASIS),
                                   CHI_LABELS)
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

    def test_solver_error_recorded_for_the_point(self, monkeypatch):
        # the few-pair solves at dim 375 run Davidson, here capped at one
        # iteration: each point's failure is recorded and the next is tried
        monkeypatch.setattr(spectrum, "MAX_ITER", 1)
        sweep = flux_sweep(EFF, [0.3, 0.5], BASIS, transitions=("f01", "fr"))
        assert sweep.points == []
        assert [(e.flux_phi0, e.transition) for e in sweep.errors] == [
            (0.3, "*"), (0.5, "*")]
        for e in sweep.errors:
            assert re.search(r"no convergence in 1 iterations \[dim=375, "
                             r"non-finite entries in factors=0\]", e.message)


class TestFluxFold:
    """Mirrored and periodic fluxes share one solve: period Phi_0 and
    mirror symmetry about 0 and Phi_0/2."""

    def test_device_grid_solves_51_of_101_points(self, monkeypatch):
        built = []
        build = spectrum.build_hamiltonian

        def spy(eff, phi, basis):
            built.append(phi)
            return build(eff, phi, basis)

        monkeypatch.setattr(spectrum, "build_hamiltonian", spy)
        grid = np.linspace(0.0, 1.0, 101)
        sweep = flux_sweep(EFF, grid, BASIS, transitions=("f01", "fr"))
        assert len(built) == 51 and not sweep.errors
        assert all(0.0 <= phi <= 0.5 for phi in built)
        # rows come in grid order, f01 then fr; phi and 1 - phi are bit-equal
        rows = [(p.freq_ghz, p.chi_mhz) for p in sweep.points]
        assert [p.flux_phi0 for p in sweep.points[::2]] == list(grid)
        for i in range(101):
            assert rows[2 * i:2 * i + 2] == rows[200 - 2 * i:202 - 2 * i]

    def test_shifted_and_mirrored_grids_agree(self):
        grid = np.linspace(0.0, 1.0, 11)
        sweeps = [flux_sweep(EFF, g, BASIS, transitions=("f01", "fr"))
                  for g in (grid, grid + 1.0, 1.0 - grid)]
        freqs = np.array([[p.freq_ghz for p in s.points] for s in sweeps])
        chis = np.array([[p.chi_mhz for p in s.points] for s in sweeps])
        assert np.max(np.abs(freqs - freqs[0])) < 1e-12
        assert np.max(np.abs(chis - chis[0])) < 1e-9

    def test_fold_rule(self):
        reps, inverse, sign = spectrum.fold_flux(
            [0.7, 0.3, 1.3, -0.3, 0.5, 0.3 + 1e-9, 0.0, 1.0])
        np.testing.assert_array_equal(reps, [0.0, 0.3, 0.3 + 1e-9, 0.5])
        np.testing.assert_array_equal(inverse, [1, 1, 1, 1, 3, 2, 0, 0])
        np.testing.assert_array_equal(sign, [-1, 1, 1, -1, 1, 1, 1, 1])

    def test_representatives_ignore_grid_order(self):
        grid = np.linspace(0.05, 0.95, 40)
        reps, inverse, _ = spectrum.fold_flux(grid)
        perm = np.random.default_rng(0).permutation(grid.size)
        reps_s, inverse_s, _ = spectrum.fold_flux(grid[perm])
        assert reps.size == 20
        np.testing.assert_array_equal(reps_s, reps)
        np.testing.assert_array_equal(inverse_s, inverse[perm])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_flux_rejected(self, bad):
        with pytest.raises(ValueError, match="fluxes must be finite"):
            spectrum.fold_flux([0.3, bad, 0.7])

    def test_sweep_rejects_non_finite_flux(self):
        with pytest.raises(ValueError, match="fluxes must be finite"):
            flux_sweep(EFF, [0.3, np.inf])

    def test_chi_and_ladder_fold_like_the_sweep(self):
        # a lone chi or ladder solve runs at the folded flux, as the sweep's
        chi = dispersive_shift(EFF, 0.5, BASIS).chi_mhz
        for phi in (100.5, -0.5, 1.5):
            assert dispersive_shift(EFF, phi, BASIS).chi_mhz == chi
        ladder = [(25, 15), (24, 20)]
        assert (convergence_report(EFF, 100.5, ladder)
                == convergence_report(EFF, 0.5, ladder))
        row = flux_sweep(EFF, [0.7], BASIS).points[0]
        shift = dispersive_shift(EFF, 0.7, BASIS)
        assert shift.valid and shift.chi_mhz == row.chi_mhz

    def test_solver_error_recorded_at_every_mirrored_point(self,
                                                            monkeypatch):
        monkeypatch.setattr(spectrum, "MAX_ITER", 1)
        sweep = flux_sweep(EFF, [0.7, 0.5, 0.3], BASIS)
        assert sweep.points == []
        assert [(e.flux_phi0, e.transition) for e in sweep.errors] == [
            (0.7, "*"), (0.5, "*"), (0.3, "*")]
        assert sweep.errors[0].message == sweep.errors[2].message
        assert "no convergence in 1 iterations" in sweep.errors[0].message


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


def no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# the criterion-1 rungs on the Davidson solve, and a rung just above the
# crossover
ABOVE_CROSSOVER = [(50, 40), (70, 50), (24, 20)]


class TestLanczosSolve:
    """Matrix-free block Davidson above DENSE_MAX_DIM against the dense
    solve."""

    @pytest.mark.parametrize("phi", [0.0, 0.26, 0.5])
    @pytest.mark.parametrize("m, n", ABOVE_CROSSOVER)
    def test_parity_with_dense(self, m, n, phi, monkeypatch):
        # the labeled solve, and the largest solve a labeled one reaches
        h = build_hamiltonian(EFF, phi, FockBasisSpec(m, n))
        assert h.basis.dim > DENSE_MAX_DIM
        for solve in (lambda: diagonalize_labeled(h, CHI_LABELS),
                      lambda: spectrum._labeled(h, N_LOWEST)):
            # 0, not DENSE_MAX_DIM: the bound grows with the pair count, to
            # 768 at N_LOWEST, which would leave the 24x20 solve dense
            monkeypatch.setattr(spectrum, "DENSE_MAX_DIM", 0)
            davidson = solve()
            monkeypatch.setattr(spectrum, "DENSE_MAX_DIM", h.basis.dim)
            dense = solve()
            assert davidson.energies.size == dense.energies.size
            assert np.max(np.abs(davidson.energies - dense.energies)) < 1e-11
            assert davidson.index_of == dense.index_of
            assert np.max(np.abs(davidson.confidence
                                 - dense.confidence)) < 1e-9

    def test_rerun_bit_identical(self):
        ladder = [ABOVE_CROSSOVER[-1]]
        assert (convergence_report(EFF, 0.5, ladder)
                == convergence_report(EFF, 0.5, ladder))

    @pytest.mark.parametrize("exc", [
        (spectrum, "MAX_ITER", 1),
        (np.linalg, "eigh", no_convergence)])
    def test_davidson_failure_is_solver_error(self, exc, monkeypatch):
        # the solve fails at its iteration cap (exc0) or in its inner dense
        # solve (exc1)
        h = build_hamiltonian(EFF, 0.5, FockBasisSpec(45, 25))
        monkeypatch.setattr(*exc)
        with pytest.raises(SolverError,
                           match=r"dim=1125, non-finite entries in factors=0"
                           ) as err:
            diagonalize_labeled(h, CHI_LABELS)
        assert str(err.value).count("[dim=") == 1

    @pytest.mark.parametrize("m, n, calls", [(12, 16, 0), (13, 15, 1)])
    def test_routing_at_crossover(self, m, n, calls, monkeypatch):
        # dim 192 is the last dense one for a few pairs, dim 195 on Davidson;
        # a full solve is dense on either side
        seen = []
        davidson = spectrum._davidson

        def spy(h, k):
            seen.append(h.shape)
            return davidson(h, k)

        monkeypatch.setattr(spectrum, "_davidson", spy)
        h = build_hamiltonian(EFF, 0.5, FockBasisSpec(m, n))
        diagonalize_labeled(h, CHI_LABELS)
        assert len(seen) == calls
        assert spectrum._labeled(h, h.basis.dim).energies.size == h.basis.dim
        assert len(seen) == calls

    def test_coupled_fit_basis_stays_dense(self, monkeypatch):
        # the coupled forward model's 20x8 basis (dim 160) over a flux sweep,
        # whose 21 fluxes on [0, 1] fold to 11
        def never(h, k):
            raise AssertionError(f"Davidson solve at dim {h.basis.dim}")

        monkeypatch.setattr(spectrum, "_davidson", never)
        sizes = solve_sizes(monkeypatch)
        phis = np.linspace(0.0, 1.0, 21)
        estimation._model_freqs_coupled(
            172.0, 3.4, 5.1, phis, ("f01", "f02") * 10 + ("f01",),
            {"ls": 2.8, "lr": 21.6, "cr": 20.2}, estimation.COUPLED_BASIS)
        assert estimation.COUPLED_BASIS.dim == 160
        assert len(sizes) == 11


class TestDavidsonAgainstDense:
    """The Davidson solve against the dense one on the same matrix, forced
    by DENSE_MAX_DIM, at the first and at the largest labeled solve size."""

    @staticmethod
    def both(h, k, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(spectrum, "DENSE_MAX_DIM", 0)
            davidson = spectrum._labeled(h, k)
            mp.setattr(spectrum, "DENSE_MAX_DIM", h.basis.dim)
            dense = spectrum._labeled(h, k)
        return davidson, dense

    def assert_same(self, h, monkeypatch):
        for k in (start_size(h, CHI_LABELS), N_LOWEST):
            davidson, dense = self.both(h, k, monkeypatch)
            assert np.max(np.abs(davidson.energies - dense.energies)) < 1e-11
            assert davidson.index_of == dense.index_of
            assert np.max(np.abs(davidson.confidence
                                 - dense.confidence)) < 1e-9

    def test_device_sweep(self, monkeypatch):
        for phi in np.linspace(0.0, 1.0, 101):
            self.assert_same(build_hamiltonian(EFF, phi, BASIS), monkeypatch)

    def test_random_circuits(self, monkeypatch):
        rng = np.random.default_rng(11)
        for strong in (True, False, False, False):
            lq, lr, lrq = rng.uniform(10, 500, 3)
            cj, cr = rng.uniform(1, 30, 2)
            # strong: half the inductive coupling at which H loses its
            # lower bound, about 20 times the device's
            eff = EffectiveFluxonium(lq=lq, lr=lr,
                                     lrq=math.sqrt(lq * lr) if strong else lrq,
                                     cj=cj, cr=cr, ej=rng.uniform(0, 12),
                                     alpha=0.0)
            self.assert_same(build_hamiltonian(eff, rng.uniform(0, 1), BASIS),
                             monkeypatch)

    def test_uncoupled_converges_at_the_start(self, monkeypatch):
        # the start block's unit vectors are eigenvectors: zero residuals
        h = build_hamiltonian(uncoupled(ej=5.1), 0.3, BASIS)
        self.assert_same(h, monkeypatch)
        monkeypatch.setattr(spectrum, "MAX_ITER", 1)
        for k in (start_size(h, CHI_LABELS), N_LOWEST):
            davidson, _ = self.both(h, k, monkeypatch)
            assert np.array_equal(davidson.energies, np.sort(h.diagonal)[:k])
            assert np.all(davidson.confidence == 1.0)

    def test_exact_degeneracies_at_the_block_edge(self, monkeypatch):
        # f_r = 2 f_q exactly: level m_q + 2 n_r is (m_q + 2 n_r) f_q, and
        # the chi labels' 5 levels, their 7-vector start block and the 80th
        # level each split a degenerate group. Within such a group either
        # solver may order and pick the levels differently, so compare each
        # kept label's energy.
        eff = EffectiveFluxonium(lq=100.0, lr=25.0, lrq=math.inf, cj=4.0,
                                 cr=4.0, ej=0.0, alpha=0.0)
        f_q = mode_frequency(eff.lq, eff.cj)
        assert mode_frequency(eff.lr, eff.cr) == 2.0 * f_q
        h = build_hamiltonian(eff, 0.3, BASIS)
        assert start_size(h, CHI_LABELS) == 5
        for k in (start_size(h, CHI_LABELS), N_LOWEST):
            for spec in self.both(h, k, monkeypatch):
                assert np.array_equal(spec.energies,
                                      np.sort(h.diagonal)[:k])
                assert np.all(spec.confidence == 1.0)
                for (nr, mq), j in spec.index_of.items():
                    assert spec.energies[j] == h.diagonal[mq * BASIS.n_res
                                                          + nr]


class TestCertifiedSolve:
    """Labeled lowest-k solves against the N_LOWEST solve they replace."""

    @staticmethod
    def chi_valid(spec):
        levels = [spec.index_of.get(label) for label in CHI_LABELS]
        return None not in levels and min(
            spec.confidence[j] for j in levels) >= MIN_CONFIDENCE

    def assert_matches_full(self, h, labels, sizes):
        """One solve at the start size, with the labels, energies and chi
        validity of the N_LOWEST solve; returns that validity. ``sizes``
        is a :func:`solve_sizes` list."""
        full = spectrum._labeled(h, N_LOWEST)
        sizes.clear()
        certified = diagonalize_labeled(h, labels)
        assert sizes == [start_size(h, labels)]
        for label in labels:
            j = certified.index_of[label]
            assert j == full.index_of[label]
            assert abs(certified.energies[j] - full.energies[j]) < 1e-12
        assert self.chi_valid(certified) == self.chi_valid(full)
        return self.chi_valid(certified)

    def test_sweep_grid_matches_full_solve(self, monkeypatch):
        # 101 points, through the avoided crossing near 0.26
        labels = set(CHI_LABELS) | {(0, 2), (2, 0)}
        sizes = solve_sizes(monkeypatch)
        invalid = 0
        for phi in np.linspace(0.0, 1.0, 101):
            h = build_hamiltonian(EFF, phi, BASIS)
            invalid += not self.assert_matches_full(h, labels, sizes)
        assert invalid > 0                # the exclusion zones are covered

    def test_start_certifies_device_sweep_and_ladder(self, monkeypatch):
        # the chi labels, which a sweep of f01 and fr also reads, at the
        # 101 sweep points and on the four chi-ladder rungs at half flux
        sizes = solve_sizes(monkeypatch)
        for phi in np.linspace(0.0, 1.0, 101):
            self.assert_matches_full(build_hamiltonian(EFF, phi, BASIS),
                                     CHI_LABELS, sizes)
        for m, n in ((25, 15), (40, 25), (50, 40), (70, 50)):
            h = build_hamiltonian(EFF, 0.5, FockBasisSpec(m, n))
            assert self.assert_matches_full(h, CHI_LABELS, sizes)

    def test_doubling_reaches_full_solve_result(self, monkeypatch):
        # at 0.26 the nine labels up to n_r, m_q = 2 fail the certificate at
        # their start size and hold at twice it
        h = build_hamiltonian(EFF, 0.26, BASIS)
        labels = [(nr, mq) for nr in range(3) for mq in range(3)]
        full = spectrum._labeled(h, N_LOWEST)
        sizes = solve_sizes(monkeypatch)
        certified = diagonalize_labeled(h, labels)
        start = start_size(h, labels)
        assert sizes == [start, 2 * start]
        assert certified.energies.size == 2 * start
        for label in labels:
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

    @pytest.mark.parametrize("rank", [N_LOWEST - 1, N_LOWEST, N_LOWEST + 7])
    def test_start_is_capped_at_lowest(self, rank, monkeypatch):
        # a label whose basis state ranks at or above N_LOWEST - 1 among the
        # uncoupled levels is solved once, at N_LOWEST levels
        h = build_hamiltonian(EFF, 0.5, BASIS)
        mq, nr = divmod(int(np.argsort(h.diagonal, kind="stable")[rank]),
                        BASIS.n_res)
        assert start_size(h, [(0, 0), (nr, mq)]) == rank + 1
        sizes = solve_sizes(monkeypatch)
        diagonalize_labeled(h, [(0, 0), (nr, mq)])
        assert sizes == [N_LOWEST]

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

        sizes = solve_sizes(monkeypatch)
        freqs, jac = forward()
        # one solve per distinct flux, for its f01 and f02 rows together
        assert len(sizes) == 3 and max(sizes) < 60
        # every row from one 60-pair solve, with no certificate
        monkeypatch.setattr(spectrum, "diagonalize_labeled",
                            lambda h, labels: spectrum._labeled(h, 60))
        freqs_60, jac_60 = forward()
        assert len(sizes) == 6 and set(sizes[3:]) == {60}
        np.testing.assert_allclose(freqs, freqs_60, rtol=0, atol=1e-10)
        np.testing.assert_allclose(jac, jac_60, rtol=0, atol=1e-10)
