"""Circuit-reduction tests against an exact-rational oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.constants

from gradflux import units
from gradflux import (BranchCircuit, CircuitError, DEVICE_GEOMETRY,
                      LoopGeometry, PHI0, TrappedFluxState,
                      balanced_branch_circuit, effective_flux,
                      field_suppression_factor, flux_from_field,
                      initialization_parity, reduce_circuit)


def rational_reduction(l1, l2, l3, ls, lr):
    """Independent evaluation of the effective inductances in exact rationals.

    Oracle for reduce_circuit: same algebra, zero rounding. Inputs must be
    exactly representable (ints or Fractions).
    """
    l1, l2, l3, ls, lr = map(Fraction, (l1, l2, l3, ls, lr))
    l_sigma2 = l1 * l2 + l2 * l3 + l1 * l3
    l_eps2 = ls * l2 + ls * l3 + l_sigma2
    l_a2 = ls * l2 + l_sigma2
    l_b2 = lr * l3 + l_sigma2
    norm = lr * l_a2 + ls * l_b2
    inv_lq = (l3 * l_sigma2 * (ls + lr) + lr * ls * l2 * l3) \
        / (l_sigma2 * norm) + l1 / l_sigma2
    lq = 1 / inv_lq
    lr_eff = norm / l_eps2
    lrq = norm / (2 * ls * l3) if ls * l3 != 0 else None
    alpha = (l3 - l1 - ls) / (l1 + ls + l3)
    return lq, lr_eff, lrq, alpha


def make_circuit(l1, l2, l3, ls, lr):
    return BranchCircuit(l1=l1, l2=l2, l3=l3, ls=ls, lr=lr,
                         cr=20.2, cj=3.4, ej=5.1)


class TestReduceCircuit:
    def test_parallel_arms_limit(self):
        # ls = 0, l2 = 0, l1 = l3 = 2 lq: the two arms shunt the junction
        # in parallel, so the effective inductance is exactly lq
        for lq in (1.0, 57.3, 500.0):
            eff = reduce_circuit(make_circuit(2 * lq, 0.0, 2 * lq, 0.0, 21.6))
            assert eff.lq == pytest.approx(lq, rel=1e-12)
            assert math.isinf(eff.lrq)
            assert eff.lr == pytest.approx(21.6, rel=1e-12)

    def test_symmetric_arms_zero_asymmetry(self):
        eff = reduce_circuit(make_circuit(10.0, 3.0, 10.0, 0.0, 21.6))
        assert eff.alpha == 0.0

    def test_derived_example_exact_rational(self):
        # l1 = l2 = l3 = 10 nH, ls = 1 nH, lr = 20 nH
        lq, lr_eff, lrq, alpha = rational_reduction(10, 10, 10, 1, 20)
        assert lq == Fraction(335, 22)          # ~15.23 nH
        eff = reduce_circuit(make_circuit(10.0, 10.0, 10.0, 1.0, 20.0))
        assert eff.lq == pytest.approx(float(lq), rel=1e-14)
        assert eff.lr == pytest.approx(float(lr_eff), rel=1e-14)
        assert eff.lrq == pytest.approx(float(lrq), rel=1e-14)
        assert eff.alpha == pytest.approx(float(alpha), rel=1e-14)
        assert eff.lq == pytest.approx(15.23, abs=0.005)

    def test_random_circuits_match_rational_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            vals = rng.integers(1, 10_000, size=5)   # exact in binary fp
            l1, l2, l3, ls, lr = (Fraction(int(v), 16) for v in vals)
            ora = rational_reduction(l1, l2, l3, ls, lr)
            eff = reduce_circuit(make_circuit(*(float(x) for x in
                                                (l1, l2, l3, ls, lr))))
            assert eff.lq == pytest.approx(float(ora[0]), rel=1e-10)
            assert eff.lr == pytest.approx(float(ora[1]), rel=1e-10)
            assert eff.lrq == pytest.approx(float(ora[2]), rel=1e-10)
            assert eff.alpha == pytest.approx(float(ora[3]), rel=1e-10)
            assert abs(eff.alpha) <= 1.0
            assert eff.lq > 0 and eff.lr > 0 and eff.lrq > 0

    def test_half_arm_invariant(self):
        # ls = 0, l2 = 0, l1 = l3 arbitrary: lq = l1/2
        rng = np.random.default_rng(7)
        for arm in rng.uniform(0.5, 900.0, size=20):
            eff = reduce_circuit(make_circuit(arm, 0.0, arm, 0.0, 21.6))
            assert eff.lq == pytest.approx(arm / 2.0, rel=1e-12)

    def test_degenerate_arms_error(self):
        with pytest.raises(ValueError):
            make_circuit(0.0, 5.0, 0.0, 1.0, 20.0)   # l1 = l3 = 0 rejected
        with pytest.raises(CircuitError, match="L_sigma"):
            reduce_circuit(make_circuit(10.0, 0.0, 0.0, 1.0, 20.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_circuit(-1.0, 0.0, 10.0, 0.0, 20.0)
        with pytest.raises(ValueError):
            BranchCircuit(l1=10, l2=0, l3=10, ls=1, lr=20, cr=0.0, cj=3.4,
                          ej=5.1)
        with pytest.raises(ValueError):
            BranchCircuit(l1=10, l2=0, l3=10, ls=1, lr=20, cr=20.2, cj=3.4,
                          ej=-0.1)


class TestBalancedReconstruction:
    def test_roundtrip_lq(self):
        for lq in (50.0, 172.0, 400.0):
            branch = balanced_branch_circuit(lq, 2.8, 21.6, 20.2, 3.4, 5.1)
            eff = reduce_circuit(branch)
            assert eff.lq == pytest.approx(lq, rel=1e-12)
            assert eff.alpha == pytest.approx(0.0, abs=1e-15)
            assert branch.l3 == pytest.approx(branch.l1 + branch.ls)

    def test_zero_shared_inductance(self):
        branch = balanced_branch_circuit(172.0, 0.0, 21.6, 20.2, 3.4, 5.1)
        assert branch.l1 == pytest.approx(2 * 172.0, rel=1e-12)
        eff = reduce_circuit(branch)
        assert math.isinf(eff.lrq)


class TestEffectiveFlux:
    def test_gradiometric_null(self):
        assert effective_flux(3.7, 3.7, 0.0) == 0.0

    def test_odd_fluxon_half_bias(self):
        # one trapped fluxon in symmetric loops: imbalance of a full quantum
        # across the pair pins the device at half flux
        state = TrappedFluxState(1)
        assert state.phi_eff_locked == 0.5
        assert effective_flux(0.5, -0.5, 0.0) == 0.5

    def test_homogeneous_field_through_asymmetry(self):
        # alpha = 1/60 and 60 Phi_0 in each inner loop advances the
        # effective flux by exactly one quantum
        alpha = 1.0 / 60.0
        assert effective_flux(60.0, 60.0, alpha) == pytest.approx(1.0,
                                                                  rel=1e-14)
        assert field_suppression_factor(alpha) == pytest.approx(120.0)

    def test_linearity_and_exchange_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p1, p2, a, c1, c2 = rng.uniform(-3, 3, size=5)
            q1, q2 = rng.uniform(-3, 3, size=2)
            lin = effective_flux(c1 * p1 + c2 * q1, c1 * p2 + c2 * q2, a)
            assert lin == pytest.approx(
                c1 * effective_flux(p1, p2, a)
                + c2 * effective_flux(q1, q2, a), rel=1e-12, abs=1e-12)
            # swapping the loops flips the imbalance term only
            swapped = effective_flux(p2, p1, a)
            direct = effective_flux(p1, p2, a)
            sigma_part = a * 0.5 * (p1 + p2)
            assert (direct - sigma_part) == pytest.approx(
                -(swapped - sigma_part), rel=1e-12, abs=1e-12)

    def test_alpha_zero_ignores_common_mode(self):
        for common in (0.0, 17.0, -123.4):
            assert effective_flux(1.2 + common, 0.9 + common, 0.0) \
                == pytest.approx(0.15, rel=1e-12)


class TestUnits:
    def test_exact_si_constants_match_scipy(self):
        # the literals are the exact SI 2019 values: every derived
        # coefficient is bit-equal to one built on scipy.constants
        h, e = scipy.constants.h, scipy.constants.e
        assert (units.PLANCK, units.ELEMENTARY_CHARGE) == (h, e)
        assert units.PHI0 == h / (2.0 * e)
        assert units.EC_GHZ_FF == e**2 / (2.0 * h) * 1e6
        assert units.EL_GHZ_NH == (h / (2.0 * e) / (2.0 * np.pi)) ** 2 / h


class TestFieldGeometry:
    def test_zero_field(self):
        fluxes = flux_from_field(0.0, DEVICE_GEOMETRY)
        assert fluxes.outer == 0.0 and fluxes.inner1 == 0.0

    def test_calibration_field(self):
        # B0 = 280 nT threads about one flux quantum through 50x150 um^2
        fluxes = flux_from_field(280e-9, DEVICE_GEOMETRY)
        assert fluxes.outer == pytest.approx(1.016, abs=1e-3)
        assert fluxes.inner1 == pytest.approx(fluxes.outer / 2, rel=1e-14)

    def test_linearity(self):
        b100 = 100 * PHI0 / DEVICE_GEOMETRY.outer_area_m2
        assert flux_from_field(b100, DEVICE_GEOMETRY).outer \
            == pytest.approx(100.0, rel=1e-12)

    def test_inner_area_is_half(self):
        geom = LoopGeometry(outer_area_m2=3e-9)
        assert geom.inner_area_m2 == geom.outer_area_m2 / 2

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            LoopGeometry(outer_area_m2=0.0)


class TestInitializationParity:
    def test_single_quantum_cooldown(self):
        state = initialization_parity(280e-9, DEVICE_GEOMETRY)
        assert state.n_fluxons == 1
        assert state.parity == "odd"
        assert state.phi_eff_locked == 0.5

    def test_zero_field_cooldown(self):
        state = initialization_parity(0.0, DEVICE_GEOMETRY)
        assert (state.n_fluxons, state.parity, state.phi_eff_locked) \
            == (0, "even", 0.0)

    def test_rounding(self):
        b = 2.4 * PHI0 / DEVICE_GEOMETRY.outer_area_m2
        state = initialization_parity(b, DEVICE_GEOMETRY)
        assert state.n_fluxons == 2
        assert state.parity == "even"

    def test_half_integer_ties_round_to_even(self):
        geom = LoopGeometry(outer_area_m2=1.0)   # 1 T = 1/PHI0 quanta
        assert initialization_parity(0.5 * PHI0, geom).n_fluxons == 0
        assert initialization_parity(1.5 * PHI0, geom).n_fluxons == 2
        assert initialization_parity(2.5 * PHI0, geom).n_fluxons == 2

    def test_consistency_with_flux_from_field(self):
        rng = np.random.default_rng(11)
        for b in rng.uniform(-20, 20, size=50) * 280e-9:
            n = round(flux_from_field(b, DEVICE_GEOMETRY).outer)
            state = initialization_parity(b, DEVICE_GEOMETRY)
            assert state.parity == ("even" if n % 2 == 0 else "odd")
