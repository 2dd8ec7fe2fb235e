"""Unit conventions and physical constants.

Library-wide conventions: inductances in nH, capacitances in fF, energies as
frequencies E/h in GHz, magnetic flux in units of the flux quantum Phi_0, and
magnetic field in tesla. Time-domain quantities use seconds unless a function
says otherwise.

:func:`require_finite` is the one owner of the scalar-input rule: every float
parameter of the library is checked by it, finite and, where physical, > 0 or
>= 0, with a ``ValueError`` that names the parameter.
"""

import math

import numpy as np

#: Planck constant [J s] and elementary charge [C], exact in the SI since
#: 2019 (the values of ``scipy.constants``).
PLANCK = 6.62607015e-34
ELEMENTARY_CHARGE = 1.602176634e-19

#: Superconducting flux quantum h/(2e) in Wb.
PHI0 = PLANCK / (2.0 * ELEMENTARY_CHARGE)

#: Charging-energy coefficient: E_C [GHz] = EC_GHZ_FF / C [fF], E_C = e^2/2C.
EC_GHZ_FF = ELEMENTARY_CHARGE**2 / (2.0 * PLANCK) * 1e6

#: Inductive-energy coefficient: E_L [GHz] = EL_GHZ_NH / L [nH],
#: E_L = (Phi_0/2pi)^2 / L.
EL_GHZ_NH = (PHI0 / (2.0 * np.pi)) ** 2 / PLANCK


def charging_energy(c_ff: float) -> float:
    """E_C/h in GHz for a capacitance in fF."""
    return EC_GHZ_FF / c_ff


def inductive_energy(l_nh: float) -> float:
    """E_L/h in GHz for an inductance in nH."""
    return EL_GHZ_NH / l_nh


def mode_frequency(l_nh: float, c_ff: float) -> float:
    """Harmonic mode frequency 1/(2 pi sqrt(LC)) in GHz."""
    return np.sqrt(8.0 * charging_energy(c_ff) * inductive_energy(l_nh))


def phase_zpf(l_nh: float, c_ff: float) -> float:
    """Zero-point spread of the superconducting phase, (2 E_C / E_L)^(1/4)."""
    return (2.0 * charging_energy(c_ff) / inductive_energy(l_nh)) ** 0.25


def require_finite(name: str, value: float, bound: str = "") -> float:
    """``value`` if it is finite and, for ``bound`` ">" or ">=", so compares
    with 0; else a ``ValueError`` that names ``name``."""
    if (not math.isfinite(value) or (bound == ">" and value <= 0)
            or (bound == ">=" and value < 0)):
        raise ValueError(f"{name} must be finite{bound and f' and {bound} 0'}"
                         f", got {value}")
    return value
