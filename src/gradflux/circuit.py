"""Effective circuit model of the gradiometric fluxonium.

The gradiometric atom consists of a Josephson junction shunted by two
superinductor arms, forming two inner loops inside one outer loop, with a
small inductance shared with the readout resonator. This module reduces the
raw branch inductances to the effective single-loop fluxonium parameters
(shunt, resonator, and coupling inductances plus the flux asymmetry), and
handles the field-to-flux geometry and the parity logic of flux trapped
during the initialization cooldown.

All functions are pure; values are immutable dataclasses.
"""

import math
from dataclasses import dataclass

from .units import PHI0, require_finite


class CircuitError(ValueError):
    """Degenerate circuit: a reduction denominator vanished; the message
    names it."""


@dataclass(frozen=True)
class BranchCircuit:
    """Raw lumped elements of the three-loop gradiometric circuit.

    Attributes
    ----------
    l1, l2, l3 : float
        Branch inductances of the gradiometric loops [nH].
    ls : float
        Inductance shared with the readout resonator [nH].
    lr : float
        Readout resonator inductance [nH].
    cr : float
        Readout resonator capacitance [fF].
    cj : float
        Junction (qubit mode) capacitance [fF].
    ej : float
        Josephson energy as a frequency E_J/h [GHz].
    """

    l1: float
    l2: float
    l3: float
    ls: float
    lr: float
    cr: float
    cj: float
    ej: float

    def __post_init__(self):
        for name in ("l1", "l2", "l3", "ls", "lr", "ej"):
            require_finite(name, getattr(self, name), ">=")
        for name in ("cr", "cj"):
            require_finite(name, getattr(self, name), ">")
        if self.l1 <= 0 and self.l3 <= 0:
            raise ValueError("at least one of l1, l3 must be > 0 nH")


@dataclass(frozen=True)
class EffectiveFluxonium:
    """Reduced single-loop fluxonium coupled to its readout mode.

    ``lrq`` may be ``inf``, meaning the inductive coupling is switched off
    (no shared inductance). ``alpha`` is the dimensionless asymmetry entering
    the effective flux; |alpha| <= 1 for physical branch values.
    """

    lq: float       # effective fluxonium shunt inductance [nH]
    lr: float       # effective resonator inductance [nH]
    lrq: float      # effective coupling inductance [nH], may be inf
    cj: float       # qubit capacitance [fF]
    cr: float       # resonator capacitance [fF]
    ej: float       # Josephson energy [GHz]
    alpha: float    # inductance asymmetry (dimensionless)

    def __post_init__(self):
        for name in ("lq", "lr", "cj", "cr"):
            require_finite(name, getattr(self, name), ">")
        require_finite("ej", self.ej, ">=")
        require_finite("alpha", self.alpha)
        if not (self.lrq > 0):   # inf allowed, NaN rejected
            raise ValueError("lrq must be > 0 nH (inf switches coupling off)")


@dataclass(frozen=True)
class LoopGeometry:
    """Loop geometry of the gradiometric device.

    The two inner loops each enclose exactly half of the outer-loop area.
    """

    outer_area_m2: float

    def __post_init__(self):
        require_finite("outer_area_m2", self.outer_area_m2, ">")

    @property
    def inner_area_m2(self) -> float:
        return self.outer_area_m2 / 2.0

    @property
    def field_per_phi0_t(self) -> float:
        """Field that threads one flux quantum through the outer loop [T]."""
        return PHI0 / self.outer_area_m2


#: Geometry of the measured device: 50 x 150 um^2 outer loop.
DEVICE_GEOMETRY = LoopGeometry(outer_area_m2=50e-6 * 150e-6)


@dataclass(frozen=True)
class LoopFluxes:
    """Per-loop fluxes induced by a homogeneous perpendicular field [Phi_0]."""

    outer: float
    inner1: float
    inner2: float


@dataclass(frozen=True)
class TrappedFluxState:
    """Fluxon count trapped in the outer loop and the bias it locks in."""

    n_fluxons: int

    @property
    def parity(self) -> str:
        """Parity of the count, "even" or "odd"."""
        return "even" if self.n_fluxons % 2 == 0 else "odd"

    @property
    def phi_eff_locked(self) -> float:
        """Locked effective bias: 0.0 for even counts, 0.5 for odd [Phi_0]."""
        return 0.0 if self.n_fluxons % 2 == 0 else 0.5


def reduce_circuit(c: BranchCircuit) -> EffectiveFluxonium:
    """Reduce the three-loop branch circuit to the effective fluxonium.

    Returns the effective shunt, resonator, and coupling inductances along
    with the flux asymmetry alpha. A vanishing shared path (ls*l3 == 0)
    yields ``lrq = inf``, i.e. the readout decouples; other vanishing
    denominators raise :class:`CircuitError` naming the quantity.
    """
    l1, l2, l3, ls, lr = c.l1, c.l2, c.l3, c.ls, c.lr

    l_sigma2 = l1 * l2 + l2 * l3 + l1 * l3
    if l_sigma2 == 0.0:
        raise CircuitError(
            "pairwise inductance sum L_sigma^2 = L1 L2 + L2 L3 + L1 L3 "
            "vanishes; the loop arms are degenerate")
    l_eps2 = ls * l2 + ls * l3 + l_sigma2
    l_a2 = ls * l2 + l_sigma2
    l_b2 = lr * l3 + l_sigma2

    shunt_norm = lr * l_a2 + ls * l_b2
    if shunt_norm == 0.0:
        raise CircuitError(
            "coupling denominator Lr*La^2 + Ls*Lb^2 vanishes")
    if l_eps2 == 0.0:
        raise CircuitError("resonator denominator L_eps^2 vanishes")

    inv_lq = (l3 * l_sigma2 * (ls + lr) + lr * ls * l2 * l3) \
        / (l_sigma2 * shunt_norm) + l1 / l_sigma2
    if inv_lq == 0.0:
        raise CircuitError("effective shunt inductance diverges")

    lq = 1.0 / inv_lq
    lr_eff = shunt_norm / l_eps2
    lrq = shunt_norm / (2.0 * ls * l3) if ls * l3 != 0.0 else math.inf
    alpha = (l3 - l1 - ls) / (l1 + ls + l3)

    return EffectiveFluxonium(lq=lq, lr=lr_eff, lrq=lrq,
                              cj=c.cj, cr=c.cr, ej=c.ej, alpha=alpha)


def effective_flux(phi1: float, phi2: float, alpha: float) -> float:
    """Effective flux bias phi_delta + alpha * phi_sigma [Phi_0].

    phi_delta = (phi1 - phi2)/2 is the inner-loop flux imbalance and
    phi_sigma = (phi1 + phi2)/2 the common mode; for a balanced device
    (alpha = 0) only the imbalance matters.
    """
    for name, v in (("phi1", phi1), ("phi2", phi2), ("alpha", alpha)):
        require_finite(name, v)
    phi_delta = 0.5 * (phi1 - phi2)
    phi_sigma = 0.5 * (phi1 + phi2)
    return phi_delta + alpha * phi_sigma


def flux_from_field(b_t: float, geometry: LoopGeometry) -> LoopFluxes:
    """Fluxes threaded by a homogeneous perpendicular field B [T]."""
    require_finite("b_t", b_t)
    outer = b_t * geometry.outer_area_m2 / PHI0
    inner = b_t * geometry.inner_area_m2 / PHI0
    return LoopFluxes(outer=outer, inner1=inner, inner2=inner)


def initialization_parity(b_init_t: float,
                          geometry: LoopGeometry) -> TrappedFluxState:
    """Flux state trapped when cooling through T_c in a field B_init.

    The trapped fluxon count is the integer nearest to the outer-loop flux;
    exact half-integers round to even (documented tie-break). Odd counts lock
    the effective bias at Phi_0/2, even counts at 0.
    """
    flux = flux_from_field(b_init_t, geometry).outer
    n = int(round(flux))               # round-half-to-even
    return TrappedFluxState(n)


def balanced_branch_circuit(lq_eff: float, ls: float, lr: float,
                            cr: float, cj: float, ej: float) -> BranchCircuit:
    """Branch circuit of a balanced gradiometer with a target shunt inductance.

    Builds the zero-asymmetry configuration (l3 = l1 + ls, l2 = 0, so
    alpha = 0 exactly) whose reduction yields the requested effective shunt
    inductance ``lq_eff``. This is the canonical way to obtain the full
    two-mode model from fitted effective parameters.
    """
    require_finite("lq_eff", lq_eff, ">")
    require_finite("ls", ls, ">=")
    require_finite("lr", lr, ">")
    s = ls + lr
    p = ls * lr
    # solve S x^2 + (S Ls + P - 2 S Lq) x + (P Ls - Lq (S Ls + P)) = 0 for L1
    b = s * ls + p - 2.0 * s * lq_eff
    cc = p * ls - lq_eff * (s * ls + p)
    disc = b * b - 4.0 * s * cc
    if disc < 0:
        raise CircuitError("no positive balanced-arm solution")
    l1 = (-b + math.sqrt(disc)) / (2.0 * s)
    if l1 <= 0:
        raise CircuitError("balanced-arm solution not positive")
    return BranchCircuit(l1=l1, l2=0.0, l3=l1 + ls, ls=ls, lr=lr,
                         cr=cr, cj=cj, ej=ej)


def field_suppression_factor(alpha: float) -> float:
    """Homogeneous-field period of the gradiometer relative to a single loop.

    A homogeneous field advances the effective flux through alpha only, so
    the flux-modulation period grows by 2/|alpha| compared to a single loop
    of the full outer area (each inner loop sees half the outer-loop flux).
    Infinite for a perfectly balanced device. The measured suppression may
    also contain a field-gradient contribution this model does not capture.
    """
    require_finite("alpha", alpha)
    if alpha == 0.0:
        return math.inf
    return 2.0 / abs(alpha)
