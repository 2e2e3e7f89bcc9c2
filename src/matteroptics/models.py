"""Effective dipole potentials and the beam-splitter scalar parameters.

The full mean-field potential carries the local-field correction through
the density-shifted detuning; three documented limits drop parts of that
correction. All four coincide at zero density. Potentials are returned
as energies (erg); division by hbar happens at the propagator boundary.

The spontaneous emission rate is set to zero inside these potentials:
they are the real, coherent-regime forms. The screened forms and the
beam-splitter scalars guard their denominators through
optics.check_pole, the package's one pole guard.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import MatterOpticsError, ParameterError, SingularDetuningError
from .units import HBAR, PhysicalParams, checked_power, detuning
from .optics import (
    ADIABATIC_RATIO_MIN,
    COLLISION_BOUND_MIN,
    PACKET_BROADNESS_MIN,
    POLE_DISTANCE_MIN,
    check_pole,
    contact_interaction_bound,
    polarizability,
    smallest_magnitude,
    weakest_adiabatic_ratio,
)


class ModelKind(enum.Enum):
    """Which effective potential to use; config/CLI names in .value."""

    FULL = "full"
    SINGLE_PARTICLE = "single"
    GROSS_PITAEVSKII_TYPE = "gp"
    WALLIS_TYPE = "wallis"


@dataclass(frozen=True)
class RamanNathParams:
    """Scalar beam-splitter parameters (V0, g0, tau) at peak density rho_0.

    tau = 2*g0/(1 + v0*rho_0)^2 is derived at construction, so it always
    matches the other three; the beam-splitter pole raises PoleError.
    """

    v0: float  # cm^3
    g0: float
    rho_0: float  # 1/cm^3, the peak density tau is evaluated at
    tau: float = field(init=False)

    def __post_init__(self):
        denom = check_pole(1.0 + self.v0 * self.rho_0, self.rho_0, "beam-splitter")
        tau = 2.0 * self.g0 / checked_power(denom, 2, "1 + V0 rho_0")
        if not math.isfinite(tau):
            raise ParameterError(f"tau = 2 g0 / (1 + V0 rho_0)^2 is not finite: g0 = {self.g0!r}")
        object.__setattr__(self, "tau", tau)


def characteristic_volume(params: PhysicalParams) -> float:
    """Characteristic volume V0 = (4*pi/3)(d^2/(hbar*Delta)), cm^3.

    Density effects on the light-atom coupling become significant when
    V0*rho ~ 1. Odd in the detuning: sign(V0) = sign(Delta).
    """
    delta = detuning(params)
    if delta == 0.0:
        raise SingularDetuningError("characteristic volume undefined at zero detuning")
    return (4.0 * math.pi / 3.0) * checked_power(params.dipole, 2, "dipole") / (HBAR * delta)


def effective_potential(kind: ModelKind, rabi_sq, density, params: PhysicalParams):
    """Effective dipole potential (erg) for `kind` at |Omega|^2 = rabi_sq.

    FULL                  hbar |O|^2 / (4 Delta (1 + V0 rho)^2)
    SINGLE_PARTICLE       hbar |O|^2 / (4 Delta)
    GROSS_PITAEVSKII_TYPE (|O|^2/Delta)(hbar/4 - (2 pi/3)(d^2/Delta) rho)
    WALLIS_TYPE           (hbar/4)|O|^2 / (Delta (1 - (8 pi/3) alpha rho))

    rabi_sq (rad^2/s^2) and density (1/cm^3) may be scalars or numpy
    arrays (broadcast together). Exactly linear in rabi_sq for every
    kind. The two screened kinds error at their denominator poles
    (reachable for Delta < 0), and FULL with a ParameterError where
    (1 + V0 rho)^2 overflows, which would make the potential exactly 0.
    """
    delta = detuning(params)
    if delta == 0.0:
        raise SingularDetuningError("effective potential undefined at zero detuning")
    scalar_in = np.ndim(rabi_sq) == 0 and np.ndim(density) == 0
    rabi = np.asarray(rabi_sq, dtype=float)
    rho = np.asarray(density, dtype=float)

    if kind is ModelKind.SINGLE_PARTICLE:
        out = HBAR * rabi / (4.0 * delta)
    elif kind is ModelKind.FULL:
        v0 = characteristic_volume(params)
        try:
            with np.errstate(over="raise"):  # numpy's own flag check: no extra pass
                denom_sq = check_pole(1.0 + v0 * rho, rho, "full-model") ** 2
        except FloatingPointError:
            raise ParameterError(
                "rho_0 is out of range: the full model's (1 + V0 rho)^2 overflows"
            ) from None
        out = HBAR * rabi / (4.0 * delta * denom_sq)
    elif kind is ModelKind.GROSS_PITAEVSKII_TYPE:
        d_sq = checked_power(params.dipole, 2, "dipole")
        out = (rabi / delta) * (HBAR / 4.0 - (2.0 * math.pi / 3.0) * (d_sq / delta) * rho)
    elif kind is ModelKind.WALLIS_TYPE:
        alpha = polarizability(params)
        denom = check_pole(1.0 - (8.0 * math.pi / 3.0) * alpha * rho, rho, "screened-model")
        out = (HBAR / 4.0) * rabi / (delta * denom)
    else:
        raise ParameterError(f"unknown model kind {kind!r}")

    return float(out) if scalar_in else out


def raman_nath_params(params: PhysicalParams) -> RamanNathParams:
    """Scalar parameters of the standing-wave beam splitter.

    g0 = Omega_0^2 w_L sqrt(pi) / (16 Delta v_g) is the zero-density
    accumulated phase scale; tau = 2 g0 / (1 + V0 rho_0)^2 is the
    Bessel-series argument at peak density.
    """
    v0 = characteristic_volume(params)  # raises at zero detuning
    delta = detuning(params)
    rabi_sq = checked_power(params.rabi_peak, 2, "rabi_peak")
    g0 = rabi_sq * params.w_l * math.sqrt(math.pi) / (16.0 * delta * params.v_g)
    return RamanNathParams(v0=v0, g0=g0, rho_0=params.rho_0)


@dataclass(frozen=True)
class SignificantDensity:
    """Density scales at which dipole-dipole effects become significant.

    exact: 1/|V0|, the density where V0*rho = 1.
    scaling: the order-of-magnitude estimate (|Delta|/gamma) k_l^3/pi;
             None when gamma = 0 (estimate undefined).
    """

    exact: float
    scaling: float | None


def significant_density(params: PhysicalParams) -> SignificantDensity:
    v0 = characteristic_volume(params)
    if v0 == 0.0:
        raise ParameterError(
            "dipole is out of range: V0 underflows to 0, "
            "so the significant density 1/|V0| overflows"
        )
    exact = 1.0 / abs(v0)
    if params.gamma == 0.0:
        return SignificantDensity(exact=exact, scaling=None)
    k_l_cubed = checked_power(params.k_l, 3, "k_l")
    scaling = (abs(detuning(params)) / params.gamma) * k_l_cubed / math.pi
    return SignificantDensity(exact=exact, scaling=scaling)


class RegimeCheck(NamedTuple):
    """One regime check: ok when value >= threshold.

    A check that could not be evaluated has value None, ok False and
    the reason in error.
    """

    value: float | None
    threshold: float
    ok: bool
    error: str | None = None

    @classmethod
    def evaluate(cls, threshold: float, value_fn: Callable[[], float]) -> "RegimeCheck":
        try:
            value = value_fn()
        except MatterOpticsError as exc:
            return cls(None, threshold, False, str(exc))
        return cls(value, threshold, value >= threshold)


def regime_checks(
    params: PhysicalParams, density: float, saturation: float | None = None
) -> dict[str, RegimeCheck]:
    """The regime checks, by name, in report order.

    adiabatic_ratio         |Delta_l| / gamma at this density
    pole_distance           min |1 + V0 rho|, |1 + 2 V0 rho|: distance to the
                            full- and screened-model poles
    packet_broadness        w_y in units of the standing-wave period 2 pi / (n k_L)
    adiabatic_ratio_packet  the smallest adiabatic_ratio over [0, density]
    pole_distance_packet    the smallest pole_distance over [0, density]
    collision_bound         optics.contact_interaction_bound at `saturation`,
                            by default (rabi_peak / Delta)^2; density-free

    [0, density] is the packet's density range, as the propagator's guard sees it.
    A check that cannot be evaluated (zero detuning, say) is an error entry.
    """

    def ratio(rho_lo: float) -> float:
        return weakest_adiabatic_ratio(params, rho_lo, density)[0]

    def distance(rho_lo: float) -> float:
        v0 = characteristic_volume(params)
        return min(
            smallest_magnitude(1.0 + k * v0 * rho_lo, 1.0 + k * v0 * density, rho_lo, density)[0]
            for k in (1.0, 2.0)
        )

    return {
        "adiabatic_ratio": RegimeCheck.evaluate(ADIABATIC_RATIO_MIN, lambda: ratio(density)),
        "pole_distance": RegimeCheck.evaluate(POLE_DISTANCE_MIN, lambda: distance(density)),
        "packet_broadness": RegimeCheck.evaluate(
            PACKET_BROADNESS_MIN,
            lambda: params.w_y * params.harmonic * params.k_l / (2.0 * math.pi),
        ),
        "adiabatic_ratio_packet": RegimeCheck.evaluate(ADIABATIC_RATIO_MIN, lambda: ratio(0.0)),
        "pole_distance_packet": RegimeCheck.evaluate(POLE_DISTANCE_MIN, lambda: distance(0.0)),
        "collision_bound": RegimeCheck.evaluate(
            COLLISION_BOUND_MIN, lambda: contact_interaction_bound(saturation, params)
        ),
    }
