"""Density-dependent optical response of the gas.

Local-field physics in Gaussian-CGS form: the field acting on one atom
inside the medium is E_loc = E_mac + (4*pi/3) P, which resums into the
Lorentz-Lorenz susceptibility chi = alpha*rho / (1 - (4*pi/3) alpha*rho)
and the Clausius-Mossotti refractive index
n^2 = (1 + (8*pi/3) alpha*rho) / (1 - (4*pi/3) alpha*rho).

Every function takes density as an explicit argument so it can be mapped
over spatial density profiles. All functions are pure: same inputs give
bit-identical outputs.

check_pole is the one guard on every local-field denominator in the
package (1 - (4*pi/3) alpha rho here, 1 + V0 rho and its relatives in
models, diffraction and bloch): each formula keeps its own arithmetic
and hands its denominator to it, which must be affine in the density
passed with it, as every local-field factor is. smallest_magnitude is
the range rule it shares with check_adiabatic and the regime checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, PhysicsGuardError, PoleError, SingularDetuningError
from .units import HBAR, C_LIGHT, PhysicalParams, checked_divisor, checked_power, detuning

# Guard distance on medium-response denominators. The natural scale of
# each denominator is 1 (its zero-density value), so the absolute and
# relative guards coincide. Evaluation closer to a pole than this errors
# instead of returning a huge value that downstream formulas would amplify.
EPS_POLE = 1e-12

# Regime thresholds, one per check of models.regime_checks: a check
# holds when its value is at least its threshold. They are reported
# conventions, not hard physics constants.
ADIABATIC_RATIO_MIN = 10.0  # |Delta_l| / gamma
POLE_DISTANCE_MIN = 0.1  # min |1 + V0 rho| and |1 + 2 V0 rho|
PACKET_BROADNESS_MIN = 10.0  # packet width in units of 2 pi / (n k_L)
COLLISION_BOUND_MIN = 10.0  # contact_interaction_bound


@dataclass(frozen=True)
class MediumResponse:
    """Optics bundle (alpha, chi, n^2, local detuning) at one density."""

    alpha: float  # cm^3
    chi: float
    n_squared: float
    local_detuning: float  # rad/s
    density: float  # 1/cm^3

    def __post_init__(self):
        if self.density < 0.0:
            raise ParameterError(f"density must be nonnegative, got {self.density!r}")
        if not (math.isfinite(self.chi) and math.isfinite(self.n_squared)):
            raise ParameterError("chi and n_squared must be finite")


def polarizability(params: PhysicalParams) -> float:
    """Linear atomic polarizability alpha = -d^2/(hbar*Delta), cm^3.

    Negative for blue detuning (Delta > 0), positive for red.
    """
    delta = detuning(params)
    if delta == 0.0:
        raise SingularDetuningError("polarizability undefined at zero detuning")
    return -checked_power(params.dipole, 2, "dipole") / (HBAR * delta)


def smallest_magnitude(lo: float, hi: float, rho_lo: float, rho_hi: float) -> tuple[float, float]:
    """(min |f|, density) over [rho_lo, rho_hi] of f affine in the density.

    lo and hi are f at rho_lo and rho_hi. An affine f is monotone, so its
    smallest magnitude lies at one end of the range, or is 0 at the root
    where f changes sign inside it.
    """
    if min(lo, hi) < 0.0 < max(lo, hi):
        return 0.0, rho_lo + (rho_hi - rho_lo) * lo / (lo - hi)
    if abs(lo) <= abs(hi):
        return abs(lo), rho_lo
    return abs(hi), rho_hi


def check_pole(denominator, density, label: str):
    """Return denominator, or raise PoleError where |denominator| <= EPS_POLE.

    denominator and density are floats, or arrays of one shape. An array
    is guarded over the density range it spans, so a root between samples
    raises and is reported at its density. Floats take a plain path with
    no numpy call.
    """
    if isinstance(denominator, float):
        d, at = abs(denominator), float(density)
    else:
        i, j = int(density.argmin()), int(density.argmax())
        d, at = smallest_magnitude(
            float(denominator.flat[i]), float(denominator.flat[j]),
            float(density.flat[i]), float(density.flat[j]),
        )
    if d <= EPS_POLE:
        raise PoleError(f"{label} pole: |denominator| = {d:.3e} at density {at:.3e}", density=at)
    return denominator


def check_adiabatic(params: PhysicalParams, rho_lo: float, rho_hi: float) -> None:
    """Raise PhysicsGuardError where |Delta_l| / gamma < ADIABATIC_RATIO_MIN on [rho_lo, rho_hi].

    The one adiabatic guard, as check_pole is the one pole guard.
    """
    ratio, at = weakest_adiabatic_ratio(params, rho_lo, rho_hi)
    if ratio < ADIABATIC_RATIO_MIN:
        raise PhysicsGuardError(
            f"adiabatic elimination invalid: |Delta_l|/gamma = {ratio:.3g} "
            f"< {ADIABATIC_RATIO_MIN:g} at density {at:.3e}"
        )


def _clausius_mossotti(alpha: float, density: float) -> tuple[float, float]:
    # (x, 1 - x) with x = (4*pi/3) alpha rho, the denominator guarded
    x = (4.0 * math.pi / 3.0) * alpha * density
    return x, check_pole(1.0 - x, density, "Clausius-Mossotti")


def susceptibility(alpha: float, density: float) -> float:
    """Lorentz-Lorenz susceptibility chi = alpha*rho / (1 - (4*pi/3) alpha*rho)."""
    if density == 0.0:
        return 0.0  # not -0.0, which alpha*density would give for alpha < 0
    return alpha * density / _clausius_mossotti(alpha, density)[1]


def refractive_index_sq(alpha: float, density: float) -> float:
    """Clausius-Mossotti n^2 = (1 + (8*pi/3) a*r) / (1 - (4*pi/3) a*r).

    Satisfies n^2 = 1 + 4*pi*chi to relative 1e-12 wherever both are
    defined, and n^2 = 1 exactly at zero density.
    """
    x, denom = _clausius_mossotti(alpha, density)
    return (1.0 + 2.0 * x) / denom


def local_detuning(params: PhysicalParams, density: float) -> float:
    """Density-shifted detuning Delta_l = Delta + (4*pi/3)(d^2/hbar) rho, rad/s.

    The shift is linear in rho with positive slope; equivalently
    Delta * (1 + V0*rho) with V0 the characteristic volume.
    """
    d_sq = checked_power(params.dipole, 2, "dipole")
    return detuning(params) + (4.0 * math.pi / 3.0) * d_sq * density / HBAR


def medium_response(params: PhysicalParams, density: float) -> MediumResponse:
    """Evaluate the full optics bundle at one density."""
    alpha = polarizability(params)
    return MediumResponse(
        alpha=alpha,
        chi=susceptibility(alpha, density),
        n_squared=refractive_index_sq(alpha, density),
        local_detuning=local_detuning(params, density),
        density=density,
    )


def contact_interaction_bound(saturation: float | None, params: PhysicalParams) -> float:
    """Lower bound (3/8) s / (a_s * k_a) on the dipole-to-collision energy ratio.

    s is the saturation |Omega/Delta|^2 of the transition and k_a = omega_a/c;
    saturation None takes the peak value (rabi_peak / Delta)^2.
    A large bound means ground-state collisions are negligible next to the
    light-induced dipole-dipole interaction.
    """
    if saturation is None:
        delta = detuning(params)
        if delta == 0.0:
            raise ParameterError(
                "cannot derive the default saturation at zero detuning; pass --saturation"
            )
        # a square that underflows to 0 is refused under the ratio's name
        saturation = checked_divisor(params.rabi_peak / delta, 2, "rabi_peak / detuning")
    if not saturation > 0.0:
        raise ParameterError(f"saturation must be positive, got {saturation!r}")
    if math.isinf(saturation):  # every bound would pass at it
        raise ParameterError(f"saturation must be finite, got {saturation!r}")
    if params.scattering_length <= 0.0:
        raise ParameterError(
            f"scattering_length must be positive here, got {params.scattering_length!r}"
        )
    a_k = params.scattering_length * (params.omega_a / C_LIGHT)  # k_a = omega_a / c
    if a_k == 0.0:
        raise ParameterError(
            f"a_s k_a underflows to 0: scattering_length = {params.scattering_length!r}, "
            f"omega_a = {params.omega_a!r}"
        )
    return 0.375 * saturation / a_k


def weakest_adiabatic_ratio(
    params: PhysicalParams, rho_lo: float, rho_hi: float
) -> tuple[float, float]:
    """(ratio, density): the smallest |Delta_l| / gamma over [rho_lo, rho_hi].

    Blue of resonance that is the low end (the packet's wings), red of it
    the high end (the peak). The ratio is infinite when gamma = 0.
    """
    dl, at = smallest_magnitude(
        local_detuning(params, rho_lo), local_detuning(params, rho_hi), rho_lo, rho_hi
    )
    return (dl / params.gamma if params.gamma > 0.0 else math.inf), at
