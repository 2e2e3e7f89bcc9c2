"""Medium response: polarizability, local field, refractive index, bounds."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matteroptics.bloch import local_rabi
from matteroptics.diffraction import phase_profile
from matteroptics.errors import ParameterError, PoleError, SingularDetuningError
from matteroptics.models import (
    ModelKind,
    characteristic_volume,
    effective_potential,
    raman_nath_params,
)
from matteroptics.optics import (
    EPS_POLE,
    check_pole,
    contact_interaction_bound,
    local_detuning,
    medium_response,
    polarizability,
    refractive_index_sq,
    smallest_magnitude,
    susceptibility,
    weakest_adiabatic_ratio,
)
from matteroptics.propagate import Grid1D
from matteroptics.units import HBAR, C_LIGHT, detuning

from conftest import make_params, red_detuned, with_g0, with_v0rho

FOUR_PI_3 = 4.0 * math.pi / 3.0


def test_polarizability_value_and_sign():
    p = make_params()
    alpha = polarizability(p)
    assert alpha == pytest.approx(-p.dipole**2 / (HBAR * detuning(p)), rel=1e-15)
    assert alpha < 0.0  # blue detuning
    assert polarizability(red_detuned(p)) > 0.0


def test_polarizability_zero_detuning():
    p = make_params(omega_l=3.198e15)  # equal to omega_a
    with pytest.raises(SingularDetuningError):
        polarizability(p)


def test_susceptibility_zero_density_is_plus_zero():
    alpha = polarizability(make_params())
    chi = susceptibility(alpha, 0.0)
    assert chi == 0.0
    assert math.copysign(1.0, chi) == 1.0  # never -0.0


def test_susceptibility_formula():
    alpha = polarizability(make_params())
    rho = 1.0e16
    x = FOUR_PI_3 * alpha * rho
    assert susceptibility(alpha, rho) == pytest.approx(
        alpha * rho / (1.0 - x), rel=1e-15
    )


def test_refractive_index_trivial_points():
    alpha = polarizability(make_params())
    assert refractive_index_sq(alpha, 0.0) == 1.0  # exact, not approximate
    rho = 5.0e15
    x = FOUR_PI_3 * alpha * rho
    assert refractive_index_sq(alpha, rho) == pytest.approx(
        (1.0 + 2.0 * x) / (1.0 - x), rel=1e-15
    )


def test_index_susceptibility_identity_both_signs():
    # n^2 = 1 + 4 pi chi wherever both sides are defined
    for params in (make_params(), red_detuned(make_params())):
        alpha = polarizability(params)
        rho_pole = 1.0 / abs(FOUR_PI_3 * alpha)
        for frac in (1e-6, 1e-3, 0.1, 0.5, 0.9):
            rho = frac * rho_pole
            n_sq = refractive_index_sq(alpha, rho)
            assert n_sq == pytest.approx(
                1.0 + 4.0 * math.pi * susceptibility(alpha, rho), rel=1e-12
            )


def test_pole_guard_boundary():
    p = red_detuned(make_params())  # alpha > 0: the pole sits at positive rho
    alpha = polarizability(p)
    rho_pole = 1.0 / (FOUR_PI_3 * alpha)
    with pytest.raises(PoleError) as err:
        refractive_index_sq(alpha, rho_pole * (1.0 - 5.0e-13))
    assert err.value.density == pytest.approx(rho_pole, rel=1e-9)
    # just outside the guard band the value is huge but legal
    assert math.isfinite(refractive_index_sq(alpha, rho_pole * (1.0 - 1.0e-10)))
    with pytest.raises(PoleError):
        susceptibility(alpha, rho_pole)


def test_local_field_closes_to_screening_factor():
    # E_loc = E_mac + (4 pi/3) P with P = chi E_mac: the local drive of
    # bloch is the macroscopic one times 1 + (4 pi/3) chi, both signs
    for p in (make_params(), red_detuned(make_params())):
        alpha = polarizability(p)
        rho = 0.3 / abs(FOUR_PI_3 * alpha)
        got = local_rabi(1.0 + 0.0j, p, rho)
        assert got == pytest.approx(1.0 + FOUR_PI_3 * susceptibility(alpha, rho), rel=1e-12)
        assert got.imag == 0.0


@pytest.mark.parametrize("call, match", [
    (lambda: polarizability(make_params(dipole=1e300)), "dipole"),
    (lambda: local_detuning(make_params(dipole=1e300), 0.0), "dipole"),
    (
        lambda: contact_interaction_bound(None, make_params(rabi_peak=1e300)),
        "rabi_peak / detuning",
    ),
])
def test_an_overflowing_square_is_a_parameter_error(call, match):
    with pytest.raises(ParameterError, match=f"^{match} is out of range: its power 2 overflows$"):
        call()


def test_local_detuning_shift():
    p = make_params()
    rho = 1.0e16
    shift = FOUR_PI_3 * p.dipole**2 * rho / HBAR
    assert local_detuning(p, rho) == pytest.approx(detuning(p) + shift, rel=1e-12)
    assert local_detuning(p, 0.0) == detuning(p)
    # blue detuning: density pushes the local detuning further blue
    assert local_detuning(p, rho) > detuning(p)


def test_medium_response_bundle():
    p = make_params()
    rho = 3.0e15
    m = medium_response(p, rho)
    assert m.alpha == polarizability(p)
    assert m.chi == susceptibility(m.alpha, rho)
    assert m.n_squared == refractive_index_sq(m.alpha, rho)
    assert m.local_detuning == local_detuning(p, rho)
    assert m.density == rho
    with pytest.raises(ParameterError):
        medium_response(p, -1.0)


def test_contact_bound_printed_coefficient():
    # s = 1, a_s = 1 nm, k_a = 0.01 / nm gives exactly 3/8 / 0.01 = 37.5
    p = make_params(
        scattering_length=1.0e-7,  # 1 nm in cm
        omega_a=1.0e5 * C_LIGHT,  # k_a = omega_a / c = 1e5 / cm = 0.01 / nm
        omega_l=1.0e5 * C_LIGHT + 1.0e9,
    )
    assert contact_interaction_bound(1.0, p) == pytest.approx(37.5, abs=1e-12)


def test_contact_bound_scales_linearly_in_saturation():
    p = make_params()
    b1 = contact_interaction_bound(0.01, p)
    assert contact_interaction_bound(0.02, p) == pytest.approx(2.0 * b1, rel=1e-15)


def test_an_underflowing_default_saturation_names_its_ratio():
    # (rabi_peak / Delta)^2 underflows to 0 for a tiny drive; the error
    # names the ratio, not the zero it became
    ratio = 1e-300 / detuning(make_params())
    with pytest.raises(
        ParameterError,
        match=r"^rabi_peak / detuning is out of range: its power 2 underflows to 0$",
    ):
        contact_interaction_bound(None, make_params(rabi_peak=1e-300))
    assert contact_interaction_bound(ratio, make_params()) > 0.0  # as --saturation it is fine


def test_contact_bound_input_guards():
    p = make_params()
    for saturation in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="saturation"):
            contact_interaction_bound(saturation, p)
    with pytest.raises(ParameterError, match="scattering_length"):
        contact_interaction_bound(1.0, make_params(scattering_length=-1.0e-7))
    # k_a = omega_a / c underflows to 0, so a_s k_a cannot divide
    with pytest.raises(
        ParameterError, match=r"^a_s k_a underflows to 0: scattering_length = 2\.75e-07, "
        r"omega_a = 5e-324$"
    ):
        contact_interaction_bound(1.0, make_params(omega_a=5e-324))


def test_adiabatic_validity():
    # the ratio at one density is the range rule over the one-point range
    p = make_params()
    ratio, at = weakest_adiabatic_ratio(p, 0.0, 0.0)
    assert (ratio, at) == (abs(local_detuning(p, 0.0)) / p.gamma, 0.0)
    assert ratio == pytest.approx(abs(detuning(p)) / p.gamma, rel=1e-12)
    assert weakest_adiabatic_ratio(make_params(gamma=0.0), 0.0, 0.0)[0] == math.inf


def test_smallest_magnitude_over_a_density_range():
    # an affine factor is smallest at an end of the range, or 0 at its root
    assert smallest_magnitude(2.0, 3.0, 0.0, 1.0) == (2.0, 0.0)
    assert smallest_magnitude(-3.0, -2.0, 0.0, 1.0) == (2.0, 1.0)
    assert smallest_magnitude(1.0, -3.0, 0.0, 4.0) == (0.0, 1.0)
    assert smallest_magnitude(0.0, -3.0, 0.0, 4.0) == (0.0, 0.0)
    assert smallest_magnitude(-0.5, -0.5, 2.0, 2.0) == (0.5, 2.0)
    # the adiabatic ratio takes the rule over Delta_l
    p = make_params()  # blue: Delta_l grows with rho, the low end is weakest
    rho = 0.3 / abs(FOUR_PI_3 * polarizability(p))
    assert weakest_adiabatic_ratio(p, 0.0, rho) == (abs(local_detuning(p, 0.0)) / p.gamma, 0.0)
    red = red_detuned(p)  # red: |Delta_l| shrinks with rho, the high end is weakest
    red_peak = abs(local_detuning(red, rho)) / red.gamma
    assert weakest_adiabatic_ratio(red, 0.0, rho) == (red_peak, rho)
    # past the red pole Delta_l changes sign: the ratio is 0 where it vanishes
    pole = abs(detuning(red)) * HBAR / (FOUR_PI_3 * red.dipole**2)
    ratio, at = weakest_adiabatic_ratio(red, 0.0, 2.0 * pole)
    assert ratio == 0.0
    assert at == pytest.approx(pole, rel=1e-12)
    assert weakest_adiabatic_ratio(replace(red, gamma=0.0), 0.0, 2.0 * pole)[0] == math.inf


@given(
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=-4.0, max_value=4.0),
    rho=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    scale=st.sampled_from([1.0, 1.0e16]),
)
def test_check_pole_raises_exactly_on_the_density_range(a, b, rho, scale):
    # denominator a + b rho / scale over density samples rho: the guard
    # covers [min rho, max rho], not only the samples
    density = np.array(rho) * scale
    denominator = a + (b / scale) * density
    ends = denominator[[density.argmin(), density.argmax()]]
    root_inside = ends.min() <= 0.0 <= ends.max()
    if root_inside or np.abs(ends).min() <= EPS_POLE:
        with pytest.raises(PoleError) as err:
            check_pole(denominator, density, "test")
        assert density.min() <= err.value.density <= density.max()
        assert abs(a + (b / scale) * err.value.density) <= 1e-12 * (1.0 + abs(b))
    else:
        assert check_pole(denominator, density, "test") is denominator


@given(
    rho_frac=st.floats(min_value=1e-8, max_value=0.95),
    red=st.booleans(),
)
def test_index_identity_property(rho_frac, red):
    params = red_detuned(make_params()) if red else make_params()
    alpha = polarizability(params)
    rho = rho_frac / abs(FOUR_PI_3 * alpha)
    n_sq = refractive_index_sq(alpha, rho)
    chi = susceptibility(alpha, rho)
    assert n_sq == pytest.approx(1.0 + 4.0 * math.pi * chi, rel=1e-10)


def _red_pole():
    """Red-detuned point and the density where 1 + V0 rho vanishes."""
    p = red_detuned(make_params())
    return p, -1.0 / characteristic_volume(p)


def _susceptibility_pole():
    p, rho = _red_pole()  # 1 - (4 pi/3) alpha rho = 1 + V0 rho
    return lambda: susceptibility(polarizability(p), rho), rho


def _refractive_index_pole():
    p, rho = _red_pole()
    return lambda: refractive_index_sq(polarizability(p), rho), rho


def _potential_pole(kind, frac, samples=None):
    # the FULL pole sits at V0 rho = -1, the WALLIS one at V0 rho = -1/2;
    # samples, in units of the pole density, make the density an array
    p, rho = _red_pole()
    rho *= frac
    density = rho if samples is None else np.array(samples) * rho
    return lambda: effective_potential(kind, 1.0, density, p), rho


def _raman_nath_pole():
    p = with_v0rho(red_detuned(make_params()), -1.0)
    return lambda: raman_nath_params(p), p.rho_0


def _phase_profile_pole():
    # V0 rho_0 = -1.2 at the peak: the local denominator crosses zero on
    # the packet shoulder, where the density has decayed to 1/|V0|, which
    # lies between two points of a grid over [-2, 2) times that position
    p = with_v0rho(with_g0(red_detuned(make_params()), -1.0), -1.2)
    rn = raman_nath_params(p)
    y_pole = p.w_y * math.sqrt(math.log(1.2))
    grid = Grid1D(16, -2.0 * y_pole, 2.0 * y_pole)
    return lambda: phase_profile(grid, p, rn), 1.0 / abs(rn.v0)


def _local_rabi_pole():
    p, rho = _red_pole()
    return lambda: local_rabi(1.0, p, rho), rho


# array samples in units of the pole density: one on the pole, and a
# set whose pole lies between two samples, none of them near it
ON_POLE = [0.0, 0.5, 1.0, 0.25]
STRADDLE = [0.0, 0.6, 1.3, 0.2]

POLE_SITES = {
    "Clausius-Mossotti/susceptibility": _susceptibility_pole,
    "Clausius-Mossotti/refractive_index_sq": _refractive_index_pole,
    "full-model/scalar": lambda: _potential_pole(ModelKind.FULL, 1.0),
    "full-model/array": lambda: _potential_pole(ModelKind.FULL, 1.0, ON_POLE),
    "full-model/between-samples": lambda: _potential_pole(ModelKind.FULL, 1.0, STRADDLE),
    "screened-model/scalar": lambda: _potential_pole(ModelKind.WALLIS_TYPE, 0.5),
    "screened-model/array": lambda: _potential_pole(ModelKind.WALLIS_TYPE, 0.5, ON_POLE),
    "screened-model/between-samples":
        lambda: _potential_pole(ModelKind.WALLIS_TYPE, 0.5, STRADDLE),
    "beam-splitter/raman_nath_params": _raman_nath_pole,
    "phase-profile/between-samples": _phase_profile_pole,
    "local-field/local_rabi": _local_rabi_pole,
}


@pytest.mark.parametrize("site", sorted(POLE_SITES))
def test_every_pole_site_reports_the_nearest_density(site):
    call, rho_pole = POLE_SITES[site]()
    with pytest.raises(PoleError) as err:
        call()
    at = err.value.density
    assert at == pytest.approx(rho_pole, rel=1e-6)
    # one message format: "<label> pole: |denominator| = <d> at density <rho>"
    message = str(err.value)
    prefix = f"{site.split('/')[0]} pole: |denominator| = "
    suffix = f" at density {at:.3e}"
    assert message.startswith(prefix) and message.endswith(suffix)
    assert float(message[len(prefix):-len(suffix)]) <= EPS_POLE
