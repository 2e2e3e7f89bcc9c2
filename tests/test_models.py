"""Effective potentials, their limits, and the beam-splitter scalars."""

import math
import warnings

import numpy as np
import pytest

from matteroptics.errors import ParameterError, PoleError, SingularDetuningError
from matteroptics.models import (
    ModelKind,
    RamanNathParams,
    characteristic_volume,
    effective_potential,
    raman_nath_params,
    regime_checks,
    significant_density,
)
from matteroptics.optics import contact_interaction_bound, local_detuning, polarizability
from matteroptics.units import HBAR, detuning

from conftest import make_params, red_detuned, with_g0, with_v0rho


def test_model_kind_names():
    assert ModelKind("full") is ModelKind.FULL
    assert ModelKind("single") is ModelKind.SINGLE_PARTICLE
    assert ModelKind("gp") is ModelKind.GROSS_PITAEVSKII_TYPE
    assert ModelKind("wallis") is ModelKind.WALLIS_TYPE
    with pytest.raises(ValueError, match="'heuristic' is not a valid ModelKind"):
        ModelKind("heuristic")


@pytest.mark.parametrize("call, match", [
    (lambda: characteristic_volume(make_params(dipole=1e300)), "^dipole is out of range: "),
    (lambda: raman_nath_params(make_params(rabi_peak=1e300)), "^rabi_peak is out of range: "),
    (lambda: RamanNathParams(v0=1.0, g0=1.0, rho_0=1e200), "^1 \\+ V0 rho_0 is out of range: "),
    (lambda: significant_density(make_params(k_l=1e300)), "^k_l is out of range: its power 3 "),
    (
        lambda: effective_potential(
            ModelKind.GROSS_PITAEVSKII_TYPE, 1.0, 0.0, make_params(dipole=1e300)
        ),
        "^dipole is out of range: its power 2 overflows$",
    ),
    (lambda: raman_nath_params(make_params(w_l=1e300)), "tau = .* not finite: g0 = inf"),
    (
        lambda: significant_density(make_params(dipole=1e-300)),
        "^dipole is out of range: V0 underflows to 0, so the significant "
        "density 1/\\|V0\\| overflows$",
    ),
])
def test_an_overflow_is_a_parameter_error_naming_the_quantity(call, match):
    # a float power beyond the double range would raise OverflowError; a
    # V0 whose dipole^2 underflows to 0 leaves 1/|V0| beyond it
    with pytest.raises(ParameterError, match=match):
        call()


@pytest.mark.parametrize("density", [1e300, np.array([0.0, 1e300])])
def test_the_full_models_overflow_is_a_parameter_error_naming_rho_0(density):
    # (1 + V0 rho)^2 beyond the double range would make the potential
    # exactly 0; numpy's overflow flag raises instead, for a scalar and an array
    params = make_params(rho_0=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"^rho_0 is out of range: the full model's \(1 \+ V0 rho\)\^2"
        with pytest.raises(ParameterError, match=message + " overflows$"):
            effective_potential(ModelKind.FULL, 1.0, density, params)
        # a density whose square is finite is untouched
        assert effective_potential(ModelKind.FULL, 1.0, 1e16, params) > 0.0


def test_regime_checks_report_an_overflow_as_an_error_entry():
    checks = regime_checks(make_params(dipole=1e300), 0.0, saturation=1.0)
    for name in ("adiabatic_ratio", "pole_distance"):
        assert checks[name].value is None and not checks[name].ok
        assert checks[name].error == "dipole is out of range: its power 2 overflows"
    assert checks["packet_broadness"].ok


def test_characteristic_volume():
    p = make_params()
    v0 = characteristic_volume(p)
    assert v0 == pytest.approx(
        (4.0 * math.pi / 3.0) * p.dipole**2 / (HBAR * detuning(p)), rel=1e-15
    )
    assert v0 > 0.0
    # V0 = -(4 pi/3) alpha, the same scale with the opposite sign
    assert v0 == pytest.approx(-(4.0 * math.pi / 3.0) * polarizability(p), rel=1e-15)
    assert characteristic_volume(red_detuned(p)) < 0.0
    with pytest.raises(SingularDetuningError):
        characteristic_volume(make_params(omega_l=3.198e15))


class TestEffectivePotential:
    def test_all_models_coincide_at_zero_density(self):
        p = make_params()
        rabi_sq = p.rabi_peak**2
        reference = effective_potential(ModelKind.SINGLE_PARTICLE, rabi_sq, 0.0, p)
        assert reference == pytest.approx(
            HBAR * rabi_sq / (4.0 * detuning(p)), rel=1e-15
        )
        for kind in ModelKind:
            assert effective_potential(kind, rabi_sq, 0.0, p) == pytest.approx(
                reference, rel=1e-14
            )

    def test_full_and_limits_at_finite_density(self):
        p = with_v0rho(make_params(), 0.3)
        v0 = characteristic_volume(p)
        rho = p.rho_0
        rabi_sq = p.rabi_peak**2
        single = HBAR * rabi_sq / (4.0 * detuning(p))
        x = v0 * rho
        full = effective_potential(ModelKind.FULL, rabi_sq, rho, p)
        assert full == pytest.approx(single / (1.0 + x) ** 2, rel=1e-14)
        gp = effective_potential(ModelKind.GROSS_PITAEVSKII_TYPE, rabi_sq, rho, p)
        assert gp == pytest.approx(single * (1.0 - 2.0 * x), rel=1e-14)
        wallis = effective_potential(ModelKind.WALLIS_TYPE, rabi_sq, rho, p)
        assert wallis == pytest.approx(single / (1.0 + 2.0 * x), rel=1e-14)

    def test_linear_in_intensity(self):
        p = with_v0rho(make_params(), 0.2)
        for kind in ModelKind:
            u1 = effective_potential(kind, 1.0e15, p.rho_0, p)
            u3 = effective_potential(kind, 3.0e15, p.rho_0, p)
            assert u3 == pytest.approx(3.0 * u1, rel=1e-15)

    @pytest.mark.parametrize("red", [False, True])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_unit_intensity_weight_scales_to_a_few_ulp(self, kind, red):
        # The propagator evaluates the potential once at |Omega|^2 = 1 per
        # density and scales it by every |Omega|^2 of the transit, so the two
        # orders of evaluation must agree to roundoff, on array densities,
        # up to within 1e-6 of each model's pole (red) or V0 rho = 0.99 (blue).
        p = red_detuned(make_params()) if red else make_params()
        v0 = characteristic_volume(p)
        reach = 0.5 if red and kind is ModelKind.WALLIS_TYPE else 1.0  # red poles: V0 rho = -1/2, -1
        x = np.concatenate([np.linspace(0.0, 0.99 * reach, 97), reach - np.logspace(-2, -6, 31)])
        rho = x / abs(v0)
        rng = np.random.default_rng(3)
        rabi_sq = p.rabi_peak**2 * rng.uniform(0.0, 2.0, rho.size)
        rabi_sq[:3] = (0.0, 1.0, p.rabi_peak**2)
        scaled = rabi_sq * effective_potential(kind, 1.0, rho, p)
        direct = effective_potential(kind, rabi_sq, rho, p)
        assert np.all(np.abs(scaled - direct) <= 4.0 * np.finfo(float).eps * np.abs(direct))

    def test_array_broadcast_matches_scalars(self):
        p = make_params()
        rho = np.array([0.0, 1.0e15, 5.0e15, 2.0e16])
        out = effective_potential(ModelKind.FULL, p.rabi_peak**2, rho, p)
        assert isinstance(out, np.ndarray)
        for i, r in enumerate(rho):
            assert out[i] == effective_potential(
                ModelKind.FULL, p.rabi_peak**2, float(r), p
            )

    def test_quadratic_departure_of_limits(self):
        # Full - GP and Full - Wallis shrink 4x when V0 rho halves
        p = make_params()
        rabi_sq = p.rabi_peak**2
        for kind in (ModelKind.GROSS_PITAEVSKII_TYPE, ModelKind.WALLIS_TYPE):
            gaps = []
            for x in (2.0e-3, 1.0e-3):
                q = with_v0rho(p, x)
                full = effective_potential(ModelKind.FULL, rabi_sq, q.rho_0, q)
                lim = effective_potential(kind, rabi_sq, q.rho_0, q)
                gaps.append(abs(full - lim))
            assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)

    def test_screened_model_poles(self):
        p = red_detuned(make_params())
        v0 = characteristic_volume(p)
        with pytest.raises(PoleError) as err:
            effective_potential(ModelKind.FULL, 1.0, -1.0 / v0, p)
        assert err.value.density == pytest.approx(-1.0 / v0, rel=1e-12)
        with pytest.raises(PoleError):
            effective_potential(ModelKind.WALLIS_TYPE, 1.0, -0.5 / v0, p)
        # the GP form is polynomial in density: no pole anywhere
        assert math.isfinite(
            effective_potential(ModelKind.GROSS_PITAEVSKII_TYPE, 1.0, -1.0 / v0, p)
        )

    def test_array_pole_reports_offending_density(self):
        p = red_detuned(make_params())
        v0 = characteristic_volume(p)
        rho = np.array([0.0, -1.0 / v0, 1.0e10])
        with pytest.raises(PoleError) as err:
            effective_potential(ModelKind.FULL, 1.0, rho, p)
        assert err.value.density == pytest.approx(-1.0 / v0, rel=1e-12)

    def test_zero_detuning(self):
        p = make_params(omega_l=3.198e15)
        with pytest.raises(SingularDetuningError):
            effective_potential(ModelKind.SINGLE_PARTICLE, 1.0, 0.0, p)


class TestRamanNathParams:
    def test_g0_formula(self):
        p = make_params()
        rn = raman_nath_params(p)
        expected = (
            p.rabi_peak**2
            * p.w_l
            * math.sqrt(math.pi)
            / (16.0 * detuning(p) * p.v_g)
        )
        assert rn.g0 == pytest.approx(expected, rel=1e-15)
        assert rn.v0 == characteristic_volume(p)
        assert rn.rho_0 == p.rho_0

    def test_tau_identity(self):
        p = with_v0rho(with_g0(make_params(), 2.0), 0.3)
        rn = raman_nath_params(p)
        assert rn.g0 == pytest.approx(2.0, rel=1e-13)
        assert rn.tau == pytest.approx(2.0 * rn.g0 / (1.0 + 0.3) ** 2, rel=1e-12)

    def test_zero_density_tau_is_twice_g0(self):
        rn = raman_nath_params(with_g0(make_params(), 2.0))
        assert rn.tau == 2.0 * rn.g0

    def test_retuned_g0_sign_follows_detuning(self):
        rn = raman_nath_params(with_g0(red_detuned(make_params()), -1.0))
        assert rn.g0 == pytest.approx(-1.0, rel=1e-13)
        assert rn.tau < 0.0

    def test_pole_at_cancelling_density(self):
        p = with_v0rho(red_detuned(make_params()), -1.0)
        with pytest.raises(PoleError):
            raman_nath_params(p)

    def test_constructor_derives_tau(self):
        rn = RamanNathParams(v0=1.0e-17, g0=2.0, rho_0=2.0e16)
        assert rn.tau == 2.0 * 2.0 / (1.0 + 1.0e-17 * 2.0e16) ** 2
        with pytest.raises(TypeError):
            RamanNathParams(v0=1.0e-17, g0=2.0, rho_0=0.0, tau=4.0)


def test_significant_density():
    p = make_params()
    s = significant_density(p)
    assert s.exact == pytest.approx(1.0 / abs(characteristic_volume(p)), rel=1e-15)
    assert s.scaling == pytest.approx(
        (abs(detuning(p)) / p.gamma) * p.k_l**3 / math.pi, rel=1e-15
    )
    assert significant_density(make_params(gamma=0.0)).scaling is None


class TestRegimeChecks:
    def test_values_thresholds_and_order(self):
        p = make_params()
        rho = with_v0rho(p, 0.25).rho_0
        checks = regime_checks(p, rho, saturation=1.0)
        assert list(checks) == [
            "adiabatic_ratio", "pole_distance", "packet_broadness",
            "adiabatic_ratio_packet", "pole_distance_packet", "collision_bound",
        ]
        v0rho = characteristic_volume(p) * rho
        assert checks["adiabatic_ratio"].value == abs(local_detuning(p, rho)) / p.gamma
        assert checks["pole_distance"].value == min(abs(1.0 + v0rho), abs(1.0 + 2.0 * v0rho))
        assert checks["packet_broadness"].value == pytest.approx(50.0, rel=1e-4)
        # blue of resonance both factors grow with rho: the packet's wings bind
        assert checks["adiabatic_ratio_packet"].value == abs(local_detuning(p, 0.0)) / p.gamma
        assert checks["pole_distance_packet"].value == 1.0
        assert checks["collision_bound"].value == contact_interaction_bound(1.0, p)
        assert [c.threshold for c in checks.values()] == [10.0, 0.1, 10.0, 10.0, 0.1, 10.0]
        assert all(c.ok and c.error is None for c in checks.values())

    def test_unevaluable_check_is_an_error_entry(self):
        p = make_params(omega_l=make_params().omega_a)  # zero detuning
        pole = regime_checks(p, 1.0e12)["pole_distance"]
        assert pole.value is None and pole.ok is False
        assert "zero detuning" in pole.error

    def test_collision_bound_takes_the_default_saturation(self):
        p = make_params()
        default = (p.rabi_peak / detuning(p)) ** 2
        check = regime_checks(p, 0.0)["collision_bound"]
        assert check.value == contact_interaction_bound(default, p)
        assert check.ok is False  # as validity reports for these parameters
        assert regime_checks(p, 0.0, saturation=1.0)["collision_bound"].ok is True

    def test_default_saturation_at_zero_detuning_is_an_error_entry(self):
        p = make_params(omega_l=make_params().omega_a)
        check = regime_checks(p, 0.0)["collision_bound"]
        assert (check.value, check.ok) == (None, False)
        assert check.error == (
            "cannot derive the default saturation at zero detuning; pass --saturation"
        )
