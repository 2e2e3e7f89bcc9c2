"""Diffraction-order routes and their cross-checks.

The grid-route regression bands in here were measured on this
implementation at the stated geometries; they pin the numerics against
silent drift, while the physics tolerances come from the route
derivations themselves.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.special

from matteroptics import diffraction, propagate
from matteroptics.diffraction import (
    DEFAULT_BOX_LAMBDAS,
    analytic_orders,
    ROUTES,
    commensurate_grid,
    default_q_max,
    diffraction_angles,
    effective_wavelength,
    evaluate_routes,
    fitted_box_lambdas,
    numeric_orders,
    order_spacing,
    pattern_discrepancy,
    phase_profile,
    propagator_orders,
    select_routes,
)
from matteroptics.errors import ConfigurationError, ParameterError, PoleError
from matteroptics.models import ModelKind, raman_nath_params
from matteroptics.propagate import (
    DiffractionPattern,
    Grid1D,
    WaveState,
    gaussian_profile,
    momentum_spectrum,
    order_capacity,
    packet_envelope,
)
from matteroptics.sweep import SweepSpec, run_sweep, sweep_report
from matteroptics.units import HBAR

from conftest import make_params, red_detuned, with_g0, with_v0rho, with_wy_lambdas


def _reference(g0=2.0, v0rho=0.0, wy_lambdas=50.0):
    p = with_g0(make_params(), g0)
    if v0rho:
        p = with_v0rho(p, v0rho)
    return with_wy_lambdas(p, wy_lambdas)


class TestDiffractionPattern:
    def test_contiguity_required(self):
        with pytest.raises(ConfigurationError, match="contiguous"):
            DiffractionPattern(orders={0: 0.5, 2: 0.5})
        with pytest.raises(ConfigurationError, match="contiguous"):
            DiffractionPattern(orders={0: 0.5, 1: 0.5})  # missing -1

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError, match="outside"):
            DiffractionPattern(orders={-1: 0.0, 0: 1.5, 1: 0.0})
        with pytest.raises(ConfigurationError, match="sum"):
            DiffractionPattern(orders={-1: 0.6, 0: 0.6, 1: 0.6})

    def test_accessors(self):
        pat = DiffractionPattern(orders={-1: 0.25, 0: 0.5, 1: 0.2})
        assert pat.q_max == 1
        assert pat.total() == pytest.approx(0.95)
        assert pat.folded() == [0.5, 0.2]


def test_pattern_discrepancy_union_semantics():
    a = DiffractionPattern(orders={-1: 0.2, 0: 0.5, 1: 0.2})
    b = DiffractionPattern(orders={0: 0.5})
    assert pattern_discrepancy(a, b) == pytest.approx(0.2)
    assert pattern_discrepancy(a, a) == 0.0


class TestPhaseProfile:
    def test_zero_density_closed_form(self):
        p = _reference(g0=2.0)
        rn = raman_nath_params(p)
        nk = p.harmonic * p.k_l
        grid = commensurate_grid(p, 1024, 32.0)
        got = phase_profile(grid, p, rn)
        want = 4.0 * rn.g0 * np.cos(nk * grid.points()) ** 2
        assert np.max(np.abs(got - want)) < 1e-15 * 4.0 * rn.g0

    def test_center_is_twice_tau(self):
        p = _reference(g0=2.0, v0rho=0.3)
        rn = raman_nath_params(p)
        grid = commensurate_grid(p, 1024, 32.0)
        center = grid.n_points // 2
        assert grid.points()[center] == 0.0
        assert phase_profile(grid, p, rn)[center] == pytest.approx(2.0 * rn.tau, rel=1e-14)

    def test_standing_wave_node(self):
        # the box spans 32 wavelengths in 1024 cells, so a node, a quarter
        # wavelength from the centre, is grid point n/2 + 8, to the few ulp
        # the grid's positions are rounded to: cos(n k_L y) < 1e-12 there
        p = _reference(g0=2.0)
        rn = raman_nath_params(p)
        grid = commensurate_grid(p, 1024, 32.0)
        node = math.pi / (2.0 * p.harmonic * p.k_l)
        assert grid.points()[512 + 8] == pytest.approx(node, rel=1e-12)
        assert abs(phase_profile(grid, p, rn)[512 + 8]) < 4.0 * rn.g0 * 1e-24

    def test_pole_reports_position_and_density(self):
        # red detuning with V0 rho_0 = -1.2 at the peak: the local
        # denominator crosses zero on the packet shoulder where the
        # density has decayed by exactly 1/1.2
        p = with_v0rho(with_g0(red_detuned(make_params()), -1.0), -1.2)
        rn = raman_nath_params(p)
        y_pole = p.w_y * math.sqrt(math.log(1.2))
        with pytest.raises(PoleError) as err:
            phase_profile(Grid1D(16, -2.0 * y_pole, 2.0 * y_pole), p, rn)
        assert err.value.density is not None
        assert err.value.density == pytest.approx(1.0 / abs(rn.v0), rel=1e-6)
        # on a grid that stays off the crossing the profile is finite, if violent
        shoulder = Grid1D(16, 1.01 * y_pole, 3.0 * y_pole)
        assert np.all(np.isfinite(phase_profile(shoulder, p, rn)))

    def test_mismatched_density_rejected(self):
        p = _reference(g0=2.0, v0rho=0.3)
        rn = raman_nath_params(p)
        other = _reference(g0=2.0, v0rho=0.2)
        with pytest.raises(ParameterError, match="rho_0"):
            phase_profile(commensurate_grid(p, 1024, 32.0), other, rn)


class TestAnalyticOrders:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, -3.3])
    def test_matches_bessel_oracle(self, tau):
        q_max = int(math.ceil(abs(tau))) + 25
        pat = analytic_orders(tau, q_max)
        for q in range(-q_max, q_max + 1):
            want = scipy.special.jv(abs(q), abs(tau)) ** 2
            assert pat.orders[q] == pytest.approx(want, abs=1e-14)

    def test_parity(self):
        pat = analytic_orders(2.7, 10)
        for q in range(1, 11):
            assert pat.orders[q] == pat.orders[-q]

    def test_truncation_just_loses_tail(self):
        assert analytic_orders(2.0, 3).total() < 1.0
        assert analytic_orders(2.0, 25).total() == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_tau_rejected(self):
        with pytest.raises(ParameterError):
            analytic_orders(math.nan, 5)

    def test_orders_above_the_ceiling_are_refused_before_the_row(self, monkeypatch):
        # the Bessel row reaches past max(q_max, |tau|); above MAX_ORDERS
        # nothing is allocated
        monkeypatch.setattr(propagate, "MAX_ORDERS", 40)
        analytic_orders(-40.0, 40)
        rows = []
        monkeypatch.setattr(diffraction, "bessel_j_sequence", rows.append)
        for tau, q_max, needed in ((-40.5, 3, 41), (2.0, 41, 41), (4e302, 0, 4e302)):
            with pytest.raises(
                ConfigurationError,
                match=rf"^{re.escape(f'{needed:.6g}')} orders needed at tau = {re.escape(repr(tau))} "
                rf"\(q_max = {q_max}\), more than the ceiling of 40$",
            ):
                analytic_orders(tau, q_max)
        assert rows == []


def _second_moment(pattern):
    """Sum of q^2 P_q, in units of (2 hbar k_L)^2."""
    return sum(q * q * p for q, p in pattern.orders.items())


def _profile_second_moment(p):
    """<tau(y)^2>/2 over |psi|^2 = exp(-y^2/w_y^2), with tau(y) the local
    phase depth 2 g0 / (1 + V0 rho0 exp(-y^2/w_y^2))^2, by 160-node
    Gauss-Hermite quadrature: the second moment the mask must give."""
    rn = raman_nath_params(p)
    x, w = np.polynomial.hermite.hermgauss(160)
    tau = 2.0 * rn.g0 / (1.0 + rn.v0 * rn.rho_0 * np.exp(-x * x)) ** 2
    return float(np.sum(w * tau * tau)) / (2.0 * math.sqrt(math.pi))


class TestSecondMoment:
    """The momentum the lattice imparts, sum q^2 P_q, is tau^2/2 for the
    series and <tau(y)^2>/2 over the packet for the phase mask: exact
    where P_0 is not monotone in density."""

    def test_series_gives_half_tau_squared(self):
        for tau in np.linspace(-12.0, 12.0, 97):
            pattern = analytic_orders(float(tau), math.ceil(abs(tau)) + 30)
            moment = _second_moment(pattern)
            assert math.isclose(moment, tau * tau / 2.0, rel_tol=1e-14), tau

    @staticmethod
    def _mask(g0, v0rho, points, box, z_steps=None):
        # the phase mask's (moment, residual), or with z_steps the
        # kinetic-off propagator's over that many steps
        base = red_detuned(make_params()) if g0 < 0 else make_params()
        p = with_wy_lambdas(with_g0(base, g0), 50.0)
        p = with_v0rho(p, v0rho) if v0rho else p
        grid = commensurate_grid(p, points, box)
        _, capacity = order_capacity(grid, order_spacing(p))
        if z_steps is None:
            pattern = numeric_orders(p, raman_nath_params(p), grid, capacity)
        else:
            pattern = propagator_orders(p, grid, capacity, z_steps)
        moment = _second_moment(pattern)
        return moment, moment / _profile_second_moment(p) - 1.0

    # blue (g0 = 2) on 32768 points and red (g0 = -2) on 65536, both in a
    # 512-wavelength box that holds the packet's profile: residuals read
    # 1.7e-13 to 7.7e-13 blue and 1.2e-13 to 3.2e-13 red
    @pytest.mark.parametrize("g0, v0rhos, points", [
        (2.0, (0.0, 0.125, 0.301, 0.451), 32768),
        (-2.0, (0.0, -0.1, -0.3), 65536),
    ])
    def test_mask_gives_the_profile_average(self, g0, v0rhos, points):
        moments = []
        for v0rho in v0rhos:
            moment, residual = self._mask(g0, v0rho, points, 512.0)
            assert abs(residual) < 2e-12, v0rho
            moments.append(moment)
        assert moments[0] == pytest.approx(8.0, rel=1e-14)  # (2 g0)^2 / 2
        # the density suppresses the scattering blue of resonance and
        # enhances it red of it
        steps = np.diff(moments)
        assert all(steps < 0.0) if g0 > 0 else all(steps > 0.0)

    # criterion 04's points, which it reads off the series' tau and P_0:
    # on the converged grid the mask's second moment falls blue of
    # resonance (g0 = 1, V0 rho_0 from 0 to 1) and rises red of it
    # (g0 = -0.25, V0 rho_0 from 0 to -0.45) at every step, by 0.02 or
    # more. Residuals read up to -2.2e-12 blue and 3.3e-11 red (at -0.45),
    # the same on twice the points or twice the box
    @pytest.mark.parametrize("g0, last, count", [(1.0, 1.0, 11), (-0.25, -0.45, 10)])
    def test_mask_moment_is_monotone_at_criterion_04s_points(self, g0, last, count):
        moments = []
        for v0rho in np.linspace(0.0, last, count):
            moment, residual = self._mask(g0, float(v0rho), 32768, 512.0)
            assert abs(residual) < 1e-10, v0rho
            moments.append(moment)
        assert moments[0] == pytest.approx(2.0 * g0 * g0, rel=1e-14)  # (2 g0)^2 / 2
        steps = np.diff(moments)
        assert all(steps < 0.0) if g0 > 0 else all(steps > 0.0)

    # the propagator integrates the envelope over its window [-4 w_L, 4 w_L]
    # only, so its tau is erf(4) times the mask's and its residual is the
    # window's truncation, erf(4)^2 - 1 = -3.08e-8; the trapezoid over 2048
    # steps adds about -2.6e-12 (read: -2.3e-12 to -3.1e-12 from it)
    @pytest.mark.parametrize("g0, v0rho, points", [
        (2.0, 0.125, 32768), (2.0, 0.301, 32768), (-2.0, -0.3, 65536),
    ])
    def test_propagator_residual_is_the_windows_truncation(self, g0, v0rho, points):
        _, residual = self._mask(g0, v0rho, points, 512.0, z_steps=2048)
        assert residual == pytest.approx(math.erf(4.0) ** 2 - 1.0, abs=1e-11)

    def test_a_truncating_box_shows_in_the_residual(self):
        # 128 wavelengths cut the 50-wavelength packet's density profile
        # (ROADMAP item 1): the residual reads -6.2e-2, not 1e-13
        _, residual = self._mask(2.0, 0.301, 4096, 128.0)
        assert -7e-2 < residual < -5e-2


class TestDiffractionAngles:
    def test_momentum_ratio_inverts_exactly(self):
        p = make_params()
        angles = diffraction_angles(p, 7)
        scale = p.mass * p.v_g / (HBAR * order_spacing(p))
        for q in range(-7, 8):
            assert math.tan(angles[q]) * scale == pytest.approx(q, abs=1e-14)

    @pytest.mark.parametrize("harmonic", [1.0, 1.5])
    def test_angle_is_that_of_the_binned_order(self, harmonic):
        # a plane wave at order q's wavenumber is binned into order q, and
        # its momentum hbar k over m v_g is tan alpha_q
        p = make_params(harmonic=harmonic)
        g = commensurate_grid(p, 1024, 32.0)
        angles = diffraction_angles(p, 3)
        for q in range(-3, 4):
            k = q * order_spacing(p)
            wave = WaveState(grid=g, amplitude=np.exp(1j * k * g.points()))
            orders = momentum_spectrum(wave, order_spacing(p), 3).orders
            assert orders[q] == pytest.approx(1.0, abs=1e-12)
            assert math.tan(angles[q]) == pytest.approx(HBAR * k / (p.mass * p.v_g), rel=1e-14)

    def test_zero_order_is_plus_zero(self):
        angles = diffraction_angles(make_params(), 3)
        assert angles[0] == 0.0
        assert math.copysign(1.0, angles[0]) == 1.0

    def test_small_angle_regime(self):
        # one order is 2 hbar k_L, 0.059 rad at the reference point: the
        # small-angle form holds to 1% up to q = 2
        p = make_params()
        unit = HBAR * order_spacing(p) / (p.mass * p.v_g)
        assert unit == pytest.approx(0.0589, rel=0.02)
        angles = diffraction_angles(p, 2)
        for q in range(1, 3):
            arg = q * unit
            assert arg < 0.17
            assert abs(angles[q] - arg) <= 0.01 * arg

    def test_antisymmetry_and_guard(self):
        angles = diffraction_angles(make_params(), 4)
        for q in range(1, 5):
            assert angles[-q] == -angles[q]
        with pytest.raises(ConfigurationError, match="^q_max must be nonnegative, got -2$"):
            diffraction_angles(make_params(), -2)

    def test_orders_above_the_ceiling_are_refused_before_any_angle(self):
        # 3e6 orders would take seconds and 6e6 entries to build
        with pytest.raises(
            ConfigurationError,
            match=r"^3e\+06 orders needed \(q_max = 3e\+06\), more than the ceiling of 1000000$",
        ):
            diffraction_angles(make_params(), 3_000_000)


def test_effective_wavelength():
    p = make_params(harmonic=1.5)
    assert effective_wavelength(p) == pytest.approx(
        2.0 * math.pi / (1.5 * p.k_l), rel=1e-15
    )


class TestCommensurateGrid:
    def test_length_is_whole_periods(self):
        p = make_params()
        g = commensurate_grid(p, 4096, 128.0)
        assert g.n_points == 4096
        assert g.length == pytest.approx(128.0 * effective_wavelength(p), rel=1e-15)
        assert g.y_min == -g.y_max
        # the resulting box is exactly commensurate with 2 n k_L
        m = 2.0 * p.harmonic * p.k_l * g.length / (2.0 * math.pi)
        assert abs(m - round(m)) < 1e-9

    def test_half_wavelength_boxes_allowed(self):
        g = commensurate_grid(make_params(), 1024, 32.5)
        assert g.length == pytest.approx(
            32.5 * effective_wavelength(make_params()), rel=1e-15
        )

    def test_fractional_box_rejected(self):
        with pytest.raises(ConfigurationError, match="multiple of 0.5"):
            commensurate_grid(make_params(), 1024, 32.3)
        with pytest.raises(ConfigurationError, match="box_lambdas"):
            commensurate_grid(make_params(), 1024, -4.0)


class TestFittedBox:
    """propagate's default box: the smallest half-wavelength multiple
    spanning 6.5 w_y, never below the 128-wavelength default."""

    def test_smallest_half_wavelength_multiple_spanning_the_packet(self):
        p = make_params()  # 13 w_y = 650.01 half-wavelengths
        assert fitted_box_lambdas(p, 4096) == 325.5
        assert p.w_y < commensurate_grid(p, 4096, 325.5).length / 6.0
        assert fitted_box_lambdas(with_wy_lambdas(p, 1.0), 4096) == DEFAULT_BOX_LAMBDAS

    def test_refused_where_the_grid_fits_no_order(self):
        p = make_params()
        _, capacity = order_capacity(commensurate_grid(p, 1024, 325.5), order_spacing(p))
        assert fitted_box_lambdas(p, 1024) == 325.5 and capacity == 0
        with pytest.raises(ParameterError) as err:
            fitted_box_lambdas(p, 512)
        assert str(err.value) == (
            "w_y is too wide for the grid: its box of 6.5 w_y spans 325.005 effective "
            "wavelengths 2 pi/(n k_L), and 512 grid points hold at most 256"
        )
        with pytest.raises(ParameterError, match=r"^w_y is too wide .* 1\.10351e\+305 "):
            fitted_box_lambdas(replace(p, w_y=1e300), 4096)
        # a grid size Grid1D refuses is named as such, not as a w_y too wide for it
        with pytest.raises(ConfigurationError, match="power of two >= 16, got 100"):
            fitted_box_lambdas(p, 100)


class TestOrderCapacity:
    """How many orders a commensurate grid holds, and the guard that uses it."""

    @pytest.mark.parametrize(
        "points, box",
        [
            (16, 0.5), (16, 3.5), (16, 4.0), (16, 8.0), (16, 8.5), (256, 8.0),
            (1024, 32.0), (1024, 32.5), (4096, 128.0), (65536, 325.0), (1024, 1000.0),
        ],
    )
    def test_capacity_is_the_last_order_that_fits(self, points, box):
        p = make_params()
        grid = commensurate_grid(p, points, box)
        m, capacity = order_capacity(grid, order_spacing(p))
        assert m == round(2.0 * box)  # one order window per standing-wave half-period
        # order q's window reaches (q + 1/2) M modes; the Nyquist range is n/2
        fits = [q for q in range(points) if (2 * q + 1) * m <= points]
        assert capacity == (max(fits) if fits else -1)
        state = WaveState(grid=grid, amplitude=np.ones(points))
        if capacity >= 0:
            assert momentum_spectrum(state, order_spacing(p), capacity).q_max == capacity
        with pytest.raises(ConfigurationError, match=f"q_max = {capacity + 1} does not fit"):
            momentum_spectrum(state, order_spacing(p), capacity + 1)

    def test_grid_without_a_complete_window(self):
        p = make_params()
        grid = commensurate_grid(p, 16, 8.5)  # 17 modes per order on 16 points
        state = WaveState(grid=grid, amplitude=np.ones(16))
        with pytest.raises(ConfigurationError, match="supports no complete order window"):
            momentum_spectrum(state, order_spacing(p), 0)

    def test_incommensurate_grid_rejected(self):
        p = make_params()
        grid = commensurate_grid(p, 1024, 32.0)
        with pytest.raises(ConfigurationError, match="incommensurate"):
            order_capacity(grid, 1.01 * order_spacing(p))


class TestDefaultQMax:
    """ceil(|tau|) + 30, capped at the grid's capacity when a grid route runs."""

    def test_series_alone_is_uncapped(self):
        for g0 in (0.4, 1.3, 2.0):
            p = _reference(g0=g0)
            want = math.ceil(abs(raman_nath_params(p).tau)) + 30
            assert default_q_max([p], ("analytic",), 1024, 32.0) == want
        assert default_q_max([_reference(g0=2.0)], ("analytic",), 1024, 32.0) == 34

    def test_grid_routes_cap_at_capacity(self):
        p = _reference(g0=2.0)
        for routes in (("numeric",), ("propagator",), ROUTES):
            assert default_q_max([p], routes, 1024, 32.0) == 7  # 64 modes per order
        assert default_q_max([p], ROUTES, 65536, 32.0) == 34  # capacity 511
        assert default_q_max([p], ROUTES, 16, 16.0) == 0  # capacity -1, floored at 0

    def test_tau_taken_as_zero_without_one(self):
        p = with_g0(red_detuned(make_params()), -1.0)
        pole = replace(p, rho_0=-1.0 / raman_nath_params(p).v0)
        with pytest.raises(PoleError):
            raman_nath_params(pole)
        assert default_q_max([pole], ("analytic",), 1024, 32.0) == 30
        assert default_q_max([pole], ("numeric",), 1024, 32.0) == 7
        assert default_q_max([pole], ("numeric",), 65536, 32.0) == 30

    def test_largest_tau_over_the_points(self):
        p = _reference(g0=2.0)
        denser = _reference(g0=2.0, v0rho=0.3)
        red = with_g0(red_detuned(make_params()), -1.0)
        deep = replace(red, rho_0=-0.85 / raman_nath_params(red).v0)
        pole = replace(red, rho_0=-1.0 / raman_nath_params(red).v0)
        assert default_q_max([denser, p], ("analytic",), 1024, 32.0) == 34
        want = math.ceil(abs(raman_nath_params(deep).tau)) + 30
        assert want == 119  # tau = -88.9
        assert default_q_max([red, pole, deep], ("analytic",), 1024, 32.0) == want
        assert default_q_max([], ("numeric",), 1024, 32.0) == 30

    def test_range_above_the_ceiling_is_refused(self, monkeypatch):
        # with the series the range follows tau and is refused above
        # MAX_ORDERS, as is a tau the series would need too many orders
        # for; a grid route alone is capped by its grid
        p = _reference(g0=2.0)  # tau = 4, so the default range is 34
        monkeypatch.setattr(propagate, "MAX_ORDERS", 33)
        with pytest.raises(ConfigurationError, match=r"^34 orders needed at tau = 3\.99"):
            default_q_max([p], ("analytic",), 1024, 32.0)
        monkeypatch.setattr(propagate, "MAX_ORDERS", 7)
        assert default_q_max([p], ("numeric",), 1024, 32.0) == 7  # capacity, no tau
        monkeypatch.setattr(propagate, "MAX_ORDERS", 3)
        with pytest.raises(ConfigurationError, match=r"^7 orders needed at tau"):
            default_q_max([p], ROUTES, 1024, 32.0)
        with pytest.raises(ConfigurationError, match=r"^7 orders needed \(q_max = 7\)"):
            default_q_max([p], ("numeric",), 1024, 32.0)

    def test_routes_are_any_route_selection(self):
        # the routes are read through select_routes, as evaluate_routes
        # reads them: "all" and a comma list work, an unknown name is refused
        p = _reference(g0=2.0)
        assert default_q_max([p], "all", 1024, 32.0) == default_q_max([p], ROUTES, 1024, 32.0)
        assert default_q_max([p], "analytic, numeric", 65536, 32.0) == 34
        with pytest.raises(ConfigurationError, match="^invalid path selection"):
            default_q_max([p], ("analytic", "bogus"), 1024, 32.0)

    def test_unbuildable_grid_is_left_to_the_run(self):
        p = _reference(g0=2.0)
        assert default_q_max([p], ("numeric",), 1024, 32.3) == 34
        assert default_q_max([p], ("numeric",), 100, 32.0) == 34
        with pytest.raises(ConfigurationError, match="multiple of 0.5"):
            evaluate_routes(p, ("numeric",), 34, 1024, 32.3, 64)


class TestNumericOrders:
    def test_zero_density_agrees_with_series(self):
        p = _reference(g0=2.0)
        rn = raman_nath_params(p)
        grid = commensurate_grid(p, 4096, 128.0)
        err = pattern_discrepancy(analytic_orders(rn.tau, 7), numeric_orders(p, rn, grid, 7))
        assert err < 1e-3
        # measured floor of this geometry; movement means the numerics changed
        assert 1e-5 < err < 6e-5

    def test_agreement_improves_with_packet_width(self):
        # alias-free geometries (box grows with the packet, spectral
        # margin fixed): the envelope leakage drops as the order windows
        # widen, so wider packets track the series better
        errs = []
        for wy, box, n in ((25.0, 64.0, 4096), (50.0, 128.0, 8192), (100.0, 256.0, 16384)):
            p = _reference(g0=2.0, wy_lambdas=wy)
            rn = raman_nath_params(p)
            grid = commensurate_grid(p, n, box)
            errs.append(
                pattern_discrepancy(analytic_orders(rn.tau, 7), numeric_orders(p, rn, grid, 7))
            )
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] < 1e-6

    def test_finite_density_gap_is_real_and_stable(self):
        # at V0 rho_0 = 0.3 the series (peak tau) and the grid (local
        # tau across the packet) disagree by a physical gap, not noise
        p = _reference(g0=2.0, v0rho=0.3)
        rn = raman_nath_params(p)
        grid = commensurate_grid(p, 4096, 128.0)
        gap = pattern_discrepancy(analytic_orders(rn.tau, 7), numeric_orders(p, rn, grid, 7))
        assert 0.07 < gap < 0.09  # measured 7.93e-2 at this geometry

    def test_density_suppression_of_high_orders(self):
        # blue detuning, V0 rho_0 = 0.5, drive weak enough that P_0 is
        # monotone in tau: density raises P_0 and drains q != 0
        p = _reference(g0=1.0, v0rho=0.5)
        rn = raman_nath_params(p)
        grid = commensurate_grid(p, 4096, 128.0)
        num = numeric_orders(p, rn, grid, 7)
        zero_density = analytic_orders(2.0 * rn.g0, 7)
        assert num.orders[0] > zero_density.orders[0]
        assert num.orders[1] < zero_density.orders[1]

    @pytest.mark.parametrize("v0rho", [0.125, 0.301])
    def test_a_slow_phase_leaves_every_binned_order(self, v0rho):
        # the s-wave mean field's phase over the transit, about
        # 81 exp(-y^2/w_y^2) rad at the README beam (ROADMAP item 19), is
        # slow on the standing wave: each order's momentum moves inside
        # its bin, so P_q keeps its value while the box holds the packet.
        # A box that cuts the packet moves P_q by parts in 1e9.
        p = with_v0rho(make_params(), v0rho)
        rn = raman_nath_params(p)
        gaps = []
        for n, box in ((32768, 512.0), (8192, 256.0)):
            grid = commensurate_grid(p, n, box)
            q_max = order_capacity(grid, order_spacing(p))[1]
            mask = packet_envelope(grid, p.w_y) * np.exp(-1j * phase_profile(grid, p, rn))
            psi = mask * np.exp(-81j * gaussian_profile(grid, p.w_y * p.w_y))
            # no spectator: it moves most of the spectral power (Parseval
            # sum, at most 2), each mode's within its bin
            moved = np.abs(np.fft.fft(psi)) ** 2 - np.abs(np.fft.fft(mask)) ** 2
            assert np.abs(moved).sum() > 1.5 * n * np.sum(np.abs(mask) ** 2)
            slow = momentum_spectrum(WaveState(grid=grid, amplitude=psi), order_spacing(p), q_max)
            gaps.append(pattern_discrepancy(numeric_orders(p, rn, grid, q_max), slow))
        assert gaps[0] < 1e-15  # measured 1.2e-16 and 1.9e-16
        assert 1e-10 < gaps[1] < 1e-8  # measured 9.0e-10


class TestPropagatorOrders:
    def test_matches_phase_mask_dilute(self):
        p = _reference(g0=2.0)
        rn = raman_nath_params(p)
        grid = commensurate_grid(p, 1024, 32.0)
        num = numeric_orders(p, rn, grid, 7)
        prop = propagator_orders(p, grid, 7, z_steps=512)
        assert pattern_discrepancy(num, prop) < 1e-6

    def test_matches_phase_mask_dense(self):
        p = _reference(g0=2.0, v0rho=0.3)
        rn = raman_nath_params(p)
        grid = commensurate_grid(p, 1024, 32.0)
        num = numeric_orders(p, rn, grid, 7)
        prop = propagator_orders(p, grid, 7, z_steps=512)
        assert pattern_discrepancy(num, prop) < 1e-6

    def test_single_particle_model_ignores_density(self):
        # with the density-blind potential the dense run must reproduce
        # the zero-density series argument 2 g0, not the screened tau
        p = _reference(g0=1.0, v0rho=0.4)
        grid = commensurate_grid(p, 1024, 32.0)
        prop = propagator_orders(p, grid, 7, z_steps=512, model=ModelKind.SINGLE_PARTICLE)
        rn = raman_nath_params(p)
        against_screened = pattern_discrepancy(prop, analytic_orders(rn.tau, 7))
        against_bare = pattern_discrepancy(prop, analytic_orders(2.0 * rn.g0, 7))
        assert against_bare < 1e-3
        assert against_bare < 0.05 * against_screened


class TestEvaluateRoutes:
    def test_patterns_match_the_routes_called_directly(self):
        p = _reference(g0=2.0, v0rho=0.3)
        rn, patterns, discrepancy = evaluate_routes(
            p, ("propagator", "analytic", "numeric"), 7, 1024, 32.0, 64
        )
        assert rn == raman_nath_params(p)
        assert tuple(patterns) == ROUTES
        grid = commensurate_grid(p, 1024, 32.0)
        direct = {
            "analytic": analytic_orders(rn.tau, 7),
            "numeric": numeric_orders(p, rn, grid, 7),
            "propagator": propagator_orders(p, grid, 7, z_steps=64),
        }
        for name in ROUTES:
            assert patterns[name].orders == direct[name].orders
        pairs = [(a, b) for i, a in enumerate(ROUTES) for b in ROUTES[i + 1 :]]
        assert discrepancy == max(
            pattern_discrepancy(direct[a], direct[b]) for a, b in pairs
        )

    def test_single_route_has_zero_discrepancy(self):
        p = _reference(g0=1.0)
        _, patterns, discrepancy = evaluate_routes(p, ("analytic",), 3, 1024, 32.0, 64)
        assert list(patterns) == ["analytic"]
        assert discrepancy == 0.0

    def test_model_reaches_the_propagator(self):
        p = _reference(g0=1.0, v0rho=0.4)
        _, patterns, _ = evaluate_routes(
            p, ("propagator",), 7, 1024, 32.0, 512, model=ModelKind.SINGLE_PARTICLE
        )
        grid = commensurate_grid(p, 1024, 32.0)
        want = propagator_orders(p, grid, 7, z_steps=512, model=ModelKind.SINGLE_PARTICLE)
        assert patterns["propagator"].orders == want.orders

    def test_q_max_beyond_the_grid_is_refused_before_a_grid_route(self, monkeypatch):
        p = _reference(g0=2.0)
        calls = []
        monkeypatch.setattr(diffraction, "numeric_orders", lambda *a: calls.append(a))
        monkeypatch.setattr(diffraction, "propagator_orders", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigurationError, match=r"this grid supports q_max <= 7 "):
            evaluate_routes(p, ROUTES, 8, 1024, 32.0, 64)
        assert calls == []

    def test_guard_raises(self):
        p = with_g0(red_detuned(make_params()), -1.0)
        pole = replace(p, rho_0=-1.0 / raman_nath_params(p).v0)
        with pytest.raises(PoleError):
            evaluate_routes(pole, ROUTES, 3, 1024, 32.0, 64)

    @pytest.mark.parametrize(
        "routes", [["Numeric"], [], ["analytic", "bessel"], "", "magic", "all,analytic"]
    )
    def test_unknown_or_empty_selection_raises(self, routes):
        with pytest.raises(ConfigurationError, match="invalid path selection"):
            evaluate_routes(_reference(g0=1.0), routes, 3, 1024, 32.0, 64)

    @pytest.mark.parametrize(
        "text, names",
        [
            ("numeric", ["numeric"]),
            ("propagator,analytic", ["propagator", "analytic"]),
            (" numeric , analytic ,", ["numeric", "analytic"]),
        ],
    )
    def test_string_means_its_comma_list(self, text, names):
        p = _reference(g0=1.0, v0rho=0.2)
        by_text = evaluate_routes(p, text, 3, 1024, 32.0, 64)
        by_list = evaluate_routes(p, names, 3, 1024, 32.0, 64)
        assert list(by_text[1]) == [r for r in ROUTES if r in names]
        assert by_text[0] == by_list[0] and by_text[2] == by_list[2]
        assert {k: v.orders for k, v in by_text[1].items()} == {
            k: v.orders for k, v in by_list[1].items()
        }


class TestSelectRoutes:
    def test_all_and_canonical_order(self):
        assert select_routes("all") == ROUTES
        assert select_routes(("propagator", "analytic")) == ("analytic", "propagator")
        assert select_routes("propagator,analytic,propagator") == ("analytic", "propagator")
        assert select_routes(ROUTES) == ROUTES

    @pytest.mark.parametrize("selection", ["", ",", " ", (), ("all",), ("analytic", "Analytic")])
    def test_rejects(self, selection):
        with pytest.raises(ConfigurationError) as info:
            select_routes(selection)
        assert str(info.value) == (
            f"invalid path selection {selection!r}; use analytic, numeric, propagator or all"
        )


def _density_sweep(params, densities, q_max):
    spec = SweepSpec(
        base=params, axis="rho_0", values=tuple(densities),
        paths=("analytic",), q_max=q_max,
    )
    return spec, run_sweep(spec)


class TestDensitySweep:
    """The analytic density sweep, run as a one-route run_sweep."""

    def test_tau_strictly_decreases_blue(self):
        p = with_g0(make_params(), 1.0)
        rho_star = 1.0 / raman_nath_params(p).v0
        densities = [f * rho_star for f in np.linspace(0.0, 1.0, 11)]
        _, rows = _density_sweep(p, densities, 5)
        taus = [r.tau for r in rows]
        assert all(r.error is None for r in rows)
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_pole_point_becomes_error_row(self):
        p = with_g0(red_detuned(make_params()), -1.0)
        rho_pole = -1.0 / raman_nath_params(p).v0
        _, rows = _density_sweep(p, [0.0, rho_pole, 0.5 * rho_pole], 4)
        assert rows[0].error is None
        assert rows[1].error is not None and rows[1].patterns is None
        assert rows[2].error is None

    def test_invalid_density_becomes_error_row(self):
        _, rows = _density_sweep(with_g0(make_params(), 1.0), [0.0, -5.0], 3)
        assert rows[0].error is None
        assert rows[1].error is not None

    def test_report_shape(self):
        p = with_g0(make_params(), 1.0)
        spec, rows = _density_sweep(p, [0.0, 1.0e15], 2)
        report = sweep_report(spec, rows)
        orders = report["rows"][0]["orders"]["analytic"]
        assert set(orders) == {"-2", "-1", "0", "1", "2"}
        assert orders["2"] == orders["-2"]
        assert orders["1"] == orders["-1"]
