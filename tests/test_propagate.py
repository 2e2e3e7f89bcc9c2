"""Grid, wave state, split stepping, and spectral order extraction."""

import io
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from matteroptics.errors import (
    ConfigurationError,
    NumericsError,
    ParameterError,
    PhysicsGuardError,
)
from matteroptics import propagate
from matteroptics.propagate import (
    Grid1D,
    PropagationConfig,
    WaveState,
    init_gaussian,
    momentum_spectrum,
    norm,
    packet_normalization,
    propagate_through_laser,
    standing_wave_intensity,
    step,
    write_state_csv,
)
from matteroptics.diffraction import (
    commensurate_grid,
    numeric_orders,
    order_spacing,
    phase_profile,
)
from matteroptics.models import ModelKind, effective_potential, raman_nath_params
from matteroptics.serialize import csv_num
from matteroptics.units import HBAR, detuning

from conftest import (
    GRID_MEMOS,
    make_params,
    poison_envelope,
    poison_z_step,
    red_detuned,
    with_v0rho,
    with_wy_lambdas,
)


def _grid(n=256, length=1.0):
    return Grid1D(n_points=n, y_min=-0.5 * length, y_max=0.5 * length)


def spy_settle(monkeypatch) -> list[float]:
    """The drive of each potential phase the transit applies, in order."""
    real, drives = propagate._settle, []

    def settle(psi, drive, weight):
        drives.append(drive)
        return real(psi, drive, weight)

    monkeypatch.setattr(propagate, "_settle", settle)
    return drives


class TestGrid1D:
    def test_geometry(self):
        g = _grid(256, 2.0)
        assert g.length == 2.0
        assert g.spacing == 2.0 / 256
        pts = g.points()
        assert pts[0] == -1.0
        assert pts[-1] == pytest.approx(1.0 - g.spacing)
        assert np.array_equal(
            g.wavenumbers(), 2.0 * math.pi * np.fft.fftfreq(256, d=g.spacing)
        )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            Grid1D(n_points=100, y_min=0.0, y_max=1.0)
        with pytest.raises(ConfigurationError, match="power of two"):
            Grid1D(n_points=8, y_min=0.0, y_max=1.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError, match="exceed"):
            Grid1D(n_points=64, y_min=1.0, y_max=1.0)
        with pytest.raises(ConfigurationError, match="finite"):
            Grid1D(n_points=64, y_min=-math.inf, y_max=0.0)


class TestWaveState:
    def test_casting_and_shape(self):
        g = _grid(64)
        s = WaveState(grid=g, amplitude=np.ones(64))
        assert s.amplitude.dtype == np.complex128
        with pytest.raises(ConfigurationError, match="length"):
            WaveState(grid=g, amplitude=np.ones(65))

    def test_zero_field_rejected(self):
        g = _grid(64)
        with pytest.raises(ConfigurationError, match="zero"):
            WaveState(grid=g, amplitude=np.zeros(64))


class TestPacketNormalization:
    def test_dense_packet_is_normalized_to_its_density(self):
        assert packet_normalization(4.0e14) == (math.sqrt(4.0e14), 1.0)

    def test_tracer_has_unit_peak_and_zero_density(self):
        peak, factor = packet_normalization(0.0)
        assert (peak, factor) == (1.0, 0.0)
        assert not math.copysign(1.0, factor) < 0.0

    def test_rejects_a_density_outside_the_range(self):
        for rho_0 in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="rho_0 must be finite and nonnegative"):
                packet_normalization(rho_0)

    def test_the_factor_gives_the_bits_of_a_unit_or_infinite_area(self):
        # |psi|^2 times the factor against |psi|^2 / A at A = 1 and A = inf:
        # zero, subnormal, huge, inf and NaN alike, so a tracer's NaN
        # density still reaches the finite check
        sq = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf, math.nan])
        for rho_0, area in ((2.0e14, 1.0), (0.0, math.inf)):
            with np.errstate(invalid="ignore"):  # inf * 0 and inf / inf
                got, old = sq * packet_normalization(rho_0)[1], sq / area
            assert np.array_equal(got.view(np.int64), old.view(np.int64))


class TestPropagationConfig:
    def test_guards(self):
        with pytest.raises(ConfigurationError, match="n_steps"):
            PropagationConfig(n_steps=0)

    def test_fields(self):
        cfg = PropagationConfig(n_steps=4)
        # a transit, not a time step: the window and n_steps fix dt; the
        # density follows rho_0 and the laser is the params' standing
        # wave, so no field sets either
        assert [f.name for f in fields(cfg)] == ["n_steps", "kinetic_enabled", "model"]


def test_standing_wave_intensity():
    p = make_params()
    profile = standing_wave_intensity(p)
    nk = p.harmonic * p.k_l
    y = np.array([0.0, math.pi / (2.0 * nk)])
    at_focus = profile(y, 0.0)
    assert at_focus[0] == pytest.approx(p.rabi_peak**2, rel=1e-15)
    assert abs(at_focus[1]) < 1e-30 * p.rabi_peak**2  # standing-wave node
    away = profile(y, p.w_l)
    assert away[0] == pytest.approx(p.rabi_peak**2 * math.exp(-1.0), rel=1e-14)


def test_standing_wave_refuses_an_underflowing_width():
    # 1 / w_L^2 with w_L^2 = 0 would be a ZeroDivisionError
    p = make_params(w_l=1e-300)
    for build in (lambda: propagate._envelope(p, np.zeros(1)), lambda: standing_wave_intensity(p)):
        with pytest.raises(
            ParameterError, match=r"^w_l is out of range: its power 2 underflows to 0$"
        ):
            build()


def test_standing_wave_factors():
    # E(z) over an array of z and P(y) over the grid; their product is
    # the (y, z) intensity to the last bit of the exponential
    p = make_params()
    z = np.array([0.0, p.w_l, -2.0 * p.w_l])
    envelope = propagate._envelope(p, z)
    assert np.allclose(
        envelope, p.rabi_peak**2 * np.array([1.0, math.exp(-1.0), math.exp(-4.0)]),
        rtol=1e-15, atol=0.0,
    )
    grid = Grid1D(n_points=32, y_min=-1.0e-4, y_max=1.0e-4)
    y = grid.points()
    pattern = propagate.standing_wave_pattern(grid, p.harmonic * p.k_l)
    assert np.array_equal(pattern, np.cos(p.harmonic * p.k_l * y) ** 2)
    profile = standing_wave_intensity(p)
    for zi, ei in zip(z, envelope):
        assert np.allclose(profile(y, zi), ei * pattern, rtol=4e-16, atol=0.0)


class TestInitGaussian:
    def test_peak_and_density(self):
        g = _grid(256, 1.0)
        s = init_gaussian(g, rho0=4.0e14, w_y=0.05)
        center = 128  # y = 0 lands on a grid point of the symmetric box
        assert g.points()[center] == 0.0
        assert s.amplitude[center].real == math.sqrt(4.0e14)
        assert np.abs(s.amplitude[center]) ** 2 == pytest.approx(4.0e14, rel=1e-15)

    def test_width_guard(self):
        g = _grid(256, 1.0)
        init_gaussian(g, 0.0, 1.0 / 6.5)
        with pytest.raises(ConfigurationError, match="too wide"):
            init_gaussian(g, 0.0, 1.0 / 6.0)
        with pytest.raises(ConfigurationError, match="w_y"):
            init_gaussian(g, 0.0, -1.0)
        # 2 w_y^2 underflows to 0, which would divide the exponent by zero
        with pytest.raises(
            ParameterError, match=r"^w_y is out of range: its square underflows to 0$"
        ):
            init_gaussian(g, 0.0, 1e-300)

    def test_narrow_guard(self, monkeypatch):
        # w_y must span MIN_PACKET_CELLS grid cells; the check reads only
        # scalars, so a refused packet takes no sample
        g = _grid(256, 1.0)
        cells = propagate.MIN_PACKET_CELLS
        init_gaussian(g, 0.0, cells * g.spacing)
        monkeypatch.setattr(Grid1D, "points", lambda self: pytest.fail("sampled"))
        with pytest.raises(
            ConfigurationError,
            match=rf"^packet too narrow for the grid: .* need at least {cells}$",
        ):
            init_gaussian(g, 0.0, math.nextafter(cells * g.spacing, 0.0))

    def test_tracer_convention(self):
        g = _grid(256, 1.0)
        s = init_gaussian(g, 0.0, 0.05)
        assert s.amplitude[128].real == 1.0
        with pytest.raises(ParameterError, match="rho_0"):
            init_gaussian(g, -1.0e10, 0.05)


def test_norm_matches_gaussian_integral():
    g = _grid(1024, 1.0)
    w_y = 0.05
    s = init_gaussian(g, 2.0e14, w_y)
    assert norm(s) == pytest.approx(2.0e14 * w_y * math.sqrt(math.pi), rel=1e-6)


def test_free_plane_wave_phase_is_exact():
    p = make_params()
    g = _grid(256, 1.0)
    k = 2.0 * math.pi * 5.0 / g.length  # on-grid mode
    psi0 = np.exp(1j * k * g.points())
    s = WaveState(grid=g, amplitude=psi0.copy())
    dt = 1.0e-6
    n_steps = 100
    cfg = PropagationConfig(n_steps=1)
    for _ in range(n_steps):
        s = step(s, dt, cfg, p, envelope=np.zeros(2))  # laser off
    expected = psi0 * np.exp(-0.5j * HBAR * k * k * dt * n_steps / p.mass)
    assert np.max(np.abs(s.amplitude - expected)) < 1e-12


def test_constant_drive_accumulates_trapezoid_phase():
    # kinetic off, z-independent drive: n steps of two half kicks apply
    # exactly exp(-i V T / hbar), and the modulus cannot move; so does
    # one step over the whole stretch of n z-steps
    p = make_params()
    g = _grid(128, 1.0)
    psi0 = np.exp(-(g.points() ** 2) / 0.02)
    omega_sq = p.rabi_peak**2
    dt, n_steps = 1.0e-6, 128
    cfg = PropagationConfig(n_steps=1, kinetic_enabled=False)
    flat = (np.ones(128), None)  # a flat pattern and no kinetic phase
    s = WaveState(grid=g, amplitude=psi0.copy())
    for _ in range(n_steps):
        s = step(s, dt, cfg, p, flat, envelope=np.full(2, omega_sq))
    stretch = step(
        WaveState(grid=g, amplitude=psi0.copy()), dt, cfg, p, flat,
        envelope=np.full(n_steps + 1, omega_sq),
    )
    v_over_hbar = omega_sq / (4.0 * detuning(p))
    expected = psi0 * np.exp(-1j * v_over_hbar * dt * n_steps)
    for out in (s, stretch):
        assert out.time == pytest.approx(n_steps * dt, rel=1e-12)
        assert np.max(np.abs(out.amplitude - expected)) < 1e-12 * np.max(np.abs(psi0))
        assert np.max(np.abs(np.abs(out.amplitude) - np.abs(psi0))) < 1e-12


@pytest.mark.parametrize("kinetic", [True, False])
def test_a_step_needs_two_envelope_samples(kinetic):
    # the samples are the endpoints of the z-steps a step covers, and a
    # step covers at least one
    p = make_params()
    s = WaveState(grid=_grid(64, 1.0), amplitude=np.ones(64))
    cfg = PropagationConfig(n_steps=1, kinetic_enabled=kinetic)
    for envelope in (np.ones(1), np.ones(0)):
        with pytest.raises(ConfigurationError, match="one or more z-steps"):
            step(s, 1.0e-6, cfg, p, envelope=envelope)


def test_adiabatic_guard_in_step():
    # ratio 1, far below 10; rho_0 > 0, so the density is |psi|^2 = 1
    noisy = make_params(gamma=abs(detuning(make_params())), rho_0=1.0)
    g = _grid(64, 1.0)
    s = WaveState(grid=g, amplitude=np.ones(64))
    cfg = PropagationConfig(n_steps=1)
    guard = r"^adiabatic elimination invalid: \|Delta_l\|/gamma = 1 < 10 at density 1\.000e\+00$"
    with pytest.raises(PhysicsGuardError, match=guard):
        step(s, 1.0e-9, cfg, noisy, envelope=np.zeros(2))


def test_adiabatic_guard_checks_the_packet_wings():
    # Blue of resonance Delta_l = Delta (1 + V0 rho) grows with the density,
    # so the wings are the weakest point: ratio 8 there, 10.4 at the peak.
    p = with_v0rho(make_params(), 0.3)
    p = replace(p, gamma=abs(detuning(p)) / 8.0)
    g = _grid(512, 8.0 * p.w_y)
    s = init_gaussian(g, p.rho_0, p.w_y)
    wing = float(np.min(np.abs(s.amplitude) ** 2))
    guard = (
        r"^adiabatic elimination invalid: \|Delta_l\|/gamma = 8 < 10 "
        rf"at density {wing:.3e}$".replace("+", r"\+")
    )
    cfg = PropagationConfig(n_steps=16, kinetic_enabled=False)
    with pytest.raises(PhysicsGuardError, match=guard):
        propagate_through_laser(s, cfg, p)


@pytest.mark.parametrize("rho_0, peak", [(1.0, "inf"), (0.0, "nan")], ids=["dense", "tracer"])
@pytest.mark.parametrize("red", [False, True], ids=["blue", "red"])
@pytest.mark.parametrize("gamma", [0.0, 6.1e7], ids=["gamma0", "gamma_pos"])
def test_non_finite_density_is_a_numerics_failure_for_every_gamma(gamma, red, rho_0, peak):
    # without the check at gamma = 0 a blue step returned a non-finite
    # field and a red one hit the pole guard with a NaN density; the
    # tracer's zero density of an infinite |psi|^2 is NaN, not 0
    p = make_params(gamma=gamma, rho_0=rho_0)
    if red:
        p = red_detuned(p)
    amp = np.ones(64, dtype=np.complex128)
    amp[5] = np.inf
    cfg = PropagationConfig(n_steps=1, kinetic_enabled=False)
    pattern = rf"^non-finite peak density {peak} at t = 0\.0 s"
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match=pattern) as err:
        step(
            WaveState(grid=_grid(64, 1.0), amplitude=amp), 1.0e-9, cfg, p, (np.ones(64), None),
            envelope=np.full(2, p.rabi_peak**2),
        )
    assert err.value.last_good is None  # a bare step has no last good state


class TestPropagateThroughLaser:
    def test_clock_and_observer(self):
        # the observer sees the asked-for steps and the last step, in order,
        # and nothing in between
        p = make_params()
        g = _grid(256, 8.0 * p.w_l)
        s = init_gaussian(g, 0.0, p.w_l)
        seen = []
        cfg = PropagationConfig(
            n_steps=30, kinetic_enabled=False
        )
        out = propagate_through_laser(
            s, cfg, p, observer=lambda i, st: seen.append((i, st.time)),
            observe_steps={3, 8, 16, 20, 24},
        )
        assert [i for i, _ in seen] == [3, 8, 16, 20, 24, 30]
        dt = 8.0 * p.w_l / p.v_g / 30
        for i, t in seen:
            assert t == pytest.approx(-4.0 * p.w_l / p.v_g + i * dt, rel=1e-12)
        assert out.time == s.time + 8.0 * p.w_l / p.v_g

    def test_an_overflowing_transit_time_names_v_g(self, monkeypatch):
        # 8 w_L / v_g overflows to inf for a tiny speed: refused before the
        # envelope is sampled, not left to fail as a numerics error
        p = make_params(v_g=5e-324)
        monkeypatch.setattr(propagate, "_envelope", lambda *a: pytest.fail("envelope sampled"))
        s = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        with pytest.raises(
            ParameterError, match=r"^v_g is out of range: the transit time 8 w_L / v_g overflows$",
        ):
            propagate_through_laser(s, PropagationConfig(n_steps=4, kinetic_enabled=False), p)

    def test_finite_checks_are_real_states_with_the_kinetic_term_only(self, monkeypatch):
        # checks every 8 steps: the kinetic-on observer sees them between
        # the asked-for steps; a kinetic-off transit makes no state real
        # for them
        monkeypatch.setattr("matteroptics.propagate._FINITE_CHECK_INTERVAL", 8)
        p = make_params()
        s = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        for kinetic, expected in ((True, [3, 8, 16, 20, 24, 30]), (False, [3, 8, 20, 30])):
            seen = []
            cfg = PropagationConfig(
                n_steps=30, kinetic_enabled=kinetic
            )
            propagate_through_laser(
                s, cfg, p, observer=lambda i, st: seen.append(i), observe_steps={3, 8, 20}
            )
            assert seen == expected

    def test_nan_abort_carries_diagnostics(self, monkeypatch):
        # kinetic off, observed every 64 steps: the phase of the stretch
        # from 192 to 256 is checked before its exponential, and the error
        # names the stretch's end step and its entry time
        p = make_params()
        g = _grid(256, 8.0 * p.w_l)
        s = init_gaussian(g, 0.0, p.w_l)
        # goes bad after step 208 of 256
        poison_envelope(monkeypatch, lambda z: z > 2.5 * p.w_l)
        settled = spy_settle(monkeypatch)
        cfg = PropagationConfig(n_steps=256, kinetic_enabled=False)
        with pytest.raises(
            NumericsError, match=r"^non-finite potential phase nan over the stretch from t = "
        ) as err:
            propagate_through_laser(s, cfg, p, observe_steps={64, 128, 192})
        assert err.value.step == 256
        dt = 8.0 * p.w_l / p.v_g / 256
        assert err.value.time == pytest.approx(-4.0 * p.w_l / p.v_g + 192 * dt, rel=1e-12)
        assert len(settled) == 3  # the three clean stretches, not the poisoned one

    def _tracer_run(self, kinetic, n_steps, state=None, **kwargs):
        p = make_params()
        if state is None:
            state = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        cfg = PropagationConfig(n_steps=n_steps, kinetic_enabled=kinetic)
        return propagate_through_laser(state, cfg, p, **kwargs)

    def test_scan_failure_carries_the_last_good_state(self, monkeypatch):
        # kinetic off, observed every 64 steps: the stretch from step 192
        # to 256 comes back NaN, so the scan at 256 fails and 192 is the
        # last good
        observed = {64, 128, 192}
        clean = {}
        self._tracer_run(
            False, 256, observer=lambda i, st: clean.setdefault(i, st), observe_steps=observed,
        )
        real_step = propagate.step
        calls = []

        def poisoned_step(state, dt, config, params, invariants=None, **kwargs):
            out = real_step(state, dt, config, params, invariants, **kwargs)
            calls.append(out)
            if len(calls) == 4:
                out = WaveState(out.grid, out.amplitude * np.nan, out.time)
            return out

        monkeypatch.setattr(propagate, "step", poisoned_step)
        with pytest.raises(NumericsError, match="^non-finite amplitude after step 256") as err:
            self._tracer_run(False, 256, observe_steps=observed)
        index, good = err.value.last_good
        assert index == 192
        assert np.array_equal(good.amplitude, clean[192].amplitude)
        assert good.time == clean[192].time

    def test_density_failure_carries_the_last_good_state(self, monkeypatch):
        # kinetic on, real states every 3 steps: a NaN made by z-step 7 is
        # caught by z-step 8's density check inside the step over 6..9,
        # not by a scan
        monkeypatch.setattr(propagate, "_FINITE_CHECK_INTERVAL", 3)
        clean = {}
        self._tracer_run(True, 16, observer=lambda i, st: clean.setdefault(i, st))
        fields = poison_z_step(monkeypatch, 7, {3, 6, 9, 12, 15, 16})
        with pytest.raises(NumericsError, match="^non-finite peak density nan") as err:
            self._tracer_run(True, 16)
        assert sorted(fields) == list(range(1, 8)) and err.value.step is None
        index, good = err.value.last_good
        assert index == 6
        assert np.array_equal(good.amplitude, clean[6].amplitude)

    def test_no_real_state_passed_leaves_the_entry_state(self, monkeypatch):
        p = make_params()
        entry = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        poison_envelope(monkeypatch, lambda z: True)
        settled = spy_settle(monkeypatch)
        with pytest.raises(NumericsError, match=r"^non-finite potential phase nan ") as err:
            self._tracer_run(False, 16, state=entry)
        assert err.value.step == 16 and settled == []
        index, good = err.value.last_good
        assert index == 0 and good is entry

    def test_poisoned_drive_leaves_the_last_observed_state(self, monkeypatch):
        # kinetic off, the real states are the observed steps and the last:
        # an envelope that turns NaN past z = 0 fails the stretch from step
        # 601 to 2048 before its exponential, and the last good state is
        # the one at observed step 600, as a clean run gives it
        observed = (300, 600)
        clean = {}
        self._tracer_run(
            False, 2048, observer=lambda i, st: clean.setdefault(i, st), observe_steps=observed,
        )
        poison_envelope(monkeypatch, lambda z: z > 0.0)
        settled = spy_settle(monkeypatch)
        seen = []
        with pytest.raises(
            NumericsError, match=r"^non-finite potential phase nan over the stretch from t = "
        ) as err:
            self._tracer_run(
                False, 2048, observer=lambda i, st: seen.append(i), observe_steps=observed,
            )
        assert seen == [300, 600] and err.value.step == 2048
        assert len(settled) == 2 and err.value.time == clean[600].time
        index, good = err.value.last_good
        assert index == 600
        assert np.array_equal(good.amplitude, clean[600].amplitude)
        assert good.time == clean[600].time

    def test_non_finite_phase_is_caught_before_the_exponential(self, monkeypatch):
        # a finite drive on a NaN pattern: the stretch's phase is checked
        # where its weight is made, and the entry state is the last good
        p = make_params()
        entry = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        monkeypatch.setattr(
            propagate, "standing_wave_pattern",
            lambda grid, nk: np.where(grid.points() > 0.0, np.nan, 1.0),
        )
        with pytest.raises(NumericsError, match="^non-finite potential phase nan") as err:
            self._tracer_run(False, 2048, state=entry)
        index, good = err.value.last_good
        assert index == 0 and good is entry

    def _ceiling_run(self, kinetic, observe=()):
        p = make_params()
        state = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        cfg = PropagationConfig(n_steps=64, kinetic_enabled=kinetic)
        return propagate_through_laser(state, cfg, p, observe_steps=observe)

    def test_each_stretch_checks_its_largest_phase_once(self, monkeypatch):
        # a drive reaches _weight once per stretch, at its entry density:
        # the whole sum of a kinetic-off stretch, the largest per-z-step
        # drive of a kinetic-on one, never each z-step's
        real = propagate._weight
        drives = []

        def spy(*args, drive=None):
            if drive is not None:
                drives.append(drive)
            return real(*args, drive=drive)

        monkeypatch.setattr(propagate, "_weight", spy)
        self._ceiling_run(True, observe={16, 32})
        on = drives[:]
        drives.clear()
        self._ceiling_run(False, observe={16, 32})
        assert len(on) == len(drives) == 3
        assert all(0.0 < a < b for a, b in zip(on, drives))

    @pytest.mark.parametrize("kinetic", [True, False])
    def test_a_phase_past_the_ceiling_is_refused(self, monkeypatch, kinetic):
        monkeypatch.setattr(propagate, "MAX_EXPONENT_PHASE", 1e-3)
        with pytest.raises(
            ParameterError,
            match=r"^out of range for the full model: a potential phase of \S+ rad in one "
            r"exponential exceeds the 1e-03 rad a double resolves; it grows as rabi_peak\^2 "
            r"w_l / \(\|detuning\| v_g\), and with rho_0 through the model's density factor$",
        ):
            self._ceiling_run(kinetic)

    @pytest.mark.parametrize("kinetic", [True, False])
    def test_an_overflowing_phase_is_an_input_out_of_range(self, kinetic):
        # at v_g = 1e-300 a transit's dt is about 1e296 s and dt V / hbar
        # overflows to inf: the phase of a finite density and drive is the
        # input's, not a numerics failure
        p = make_params(v_g=1e-300)
        state = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        cfg = PropagationConfig(n_steps=16, kinetic_enabled=kinetic)
        with pytest.raises(
            ParameterError,
            match=r"^out of range for the full model: a potential phase of inf rad in one "
            r"exponential exceeds the 4e\+09 rad a double resolves; it grows as rabi_peak\^2 ",
        ):
            propagate_through_laser(state, cfg, p)

    @pytest.mark.parametrize("poison", ["inf drive", "nan weight"])
    def test_a_poisoned_phase_stays_a_numerics_failure(self, monkeypatch, poison):
        # an infinite drive (its phase is inf too) or a NaN in the weight
        # of a finite drive is the numerics', refused before the exponential
        if poison == "inf drive":
            real_envelope = propagate._envelope

            def envelope(params, z):
                return np.where(z > 0.0, math.inf, real_envelope(params, z))

            monkeypatch.setattr(propagate, "_envelope", envelope)
        else:
            real_potential = propagate.effective_potential

            def potential(*args):
                # NaN where the pattern args[1] is near its peak
                return np.where(args[1] > 0.9, math.nan, real_potential(*args))

            monkeypatch.setattr(propagate, "effective_potential", potential)
        settled = spy_settle(monkeypatch)
        with pytest.raises(NumericsError, match=r"^non-finite potential phase (inf|nan) ") as err:
            self._ceiling_run(False, observe={16, 32})
        assert err.value.step == (64 if poison == "inf drive" else 16)
        assert len(settled) == (2 if poison == "inf drive" else 0)

    def test_the_ceiling_keeps_a_phase_resolved_to_a_microradian(self):
        ceiling = propagate.MAX_EXPONENT_PHASE
        assert np.spacing(ceiling) < 1e-6 < np.spacing(1e3 * ceiling)

    @pytest.mark.parametrize("outside", [0, -1, 31])
    def test_observe_steps_outside_the_transit_are_rejected(self, outside):
        p = make_params()
        s = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        cfg = PropagationConfig(
            n_steps=30, kinetic_enabled=False
        )
        with pytest.raises(
            ConfigurationError, match=rf"^observe_steps must lie in 1\.\.30, got \[{outside}\]$"
        ):
            propagate_through_laser(s, cfg, p, observe_steps={1, outside, 30})

    def test_observe_steps_must_be_integers(self):
        p = make_params()
        s = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        for kinetic in (True, False):
            cfg = PropagationConfig(
                n_steps=30, kinetic_enabled=kinetic
            )
            with pytest.raises(TypeError, match="integer"):
                propagate_through_laser(s, cfg, p, observe_steps={2.5})
            seen = []
            propagate_through_laser(
                s, cfg, p, observer=lambda i, st: seen.append(i),
                observe_steps=np.array([3, 20]),
            )
            assert seen == [3, 20, 30] and all(type(i) is int for i in seen)

    def test_kinetic_off_transit_steps_once_per_stretch(self, monkeypatch):
        # 2048 z-steps: one step per real state, the two observed steps and
        # the last
        p = make_params()
        s = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
        stretches = []
        real_step = propagate.step

        def counting_step(state, *args, envelope=None, **kwargs):
            stretches.append(len(envelope) - 1)
            return real_step(state, *args, envelope=envelope, **kwargs)

        monkeypatch.setattr(propagate, "step", counting_step)
        n_steps, observed = 2048, (100, 1000)
        cfg = PropagationConfig(n_steps=n_steps, kinetic_enabled=False)
        seen = []
        propagate_through_laser(
            s, cfg, p, observer=lambda i, st: seen.append(i), observe_steps=observed
        )
        assert seen == [100, 1000, n_steps]
        assert stretches == [100, 900, 1048]

    def test_unobserved_kinetic_off_transit_is_one_step(self, monkeypatch):
        # the beam-splitter transit: 2048 z-steps and no observer make one
        # step, one potential evaluation and so one exponential
        p = with_v0rho(make_params(), 0.3)
        s = init_gaussian(_grid(256, 8.0 * p.w_y), p.rho_0, p.w_y)
        steps, potentials = [], []
        real_step = propagate.step

        def counting_step(state, *args, **kwargs):
            steps.append(len(kwargs["envelope"]) - 1)
            return real_step(state, *args, **kwargs)

        def counting_potential(*args):
            potentials.append(args)
            return effective_potential(*args)

        monkeypatch.setattr(propagate, "step", counting_step)
        monkeypatch.setattr(propagate, "effective_potential", counting_potential)
        cfg = PropagationConfig(n_steps=2048, kinetic_enabled=False)
        propagate_through_laser(s, cfg, p)
        assert steps == [2048]
        assert len(potentials) == 1


@pytest.mark.parametrize("kinetic", [True, False])
def test_transit_builds_no_validated_state_per_step(kinetic, monkeypatch):
    # a step's result is known complex, of the grid's length and nonzero;
    # re-checking it would cost a conversion and a scan per step
    p = make_params()
    s = init_gaussian(_grid(256, 8.0 * p.w_l), 0.0, p.w_l)
    checked = []
    original = WaveState.__post_init__

    def counting(self):
        checked.append(self.time)
        original(self)

    monkeypatch.setattr(WaveState, "__post_init__", counting)
    cfg = PropagationConfig(
        n_steps=100, kinetic_enabled=kinetic
    )
    out = propagate_through_laser(s, cfg, p, observe_steps={10, 20})
    assert checked == []
    assert out.amplitude.dtype == np.complex128


def test_standing_wave_intensity_is_the_written_out_formula():
    p = make_params()
    profile = standing_wave_intensity(p)
    y1 = np.linspace(-1.0e-4, 1.0e-4, 33)
    y2 = y1 + 1.0e-5
    z = 0.3 * p.w_l
    for y in (y1, y2):
        # the formula in its original operation order
        direct = (
            p.rabi_peak**2 * math.exp(-(z * z) * (1.0 / p.w_l**2))
            * np.cos(p.harmonic * p.k_l * y) ** 2
        )
        assert np.array_equal(profile(y, z), direct)


def _area(params):
    # the transverse area the density rule stands for: |psi|^2 / area is
    # the density of a packet of peak density rho_0, 0 for the tracer
    return math.inf if params.rho_0 == 0.0 else 1.0


def _transit_setup(config, params):
    # (dt, entry time, endpoint z and envelope E = Omega_0^2 exp(-z^2/w_L^2)
    # at the N + 1 endpoint times), written out in the package's
    # operation order
    z_half = 4.0 * params.w_l
    dt = 2.0 * z_half / params.v_g / config.n_steps
    t_entry = -z_half / params.v_g
    z = params.v_g * (t_entry + dt * np.arange(config.n_steps + 1))
    envelope = params.rabi_peak**2 * np.exp(-(z * z) * (1.0 / params.w_l**2))
    return dt, t_entry, z, envelope


def _pattern(grid, params):
    # the standing wave's pattern P = cos^2(n k_L y) on the grid
    return np.cos(params.harmonic * params.k_l * grid.points()) ** 2


def _bare_step_transit(state, config, params):
    # propagate_through_laser spelled out as bare step() calls over one
    # z-step each, given the transit's own config; each step builds its
    # own pattern and kinetic phase
    dt, t_entry, _, envelope = _transit_setup(config, params)
    working = WaveState(grid=state.grid, amplitude=state.amplitude, time=t_entry)
    for index in range(1, config.n_steps + 1):
        working = step(working, dt, config, params, envelope=envelope[index - 1 : index + 1])
    return working.amplitude


def _kinetic_stage(psi, g, dt, params):
    k = g.wavenumbers()
    kinetic = np.exp(-0.5j * HBAR * dt / params.mass * k * k)
    return np.fft.ifft(np.fft.fft(psi) * kinetic)


def _textbook_transit(state, config, params):
    # the unmerged Strang scheme written out with no helper from the
    # package: |Omega|^2 = E P is rebuilt for every half-step, and each
    # half-step reads its own |psi|^2
    dt, _, _, envelope = _transit_setup(config, params)
    g = state.grid

    def half(psi, e):
        density = np.abs(psi) ** 2 / _area(params)
        v = effective_potential(config.model, e * _pattern(g, params), density, params)
        return psi * np.exp(-0.5j * dt * (v / HBAR))

    psi = state.amplitude
    for index in range(1, config.n_steps + 1):
        psi = half(psi, envelope[index - 1])
        if config.kinetic_enabled:
            psi = _kinetic_stage(psi, g, dt, params)
        psi = half(psi, envelope[index])
    return psi


def _deferred_transit(state, config, params, split_steps):
    # the stretch transit written out with no helper from the package.
    # One weight dt V(rho, P)/hbar per fresh density carries the pattern;
    # the potential phases since it sum the envelope as a scalar
    # trapezoid drive. With the kinetic term off one phase covers the
    # whole stretch up to the next split step; with it on the phase is
    # applied around each kinetic stage, a full closing phase merging
    # into the next step's opening half between split steps. Returns the
    # real states after the split steps, by step number.
    dt, _, _, envelope = _transit_setup(config, params)
    g = state.grid
    pattern = _pattern(g, params)

    def weight(psi):
        density = (psi.real**2 + psi.imag**2) / _area(params)
        return effective_potential(config.model, pattern, density, params) * (dt / HBAR)

    def settle(psi, drive, w):
        return psi * np.exp(-1j * (drive * w))

    stops = range(1, config.n_steps + 1) if config.kinetic_enabled else sorted(split_steps)
    psi, real, start, fresh = state.amplitude, {}, 0, True
    for index in stops:
        drive = 0.5 * envelope[start] if fresh else 0.0
        if config.kinetic_enabled:
            if fresh:
                psi = settle(psi, drive, weight(psi))
            psi = _kinetic_stage(psi, g, dt, params)
            drive = 0.0
        w = weight(psi)
        if index - start > 1:
            drive += float(np.sum(envelope[start + 1 : index]))
        fresh = index in split_steps
        psi = settle(psi, drive + (0.5 * envelope[index] if fresh else envelope[index]), w)
        if fresh:
            real[index] = psi
        start = index
    return real


class TestHoistedTransitIsBitExact:
    """The transit is the deferred-phase scheme, bit for bit as written out
    in _deferred_transit, and within roundoff of step-by-step Strang."""

    N_STEPS = 24
    OBSERVED = (5, 11)  # interior split points; the last step splits too
    ROUNDOFF = 1e-13  # of max|psi|: the merged phases against the unmerged halves

    def _dense(self):
        p = with_v0rho(make_params(), 0.3)
        g = _grid(512, 8.0 * p.w_y)
        return p, init_gaussian(g, p.rho_0, p.w_y)

    def _dilute(self):
        p = make_params()
        g = _grid(512, 8.0 * p.w_y)
        return p, init_gaussian(g, 0.0, p.w_y)

    def _check(self, p, s, config):
        seen = []
        out = propagate_through_laser(
            s, config, p,
            observer=lambda i, st: seen.append((i, st, st.amplitude.copy())),
            observe_steps=self.OBSERVED,
        )
        real = _deferred_transit(s, config, p, {*self.OBSERVED, config.n_steps})
        assert np.array_equal(out.amplitude, real[config.n_steps])
        assert [i for i, _, _ in seen] == [*self.OBSERVED, config.n_steps]
        for i, st, copy in seen:  # nothing handed to the observer was touched later
            assert np.array_equal(st.amplitude, copy)
            assert np.array_equal(copy, real[i])

        strang = _textbook_transit(s, config, p)
        assert np.max(np.abs(out.amplitude - strang)) <= self.ROUNDOFF * np.max(np.abs(strang))
        # split at every step, the transit is the chain of bare steps
        every = propagate_through_laser(
            s, config, p, observe_steps=range(1, config.n_steps + 1)
        )
        assert np.array_equal(every.amplitude, _bare_step_transit(s, config, p))

    @pytest.mark.parametrize("kinetic", [True, False])
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_dense_every_model(self, kinetic, model):
        p, s = self._dense()
        cfg = PropagationConfig(
            n_steps=self.N_STEPS, kinetic_enabled=kinetic,
            model=model,
        )
        before = s.amplitude.copy()
        self._check(p, s, cfg)
        assert np.array_equal(s.amplitude, before)

    @pytest.mark.parametrize("kinetic", [True, False])
    def test_dilute(self, kinetic):
        p, s = self._dilute()
        cfg = PropagationConfig(
            n_steps=self.N_STEPS, kinetic_enabled=kinetic,
        )
        self._check(p, s, cfg)

    @pytest.mark.parametrize("kinetic", [True, False])
    def test_the_laser_is_read_once_per_transit(self, monkeypatch, kinetic):
        # the envelope once, at the N + 1 endpoint z of the z-steps, and the
        # pattern once, on the transit's grid, with observed steps between
        p, s = self._dense()
        envelopes, patterns = [], []
        real_envelope, real_pattern = propagate._envelope, propagate.standing_wave_pattern

        def envelope(params, z):
            envelopes.append(z.copy())
            return real_envelope(params, z)

        def pattern(grid, nk):
            patterns.append((grid, nk))
            return real_pattern(grid, nk)

        monkeypatch.setattr(propagate, "_envelope", envelope)
        monkeypatch.setattr(propagate, "standing_wave_pattern", pattern)
        cfg = PropagationConfig(n_steps=self.N_STEPS, kinetic_enabled=kinetic)
        propagate_through_laser(s, cfg, p, observe_steps=self.OBSERVED)
        _, _, z_ends, _ = _transit_setup(cfg, p)
        assert len(envelopes) == 1 and np.array_equal(envelopes[0], z_ends)
        assert patterns == [(s.grid, p.harmonic * p.k_l)]

    def test_long_kinetic_off_transit_moves_orders_by_roundoff(self):
        # the beam-splitter transit at benchmark size: all 2048 steps of
        # drive pile up into one phase, and the orders still agree with the
        # unmerged scheme to roundoff (measured 8.0e-16)
        p = with_v0rho(with_wy_lambdas(make_params(), 20.0), 0.3)
        g = commensurate_grid(p, 4096, 128.0)
        s = init_gaussian(g, p.rho_0, p.w_y)
        cfg = PropagationConfig(n_steps=2048, kinetic_enabled=False)
        out = propagate_through_laser(s, cfg, p)
        strang = WaveState(grid=g, amplitude=_textbook_transit(s, cfg, p))
        merged = momentum_spectrum(out, order_spacing(p), 7).orders
        unmerged = momentum_spectrum(strang, order_spacing(p), 7).orders
        assert max(abs(merged[q] - unmerged[q]) for q in merged) <= 1e-14


def _words(array):
    """The 64-bit words of a complex128 array: real, imaginary, real, ..."""
    return np.ascontiguousarray(array, dtype=np.complex128).view(np.uint64)


class TestPhaseFactor:
    """phase_factor's cos and -sin are the bits of the complex exponential
    each of its callers took before, signed zeros included; on a libm where
    they are not, these fail."""

    def test_bits_of_the_complex_exponential(self):
        rng = np.random.default_rng(34)
        ceiling = propagate.MAX_EXPONENT_PHASE
        special = np.array([
            0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.5e-8,
            math.pi / 4, math.pi / 2, math.pi, 2 * math.pi, 1e6 * math.pi, ceiling,
        ])
        magnitudes = np.concatenate([
            special,
            10.0 ** rng.uniform(-323.0, math.log10(ceiling), 200_000),
            rng.uniform(0.0, 1.0, 100_000),  # a z-step's phase
            rng.uniform(1.0, 64.0, 100_000),  # a mask's phase
            rng.uniform(0.0, ceiling, 100_000),
        ])
        theta = np.concatenate([magnitudes, -magnitudes])
        assert np.signbit(theta[len(magnitudes)])  # -0.0 is drawn
        factor = propagate.phase_factor(theta)
        assert factor.dtype == np.complex128 and factor.shape == theta.shape
        assert np.array_equal(_words(factor), _words(np.exp(-1j * theta)))

    @pytest.mark.parametrize("n", [2**13, 2**14, 2**16])
    def test_settle_keeps_the_bits_of_each_operand_order(self, n):
        # numpy 2.4 runs the product as factor *= psi from 2^14 points,
        # and complex multiply is not bitwise commutative
        rng = np.random.default_rng(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        weight = rng.normal(scale=3e-3, size=n)
        for drive in (0.5, 17.25, 2048.0):
            old = psi * np.exp(-1j * (drive * weight))
            assert np.array_equal(_words(propagate._settle(psi, drive, weight)), _words(old))

    @pytest.mark.parametrize("n, length", [(16, 1e-3), (512, 8.0e-3), (2**16, 0.06)])
    @pytest.mark.parametrize("dt", [1e-9, 4.0e-6, 1e-3])
    def test_kinetic_phase_keeps_the_complex_chains_bits(self, n, length, dt):
        p = make_params()
        g = _grid(n, length)
        _, kinetic = propagate._step_invariants(g, dt, PropagationConfig(n_steps=1), p)
        k = g.wavenumbers()
        old = np.exp(-0.5j * HBAR * dt / p.mass * k * k)
        assert np.array_equal(_words(kinetic), _words(old))
        assert kinetic[0] == 1.0 and not np.signbit(kinetic[0].imag)  # k = 0: 1 + 0j

    def test_mask_keeps_the_bits_of_the_complex_exponential(self):
        p = with_v0rho(with_wy_lambdas(make_params(), 20.0), 0.3)
        for points in (4096, 2**14):
            g = commensurate_grid(p, points, 128.0)
            rn = raman_nath_params(p)
            old = propagate.packet_envelope(g, p.w_y) * np.exp(-1j * phase_profile(g, p, rn))
            expected = momentum_spectrum(WaveState(grid=g, amplitude=old), order_spacing(p), 7)
            assert numeric_orders(p, rn, g, 7) == expected


@pytest.mark.parametrize("k", [1, 3, 24])
def test_a_kinetic_step_is_the_deferred_transit_over_its_stretch(k):
    # one kinetic-on step over k z-steps, bit for bit the written-out
    # scheme with a real state only at the end
    p = with_v0rho(make_params(), 0.3)
    entry = init_gaussian(_grid(512, 8.0 * p.w_y), p.rho_0, p.w_y)
    cfg = PropagationConfig(n_steps=k, kinetic_enabled=True)
    dt, t_entry, _, envelope = _transit_setup(cfg, p)
    out = step(
        WaveState(grid=entry.grid, amplitude=entry.amplitude, time=t_entry), dt, cfg, p,
        envelope=envelope,
    )
    assert np.array_equal(out.amplitude, _deferred_transit(entry, cfg, p, {k})[k])
    assert out.time == pytest.approx(t_entry + k * dt, rel=1e-12)


class TestMomentumSpectrum:
    def _order_state(self, q, m=16, n=256):
        g = _grid(n, 1.0)
        k_unit = 2.0 * math.pi * m / g.length
        psi = np.exp(1j * q * k_unit * g.points())
        return WaveState(grid=g, amplitude=psi), k_unit

    def test_single_order_is_pure(self):
        for q in (-3, 0, 2):
            s, k_unit = self._order_state(q)
            pat = momentum_spectrum(s, k_unit, 5)
            assert pat.orders[q] == pytest.approx(1.0, abs=1e-12)
            rest = sum(v for qq, v in pat.orders.items() if qq != q)
            assert rest < 1e-12

    def test_mixture_weights(self):
        s1, k_unit = self._order_state(1)
        s2, _ = self._order_state(-2)
        psi = 0.6 * s1.amplitude + 0.8j * s2.amplitude
        s = WaveState(grid=s1.grid, amplitude=psi)
        pat = momentum_spectrum(s, k_unit, 4)
        assert pat.orders[1] == pytest.approx(0.36, abs=1e-12)
        assert pat.orders[-2] == pytest.approx(0.64, abs=1e-12)

    def test_orders_cover_requested_range(self):
        s, k_unit = self._order_state(0)
        pat = momentum_spectrum(s, k_unit, 6)
        assert sorted(pat.orders) == list(range(-6, 7))

    def test_incommensurate_grid_rejected(self):
        s, k_unit = self._order_state(0)
        with pytest.raises(ConfigurationError, match="incommensurate"):
            momentum_spectrum(s, k_unit * 1.019, 3)

    def test_capacity_error_names_supported_q_max(self):
        s, k_unit = self._order_state(0)  # m = 16, n = 256: q_max 7 fits
        momentum_spectrum(s, k_unit, 7)
        with pytest.raises(ConfigurationError, match="q_max <= 7"):
            momentum_spectrum(s, k_unit, 8)

    def test_input_guards(self):
        s, k_unit = self._order_state(0)
        with pytest.raises(ConfigurationError, match="^q_max must be nonnegative, got -1$"):
            momentum_spectrum(s, k_unit, -1)
        with pytest.raises(ConfigurationError, match="k_unit"):
            momentum_spectrum(s, -k_unit, 3)

    def test_orders_above_the_ceiling_are_refused_though_the_grid_holds_them(
        self, monkeypatch
    ):
        # check_order_count owns the order range: a q_max the grid holds
        # is still refused above MAX_ORDERS
        s, k_unit = self._order_state(0)  # q_max 7 fits
        monkeypatch.setattr(propagate, "MAX_ORDERS", 6)
        momentum_spectrum(s, k_unit, 6)
        with pytest.raises(ConfigurationError, match=r"^7 orders needed \(q_max = 7\), more than"):
            momentum_spectrum(s, k_unit, 7)


class TestGridMemo:
    """The grid arrays that do not depend on the density, memoized per key."""

    def _arrays(self, grid, p):
        nk = p.harmonic * p.k_l
        m, _ = propagate.order_capacity(grid, order_spacing(p))
        return {
            "envelope": propagate.packet_envelope(grid, p.w_y),
            "density": propagate.gaussian_profile(grid, p.w_y * p.w_y),
            "pattern": propagate.standing_wave_pattern(grid, nk),
            "bins": propagate.order_bins(grid.n_points, m)[0],
        }

    def test_every_helper_returns_a_read_only_array(self):
        p = make_params()
        for name, array in self._arrays(commensurate_grid(p, 1024, 32.0), p).items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # a packet built from the shared envelope owns its own amplitude
        state = init_gaussian(commensurate_grid(p, 1024, 32.0), 0.0, with_wy_lambdas(p, 4.0).w_y)
        assert state.amplitude.flags.writeable

    def test_equal_keys_from_separate_grids_share_one_entry(self):
        p = make_params()
        first, second = commensurate_grid(p, 1024, 32.0), commensurate_grid(p, 1024, 32.0)
        assert first is not second and first == second
        a, b = self._arrays(first, p), self._arrays(second, p)
        assert all(a[name] is b[name] for name in a)
        assert propagate.order_bins(1024, 32)[1] == -16  # q_lo of the mode -n/2

    def test_a_changed_key_misses(self):
        p = make_params()
        grid = commensurate_grid(p, 1024, 32.0)
        base = self._arrays(grid, p)
        wider = self._arrays(grid, replace(p, w_y=1.5 * p.w_y))
        assert wider["envelope"] is not base["envelope"]
        assert wider["density"] is not base["density"]
        assert wider["pattern"] is base["pattern"]
        nk = p.harmonic * p.k_l
        assert propagate.standing_wave_pattern(grid, 2.0 * nk) is not base["pattern"]
        finer = self._arrays(commensurate_grid(p, 2048, 32.0), p)
        assert all(finer[name] is not base[name] for name in base)

    def test_each_cache_holds_the_named_number_of_entries(self):
        # GRID_MEMOS, which the tests clear, lists every cache of the module
        assert {f for f in vars(propagate).values() if hasattr(f, "cache_info")} == set(GRID_MEMOS)
        for memo in GRID_MEMOS:
            assert memo.cache_parameters()["maxsize"] == propagate.GRID_MEMO_SIZE, memo

    def test_memoized_arrays_have_the_bits_of_the_direct_expressions(self):
        p = with_v0rho(make_params(), 0.3)
        grid = commensurate_grid(p, 1024, 32.0)
        y = grid.points()
        nk = p.harmonic * p.k_l
        assert propagate.packet_envelope(grid, p.w_y).tobytes() == (
            np.exp(-(y * y) / (2.0 * p.w_y * p.w_y)).tobytes()
        )
        pattern = propagate.standing_wave_pattern(grid, nk)
        assert pattern.tobytes() == (np.cos(nk * y) ** 2).tobytes()
        rn = raman_nath_params(p)
        density_factor = np.exp(-(y * y) / (p.w_y * p.w_y))
        phi = 4.0 * rn.g0 * np.cos(nk * y) ** 2 / (1.0 + rn.v0 * rn.rho_0 * density_factor) ** 2
        assert phase_profile(grid, p, rn).tobytes() == phi.tobytes()
        m, _ = propagate.order_capacity(grid, order_spacing(p))
        bins, q_lo = propagate.order_bins(grid.n_points, m)
        signed = np.fft.fftfreq(grid.n_points, d=1.0 / grid.n_points)
        assert np.array_equal(bins + q_lo, np.floor(signed / m + 0.5))


def test_write_state_csv_shape():
    g = _grid(16, 1.0)
    s = WaveState(grid=g, amplitude=np.exp(1j * g.points()))
    buf = io.StringIO()
    write_state_csv(s, 1.0, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "y_cm,re_psi,im_psi,density"
    assert len(lines) == 17
    assert buf.getvalue().endswith("\n")
    cells = lines[1].split(",")
    assert len(cells) == 4
    assert float(cells[0]) == -0.5


def _per_row_csv(state, params):
    # the row-at-a-time writer the vectorized one must match byte for byte
    y = state.grid.points()
    dens = np.abs(state.amplitude) ** 2 / _area(params)
    rows = ["y_cm,re_psi,im_psi,density\n"]
    for i in range(state.grid.n_points):
        rows.append(
            f"{csv_num(y[i])},{csv_num(state.amplitude[i].real)},"
            f"{csv_num(state.amplitude[i].imag)},{csv_num(dens[i])}\n"
        )
    return "".join(rows)


@pytest.mark.parametrize("block_rows", [5, 64, 2048])
def test_write_state_csv_matches_per_row_csv_num(block_rows, monkeypatch):
    monkeypatch.setattr("matteroptics.serialize._CSV_BLOCK_ROWS", block_rows)
    g = _grid(64, 1.0)  # y = 0 is grid point 32
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-150, 150, 64)
    amp = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * scale
    amp[0] = complex(-0.0, 0.0)
    amp[1] = complex(0.0, -0.0)
    amp[2] = complex(-0.0, -0.0)
    amp[3] = complex(5e-324, -5e-324)  # subnormal: density underflows to 0
    amp[4] = complex(math.inf, -1.0)
    amp[5] = complex(-2.5, -math.inf)
    amp[6] = complex(1.0 / 3.0, -123456789.123)
    # exact and near decimal ties, rounding up to 1e9, the switch to exponent notation
    amp[7] = complex(12345678.25, -0.09990234375)
    amp[8] = complex(999999999.5, 999999999.4)
    amp[9] = complex(9.9999999949e-5, -9.99999999951e-5)
    amp[10] = complex(1e-4, 1.7976931348623157e308)  # density overflows to inf
    # the ends of the range the writer scales by one power of ten
    amp[11] = complex(np.nextafter(1e-14, 0.0), -np.nextafter(1e-14, 1.0))
    amp[12] = complex(-np.nextafter(1e30, 0.0), np.nextafter(1e30, math.inf))
    amp[13] = complex(1e-14, 1e30)
    # a dyadic grid about 0.1 and one of quarters, which holds exact ties
    amp[14:46] = (3264 + np.arange(32)) / 32768 - 1j * (12345678 + np.arange(32) / 4)
    finite = amp.copy()
    finite[[4, 5, 10]] = 1.0  # inf / inf would be a NaN density
    cases = [(amp, make_params(rho_0=1.0)), (amp, make_params(rho_0=3.0e14)), (finite, make_params())]
    for values, p in cases:
        s = WaveState(grid=g, amplitude=values)
        buf = io.StringIO()
        with np.errstate(over="ignore"):  # |amp[10]|^2 is inf
            write_state_csv(s, p.rho_0, buf)
            assert buf.getvalue() == _per_row_csv(s, p)
        lines = buf.getvalue().splitlines()
        assert lines[1:4] == ["-0.5,0,0,0", "-0.484375,0,0,0", "-0.46875,0,0,0"]
        assert lines[33].startswith("0,")
        assert ",-0," not in buf.getvalue()
    # real snapshots with all-zero columns: the entry packet's im_psi (and a
    # tracer's density after it, formatted as the second zero of a run),
    # and a tracer's density after a kinetic-off transit
    tracer = make_params()
    entry = init_gaussian(_grid(64, 8.0 * tracer.w_y), 0.0, tracer.w_y)
    final = propagate_through_laser(entry, PropagationConfig(n_steps=8, kinetic_enabled=False), tracer)
    assert not entry.amplitude.imag.any() and final.amplitude.imag.any()
    for s, p in [(entry, tracer), (entry, make_params(rho_0=3.0e14)), (final, tracer)]:
        buf = io.StringIO()
        write_state_csv(s, p.rho_0, buf)
        assert buf.getvalue() == _per_row_csv(s, p)


def test_write_state_csv_rejects_nan():
    g = _grid(16, 1.0)
    amp = np.ones(16, dtype=complex)
    amp[5] = complex(1.0, math.nan)
    buf = io.StringIO()
    with pytest.raises(ValueError, match="NaN"):
        write_state_csv(WaveState(grid=g, amplitude=amp), 1.0, buf)
