"""Two-level dynamics: stepper accuracy, fixed point, local drive."""

import io
import math
import re
from dataclasses import FrozenInstanceError
import numpy as np
import pytest

from matteroptics import bloch
from matteroptics.bloch import (
    BlochRates,
    BlochState,
    BlochTrajectory,
    bloch_rhs,
    integrate,
    local_rabi,
    steady_state,
    write_trajectory_csv,
)
from matteroptics.bloch import _BLOCK_STEPS
from matteroptics.errors import (
    ConfigurationError,
    ParameterError,
    PoleError,
    SteadyStateError,
)
from matteroptics.serialize import csv_num

from conftest import make_params, red_detuned, with_v0rho

GROUND = BlochState(coherence=0.0, inversion=-1.0)
NO_DAMPING = BlochRates(gamma_l=0.0, gamma_t=0.0)


class TestStateAndRates:
    def test_state_bounds_with_integrator_slack(self):
        BlochState(coherence=0.0, inversion=1.0009)
        with pytest.raises(ParameterError, match="inversion"):
            BlochState(coherence=0.0, inversion=1.0011)
        BlochState(coherence=0.7 + 0.7j, inversion=0.0)  # |R| ~ 0.99
        with pytest.raises(ParameterError, match="coherence"):
            BlochState(coherence=1.002, inversion=0.0)

    def test_state_must_be_finite(self):
        with pytest.raises(ParameterError, match="finite"):
            BlochState(coherence=complex(math.nan, 0.0), inversion=0.0)
        with pytest.raises(ParameterError, match="finite"):
            BlochState(coherence=0.0, inversion=math.inf)

    def test_rates_guards(self):
        BlochRates(gamma_l=0.0, gamma_t=0.0)
        with pytest.raises(ParameterError, match="gamma_l"):
            BlochRates(gamma_l=-1.0, gamma_t=0.0)
        with pytest.raises(ParameterError, match="gamma_t"):
            BlochRates(gamma_l=0.0, gamma_t=math.nan)


def test_rhs_matches_written_equations():
    r, w = 0.21 - 0.13j, -0.35
    drive = 0.9 + 0.4j
    detuning = 1.7
    rates = BlochRates(gamma_l=0.8, gamma_t=1.3)
    dr, dw = bloch_rhs(r, w, drive, detuning, rates)
    assert dr == (1j * detuning - rates.gamma_t) * r - 0.5j * drive * w
    # the field-coherence beat as written in raising/lowering components,
    # i (Omega conj(R) - conj(Omega) R), equals 2 Im[conj(Omega) R]
    beat = (1j * (drive * r.conjugate() - drive.conjugate() * r)).real
    assert dw == -rates.gamma_l * (1.0 + w) + beat


class TestIntegrateGuards:
    def test_dt_and_steps(self):
        with pytest.raises(ConfigurationError, match="dt"):
            integrate(GROUND, 0.0, 0.0, NO_DAMPING, dt=-0.01, n_steps=10)
        with pytest.raises(ConfigurationError, match="n_steps"):
            integrate(GROUND, 0.0, 0.0, NO_DAMPING, dt=0.01, n_steps=0)

    def test_unresolved_detuning_rejected_upfront(self):
        with pytest.raises(ConfigurationError, match="exceeds 0.1"):
            integrate(GROUND, 0.0, 50.0, NO_DAMPING, dt=0.01, n_steps=10)

    @pytest.mark.parametrize(
        "drive, error, message",
        [
            (complex(math.nan), ParameterError, "drive must be finite, got (nan+0j) at step 0"),
            (math.inf, ParameterError, "drive must be finite, got (inf+0j) at step 0"),
            (20.0, ConfigurationError, "dt*|drive| = 0.2 exceeds 0.1 at step 0"),
        ],
        ids=["nan", "inf", "unresolved"],
    )
    def test_drive_rejected_before_any_step(self, monkeypatch, drive, error, message):
        calls = []
        monkeypatch.setattr(bloch, "bloch_rhs", lambda *a: calls.append(a))
        with pytest.raises(error) as err:
            integrate(GROUND, drive, 0.0, NO_DAMPING, dt=0.01, n_steps=10)
        assert str(err.value) == message
        assert calls == []

    def test_trajectory_layout(self):
        start = BlochState(coherence=0.1j, inversion=-0.9, time=2.0)
        traj = integrate(start, 0.05, 0.3, NO_DAMPING, dt=0.01, n_steps=7)
        assert len(traj.times) == len(traj.coherence) == len(traj.inversion) == 8
        assert (traj.times[0], traj.coherence[0], traj.inversion[0]) == (2.0, 0.1j, -0.9)
        for i, t in enumerate(traj.times[1:], start=1):
            assert t == 2.0 + i * 0.01
        assert traj.final == BlochState(traj.coherence[-1], traj.inversion[-1], traj.times[-1])


def _rk4_over_rhs(start, drive, detuning, rates, dt, n_steps):
    """Classic RK4 written out over bloch_rhs, one step at a time; the
    stored states as (times, coherences, inversions) columns."""
    def f(r, w):
        return bloch_rhs(r, w, drive, detuning, rates)

    times, coherence, inversion = [start.time], [start.coherence], [start.inversion]
    r, w, t = complex(start.coherence), float(start.inversion), start.time
    for i in range(n_steps):
        k1r, k1w = f(r, w)
        k2r, k2w = f(r + 0.5 * dt * k1r, w + 0.5 * dt * k1w)
        k3r, k3w = f(r + 0.5 * dt * k2r, w + 0.5 * dt * k2w)
        k4r, k4w = f(r + dt * k3r, w + dt * k3w)
        r = r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        w = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        t = start.time + (i + 1) * dt
        times.append(t)
        coherence.append(r)
        inversion.append(w)
    return times, coherence, inversion


def _roundoff_bound(n_steps):
    # the step map's powers and block starts round differently from the
    # step-by-step sums; the largest measured gap is 6.6e-14 after 3000
    # undamped steps, 5.8e-15 after 3000 damped ones
    return 1e-15 + 5e-17 * n_steps


class TestIntegrateIsRK4OverRhs:
    START = BlochState(coherence=0.1 - 0.2j, inversion=-0.5, time=0.3)
    CASES = {
        "damped": (1.3 + 0.4j, BlochRates(gamma_l=0.05, gamma_t=0.08)),
        "undamped": (1.3 + 0.4j, NO_DAMPING),
        "zero-drive": (0.0, BlochRates(gamma_l=0.05, gamma_t=0.08)),
    }
    STEPS = [1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 3000]

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n_steps", STEPS)
    def test_within_roundoff_of_step_by_step(self, case, n_steps):
        drive, rates = self.CASES[case]
        got = integrate(self.START, drive, 0.7, rates, 0.01, n_steps)
        times, coherence, inversion = _rk4_over_rhs(self.START, drive, 0.7, rates, 0.01, n_steps)
        bound = _roundoff_bound(n_steps)
        assert np.max(np.abs(got.coherence - np.array(coherence))) <= bound
        assert np.max(np.abs(got.inversion - np.array(inversion))) <= bound
        assert (got.coherence[0], got.inversion[0]) == (self.START.coherence, self.START.inversion)
        assert got.final == BlochState(
            complex(got.coherence[-1]), float(got.inversion[-1]), float(got.times[-1])
        )

    @pytest.mark.parametrize("n_steps", STEPS)
    def test_times_bit_identical(self, n_steps):
        drive, rates = self.CASES["damped"]
        got = integrate(self.START, drive, 0.7, rates, 0.01, n_steps)
        times, _, _ = _rk4_over_rhs(self.START, drive, 0.7, rates, 0.01, n_steps)
        assert got.times.tolist() == times
        # a signed-zero start time is kept as given
        start = BlochState(self.START.coherence, self.START.inversion, -0.0)
        first = integrate(start, drive, 0.7, rates, 0.01, n_steps).times[0]
        assert math.copysign(1.0, first) == -1.0


def _first_invalid_state_message(start, drive, detuning, rates, dt, n_steps):
    """ParameterError text of the first step state BlochState rejects, and its step.

    RK4 over bloch_rhs as in _rk4_over_rhs, with unchecked stage states,
    so only the stored states meet the constructor, one per step.
    """
    def f(r, w):
        return bloch_rhs(r, w, drive, detuning, rates)

    r, w, t = complex(start.coherence), float(start.inversion), start.time
    for i in range(n_steps):
        k1r, k1w = f(r, w)
        k2r, k2w = f(r + 0.5 * dt * k1r, w + 0.5 * dt * k1w)
        k3r, k3w = f(r + 0.5 * dt * k2r, w + 0.5 * dt * k2w)
        k4r, k4w = f(r + dt * k3r, w + dt * k3w)
        r = r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        w = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        t = start.time + (i + 1) * dt
        try:
            BlochState(coherence=r, inversion=w, time=t)
        except ParameterError as exc:
            return str(exc), i
    return None, None


def _text_and_value(message):
    """A constructor message split into its words and the value it names."""
    value = re.search(r"-?\d+\.\d*(?:e[-+]?\d+)?", message)
    return message[: value.start()] + "{}" + message[value.end() :], float(value[0])


class TestColumnTrajectory:
    START = BlochState(coherence=0.1 - 0.2j, inversion=-0.5, time=0.3)
    RATES = BlochRates(gamma_l=0.05, gamma_t=0.08)

    def test_builds_no_validated_state_per_step(self, monkeypatch):
        # the stored states are checked against the bound in one pass;
        # a BlochState per step would cost more than the step itself
        built = []
        original = BlochState.__post_init__

        def counting(self):
            built.append(self.time)
            original(self)

        monkeypatch.setattr(BlochState, "__post_init__", counting)
        traj = integrate(self.START, 1.3 + 0.4j, 0.7, self.RATES, 0.01, 3000)
        assert built == [traj.times[-1]]  # the exit state, once
        assert traj.final.time == traj.times[-1]
        assert len(built) == 1  # reading it builds nothing more

    def test_columns_and_final(self):
        traj = integrate(self.START, 1.3 + 0.4j, 0.7, self.RATES, 0.01, 5)
        assert isinstance(traj, BlochTrajectory)
        assert len(traj.times) == len(traj.coherence) == len(traj.inversion) == 6
        assert traj.times[0] == self.START.time
        assert traj.final == BlochState(traj.coherence[-1], traj.inversion[-1], traj.times[-1])
        # columns, not a sequence of states
        for name in ("__getitem__", "__iter__", "__len__"):
            assert not hasattr(traj, name)
        assert traj != [self.START]
        with pytest.raises(FrozenInstanceError):
            traj.final = self.START

    @pytest.mark.parametrize(
        "coherence, inversion, drive, detuning, step",
        [
            (0.5j, 1.0, 1.0, 0.7, 0),
            (1.0, 1.0, 0.5, 0.7, 6),
            (1.0, 1.0, 0.5, -0.7, 9),
            (0.7 + 0.7j, 0.0, 1.0, 3.0, 63),
        ],
    )
    def test_bound_violation_raises_the_constructors_message_at_its_step(
        self, monkeypatch, coherence, inversion, drive, detuning, step
    ):
        # a start off the Bloch sphere, W^2 + 4|R|^2 > 1, that the
        # undamped flow carries past the constructor's bound
        dt = 0.01
        start = BlochState(coherence=coherence, inversion=inversion, time=0.3)
        want, k = _first_invalid_state_message(start, drive, detuning, NO_DAMPING, dt, 3000)
        assert k == step and want is not None
        built = []
        original = BlochState.__post_init__

        def recording(self):
            built.append(self.time)
            original(self)

        monkeypatch.setattr(BlochState, "__post_init__", recording)
        with pytest.raises(ParameterError) as err:
            integrate(start, drive, detuning, NO_DAMPING, dt, 3000)
        # the state handed over is the one of that step, and no other
        assert built == [start.time + (step + 1) * dt]
        # the same words; the value to the roundoff of the step map
        (words, value), (want_words, want_value) = map(_text_and_value, (str(err.value), want))
        assert words == want_words
        assert abs(value - want_value) <= _roundoff_bound(step + 1)

    def test_non_finite_detuning_rejected_before_any_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bloch, "bloch_rhs", lambda *a: calls.append(a))
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="detuning must be finite"):
                integrate(self.START, 0.5, bad, self.RATES, 0.01, 10)
        assert calls == []


class TestAgainstClosedForms:
    def test_undriven_relaxation(self):
        rates = BlochRates(gamma_l=1.0, gamma_t=0.3)
        start = BlochState(coherence=0.2 + 0.1j, inversion=-0.4)
        detuning = 1.0
        traj = integrate(start, 0.0, detuning, rates, dt=0.01, n_steps=500)
        for t, r, w in zip(traj.times, traj.coherence, traj.inversion):
            w_exact = -1.0 + (1.0 + start.inversion) * math.exp(-rates.gamma_l * t)
            r_exact = start.coherence * np.exp((1j * detuning - rates.gamma_t) * t)
            assert abs(w - w_exact) < 1e-8
            assert abs(r - r_exact) < 1e-8

    def test_resonant_rabi_cycles(self):
        omega = 2.0 * math.pi
        dt = 1.0 / 128.0  # omega*dt ~ 0.049
        traj = integrate(GROUND, omega, 0.0, NO_DAMPING, dt=dt, n_steps=384)
        for t, r, w in zip(traj.times, traj.coherence, traj.inversion):
            assert abs(w + math.cos(omega * t)) < 3e-6
            assert abs(r - 0.5j * math.sin(omega * t)) < 3e-6

    def test_undamped_length_frozen(self):
        traj = integrate(GROUND, 1.0, 0.7, NO_DAMPING, dt=0.01, n_steps=2000)
        lengths = [w**2 + 4.0 * abs(r) ** 2 for r, w in zip(traj.coherence, traj.inversion)]
        assert max(abs(l - 1.0) for l in lengths) < 1e-9

    def test_fourth_order_convergence(self):
        omega, horizon = 1.0, 2.0
        errs, dts = [], []
        for level in range(6):
            n = 20 * 2**level
            dt = horizon / n
            final = integrate(GROUND, omega, 0.0, NO_DAMPING, dt=dt, n_steps=n).final
            errs.append(abs(final.inversion + math.cos(omega * horizon)))
            dts.append(dt)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 < slope < 4.3


class TestSteadyState:
    RATES = BlochRates(gamma_l=0.8, gamma_t=1.3)

    def test_fixed_point_residual(self):
        ss = steady_state(0.9 + 0.4j, 0.75, self.RATES)
        dr, dw = bloch_rhs(ss.coherence, ss.inversion, 0.9 + 0.4j, 0.75, self.RATES)
        assert abs(dr) <= 1e-12
        assert abs(dw) <= 1e-12

    def test_weak_drive_limit(self):
        drive = 1e-6 + 0.0j
        ss = steady_state(drive, 0.75, self.RATES)
        assert ss.inversion == pytest.approx(-1.0, abs=1e-9)
        linear = -0.5 * drive / complex(0.75, self.RATES.gamma_t)
        assert abs(ss.coherence - linear) < 1e-6 * abs(linear)

    def test_weak_drive_linearity(self):
        one = steady_state(1e-8 + 3e-9j, -0.4, self.RATES)
        two = steady_state(2e-8 + 6e-9j, -0.4, self.RATES)
        assert two.coherence / one.coherence == pytest.approx(2.0, rel=1e-6)
        assert two.inversion == pytest.approx(one.inversion, abs=1e-12)

    def test_requires_both_rates(self):
        with pytest.raises(SteadyStateError):
            steady_state(1.0, 0.0, BlochRates(gamma_l=0.0, gamma_t=1.0))
        with pytest.raises(SteadyStateError):
            steady_state(1.0, 0.0, BlochRates(gamma_l=1.0, gamma_t=0.0))

    def test_integration_relaxes_onto_it(self):
        drive, detuning = 1.2 - 0.5j, 0.75
        ss = steady_state(drive, detuning, self.RATES)
        final = integrate(GROUND, drive, detuning, self.RATES, dt=0.01, n_steps=4000).final
        assert abs(final.coherence - ss.coherence) < 1e-8
        assert abs(final.inversion - ss.inversion) < 1e-8


class TestLocalRabi:
    def test_dilute_and_uncorrected_passthrough(self):
        p = make_params()
        assert local_rabi(0.3 + 0.4j, p, 0.0) == 0.3 + 0.4j
        # a density of 0 is the uncorrected drive, returned as a complex
        assert type(local_rabi(2.0, p, 0.0)) is complex

    def test_screening_factor(self):
        p = with_v0rho(make_params(), 0.5)
        got = local_rabi(1.0 + 0.0j, p, p.rho_0)
        assert got == pytest.approx((1.0 / 1.5) + 0.0j, rel=1e-12)

    def test_enhancement_below_resonance(self):
        p = with_v0rho(red_detuned(make_params()), -0.5)
        got = local_rabi(1.0 + 0.0j, p, p.rho_0)
        assert got == pytest.approx(2.0 + 0.0j, rel=1e-12)

    def test_pole(self):
        p = with_v0rho(red_detuned(make_params()), -1.0)
        with pytest.raises(PoleError) as err:
            local_rabi(1.0, p, p.rho_0)
        assert err.value.density == p.rho_0


def test_trajectory_csv_layout():
    traj = integrate(GROUND, 0.5, 0.0, NO_DAMPING, dt=0.01, n_steps=3)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t_s,re_R,im_R,W"
    assert len(lines) == 5
    assert lines[1] == "0,0,0,-1"
    assert all(len(ln.split(",")) == 4 for ln in lines)


def test_trajectory_csv_matches_per_row_csv_num():
    # the row-at-a-time writer the block writer must match byte for byte
    run = integrate(GROUND, 0.7 - 0.2j, 0.3, BlochRates(0.05, 0.1), dt=0.01, n_steps=40)
    # two edge rows ahead of the run: signed zeros, a tiny real part, a subnormal
    times = np.concatenate([[-0.0, 1], run.times])
    coherence = np.concatenate([[complex(-0.0, -0.0), 1e-300 - 1.0 / 3.0j], run.coherence])
    inversion = np.concatenate([[-0.0, 5e-324], run.inversion])
    traj = BlochTrajectory(times, coherence, inversion, run.final)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    want = "t_s,re_R,im_R,W\n" + "".join(
        f"{csv_num(t)},{csv_num(r.real)},{csv_num(r.imag)},{csv_num(w)}\n"
        for t, r, w in zip(times, coherence, inversion)
    )
    assert buf.getvalue() == want
