"""Two-level optical Bloch equations for the coherence/inversion pair.

State is (R, W): R the complex coherence amplitude, W the real
inversion (W = -1 in the ground state). With drive Omega (the local
Rabi amplitude 2 d E_loc/hbar), detuning Delta and phenomenological
rates gamma_T (transverse) and gamma_L (longitudinal):

    dR/dt = (i Delta - gamma_T) R - (i/2) Omega W
    dW/dt = -gamma_L (1 + W) + 2 Im[conj(Omega) R]

Undamped, the Bloch-vector length W^2 + 4|R|^2 is a constant of the
motion. Time stepping is classic fourth-order Runge-Kutta on plain
scalars: the validated regime keeps dt * rates <= 0.1, where an
explicit stepper is accurate, deterministic and trivially portable.

integrate returns a BlochTrajectory: the times, coherences and
inversions as columns, one entry per stored state, and the exit state
as a validated BlochState. No per-step state object is built; each step
checks |W| and |R| against the constructor's bound, which also rejects
a non-finite state, and hands a state that fails to the constructor for
its message. The writers read the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, SteadyStateError
from .models import characteristic_volume
from .optics import check_pole
from .serialize import write_float_table
from .units import PhysicalParams

# Constructor sanity bound on |W| and |R|. The physical bounds are 1;
# an explicit integrator at the largest permitted step overshoots them
# by its own local error, far below this but well above 1e-9, so the
# constructor only rejects states that are wrong rather than merely
# inexact. Acceptance-grade bound checks live with the integration
# tests, at tolerances matched to the step size used.
_BOUND_SLACK = 1e-3
_BOUND = 1.0 + _BOUND_SLACK


@dataclass(frozen=True)
class BlochState:
    """Coherence R (complex), inversion W (real), time (s)."""

    coherence: complex
    inversion: float
    time: float = 0.0

    def __post_init__(self):
        w = self.inversion
        if not (math.isfinite(w) and math.isfinite(abs(self.coherence))):
            raise ParameterError("Bloch state must be finite")
        if abs(w) > _BOUND:
            raise ParameterError(f"inversion {w!r} outside [-1, 1]")
        if abs(self.coherence) > _BOUND:
            raise ParameterError(f"|coherence| = {abs(self.coherence)!r} exceeds 1")


@dataclass(frozen=True)
class BlochRates:
    """Longitudinal damping gamma_l and transverse relaxation gamma_t, rad/s."""

    gamma_l: float
    gamma_t: float

    def __post_init__(self):
        for name in ("gamma_l", "gamma_t"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ParameterError(f"{name} must be finite and >= 0, got {v!r}")


def bloch_rhs(
    coherence: complex, inversion: float, drive: complex, detuning: float, rates: BlochRates
) -> tuple[complex, float]:
    """(dR/dt, dW/dt) at coherence R and inversion W."""
    dr = (1j * detuning - rates.gamma_t) * coherence - 0.5j * drive * inversion
    dw = -rates.gamma_l * (1.0 + inversion) + 2.0 * (drive.conjugate() * coherence).imag
    return dr, dw


@dataclass(frozen=True)
class BlochTrajectory:
    """Stored states of one integration as columns, and the exit state.

    times, coherence and inversion hold one entry per stored state, the
    entry state first; final is the last of them as a BlochState, which
    its constructor validated.
    """

    times: list[float]
    coherence: list[complex]
    inversion: list[float]
    final: BlochState


def integrate(
    initial: BlochState,
    drive,
    detuning: float,
    rates: BlochRates,
    dt: float,
    n_steps: int,
) -> BlochTrajectory:
    """RK4 trajectory of n_steps states after the initial one.

    drive is a complex constant or a function t -> complex. Requires a
    finite detuning and dt * max(|detuning|, |drive|, gamma_l, gamma_t)
    <= 0.1, checked upfront for the detuning and the rates and per step
    for the sampled drive, which must be finite. Returns the stored
    states as columns, the initial one first, and the exit state as
    .final (see BlochTrajectory). In place of a BlochState per step, each
    step checks |W| and |R| against the constructor's bound; the first
    state that fails is handed to the constructor, which raises its
    ParameterError at that step.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be positive and finite, got {dt!r}")
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    if not math.isfinite(detuning):
        raise ParameterError(f"detuning must be finite, got {detuning!r}")
    fastest = max(abs(detuning), rates.gamma_l, rates.gamma_t)
    if dt * fastest > 0.1:
        raise ConfigurationError(
            f"dt*max(|detuning|, rates) = {dt * fastest!r} exceeds 0.1; "
            "reduce dt for a resolved trajectory"
        )
    omega = drive if callable(drive) else (lambda t, value=complex(drive): value)

    r = complex(initial.coherence)
    w = float(initial.inversion)
    t = initial.time
    times = [t]
    coherence = [initial.coherence]
    inversion = [initial.inversion]
    for i in range(n_steps):
        # the drive is sampled once per stage time; stages 2 and 3 share one
        om0 = omega(t)
        if not dt * abs(om0) <= 0.1:
            _reject_drive(om0, dt, i)
        om_half = omega(t + 0.5 * dt)
        om1 = omega(t + dt)
        k1r, k1w = bloch_rhs(r, w, om0, detuning, rates)
        k2r, k2w = bloch_rhs(r + 0.5 * dt * k1r, w + 0.5 * dt * k1w, om_half, detuning, rates)
        k3r, k3w = bloch_rhs(r + 0.5 * dt * k2r, w + 0.5 * dt * k2w, om_half, detuning, rates)
        k4r, k4w = bloch_rhs(r + dt * k3r, w + dt * k3w, om1, detuning, rates)
        r = r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        w = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        t = initial.time + (i + 1) * dt
        # False for a NaN or an infinity too, exactly where BlochState raises
        if not (abs(w) <= _BOUND and abs(r) <= _BOUND):
            for sample in (om_half, om1):
                if not math.isfinite(abs(sample)):
                    _reject_drive(sample, dt, i)
            BlochState(coherence=r, inversion=w, time=t)
        times.append(t)
        coherence.append(r)
        inversion.append(w)
    final = BlochState(coherence=r, inversion=w, time=t)
    return BlochTrajectory(times, coherence, inversion, final)


def _reject_drive(sample: complex, dt: float, step: int):
    # a drive sample integrate cannot step over: non-finite or unresolved
    if not math.isfinite(abs(sample)):
        raise ParameterError(f"drive must be finite, got {sample!r} at step {step}")
    raise ConfigurationError(f"dt*|drive| = {dt * abs(sample)!r} exceeds 0.1 at step {step}")


def steady_state(drive: complex, detuning: float, rates: BlochRates) -> BlochState:
    """Closed-form fixed point of the damped Bloch equations.

    S = |Omega|^2 gamma_T / (Delta^2 + gamma_T^2) is the incoherent
    pumping rate; W = -gamma_L/(gamma_L + S) and R = (Omega/2) W /
    (Delta + i gamma_T). Requires both rates positive: without damping
    every Bloch sphere orbit is stationary on average and no unique
    fixed point exists.
    """
    if not (rates.gamma_l > 0.0 and rates.gamma_t > 0.0):
        raise SteadyStateError(
            "steady state requires gamma_l > 0 and gamma_t > 0 "
            f"(got {rates.gamma_l!r}, {rates.gamma_t!r})"
        )
    drive = complex(drive)
    pump = abs(drive) ** 2 * rates.gamma_t / (detuning**2 + rates.gamma_t**2)
    w = -rates.gamma_l / (rates.gamma_l + pump)
    r = (0.5 * drive) * w / complex(detuning, rates.gamma_t)
    return BlochState(coherence=r, inversion=w, time=0.0)


def local_rabi(
    drive_mac: complex, params: PhysicalParams, density: float, corrected: bool = True
) -> complex:
    """Rabi amplitude seen by an atom inside the medium.

    The microscopic field exceeds the macroscopic one by the dipole
    back-action of the surrounding medium, which closes to the factor
    1/(1 + V0 rho): Omega_loc = Omega_mac / (1 + V0 rho). corrected =
    False returns the macroscopic drive unchanged (dilute treatment).
    """
    if not corrected or density == 0.0:
        return complex(drive_mac)
    denom = 1.0 + characteristic_volume(params) * density
    return complex(drive_mac) / check_pole(denom, density, "local-field")


def write_trajectory_csv(trajectory: BlochTrajectory, fh) -> None:
    """Columns t_s, re_R, im_R, W, one row per stored step."""
    t = np.array(trajectory.times, dtype=np.float64)
    r = np.array(trajectory.coherence, dtype=np.complex128)
    w = np.array(trajectory.inversion, dtype=np.float64)
    write_float_table("t_s,re_R,im_R,W", (t, r.real, r.imag, w), fh)
