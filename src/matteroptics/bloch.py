"""Two-level optical Bloch equations for the coherence/inversion pair.

State is (R, W): R the complex coherence amplitude, W the real
inversion (W = -1 in the ground state). With drive Omega (the local
Rabi amplitude 2 d E_loc/hbar), detuning Delta and phenomenological
rates gamma_T (transverse) and gamma_L (longitudinal):

    dR/dt = (i Delta - gamma_T) R - (i/2) Omega W
    dW/dt = -gamma_L (1 + W) + 2 Im[conj(Omega) R]

Undamped, the Bloch-vector length W^2 + 4|R|^2 is a constant of the
motion. Time stepping is classic fourth-order Runge-Kutta at a constant
drive: the validated regime keeps dt * rates <= 0.1, where an explicit
stepper is accurate, deterministic and trivially portable. The
right-hand side is affine in (Re R, Im R, W), so one RK4 step is an
exact affine map of the state; integrate builds that map from RK4 steps
of bloch_rhs and fills the trajectory block by block from its powers,
with no Python work per step.

integrate returns a BlochTrajectory: the times, coherences and
inversions as numpy columns, one entry per stored state, and the exit
state as a validated BlochState. No per-step state object is built; one
pass checks |W| and |R| of every stored state against the constructor's
bound, which also rejects a non-finite state, and hands the first state
that fails to the constructor for its message. The writers read the
columns.
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

# Constructor sanity bound on |W| and |R|. The physical bounds are 1 on
# |W| and 1/2 on |R| (W^2 + 4|R|^2 <= 1); the constructor bounds both at
# 1 plus this slack. An explicit integrator at the largest permitted step
# overshoots the physical bounds by its own local error, far below the
# slack but well above 1e-9, so the constructor only rejects states that
# are wrong rather than merely inexact. Acceptance-grade bound checks
# live with the integration tests, at tolerances matched to the step
# size used.
_BOUND_SLACK = 1e-3
_BOUND = 1.0 + _BOUND_SLACK

# Stored states per block of integrate's step map: the powers M^1 ..
# M^_BLOCK_STEPS of one RK4 step are built once, then each block is one
# broadcast multiply-sum from the last state of the block before.
_BLOCK_STEPS = 256

# The most steps integrate may store. The largest single allocation the
# count sizes is the bloch command's report text, built whole: its JSON
# takes about 147 B a state, so 2^20 steps write about 147 MiB (CSV 43 B
# a state). The states themselves are 4 float64 rows, 32 MiB.
MAX_BLOCH_STEPS = 2**20


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

    times, coherence (complex) and inversion are numpy arrays with one
    entry per stored state, the entry state first; final is the last of
    them as a BlochState, which its constructor validated.
    """

    times: np.ndarray
    coherence: np.ndarray
    inversion: np.ndarray
    final: BlochState


def integrate(
    initial: BlochState,
    drive: complex,
    detuning: float,
    rates: BlochRates,
    dt: float,
    n_steps: int,
) -> BlochTrajectory:
    """RK4 trajectory of n_steps states after the initial one, at a constant drive.

    Requires 1 <= n_steps <= MAX_BLOCH_STEPS, a finite drive and
    detuning, and dt * max(|detuning|, |drive|, gamma_l, gamma_t) <= 0.1,
    all checked before any step.
    With a constant drive one classic RK4 step over bloch_rhs is an
    affine map y -> P y + q on y = (Re R, Im R, W); P and q come from
    RK4 steps at the origin and the three unit vectors. The stored
    states are filled block by block from the powers of that map, each
    block of up to _BLOCK_STEPS states from the last state of the one
    before, so they agree with step-by-step RK4 to roundoff. The times
    are initial.time + i * dt exactly.

    Returns the stored states as columns, the initial one first, and the
    exit state as .final (see BlochTrajectory). In place of a BlochState
    per step, one pass checks |W| and |R| of every stored state against
    the constructor's bound; the first state that fails is handed to the
    constructor, which raises its ParameterError.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be positive and finite, got {dt!r}")
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > MAX_BLOCH_STEPS:
        raise ConfigurationError(
            f"n_steps = {n_steps} Bloch steps is more than the ceiling of {MAX_BLOCH_STEPS}"
        )
    if not math.isfinite(detuning):
        raise ParameterError(f"detuning must be finite, got {detuning!r}")
    fastest = max(abs(detuning), rates.gamma_l, rates.gamma_t)
    if dt * fastest > 0.1:
        raise ConfigurationError(
            f"dt*max(|detuning|, rates) = {dt * fastest!r} exceeds 0.1; "
            "reduce dt for a resolved trajectory"
        )
    drive = complex(drive)
    if not math.isfinite(abs(drive)):
        raise ParameterError(f"drive must be finite, got {drive!r} at step 0")
    if dt * abs(drive) > 0.1:
        raise ConfigurationError(f"dt*|drive| = {dt * abs(drive)!r} exceeds 0.1 at step 0")

    powers = _step_map_powers(drive, detuning, rates, dt, min(n_steps, _BLOCK_STEPS))
    # rows Re R, Im R, W and 1, one column per stored state
    states = np.empty((4, n_steps + 1))
    states[:, 0] = (initial.coherence.real, initial.coherence.imag, initial.inversion, 1.0)
    for lo in range(0, n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, n_steps)
        states[:, lo + 1 : hi + 1] = (powers[:, :, : hi - lo] * states[:, lo, None]).sum(axis=1)

    times = initial.time + np.arange(n_steps + 1) * dt
    times[0] = initial.time  # as given: a -0.0 start plus 0.0 would read +0.0
    coherence = np.empty(n_steps + 1, dtype=np.complex128)
    coherence.real = states[0]
    coherence.imag = states[1]
    inversion = states[2]
    # False for a NaN or an infinity too, exactly where BlochState raises
    valid = (np.abs(inversion) <= _BOUND) & (np.abs(coherence) <= _BOUND)
    if not valid.all():
        _state_at(times, coherence, inversion, int(np.argmin(valid)))
    return BlochTrajectory(times, coherence, inversion, _state_at(times, coherence, inversion, -1))


def _state_at(times, coherence, inversion, i: int) -> BlochState:
    return BlochState(complex(coherence[i]), float(inversion[i]), float(times[i]))


def _rk4_step(r: complex, w: float, drive, detuning, rates, dt) -> tuple[complex, float]:
    """One classic RK4 step of bloch_rhs from (r, w) at a constant drive."""
    k1r, k1w = bloch_rhs(r, w, drive, detuning, rates)
    k2r, k2w = bloch_rhs(r + 0.5 * dt * k1r, w + 0.5 * dt * k1w, drive, detuning, rates)
    k3r, k3w = bloch_rhs(r + 0.5 * dt * k2r, w + 0.5 * dt * k2w, drive, detuning, rates)
    k4r, k4w = bloch_rhs(r + dt * k3r, w + dt * k3w, drive, detuning, rates)
    return (
        r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
        w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w),
    )


def _step_map_powers(drive, detuning, rates, dt, count: int) -> np.ndarray:
    """M^1 .. M^count of the RK4 step as a 4x4 map, stacked on the last axis.

    M acts on (Re R, Im R, W, 1): its last column is the step from the
    origin, q, and column j < 3 the step from unit vector j less q; its
    last row is (0, 0, 0, 1). The result has shape (4, 4, count).
    """
    r0, w0 = _rk4_step(0j, 0.0, drive, detuning, rates, dt)
    step = np.zeros((4, 4))
    step[:, 3] = (r0.real, r0.imag, w0, 1.0)
    for j, (r, w) in enumerate(((1 + 0j, 0.0), (1j, 0.0), (0j, 1.0))):
        r, w = _rk4_step(r, w, drive, detuning, rates, dt)
        step[:3, j] = (r.real - r0.real, r.imag - r0.imag, w - w0)
    powers = step[:, :, None]
    while powers.shape[2] < count:
        # M^m M^k = M^(m+k) for k = 1..m, as one broadcast multiply-sum
        # over the shared index: no BLAS call
        last = powers[:, :, -1, None, None]
        powers = np.concatenate([powers, (last * powers[None]).sum(axis=1)], axis=2)
    return powers[:, :, :count]


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


def local_rabi(drive_mac: complex, params: PhysicalParams, density: float) -> complex:
    """Rabi amplitude seen by an atom inside the medium.

    The microscopic field exceeds the macroscopic one by the dipole
    back-action of the surrounding medium, which closes to the factor
    1/(1 + V0 rho): Omega_loc = Omega_mac / (1 + V0 rho). At density 0
    (the dilute treatment, and bloch without --density) the macroscopic
    drive is returned unchanged.
    """
    if density == 0.0:
        return complex(drive_mac)
    denom = 1.0 + characteristic_volume(params) * density
    return complex(drive_mac) / check_pole(denom, density, "local-field")


def write_trajectory_csv(trajectory: BlochTrajectory, fh) -> None:
    """Columns t_s, re_R, im_R, W, one row per stored step."""
    t, r, w = trajectory.times, trajectory.coherence, trajectory.inversion
    write_float_table("t_s,re_R,im_R,W", (t, r.real, r.imag, w), fh)
