"""Split-step spectral evolution of the 1D mean-field matter wave.

Evolves i hbar dpsi/dt = [-hbar^2 d^2/dy^2 / 2m + V(|psi|^2, y, t)] psi
on a periodic grid with second-order Strang splitting: half a potential
phase at the step's start time, the full kinetic phase in spectral
space, half a potential phase at the end time. Evaluating the potential
halves at the interval endpoints makes the accumulated phase of a
kinetic-free run exactly the trapezoid quadrature of the drive along z.

With the kinetic term disabled the spectral stage is skipped entirely,
so the field modulus is frozen to roundoff: the beam-splitter regime in
which the atoms only collect a position-dependent phase.

The density the potential sees follows from the peak density rho_0
alone, through packet_normalization: a packet with rho_0 > 0 has peak
amplitude sqrt(rho_0) and density |psi|^2, so psi is normalized to the
density itself; rho_0 = 0 is the dilute tracer, a unit-peak field of
exactly zero density.

The laser is the params' standing wave, kept as its two factors,
|Omega|^2(y, z) = E(z) P(y): the envelope E = Omega_0^2 exp(-z^2/w_L^2),
which _envelope evaluates, and the pattern P = cos^2(n k_L y), which
standing_wave_pattern memoizes. Every model's V is exactly linear in
|Omega|^2, so the pattern goes into one weight per fresh density,
weight = dt V(rho, P)/hbar, with the adiabatic guard, and while |psi| is
fixed all the potential phases commute and sum to exp(-i drive *
weight). drive is then a scalar: the trapezoid sum of E over the phases
since the last real state, in units of dt. A transit reads P once, on
the grid, and E once, at its N + 1 endpoint times.

propagate_through_laser makes the field real, and scans it for
non-finite values, only where a real state is needed: after each
observed step, after the last step and, with the kinetic term on, after
every 64th step. One step carries the real state at the start of a
stretch to the real state at its end, in both modes. With the kinetic
term on it takes the opening half phase at the entry density, then per
z-step the kinetic stage and one phase at the fresh density: a full
phase between z-steps, where one step's closing half and the next one's
opening half merge (the first-same-as-last form of Strang splitting,
Bao, Jin & Markowich, J. Comput. Phys. 187, 2003), and the closing half
at the end. With it off, |psi| is frozen over the stretch: one density,
one potential evaluation, one slice sum of E and one complex
exponential. A transit with no observer is then a single step. Its
phase drive * weight is checked for non-finite values before the
exponential, which also refuses a non-finite drive. In both modes each
stretch checks, once, at its entry density, that the largest phase one
exponential takes stays within MAX_EXPONENT_PHASE. The sum over E
samples keeps a kinetic-free transit a z-trapezoid of the envelope over
the window; the closed-form phase mask takes the exact integral
sqrt(pi) w_L, so for the full model the two differ by that quadrature,
truncated tails included, and nothing else.

Every pure phase factor of the package, exp(-i theta) for a real theta,
comes from phase_factor: the potential phase of each stretch, the
kinetic phase and the phase mask of diffraction.numeric_orders. It
writes cos(theta) and -sin(theta) into one complex array. numpy's
complex exp of a purely imaginary argument is libm's cexp, which is
sincos times exp(0) = 1, so the bits are the same, but for a z-step's
phase, under about 1 rad, cos and sin take half the time: on 2^16
points a z-step's phase costs about 0.85 ms in a transit, against
1.62 ms through the complex exp and 4-4.5 ms for the FFT pair (2-core
Xeon host, numpy 2.4).

The stretch transit differs from step-by-step Strang by roundoff only,
which grows with the step count: over the four models, kinetic on and
off, dense and dilute, max|difference| / max|psi| measured at most
4.7e-15 on 512 points in 24 steps (the tests bound it by 1e-13) and
4.1e-14 on 4096 points in 2048 steps as one stretch (V0 rho_0 = 0.3,
kinetic off, where the order populations moved by at most 8.0e-16).

PropagationConfig describes a transit: step count, kinetic switch and
model. The transit derives dt from its z-window [-4 w_L, +4 w_L] and
the step count, samples E once, and hands step the dt and the envelope
samples of each stretch. The kinetic phase exp(-i hbar dt k^2/2m) of
that dt is built once per transit.

The arrays that depend on the grid and a scalar or two, not on the
density, are memoized per key (functools.lru_cache, GRID_MEMO_SIZE
entries each): the Gaussians exp(-y^2/width_sq) of the packet envelope
and of the phase mask's density profile, the standing wave's pattern
cos^2(n k_L y), and momentum_spectrum's mode-to-order bins. The keys are
the frozen Grid1D and hashable scalars, so equal grids built apart share
an entry, and a sweep point, a repeated diffract run or the other grid
route on the same grid reads the arrays the first one built. The grid
positions themselves are not kept: only these helpers' misses read them.
Every entry is read-only, so no caller can change what another reads;
lru_cache is thread-safe, so sweep workers share entries too.

The order window is check_order_count, order_capacity, check_q_max,
order_bins and momentum_spectrum. It owns the order range, which every
route and report checks through check_order_count, and bins a state's
spectral power into the DiffractionPattern that every diffraction route
reports, so the type lives here, beside what fills it, and this module
imports no route.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Collection, Mapping

import numpy as np

from .errors import ConfigurationError, NumericsError, ParameterError
from .models import ModelKind, effective_potential
from .optics import check_adiabatic
from .serialize import write_float_table
from .units import HBAR, PhysicalParams, checked_divisor, checked_power


# With the kinetic term on, the transit also makes the field real every
# this many z-steps, besides each observed step and the last, so no
# stretch runs longer unscanned; every real state is scanned for
# non-finite values. With it off there is no such interval: |psi| is
# frozen, a stretch costs one exponential however long it is, and its
# phase is checked before that.
_FINITE_CHECK_INTERVAL = 64

# The fewest grid cells the packet's width w_y may span. At 4 cells its
# spectrum exp(-(k w_y)^2 / 2) has fallen to exp(-8 pi^2) ~ 6e-35 of its
# peak at the grid's Nyquist wavenumber pi / spacing, far below roundoff;
# a narrower packet aliases, and one much narrower than a cell is lost.
MIN_PACKET_CELLS = 4

# Entries each memoized grid helper keeps (see the module docstring). An
# entry on the routes' default 4096-point grid is 32 KiB; a sweep along
# an axis that changes the key (w_y, k_l, harmonic) misses at every
# point and holds at most this many.
GRID_MEMO_SIZE = 8

# The largest potential phase, in rad, that one exponential may take. A
# double holds a phase of 4e9 rad to ulp(4e9) = 2^-21 ~ 4.8e-7 rad, so
# exp(-i phi) stays within 1e-6 rad of the phase asked for; far beyond
# it the rounding error of phi exceeds 2 pi and the factor is noise.
# Stretches check their phase against it once, at their entry density.
MAX_EXPONENT_PHASE = 4e9

# The most grid points a Grid1D may hold: 2^24 points make one complex128
# field of 16 B x 2^24 = 256 MiB, the largest array a grid sizes (the
# field, its FFT and its phase factors are complex128, every other
# per-point array is 8 B a point).
MAX_GRID_POINTS = 2**24

# The most z-steps a transit may take. The largest single allocation the
# count sizes is the set of steps a transit makes real when every step
# is observed (propagate --snapshots equal to --steps): a Python set
# holds 2^23 ints in a table of 2^24 slots of 16 B, 256 MiB. The z and
# envelope samples at the N + 1 endpoints are 8 B a step, 64 MiB each.
MAX_Z_STEPS = 2**23


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic 1D grid; point n_points wraps back to point 0."""

    n_points: int
    y_min: float
    y_max: float

    def __post_init__(self):
        n = self.n_points
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"n_points must be a power of two >= 16, got {n}"
            )
        if n > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"n_points = {n} grid points is more than the ceiling of {MAX_GRID_POINTS}"
            )
        if not (math.isfinite(self.y_min) and math.isfinite(self.y_max)):
            raise ConfigurationError("grid bounds must be finite")
        if self.y_max <= self.y_min:
            raise ConfigurationError(
                f"y_max must exceed y_min, got [{self.y_min}, {self.y_max}]"
            )

    @property
    def spacing(self) -> float:
        return (self.y_max - self.y_min) / self.n_points

    @property
    def length(self) -> float:
        return self.y_max - self.y_min

    def points(self) -> np.ndarray:
        return self.y_min + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular spatial frequencies of the spectral modes, 1/cm."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=GRID_MEMO_SIZE)
def gaussian_profile(grid: Grid1D, width_sq: float) -> np.ndarray:
    """exp(-y^2/width_sq) on the grid, memoized per key and read-only.

    width_sq = 2 w_y^2 is the packet envelope, w_y^2 the density profile
    of the phase mask.
    """
    y = grid.points()
    return _read_only(np.exp(-(y * y) / width_sq))


@functools.lru_cache(maxsize=GRID_MEMO_SIZE)
def standing_wave_pattern(grid: Grid1D, nk: float) -> np.ndarray:
    """cos^2(nk y) on the grid, nk = n k_L: the standing wave's transverse
    pattern P, memoized per key and read-only."""
    return _read_only(np.cos(nk * grid.points()) ** 2)


@dataclass
class WaveState:
    """Complex field amplitude psi sampled on a grid, units cm^(-1/2)."""

    grid: Grid1D
    amplitude: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=np.complex128)
        if amp.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"amplitude length {amp.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not amp.any():
            raise ConfigurationError("field is identically zero (norm must be positive)")
        self.amplitude = amp

    @classmethod
    def _unchecked(cls, grid: Grid1D, amplitude: np.ndarray, time: float) -> "WaveState":
        """A state whose complex128 amplitude of the grid's length is known
        nonzero, such as a step's result: skips the validation pass."""
        state = cls.__new__(cls)
        state.grid, state.amplitude, state.time = grid, amplitude, time
        return state


@dataclass(frozen=True)
class PropagationConfig:
    """What a transit through the laser does, not how finely it is sliced
    in time: the z-window and n_steps fix dt.

    The laser is the params' standing wave, for a transit and a bare
    step alike. The density the potential sees is the params' rho_0
    rule, packet_normalization, not a setting.
    """

    n_steps: int
    kinetic_enabled: bool = True
    model: ModelKind = ModelKind.FULL

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_steps > MAX_Z_STEPS:
            raise ConfigurationError(
                f"n_steps = {self.n_steps} z-steps is more than the ceiling of {MAX_Z_STEPS}"
            )


def _envelope(params: PhysicalParams, z: np.ndarray) -> np.ndarray:
    """The standing wave's envelope E(z) = Omega_0^2 exp(-z^2/w_L^2) at an
    array of z (cm), in rad^2/s^2."""
    omega0_sq = checked_power(params.rabi_peak, 2, "rabi_peak")
    inv_wl_sq = 1.0 / checked_divisor(params.w_l, 2, "w_l")
    return omega0_sq * np.exp(-(z * z) * inv_wl_sq)


def standing_wave_intensity(params: PhysicalParams) -> Callable[[np.ndarray, float], np.ndarray]:
    """|Omega(y, z)|^2 = E(z) P(y) of the params' standing wave at one z,
    with P(y) = cos^2(n k_L y).

    E is taken with math.exp at the scalar z; the transit's array
    envelope, _envelope, uses numpy's exp, which can differ from it in
    the last bit.
    """
    omega0_sq = checked_power(params.rabi_peak, 2, "rabi_peak")
    inv_wl_sq = 1.0 / checked_divisor(params.w_l, 2, "w_l")
    nk = params.harmonic * params.k_l

    def profile(y: np.ndarray, z: float) -> np.ndarray:
        return omega0_sq * math.exp(-(z * z) * inv_wl_sq) * np.cos(nk * y) ** 2

    return profile


def packet_normalization(rho_0: float) -> tuple[float, float]:
    """(peak amplitude, density per |psi|^2) of a packet of peak density rho_0.

    The one rule that ties psi to the density the potential sees. For
    rho_0 > 0 the peak is sqrt(rho_0) and the density is |psi|^2 itself
    (factor 1.0). rho_0 = 0 is the dilute tracer: a unit peak and a
    density of exactly 0 (factor 0.0), while a non-finite |psi|^2 still
    gives a NaN density. Multiplying |psi|^2 by the factor gives the bits
    of dividing it by a transverse area of 1 or of inf.
    """
    if rho_0 == 0.0:
        return 1.0, 0.0
    if not 0.0 < rho_0 < math.inf:
        raise ParameterError(f"rho_0 must be finite and nonnegative, got {rho_0!r}")
    return math.sqrt(rho_0), 1.0


def packet_envelope(grid: Grid1D, w_y: float) -> np.ndarray:
    """exp(-y^2/(2 w_y^2)) on the grid: the packet's shape at unit peak,
    gaussian_profile's shared read-only array.

    ParameterError where 2 w_y^2 underflows to 0 and would divide the
    exponent by zero; ConfigurationError where w_y spans fewer than
    MIN_PACKET_CELLS grid cells, which the grid cannot resolve. Both are
    decided before any sample is taken, and name w_y and the rule but no
    number, which on an SI file would be the converted one.
    """
    width_sq = 2.0 * w_y * w_y
    if width_sq == 0.0:
        raise ParameterError("w_y is out of range: its square underflows to 0")
    if not w_y / grid.spacing >= MIN_PACKET_CELLS:
        raise ConfigurationError(
            "packet too narrow for the grid: w_y spans too few of its cells; "
            f"need at least {MIN_PACKET_CELLS}"
        )
    return gaussian_profile(grid, width_sq)


def init_gaussian(grid: Grid1D, rho0: float, w_y: float) -> WaveState:
    """Zero-phase Gaussian packet of density rho0 e^{-y^2/w_y^2}.

    packet_envelope scaled to packet_normalization's peak amplitude:
    sqrt(rho0), or 1 for the dilute tracer rho0 = 0. The packet must
    satisfy w_y < grid.length/6 so its tails are negligible at the
    periodic boundary.
    """
    if w_y <= 0.0:
        raise ConfigurationError(f"w_y must be positive, got {w_y!r}")
    if not w_y < grid.length / 6.0:
        raise ConfigurationError(
            "packet too wide for the grid: w_y spans too much of its length; need w_y < length/6"
        )
    peak, _ = packet_normalization(rho0)
    return WaveState(grid=grid, amplitude=peak * packet_envelope(grid, w_y), time=0.0)


def norm(state: WaveState) -> float:
    """Trapezoidal integral of |psi|^2 dy on the periodic grid."""
    return float(np.sum(np.abs(state.amplitude) ** 2)) * state.grid.spacing


def phase_factor(theta: np.ndarray) -> np.ndarray:
    """exp(-i theta) of a real array, as a new complex128 array.

    cos(theta) goes into the real part and -sin(theta) into the imaginary
    part: the bits of np.exp(-1j * theta), signed zeros included, which
    goes through libm's cexp and, for a phase under 1 rad, takes about
    twice as long.
    """
    factor = np.empty(theta.shape, np.complex128)
    np.cos(theta, out=factor.real)
    np.sin(theta, out=factor.imag)
    np.negative(factor.imag, out=factor.imag)
    return factor


def _step_invariants(
    grid: Grid1D, dt: float, config: PropagationConfig, params: PhysicalParams
):
    """(laser pattern P on the grid, kinetic phase exp(-i hbar dt k^2/2m)).

    P is the memoized standing_wave_pattern; the kinetic phase is None
    when the kinetic term is off.
    """
    pattern = standing_wave_pattern(grid, params.harmonic * params.k_l)
    kinetic_phase = None
    if config.kinetic_enabled:
        k = grid.wavenumbers()
        theta = (0.5 * HBAR * dt / params.mass * k) * k
        # phase_factor(+0.0) is 1 - 0j, but exp(-0.5j hbar dt k^2/m) taken in
        # complex arithmetic is 1 + 0j at k = 0; a zero phase taken as -0.0
        # keeps that sign, and with it the transit's bits
        theta[theta == 0.0] = -0.0
        kinetic_phase = phase_factor(theta)
    return pattern, kinetic_phase


def _weight(
    psi: np.ndarray,
    t: float,
    pattern: np.ndarray,
    dt: float,
    config: PropagationConfig,
    params: PhysicalParams,
    drive: float | None = None,
) -> np.ndarray:
    """dt V(|Omega|^2 = pattern) / hbar at the density of psi, once it passed the guard.

    effective_potential is exactly linear in |Omega|^2 for every model
    (checked to a few ulp in the tests), so until |psi| changes every
    potential phase is drive * weight with this one weight and a scalar
    drive.

    Given a drive (a kinetic-off stretch's whole sum, or a kinetic-on
    stretch's largest per-z-step drive), the largest phase that one
    exponential of the stretch takes, drive * max|weight|, is checked
    here, before it. A NaN phase or a non-finite drive is a
    NumericsError, reported here and not only by the scan of the state
    after it. A phase past MAX_EXPONENT_PHASE, which no double resolves,
    is a ParameterError that names the model and the inputs the phase
    grows with; so is an infinite one from a finite density and drive,
    where dt V / hbar or its product with the drive overflows.
    """
    density = (psi.real**2 + psi.imag**2) * packet_normalization(params.rho_0)[1]
    rho_hi = float(np.max(density))
    if not math.isfinite(rho_hi):
        # a field that went non-finite between finite scans is a numerics
        # failure, not a regime violation or a pole
        raise NumericsError(
            f"non-finite peak density {rho_hi!r} at "
            f"t = {t!r} s (z = {params.v_g * t!r} cm)",
            time=t,
        )
    if params.gamma > 0.0:
        check_adiabatic(params, float(np.min(density)), rho_hi)
    weight = effective_potential(config.model, pattern, density, params) * (dt / HBAR)
    if drive is not None:
        phase = float(drive * np.max(np.abs(weight)))
        if not math.isfinite(drive) or math.isnan(phase):
            raise NumericsError(
                f"non-finite potential phase {phase!r} over the stretch from "
                f"t = {t!r} s (z = {params.v_g * t!r} cm)",
                time=t,
            )
        if abs(phase) > MAX_EXPONENT_PHASE:
            raise ParameterError(
                f"out of range for the {config.model.value} model: a potential phase of "
                f"{phase:.3g} rad in one exponential exceeds the {MAX_EXPONENT_PHASE:.0e} rad "
                "a double resolves; it grows as rabi_peak^2 w_l / (|detuning| v_g), and "
                "with rho_0 through the model's density factor"
            )
    return weight


def _settle(psi: np.ndarray, drive: float, weight: np.ndarray) -> np.ndarray:
    """psi times exp(-i drive weight): the pending potential phase applied."""
    # complex multiply is not bitwise commutative on numpy 2.4: from 2^14
    # points (its 256 KiB temporary-elision threshold) this product runs
    # as factor *= psi, below it as psi * factor; an out= rewrite must
    # keep that order at each size, or the transit's bits move
    return psi * phase_factor(drive * weight)


def step(
    state: WaveState,
    dt: float,
    config: PropagationConfig,
    params: PhysicalParams,
    invariants: tuple[np.ndarray, np.ndarray | None] | None = None,
    *,
    envelope: np.ndarray,
) -> WaveState:
    """Carry a real state over the k >= 1 z-steps of one stretch of dt each
    to the real state at its end: k Strang steps of half potential,
    kinetic, half potential.

    `envelope` holds the laser envelope E at the endpoint times t0,
    t0 + dt, ..., t0 + k dt of the stretch; the caller samples it, as
    propagate_through_laser does once per transit, and an all-zero
    envelope turns the potential off. The pattern is the params' standing
    wave, P = cos^2(n k_L y). With the kinetic term on, the opening half
    phase is taken at the entry density; then each z-step takes its
    kinetic stage, exact in the spectral basis, and one phase at the
    fresh density: the full phase between z-steps, where one step's
    closing half and the next one's opening half merge, and the closing
    half at the end. With it off the k steps' potential phases
    commute, so they are applied as one, the trapezoid sum of E times the
    weight of the state's density, which _weight checks for non-finite
    values before the exponential. `invariants` lets a caller that takes
    many stretches of one dt on one grid with one config pass the arrays
    built by _step_invariants once; without it they are built here.
    """
    if invariants is None:
        invariants = _step_invariants(state.grid, dt, config, params)
    pattern, kinetic_phase = invariants
    spans = len(envelope) - 1
    if spans < 1:
        raise ConfigurationError(f"a step covers one or more z-steps, got {spans}")
    t = state.time
    psi = state.amplitude
    if config.kinetic_enabled:
        # the largest phase of the stretch is its largest per-z-step drive
        # times the weight; it is checked once, at the entry density
        peak = np.max(envelope[1:-1], initial=0.5 * np.maximum(envelope[0], envelope[-1]))
        weight = _weight(psi, t, pattern, dt, config, params, drive=float(peak))
        psi = _settle(psi, 0.5 * envelope[0], weight)
        for j in range(1, spans + 1):
            psi = np.fft.ifft(np.fft.fft(psi) * kinetic_phase)
            t += dt
            # the kinetic stage moved |psi|
            drive = envelope[j] if j < spans else 0.5 * envelope[j]
            psi = _settle(psi, drive, _weight(psi, t, pattern, dt, config, params))
    else:
        drive = 0.5 * envelope[0] + float(np.sum(envelope[1:-1])) + 0.5 * envelope[-1]
        psi = _settle(psi, drive, _weight(psi, t, pattern, dt, config, params, drive=drive))
        t += spans * dt
    return WaveState._unchecked(state.grid, psi, t)


def propagate_through_laser(
    state: WaveState,
    config: PropagationConfig,
    params: PhysicalParams,
    observer: Callable[[int, WaveState], None] | None = None,
    observe_steps: Collection[int] = (),
) -> WaveState:
    """Carry the state through the laser region z in [-4 w_L, +4 w_L].

    Time is the longitudinal coordinate: t = z/v_g. Uniform z-steps,
    count taken from config.n_steps; the window truncates the Gaussian
    envelope integral below 1e-7 of its value. Returns the far-zone
    state with its clock advanced by the crossing duration.

    The field is a real state only after the z-steps that need one (see
    the module docstring): each step in `observe_steps`, which must lie
    in 1..n_steps, the last step and, with the kinetic term on only,
    every _FINITE_CHECK_INTERVAL-th step. One step() call carries each
    real state over the stretch to the next, in both modes. Each real
    state is scanned for non-finite values, then `observer` is called
    with (step_index, state), in order; it never sees a non-finite
    state. With the kinetic term off, _weight checks a stretch's phase,
    and with it its drive, before its one exponential. The real states,
    not the observer, decide the arithmetic: the same observe_steps give
    the same bits with or without an observer. A NumericsError leaves
    with last_good = (step_index, state), the last real state that
    passed the scan, or (0, the entry state); with the kinetic term off
    that is the last observed state before the failing stretch, or the
    entry state, and a stretch that fails before its exponential sets
    the error's step to the stretch's last step.
    """
    last = config.n_steps
    observed = {operator.index(i) for i in observe_steps}  # TypeError for a non-integer
    outside = sorted(i for i in observed if not 1 <= i <= last)
    if outside:
        raise ConfigurationError(f"observe_steps must lie in 1..{last}, got {outside}")
    z_half = 4.0 * params.w_l
    duration = 2.0 * z_half / params.v_g
    if not math.isfinite(duration):  # before any envelope sample
        raise ParameterError("v_g is out of range: the transit time 8 w_L / v_g overflows")
    dt = duration / last
    invariants = _step_invariants(state.grid, dt, config, params)
    t_entry = -z_half / params.v_g
    envelope = _envelope(params, params.v_g * (t_entry + dt * np.arange(last + 1)))

    real = {*observed, last}
    if config.kinetic_enabled:
        real.update(range(_FINITE_CHECK_INTERVAL, last, _FINITE_CHECK_INTERVAL))
    working = WaveState._unchecked(state.grid, state.amplitude, t_entry)
    start = 0
    last_good = (0, state)
    try:
        for index in sorted(real):
            stretch = envelope[start : index + 1]
            working = step(working, dt, config, params, invariants, envelope=stretch)
            start = index
            if not np.all(np.isfinite(working.amplitude.view(np.float64))):
                raise NumericsError(
                    f"non-finite amplitude after step {index} "
                    f"(t = {working.time!r} s, z = {params.v_g * working.time!r} cm)",
                    step=index,
                    time=working.time,
                )
            last_good = (index, working)
            if observer is not None:
                observer(index, working)
    except NumericsError as exc:
        if exc.step is None and not config.kinetic_enabled:
            exc.step = index  # a kinetic-off stretch fails as a whole, before its exponential
        exc.last_good = last_good
        raise
    return WaveState._unchecked(working.grid, working.amplitude, state.time + duration)


_PROB_SLACK = 1e-9  # roundoff headroom on probabilities and their sum


@dataclass(frozen=True)
class DiffractionPattern:
    """Order populations P_q over q in [-q_max, q_max].

    orders must cover a contiguous symmetric range of integers.
    """

    orders: Mapping[int, float]

    def __post_init__(self):
        if not self.orders:
            raise ConfigurationError("pattern must contain at least order 0")
        qs = sorted(self.orders)
        qm = qs[-1]
        if qs != list(range(-qm, qm + 1)):
            raise ConfigurationError(
                f"orders must cover a contiguous range -q_max..q_max, got {qs[0]}..{qs[-1]}"
            )
        total = 0.0
        for q, p in self.orders.items():
            if not (0.0 <= p <= 1.0 + _PROB_SLACK):
                raise ConfigurationError(f"P_{q} = {p!r} outside [0, 1]")
            total += p
        if total > 1.0 + _PROB_SLACK:
            raise ConfigurationError(f"order populations sum to {total!r} > 1")

    @property
    def q_max(self) -> int:
        return max(self.orders)

    def total(self) -> float:
        return sum(self.orders.values())

    def folded(self) -> list[float]:
        """[P_0, P_1, ..., P_qmax] taking the positive-q entries."""
        return [self.orders[q] for q in range(self.q_max + 1)]


def order_capacity(grid: Grid1D, k_unit: float) -> tuple[int, int]:
    """(M, capacity): spectral modes per order and the highest order that fits.

    k_unit must align with the discrete modes: k_unit * length / (2 pi)
    must be an integer M >= 1. Order q's window reaches (q + 1/2) M
    modes from zero and must stay inside the Nyquist range n/2, so the
    capacity is floor((n - M) / (2 M)), or -1 when not even order 0 fits.
    """
    if not (k_unit > 0.0 and math.isfinite(k_unit)):
        raise ConfigurationError(f"k_unit must be positive and finite, got {k_unit!r}")
    m_exact = k_unit * grid.length / (2.0 * math.pi)
    m = round(m_exact)
    if m < 1 or abs(m_exact - m) > 1e-9 * max(1.0, m_exact):
        suggested = max(1, round(m_exact)) * 2.0 * math.pi / k_unit
        raise ConfigurationError(
            "grid is incommensurate with the order spacing: k_unit*length/(2 pi) "
            f"= {m_exact!r} must be an integer; nearest compatible length = "
            f"{suggested!r} cm"
        )
    return m, (grid.n_points - m) // (2 * m)


# The most orders a run may ask for. The analytic route's Bessel row
# reaches past both q_max and |tau|, at 8 bytes and one Python loop turn
# per order, and a sweep table has q_max + 1 columns per route.
MAX_ORDERS = 1_000_000


def check_order_count(q_max: int, tau: float | None = None) -> None:
    """Refuse, before any allocation, a negative q_max or more than
    MAX_ORDERS orders: q_max, or with a tau the Bessel row of the
    analytic route, max(q_max, |tau|)."""
    if q_max < 0:
        raise ConfigurationError(f"q_max must be nonnegative, got {q_max}")
    needed = q_max if tau is None else max(q_max, math.ceil(abs(tau)))
    if needed > MAX_ORDERS:
        at = "" if tau is None else f" at tau = {tau!r}"
        raise ConfigurationError(
            f"{needed:.6g} orders needed{at} (q_max = {q_max:.6g}), more than "
            f"the ceiling of {MAX_ORDERS}"
        )


def check_q_max(grid: Grid1D, k_unit: float, q_max: int) -> int:
    """Return M of order_capacity once orders |q| <= q_max are known to fit.

    Raises ConfigurationError for a q_max above the grid's capacity, or
    one that check_order_count refuses, so a run can reject before any
    work what momentum_spectrum would reject after it.
    """
    m, capacity = order_capacity(grid, k_unit)
    if q_max > capacity:
        supported = f"q_max <= {capacity}" if capacity >= 0 else "no complete order window"
        raise ConfigurationError(
            f"q_max = {q_max} does not fit in the spectral range: "
            f"(q_max + 1/2)*{m} must be <= {grid.n_points // 2}; this grid supports "
            f"{supported} (use more grid points for more orders)"
        )
    check_order_count(q_max)
    return m


@functools.lru_cache(maxsize=GRID_MEMO_SIZE)
def order_bins(n_points: int, m: int) -> tuple[np.ndarray, int]:
    """(bin of each spectral mode, q_lo): mode j in FFT order goes to
    order floor(j_signed / m + 1/2), stored as its offset from the lowest
    order q_lo. Memoized per (n_points, M) and read-only."""
    signed_index = np.fft.fftfreq(n_points, d=1.0 / n_points)  # 0, 1, ..., -n/2, ..., -1
    assignment = np.floor(signed_index / m + 0.5).astype(int)
    q_lo = int(assignment.min())
    return _read_only(assignment - q_lo), q_lo


def momentum_spectrum(state: WaveState, k_unit: float, q_max: int) -> DiffractionPattern:
    """Diffraction-order probabilities from the spectral power.

    Every spectral mode is assigned to its nearest multiple of k_unit
    (windows of +-k_unit/2); window powers are normalized by the total
    power so the sum over all orders is 1. Returns orders |q| <= q_max,
    which check_q_max must accept.
    """
    m = check_q_max(state.grid, k_unit, q_max)
    power = np.abs(np.fft.fft(state.amplitude)) ** 2
    total = float(np.sum(power))
    if total <= 0.0:
        raise ParameterError("zero field has no momentum spectrum")
    bins, q_lo = order_bins(state.grid.n_points, m)
    sums = np.bincount(bins, weights=power)
    # check_q_max puts every |q| <= q_max inside the binned range
    orders = {q: float(sums[q - q_lo]) / total for q in range(-q_max, q_max + 1)}
    return DiffractionPattern(orders=orders)


def write_state_csv(state: WaveState, rho_0: float, fh) -> None:
    """Snapshot columns: y_cm, re_psi, im_psi, density.

    The density is packet_normalization's for a packet of peak density
    rho_0: |psi|^2, or 0 for the dilute tracer. Cells follow
    serialize.write_float_table; NaN raises ValueError before anything
    is written.
    """
    amp = state.amplitude
    density = np.abs(amp) ** 2 * packet_normalization(rho_0)[1]
    write_float_table(
        "y_cm,re_psi,im_psi,density", (state.grid.points(), amp.real, amp.imag, density), fh
    )
