"""Beam-splitter diffraction orders of a matter wave in a standing light wave.

Three routes to the far-zone order populations P_q, kept deliberately
independent so they can cross-check each other:

  analytic_orders    Bessel series P_q = J_q(tau)^2 with the peak-density
                     phase depth tau = 2 g0 / (1 + V0 rho0)^2.
  numeric_orders     phase mask: sample psi = envelope * exp(-i phi(y))
                     on a grid and bin the spectral power into orders.
                     Carries the full y-dependence of the density that
                     the series route collapses to its peak value.
  propagator_orders  kinetic-disabled split-step transit through the
                     laser region; differs from the phase mask only by
                     z-quadrature of the pulse envelope.

The analytic route is exact for uniform density. With a Gaussian packet
the denominator (1 + V0 rho(y))^2 varies across the packet, so the
series evaluated at the peak tau acquires a real gap against the grid
routes that grows with |V0 rho0|; the gap is reported, never hidden.

The two grid routes are not independent of each other. With the kinetic
term off, |psi| is frozen and the whole transit is one potential phase
on the same grid, density and pattern as the mask. The mask integrates
the envelope exactly (sqrt(pi) w_L); the propagator sums it by the
trapezoid rule over z in [-4 w_L, 4 w_L]. So the mask-vs-propagator gap
(1.1e-8 at the reference point of acceptance criterion 03) measures that
z-quadrature and nothing else: no kinetic physics, and no error the two
routes share, such as aliasing or a truncated box. Independent checks
on the grid routes are the ROADMAP's open items 2 (a profile-resolved
series on Gauss-Hermite nodes) and 11 (a coupled-mode momentum route).

_ROUTE_TABLE is the one place a route is declared: its name, what it
needs (the shared grid, or the series' Bessel row out to |tau|) and how
it runs. ROUTES is its keys; select_routes, the one reader of a route
selection ("all", a comma list or a sequence of names), default_q_max
and evaluate_routes read it, and no other code tests a route's name.
evaluate_routes runs any subset of the routes at one parameter point
and measures their largest pairwise gap; a diffract run and every sweep
point go through it.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .bessel import bessel_j_sequence
from .errors import ConfigurationError, MatterOpticsError, ParameterError
from .models import ModelKind, RamanNathParams, raman_nath_params
from .optics import check_pole
from .propagate import (
    DiffractionPattern,
    Grid1D,
    PropagationConfig,
    WaveState,
    check_order_count,
    check_q_max,
    gaussian_profile,
    momentum_spectrum,
    order_capacity,
    packet_envelope,
    packet_normalization,
    phase_factor,
    propagate_through_laser,
    standing_wave_pattern,
)
from .units import HBAR, PhysicalParams

# The routes in canonical order, which patterns, reports and the pairwise
# discrepancy follow. Each maps to what it needs, the shared "grid" or the
# series' "bessel row" out to |tau|, and how it runs: (point, rn, grid,
# q_max, z_steps, model) -> pattern. An entry looks its route function up
# as a module global when it runs, so a function rebound on the module,
# as by a tracer, is the one called.
_ROUTE_TABLE = {
    "analytic": ("bessel row", lambda p, rn, g, q, z, m: analytic_orders(rn.tau, q)),
    "numeric": ("grid", lambda p, rn, g, q, z, m: numeric_orders(p, rn, g, q)),
    "propagator": ("grid", lambda p, rn, g, q, z, m: propagator_orders(p, g, q, z, model=m)),
}
ROUTES = tuple(_ROUTE_TABLE)

# The default grid of the grid routes: points, span in effective
# wavelengths, and propagator z-steps.
DEFAULT_GRID_POINTS = 4096
DEFAULT_BOX_LAMBDAS = 128.0
DEFAULT_Z_STEPS = 2048


def select_routes(selection: str | Sequence[str]) -> tuple[str, ...]:
    """The routes named by "all", a comma list or a sequence of names, in ROUTES order.

    An unknown name or an empty selection raises ConfigurationError.
    """
    if selection == "all":
        return ROUTES
    names = selection.split(",") if isinstance(selection, str) else selection
    names = {name.strip() for name in names if name.strip()}
    if not names or not names <= set(ROUTES):
        raise ConfigurationError(
            f"invalid path selection {selection!r}; use {', '.join(ROUTES)} or all"
        )
    return tuple(r for r in ROUTES if r in names)


def pattern_discrepancy(a: DiffractionPattern, b: DiffractionPattern) -> float:
    """max_q |P_q^a - P_q^b| over the union of orders, absent entries = 0."""
    return max(
        abs(a.orders.get(q, 0.0) - b.orders.get(q, 0.0)) for q in set(a.orders) | set(b.orders)
    )


def phase_profile(grid: Grid1D, params: PhysicalParams, rn: RamanNathParams) -> np.ndarray:
    """Accumulated light-shift phase phi(y) on the grid after crossing the laser.

    phi(y) = 4 g0 cos^2(n k_L y) / (1 + V0 rho0 exp(-y^2/w_y^2))^2.
    The far-zone field is psi_in(y) * exp(-i phi(y)). The density
    profile and the pattern are the grid's memoized arrays.
    """
    if rn.rho_0 != params.rho_0:
        raise ParameterError(
            f"rn was built for rho_0 = {rn.rho_0!r} but params carry {params.rho_0!r}"
        )
    local_density_factor = gaussian_profile(grid, params.w_y * params.w_y)
    denom = check_pole(
        1.0 + rn.v0 * rn.rho_0 * local_density_factor,
        rn.rho_0 * local_density_factor,
        "phase-profile",
    )
    pattern = standing_wave_pattern(grid, params.harmonic * params.k_l)
    return 4.0 * rn.g0 * pattern / denom**2


def analytic_orders(tau: float, q_max: int) -> DiffractionPattern:
    """Bessel-series populations P_q = J_q(tau)^2 for |q| <= q_max.

    Exact for uniform density. Sum over orders reaches 1 only once
    q_max covers the Bessel tail (q_max >= |tau| + 20 is comfortable);
    a smaller q_max simply truncates.
    """
    if not math.isfinite(tau):
        raise ParameterError(f"tau must be finite, got {tau!r}")
    check_order_count(q_max, tau)
    j = bessel_j_sequence(abs(tau), q_max)  # J_q(-x)^2 = J_q(x)^2
    orders = {}
    for q in range(q_max + 1):
        orders[q] = orders[-q] = float(j[q]) ** 2
    return DiffractionPattern(orders=orders)


def diffraction_angles(params: PhysicalParams, q_max: int) -> dict[int, float]:
    """Deflection angle per order: alpha_q = atan(q hbar K / (m v_g)).

    K = order_spacing(params) = 2 n k_L is the transverse wavenumber of
    one order, the kick of the cos^2(n k_L y) grating, so order q's angle
    is that of the momenta momentum_spectrum bins into order q.
    """
    check_order_count(q_max)
    unit = HBAR * order_spacing(params) / (params.mass * params.v_g)
    angles = {0: 0.0}
    for q in range(1, q_max + 1):
        a = math.atan(q * unit)
        angles[q] = a
        angles[-q] = -a
    return angles


def effective_wavelength(params: PhysicalParams) -> float:
    """2 pi / (n k_L): the transverse length unit of the standing wave."""
    return 2.0 * math.pi / (params.harmonic * params.k_l)


def order_spacing(params: PhysicalParams) -> float:
    """2 n k_L: the transverse wavenumber between neighbouring orders, 1/cm."""
    return 2.0 * params.harmonic * params.k_l


def commensurate_grid(params: PhysicalParams, n_points: int, box_lambdas: float) -> Grid1D:
    """Symmetric grid commensurate with the order spacing 2 n k_L.

    The box spans box_lambdas effective wavelengths; it must be a whole
    number of standing-wave periods (half-wavelengths), so box_lambdas
    is required to be a multiple of 0.5.
    """
    if not (box_lambdas > 0.0 and math.isfinite(box_lambdas)):
        raise ConfigurationError(f"box_lambdas must be positive, got {box_lambdas!r}")
    half_periods = box_lambdas * 2.0
    if abs(half_periods - round(half_periods)) > 1e-9:
        raise ConfigurationError(
            f"box_lambdas = {box_lambdas!r} is not a multiple of 0.5 "
            "effective wavelengths; the box must hold a whole number of "
            "standing-wave periods"
        )
    length = round(half_periods) * (0.5 * effective_wavelength(params))
    return Grid1D(n_points=n_points, y_min=-0.5 * length, y_max=0.5 * length)


def fitted_box_lambdas(params: PhysicalParams, n_points: int) -> float:
    """The box, in effective wavelengths, fitted to the packet.

    The smallest half-wavelength multiple spanning 6.5 w_y (13 w_y / lambda
    half-wavelengths), never below DEFAULT_BOX_LAMBDAS: the packet clears
    init_gaussian's w_y < length/6 guard, and |psi|^2 at the box edge is
    at most e^-10.6 of its peak. A box of more half-wavelengths than the
    grid has points fits no order (propagate.order_capacity), so a w_y
    that needs one is refused before any array is built.
    """
    half_periods = 13.0 * params.w_y / effective_wavelength(params)
    if not half_periods <= n_points:
        Grid1D(n_points, -0.5, 0.5)  # a grid size Grid1D refuses is named as such
        raise ParameterError(
            f"w_y is too wide for the grid: its box of 6.5 w_y spans {0.5 * half_periods:.6g} "
            f"effective wavelengths 2 pi/(n k_L), and {n_points} grid points hold at most "
            f"{n_points // 2}"
        )
    return max(DEFAULT_BOX_LAMBDAS, 0.5 * math.ceil(half_periods))


def numeric_orders(
    params: PhysicalParams, rn: RamanNathParams, grid: Grid1D, q_max: int
) -> DiffractionPattern:
    """Grid oracle for the series route: spectral binning of the phase mask.

    Samples psi(y) = exp(-y^2/(2 w_y^2)) * exp(-i phi(y)) pointwise and
    extracts order populations from its spectral power. Only relative
    spectral weights matter here, so the packet is packet_envelope, at
    unit peak amplitude, and is allowed to overhang the periodic box.
    With the grid commensurate to the standing wave, the envelope
    spectrum factors out of every order window identically only when
    tau is uniform across the packet, i.e. at zero density. At finite
    density tau varies with y, the pattern mixes the local patterns
    across the packet, and a box that truncates the envelope drops part
    of that mix (a 50-wavelength packet at V0 rho0 = 0.3 moves P_0 from
    0.031 in a 128-wavelength box to 0.040 in a 512-wavelength box).

    The envelope, the density profile and the pattern are the grid's
    memoized read-only arrays (see propagate), so repeated calls on one
    grid, such as a sweep's points or the propagator route beside this
    one, build them once; only phi and what follows are per call.
    """
    # from 2^14 points numpy runs this product as factor *= envelope; for
    # a real envelope both operand orders give the same bits on numpy 2.4,
    # but an out= rewrite keeps this order, as propagate._settle must
    psi = packet_envelope(grid, params.w_y) * phase_factor(phase_profile(grid, params, rn))
    state = WaveState(grid=grid, amplitude=psi, time=0.0)
    return momentum_spectrum(state, order_spacing(params), q_max)


def propagator_orders(
    params: PhysicalParams,
    grid: Grid1D,
    q_max: int,
    z_steps: int,
    model: ModelKind = ModelKind.FULL,
) -> DiffractionPattern:
    """Split-step transit with the kinetic term disabled (beam-splitter regime).

    Starts from the same packet as numeric_orders, at the peak amplitude
    of packet_normalization, carried through the laser region by the
    propagator instead of by the closed-form phase integral. With |psi|
    frozen, the propagator weights the whole transit by one
    density-dependent potential at |Omega|^2 = cos^2(n k_L y), sums the
    pulse envelope, sampled once at the z-step endpoints, by the
    trapezoid rule as a scalar, and applies the phase once, in one step
    and one exponential, after checking the sum and the phase for
    non-finite values. The two must agree to the z-quadrature error of
    the pulse envelope, a parts-in-1e7 effect at the default step count.
    """
    peak, _ = packet_normalization(params.rho_0)
    state = WaveState(grid=grid, amplitude=peak * packet_envelope(grid, params.w_y), time=0.0)
    config = PropagationConfig(n_steps=z_steps, kinetic_enabled=False, model=model)
    final = propagate_through_laser(state, config, params)
    return momentum_spectrum(final, order_spacing(params), q_max)


def default_q_max(
    points: Sequence[PhysicalParams],
    routes: str | Sequence[str],
    grid_points: int,
    box_lambdas: float,
) -> int:
    """Highest order reported when none is asked for: ceil(max |tau|) + 30.

    The largest |tau| over the points sets the range; a point without a
    tau counts as 0. When a grid route runs, the result is capped at the
    grid's capacity (and kept >= 0). The capacity depends on the grid
    alone, so the first point's grid stands for all; a grid that cannot
    be built is left for the run to reject. A range, or with the analytic
    route a tau, beyond propagate.MAX_ORDERS is refused here. routes is
    any selection select_routes takes.
    """
    tau = 0.0
    for point in points:
        try:
            tau = max(tau, abs(raman_nath_params(point).tau))
        except MatterOpticsError:
            pass
    q_max = math.ceil(tau) + 30
    needs = {_ROUTE_TABLE[name][0] for name in select_routes(routes)}
    if points and "grid" in needs:
        try:
            grid = commensurate_grid(points[0], grid_points, box_lambdas)
        except ConfigurationError:
            pass
        else:
            _, capacity = order_capacity(grid, order_spacing(points[0]))
            q_max = min(q_max, max(capacity, 0))
    check_order_count(q_max, tau if "bessel row" in needs else None)
    return q_max


def evaluate_routes(
    point: PhysicalParams,
    routes: str | Sequence[str],
    q_max: int,
    grid_points: int,
    box_lambdas: float,
    z_steps: int,
    model: ModelKind = ModelKind.FULL,
) -> tuple[RamanNathParams, dict[str, DiffractionPattern], float]:
    """Evaluate the chosen routes at one parameter point.

    Returns (rn, patterns, discrepancy): the beam-splitter scalars, one
    pattern per selected route keyed in ROUTES order, and the largest
    pattern_discrepancy over all pairs of routes (0 for a single route).
    routes is any selection select_routes takes; they run in ROUTES
    order. The grid routes share one commensurate grid, built on reaching
    the first of them, so the series runs, and refuses, before it exists.
    The grid must hold q_max: check_q_max refuses it before any grid route
    runs. `model` selects the propagator's potential. Guard and
    configuration errors propagate.
    """
    selected = select_routes(routes)
    rn = raman_nath_params(point)
    patterns: dict[str, DiffractionPattern] = {}
    grid = None
    for name in selected:
        need, run = _ROUTE_TABLE[name]
        if need == "grid" and grid is None:
            grid = commensurate_grid(point, grid_points, box_lambdas)
            check_q_max(grid, order_spacing(point), q_max)
        patterns[name] = run(point, rn, grid, q_max, z_steps, model)
    pairs = itertools.combinations(patterns.values(), 2)
    discrepancy = max((pattern_discrepancy(a, b) for a, b in pairs), default=0.0)
    return rn, patterns, discrepancy
