"""Independent reference computations for the benchmark's output checks.

Everything here is derived from the formulas the README states, with
scipy's Bessel functions and numpy's Gauss-Hermite nodes, and never
imports matteroptics: a fault in the program cannot leak into its own
oracle.

Parameters are plain dicts of Gaussian-CGS values keyed like the
parameter file.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import jv

HBAR = 1.054571817e-27  # erg s, CODATA 2018
J0_FIRST_ZERO = 2.404825557695773  # J_0^2 is monotone in tau below this


def detuning(p: dict) -> float:
    return p["omega_l"] - p["omega_a"] - p.get("delta_shift", 0.0)


def v0(p: dict) -> float:
    """Characteristic volume (4 pi/3) d^2 / (hbar Delta), cm^3."""
    return (4.0 * math.pi / 3.0) * p["dipole"] ** 2 / (HBAR * detuning(p))


def g0(p: dict) -> float:
    """Zero-density phase scale Omega_0^2 w_L sqrt(pi) / (16 Delta v_g)."""
    return p["rabi_peak"] ** 2 * p["w_l"] * math.sqrt(math.pi) / (16.0 * detuning(p) * p["v_g"])


def rabi_for_g0(p: dict, target_g0: float) -> float:
    """Peak Rabi frequency that gives phase scale target_g0 (sign of Delta)."""
    return math.sqrt(target_g0 * 16.0 * detuning(p) * p["v_g"] / (p["w_l"] * math.sqrt(math.pi)))


def tau(p: dict, rho: float) -> float:
    """Bessel-series argument 2 g0 / (1 + V0 rho)^2 at peak density rho."""
    return 2.0 * g0(p) / (1.0 + v0(p) * rho) ** 2


def wavelength(p: dict) -> float:
    """Effective standing-wave wavelength 2 pi / (n k_L), cm."""
    return 2.0 * math.pi / (p["harmonic"] * p["k_l"])


def series_orders(t: float, q_max: int) -> dict[int, float]:
    """P_q = J_q(tau)^2 for |q| <= q_max, from scipy."""
    return {q: float(jv(q, t)) ** 2 for q in range(-q_max, q_max + 1)}


def lda_orders(p: dict, rho: float, q_max: int, nodes: int = 80) -> dict[int, float]:
    """Local-density average of J_q(tau(y))^2 over the packet's |psi|^2.

    |psi|^2 is proportional to exp(-y^2/w_y^2), so with u = y/w_y the
    average is a Gauss-Hermite sum over tau(u) = 2 g0 / (1 + V0 rho e^{-u^2})^2.
    Valid for a broad packet whose local phase depth varies slowly.
    """
    u, w = hermgauss(nodes)
    t = 2.0 * g0(p) / (1.0 + v0(p) * rho * np.exp(-u * u)) ** 2
    return {
        q: float(np.sum(w * jv(q, t) ** 2) / math.sqrt(math.pi))
        for q in range(-q_max, q_max + 1)
    }


def bin_orders(amplitude: np.ndarray, half_periods: int, q_max: int) -> dict[int, float]:
    """Order populations from the spectral power of a periodic field.

    Spectral index j belongs to order q when |j - q M| <= M/2, with M
    the number of standing-wave half-periods in the box; powers are
    normalised by the total.
    """
    n = amplitude.size
    power = np.abs(np.fft.fft(amplitude)) ** 2
    index = np.fft.fftfreq(n, d=1.0 / n)
    order = np.floor(index / half_periods + 0.5).astype(np.int64)
    total = float(power.sum())
    return {q: float(power[order == q].sum()) / total for q in range(-q_max, q_max + 1)}


def mask_orders(
    p: dict, rho: float, n_points: int, box_lambdas: float, q_max: int
) -> dict[int, float]:
    """Orders of the phase mask exp(-i phi(y)) applied to the Gaussian packet.

    phi(y) = 4 g0 cos^2(n k_L y) / (1 + V0 rho e^{-y^2/w_y^2})^2 is the
    accumulated light-shift phase, sampled on the symmetric periodic box
    of box_lambdas effective wavelengths.
    """
    half_periods = round(2.0 * box_lambdas)
    length = half_periods * 0.5 * wavelength(p)
    y = -0.5 * length + (length / n_points) * np.arange(n_points)
    wy = p["w_y"]
    nk = p["harmonic"] * p["k_l"]
    phi = 4.0 * g0(p) * np.cos(nk * y) ** 2 / (1.0 + v0(p) * rho * np.exp(-(y * y) / (wy * wy))) ** 2
    psi = np.exp(-(y * y) / (2.0 * wy * wy)) * np.exp(-1j * phi)
    return bin_orders(psi, half_periods, q_max)


def steady_state(drive: complex, delta: float, gamma_l: float, gamma_t: float) -> tuple[complex, float]:
    """Fixed point (R, W) of the damped Bloch equations.

    Setting dR/dt = 0 gives R = Omega W / (2 (Delta + i gamma_T)); then
    dW/dt = 0 gives W = -gamma_L / (gamma_L + |Omega|^2 gamma_T / (Delta^2 + gamma_T^2)).
    """
    pump = abs(drive) ** 2 * gamma_t / (delta * delta + gamma_t * gamma_t)
    w = -gamma_l / (gamma_l + pump)
    r = drive * w / (2.0 * complex(delta, gamma_t))
    return r, w


def max_gap(a: dict[int, float], b: dict[int, float]) -> float:
    return max(abs(a[q] - b[q]) for q in a)
