"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Every test computes its measurements first, prints a single line

    [criterion NN] PASS|FAIL <measured numbers>

and only then asserts, so the verdict and the numbers survive a failure.

Criterion 03 is expected to fail on one of its four legs: the series
route evaluates the Bessel pattern at the peak-density pulse area while
the two grid routes resolve the Gaussian density profile across the
packet, so at V0*rho0 = 0.3 they genuinely differ by about 8e-2. The
two grid routes agree with each other to 1e-8 there, which is what
pins the gap on the model difference rather than on numerics. The test
states the nominal 1e-3 target and reports the measured gap honestly.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
from scipy.special import jv

from matteroptics.bloch import BlochRates, BlochState, bloch_rhs, integrate, steady_state
from matteroptics.cli import main
from matteroptics.diffraction import (
    analytic_orders,
    commensurate_grid,
    numeric_orders,
    pattern_discrepancy,
    propagator_orders,
)
from matteroptics.errors import PoleError
from matteroptics.models import (
    ModelKind,
    characteristic_volume,
    effective_potential,
    raman_nath_params,
)
from matteroptics.optics import (
    contact_interaction_bound,
    polarizability,
    refractive_index_sq,
    susceptibility,
)
from matteroptics.propagate import (
    PropagationConfig,
    WaveState,
    init_gaussian,
    norm,
    propagate_through_laser,
    step,
)
from matteroptics.sweep import SweepSpec, run_sweep
from matteroptics.units import C_LIGHT, HBAR

from conftest import (
    make_params,
    params_file_text,
    red_detuned,
    with_g0,
    with_v0rho,
    with_wy_lambdas,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_series_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for tau in (0.5, 1.0, 2.0, 5.0, 10.0):
        q_max = math.ceil(tau) + 30
        total = analytic_orders(tau, q_max).total()
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"worst |sum P_q - 1| = {worst:.2e} over tau in 0.5..10, {elapsed:.3f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_dilute_pattern_is_squared_bessel(tmp_path, capsys):
    params = with_g0(make_params(), 2.0)
    param_path = tmp_path / "dilute.params"
    param_path.write_text(params_file_text(params, "cgs"))
    out = tmp_path / "orders.json"
    code = main(
        [
            "diffract",
            "--params",
            str(param_path),
            "--paths",
            "analytic",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    payload = json.loads(out.read_text())

    delta = (params.omega_l - params.omega_a) - params.delta_shift
    tau = (
        2.0
        * params.rabi_peak**2
        * params.w_l
        * math.sqrt(math.pi)
        / (16.0 * delta * params.v_g)
    )
    worst = max(
        abs(prob - float(jv(abs(int(q)), tau)) ** 2)
        for q, prob in payload["orders"]["analytic"].items()
    )
    ok = code == 0 and payload["q_max"] == 34 and worst <= 1e-13
    _verdict(2, ok, f"worst |P_q - J_q(2 g0)^2| = {worst:.2e} over q = -34..34")
    assert code == 0
    assert payload["q_max"] == 34
    assert worst <= 1e-13


def test_criterion_03_reference_point_cross_validation():
    t0 = time.perf_counter()
    base = with_wy_lambdas(with_g0(make_params(), 2.0), 50)
    grid = commensurate_grid(base, 4096, 128.0)
    q_max = 7
    gaps = {}
    for x in (0.0, 0.3):
        params = with_v0rho(base, x)
        rn = raman_nath_params(params)
        series = analytic_orders(rn.tau, q_max)
        mask = numeric_orders(params, rn, grid, q_max)
        prop = propagator_orders(params, grid, q_max, z_steps=2048)
        gaps[x] = (pattern_discrepancy(series, mask), pattern_discrepancy(mask, prop))
    elapsed = time.perf_counter() - t0

    series_dilute, grid_dilute = gaps[0.0]
    series_dense, grid_dense = gaps[0.3]
    ok = (
        series_dilute <= 1e-3
        and grid_dilute <= 1e-6
        and grid_dense <= 1e-6
        and series_dense <= 1e-3
        and elapsed < 10.0
    )
    _verdict(
        3,
        ok,
        "series-vs-mask "
        f"{series_dilute:.2e} (V0*rho0 = 0) and {series_dense:.2e} (V0*rho0 = 0.3) "
        "against 1e-3; mask-vs-propagator "
        f"{grid_dilute:.2e} and {grid_dense:.2e} against 1e-6; {elapsed:.1f} s",
    )
    assert elapsed < 10.0
    assert series_dilute <= 1e-3
    assert grid_dilute <= 1e-6
    assert grid_dense <= 1e-6
    # Known to fail: the series uses the peak-density pulse area, the two
    # grid routes resolve the full Gaussian profile, and at this density
    # the difference is a real model gap near 8e-2, not a numerical error
    # (the grid routes agree to 1e-8 above). Asserted at the nominal
    # target so the measured gap stays visible instead of being hidden.
    assert series_dense <= 1e-3, (
        f"series-vs-mask at V0*rho0 = 0.3 measured {series_dense:.3e}; "
        "peak-density series against profile-resolved grid routes"
    )


def test_criterion_04_suppression_and_enhancement():
    # Blue detuning: screening lowers tau, so the undiffracted fraction
    # P0 must grow with density (suppression of the beam splitter).
    def analytic_sweep(params, densities):
        spec = SweepSpec(
            base=params, axis="rho_0", values=tuple(densities),
            paths=("analytic",), q_max=3,
        )
        return run_sweep(spec)

    blue = with_g0(make_params(), 1.0)
    v0_blue = characteristic_volume(blue)
    rows_blue = analytic_sweep(blue, [x / v0_blue for x in np.linspace(0.0, 1.0, 11)])
    assert all(row.error is None for row in rows_blue)
    taus = [row.tau for row in rows_blue]
    p0s = [row.patterns["analytic"].orders[0] for row in rows_blue]
    tau_falls = all(b < a + 1e-12 for a, b in zip(taus, taus[1:])) and taus[-1] < taus[0]
    p0_grows = all(b > a - 1e-12 for a, b in zip(p0s, p0s[1:]))

    # Red detuning: |tau| grows with density (enhancement), P0 falls.
    red = with_g0(red_detuned(make_params()), -0.25)
    v0_red = characteristic_volume(red)
    rows_red = analytic_sweep(red, [x / v0_red for x in np.linspace(0.0, -0.45, 10)])
    assert all(row.error is None for row in rows_red)
    abs_taus = [abs(row.tau) for row in rows_red]
    p0s_red = [row.patterns["analytic"].orders[0] for row in rows_red]
    tau_grows = (
        all(b > a - 1e-12 for a, b in zip(abs_taus, abs_taus[1:]))
        and abs_taus[-1] > abs_taus[0]
    )
    p0_falls = (
        all(b < a + 1e-12 for a, b in zip(p0s_red, p0s_red[1:]))
        and p0s_red[-1] < p0s_red[0]
    )

    ok = tau_falls and p0_grows and tau_grows and p0_falls
    _verdict(
        4,
        ok,
        f"blue: tau {taus[0]:.3f} -> {taus[-1]:.3f}, P0 {p0s[0]:.3f} -> {p0s[-1]:.3f}; "
        f"red: |tau| {abs_taus[0]:.3f} -> {abs_taus[-1]:.3f}, "
        f"P0 {p0s_red[0]:.3f} -> {p0s_red[-1]:.3f}",
    )
    assert tau_falls
    assert p0_grows
    assert tau_grows
    assert p0_falls


def test_criterion_05_limiting_model_convergence():
    t0 = time.perf_counter()
    params = make_params()
    rabi_sq = params.rabi_peak**2
    v0 = characteristic_volume(params)
    xs = np.logspace(-4.0, -2.0, 7)
    slopes = {}
    for kind in (ModelKind.GROSS_PITAEVSKII_TYPE, ModelKind.WALLIS_TYPE):
        diffs = [
            abs(
                effective_potential(ModelKind.FULL, rabi_sq, x / v0, params)
                - effective_potential(kind, rabi_sq, x / v0, params)
            )
            for x in xs
        ]
        slopes[kind.value] = float(np.polyfit(np.log(xs), np.log(diffs), 1)[0])

    u_single = effective_potential(ModelKind.SINGLE_PARTICLE, rabi_sq, 0.0, params)
    rel_zero = max(
        abs(effective_potential(kind, rabi_sq, 0.0, params) - u_single)
        / abs(u_single)
        for kind in (
            ModelKind.FULL,
            ModelKind.GROSS_PITAEVSKII_TYPE,
            ModelKind.WALLIS_TYPE,
        )
    )
    elapsed = time.perf_counter() - t0
    ok = (
        all(abs(s - 2.0) <= 0.2 for s in slopes.values())
        and rel_zero <= 1e-14
        and elapsed < 1.0
    )
    _verdict(
        5,
        ok,
        f"residual slopes gp = {slopes['gp']:.3f}, wallis = {slopes['wallis']:.3f} "
        f"(target 2.0 +- 0.2); zero-density spread {rel_zero:.1e}; {elapsed:.3f} s",
    )
    for slope in slopes.values():
        assert abs(slope - 2.0) <= 0.2
    assert rel_zero <= 1e-14
    assert elapsed < 1.0


def test_criterion_06_lorentz_lorenz_identities():
    params = red_detuned(make_params())
    alpha = polarizability(params)
    assert alpha > 0.0
    rho_pole = 1.0 / ((4.0 * math.pi / 3.0) * alpha)

    worst = 0.0
    for rho in np.linspace(0.0, 0.9 * rho_pole, 100):
        n_sq = refractive_index_sq(alpha, float(rho))
        chi = susceptibility(alpha, float(rho))
        worst = max(worst, abs(n_sq - (1.0 + 4.0 * math.pi * chi)) / abs(n_sq))

    vacuum_exact = refractive_index_sq(alpha, 0.0) == 1.0
    try:
        refractive_index_sq(alpha, (1.0 - 5e-13) * rho_pole)
        guard_fires = False
    except PoleError:
        guard_fires = True
    try:
        off_pole = refractive_index_sq(alpha, (1.0 - 1e-9) * rho_pole)
        off_pole_finite = math.isfinite(off_pole)
    except PoleError:
        off_pole_finite = False

    ok = worst <= 1e-12 and vacuum_exact and guard_fires and off_pole_finite
    _verdict(
        6,
        ok,
        f"worst |n^2 - (1 + 4 pi chi)| / n^2 = {worst:.1e} over 100 densities; "
        f"n^2(0) == 1 exactly: {vacuum_exact}; pole guard at 5e-13: {guard_fires}; "
        f"finite at 1e-9 off the pole: {off_pole_finite}",
    )
    assert worst <= 1e-12
    assert vacuum_exact
    assert guard_fires
    assert off_pole_finite


def test_criterion_07_contact_bound_reference_value():
    # a_s = 1 nm and k_a = 0.01 nm^-1 give (3/8) s / (a_s k_a) = 37.5 at s = 1.
    params = make_params(scattering_length=1e-7, omega_a=1e5 * C_LIGHT)
    bound = contact_interaction_bound(1.0, params)
    err = abs(bound - 37.5)
    ok = err <= 1e-12
    _verdict(7, ok, f"bound = {bound!r}, |bound - 37.5| = {err:.1e}")
    assert err <= 1e-12


def test_criterion_08_propagator_quality():
    t0 = time.perf_counter()
    params = with_wy_lambdas(with_g0(make_params(), 2.0), 10)
    grid = commensurate_grid(params, 4096, 128.0)
    packet = init_gaussian(grid, 0.0, params.w_y)
    config = PropagationConfig(n_steps=10_000, kinetic_enabled=True)

    # Norm conservation across 1e4 full Strang steps.
    final = propagate_through_laser(packet, config, params)
    drift = abs(norm(final) / norm(packet) - 1.0)

    # Free plane wave: the spectral kinetic phase is exact per step.
    k = float(grid.wavenumbers()[16])
    psi0 = np.exp(1j * k * grid.points())
    free = PropagationConfig(n_steps=1, kinetic_enabled=True)
    wave = WaveState(grid=grid, amplitude=psi0, time=0.0)
    dt, n_free = 1e-6, 10_000
    for _ in range(n_free):
        wave = step(wave, dt, free, params, envelope=np.zeros(2))  # laser off
    phase = -0.5 * HBAR * k * k * (dt * n_free) / params.mass
    exact = psi0 * complex(math.cos(phase), math.sin(phase))
    phase_err = float(np.max(np.abs(wave.amplitude - exact)))

    # Strang splitting converges at second order in the step size.
    reference = propagate_through_laser(packet, replace(config, n_steps=8192), params)
    duration = 8.0 * params.w_l / params.v_g
    dts, errs = [], []
    for n_steps in (256, 512, 1024):
        out = propagate_through_laser(packet, replace(config, n_steps=n_steps), params)
        dts.append(duration / n_steps)
        errs.append(float(np.max(np.abs(out.amplitude - reference.amplitude))))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

    # Kinetic term off: a pure phase mask must freeze the modulus.
    dense = with_v0rho(params, 0.3)
    dense_packet = init_gaussian(grid, dense.rho_0, dense.w_y)
    mask_config = PropagationConfig(n_steps=2048, kinetic_enabled=False)
    masked = propagate_through_laser(dense_packet, mask_config, dense)
    freeze = float(
        np.max(np.abs(np.abs(masked.amplitude) - np.abs(dense_packet.amplitude)))
    ) / float(np.max(np.abs(dense_packet.amplitude)))

    elapsed = time.perf_counter() - t0
    ok = (
        drift <= 1e-8
        and phase_err <= 1e-8
        and abs(slope - 2.0) <= 0.2
        and freeze <= 1e-12
        and elapsed < 30.0
    )
    _verdict(
        8,
        ok,
        f"norm drift {drift:.1e} and plane-wave error {phase_err:.1e} over 1e4 steps; "
        f"splitting order {slope:.3f}; modulus freeze {freeze:.1e}; {elapsed:.1f} s",
    )
    assert drift <= 1e-8
    assert phase_err <= 1e-8
    assert abs(slope - 2.0) <= 0.2
    assert freeze <= 1e-12
    assert elapsed < 30.0


def test_criterion_09_two_level_dynamics():
    ground = BlochState(coherence=0j, inversion=-1.0, time=0.0)

    # Undriven relaxation from W = 0 follows -1 + exp(-gamma_l t).
    rates = BlochRates(gamma_l=1.0, gamma_t=0.3)
    start = BlochState(coherence=0j, inversion=0.0, time=0.0)
    relax = integrate(start, 0j, 1.0, rates, dt=0.01, n_steps=500)
    relax_err = max(
        abs(w - (-1.0 + math.exp(-rates.gamma_l * t)))
        for t, w in zip(relax.times, relax.inversion)
    )

    # Resonant Rabi flopping: W = -cos(|Omega| t), error budgeted per period.
    omega = 2.0 * math.pi
    rabi = integrate(
        ground, complex(omega), 0.0, BlochRates(0.0, 0.0), dt=1.0 / 128.0, n_steps=384
    )
    rabi_err = max(
        abs(w + math.cos(omega * t)) / max(1.0, omega * t / (2.0 * math.pi))
        for t, w in zip(rabi.times, rabi.inversion)
    )

    # The fixed point of the flow is stationary to roundoff.
    drive, detuning, ss_rates = 0.9 + 0.4j, 1.1, BlochRates(0.8, 1.3)
    ss = steady_state(drive, detuning, ss_rates)
    d_coh, d_inv = bloch_rhs(ss.coherence, ss.inversion, drive, detuning, ss_rates)
    residual = max(abs(d_coh), abs(d_inv))

    # Classical fourth-order convergence of the stepper.
    def end_state(n_steps: int) -> BlochState:
        traj = integrate(
            ground, 1.0 + 0j, 0.7, BlochRates(0.4, 0.6), dt=2.0 / n_steps, n_steps=n_steps
        )
        return traj.final

    ref = end_state(2560)
    dts, errs = [], []
    for j in range(5):
        n = 20 * 2**j
        out = end_state(n)
        dts.append(2.0 / n)
        errs.append(
            max(abs(out.coherence - ref.coherence), abs(out.inversion - ref.inversion))
        )
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

    # Without damping the Bloch vector length is a motion invariant.
    spin = integrate(ground, 1.0 + 0j, 0.5, BlochRates(0.0, 0.0), dt=0.01, n_steps=10_000)
    length_drift = max(
        abs(w**2 + 4.0 * abs(r) ** 2 - 1.0) for r, w in zip(spin.coherence, spin.inversion)
    )

    ok = (
        relax_err <= 1e-8
        and rabi_err <= 1e-6
        and residual <= 1e-12
        and abs(order - 4.0) <= 0.3
        and length_drift <= 1e-8
    )
    _verdict(
        9,
        ok,
        f"relaxation {relax_err:.1e}; Rabi {rabi_err:.1e}/period; "
        f"fixed-point residual {residual:.1e}; order {order:.3f}; "
        f"length drift {length_drift:.1e} over 1e4 steps",
    )
    assert relax_err <= 1e-8
    assert rabi_err <= 1e-6
    assert residual <= 1e-12
    assert abs(order - 4.0) <= 0.3
    assert length_drift <= 1e-8


def test_criterion_10_deterministic_outputs(tmp_path, capsys):
    # Packet at 16 wavelengths: broad enough for the validity checks,
    # narrow enough for the propagate width guard on a 128-lambda box.
    params = with_wy_lambdas(with_g0(make_params(), 1.0), 16)
    param_path = tmp_path / "base.params"
    param_path.write_text(params_file_text(params, "cgs"))
    rho = with_v0rho(params, 0.2).rho_0
    common = ["--params", str(param_path)]

    def run(argv):
        code = main(argv)
        capsys.readouterr()
        assert code == 0, argv
        return code

    def content(path):
        return path.read_bytes()

    mismatches = []

    def check(label, first, second):
        if content(first) != content(second):
            mismatches.append(label)

    for i in (1, 2):
        run(
            ["optics", *common, "--density", repr(rho), "--format", "json"]
            + ["--out", str(tmp_path / f"optics_{i}.json")]
        )
    check("optics", tmp_path / "optics_1.json", tmp_path / "optics_2.json")

    for i in (1, 2):
        run(
            ["validity", *common, "--saturation", "1.0"]
            + ["--out", str(tmp_path / f"validity_{i}.csv")]
        )
    check("validity", tmp_path / "validity_1.csv", tmp_path / "validity_2.csv")

    for i in (1, 2):
        run(
            ["diffract", *common, "--density", repr(rho), "--paths", "all"]
            + ["--grid-points", "1024", "--box-lambdas", "32", "--steps", "512"]
            + ["--out", str(tmp_path / f"diffract_{i}.csv")]
        )
    check("diffract", tmp_path / "diffract_1.csv", tmp_path / "diffract_2.csv")

    for i in (1, 2):
        run(
            ["propagate", *common, "--grid-points", "4096", "--box-lambdas", "128"]
            + ["--steps", "256", "--snapshots", "1"]
            + ["--out", str(tmp_path / f"prop_{i}")]
        )
    for suffix in ("_state_000000.csv", "_state_000256.csv", "_spectrum.csv", "_report.csv"):
        check(
            f"propagate{suffix}",
            tmp_path / f"prop_1{suffix}",
            tmp_path / f"prop_2{suffix}",
        )

    for i in (1, 2):
        run(
            ["bloch", *common, "--drive-re", "1.0", "--detuning", "0.5"]
            + ["--dt", "0.01", "--steps", "200"]
            + ["--out", str(tmp_path / f"bloch_{i}.csv")]
        )
    check("bloch", tmp_path / "bloch_1.csv", tmp_path / "bloch_2.csv")

    for i, threads in ((1, "1"), (2, "1"), (3, "8")):
        run(
            ["sweep", *common, "--axis", "rho_0"]
            + ["--values", f"0,{rho / 2!r},{rho!r}"]
            + ["--paths", "analytic,numeric", "--q-max", "5"]
            + ["--grid-points", "1024", "--box-lambdas", "32"]
            + ["--threads", threads, "--out", str(tmp_path / f"sweep_{i}.csv")]
        )
    check("sweep rerun", tmp_path / "sweep_1.csv", tmp_path / "sweep_2.csv")
    check("sweep threads 1 vs 8", tmp_path / "sweep_1.csv", tmp_path / "sweep_3.csv")

    ok = not mismatches
    _verdict(
        10,
        ok,
        "byte-identical reruns across optics, validity, diffract, propagate, "
        "bloch and sweep (threads 1 and 8)"
        + ("" if ok else f"; mismatched: {', '.join(mismatches)}"),
    )
    assert not mismatches
