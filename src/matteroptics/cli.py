"""Command-line front end.

One binary, six subcommands:

  optics     medium response and validity numbers at one density
  validity   pass/fail table of the regime checks
  diffract   diffraction orders via any of the three paths
  propagate  full split-step run with state snapshots
  bloch      two-level coherence/inversion trajectory
  sweep      one-axis parameter sweep across the diffraction paths

Every command reads the same flat parameter-file format, understands
--format csv|json, and writes byte-identical output for identical
configurations: no timestamps, no machine identifiers, run metadata
confined to the JSON `meta` block. Exit codes: 0 success, 1 usage or
configuration error, 2 physics-guard failure or flagged points.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bloch import (
    BlochRates,
    BlochState,
    integrate,
    local_rabi,
    steady_state,
    write_trajectory_csv,
)
from .diffraction import (
    DEFAULT_BOX_LAMBDAS,
    DEFAULT_GRID_POINTS,
    DEFAULT_Z_STEPS,
    ROUTES,
    commensurate_grid,
    default_q_max,
    diffraction_angles,
    effective_wavelength,
    evaluate_routes,
    order_spacing,
)
from .errors import (
    ConfigurationError,
    MatterOpticsError,
    NumericsError,
    ParameterError,
    PhysicsGuardError,
    SweepError,
)
from .models import (
    ModelKind,
    RegimeCheck,
    characteristic_volume,
    regime_checks,
    significant_density,
)
from .optics import (
    COLLISION_BOUND_MIN,
    adiabatic_validity,
    contact_interaction_bound,
    local_detuning,
    medium_response,
    polarizability,
)
from . import propagate
from .propagate import (
    PropagationConfig,
    init_gaussian,
    momentum_spectrum,
    norm,
    propagate_through_laser,
    write_state_csv,
)
from .serialize import csv_num, json_dumps
from .sweep import SweepSpec, run_sweep, sweep_report, write_sweep_csv
from .units import (
    ParamFile,
    convert_field,
    detuning,
    params_to_system,
    read_param_file,
)

_CM3_TO_M3 = 1.0e-6  # volume factor for si-system echoes of alpha and V0


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", metavar="FILE", help="parameter file (key = value)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    sub.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    sub.add_argument(
        "--units",
        choices=("si", "cgs"),
        help="unit system of inputs and echoes; overrides the file's declaration",
    )
    sub.add_argument(
        "--threads", type=int, default=1, help="worker threads for sweep points"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matteroptics",
        description="Medium optics, matter-wave diffraction and Bloch dynamics "
        "for a dense two-level gas in laser light.",
    )
    parser.add_argument("--version", action="version", version=f"matteroptics {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("optics", help="medium response at one density")
    _add_common(p)
    p.add_argument("--density", type=float, help="override rho_0 (declared units)")
    p.add_argument(
        "--saturation",
        type=float,
        help="saturation s for the collision bound (default (rabi_peak/detuning)^2)",
    )
    p.set_defaults(func=cmd_optics)

    p = subs.add_parser("validity", help="regime checks as a pass/fail table")
    _add_common(p)
    p.add_argument("--density", type=float, help="override rho_0 (declared units)")
    p.add_argument("--saturation", type=float, help="saturation s (default from params)")
    p.set_defaults(func=cmd_validity)

    p = subs.add_parser("diffract", help="beam-splitter diffraction orders")
    _add_common(p)
    p.add_argument("--density", type=float, help="override rho_0 (declared units)")
    p.add_argument(
        "--paths",
        choices=(*ROUTES, "all"),
        default="analytic",
        help="which evaluation paths to run",
    )
    p.add_argument("--q-max", type=int, help="highest order (default: auto)")
    p.add_argument(
        "--grid-points", type=int, default=DEFAULT_GRID_POINTS, help="grid size (power of two)"
    )
    p.add_argument(
        "--box-lambdas",
        type=float,
        default=DEFAULT_BOX_LAMBDAS,
        help="grid span in effective wavelengths (multiple of 0.5)",
    )
    p.add_argument("--steps", type=int, default=DEFAULT_Z_STEPS, help="propagator z-steps")
    p.add_argument(
        "--model",
        choices=[k.value for k in ModelKind],
        default="full",
        help="effective potential used by the propagator path",
    )
    p.set_defaults(func=cmd_diffract)

    p = subs.add_parser("propagate", help="split-step run through the laser region")
    _add_common(p)
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument(
        "--box-lambdas",
        type=float,
        help="grid span in effective wavelengths (default: fits the packet)",
    )
    p.add_argument(
        "--steps", type=int, default=DEFAULT_Z_STEPS, help="time steps across the region"
    )
    p.add_argument(
        "--kinetic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include the kinetic term (disable for the beam-splitter regime)",
    )
    p.add_argument(
        "--model", choices=[k.value for k in ModelKind], default="full"
    )
    p.add_argument(
        "--area", type=float, help="transverse area, cm^2 (default 1.0; rho_0=0 runs dilute)"
    )
    p.add_argument(
        "--snapshots", type=int, default=0, help="number of evenly spaced state snapshots"
    )
    p.add_argument("--q-max", type=int, help="orders in the final spectrum (default: auto)")
    p.set_defaults(func=cmd_propagate)

    p = subs.add_parser("bloch", help="two-level coherence/inversion trajectory")
    _add_common(p)
    p.add_argument("--drive-re", type=float, default=0.0, help="Re(Omega), rad/s")
    p.add_argument("--drive-im", type=float, default=0.0, help="Im(Omega), rad/s")
    p.add_argument(
        "--detuning", type=float, help="rad/s (default: from the parameter file)"
    )
    p.add_argument("--gamma-l", type=float, default=0.0, help="longitudinal rate, rad/s")
    p.add_argument("--gamma-t", type=float, default=0.0, help="transverse rate, rad/s")
    p.add_argument("--dt", type=float, required=True, help="step, s")
    p.add_argument("--steps", type=int, required=True, help="number of steps")
    p.add_argument("--w0", type=float, default=-1.0, help="initial inversion")
    p.add_argument("--r0-re", type=float, default=0.0, help="initial Re(R)")
    p.add_argument("--r0-im", type=float, default=0.0, help="initial Im(R)")
    p.add_argument(
        "--density", type=float, help="medium density for the local-field correction"
    )
    p.add_argument(
        "--local-field",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="apply the local-field drive correction when --density is set",
    )
    p.set_defaults(func=cmd_bloch)

    p = subs.add_parser("sweep", help="one-axis sweep across diffraction paths")
    _add_common(p)
    p.add_argument("--axis", default="rho_0", help="parameter field to sweep")
    p.add_argument(
        "--values", help="comma-separated axis values in the declared units"
    )
    p.add_argument("--start", type=float, help="linear range start (with --stop/--num)")
    p.add_argument("--stop", type=float, help="linear range stop")
    p.add_argument("--num", type=int, help="number of points in the linear range")
    p.add_argument(
        "--paths", default="analytic", help="comma list of analytic,numeric,propagator or 'all'"
    )
    p.add_argument("--q-max", type=int, help="highest order (default: auto)")
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--box-lambdas", type=float, default=DEFAULT_BOX_LAMBDAS)
    p.add_argument("--steps", type=int, default=DEFAULT_Z_STEPS, help="propagator z-steps")
    p.set_defaults(func=cmd_sweep)

    return parser


# ---------------------------------------------------------------- helpers


def _load_params(args) -> ParamFile:
    if args.params is None:
        raise ParameterError("--params FILE is required for this command")
    return read_param_file(args.params, units_override=args.units)


def _meta(args, command: str) -> dict:
    # No timestamps and no host identifiers: identical configurations
    # must produce identical bytes. Tests ignore this block.
    return {
        "tool": "matteroptics",
        "version": __version__,
        "command": command,
        "threads": args.threads,
    }


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _echo_rows(pf: ParamFile) -> list[tuple[str, float]]:
    system = pf.units
    return [(f"input_{k}", v) for k, v in params_to_system(pf.params, system).items()]


def _density_from_args(args, pf: ParamFile) -> float:
    if args.density is None:
        return pf.params.rho_0
    return convert_field(args.density, "rho_0", pf.units, "cgs")


def _default_saturation(args, pf: ParamFile) -> float:
    if args.saturation is not None:
        return args.saturation
    delta = detuning(pf.params)
    if delta == 0.0:
        raise ParameterError(
            "cannot derive the default saturation at zero detuning; pass --saturation"
        )
    return (pf.params.rabi_peak / delta) ** 2


def _kv_csv(rows: list[tuple[str, object]], errors: dict[str, str]) -> str:
    lines = ["quantity,value,error"]
    for name, value in rows:
        lines.append(f"{name},{csv_num(value) if value is not None else ''},")
    for name, message in errors.items():
        safe = message.replace('"', '""')
        lines.append(f'{name},,"{safe}"')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def cmd_optics(args) -> int:
    pf = _load_params(args)
    p = pf.params
    density = _density_from_args(args, pf)
    si = pf.units == "si"
    vol = _CM3_TO_M3 if si else 1.0
    dens = 1.0 / _CM3_TO_M3 if si else 1.0

    rows: list[tuple[str, object]] = _echo_rows(pf)
    rows.append(("density", density * dens))
    errors: dict[str, str] = {}

    def compute(name, fn, scale=1.0):
        try:
            value = fn()
            rows.append((name, value if value is None else value * scale))
        except MatterOpticsError as exc:
            errors[name] = str(exc)

    compute("alpha", lambda: polarizability(p), vol)
    compute("chi", lambda: medium_response(p, density).chi)
    compute("n_squared", lambda: medium_response(p, density).n_squared)
    compute("local_detuning", lambda: local_detuning(p, density))
    compute("v0", lambda: characteristic_volume(p), vol)
    compute("v0_rho", lambda: characteristic_volume(p) * density)
    compute("adiabatic_ratio", lambda: adiabatic_validity(p, density))
    compute(
        "contact_bound",
        lambda: contact_interaction_bound(_default_saturation(args, pf), p),
    )

    def sig(which):
        def get():
            s = significant_density(p)
            value = getattr(s, which)
            return value if value is None else value * dens
        return get

    compute("significant_density_exact", sig("exact"))
    compute("significant_density_scaling", sig("scaling"))

    if args.format == "json":
        quantities = {name: value for name, value in rows if not name.startswith("input_")}
        report = {
            "units": pf.units,
            "input": params_to_system(p, pf.units),
            "quantities": quantities,
            "errors": errors,
            "meta": _meta(args, "optics"),
        }
        _emit(json_dumps(report) + "\n", args)
    else:
        _emit(_kv_csv(rows, errors), args)
    return 2 if errors else 0


def cmd_validity(args) -> int:
    pf = _load_params(args)
    p = pf.params
    density = _density_from_args(args, pf)

    checks = regime_checks(p, density)
    checks["collision_bound"] = RegimeCheck.evaluate(
        COLLISION_BOUND_MIN,
        lambda: contact_interaction_bound(_default_saturation(args, pf), p),
    )

    all_ok = all(c.ok for c in checks.values())
    if args.format == "json":
        report = {
            "units": pf.units,
            "density": density if pf.units == "cgs" else density / _CM3_TO_M3,
            "checks": [{"name": name, **c._asdict()} for name, c in checks.items()],
            "all_ok": all_ok,
            "meta": _meta(args, "validity"),
        }
        _emit(json_dumps(report) + "\n", args)
    else:
        lines = ["check,value,threshold,ok,error"]
        for name, (value, threshold, ok, err) in checks.items():
            cell = csv_num(value) if value is not None else ""
            safe = f'"{err.replace(chr(34), chr(34) * 2)}"' if err else ""
            lines.append(
                f"{name},{cell},{csv_num(threshold)},{csv_num(ok)},{safe}"
            )
        _emit("\n".join(lines) + "\n", args)
    return 0 if all_ok else 2


def _selected_paths(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return ROUTES
    parts = tuple(s.strip() for s in raw.split(",") if s.strip())
    bad = [s for s in parts if s not in ROUTES]
    if bad or not parts:
        raise ParameterError(
            f"invalid path selection {raw!r}; use {', '.join(ROUTES)} or all"
        )
    return parts


def cmd_diffract(args) -> int:
    pf = _load_params(args)
    p = pf.params
    density = _density_from_args(args, pf)
    if density != p.rho_0:
        p = replace(p, rho_0=density)
    paths = _selected_paths(args.paths)
    q_max = args.q_max
    if q_max is None:
        q_max = default_q_max(p, paths, args.grid_points, args.box_lambdas)
    rn, patterns, discrepancy = evaluate_routes(
        p, paths, q_max, args.grid_points, args.box_lambdas, args.steps,
        model=ModelKind.from_name(args.model),
    )
    angles = diffraction_angles(p, q_max)
    names = list(patterns)
    if len(names) == 1:
        discrepancy = None  # nothing to compare a single route with

    if args.format == "json":
        report = {
            "tau": rn.tau,
            "g0": rn.g0,
            "v0": rn.v0,
            "v0_rho0": rn.v0 * p.rho_0,
            "q_max": q_max,
            "paths": names,
            "sums": {n: patterns[n].total() for n in names},
            "discrepancy": discrepancy,
            "orders": {
                n: {str(q): patterns[n].orders[q] for q in range(-q_max, q_max + 1)}
                for n in names
            },
            "angles_rad": {str(q): angles[q] for q in range(-q_max, q_max + 1)},
            "meta": _meta(args, "diffract"),
        }
        _emit(json_dumps(report) + "\n", args)
    else:
        lines = [
            f"# tau = {csv_num(rn.tau)}",
            f"# g0 = {csv_num(rn.g0)}",
            f"# v0_rho0 = {csv_num(rn.v0 * p.rho_0)}",
        ]
        for n in names:
            lines.append(f"# sum_{n} = {csv_num(patterns[n].total())}")
        if discrepancy is not None:
            lines.append(f"# discrepancy = {csv_num(discrepancy)}")
        lines.append("q,angle_rad," + ",".join(f"P_{n}" for n in names))
        for q in range(-q_max, q_max + 1):
            cells = [str(q), csv_num(angles[q])]
            cells.extend(csv_num(patterns[n].orders[q]) for n in names)
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_propagate(args) -> int:
    pf = _load_params(args)
    p = pf.params
    if args.out is None:
        raise ConfigurationError("propagate requires --out PREFIX for its output files")
    if args.snapshots < 0:
        raise ConfigurationError(f"--snapshots must be >= 0, got {args.snapshots}")

    lam = effective_wavelength(p)
    box = args.box_lambdas
    if box is None:
        # smallest half-period multiple spanning 6.5 w_y: the packet
        # clears the w_y < length/6 guard, and |psi|^2 at the box edge
        # is at most e^-10.6 of its peak
        box = max(DEFAULT_BOX_LAMBDAS, 0.5 * math.ceil(13.0 * p.w_y / lam))
    grid = commensurate_grid(p, args.grid_points, box)

    if args.area is None:
        area = math.inf if p.rho_0 == 0.0 else 1.0
    else:
        area = args.area
    state = init_gaussian(grid, p.rho_0, p.w_y, area)
    initial_norm = norm(state)

    model = ModelKind.from_name(args.model)
    config = PropagationConfig(
        dt=None,
        n_steps=args.steps,
        kinetic_enabled=args.kinetic,
        model=model,
        transverse_area=area,
    )

    snap_at = set()
    if args.snapshots > 0:
        snap_at = {
            max(1, round(j * args.steps / args.snapshots))
            for j in range(1, args.snapshots + 1)
        }

    written: list[str] = []

    def snapshot_path(index: int) -> str:
        return f"{args.out}_state_{index:06d}.csv"

    def write_snapshot(index: int, snap) -> None:
        # A field that turned non-finite between the propagator's finite
        # checks takes the rescue path below instead of reaching a file.
        if not np.isfinite(snap.amplitude).all():
            raise NumericsError(
                f"non-finite amplitude at snapshot step {index} (t = {snap.time!r} s)",
                step=index,
                time=snap.time,
            )
        path = snapshot_path(index)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_state_csv(snap, area, fh)
        written.append(path)

    if args.snapshots > 0:
        write_snapshot(0, state)
    last_good = {"index": 0, "state": state}

    def observer(index: int, current) -> None:
        # survived the propagator's finite check (read at call time, so
        # the two can never disagree)
        if index % propagate._FINITE_CHECK_INTERVAL == 0:
            last_good["index"] = index
            last_good["state"] = current
        if index in snap_at:
            write_snapshot(index, current)

    try:
        final = propagate_through_laser(state, config, p, observer=observer)
    except NumericsError as exc:
        rescue = f"{args.out}_state_lastgood.csv"
        with open(rescue, "w", encoding="utf-8", newline="") as fh:
            write_state_csv(last_good["state"], area, fh)
        print(
            f"numerics failure: {exc}; last finite state (step {last_good['index']}) "
            f"written to {rescue}",
            file=sys.stderr,
        )
        return 2

    final_norm = norm(final)
    drift = abs(final_norm / initial_norm - 1.0)
    q_max = args.q_max
    if q_max is None:
        q_max = default_q_max(p, ("propagator",), args.grid_points, box)
    pattern = momentum_spectrum(final, order_spacing(p), q_max)
    angles = diffraction_angles(p, q_max)

    scalars = [
        ("initial_norm", initial_norm),
        ("final_norm", final_norm),
        ("norm_drift_rel", drift),
        ("duration_s", final.time - 0.0),
        ("n_steps", float(args.steps)),
        ("grid_points", float(args.grid_points)),
        ("box_length_cm", grid.length),
        ("kinetic", args.kinetic),
        ("q_max", float(q_max)),
    ]

    if args.format == "json":
        report = {
            "scalars": {k: v for k, v in scalars},
            "model": model.value,
            "spectrum": {str(q): pattern.orders[q] for q in range(-q_max, q_max + 1)},
            "angles_rad": {str(q): angles[q] for q in range(-q_max, q_max + 1)},
            "snapshots": written,
            "meta": _meta(args, "propagate"),
        }
        path = f"{args.out}_report.json"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json_dumps(report) + "\n")
    else:
        path = f"{args.out}_report.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            lines = ["quantity,value"]
            lines.append(f"model,{model.value}")
            lines.extend(f"{k},{csv_num(v)}" for k, v in scalars)
            fh.write("\n".join(lines) + "\n")
        spec_path = f"{args.out}_spectrum.csv"
        with open(spec_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("q,angle_rad,P\n")
            for q in range(-q_max, q_max + 1):
                fh.write(f"{q},{csv_num(angles[q])},{csv_num(pattern.orders[q])}\n")
        written.append(spec_path)
    written.append(path)
    for w in written:
        print(f"wrote {w}")
    return 0


def cmd_bloch(args) -> int:
    drive = complex(args.drive_re, args.drive_im)
    pf = None
    if args.params is not None and (args.detuning is None or args.density is not None):
        pf = _load_params(args)
    if args.detuning is None and pf is None:
        raise ParameterError("provide --detuning or --params to derive it")
    delta = args.detuning if args.detuning is not None else detuning(pf.params)
    if args.density is not None:
        if pf is None:
            raise ParameterError("--density needs --params for the medium constants")
        rho = convert_field(args.density, "rho_0", pf.units, "cgs")
        drive = local_rabi(drive, pf.params, rho, corrected=args.local_field)

    rates = BlochRates(gamma_l=args.gamma_l, gamma_t=args.gamma_t)
    initial = BlochState(
        coherence=complex(args.r0_re, args.r0_im), inversion=args.w0, time=0.0
    )
    trajectory = integrate(initial, drive, delta, rates, args.dt, args.steps)
    final = trajectory[-1]

    residual = None
    target = None
    if rates.gamma_l > 0.0 and rates.gamma_t > 0.0:
        target = steady_state(drive, delta, rates)
        residual = max(
            abs(final.coherence - target.coherence),
            abs(final.inversion - target.inversion),
        )

    if args.format == "json":
        report = {
            "detuning": delta,
            "drive": {"re": drive.real, "im": drive.imag},
            "rates": {"gamma_l": rates.gamma_l, "gamma_t": rates.gamma_t},
            "final": {
                "t_s": final.time,
                "re_R": final.coherence.real,
                "im_R": final.coherence.imag,
                "W": final.inversion,
            },
            "steady_state": None
            if target is None
            else {
                "re_R": target.coherence.real,
                "im_R": target.coherence.imag,
                "W": target.inversion,
            },
            "steady_state_residual": residual,
            "trajectory": [
                {
                    "t_s": s.time,
                    "re_R": s.coherence.real,
                    "im_R": s.coherence.imag,
                    "W": s.inversion,
                }
                for s in trajectory
            ],
            "meta": _meta(args, "bloch"),
        }
        _emit(json_dumps(report) + "\n", args)
    else:
        buf = io.StringIO()
        write_trajectory_csv(trajectory, buf)
        _emit(buf.getvalue(), args)
        if residual is not None:
            print(f"steady-state residual: {residual:.3e}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    pf = _load_params(args)
    if args.values is not None:
        if args.start is not None or args.stop is not None or args.num is not None:
            raise ParameterError("give either --values or --start/--stop/--num, not both")
        try:
            raw: list[float] = [float(s) for s in args.values.split(",") if s.strip()]
        except ValueError as exc:
            raise ParameterError(f"could not parse --values: {exc}") from None
    elif args.start is not None and args.stop is not None and args.num is not None:
        if args.num < 1:
            raise ParameterError(f"--num must be >= 1, got {args.num}")
        if args.num == 1:
            raw = [args.start]
        else:
            step = (args.stop - args.start) / (args.num - 1)
            raw = [args.start + i * step for i in range(args.num)]
    else:
        raise ParameterError("sweep needs --values or all of --start/--stop/--num")
    values = [convert_field(v, args.axis, pf.units, "cgs") for v in raw]

    paths = _selected_paths(args.paths)
    q_max = args.q_max
    if q_max is None:
        q_max = default_q_max(pf.params, paths, args.grid_points, args.box_lambdas)

    spec = SweepSpec(
        base=pf.params,
        axis=args.axis,
        values=tuple(values),
        paths=paths,
        q_max=q_max,
        grid_points=args.grid_points,
        z_steps=args.steps,
        box_lambdas=args.box_lambdas,
    )
    rows = run_sweep(spec, threads=args.threads)

    if args.format == "json":
        report = sweep_report(spec, rows, _meta(args, "sweep"))
        _emit(json_dumps(report) + "\n", args)
    else:
        buf = io.StringIO()
        write_sweep_csv(rows, spec, buf)
        _emit(buf.getvalue(), args)
    return 0 if all(r.valid() for r in rows) else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use and shared: parse_args leaves the parser as it
    # found it, and building it costs far more than one parse.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or usage error (1)
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (ParameterError, ConfigurationError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PhysicsGuardError as exc:
        print(f"physics guard: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerics failure: {exc}", file=sys.stderr)
        return 2
    except MatterOpticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
