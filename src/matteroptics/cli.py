"""Command-line front end.

One binary, six subcommands:

  optics     medium response and validity numbers at one density
  validity   pass/fail table of the regime checks
  diffract   diffraction orders via any of the three paths
  propagate  full split-step run with state snapshots
  bloch      two-level coherence/inversion trajectory
  sweep      one-axis parameter sweep across the diffraction paths

Every command reads the same flat parameter-file format. Every flag is
defined once in _FLAGS, and _read_args reads a command line in one of
two ways, both from that table. _read_exact takes a plain line: every
flag named whole, every value a token of its own that passes its flag's
type, choices and min, every required flag given. argparse, built and
imported only in _parser, reads every other line (a unique prefix,
--flag=value, "--", -h/--help, --version) and words every usage error.
Both read "-" then a digit or "." as a value, and a repeated flag keeps
its last value.

Each command computes its results once and hands them to _emit, the
one output path; its docstring states the output contract. Exit codes:
0 success, 1 usage or configuration error, 2 physics-guard failure or
flagged points.
"""

from __future__ import annotations

import io
import math
import re
import sys
from types import SimpleNamespace

from . import __version__
from .diffraction import (
    DEFAULT_BOX_LAMBDAS,
    DEFAULT_GRID_POINTS,
    DEFAULT_Z_STEPS,
    commensurate_grid,
    default_q_max,
    diffraction_angles,
    evaluate_routes,
    fitted_box_lambdas,
    order_spacing,
    select_routes,
)
from .errors import (
    ConfigurationError,
    MatterOpticsError,
    NumericsError,
    ParameterError,
    PhysicsGuardError,
)
from .models import (
    ModelKind,
    characteristic_volume,
    regime_checks,
    significant_density,
)
from .optics import local_detuning, medium_response, polarizability
from .propagate import (
    DiffractionPattern,
    PropagationConfig,
    check_q_max,
    init_gaussian,
    momentum_spectrum,
    norm,
    propagate_through_laser,
    write_state_csv,
)
from .serialize import ColumnTable, by_order, csv_num, json_dumps
from .units import ParamFile, convert_dimension, detuning, read_param_file


# Every flag, defined once. A key is the flag itself, or "command --flag"
# for a flag that means something else in that one command. An entry may
# give type (int or float; text otherwise), choices, default, required,
# min (the least value allowed), negatable (a --no-FLAG form sets
# False), metavar and help.
_FLAGS = {
    "--params": dict(metavar="FILE", help="parameter file (key = value)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "--out": dict(metavar="PATH", help="output file (default: stdout)"),
    "--units": dict(
        choices=("si", "cgs"),
        help="unit system of inputs and echoes; overrides the file's declaration",
    ),
    "--threads": dict(type=int, default=1, min=1, help="worker threads for sweep points"),
    "--density": dict(type=float, help="override rho_0 (declared units)"),
    "--saturation": dict(
        type=float,
        help="saturation s for the collision bound (default (rabi_peak/detuning)^2)",
    ),
    "--q-max": dict(type=int, help="highest order (default: auto)"),
    "--grid-points": dict(
        type=int, default=DEFAULT_GRID_POINTS, help="grid size (power of two)"
    ),
    "--box-lambdas": dict(
        type=float, default=DEFAULT_BOX_LAMBDAS,
        help="grid span in effective wavelengths (multiple of 0.5)",
    ),
    "--steps": dict(type=int, default=DEFAULT_Z_STEPS, help="propagator z-steps"),
    "--model": dict(
        choices=[k.value for k in ModelKind], default="full",
        help="effective potential used by the propagator path",
    ),
    "--paths": dict(default="analytic", help="comma list of analytic,numeric,propagator or 'all'"),
    "propagate --box-lambdas": dict(
        type=float, help="grid span in effective wavelengths (default: fits the packet)"
    ),
    "--kinetic": dict(
        negatable=True, default=True,
        help="include the kinetic term (disable for the beam-splitter regime)",
    ),
    "--snapshots": dict(type=int, default=0, help="number of evenly spaced state snapshots"),
    "--drive-re": dict(type=float, default=0.0, help="Re(Omega), rad/s"),
    "--drive-im": dict(type=float, default=0.0, help="Im(Omega), rad/s"),
    "--detuning": dict(type=float, help="rad/s (default: from the parameter file)"),
    "--gamma-l": dict(type=float, default=0.0, help="longitudinal rate, rad/s"),
    "--gamma-t": dict(type=float, default=0.0, help="transverse rate, rad/s"),
    "--dt": dict(type=float, required=True, help="step, s"),
    "bloch --steps": dict(type=int, required=True, help="number of steps"),
    "--w0": dict(type=float, default=-1.0, help="initial inversion"),
    "--r0-re": dict(type=float, default=0.0, help="initial Re(R)"),
    "--r0-im": dict(type=float, default=0.0, help="initial Im(R)"),
    "bloch --density": dict(type=float, help="medium density for the local-field correction"),
    "--local-field": dict(
        negatable=True, default=True,
        help="apply the local-field drive correction when --density is set",
    ),
    "--axis": dict(default="rho_0", help="parameter field to sweep"),
    "--values": dict(help="comma-separated axis values in the declared units"),
    "--start": dict(type=float, help="linear range start (with --stop/--num)"),
    "--stop": dict(type=float, help="linear range stop"),
    "--num": dict(type=int, help="number of points in the linear range"),
}

# Each command: its help line, then its flags in usage order after the
# ones every command takes. Command NAME runs cmd_NAME.
_COMMON = ("--params", "--format", "--out", "--units", "--threads")
_COMMANDS = {
    "optics": ("medium response at one density", "--density", "--saturation"),
    "validity": ("regime checks as a pass/fail table", "--density", "--saturation"),
    "diffract": (
        "beam-splitter diffraction orders",
        "--density", "--paths", "--q-max", "--grid-points", "--box-lambdas",
        "--steps", "--model",
    ),
    "propagate": (
        "split-step run through the laser region",
        "--grid-points", "propagate --box-lambdas", "--steps", "--kinetic", "--model",
        "--snapshots", "--q-max",
    ),
    "bloch": (
        "two-level coherence/inversion trajectory",
        "--drive-re", "--drive-im", "--detuning", "--gamma-l", "--gamma-t", "--dt",
        "bloch --steps", "--w0", "--r0-re", "--r0-im", "bloch --density", "--local-field",
    ),
    "sweep": (
        "one-axis sweep across diffraction paths",
        "--axis", "--values", "--start", "--stop", "--num", "--paths", "--q-max",
        "--grid-points", "--box-lambdas", "--steps",
    ),
}

# ---------------------------------------------------------------- argv reader

_DESCRIPTION = (
    "Medium optics, matter-wave diffraction and Bloch dynamics for a dense\n"
    "two-level gas in laser light."
)
# A token of "-" then a digit or "." is a value, never a flag (argparse
# alone takes only -N and -N.N): the one rule of both readers.
_NUMBER = re.compile(r"-[\d.]")


def _flag_keys(command: str) -> tuple[str, ...]:
    return (*_COMMON, *_COMMANDS[command][1:])


def _exact_map(command: str) -> dict[str, tuple[str, dict, bool | None]]:
    """Each whole option string of command -> (dest, spec, set): set is
    what a switch stores, None for a flag that takes a value."""
    options = {}
    for key in _flag_keys(command):
        flag, spec = key.split()[-1], _FLAGS[key]
        dest = flag[2:].replace("-", "_")
        options[flag] = (dest, spec, True if spec.get("negatable") else None)
        if spec.get("negatable"):
            options[f"--no-{flag[2:]}"] = (dest, spec, False)
    return options


# Built once; _read_exact reads a command line against its command's map alone.
_EXACT = {command: _exact_map(command) for command in _COMMANDS}


def _read_exact(command: str, tokens: list[str]):
    """command's namespace from tokens, or None unless every flag is
    named whole, every value is a token of its own that reads as no flag
    and passes its flag's type, choices and min, and every required flag
    is given. argparse reads the lines this declines, so it gives the
    namespace argparse gives wherever it gives one."""
    options = _EXACT[command]
    values = {dest: spec.get("default") for dest, spec, _ in options.values()}
    i = 0
    while i < len(tokens):
        entry = options.get(tokens[i])
        if entry is None:
            return None
        dest, spec, value = entry
        if value is None:  # the next token is the value
            i += 1
            text = tokens[i] if i < len(tokens) else "-"  # none left: declined below
            if text[:1] == "-" and not _NUMBER.match(text):
                return None
            try:
                value = spec.get("type", str)(text)
            except ValueError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            if "min" in spec and value < spec["min"]:
                return None
        values[dest] = value
        i += 1
    # a required flag has no default, and no value read is None
    if any(spec.get("required") and values[dest] is None for dest, spec, _ in options.values()):
        return None
    return SimpleNamespace(command=command, **values)


def _read_args(argv: list[str]):
    """The namespace of argv's command and flags, or the exit code once
    -h/--help, --version or a usage error has been answered. argparse
    reads every line _read_exact declines; a line that opens with no
    command gives argparse its first token alone, which it can only
    answer or refuse. A usage error prints the usage, then
    "<prog>: error: <message>", and is 1."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is not None:
        args = _read_exact(command, argv[1:])
        if args is not None:
            return args
    tokens = argv[1:] if command else argv[:1]
    parser = _parser(command)
    try:
        return parser.parse_args(tokens, SimpleNamespace(command=command))
    except SystemExit as exc:  # -h, --version or a usage error has answered
        return exc.code


def _parser(command: str | None):
    """An argparse parser of command, or of the program for None, built
    from the tables: -h and the usage line at 78 columns, and the reading
    of every line _read_exact declines. Only here is argparse imported,
    so a line the exact path reads never loads it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NUMBER

        def error(self, message):  # a usage error exits 1, not 2
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

        def _get_values(self, action, arg_strings):
            # Python 3.11 drops the value of --flag=-- and stores []; keep it
            if arg_strings != ["--"] or action.nargs is not None:
                return super()._get_values(action, arg_strings)
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value

    def formatter(prog):
        return argparse.RawDescriptionHelpFormatter(prog, width=78)

    def at_least(kind, least):
        def read(text):
            value = kind(text)
            if value < least:
                raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
            return value

        read.__name__ = kind.__name__  # argparse names it in "invalid int value"
        return read

    program = Parser(prog="matteroptics", description=_DESCRIPTION, formatter_class=formatter)
    program.add_argument(
        "--version", action="version", version=f"matteroptics {__version__}",
        help="show the program's version number and exit",
    )
    commands = program.add_subparsers(title="commands", dest="command", required=True)
    parsers = {None: program}
    for name, (about, *_) in _COMMANDS.items():
        parser = parsers[name] = commands.add_parser(
            name, help=about, description=about, formatter_class=formatter
        )
        for key in _flag_keys(name):
            spec = _FLAGS[key]
            note = (
                " (required)" if spec.get("required")
                else "" if spec.get("default") is None else f" (default: {spec['default']})"
            )
            # only the keys the spec has: BooleanOptionalAction takes no metavar
            # or choices (Python 3.14 refuses them, 3.12-3.13 warn even on None)
            given = {k: v for k, v in spec.items() if k not in ("help", "negatable", "min")}
            if "min" in spec:
                given["type"] = at_least(spec["type"], spec["min"])
            parser.add_argument(
                key.split()[-1], help=spec["help"] + note, **given,
                action=argparse.BooleanOptionalAction if spec.get("negatable") else "store",
            )
    return parsers[command]


# ---------------------------------------------------------------- helpers


def _emit(args, doc, table, path: str | None = None) -> None:
    """Write a command's report: the one output path of every command.

    doc() returns the JSON document, table() the CSV text; only the one
    --format asks for is built. JSON has 17-digit floats and a closing
    `meta` block (tool, version, command, threads); CSV has 9 digits and
    no run metadata. Neither holds a timestamp or a machine identifier,
    so identical configurations write identical bytes. The text goes to
    path, else to --out, else to stdout.
    """
    if args.format == "json":
        meta = {
            "tool": "matteroptics",
            "version": __version__,
            "command": args.command,
            "threads": args.threads,
        }
        text = json_dumps({**doc(), "meta": meta}) + "\n"
    else:
        text = table()
    _write(path or args.out, text)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv(*lines: str) -> str:
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    """One CSV cell: csv_num for a number, empty for None, quoted text."""
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"'
    return "" if value is None else csv_num(value)


def _captured(write, *data) -> str:
    """The text that write(*data, fh) writes to fh."""
    buf = io.StringIO()
    write(*data, buf)
    return buf.getvalue()


def _once(fn, *args):
    """fn(*args), called now, as a function that returns its value, or
    raises its MatterOpticsError, at every call."""
    try:
        value = fn(*args)
    except MatterOpticsError as exc:
        error = exc

        def replay():
            raise error

        return replay
    return lambda: value


def _order_table(angles: dict[int, float], columns: dict[str, DiffractionPattern]):
    """CSV lines q,angle_rad,<one column per pattern>, q ascending."""
    yield "q,angle_rad," + ",".join(columns)
    for q in sorted(angles):
        cells = [str(q), csv_num(angles[q])]
        cells.extend(csv_num(pattern.orders[q]) for pattern in columns.values())
        yield ",".join(cells)


def _load_params(args) -> ParamFile:
    if args.params is None:
        raise ParameterError("--params FILE is required for this command")
    return read_param_file(args.params, units_override=args.units)


def _saturation(args) -> float | None:
    """--saturation, refused outside (0, inf): every collision bound would
    pass at an infinite one, and none has a value at NaN or at s <= 0."""
    s = args.saturation
    if s is not None and not 0.0 < s < math.inf:
        rule = "finite" if math.isinf(s) else "positive"
        raise ParameterError(f"--saturation must be {rule}, got {s!r}")
    return s


# ---------------------------------------------------------------- commands


def cmd_optics(args) -> int:
    pf = _load_params(args)
    p = pf.params
    typed_density = pf.typed.rho_0 if args.density is None else args.density
    density = pf.at("rho_0", typed_density).rho_0
    checks = regime_checks(p, density, _saturation(args))

    def check(name: str) -> float:
        if checks[name].error is not None:
            raise MatterOpticsError(checks[name].error)
        return checks[name].value

    inputs = dict(vars(pf.typed))  # field order
    quantities = {"density": typed_density}
    errors: dict[str, str] = {}
    response = _once(medium_response, p, density)  # chi and n_squared read one bundle
    significant = _once(significant_density, p)
    for name, fn, dimension in (
        ("alpha", lambda: polarizability(p), "volume"),
        ("chi", lambda: response().chi, "dimensionless"),
        ("n_squared", lambda: response().n_squared, "dimensionless"),
        ("local_detuning", lambda: local_detuning(p, density), "frequency"),
        ("v0", lambda: characteristic_volume(p), "volume"),
        ("v0_rho", lambda: characteristic_volume(p) * density, "dimensionless"),
        ("adiabatic_ratio", lambda: check("adiabatic_ratio"), "dimensionless"),
        ("contact_bound", lambda: check("collision_bound"), "dimensionless"),
        ("significant_density_exact", lambda: significant().exact, "density"),
        ("significant_density_scaling", lambda: significant().scaling, "density"),
    ):
        try:
            value = fn()
        except MatterOpticsError as exc:
            errors[name] = str(exc)
        else:
            quantities[name] = (
                value if value is None else convert_dimension(value, dimension, "cgs", pf.units)
            )

    _emit(
        args,
        lambda: {"units": pf.units, "input": inputs, "quantities": quantities, "errors": errors},
        lambda: _csv(
            "quantity,value,error",
            *(f"input_{name},{_cell(value)}," for name, value in inputs.items()),
            *(f"{name},{_cell(value)}," for name, value in quantities.items()),
            *(f"{name},,{_cell(message)}" for name, message in errors.items()),
        ),
    )
    return 2 if errors else 0


def cmd_validity(args) -> int:
    pf = _load_params(args)
    typed_density = pf.typed.rho_0 if args.density is None else args.density
    checks = regime_checks(pf.params, pf.at("rho_0", typed_density).rho_0, _saturation(args))
    all_ok = all(c.ok for c in checks.values())
    _emit(
        args,
        lambda: {
            "units": pf.units,
            "density": typed_density,
            "checks": [{"name": name, **c._asdict()} for name, c in checks.items()],
            "all_ok": all_ok,
        },
        lambda: _csv(
            "check,value,threshold,ok,error",
            *(",".join([name, *map(_cell, c)]) for name, c in checks.items()),
        ),
    )
    return 0 if all_ok else 2


def cmd_diffract(args) -> int:
    pf = _load_params(args)
    p = pf.params if args.density is None else pf.at("rho_0", args.density)
    paths = select_routes(args.paths)
    q_max = args.q_max
    if q_max is None:
        q_max = default_q_max([p], paths, args.grid_points, args.box_lambdas)
    rn, patterns, discrepancy = evaluate_routes(
        p, paths, q_max, args.grid_points, args.box_lambdas, args.steps,
        model=ModelKind(args.model),
    )
    angles = diffraction_angles(p, q_max)
    if len(patterns) == 1:
        discrepancy = None  # nothing to compare a single route with
    v0_rho0 = rn.v0 * p.rho_0
    sums = {name: pattern.total() for name, pattern in patterns.items()}

    _emit(
        args,
        lambda: {
            "tau": rn.tau,
            "g0": rn.g0,
            "v0": convert_dimension(rn.v0, "volume", "cgs", pf.units),
            "v0_rho0": v0_rho0,
            "q_max": q_max,
            "paths": list(patterns),
            "sums": sums,
            "discrepancy": discrepancy,
            "orders": {name: by_order(pattern.orders) for name, pattern in patterns.items()},
            "angles_rad": by_order(angles),
        },
        lambda: _csv(
            f"# tau = {csv_num(rn.tau)}",
            f"# g0 = {csv_num(rn.g0)}",
            f"# v0_rho0 = {csv_num(v0_rho0)}",
            *(f"# sum_{name} = {csv_num(total)}" for name, total in sums.items()),
            *([] if discrepancy is None else [f"# discrepancy = {csv_num(discrepancy)}"]),
            *_order_table(angles, {f"P_{name}": pattern for name, pattern in patterns.items()}),
        ),
    )
    return 0


def cmd_propagate(args) -> int:
    pf = _load_params(args)
    p = pf.params
    if args.out is None:
        raise ConfigurationError("propagate requires --out PREFIX for its output files")
    if args.snapshots < 0:
        raise ConfigurationError(f"--snapshots must be >= 0, got {args.snapshots}")

    box = args.box_lambdas
    if box is None:
        box = fitted_box_lambdas(p, args.grid_points)
    grid = commensurate_grid(p, args.grid_points, box)

    state = init_gaussian(grid, p.rho_0, p.w_y)
    initial_norm = norm(state)
    if initial_norm == 0.0:  # the drift is relative to it
        raise ParameterError(
            f"rho_0 = {p.rho_0!r} is out of range: the packet's norm underflows to 0"
        )

    model = ModelKind(args.model)
    config = PropagationConfig(n_steps=args.steps, kinetic_enabled=args.kinetic, model=model)
    if args.snapshots > args.steps:  # evenly spaced snapshots need distinct steps
        raise ConfigurationError(
            f"--snapshots must not exceed --steps, got --snapshots {args.snapshots} "
            f"> --steps {args.steps}"
        )
    q_max = args.q_max
    if q_max is None:
        q_max = default_q_max([p], ("propagator",), args.grid_points, box)
    check_q_max(grid, order_spacing(p), q_max)  # before any step or file

    snap_at = {
        max(1, round(j * args.steps / args.snapshots)) for j in range(1, args.snapshots + 1)
    }
    written: list[str] = []

    def write_snapshot(tag: str, snap) -> None:
        path = f"{args.out}_state_{tag}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_state_csv(snap, p.rho_0, fh)
        written.append(path)

    if args.snapshots > 0:
        write_snapshot("000000", state)

    def observer(index: int, current) -> None:
        if index in snap_at:
            write_snapshot(f"{index:06d}", current)

    try:
        final = propagate_through_laser(
            state, config, p, observer=observer, observe_steps=snap_at
        )
    except NumericsError as exc:
        good_index, good_state = exc.last_good
        write_snapshot("lastgood", good_state)
        print(
            f"numerics failure: {exc}; last finite state (step {good_index}) "
            f"written to {written[-1]}",
            file=sys.stderr,
        )
        return 2

    final_norm = norm(final)
    pattern = momentum_spectrum(final, order_spacing(p), q_max)
    angles = diffraction_angles(p, q_max)
    scalars = {
        "initial_norm": initial_norm,
        "final_norm": final_norm,
        "norm_drift_rel": abs(final_norm / initial_norm - 1.0),
        "duration_s": final.time - 0.0,
        "n_steps": float(args.steps),
        "grid_points": float(args.grid_points),
        "box_length_cm": grid.length,
        "kinetic": args.kinetic,
        "q_max": float(q_max),
    }

    if args.format == "csv":  # the CSV form keeps the spectrum in a file of its own
        written.append(f"{args.out}_spectrum.csv")
        _write(written[-1], _csv(*_order_table(angles, {"P": pattern})))
    report = f"{args.out}_report.{args.format}"
    _emit(
        args,
        lambda: {
            "scalars": scalars,
            "model": model.value,
            "spectrum": by_order(pattern.orders),
            "angles_rad": by_order(angles),
            "snapshots": written,
        },
        lambda: _csv(
            "quantity,value",
            f"model,{model.value}",
            *(f"{name},{csv_num(value)}" for name, value in scalars.items()),
        ),
        report,
    )
    for path in (*written, report):
        print(f"wrote {path}")
    return 0


def cmd_bloch(args) -> int:
    # imported by the one command that uses it, so no other command loads it
    from .bloch import (
        BlochRates,
        BlochState,
        integrate,
        local_rabi,
        steady_state,
        write_trajectory_csv,
    )

    drive = complex(args.drive_re, args.drive_im)
    pf = _load_params(args) if args.params is not None else None
    if args.detuning is None and pf is None:
        raise ParameterError("provide --detuning or --params to derive it")
    delta = args.detuning if args.detuning is not None else detuning(pf.params)
    if args.density is not None:
        if pf is None:
            raise ParameterError("--density needs --params for the medium constants")
        rho = pf.at("rho_0", args.density).rho_0
        drive = local_rabi(drive, pf.params, rho, corrected=args.local_field)

    rates = BlochRates(gamma_l=args.gamma_l, gamma_t=args.gamma_t)
    # the state's own checks cannot name the flags: check each value for
    # finiteness, then each part of the state alone against its range
    for flag, value in (("--w0", args.w0), ("--r0-re", args.r0_re), ("--r0-im", args.r0_im)):
        if not math.isfinite(value):
            raise ParameterError(f"{flag} must be finite, got {value!r}")
    coherence = complex(args.r0_re, args.r0_im)
    for flags, part in (("--w0", (0j, args.w0)), ("--r0-re/--r0-im", (coherence, 0.0))):
        try:
            BlochState(*part)
        except ParameterError as exc:
            raise ParameterError(f"{flags}: {exc}") from None
    # each part may be in range while the whole lies outside the Bloch
    # sphere; 1e-12 forgives the roundoff of squaring a point on it
    length = args.w0**2 + 4.0 * abs(coherence) ** 2
    if length > 1.0 + 1e-12:
        raise ParameterError(f"--w0/--r0-re/--r0-im: W0^2 + 4|R0|^2 = {length!r} exceeds 1")
    initial = BlochState(coherence=coherence, inversion=args.w0, time=0.0)
    trajectory = integrate(initial, drive, delta, rates, args.dt, args.steps)
    final = trajectory.final

    residual = target = None
    if rates.gamma_l > 0.0 and rates.gamma_t > 0.0:
        target = steady_state(drive, delta, rates)
        residual = max(
            abs(final.coherence - target.coherence),
            abs(final.inversion - target.inversion),
        )

    def doc() -> dict:
        r = trajectory.coherence
        points = ColumnTable(
            {"t_s": trajectory.times, "re_R": r.real, "im_R": r.imag, "W": trajectory.inversion}
        )
        return {
            "detuning": delta,
            "drive": {"re": drive.real, "im": drive.imag},
            "rates": {"gamma_l": rates.gamma_l, "gamma_t": rates.gamma_t},
            "final": {name: float(c[-1]) for name, c in points.columns.items()},
            "steady_state": None if target is None else {
                "re_R": target.coherence.real,
                "im_R": target.coherence.imag,
                "W": target.inversion,
            },
            "steady_state_residual": residual,
            "trajectory": points,
        }

    _emit(args, doc, lambda: _captured(write_trajectory_csv, trajectory))
    if residual is not None and args.format == "csv":  # JSON carries it in the report
        print(f"steady-state residual: {residual:.3e}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    # imported here, at call time, for the same reason as bloch in cmd_bloch
    from .sweep import MAX_SWEEP_POINTS, SweepSpec, run_sweep, sweep_report, write_sweep_csv

    pf = _load_params(args)
    if args.values is not None:
        if args.start is not None or args.stop is not None or args.num is not None:
            raise ParameterError("give either --values or --start/--stop/--num, not both")
        try:
            raw: list[float] = [float(s) for s in args.values.split(",") if s.strip()]
        except ValueError as exc:
            raise ParameterError(f"could not parse --values: {exc}") from None
        flag, count = "--values", len(raw)
    elif args.start is not None and args.stop is not None and args.num is not None:
        if args.num < 1:
            raise ParameterError(f"--num must be >= 1, got {args.num}")
        flag, count = "--num", args.num
    else:
        raise ParameterError("sweep needs --values or all of --start/--stop/--num")
    if count > MAX_SWEEP_POINTS:  # before a --num range is built
        raise ParameterError(
            f"{flag} = {count} sweep points is more than the ceiling of {MAX_SWEEP_POINTS}"
        )
    if flag == "--num":
        raw = [args.start]
        if args.num > 1:
            span = args.stop - args.start
            if math.isinf(span) and math.isfinite(args.start) and math.isfinite(args.stop):
                raise ParameterError(
                    f"the span --stop - --start = {args.stop!r} - {args.start!r} overflows"
                )
            step = span / (args.num - 1)
            raw = [args.start + i * step for i in range(args.num)]

    # the selection is checked here so that a bad one is reported before
    # the spec's own checks; the spec sizes the order range when no --q-max
    spec = SweepSpec(
        base=pf, axis=args.axis, values=raw, paths=select_routes(args.paths),
        q_max=args.q_max, grid_points=args.grid_points, z_steps=args.steps,
        box_lambdas=args.box_lambdas,
    )
    rows = run_sweep(spec, threads=args.threads)
    _emit(args, lambda: sweep_report(spec, rows), lambda: _captured(write_sweep_csv, rows, spec))
    return 0 if all(r.valid() for r in rows) else 2


def main(argv: list[str] | None = None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):  # -h/--help, --version or a usage error
        return args
    try:
        return globals()[f"cmd_{args.command}"](args)
    except PhysicsGuardError as exc:  # first, so a SweepGuardError exits 2
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
