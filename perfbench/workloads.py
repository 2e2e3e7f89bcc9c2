"""Seeded input generator: parameter files and the operation list of one round.

The seed picks densities, phase scales, saturations, Bloch drives and
output formats; the program sees only the parameter files written here
and each operation's argv. Every argv names --grid-points,
--box-lambdas, --steps and --q-max where the command takes them, so a
later change to a default cannot change how much work a workload does.

All inputs stay inside the valid regime (no pole, adiabatic, broad
packet, saturation high enough for the collision bound), so every
operation is expected to exit with code 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# The README's sodium parameter set: about 1 GHz blue of resonance,
# g0 = 2, a 50-wavelength packet.
SODIUM = {
    "mass": 3.8175e-23,
    "dipole": 6.2956e-18,
    "omega_a": 3.198e15,
    "gamma": 6.1e7,
    "scattering_length": 2.75e-7,
    "omega_l": 3.1980062831853e15,
    "rabi_peak": 7.5311e7,
    "k_l": 1.0667e5,
    "harmonic": 1.0,
    "w_l": 2e-3,
    "delta_shift": 0.0,
    "rho_0": 0.0,
    "w_y": 2.9452e-3,
    "v_g": 100.0,
}


# Grids. Bytes are computed from array sizes (16 B per complex sample).
SWEEP_GRID = dict(points=4096, box=128.0, steps=2048, q_max=7)  # 64 KiB per array
DENSE_GRID = dict(points=65536, box=325.0, steps=32, q_max=7)  # 1 MiB per array
SMALL_GRID = dict(points=4096, box=128.0, q_max=7)  # mask-only routes
TINY_PROP = dict(points=4096, box=128.0, steps=16, q_max=7)  # few z-steps
TINY_SNAP = dict(points=1024, box=32.0, steps=8, q_max=7)  # 4-wavelength packet


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checks need to know.

    kind selects the check; ctx carries the oracle inputs (parameter
    dict, densities, grid). points counts diffraction points (sweep
    values, or 1 for a diffract run); grid_steps counts grid point x
    z-step updates of the split-step routes it runs.
    """

    kind: str
    argv: tuple[str, ...]
    ctx: dict = field(default_factory=dict)
    points: int = 0
    grid_steps: int = 0


def _num(x: float) -> str:
    return format(x, ".17g")


def write_params(path: Path, p: dict) -> None:
    lines = ["units = cgs"] + [f"{k} = {_num(v)}" for k, v in p.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _red(p: dict) -> dict:
    """Same atom driven 2 pi GHz below resonance."""
    return dict(p, omega_l=p["omega_a"] - 2.0 * math.pi * 1.0e9)


def _with(p: dict, g0=None, wy_lambdas=None, v0rho=None) -> dict:
    q = dict(p)
    if g0 is not None:
        q["rabi_peak"] = oracle.rabi_for_g0(q, g0)
    if wy_lambdas is not None:
        q["w_y"] = wy_lambdas * oracle.wavelength(q)
    if v0rho is not None:
        q["rho_0"] = v0rho / oracle.v0(q)
    return q


class Round:
    """Collects parameter files and operations for one workload."""

    def __init__(self, work: Path):
        self.work = work
        self.params_dir = work / "params"
        self.params_dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, dict] = {}
        self.ops: list[Op] = []

    def file(self, name: str, p: dict) -> str:
        path = self.params_dir / f"{name}.params"
        write_params(path, p)
        self.files[str(path)] = p
        return str(path)

    def out(self, ext: str = "") -> str:
        """Output path of the next operation, the same in every round."""
        d = self.work / f"op{len(self.ops):03d}"
        d.mkdir(exist_ok=True)
        return str(d / f"out{ext}")

    def add(self, kind, argv, ctx, points=0, grid_steps=0) -> None:
        self.ops.append(Op(kind, tuple(argv) + ("--threads", "1"), ctx, points, grid_steps))

    # -- operation makers -------------------------------------------------

    def diffract(self, pfile, paths, rho, fmt, grid, model="full"):
        p = self.files[pfile]
        argv = ["diffract", "--params", pfile, "--density", _num(rho), "--paths", paths,
                "--format", fmt, "--out", self.out("." + fmt), "--q-max", str(grid["q_max"]),
                "--grid-points", str(grid["points"]), "--box-lambdas", _num(grid["box"]),
                "--steps", str(grid.get("steps", 2048)), "--model", model]
        prop = paths in ("all", "propagator")
        self.add("diffract", argv, dict(p=p, rho=rho, fmt=fmt, grid=grid),
                 points=1, grid_steps=grid["points"] * grid["steps"] if prop else 0)

    def sweep(self, pfile, paths, rhos, fmt, grid):
        p = self.files[pfile]
        argv = ["sweep", "--params", pfile, "--axis", "rho_0",
                "--values", ",".join(_num(r) for r in rhos), "--paths", paths,
                "--format", fmt, "--out", self.out("." + fmt), "--q-max", str(grid["q_max"]),
                "--grid-points", str(grid["points"]), "--box-lambdas", _num(grid["box"]),
                "--steps", str(grid.get("steps", 2048))]
        prop = paths == "all" or "propagator" in paths
        self.add("sweep", argv, dict(p=p, rhos=list(rhos), fmt=fmt, grid=grid),
                 points=len(rhos),
                 grid_steps=len(rhos) * grid["points"] * grid["steps"] if prop else 0)

    def optics(self, pfile, rho, fmt):
        argv = ["optics", "--params", pfile, "--density", _num(rho),
                "--format", fmt, "--out", self.out("." + fmt)]
        self.add("optics", argv, dict(p=self.files[pfile], rho=rho, fmt=fmt))

    def validity(self, pfile, rho, saturation, fmt):
        argv = ["validity", "--params", pfile, "--density", _num(rho),
                "--saturation", _num(saturation), "--format", fmt, "--out", self.out("." + fmt)]
        self.add("validity", argv, dict(p=self.files[pfile], rho=rho, fmt=fmt))

    def bloch(self, rng, damped, fmt, steps, dt=0.02):
        drive = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        delta = rng.uniform(-1.0, 1.0)
        # Damped runs last 16 decay times of the slower rate, so the
        # transient is below e^-16 of its start when the run ends.
        lo = 16.0 / (steps * dt)
        gl, gt = (rng.uniform(lo, 2 * lo), rng.uniform(lo, 2 * lo)) if damped else (0.0, 0.0)
        argv = ["bloch", "--drive-re", _num(drive.real), "--drive-im", _num(drive.imag),
                "--detuning", _num(delta), "--gamma-l", _num(gl), "--gamma-t", _num(gt),
                "--dt", _num(dt), "--steps", str(steps), "--format", fmt, "--out", self.out("." + fmt)]
        self.add("bloch", argv, dict(drive=drive, delta=delta, gamma_l=gl, gamma_t=gt, fmt=fmt))

    def propagate(self, pfile, grid, kinetic, model="full", snapshots=2):
        """JSON report plus snapshots; the first and last feed the checks."""
        argv = ["propagate", "--params", pfile, "--grid-points", str(grid["points"]),
                "--box-lambdas", _num(grid["box"]), "--steps", str(grid["steps"]),
                "--q-max", str(grid["q_max"]), "--snapshots", str(snapshots),
                "--model", model, "--format", "json", "--out", self.out(),
                "--kinetic" if kinetic else "--no-kinetic"]
        self.add("propagate", argv, dict(p=self.files[pfile], kinetic=kinetic, grid=grid),
                 grid_steps=grid["points"] * grid["steps"])


def _x_to_rho(p: dict, x: float) -> float:
    """Peak density at which V0 rho_0 = x."""
    return x / oracle.v0(p)


def three_route_sweep(b: Round, rng: random.Random) -> None:
    """Three three-route sweeps of two densities each and two diffract runs.

    README sodium file (50-wavelength packet, 4096 points, 128-wavelength
    box, 2048 z-steps, q_max 7), blue densities with V0 rho_0 in [0, 0.45].
    One small optics, Bloch and snapshot-writing propagate run ride along
    so that every traced layer runs on every workload. With three short
    runs, two diffract runs and three sweeps per round the median latency
    is a diffract run and the 90th percentile a sweep, each mid-class.
    """
    sod = b.file("sodium", SODIUM)
    bands = (((0.0, 0.15), (0.15, 0.3)), ((0.3, 0.375), (0.375, 0.45)), ((0.05, 0.2), (0.25, 0.45)))
    sweeps = [sorted(_x_to_rho(SODIUM, rng.uniform(lo, hi)) for lo, hi in band) for band in bands]
    xd = rng.uniform(0.1, 0.4)
    rho_d = _x_to_rho(SODIUM, xd)
    tiny = b.file("blue4_dense", _with(SODIUM, wy_lambdas=4.0, v0rho=xd))
    b.sweep(sod, "all", sweeps[0], "json", SWEEP_GRID)
    b.diffract(sod, "all", rho_d, "json", SWEEP_GRID)
    b.optics(sod, rho_d, "json")
    b.sweep(sod, "all", sweeps[1], "csv", SWEEP_GRID)
    b.bloch(rng, damped=True, fmt="csv", steps=500)
    b.diffract(sod, "all", rho_d, "json", SWEEP_GRID)
    b.propagate(tiny, TINY_SNAP, kinetic=True, snapshots=1)
    b.sweep(sod, "all", sweeps[2], "json", SWEEP_GRID)


def interactive_mix(b: Round, rng: random.Random) -> None:
    """A closed-loop mix of short commands on blue and red parameter files.

    No split-step work except one tiny three-route sweep and one tiny
    snapshot run per round, so split-step changes are predicted not to
    move this workload beyond their small share.
    """
    g_blue = rng.uniform(0.6, 1.0)  # tau <= 2 g0 < J0's first zero
    g_red = -rng.uniform(0.25, 0.4)  # |tau| <= 2|g0|/0.6^2 < J0's first zero
    blue16 = _with(SODIUM, g0=g_blue, wy_lambdas=16.0)
    red16 = _with(_red(SODIUM), g0=g_red, wy_lambdas=16.0)
    blue50 = _with(SODIUM, g0=g_blue)
    red50 = _with(_red(SODIUM), g0=g_red)
    files_p = {"blue16": blue16, "red16": red16, "blue50": blue50, "red50": red50}
    files = {n: b.file(n, p) for n, p in files_p.items()}
    xd = rng.uniform(0.1, 0.4)
    tiny = b.file("blue4_dense", _with(blue16, wy_lambdas=4.0, v0rho=xd))

    def draw(name):
        """(file, density) with V0 rho_0 in [0, 0.45] blue or [-0.4, 0] red."""
        x = rng.uniform(0.0, 0.45) if name.startswith("blue") else -rng.uniform(0.0, 0.4)
        return files[name], _x_to_rho(files_p[name], x)

    # 86 short commands, 8 small sweeps and 6 longer runs per round: the
    # median falls among the short commands and the 90th percentile in
    # the middle of the sweeps, away from any class boundary.
    fmts = ("csv", "json")
    for i in range(24):
        name = ("blue50", "red50", "blue16", "red16")[i % 4]
        f, rho = draw(name)
        b.optics(f, rho, fmts[i % 2])
        f, rho = draw(name)
        b.validity(f, rho, rng.uniform(1.0, 2.0), fmts[(i + 1) % 2])
        f, rho = draw(name)
        b.diffract(f, "analytic", rho, fmts[(i // 4) % 2], SMALL_GRID)
        if i < 14:
            f, rho = draw(("blue16", "red16")[i % 2])
            b.diffract(f, "numeric", rho, fmts[(i // 2) % 2], SMALL_GRID)
    for i in range(8):
        name = ("blue16", "red16")[i % 2]
        sign = 1.0 if name == "blue16" else -0.4 / 0.45
        xs = sorted(rng.uniform(0.0, 0.45) for _ in range(4))
        b.sweep(files[name], "analytic,numeric",
                [_x_to_rho(files_p[name], sign * v) for v in xs], fmts[(i // 2) % 2], SMALL_GRID)
    for damped, fmt in ((True, "csv"), (False, "json"), (True, "json"), (False, "csv")):
        b.bloch(rng, damped=damped, fmt=fmt, steps=2000 if damped else 1000)
    b.sweep(files["blue16"], "all", [_x_to_rho(blue16, rng.uniform(0.0, 0.45))], "json", TINY_PROP)
    b.propagate(tiny, TINY_SNAP, kinetic=True, snapshots=1)


def dense_propagation(b: Round, rng: random.Random) -> None:
    """Kinetic-on propagate runs on 2^16 points through all four models.

    A dense blue cloud (V0 rho_0 in [0.15, 0.45]) with snapshots and JSON
    reports, then one kinetic-off dilute run whose spectrum must match
    J_q(2 g0)^2. Small sweep, Bloch and optics runs ride along so that
    every traced layer runs on every workload.
    """
    x = rng.uniform(0.15, 0.45)
    dense = b.file("sodium_dense", _with(SODIUM, v0rho=x))
    dilute = b.file("sodium", SODIUM)
    blue16 = _with(SODIUM, g0=rng.uniform(0.6, 1.0), wy_lambdas=16.0)
    small = b.file("blue16", blue16)
    for model in ("full", "single", "gp", "wallis"):
        b.propagate(dense, DENSE_GRID, kinetic=True, model=model, snapshots=1)
    b.propagate(dilute, DENSE_GRID, kinetic=False, snapshots=1)
    xs = sorted(rng.uniform(0.0, 0.45) for _ in range(4))
    b.sweep(small, "all", [_x_to_rho(blue16, v) for v in xs], "json", TINY_PROP)
    xs = sorted(rng.uniform(0.0, 0.45) for _ in range(4))
    b.sweep(small, "analytic,numeric", [_x_to_rho(blue16, v) for v in xs], "csv", SMALL_GRID)
    b.bloch(rng, damped=True, fmt="csv", steps=500)
    b.optics(dense, _x_to_rho(SODIUM, x), "csv")


_MAKERS = {
    "three_route_sweep": three_route_sweep,
    "interactive_mix": interactive_mix,
    "dense_propagation": dense_propagation,
}
WORKLOADS = tuple(_MAKERS)


def build(workload: str, seed: int, work: Path) -> Round:
    """Write the workload's parameter files under work and list one round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = Round(work)
    _MAKERS[workload](b, random.Random(f"{workload}:{seed}"))
    return b
