"""One-off reference figures: the layer baseline table and a --threads comparison.

    python3 perfbench/reference.py [--repeats 3] [--pairs 3]

Part 1 re-measures the layer table of the project roadmap, best of
--repeats with time.perf_counter, on the README sodium point
(V0 rho_0 = 0.3 where a density is needed).

Part 2 runs the sweep and diffract operations of one three_route_sweep
round (seed 1) with --threads 1 and --threads 2, alternating which goes
first, for --pairs pairs, and prints each side's median op-time sum.
It is not a workload: on a shared two-core machine it measures the
scheduler as much as the program.

Part 3 prints how far the Gauss-Hermite local-density average lies from
the directly evaluated phase mask (oracle.py only, no program code) on
the 16-wavelength packet, 4096-point, 128-wavelength grid of check (c).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def layer_table(repeats: int) -> None:
    import matteroptics as mo
    from matteroptics.bloch import BlochRates, BlochState

    params = mo.PhysicalParams(**workloads.SODIUM)
    dense = replace(params, rho_0=0.3 / oracle.v0(workloads.SODIUM))
    rn = mo.raman_nath_params(dense)
    grid = mo.commensurate_grid(dense, 4096, 128.0)
    spec = mo.SweepSpec(base=params, axis="rho_0",
                        values=tuple(x / oracle.v0(workloads.SODIUM) for x in
                                     (0.0, 0.06, 0.12, 0.18, 0.24, 0.3, 0.36, 0.42)),
                        paths=("analytic", "numeric", "propagator"), q_max=7)
    rows = [
        ("analytic_orders(tau, 7)", lambda: mo.analytic_orders(rn.tau, 7), 1e3, "ms"),
        ("numeric_orders (4096 points)", lambda: mo.numeric_orders(dense, rn, grid, 7), 1e3, "ms"),
        ("propagator_orders (4096 x 2048 steps, kinetic off)",
         lambda: mo.propagator_orders(dense, grid, 7, z_steps=2048), 1.0, "s"),
        ("integrate (1e5 RK4 steps)",
         lambda: mo.integrate(BlochState(0j, -1.0), 1.0, 0.5, BlochRates(0.05, 0.05), 0.01, 100_000),
         1.0, "s"),
        ("bessel_j_sequence(3.7, 40) x 2000",
         lambda: [mo.bessel_j_sequence(3.7, 40) for _ in range(2000)], 1.0, "s"),
        ("run_sweep, 8 points, all paths, threads=1", lambda: mo.run_sweep(spec, threads=1), 1.0, "s"),
        ("run_sweep, 8 points, all paths, threads=4", lambda: mo.run_sweep(spec, threads=4), 1.0, "s"),
    ]
    print(f"layer baseline, best of {repeats}")
    for label, fn, scale, unit in rows:
        print(f"  {label:55s} {best(fn, repeats) * scale:9.3f} {unit}")


def threads_comparison(pairs: int) -> None:
    import matteroptics.cli as cli

    work = HERE / "out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    ops = [op for op in workloads.build("three_route_sweep", 1, work).ops
           if op.kind in ("sweep", "diffract")]

    def round_time(threads: int) -> float:
        total = 0.0
        for op in ops:
            argv = list(op.argv)
            argv[argv.index("--threads") + 1] = str(threads)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                total += time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"{argv[0]} exited with {rc}")
        return total

    times = {1: [], 2: []}
    for k in range(pairs):
        for threads in ((1, 2) if k % 2 == 0 else (2, 1)):
            times[threads].append(round_time(threads))
    shutil.rmtree(work, ignore_errors=True)
    print(f"three_route_sweep sweep+diffract list, {pairs} alternating pairs")
    for threads, ts in times.items():
        print(f"  --threads {threads}: median {statistics.median(ts):.3f} s "
              f"(runs {', '.join(f'{t:.3f}' for t in ts)})")


def oracle_gaps() -> None:
    print("local-density average vs direct phase mask, 16-wavelength packet")
    blue, red = workloads.SODIUM, workloads._red(workloads.SODIUM)
    for g0, base, xs in ((2.0, blue, (0.0, 0.15, 0.3, 0.45)), (0.6, blue, (0.0, 0.45)),
                         (1.0, blue, (0.0, 0.45)), (-2.0, red, (-0.1, -0.3)),
                         (-0.4, red, (-0.4,))):
        p = workloads._with(base, g0=g0, wy_lambdas=16.0)
        for x in xs:
            rho = x / oracle.v0(p)
            gap = oracle.max_gap(oracle.lda_orders(p, rho, 7), oracle.mask_orders(p, rho, 4096, 128.0, 7))
            print(f"  g0 = {g0:5.2f}  V0 rho0 = {x:5.2f}  max |dP| = {gap:.2e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args(argv)
    layer_table(args.repeats)
    threads_comparison(args.pairs)
    oracle_gaps()
    return 0


if __name__ == "__main__":
    sys.exit(main())
