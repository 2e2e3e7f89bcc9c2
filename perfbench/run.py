"""Run one benchmark workload of the matteroptics command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a plain checkout: the package is imported from
src/ with no install step. Each operation is one in-process call of
matteroptics.cli.main(argv), a closed loop with one client and
--threads 1. The run repeats whole rounds of the workload's operation
list until the next round would end past --seconds, checks every
output (checks.py), and prints the metrics as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The first round warms caches and lazy imports and is left out of the
timings; its operations are checked and counted like all others. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 traced
and untraced rounds alternate after it, the per-layer metrics come from
the traced rounds' spans, and trace.overhead_s is the difference of the
two kinds' median round times. Spans are written to
perfbench/out/trace-<workload>.jsonl.

Timings are reported at a fixed reference machine speed (see SpeedProbe):
on a shared host the same code runs up to twice as slow while neighbours
are busy, and that swing is no property of the program.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_FIRST = 5  # fresh-interpreter samples before the first round
SETUP_SPACING_S = 2.5  # then one after any round that ends this long after the last
# Runs in a fresh interpreter. numpy, which the package needs and does
# not own, is imported first; the package import and the parsing of the
# parameter files are timed there, in the process that does them.
SETUP_CODE = """
import sys, time
import numpy
src, files = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
sys.path.insert(0, src)
import matteroptics
from matteroptics.units import read_param_file
for path in files:
    read_param_file(path)
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sweep_points_per_s": "points/s",
    "grid_steps_per_s": "point-steps/s",
    "cli_calls_per_s": "calls/s",
}

# Per-layer measures of each traced span name, per round:
#   calls           spans
#   self_ms         duration net of child spans
#   <count>         the span's work count (grid points, steps, bytes, ...)
#   ns/us per unit  inclusive duration over calls or over the work count
PER_LAYER = {
    "propagate.step": ("calls", "self_ms", "grid_point_steps", "ns_per_point_step"),
    "propagate.laser_profile": ("calls", "self_ms"),
    "models.effective_potential": ("calls", "self_ms"),
    "propagate.propagate_through_laser": ("calls", "self_ms"),
    "propagate.write_state_csv": ("calls", "self_ms", "bytes", "mb_per_s"),
    "propagate.momentum_spectrum": ("calls", "self_ms"),
    "diffraction.analytic_orders": ("calls", "self_ms"),
    "diffraction.numeric_orders": ("calls", "self_ms"),
    "diffraction.propagator_orders": ("calls", "self_ms"),
    "bessel.bessel_j_sequence": ("calls", "us_per_call"),
    "bloch.integrate": ("calls", "steps", "us_per_step"),
    "bloch.write_trajectory_csv": ("self_ms", "bytes"),
    "sweep.run_sweep": ("calls", "points", "self_ms"),
    "sweep.write_sweep_csv": ("calls", "self_ms", "bytes"),
    "sweep.sweep_report": ("calls", "self_ms"),
    "serialize.json_dumps": ("calls", "self_ms", "bytes"),
    "units.read_param_file": ("calls", "self_ms"),
    "optics.medium_response": ("calls", "self_ms"),
    "models.raman_nath_params": ("calls", "self_ms"),
    "cli.main": ("calls", "self_ms"),
}
MEASURE_UNITS = {
    "calls": "count", "self_ms": "ms", "grid_point_steps": "count", "bytes": "bytes",
    "steps": "count", "points": "count", "ns_per_point_step": "ns", "mb_per_s": "MB/s",
    "us_per_call": "us", "us_per_step": "us",
}


class SpeedProbe:
    """Machine speed from a fixed numpy kernel, sampled through the run.

    The kernel does what a split step does on a 4096-point grid: cos^2,
    a complex exponential, a forward and inverse FFT and |psi|^2, and it
    shares no code with the program. It is timed between operations at
    least every SAMPLE_INTERVAL_S and, when `inside` is set, also from an
    interval timer while an operation runs; the time spent in samples
    taken inside an operation is taken out of that operation's time.
    An operation's time is scaled by NOMINAL_S / c, with c the mean
    kernel time of the samples taken during it and of the nearest sample
    on each side, so a slow spell of the host cancels while a change in
    the program does not. NOMINAL_S is the kernel's time on an idle core
    of the 2-core Xeon host the bounds were set on. Traced runs sample
    between operations only, so no sample lands inside a span.
    """

    NOMINAL_S = 1.3e-3
    SAMPLE_INTERVAL_S = 0.1

    def __init__(self, inside: bool):
        self.inside = inside
        self.y = np.linspace(-1.0, 1.0, 4096)
        self.psi = np.exp(-self.y * self.y).astype(np.complex128)
        self.times: list[float] = []
        self.costs: list[float] = []
        self.excluded = 0.0

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(4):
            phase = 3.0 * np.cos(50.0 * self.y) ** 2
            psi = self.psi * np.exp(-0.5j * phase)
            psi = np.fft.ifft(np.fft.fft(psi) * np.exp(-0.1j * self.y))
            acc += float(np.sum(np.abs(psi) ** 2))
        return acc

    def sample(self) -> None:
        t_in = time.perf_counter()
        self._kernel()  # refill the caches the program evicted
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.costs.append(t1 - t0)
        self.excluded += t1 - t_in

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.SAMPLE_INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def operation(self):
        """Sample from an interval timer inside the enclosed operation (when
        `inside` is set); `excluded` then holds the seconds those samples took."""
        self.excluded = 0.0
        if not self.inside:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return self.NOMINAL_S / statistics.fmean(self.costs[first:last + 1])

    def median_factor(self) -> float:
        return self.NOMINAL_S / statistics.median(self.costs)


def time_setup(param_files: list[str]) -> float:
    """Wall time for a fresh interpreter to import the package and parse the
    workload's parameter files: the start-up every CLI call pays beyond the
    interpreter and numpy. Not scaled by the speed probe, which does not
    track it (import is file mapping and unmarshalling rather than the
    probe's arithmetic)."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *param_files],
                          check=True, cwd=ROOT, capture_output=True, text=True)
    return float(proc.stdout)


def _out_dir(op) -> Path:
    return checks.output_path(op).parent


def _digest(op, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(_out_dir(op).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs rounds of one operation list and keeps what the metrics need.

    An operation fails when its exit code is not 0, when its output
    bytes differ from the first round's (criterion 10: identical inputs
    give identical files, traced or not), or when a check rejects them.
    Verdicts are cached by output digest, since equal bytes get equal
    verdicts.
    """

    def __init__(self, cli, ops, probe: SpeedProbe):
        self.cli = cli
        self.ops = ops
        self.probe = probe
        self.spans: list[list[tuple[float, float, float]]] = []  # start, end, probe time
        self.failed = 0
        self.first_digest: list[str | None] = [None] * len(ops)
        self.verdicts: dict[str, list[str]] = {}
        self.failures: list[str] = []
        self.diagnostics: list = []

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.spans)

    def run_round(self, on_op=None) -> None:
        first = not self.spans
        spans: list[tuple[float, float, float]] = []
        self.spans.append(spans)
        for i, op in enumerate(self.ops):
            for path in _out_dir(op).iterdir():
                path.unlink()
            gc.collect()  # start each call on a clean heap, as a fresh process would
            if on_op is not None:
                on_op(self.attempted)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with self.probe.operation():
                    t0 = time.perf_counter()
                    rc = self.cli.main(list(op.argv))
                    t1 = time.perf_counter()
            spans.append((t0, t1, self.probe.excluded))
            self.probe.sample_if_due()
            problems = []
            if rc != 0:
                problems.append(f"exit code {rc}, expected 0: {err.getvalue().strip()[:300]}")
            else:
                digest = _digest(op, out.getvalue())
                if self.first_digest[i] is None:
                    self.first_digest[i] = digest
                elif digest != self.first_digest[i]:
                    problems.append("output bytes differ from the first round's")
                if digest not in self.verdicts:
                    self.verdicts[digest] = checks.check(op, self.diagnostics if first else None)
                problems.extend(self.verdicts[digest])
            if problems:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.argv[0]} op {i}: {'; '.join(problems)}")

    def latencies(self, scaled: bool = True) -> list[list[float]]:
        """Per round, per op: wall time, scaled to reference speed by default."""
        f = self.probe.factor if scaled else (lambda a, b: 1.0)
        return [[(b - a - x) * f(a, b) for a, b, x in rnd] for rnd in self.spans]


def end_to_end(runner: Runner, setup_times: list[float]) -> dict:
    ops = runner.ops
    lat = runner.latencies()[1:]  # the first round warms caches and lazy imports
    flat = [t for rnd in lat for t in rnd]
    pts = [(op.points, t) for rnd in lat for op, t in zip(ops, rnd) if op.points]
    grid = [(op.grid_steps, t) for rnd in lat for op, t in zip(ops, rnd) if op.grid_steps]
    p90 = statistics.quantiles(flat, n=10)[8] if len(flat) > 1 else flat[0]
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(sum(r) for r in lat),
        "op_p50_ms": 1e3 * statistics.median(flat),
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sweep_points_per_s": sum(n for n, _ in pts) / sum(t for _, t in pts),
        "grid_steps_per_s": sum(n for n, _ in grid) / sum(t for _, t in grid),
        "cli_calls_per_s": len(flat) / sum(flat),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(spans, op_factor: list[float], traced_rounds: list[range], overhead_s: float) -> dict:
    """Per-round values of every PER_LAYER measure, the lower median over the
    traced rounds (so a count stays the whole number every round repeats)."""
    own = tracer.self_times(spans)
    op_round = {op: r for r, ops in enumerate(traced_rounds) for op in ops}
    acc = [dict() for _ in traced_rounds]  # name -> [calls, self_ns, incl_ns, count]
    for s, self_ns in zip(spans, own):
        f = op_factor[s[tracer.OP]]
        a = acc[op_round[s[tracer.OP]]].setdefault(s[tracer.NAME], [0, 0.0, 0.0, 0])
        a[0] += 1
        a[1] += self_ns * f
        a[2] += (s[tracer.END] - s[tracer.START]) * f
        a[3] += s[tracer.COUNT]

    def measure(a, m):
        calls, self_ns, incl_ns, count = a
        if m == "calls":
            return calls
        if m == "self_ms":
            return self_ns / 1e6
        if m in ("grid_point_steps", "bytes", "steps", "points"):
            return count
        num, den = {"ns_per_point_step": (incl_ns, count), "us_per_call": (incl_ns / 1e3, calls),
                    "us_per_step": (incl_ns / 1e3, count), "mb_per_s": (count * 1e3, incl_ns)}[m]
        return num / den if den else 0.0

    metrics = {}
    for name, measures in PER_LAYER.items():
        for m in measures:
            vals = [measure(r.get(name, [0, 0.0, 0.0, 0]), m) for r in acc]
            metrics[f"{name}.{m}"] = {"value": statistics.median_low(vals), "unit": MEASURE_UNITS[m]}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import matteroptics.cli as cli

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        built = workloads.build(workload, seed, work)
        probe = SpeedProbe(inside=not trace)
        files = list(built.files)
        # Set-up samples spread over the run, so a slow spell of the host
        # does not decide them all; traced runs report no set-up time.
        setup_times = [] if trace else [time_setup(files) for _ in range(SETUP_FIRST)]
        last_setup = time.perf_counter()
        runner = Runner(cli, built.ops, probe)
        gc.collect()
        gc.freeze()  # the harness's own objects stay out of every later collection
        tr = tracer.Tracer() if trace else None
        traced_rounds: list[range] = []
        round_walls = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if trace and len(round_walls) % 2 == 1:
                first_op = runner.attempted
                tr.install()
                try:
                    runner.run_round(on_op=lambda k: setattr(tr, "op", k))
                finally:
                    tr.remove()
                traced_rounds.append(range(first_op, runner.attempted))
                gc.freeze()  # keep the spans out of the collections before each call
            else:
                runner.run_round()
            round_walls.append(time.perf_counter() - t0)
            if not trace and time.perf_counter() - last_setup >= SETUP_SPACING_S:
                setup_times.append(time_setup(files))
                last_setup = time.perf_counter()
            elapsed = time.perf_counter() - t_start
            # Round 0 only warms up; a traced run also needs one traced
            # and one more untraced round.
            if elapsed + max(round_walls) > seconds and len(round_walls) >= (3 if trace else 2):
                break
        probe.sample()
        result = {"runner": runner, "correct": True}
        if trace:
            need_chain = any(op.kind == "sweep" and op.grid_steps for op in built.ops)
            nest = tracer.nesting_errors(tr.spans, need_chain)
            runner.failures.extend(nest)
            result["correct"] = not nest
            sums = [sum(r) for r in runner.latencies()]
            traced = sums[1::2]
            plain = sums[2::2]
            op_factor = [probe.factor(a, b) for rnd in runner.spans for a, b, _ in rnd]
            result["metrics"] = per_layer(tr.spans, op_factor, traced_rounds,
                                          statistics.median(traced) - statistics.median(plain))
            tr.write_jsonl(OUT / f"trace-{workload}.jsonl")
        else:
            result["metrics"] = end_to_end(runner, setup_times)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "matteroptics" / "cli.py").is_file():
        print(f"error: no matteroptics sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matteroptics

    if Path(matteroptics.__file__).resolve().parent != SRC / "matteroptics":
        print(f"error: imported matteroptics from {matteroptics.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    runner = result["runner"]
    for line in runner.failures:
        print(f"FAILED: {line}")
    for x, gap in runner.diagnostics:
        print(f"box-truncation gap (not gated): V0*rho0 = {x:.4f}: grid route vs "
              f"local-density average {gap:.3e}")
    wall = runner.latencies(scaled=False)
    print(f"{args.workload} seed {args.seed}: {len(wall)} rounds of {len(runner.ops)} operations, "
          f"{runner.attempted} attempted, {runner.failed} failed; machine at "
          f"{runner.probe.median_factor():.3f} of reference speed; wall-clock "
          f"round {statistics.median(sum(r) for r in wall[1:]):.4g} s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
