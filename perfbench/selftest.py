"""Show that every output check accepts real output and rejects perturbed output.

    python3 perfbench/selftest.py

Runs one small operation of each kind through matteroptics.cli.main,
confirms its check passes, then edits the written output (or the
expectation, for the direction and dilute checks) and confirms the check
reports a failure. Also checks the tracer: traced output bytes equal
untraced ones, spans nest as tracer.CHAIN, every patched binding is
restored, and a missing target function raises. Exits 1 on any miss.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import SMALL_GRID, SODIUM, TINY_PROP, TINY_SNAP  # noqa: E402


def _run(cli, op) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(op.argv))
    if rc != 0:
        raise RuntimeError(f"{op.argv[0]} exited with {rc}")


def _edit_json(path: Path, mutate) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    mutate(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _edit_csv(path: Path, mutate, skip_comments=False) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = [ln for ln in lines if skip_comments and ln.startswith("#")]
    rows = [r for r in csv.reader(ln for ln in lines if ln not in head)]
    mutate(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text("\n".join(head + [buf.getvalue()]), encoding="utf-8")


def _bump(x, by):
    return str(float(x) + by)


def main() -> int:
    import matteroptics.cli as cli

    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    b = wl.Round(work)
    rng = random.Random(7)
    blue16 = wl._with(SODIUM, g0=0.8, wy_lambdas=16.0)
    red16 = wl._with(wl._red(SODIUM), g0=-0.3, wy_lambdas=16.0)
    fb, fr = b.file("blue16", blue16), b.file("red16", red16)
    fd = b.file("blue4_dense", wl._with(blue16, wy_lambdas=4.0, v0rho=0.3))
    fz = b.file("sodium", SODIUM)
    rho_b = lambda x: x / wl.oracle.v0(blue16)  # noqa: E731
    rho_r = lambda x: x / wl.oracle.v0(red16)  # noqa: E731
    dilute_grid = dict(points=16384, box=325.0, steps=64, q_max=7)

    b.diffract(fb, "analytic", rho_b(0.3), "json", SMALL_GRID)           # 0
    b.diffract(fr, "analytic", rho_r(-0.3), "csv", SMALL_GRID)           # 1
    b.diffract(fb, "numeric", rho_b(0.3), "json", SMALL_GRID)            # 2
    b.diffract(fr, "numeric", rho_r(-0.3), "csv", SMALL_GRID)            # 3
    b.sweep(fb, "all", [rho_b(0.1), rho_b(0.4)], "json", TINY_PROP)      # 4
    b.sweep(fr, "analytic,numeric", [rho_r(-0.1), rho_r(-0.35)], "csv", SMALL_GRID)  # 5
    b.optics(fb, rho_b(0.3), "json")                                     # 6
    b.validity(fr, rho_r(-0.3), 1.5, "csv")                              # 7
    b.bloch(rng, damped=True, fmt="csv", steps=500)                      # 8
    b.bloch(rng, damped=False, fmt="json", steps=300)                    # 9
    b.propagate(fd, TINY_SNAP, kinetic=True, snapshots=1)                # 10
    b.propagate(fz, dilute_grid, kinetic=False)                          # 11
    ops = b.ops

    def out(i):
        return checks.output_path(ops[i])

    def snap_last(i):
        rep = json.loads(Path(str(out(i)) + "_report.json").read_text(encoding="utf-8"))
        return Path(rep["snapshots"][-1])

    def report(i):
        return Path(str(out(i)) + "_report.json")

    def bump_row_p(row_idx, col, by):
        return lambda rows: rows[row_idx].__setitem__(col, _bump(rows[row_idx][col], by))

    def reverse_sweep(i):
        """Rows and expected densities both reversed: per-point checks still
        hold, only the density direction is wrong."""
        path = out(i)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n", encoding="utf-8")
        ops[i] = replace(ops[i], ctx=dict(ops[i].ctx, rhos=ops[i].ctx["rhos"][::-1]))

    # (operation, what is perturbed, text the failing check must report, how)
    cases = [
        (0, "(a) series P_1 + 1e-6", "series vs scipy",
         lambda: _edit_json(out(0), lambda d: d["orders"]["analytic"].__setitem__("1", d["orders"]["analytic"]["1"] + 1e-6))),
        (0, "(a) tau x (1 + 1e-9)", "tau",
         lambda: _edit_json(out(0), lambda d: d.__setitem__("tau", d["tau"] * (1 + 1e-9)))),
        (1, "(a) series P_0 + 1e-7 in CSV", "series vs scipy",
         lambda: _edit_csv(out(1), bump_row_p(1 + 7, 2, 1e-7), skip_comments=True)),
        (2, "(c) mask P_2 + 5e-6", "local-density average",
         lambda: _edit_json(out(2), lambda d: d["orders"]["numeric"].__setitem__("2", d["orders"]["numeric"]["2"] + 5e-6))),
        (3, "red mask P_-1 + 1e-7", "numeric vs direct phase mask",
         lambda: _edit_csv(out(3), bump_row_p(1 + 6, 2, 1e-7), skip_comments=True)),
        (4, "(b) propagator P_0 + 2e-6", "mask vs propagator",
         lambda: _edit_json(out(4), lambda d: d["rows"][0]["orders"]["propagator"].__setitem__("0", d["rows"][0]["orders"]["propagator"]["0"] + 2e-6))),
        (5, "(d) density order reversed", "does not", lambda: reverse_sweep(5)),
        (6, "(e) n_squared x (1 + 1e-6)", "n^2",
         lambda: _edit_json(out(6), lambda d: d["quantities"].__setitem__("n_squared", d["quantities"]["n_squared"] * (1 + 1e-6)))),
        (6, "(e) v0_rho x (1 + 1e-6)", "v0_rho",
         lambda: _edit_json(out(6), lambda d: d["quantities"].__setitem__("v0_rho", d["quantities"]["v0_rho"] * (1 + 1e-6)))),
        (7, "validity pole_distance + 1e-3", "pole_distance", lambda: _edit_csv(out(7), bump_row_p(2, 1, 1e-3))),
        (8, "(f) damped final W + 1e-5", "steady state", lambda: _edit_csv(out(8), bump_row_p(-1, 3, 1e-5))),
        (9, "(f) undamped W + 1e-5 mid-run", "drifts",
         lambda: _edit_json(out(9), lambda d: d["trajectory"][150].__setitem__("W", d["trajectory"][150]["W"] + 1e-5))),
        (10, "(g) last snapshot re(psi) x 1.0001", "norm",
         lambda: _edit_csv(snap_last(10), lambda rows: [r.__setitem__(1, str(float(r[1]) * 1.0001)) for r in rows[1:]])),
        (10, "(g) report spectrum P_0 + 1e-6", "spectrum vs binned",
         lambda: _edit_json(report(10), lambda d: d["spectrum"].__setitem__("0", d["spectrum"]["0"] + 1e-6))),
        (11, "(g) dilute expectation with g0 off by 1e-4", "dilute beam splitter",
         lambda: ops.__setitem__(11, replace(ops[11], ctx=dict(ops[11].ctx, p=dict(SODIUM, rabi_peak=SODIUM["rabi_peak"] * (1 + 5e-5)))))),
    ]

    misses = 0
    for i, op in enumerate(ops):
        _run(cli, op)
        errs = checks.check(op)
        if errs:
            print(f"MISS genuine output of op {i} ({op.argv[0]}) rejected: {errs}")
            misses += 1
    for i, label, expect, perturb in cases:
        original = ops[i]
        _run(cli, original)
        perturb()
        hits = [e for e in checks.check(ops[i]) if expect in e]
        print(f"{'ok  ' if hits else 'MISS'} {ops[i].argv[0]:9s} {label}: "
              f"{hits[0] if hits else 'not rejected by the ' + repr(expect) + ' check'}")
        misses += not hits
        ops[i] = original

    misses += _tracer_checks(cli, ops[4])
    shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if not misses else f"failed: {misses} misses")
    return 1 if misses else 0


def _tracer_checks(cli, op) -> int:
    import hashlib

    import matteroptics.propagate as prop

    def digest():
        return hashlib.sha256(checks.output_path(op).read_bytes()).hexdigest()

    misses = 0
    _run(cli, op)
    plain = digest()
    before = {name: getattr(prop, name) for name in ("step", "standing_wave_intensity")}
    tr = tracer.Tracer()
    tr.install()
    try:
        _run(cli, op)
    finally:
        tr.remove()
    same = digest() == plain
    print(f"{'ok  ' if same else 'MISS'} tracer: traced output bytes equal untraced")
    nest = tracer.nesting_errors(tr.spans, need_chain=True)
    print(f"{'ok  ' if not nest else 'MISS'} tracer: spans nest as {' > '.join(tracer.CHAIN)} {nest or ''}")
    restored = all(getattr(prop, n) is f for n, f in before.items()) and cli.main.__module__ == "matteroptics.cli" \
        and not hasattr(cli.main, "__wrapped__")
    print(f"{'ok  ' if restored else 'MISS'} tracer: original functions restored")
    try:
        tracer.Tracer()._lookup("propagate", "no_such_function")
        raised = False
    except RuntimeError:
        raised = True
    print(f"{'ok  ' if raised else 'MISS'} tracer: a missing target raises")
    misses += (not same) + bool(nest) + (not restored) + (not raised)
    return misses


if __name__ == "__main__":
    sys.exit(main())
