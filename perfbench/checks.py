"""Output checks, one per command, against the oracles in oracle.py.

Each check reads the files an operation wrote and returns a list of
failure messages; an empty list means the output is correct. No check
compares against a stored copy of earlier output.

Tolerances: JSON carries 17 significant digits and CSV 9, so a value
read from CSV is compared with an absolute slack of CSV_ABS on order
populations and a relative slack of CSV_REL elsewhere.

  (a) series P_q against scipy J_q(tau)^2, tau from the README formula
  (b) phase mask against propagator within MASK_VS_PROPAGATOR (criterion 03's bound)
  (c) blue 16-wavelength packet: mask against the Gauss-Hermite
      local-density average within LDA_TOL
  (d) across a sweep, blue tau falls and red |tau| grows; P_0 moves the
      other way while every |tau| stays below J_0's first zero
  (e) optics: n^2 = 1 + 4 pi chi and v0_rho = V0 rho
  (f) bloch: damped runs end at the closed-form steady state,
      undamped runs conserve W^2 + 4|R|^2
  (g) propagate: the norm integrated from the first and last snapshots
      agrees, the spectrum is reproduced by FFT-binning the last
      snapshot, and a kinetic-off dilute run matches J_q(2 g0)^2

Every grid-route pattern is also compared with mask_orders, the phase
mask evaluated directly from its definition.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle

CSV_ABS = 2e-9
CSV_REL = 2e-8
JSON_ABS = 1e-12
JSON_REL = 1e-12
MASK_VS_PROPAGATOR = 1e-6
DIRECT_MASK_TOL = 1e-10
LDA_TOL = 1e-6
BLOCH_TOL = 1e-6
NORM_REL = 1e-7
SPECTRUM_ABS = 1e-7
DILUTE_TOL = 1e-6
LDA_PACKET_LAMBDAS = 16.0


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _slack(fmt: str) -> tuple[float, float]:
    return (CSV_REL, CSV_ABS) if fmt == "csv" else (JSON_REL, JSON_ABS)


def _compare(label: str, got: dict, want: dict, tol: float, errors: list) -> None:
    gap = oracle.max_gap(want, got)
    if not gap <= tol:
        errors.append(f"{label}: max |dP| = {gap:.3e} > {tol:.1e}")


def _is_lda_case(p: dict, rho: float) -> bool:
    packet = p["w_y"] / oracle.wavelength(p)
    return oracle.detuning(p) > 0 and abs(packet - LDA_PACKET_LAMBDAS) < 1e-9 and rho >= 0.0


def check_patterns(p: dict, rho: float, grid: dict, fmt: str, tau_got: float,
                   patterns: dict[str, dict[int, float]], errors: list,
                   diagnostics: list | None = None) -> None:
    """Checks (a), (b) and (c) on one point's patterns, plus the direct mask."""
    rel, abs_ = _slack(fmt)
    q_max = grid["q_max"]
    t = oracle.tau(p, rho)
    if not _close(tau_got, t, rel, 1e-300):
        errors.append(f"tau {tau_got!r} != 2 g0/(1+V0 rho)^2 = {t!r}")
    if "analytic" in patterns:
        _compare("series vs scipy J_q^2", patterns["analytic"], oracle.series_orders(t, q_max), abs_, errors)
    if "numeric" in patterns or "propagator" in patterns:
        mask = oracle.mask_orders(p, rho, grid["points"], grid["box"], q_max)
        for route in ("numeric", "propagator"):
            if route in patterns:
                tol = max(abs_, DIRECT_MASK_TOL) if route == "numeric" else MASK_VS_PROPAGATOR
                _compare(f"{route} vs direct phase mask", patterns[route], mask, tol, errors)
        if "numeric" in patterns and "propagator" in patterns:
            _compare("mask vs propagator", patterns["propagator"], patterns["numeric"],
                     MASK_VS_PROPAGATOR, errors)
        lda = oracle.lda_orders(p, rho, q_max)
        grid_route = patterns.get("numeric", patterns.get("propagator"))
        if _is_lda_case(p, rho):
            _compare("mask vs local-density average", grid_route, lda, LDA_TOL, errors)
        elif diagnostics is not None and oracle.detuning(p) > 0:
            diagnostics.append((oracle.v0(p) * rho, oracle.max_gap(lda, grid_route)))


# ------------------------------------------------------------------ parsers


def _signed(orders: dict) -> dict[int, float]:
    return {int(q): float(v) for q, v in orders.items()}


def _unfold(folded: list[float]) -> dict[int, float]:
    out = {}
    for q, v in enumerate(folded):
        out[q] = out[-q] = v
    return out


def read_diffract(path: Path, fmt: str) -> tuple[float, dict[str, dict[int, float]]]:
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        rep = json.loads(text)
        return float(rep["tau"]), {n: _signed(o) for n, o in rep["orders"].items()}
    header = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            header[k.strip()] = float(v)
        else:
            rows.append(line.split(","))
    names = [c[len("P_"):] for c in rows[0][2:]]
    patterns = {n: {} for n in names}
    for r in rows[1:]:
        for n, v in zip(names, r[2:]):
            patterns[n][int(r[0])] = float(v)
    return header["tau"], patterns


def read_sweep(path: Path, fmt: str, q_max: int) -> list[dict]:
    """Rows as {value, tau, patterns, flags_ok}."""
    if fmt == "json":
        rep = json.loads(path.read_text(encoding="utf-8"))
        return [
            {"value": r["value"], "tau": r["tau"], "error": r.get("error"),
             "patterns": {n: _signed(o) for n, o in r["orders"].items()},
             "flags_ok": all(r["flags"].values())}
            for r in rep["rows"]
        ]
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    rows = []
    for r in table:
        paths = sorted({k.split("_P_")[0] for k in r if "_P_" in k})
        rows.append({
            "value": float(r["rho_0"]),
            "tau": float(r["tau"]) if r["tau"] else None,
            "error": r["error"] or None,
            "patterns": {n: _unfold([float(r[f"{n}_P_{q}"]) for q in range(q_max + 1)])
                         for n in paths},
            "flags_ok": all(r[f] == "true" for f in ("adiabatic_ok", "pole_ok", "broadness_ok")),
        })
    return rows


def _read_kv_csv(path: Path) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {r[0]: r[1] for r in list(csv.reader(fh))[1:]}


# ------------------------------------------------------------------- checks


def check_diffract(op, out: Path, diagnostics=None) -> list[str]:
    c = op.ctx
    errors: list[str] = []
    tau_got, patterns = read_diffract(out, c["fmt"])
    check_patterns(c["p"], c["rho"], c["grid"], c["fmt"], tau_got, patterns, errors, diagnostics)
    return errors


def check_sweep(op, out: Path, diagnostics=None) -> list[str]:
    c = op.ctx
    errors: list[str] = []
    rows = read_sweep(out, c["fmt"], c["grid"]["q_max"])
    if len(rows) != len(c["rhos"]):
        return [f"{len(rows)} rows for {len(c['rhos'])} values"]
    for row, rho in zip(rows, c["rhos"]):
        if row["error"] or not row["flags_ok"]:
            errors.append(f"point rho_0={rho!r} flagged or failed: {row['error']}")
            continue
        rel, _ = _slack(c["fmt"])
        if not _close(row["value"], rho, rel):
            errors.append(f"row value {row['value']!r} != {rho!r}")
        check_patterns(c["p"], rho, c["grid"], c["fmt"], row["tau"], row["patterns"], errors, diagnostics)
    if errors:
        return errors
    # (d) densities ascend: blue screening lowers tau, red raises |tau|.
    blue = oracle.detuning(c["p"]) > 0
    taus = [abs(r["tau"]) for r in rows]
    if any((b >= a) if blue else (b <= a) for a, b in zip(taus, taus[1:])):
        errors.append(f"|tau| does not {'fall' if blue else 'grow'} with density: {taus}")
    if "analytic" in rows[0]["patterns"] and max(taus) < oracle.J0_FIRST_ZERO:
        p0 = [r["patterns"]["analytic"][0] for r in rows]
        if any((b <= a) if blue else (b >= a) for a, b in zip(p0, p0[1:])):
            errors.append(f"P_0 does not {'grow' if blue else 'fall'} with density: {p0}")
    return errors


def check_optics(op, out: Path, diagnostics=None) -> list[str]:
    c = op.ctx
    if c["fmt"] == "json":
        q = json.loads(out.read_text(encoding="utf-8"))["quantities"]
    else:
        q = {k: float(v) for k, v in _read_kv_csv(out).items() if v}
    rel, _ = _slack(c["fmt"])
    errors = []
    n2, chi, v0rho = float(q["n_squared"]), float(q["chi"]), float(q["v0_rho"])
    if not _close(n2, 1.0 + 4.0 * math.pi * chi, max(rel, 1e-12), 1e-14):
        errors.append(f"n^2 = {n2!r} but 1 + 4 pi chi = {1.0 + 4.0 * math.pi * chi!r}")
    want = oracle.v0(c["p"]) * c["rho"]
    if not _close(v0rho, want, rel, 1e-300):
        errors.append(f"v0_rho = {v0rho!r} but V0 rho = {want!r}")
    return errors


def check_validity(op, out: Path, diagnostics=None) -> list[str]:
    c = op.ctx
    p, rho = c["p"], c["rho"]
    x = oracle.v0(p) * rho
    want = {
        "adiabatic_ratio": abs(oracle.detuning(p) * (1.0 + x)) / p["gamma"],
        "pole_distance": min(abs(1.0 + x), abs(1.0 + 2.0 * x)),
        "packet_broadness": p["w_y"] / oracle.wavelength(p),
    }
    if c["fmt"] == "json":
        rep = json.loads(out.read_text(encoding="utf-8"))
        checks = {ch["name"]: (ch["value"], ch["ok"]) for ch in rep["checks"]}
    else:
        with open(out, newline="", encoding="utf-8") as fh:
            checks = {r["check"]: (float(r["value"]), r["ok"] == "true") for r in csv.DictReader(fh)}
    rel, _ = _slack(c["fmt"])
    errors = [f"check {n} failed" for n, (_, ok) in checks.items() if not ok]
    for name, value in want.items():
        if not _close(float(checks[name][0]), value, max(rel, 1e-12)):
            errors.append(f"{name} = {checks[name][0]!r}, closed form {value!r}")
    return errors


def check_bloch(op, out: Path, diagnostics=None) -> list[str]:
    c = op.ctx
    if c["fmt"] == "json":
        traj = json.loads(out.read_text(encoding="utf-8"))["trajectory"]
        r = np.array([complex(s["re_R"], s["im_R"]) for s in traj])
        w = np.array([s["W"] for s in traj])
    else:
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        r, w = data[:, 1] + 1j * data[:, 2], data[:, 3]
    errors = []
    if c["gamma_l"] > 0.0 and c["gamma_t"] > 0.0:
        r_ss, w_ss = oracle.steady_state(c["drive"], c["delta"], c["gamma_l"], c["gamma_t"])
        gap = max(abs(r[-1] - r_ss), abs(w[-1] - w_ss))
        if not gap <= BLOCH_TOL:
            errors.append(f"final state {gap:.3e} from the closed-form steady state")
    else:
        length = w * w + 4.0 * np.abs(r) ** 2
        drift = float(np.max(np.abs(length - length[0])))
        if not drift <= BLOCH_TOL:
            errors.append(f"W^2 + 4|R|^2 drifts by {drift:.3e}")
    return errors


def _snapshot(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def check_propagate(op, out: Path, diagnostics=None) -> list[str]:
    c = op.ctx
    p, grid = c["p"], c["grid"]
    rep = json.loads(Path(str(out) + "_report.json").read_text(encoding="utf-8"))
    snaps = rep["snapshots"]
    errors = []
    y0, psi0 = _snapshot(snaps[0])
    y1, psi1 = _snapshot(snaps[-1])
    dy = float(y0[1] - y0[0])
    n0 = float(np.sum(np.abs(psi0) ** 2)) * dy
    n1 = float(np.sum(np.abs(psi1) ** 2)) * dy
    if not _close(n0, n1, NORM_REL):
        errors.append(f"norm {n0!r} in the first snapshot, {n1!r} in the last")
    spectrum = _signed(rep["spectrum"])
    half_periods = round(2.0 * grid["box"])
    _compare("spectrum vs binned last snapshot", spectrum,
             oracle.bin_orders(psi1, half_periods, grid["q_max"]), SPECTRUM_ABS, errors)
    if not c["kinetic"] and p["rho_0"] == 0.0:
        _compare("dilute beam splitter vs J_q(2 g0)^2", spectrum,
                 oracle.series_orders(2.0 * oracle.g0(p), grid["q_max"]), DILUTE_TOL, errors)
    return errors


CHECKS = {
    "diffract": check_diffract,
    "sweep": check_sweep,
    "optics": check_optics,
    "validity": check_validity,
    "bloch": check_bloch,
    "propagate": check_propagate,
}


def output_path(op) -> Path:
    return Path(op.argv[op.argv.index("--out") + 1])


def check(op, diagnostics=None) -> list[str]:
    """Failure messages for one operation's outputs (empty when correct)."""
    try:
        return CHECKS[op.kind](op, output_path(op), diagnostics)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
