"""Deterministic single-axis parameter sweeps across the diffraction paths.

Each sweep point rebuilds the full parameter set with one field swapped,
evaluates the requested diffraction paths with diffraction.evaluate_routes
(the core a diffract run uses), and records the cross-path discrepancy
plus the models.regime_checks flags. Points that fail a physics guard are
kept as error rows; only a sweep in which every point fails raises.

Determinism contract: rows are keyed by input index and each point's
floating-point work is sequential and self-contained, so the output is
byte-identical regardless of thread count.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .diffraction import (
    DEFAULT_BOX_LAMBDAS,
    DEFAULT_GRID_POINTS,
    DEFAULT_Z_STEPS,
    default_q_max,
    evaluate_routes,
    select_routes,
)
from .errors import (
    ConfigurationError,
    MatterOpticsError,
    PhysicsGuardError,
    SweepError,
    SweepGuardError,
)
from .models import RegimeCheck, regime_checks
from .propagate import DiffractionPattern, check_order_count
from .serialize import by_order, csv_num
from .units import ParamFile, PhysicalParams, convert_field, field_dimension


# The most points a sweep may hold: a --start/--stop/--num range is
# checked before its list is built, a --values list once it is parsed.
# The largest single allocation the count sizes is the report text,
# built whole: its JSON takes about 3 KB a point at the README point's
# default order range, so 2^16 points write about 190 MiB. More orders
# per point are propagate.MAX_ORDERS's to bound.
MAX_SWEEP_POINTS = 2**16


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: one axis of a parameter file, ordered values, chosen
    paths (any select_routes selection), and q_max, by default
    default_q_max over the swept points.

    base is the ParamFile whose axis is swept; a bare PhysicalParams is
    taken as a CGS file. The values are typed in the file's units, as the
    CSV table and the message of a sweep whose every point failed print
    them; point(v) takes each through ParamFile.at, the one rule for a
    typed value, so a point refused by a range rule names v as typed.
    """

    base: ParamFile | PhysicalParams
    axis: str
    values: tuple[float, ...]
    paths: tuple[str, ...]
    q_max: int | None = None
    grid_points: int = DEFAULT_GRID_POINTS
    z_steps: int = DEFAULT_Z_STEPS
    box_lambdas: float = DEFAULT_BOX_LAMBDAS

    def __post_init__(self):
        if isinstance(self.base, PhysicalParams):  # a CGS set is its own typed values
            object.__setattr__(self, "base", ParamFile(self.base, "cgs"))
        field_dimension(self.axis)  # refuses an axis that is no parameter field
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ConfigurationError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ConfigurationError("sweep values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "paths", select_routes(self.paths))
        if self.q_max is None:
            points = []
            for value in vals:
                try:
                    points.append(self.point(value))
                except MatterOpticsError:
                    pass  # an invalid point becomes an error row
            q_max = default_q_max(points, self.paths, self.grid_points, self.box_lambdas)
            object.__setattr__(self, "q_max", q_max)
        check_order_count(self.q_max)  # the table has q_max + 1 columns per route

    def point(self, value: float) -> PhysicalParams:
        """The CGS parameter set with the axis typed as value."""
        return self.base.at(self.axis, value)


# (regime check, CSV column, JSON flag key) of each flag a sweep row reports
_FLAGS = (
    ("adiabatic_ratio", "adiabatic_ok", "adiabatic"),
    ("pole_distance", "pole_ok", "pole_distance"),
    ("packet_broadness", "broadness_ok", "w_y_broadness"),
)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point; error rows keep every numeric field and checks None.

    guard tells whether an error row's error was a physics guard.
    """

    value: float
    tau: float | None
    patterns: Mapping[str, DiffractionPattern] | None
    discrepancy: float | None
    checks: Mapping[str, RegimeCheck] | None
    error: str | None = None
    guard: bool = False

    def flags(self) -> list[bool]:
        """The ok bits of the _FLAGS checks, in table order."""
        return [self.checks[name].ok for name, _, _ in _FLAGS]

    def valid(self) -> bool:
        return self.error is None and all(self.flags())


def _evaluate_point(spec: SweepSpec, value: float) -> SweepRow:
    try:
        point = spec.point(value)
        rn, patterns, discrepancy = evaluate_routes(
            point, spec.paths, spec.q_max, spec.grid_points, spec.box_lambdas, spec.z_steps
        )
        # flagged, not rejected: a row outside the regime keeps its numbers
        checks = regime_checks(point, point.rho_0)
        return SweepRow(value, rn.tau, patterns, discrepancy, checks)
    except MatterOpticsError as exc:
        guard = isinstance(exc, PhysicsGuardError)
        return SweepRow(value, None, None, None, None, error=str(exc), guard=guard)


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate every point; rows in input order.

    Parallelism is across points only — each point's arithmetic is
    sequential — so results do not depend on the thread count. Workers
    are capped at one per point and one per CPU; with one worker the
    points run in the calling thread. When every point fails, raises
    SweepGuardError if each failed a physics guard, SweepError otherwise.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    workers = min(threads, len(spec.values), os.cpu_count() or 1)
    if workers == 1:
        rows = [_evaluate_point(spec, v) for v in spec.values]
    else:
        # imported here: it loads threading and logging, which one worker never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_evaluate_point, spec, v) for v in spec.values]
            rows = [f.result() for f in futures]
    if all(r.error is not None for r in rows):
        reasons = "; ".join(
            f"{spec.axis}={csv_num(r.value)}: {r.error}" for r in rows
        )
        error = SweepGuardError if all(r.guard for r in rows) else SweepError
        raise error(f"every sweep point failed: {reasons}")
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], spec: SweepSpec, fh) -> None:
    """Flattened rows: axis value, tau, per-path folded orders, checks."""
    writer = csv.writer(fh, lineterminator="\n")
    header = [spec.axis, "tau"]
    for path in spec.paths:
        header.extend(f"{path}_P_{q}" for q in range(spec.q_max + 1))
    header.extend(["discrepancy", *(column for _, column, _ in _FLAGS), "error"])
    writer.writerow(header)
    for row in rows:
        if row.error is not None:  # blank between the value and the error
            writer.writerow([csv_num(row.value), *[""] * (len(header) - 2), row.error])
            continue
        cells = [csv_num(row.value), csv_num(row.tau)]
        for path in spec.paths:
            cells.extend(csv_num(p) for p in row.patterns[path].folded())
        cells.append(csv_num(row.discrepancy))
        cells.extend("true" if ok else "false" for ok in row.flags())
        cells.append("")
        writer.writerow(cells)


def sweep_report(spec: SweepSpec, rows: Sequence[SweepRow]) -> dict:
    """JSON-shaped report: spec echo, per-point rows, summary.

    The report is CGS throughout: the base set, and the axis values
    converted from the file's units as each point converts them.
    """

    def cgs(value: float) -> float:
        return convert_field(value, spec.axis, spec.base.units, "cgs")

    spec_echo = {
        "axis": spec.axis,
        "values": [cgs(v) for v in spec.values],
        "paths": list(spec.paths),
        "q_max": spec.q_max,
        "grid_points": spec.grid_points,
        "z_steps": spec.z_steps,
        "box_lambdas": spec.box_lambdas,
        "base_units": "cgs",
        "base": dict(vars(spec.base.params)),  # field order
    }
    row_dicts = []
    for row in rows:
        if row.error is not None:
            row_dicts.append({"value": cgs(row.value), "error": row.error})
            continue
        row_dicts.append(
            {
                "value": cgs(row.value),
                "tau": row.tau,
                "orders": {path: by_order(row.patterns[path].orders) for path in spec.paths},
                "discrepancy": row.discrepancy,
                "flags": {key: flag for (_, _, key), flag in zip(_FLAGS, row.flags())},
            }
        )
    valid_count = sum(1 for r in rows if r.valid())
    discrepancies = [r.discrepancy for r in rows if r.discrepancy is not None]
    summary = {
        "n_points": len(rows),
        "n_valid": valid_count,
        "n_failed": sum(1 for r in rows if r.error is not None),
        "max_discrepancy": max(discrepancies) if discrepancies else None,
    }
    return {"spec": spec_echo, "rows": row_dicts, "summary": summary}
