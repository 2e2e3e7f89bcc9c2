"""Span tracer for the matteroptics package, installed from outside it.

The package imports its callees by name (`from .propagate import step`)
and reaches others through module globals, so one function can be bound
in several `matteroptics.*` namespaces. install() replaces every such
binding with a wrapper and remove() restores the originals. A listed
function that no longer exists raises at install time, so a rename
cannot silently leave a layer untraced.

A span is [id, parent id, operation id, name, start ns, end ns, count];
spans stay in memory until the run writes them out as JSON lines. Only
the outermost call of a recursive function gets a span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable

# (module, function, counter). A counter maps (args, kwargs, result) to
# the work count a span carries; "fh" counts the characters written to
# the file handle passed last, which are bytes for these ASCII writers.
_COUNTERS: dict[str, Callable] = {
    "grid_points": lambda a, k, r: (a[0] if a else k["state"]).grid.n_points,
    "n_steps": lambda a, k, r: a[5] if len(a) > 5 else k["n_steps"],
    "sweep_points": lambda a, k, r: len((a[0] if a else k["spec"]).values),
    "result_len": lambda a, k, r: len(r),
}

TARGETS = (
    ("cli", "main", None),
    ("units", "read_param_file", None),
    ("optics", "medium_response", None),
    ("models", "raman_nath_params", None),
    ("models", "effective_potential", None),
    ("bessel", "bessel_j_sequence", None),
    ("diffraction", "analytic_orders", None),
    ("diffraction", "numeric_orders", None),
    ("diffraction", "propagator_orders", None),
    ("propagate", "propagate_through_laser", None),
    ("propagate", "step", "grid_points"),
    ("propagate", "momentum_spectrum", None),
    ("propagate", "write_state_csv", "fh"),
    ("bloch", "integrate", "n_steps"),
    ("bloch", "write_trajectory_csv", "fh"),
    ("sweep", "run_sweep", "sweep_points"),
    ("sweep", "write_sweep_csv", "fh"),
    ("sweep", "sweep_report", None),
    ("serialize", "json_dumps", "result_len"),
)
RECURSIVE = {"serialize.json_dumps"}

# standing_wave_intensity builds the laser closure that the propagator
# calls twice per step; the closure is traced as propagate.laser_profile.
LASER_FACTORY = ("propagate", "standing_wave_intensity")
LASER_SPAN = "propagate.laser_profile"

# The chain a three-route sweep must produce, outermost first.
CHAIN = (
    "cli.main",
    "sweep.run_sweep",
    "diffraction.propagator_orders",
    "propagate.propagate_through_laser",
    "propagate.step",
    "models.effective_potential",
)


# Fields of a span record, a list for speed: wrappers run five times per
# split step, and their cost lands in the parent's self time.
ID, PARENT, OP, NAME, START, END, COUNT = range(7)


class Tracer:
    """Records spans for the matteroptics functions in TARGETS."""

    def __init__(self, package: str = "matteroptics"):
        self.package = package
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, counter: str | None) -> Callable:
        count_fn = _COUNTERS.get(counter) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        recursive = name in RECURSIVE
        active = [False]  # set only while a RECURSIVE function runs

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)  # inner call of a recursion
            if counter == "fh":
                fh = args[-1] if args else kwargs["fh"]
                before = fh.tell()
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, self.op, name, 0, 0, 0]
            spans.append(span)
            stack.append(sid)
            active[0] = recursive
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                active[0] = False
                stack.pop()
            if counter == "fh":
                span[COUNT] = fh.tell() - before
            elif count_fn is not None:
                span[COUNT] = count_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_factory(self, fn: Callable) -> Callable:
        def factory(*args, **kwargs):
            return self._wrap(LASER_SPAN, fn(*args, **kwargs), None)

        factory.__wrapped__ = fn
        return factory

    def _bind_everywhere(self, original: object, replacement: object) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _lookup(self, module: str, func: str) -> Callable:
        mod = importlib.import_module(f"{self.package}.{module}")
        fn = getattr(mod, func, None)
        if not callable(fn):
            raise RuntimeError(
                f"traced function {self.package}.{module}.{func} no longer exists; "
                "update perfbench/tracer.py TARGETS"
            )
        return fn

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, func, counter in TARGETS:
            fn = self._lookup(module, func)
            self._bind_everywhere(fn, self._wrap(f"{module}.{func}", fn, counter))
        fn = self._lookup(*LASER_FACTORY)
        self._bind_everywhere(fn, self._wrap_factory(fn))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """One JSON array per span: id, parent, op, name, start ns, end ns, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def nesting_errors(spans: list[list], need_chain: bool) -> list[str]:
    """Children lie inside their parents; the CHAIN appears when needed."""
    errors = []
    for s in spans:
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            if not (p[START] <= s[START] and s[END] <= p[END] and p[OP] == s[OP]):
                errors.append(f"span {s[NAME]} escapes its parent {p[NAME]}")
                break
    if need_chain:
        for s in spans:
            if s[NAME] != CHAIN[-1]:
                continue
            names = [s[NAME]]
            while s[PARENT] >= 0:
                s = spans[s[PARENT]]
                names.append(s[NAME])
            if tuple(reversed(names)) == CHAIN:
                break
        else:
            errors.append("no span chain " + " > ".join(CHAIN))
    return errors
