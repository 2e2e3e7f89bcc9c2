"""Integer-order Bessel functions J_q by backward recurrence.

Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} is stable because J
is the minimal solution in the upward direction. Starting from a trial
pair far above both the requested order and the turning point k ~ x,
the whole row is recovered up to one overall constant, fixed by the
normalization identity

    J_0(x) + 2 J_2(x) + 2 J_4(x) + ... = 1.

This gives uniform absolute accuracy over all orders without any
external special-function source, and the sum identity doubles as a
self-test (sum_q J_q^2 = 1 follows the same way).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Rescale threshold: the trial row grows toward low orders and is scaled
# down whenever it exceeds this, keeping everything inside double range.
_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250

# Below this the recurrence factor 2k/x can outrun the rescaling in a
# single step; the ascending series is exact to machine precision there.
_SERIES_CUTOFF = 1e-4


def _sequence_small(ax: float, q_max: int) -> np.ndarray:
    # J_q = (x/2)^q / q! * (1 - t/(q+1) + t^2/(2(q+1)(q+2))), t = x^2/4.
    # For t <= 2.5e-9 the dropped term is below 1e-26 relative; the
    # leading factor underflows to zero for large q exactly like J_q.
    half = 0.5 * ax
    t = half * half
    out = np.zeros(q_max + 1)
    lead = 1.0
    for q in range(q_max + 1):
        out[q] = lead * (1.0 - t / (q + 1) + t * t / (2.0 * (q + 1) * (q + 2)))
        lead *= half / (q + 1)
    return out


def _start_order(x: float, q_max: int) -> int:
    # Above the requested order and above the turning point k ~ x by a
    # margin that buries the arbitrary-start error below 1e-15 relative.
    m = max(q_max + 26, int(x + 15.0 * x ** (1.0 / 3.0)) + 26)
    return m + (m % 2)  # even start keeps the normalization sum aligned


def bessel_j_sequence(x: float, q_max: int) -> np.ndarray:
    """Return [J_0(x), J_1(x), ..., J_{q_max}(x)] to ~1e-14 absolute."""
    if q_max < 0:
        raise ParameterError(f"q_max must be nonnegative, got {q_max}")
    if not np.isfinite(x):
        raise ParameterError(f"argument must be finite, got {x!r}")

    ax = abs(x)
    if ax < _SERIES_CUTOFF:  # exactly [1, 0, ...] at x = 0 and -0.0
        vals = _sequence_small(ax, q_max)
        if x < 0.0:
            vals[1::2] *= -1.0
        return vals

    # The recurrence runs on Python floats, which round each product and
    # difference exactly as numpy's float64 scalars do, without the cost
    # of indexing an array; the row becomes one array for the sum.
    ax = float(ax)
    m = _start_order(ax, q_max)
    row = [0.0] * (m + 2)
    row[m] = 1e-30  # arbitrary trial scale, fixed by normalization below
    for k in range(m, 0, -1):
        row[k - 1] = below = (2.0 * k / ax) * row[k] - row[k + 1]
        if abs(below) > _RESCALE_LIMIT:
            row[k - 1 :] = [v * _RESCALE_FACTOR for v in row[k - 1 :]]

    vals = np.array(row)
    norm = vals[0] + 2.0 * vals[2 : m + 1 : 2].sum()
    vals = vals[: q_max + 1] / norm

    if x < 0.0:
        # J_q(-x) = (-1)^q J_q(x)
        vals[1::2] *= -1.0
    return vals

