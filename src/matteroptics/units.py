"""Internal unit system, physical constants, and parameter handling.

All internal computation uses Gaussian-CGS units: every 4*pi factor in the
local-field and Clausius-Mossotti formulas is written in Gaussian
conventions, and porting them to SI invites silent 4*pi*eps0 mistakes.
SI values are accepted at the boundary (parameter files, CLI) and
converted exactly once, here, through two tables. _SI_TO_CGS holds, per
dimension, the factor taking an SI value to CGS; convert_dimension is
the one converter over it. _FIELDS is the parameter schema: it maps
each PhysicalParams field, in field order, to its dimension and its
lower bound (strictly positive, nonnegative, or none). The file's known
keys, the range rules of PhysicalParams and field_dimension all read
it; the required keys are the fields without a default.

One rule takes every typed value in: its field's range rule reads the
value as typed, then the value is converted to CGS once. ParamFile
applies it to a whole file, ParamFile.at to one field (a --density
override, a sweep point). A ParamFile keeps the values as typed beside
the CGS set, so an echo of an input prints the number the user wrote
and nothing converts an input back; only derived outputs go from CGS to
the file's units.

parse_param_file is memoized on the text and the units override
(functools.lru_cache, PARAM_MEMO_SIZE entries), so a command that
reads a file it read before parses it no more: read_param_file still
reads the file at every call and hands over the text, so an edited file
is a new key and the memo cannot go stale. The ParamFile it returns is
frozen and shared read-only; a text that fails is not kept, and raises
its ParameterError at every call.

Internal units by dimension:
    length      cm
    mass        g
    time        s
    frequency   rad/s
    wavenumber  1/cm
    density     1/cm^3
    volume      cm^3
    velocity    cm/s
    dipole      statC*cm
    energy      erg
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import ParameterError

# CODATA 2018 exact-definition constants, Gaussian-CGS.
HBAR = 1.054571817e-27  # erg*s
C_LIGHT = 2.99792458e10  # cm/s

# Dimension -> factor taking its SI unit to its internal CGS unit. The
# factors are exact by definition of the units; round trips are identity
# to relative 1e-15 because each conversion is one multiply.
_SI_TO_CGS: dict[str, float] = {
    "length": 1.0e2,  # m -> cm
    "mass": 1.0e3,  # kg -> g
    "frequency": 1.0,  # rad/s in both systems
    "wavenumber": 1.0e-2,  # 1/m -> 1/cm
    "density": 1.0e-6,  # 1/m^3 -> 1/cm^3
    "volume": 1.0e6,  # m^3 -> cm^3
    "velocity": 1.0e2,  # m/s -> cm/s
    # C*m -> statC*cm: 1 C = 2.99792458e9 statC and 1 m = 100 cm
    "dipole": 2.99792458e11,
    "dimensionless": 1.0,
}

# The parameter schema: PhysicalParams field -> (physical dimension,
# lower bound), in field order. A bound is "positive" (> 0),
# "nonnegative" (>= 0) or None: delta_shift is signed, and
# scattering_length is validated where it is used.
_FIELDS: dict[str, tuple[str, str | None]] = {
    "mass": ("mass", "positive"),
    "dipole": ("dipole", "positive"),
    "omega_a": ("frequency", "positive"),
    "gamma": ("frequency", "nonnegative"),
    "scattering_length": ("length", None),
    "omega_l": ("frequency", "positive"),
    "rabi_peak": ("frequency", "nonnegative"),
    "k_l": ("wavenumber", "positive"),
    "harmonic": ("dimensionless", "positive"),
    "w_l": ("length", "positive"),
    "v_g": ("velocity", "positive"),
    "rho_0": ("density", "nonnegative"),
    "w_y": ("length", "positive"),
    "delta_shift": ("frequency", None),
}


def _check_system(units: str) -> None:
    if units not in ("si", "cgs"):
        raise ParameterError(f"units must be 'si' or 'cgs', got {units!r}")


def convert_dimension(value: float, dimension: str, from_system: str, to_system: str) -> float:
    """Convert a value of one dimension between the 'si' and 'cgs' systems.

    One multiply: value * factor from SI to CGS, value * (1 / factor)
    back; a value already in the target system is returned unchanged.
    """
    _check_system(from_system)
    _check_system(to_system)
    if from_system == to_system:
        return value
    factor = _SI_TO_CGS[dimension]
    return value * factor if from_system == "si" else value * (1.0 / factor)


def field_dimension(name: str) -> str:
    """The dimension of parameter field `name`; ParameterError listing the
    fields for a name that is none."""
    entry = _FIELDS.get(name)
    if entry is None:
        raise ParameterError(
            f"unknown parameter '{name}'; valid names: " + ", ".join(sorted(_FIELDS))
        )
    return entry[0]


def convert_field(value: float, name: str, from_system: str, to_system: str) -> float:
    """Convert one named parameter field between the 'si' and 'cgs' systems."""
    return convert_dimension(value, field_dimension(name), from_system, to_system)


@dataclass(frozen=True)
class PhysicalParams:
    """Atom, laser, and beam constants in Gaussian-CGS internal units.

    The single source of every dimensional symbol used downstream.
    Immutable after construction and safe to share between threads.

    Fields:
        mass: atom mass, g
        dipole: transition dipole matrix element, statC*cm
        omega_a: bare atomic transition frequency, rad/s
        gamma: spontaneous emission rate, rad/s
        scattering_length: s-wave scattering length, cm
        omega_l: laser frequency, rad/s
        rabi_peak: peak Rabi frequency, rad/s
        k_l: laser wave number, 1/cm
        harmonic: constant index n of the standing wave cos^2(n k_l y), dimensionless
        w_l: laser Gaussian envelope width, cm
        v_g: atomic-beam group velocity, cm/s
        rho_0: peak atomic density, 1/cm^3
        w_y: atomic wave-packet width, cm
        delta_shift: additional level shift entering the detuning, rad/s
    """

    mass: float
    dipole: float
    omega_a: float
    gamma: float
    scattering_length: float
    omega_l: float
    rabi_peak: float
    k_l: float
    harmonic: float
    w_l: float
    v_g: float
    rho_0: float
    w_y: float
    delta_shift: float = 0.0

    def __post_init__(self):
        for name, (_, bound) in _FIELDS.items():
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParameterError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v!r}")
            if bound == "positive" and v <= 0.0:
                raise ParameterError(f"{name} must be strictly positive, got {v!r}")
            if bound == "nonnegative" and v < 0.0:
                raise ParameterError(f"{name} must be nonnegative, got {v!r}")


# The parameter file's required keys: the fields without a default.
_REQUIRED_FIELDS = frozenset(f.name for f in fields(PhysicalParams) if f.default is MISSING)


def detuning(params: PhysicalParams) -> float:
    """Laser-atom detuning omega_l - omega_a - delta_shift, rad/s.

    Sign is preserved; zero is a legal return value here and is guarded
    at the adiabatic-elimination call sites instead.
    """
    return params.omega_l - params.omega_a - params.delta_shift


def checked_power(value: float, exponent: int, quantity: str) -> float:
    """value**exponent, or ParameterError naming `quantity` where it overflows.

    A float power beyond the double range raises OverflowError, where a
    product would give inf; an array power gives inf and never raises.
    The power is not rewritten as a product, which can differ from it in
    the last bit. The message names the quantity and the rule, not the
    value: a CGS value is not the number an SI file holds.
    """
    try:
        return value**exponent
    except OverflowError:
        message = f"{quantity} is out of range: its power {exponent} overflows"
        raise ParameterError(message) from None


def checked_divisor(value: float, exponent: int, quantity: str) -> float:
    """checked_power's value**exponent for a divisor: ParameterError
    naming `quantity` also where the power underflows to 0."""
    power = checked_power(value, exponent, quantity)
    if power == 0.0:
        raise ParameterError(f"{quantity} is out of range: its power {exponent} underflows to 0")
    return power


# Parameter texts whose parse parse_param_file keeps; a text is a few
# hundred bytes.
PARAM_MEMO_SIZE = 16


@dataclass(frozen=True)
class ParamFile:
    """A parameter set as typed in `units` ('si' or 'cgs'), and its CGS form.

    typed holds the values as written, each checked by its field's range
    rule as written; params is typed converted to CGS once, and is the
    same object as typed for a CGS file. A finite, nonzero SI value whose
    conversion overflows or underflows to 0 is refused, named as typed.
    Echoes of an input read typed; the physics reads params.
    """

    typed: PhysicalParams
    units: str
    params: PhysicalParams = field(init=False)

    def __post_init__(self):
        _check_system(self.units)
        params = self.typed
        if self.units == "si":
            cgs = {}
            for name in _FIELDS:
                value = getattr(params, name)
                cgs[name] = convert_field(value, name, "si", "cgs")
                if value != 0.0 and (cgs[name] == 0.0 or math.isinf(cgs[name])):
                    change = "underflows to 0" if cgs[name] == 0.0 else "overflows"
                    raise ParameterError(
                        f"{name} = {value!r} in an SI file is out of range: "
                        f"converted to CGS it {change}"
                    )
            params = PhysicalParams(**cgs)
        object.__setattr__(self, "params", params)

    def at(self, name: str, value: float) -> PhysicalParams:
        """The CGS set with field `name` typed as `value`, by the one rule:
        the range rule reads value as typed, then it is converted once."""
        return ParamFile(replace(self.typed, **{name: value}), self.units).params


@functools.lru_cache(maxsize=PARAM_MEMO_SIZE)
def parse_param_file(text: str, units_override: str | None = None) -> ParamFile:
    """Parse the flat `key = value` parameter format.

    Rules: one `key = value` pair per line; blank lines and lines starting
    with '#' are ignored; a `units = si | cgs` key declares the system the
    values are written in; unknown and duplicate keys are rejected with
    their line number. `units_override`, when given, wins over the file's
    own `units` key.
    """
    raw: dict[str, float] = {}
    units: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "units":
            if units is not None:
                raise ParameterError(f"line {lineno}: duplicate key 'units'")
            if value not in ("si", "cgs"):
                raise ParameterError(
                    f"line {lineno}: units must be 'si' or 'cgs', got {value!r}"
                )
            units = value
            continue
        if key not in _FIELDS:
            raise ParameterError(f"line {lineno}: unknown parameter '{key}'")
        if key in raw:
            raise ParameterError(f"line {lineno}: duplicate key '{key}'")
        try:
            raw[key] = float(value)
        except ValueError:
            raise ParameterError(
                f"line {lineno}: could not parse value for '{key}': {value!r}"
            ) from None

    if units_override is not None:
        _check_system(units_override)
        units = units_override
    if units is None:
        raise ParameterError("missing 'units = si | cgs' declaration")

    missing = sorted(_REQUIRED_FIELDS - set(raw))
    if missing:
        raise ParameterError(f"missing required parameters: {', '.join(missing)}")

    return ParamFile(PhysicalParams(**raw), units)


def read_param_file(path: str, units_override: str | None = None) -> ParamFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_param_file(fh.read(), units_override)
