"""Shared fixtures and parameter builders for the test suite.

The reference atom is sodium-like and lives in CGS; tests that need a
specific dimensionless operating point (phase scale g0, density knob
V0*rho_0, packet width in effective wavelengths) retune from it instead
of hardcoding dimensional values.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from matteroptics import (
    PhysicalParams,
    characteristic_volume,
    detuning,
    effective_wavelength,
    propagate,
    serialize,
    units,
)
from matteroptics.units import convert_field

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


_BASE = dict(
    mass=3.8175e-23,  # g
    dipole=6.2956e-18,  # statC*cm
    omega_a=3.198e15,  # rad/s
    gamma=6.1e7,  # rad/s
    scattering_length=2.75e-7,  # cm
    omega_l=3.198e15 + 2.0 * math.pi * 1.0e9,  # blue-detuned by 2 pi GHz
    rabi_peak=7.5311e7,  # rad/s
    k_l=1.0667e5,  # 1/cm
    harmonic=1.0,
    w_l=2.0e-3,  # cm
    v_g=100.0,  # cm/s
    rho_0=0.0,  # 1/cm^3
    w_y=2.9452e-3,  # cm, about 50 effective wavelengths
    delta_shift=0.0,
)


def make_params(**overrides) -> PhysicalParams:
    vals = dict(_BASE)
    vals.update(overrides)
    return PhysicalParams(**vals)


def red_detuned(params: PhysicalParams) -> PhysicalParams:
    """Same atom driven 2 pi GHz below resonance."""
    return replace(params, omega_l=params.omega_a - 2.0 * math.pi * 1.0e9)


def with_g0(params: PhysicalParams, g0: float) -> PhysicalParams:
    """Retune rabi_peak so the accumulated-phase scale is exactly g0.

    g0 carries the sign of the detuning; asking for the wrong sign is a
    test bug, not a physics case.
    """
    delta = detuning(params)
    if g0 * delta < 0.0:
        raise ValueError("g0 must carry the sign of the detuning")
    rabi = math.sqrt(
        abs(g0) * 16.0 * abs(delta) * params.v_g / (params.w_l * math.sqrt(math.pi))
    )
    return replace(params, rabi_peak=rabi)


def with_v0rho(params: PhysicalParams, x: float) -> PhysicalParams:
    """Set rho_0 so V0*rho_0 equals x (x must share the detuning's sign)."""
    rho = x / characteristic_volume(params)
    if rho < 0.0:
        raise ValueError("requested V0*rho_0 has the wrong sign for this detuning")
    return replace(params, rho_0=rho)


def with_wy_lambdas(params: PhysicalParams, n_lambdas: float) -> PhysicalParams:
    """Set the packet width to an exact number of effective wavelengths."""
    return replace(params, w_y=n_lambdas * effective_wavelength(params))


def params_file_text(params: PhysicalParams, units: str = "cgs") -> str:
    """A parameter file of the CGS set params, written in units."""
    lines = [f"units = {units}"]
    for f in fields(params):
        value = convert_field(getattr(params, f.name), f.name, "cgs", units)
        lines.append(f"{f.name} = {format(value, '.17g')}")
    return "\n".join(lines) + "\n"


# Every memoized grid helper of propagate (see its module docstring).
GRID_MEMOS = (propagate.gaussian_profile, propagate.standing_wave_pattern, propagate.order_bins)
# Every memo of the package: the grid helpers, the parameter parse of
# units and the key quoting of serialize; a test that starts cold, as a
# one-shot process does, clears them all.
MEMOS = (*GRID_MEMOS, units.parse_param_file, serialize._quoted)


def poison_z_step(monkeypatch, at_step: int, real_steps) -> dict:
    """Make a kinetic-on transit's field NaN after z-step at_step.

    A kinetic-on step opens its stretch with a half phase, then applies
    one phase per z-step, each a propagate._settle call; a new stretch
    opens after each of the transit's `real_steps`. Returns the field
    after each z-step, by step number, as far as the transit got.
    """
    real_settle = propagate._settle
    fields = {}
    z_step, opening = 0, True

    def settle(psi, drive, weight):
        nonlocal z_step, opening
        out = real_settle(psi, drive, weight)
        if opening:  # a stretch's opening half
            opening = False
            return out
        z_step += 1
        if z_step == at_step:
            out = out * np.nan
        fields[z_step] = out
        opening = z_step in real_steps
        return out

    monkeypatch.setattr(propagate, "_settle", settle)
    return fields


def poison_envelope(monkeypatch, where) -> None:
    """Make the laser envelope E(z) NaN wherever where(z) holds.

    A transit samples E once, through propagate._envelope, at the N + 1
    endpoint z of its z-steps; the samples elsewhere keep their bits.
    """
    real_envelope = propagate._envelope

    def envelope(params, z):
        return np.where(where(z), np.nan, real_envelope(params, z))

    monkeypatch.setattr(propagate, "_envelope", envelope)


@pytest.fixture()
def base_params() -> PhysicalParams:
    return make_params()


@pytest.fixture()
def params_file(tmp_path):
    """Path of a CGS parameter file for the reference point."""
    path = tmp_path / "ref.params"
    path.write_text(params_file_text(make_params(), "cgs"), encoding="utf-8")
    return str(path)


@pytest.fixture()
def si_params_file(tmp_path):
    path = tmp_path / "ref_si.params"
    path.write_text(params_file_text(make_params(), "si"), encoding="utf-8")
    return str(path)


class OracleParser(argparse.ArgumentParser):
    """argparse with the two rules cli's reader adds to it: a usage error
    exits 1, not 2, and every token of "-" then a digit or "." is a value
    (argparse alone takes only -N and -N.N)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def argparse_kwargs(spec: dict) -> dict:
    """add_argument's keywords for an entry of cli._FLAGS."""
    kwargs = {key: value for key, value in spec.items() if key not in ("negatable", "min")}
    if spec.get("negatable"):
        kwargs["action"] = argparse.BooleanOptionalAction
    if "min" in spec:

        def at_least(text, kind=spec["type"], least=spec["min"]):
            try:
                value = kind(text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid {kind.__name__} value: {text!r}"
                ) from None
            if value < least:
                raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
            return value

        kwargs["type"] = at_least
    return kwargs


def oracle_parser(command: str) -> argparse.ArgumentParser:
    """An argparse parser of one command's flags, built from cli's tables,
    that wraps its usage at 78 columns whatever the terminal's width."""
    from matteroptics import cli

    parser = OracleParser(
        prog=f"matteroptics {command}",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
    )
    for key in (*cli._COMMON, *cli._COMMANDS[command][1:]):
        parser.add_argument(key.split()[-1], **argparse_kwargs(cli._FLAGS[key]))
    return parser
