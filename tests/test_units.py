"""Unit table, parameter validation, and the parameter-file format."""

import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matteroptics import units
from matteroptics.errors import ParameterError
from matteroptics.units import (
    C_LIGHT,
    HBAR,
    PhysicalParams,
    checked_divisor,
    checked_power,
    convert_dimension,
    convert_field,
    detuning,
    parse_param_file,
    read_param_file,
)

from conftest import make_params, params_file_text


def test_constants():
    assert HBAR == 1.054571817e-27
    assert C_LIGHT == 2.99792458e10


# Every SI-unit field, one per dimension, plus the volume of alpha and V0.
_SI_FACTORS = {
    "w_y": 100.0,  # m -> cm
    "k_l": 1.0e-2,  # 1/m -> 1/cm
    "rho_0": 1.0e-6,  # 1/m^3 -> 1/cm^3
    "mass": 1.0e3,  # kg -> g
    "v_g": 100.0,  # m/s -> cm/s
    "dipole": 2.99792458e11,  # C*m -> statC*cm
    "omega_a": 1.0,  # rad/s in both systems
    "harmonic": 1.0,  # dimensionless
}


def _convert(value, name, from_system, to_system):
    if name == "volume":
        return convert_dimension(value, "volume", from_system, to_system)
    return convert_field(value, name, from_system, to_system)


def test_exact_conversion_factors():
    for name, factor in {**_SI_FACTORS, "volume": 1.0e6}.items():
        assert _convert(1.0, name, "si", "cgs") == factor, name
    # the one volume factor serves both directions of the alpha and V0 echoes
    assert convert_dimension(1.0, "volume", "cgs", "si") == 1.0e-6


def test_identity_conversion_is_exact():
    ugly = 0.1234567890123456789
    for name in (*_SI_FACTORS, "volume"):
        for system in ("si", "cgs"):
            assert _convert(ugly, name, system, system) == ugly, name
    assert convert_field(ugly, "omega_a", "si", "cgs") == ugly
    assert convert_field(ugly, "harmonic", "cgs", "si") == ugly


@given(
    value=st.floats(min_value=1e-12, max_value=1e12),
    name=st.sampled_from([*_SI_FACTORS, "volume"]),
)
def test_round_trip_property(value, name):
    there = _convert(value, name, "si", "cgs")
    back = _convert(there, name, "cgs", "si")
    assert back == pytest.approx(value, rel=1e-15)


class TestPhysicalParams:
    def test_valid_construction(self):
        p = make_params()
        assert p.mass > 0.0
        assert p.rho_0 == 0.0  # zero density is a legal operating point

    def test_positive_fields_rejected_at_zero(self):
        for name in ("mass", "dipole", "omega_a", "k_l", "harmonic", "w_l", "v_g", "w_y"):
            with pytest.raises(ParameterError, match=name):
                make_params(**{name: 0.0})

    def test_nonnegative_fields(self):
        make_params(gamma=0.0)  # coherent limit is allowed
        with pytest.raises(ParameterError, match="rho_0"):
            make_params(rho_0=-1.0)
        with pytest.raises(ParameterError, match="gamma"):
            make_params(gamma=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            make_params(w_y=math.inf)
        with pytest.raises(ParameterError, match="finite"):
            make_params(rho_0=math.nan)

    def test_bool_rejected(self):
        with pytest.raises(ParameterError, match="real number"):
            make_params(harmonic=True)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(Exception):
            p.mass = 1.0


def test_detuning_sign_and_shift():
    p = make_params()
    assert detuning(p) == pytest.approx(2.0 * math.pi * 1.0e9, rel=1e-9)
    shifted = make_params(delta_shift=1.0e9)
    assert detuning(shifted) == pytest.approx(detuning(p) - 1.0e9, rel=1e-12)
    red = make_params(omega_l=p.omega_a - 5.0e8)
    assert detuning(red) < 0.0


def test_si_param_file_matches_field_conversions():
    # the file's values are kept as typed, and each is converted once
    cgs = make_params()
    pf = parse_param_file(params_file_text(cgs, "si"))
    assert pf.units == "si"
    for name in units._FIELDS:
        typed, got = getattr(pf.typed, name), getattr(pf.params, name)
        assert got == convert_field(typed, name, "si", "cgs"), name
        assert got == pytest.approx(getattr(cgs, name), rel=1e-14), name


class TestParamFile:
    def test_a_cgs_file_is_its_own_typed_set(self):
        pf = parse_param_file(params_file_text(make_params(), "cgs"))
        assert pf.params is pf.typed

    def test_refuses_a_system_other_than_si_and_cgs(self):
        with pytest.raises(ParameterError, match="units must be 'si' or 'cgs', got 'mks'"):
            units.ParamFile(make_params(), "mks")


def test_checked_power_names_what_overflows():
    assert checked_power(3.0, 2, "x") == 3.0**2
    assert checked_power(-2.0, 3, "x") == -8.0
    with pytest.raises(ParameterError) as err:
        checked_power(1e300, 2, "dipole")
    assert str(err.value) == "dipole = 1e+300 is out of range: its power 2 overflows"
    with np.errstate(over="ignore"):  # an array power gives inf and does not raise
        assert checked_power(np.array([1e300]), 2, "dipole")[0] == math.inf


def test_checked_divisor_names_what_underflows():
    # the same power as checked_power, bit for bit, and refused where it
    # would divide by 0
    for value in (3.0, 1e-150, 7.3e-3):
        assert checked_divisor(value, 2, "w_l") == checked_power(value, 2, "w_l")
    with pytest.raises(ParameterError) as err:
        checked_divisor(1e-300, 2, "w_l")
    assert str(err.value) == "w_l = 1e-300 is out of range: its power 2 underflows to 0"
    with pytest.raises(ParameterError, match="overflows"):
        checked_divisor(1e300, 2, "w_l")


def test_convert_field_factors():
    p = make_params()
    assert convert_field(p.mass, "mass", "cgs", "si") == pytest.approx(p.mass / 1e3, rel=1e-15)
    assert convert_field(p.w_y, "w_y", "cgs", "si") == pytest.approx(p.w_y / 1e2, rel=1e-15)
    assert convert_field(p.k_l, "k_l", "cgs", "si") == pytest.approx(p.k_l * 1e2, rel=1e-15)
    assert convert_field(p.rho_0, "rho_0", "cgs", "si") == p.rho_0 * 1e6
    assert convert_field(p.harmonic, "harmonic", "cgs", "si") == p.harmonic
    assert convert_field(p.dipole, "dipole", "cgs", "cgs") == p.dipole


def test_convert_field():
    assert convert_field(1.0, "rho_0", "si", "cgs") == 1.0e-6
    assert convert_field(2.5, "harmonic", "si", "cgs") == 2.5
    assert convert_field(3.0, "w_y", "cgs", "cgs") == 3.0
    with pytest.raises(ParameterError) as err:
        convert_field(1.0, "wingspan", "si", "cgs")
    names = ", ".join(sorted(f.name for f in fields(PhysicalParams)))
    assert str(err.value) == f"unknown parameter 'wingspan'; valid names: {names}"
    with pytest.raises(ParameterError, match="units"):
        convert_field(1.0, "rho_0", "si", "imperial")


class TestParamFileFormat:
    def test_full_cgs_file(self):
        p = make_params()
        pf = parse_param_file(params_file_text(p, "cgs"))
        assert pf.units == "cgs"
        assert pf.params == p

    def test_full_si_file(self):
        p = make_params()
        pf = parse_param_file(params_file_text(p, "si"))
        assert pf.units == "si"
        for name in ("mass", "k_l", "w_y", "dipole"):
            assert getattr(pf.params, name) == pytest.approx(
                getattr(p, name), rel=1e-14
            )

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n" + params_file_text(make_params(), "cgs")
        assert parse_param_file(text).units == "cgs"

    def test_missing_units_declaration(self):
        text = params_file_text(make_params(), "cgs").replace("units = cgs\n", "")
        with pytest.raises(ParameterError, match="units"):
            parse_param_file(text)

    def test_units_override_wins(self):
        p = make_params()
        text = params_file_text(p, "cgs")
        pf = parse_param_file(text, units_override="si")
        # same numbers, now read as SI: lengths shrink by 100 going to cm
        assert pf.units == "si"
        assert pf.params.w_l == pytest.approx(p.w_l * 100.0, rel=1e-14)

    def test_unknown_key_reports_line(self):
        text = "units = cgs\nwingspan = 3\n"
        with pytest.raises(ParameterError, match=r"line 2.*wingspan"):
            parse_param_file(text)

    def test_duplicate_key_reports_line(self):
        text = params_file_text(make_params(), "cgs") + "mass = 1\n"
        with pytest.raises(ParameterError, match="duplicate key 'mass'"):
            parse_param_file(text)

    def test_bad_number(self):
        text = "units = cgs\nmass = heavy\n"
        with pytest.raises(ParameterError, match="could not parse value"):
            parse_param_file(text)

    def test_missing_required_keys_are_named(self):
        with pytest.raises(ParameterError, match="mass"):
            parse_param_file("units = cgs\n")

    def test_delta_shift_optional(self):
        text = params_file_text(make_params(), "cgs")
        text = "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("delta_shift")
        )
        pf = parse_param_file(text)
        assert pf.params.delta_shift == 0.0

    def test_malformed_line(self):
        with pytest.raises(ParameterError, match="line 2"):
            parse_param_file("units = cgs\njust words\n")

    def test_read_param_file(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text(params_file_text(make_params(), "cgs"), encoding="utf-8")
        assert read_param_file(str(path)).params == make_params()


class TestParseMemo:
    """parse_param_file is memoized on (text, units_override), never on a path."""

    def test_the_same_text_gives_the_same_object(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text(params_file_text(make_params(), "cgs"), encoding="utf-8")
        first = read_param_file(str(path))
        assert read_param_file(str(path)) is first
        assert parse_param_file(params_file_text(make_params(), "cgs"), None) is first

    def test_a_rewritten_file_is_read_anew(self, tmp_path):
        # same path, same byte count and the same mtime: only the text differs
        path = tmp_path / "p.params"
        old, new = (params_file_text(make_params(rho_0=rho), "cgs") for rho in (1e14, 2e14))
        assert len(old) == len(new) and old != new
        path.write_text(old, encoding="utf-8")
        stamp = os.stat(path).st_mtime_ns
        assert read_param_file(str(path)).params.rho_0 == 1e14
        path.write_text(new, encoding="utf-8")
        os.utime(path, ns=(stamp, stamp))
        assert read_param_file(str(path)).params.rho_0 == 2e14

    def test_the_units_override_is_part_of_the_key(self):
        text = params_file_text(make_params(), "cgs")
        as_cgs, as_si = parse_param_file(text, None), parse_param_file(text, "si")
        assert (as_cgs.units, as_si.units) == ("cgs", "si")
        assert as_si.params.w_l == pytest.approx(100.0 * as_cgs.params.w_l, rel=1e-14)
        assert parse_param_file(text, "si") is as_si
        assert parse_param_file(text, None) is as_cgs

    def test_a_failing_text_raises_at_every_call(self):
        text = "units = cgs\nwingspan = 3\n"
        for _ in range(3):
            with pytest.raises(ParameterError, match=r"line 2.*wingspan"):
                parse_param_file(text, None)

    def test_the_memo_holds_the_named_number_of_entries(self):
        assert parse_param_file.cache_parameters()["maxsize"] == units.PARAM_MEMO_SIZE
