"""The README's command-line examples, run against its own parameter file.

Every `$ matteroptics ...` example is run through main(argv) in a
directory holding the README's `ini` block as `sodium.params`; every
line the README shows beneath it, other than `...`, must appear
verbatim in the output. `$ head -N FILE` examples read the first N
lines of a file an earlier example wrote.
"""

import contextlib
import io
import json
import math
import re
import shlex
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from matteroptics import PhysicalParams, units
from matteroptics.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def _examples():
    """(command argv, shown lines) for each `$` line of the text blocks."""
    examples = []
    for block in _blocks("text"):
        if not block.startswith("$ "):
            continue
        for chunk in re.split(r"^\$ ", block.replace("\\\n", " "), flags=re.M)[1:]:
            command, *shown = chunk.splitlines()
            examples.append((shlex.split(command), shown))
    return examples


EXAMPLES = _examples()


def test_readme_has_every_command_example():
    (ini,) = _blocks("ini")
    assert ini.startswith("units = cgs\n")
    commands = [argv[1] for argv, _ in EXAMPLES if argv[0] == "matteroptics"]
    assert commands == ["optics", "validity", "diffract", "propagate", "bloch", "sweep"]


def test_readme_examples_print_what_they_show(tmp_path, monkeypatch):
    (ini,) = _blocks("ini")
    (tmp_path / "sodium.params").write_text(ini, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv, shown in EXAMPLES:
        if argv[0] == "head":
            count = int(argv[1].lstrip("-"))
            output = Path(argv[2]).read_text(encoding="utf-8").splitlines()[:count]
        else:
            assert argv[0] == "matteroptics"
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv[1:])
            assert code == 0, argv
            output = out.getvalue().splitlines()
        for line in shown:
            if line != "...":
                assert line in output, f"{' '.join(argv)}: missing {line!r}"


def _run_with(field, value, tmp_path, monkeypatch):
    """(argv, code, stdout, stderr) of each command example, run on the
    README file with `field` set to `value`; an exception is a traceback."""
    (ini,) = _blocks("ini")
    text, count = re.subn(rf"^{field} = .*$", f"{field} = {value}", ini, flags=re.M)
    assert count == 1
    (tmp_path / "sodium.params").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv, _ in EXAMPLES:
        if argv[0] != "matteroptics":
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv[1:])
        message = err.getvalue()
        assert code in (0, 1, 2), argv
        assert message.count("\n") <= 1, argv
        if code == 1:
            assert message.startswith("error: "), argv
        yield argv[1], code, out.getvalue(), message


@pytest.mark.parametrize("value", ["1e300", "1e-300", "5e-324"])
@pytest.mark.parametrize("field", [f.name for f in fields(PhysicalParams)])
def test_an_extreme_field_ends_every_example_with_an_exit_code(field, value, tmp_path, monkeypatch):
    # 1e300, 1e-300 and the smallest subnormal are finite, so the file
    # parses; whatever overflows or underflows further on must end in an
    # exit code and at most one line of message. A tiny value must also
    # raise no numpy warning on the way.
    with warnings.catch_warnings():
        # numpy's overflow warnings are expected at 1e300 only
        warnings.simplefilter("ignore" if value == "1e300" else "error")
        for _ in _run_with(field, value, tmp_path, monkeypatch):
            pass


_NARROW = "packet too narrow for the grid: w_y spans too few of its cells; need at least 4"
_WIDE = "packet too wide for the grid: w_y spans too much of its length; need w_y < length/6"

# How a field at a tiny value ends the example that divides by it, or by
# a power or product of it that underflows to 0: (command, exit code,
# text the message holds). optics reports its failures in the errors
# column, exit 2.
_TINY = {
    ("w_l", "1e-300"): (
        "propagate", 1, "error: w_l is out of range: its power 2 underflows to 0"
    ),
    ("dipole", "1e-300"): ("optics", 2, '"dipole is out of range: V0 underflows to 0'),
    ("w_y", "1e-300"): (
        "propagate", 1, "error: w_y is out of range: its square underflows to 0"
    ),
    ("v_g", "1e-300"): (
        "diffract", 1, "orders needed at tau = 1.7751062741615415e+302 (q_max = 3)"
    ),
    ("omega_a", "5e-324"): ("optics", 2, '"a_s k_a underflows to 0: scattering_length = '),
    ("v_g", "5e-324"): (
        "propagate", 1, "error: v_g is out of range: the transit time 8 w_L / v_g overflows"
    ),
    ("rabi_peak", "1e-300"): (
        "optics", 2, '"rabi_peak / detuning is out of range: its power 2 underflows to 0'
    ),
    # the standing-wave period outgrows the box, and its grid's cells the packet
    ("k_l", "1e-300"): ("propagate", 1, f"error: {_NARROW}"),
    ("harmonic", "1e-300"): ("propagate", 1, f"error: {_NARROW}"),
    ("rho_0", "5e-324"): (
        "propagate", 1, "error: rho_0 is out of range: the packet's norm underflows to 0"
    ),
}


@pytest.mark.parametrize("field, value", sorted(_TINY))
def test_a_tiny_field_ends_every_example_without_a_warning(field, value, tmp_path, monkeypatch):
    # 1e-300 and 5e-324 are finite too; a square or a product of them
    # underflows to 0, and a tau divided by one needs more orders than any
    # run may hold
    command, expected_code, text = _TINY[field, value]
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a traceback here
        for name, code, out, message in _run_with(field, value, tmp_path, monkeypatch):
            if name == command:
                seen.append(code)
                assert text in (out if name == "optics" else message)
    assert seen == [expected_code]


def _si_copy(ini):
    """The README's CGS file written in SI: each value converted once."""

    def line(m):
        key, value = m[1], m[2]
        if key == "units":
            return "units = si"
        return f"{key} = {units.convert_field(float(value), key, 'cgs', 'si')!r}"

    return re.sub(r"^(\w+) = (.*)$", line, ini, flags=re.M)


def _main_on_the_readme_file(argv, tmp_path, monkeypatch, si=False, **fields):
    """(exit code, stdout, stderr) of main(argv) beside the README's file,
    or its SI copy, with `fields` set in it as typed; a numpy warning is a
    traceback here."""
    (ini,) = _blocks("ini")
    if si:
        ini = _si_copy(ini)
    for field, value in fields.items():
        ini = re.sub(rf"^{field} = .*$", f"{field} = {value}", ini, flags=re.M)
    (tmp_path / "sodium.params").write_text(ini, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


# A field typed in an SI file that passes its range rule and its
# conversion, but whose CGS value overflows or underflows further on: the
# message names the field and the rule, never the converted number.
_SI_REFUSALS = {
    "dipole": ("1e160", "diffract", "dipole is out of range: its power 2 overflows"),
    "w_l": ("1e-300", "propagate", "w_l is out of range: its power 2 underflows to 0"),
    "w_y": ("1e-300", "propagate", "w_y is out of range: its square underflows to 0"),
    "rho_0": (
        "1e300", "propagate", "rho_0 is out of range: the full model's (1 + V0 rho)^2 overflows"
    ),
}


@pytest.mark.parametrize(
    "fields, message", [({"w_y": "1.0"}, _WIDE), ({"k_l": "1e-300"}, _NARROW)]
)
def test_an_si_grid_fit_refusal_prints_no_converted_number(
    fields, message, tmp_path, monkeypatch
):
    # the grid's length and cells are CGS numbers; the message names w_y
    # and the rule, so an SI file sees no converted number
    code, out, err = _main_on_the_readme_file([
        "propagate", "--params", "sodium.params", "--grid-points", "4096",
        "--box-lambdas", "128", "--out", "wide",
    ], tmp_path, monkeypatch, si=True, **fields)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert list(tmp_path.glob("wide*")) == []


@pytest.mark.parametrize("field", list(_SI_REFUSALS))
def test_an_si_refusal_prints_no_converted_number(field, tmp_path, monkeypatch):
    value, command, message = _SI_REFUSALS[field]
    argv, base = _PROBES[command]
    base = {k: repr(units.convert_field(float(v), k, "cgs", "si")) for k, v in base.items()}
    code, out, err = _main_on_the_readme_file(
        argv, tmp_path, monkeypatch, si=True, **{**base, field: value}
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    # the conversion moves the number, so a message that printed one would show it
    assert units.convert_field(float(value), field, "si", "cgs") != float(value)


@pytest.mark.parametrize("kinetic", ["--kinetic", "--no-kinetic"])
def test_a_huge_density_is_refused_by_the_full_model(kinetic, tmp_path, monkeypatch):
    # at rho_0 = 1e300, (1 + V0 rho)^2 overflows: the potential would be
    # exactly 0 and the packet would leave in the zero order
    code, out, err = _main_on_the_readme_file([
        "propagate", "--params", "sodium.params", "--grid-points", "4096",
        "--steps", "64", kinetic, "--q-max", "2", "--out", "dense",
    ], tmp_path, monkeypatch, rho_0="1e300")
    assert (code, out) == (1, "")
    assert err == (
        "error: rho_0 is out of range: the full model's (1 + V0 rho)^2 overflows\n"
    )
    assert list(tmp_path.glob("dense*")) == []


@pytest.mark.parametrize("kinetic, phase", [("--kinetic", "2.83e+283"), ("--no-kinetic", "4.01e+284")])
def test_a_huge_density_is_refused_by_the_gp_model(kinetic, phase, tmp_path, monkeypatch):
    # at rho_0 = 1e300 the gp potential stays finite, but a z-step's phase
    # (kinetic on) or the one stretch's (off) is far past what a double
    # resolves mod 2 pi, so the run would report noise as orders
    code, out, err = _main_on_the_readme_file([
        "propagate", "--params", "sodium.params", "--grid-points", "4096",
        "--steps", "64", kinetic, "--q-max", "2", "--model", "gp", "--out", "dense",
    ], tmp_path, monkeypatch, rho_0="1e300")
    assert (code, out) == (1, "")
    assert err == (
        f"error: out of range for the gp model: a potential phase of {phase} rad in one "
        "exponential exceeds the 4e+09 rad a double resolves; it grows as rabi_peak^2 w_l / "
        "(|detuning| v_g), and with rho_0 through the model's density factor\n"
    )
    assert list(tmp_path.glob("dense*")) == []


@pytest.mark.parametrize("argv, fields, phase", [
    (["propagate", "--no-kinetic", "--out", "slow"], {"v_g": "1e-8"}, "8e+10"),
    (["diffract", "--paths", "propagator"], {"v_g": "1e-8"}, "8e+10"),
    (["propagate", "--no-kinetic", "--out", "slow"], {"rabi_peak": "1e13"}, "1.41e+11"),
    # so slow a beam that the weight dt V / hbar itself overflows
    (["propagate", "--no-kinetic", "--out", "slow"], {"v_g": "1e-300"}, "inf"),
    (["propagate", "--kinetic", "--out", "slow"], {"v_g": "1e-300"}, "inf"),
    (["diffract", "--paths", "propagator"], {"v_g": "1e-300"}, "inf"),
])
def test_a_phase_past_the_ceiling_names_what_it_grows_with(
    argv, fields, phase, tmp_path, monkeypatch
):
    # the README point is dilute (rho_0 = 0): a slow beam or a strong drive
    # makes the phase, so the message names the beam and the drive, and
    # rho_0 only through the model's factor
    code, out, err = _main_on_the_readme_file(
        [*argv, "--params", "sodium.params"], tmp_path, monkeypatch, **fields
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: out of range for the full model: a potential phase of {phase} rad in one "
        "exponential exceeds the 4e+09 rad a double resolves; it grows as rabi_peak^2 w_l / "
        "(|detuning| v_g), and with rho_0 through the model's density factor\n"
    )
    assert list(tmp_path.glob("slow*")) == []


@pytest.mark.parametrize("kinetic, v_g, phase", [
    ("--kinetic", "1e-8", "1.76e+10"),
    ("--no-kinetic", "1e-8", "3.97e+10"),
    ("--kinetic", "1e-300", "inf"),
    ("--no-kinetic", "1e-300", "inf"),
])
def test_a_transit_refused_with_snapshots_leaves_no_file(
    kinetic, v_g, phase, tmp_path, monkeypatch
):
    # the refusal comes after the entry snapshot, and at v_g = 1e-8 after
    # the one at step 4 too; a refused input leaves no file all the same
    code, out, err = _main_on_the_readme_file([
        "propagate", "--params", "sodium.params", "--grid-points", "4096", kinetic,
        "--steps", "16", "--q-max", "2", "--snapshots", "4", "--out", "slow",
    ], tmp_path, monkeypatch, v_g=v_g)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: out of range for the full model: a potential phase of {phase} ")
    assert list(tmp_path.glob("slow*")) == []


@pytest.mark.parametrize("kinetic", ["--kinetic", "--no-kinetic"])
def test_the_wallis_model_keeps_its_own_limit_at_a_huge_density(kinetic, tmp_path, monkeypatch):
    # its screened potential falls as 1/rho: a phase of about 1e-284 rad
    # leaves the packet in the zero order, which is that model's limit
    code, out, err = _main_on_the_readme_file([
        "propagate", "--params", "sodium.params", "--grid-points", "4096",
        "--steps", "64", kinetic, "--q-max", "2", "--model", "wallis", "--out", "dense",
        "--format", "json",
    ], tmp_path, monkeypatch, rho_0="1e300")
    assert (code, err) == (0, "")
    report = json.loads((tmp_path / "dense_report.json").read_text(encoding="utf-8"))
    assert report["spectrum"]["0"] == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("paths, message", [
    # the series runs first and refuses its Bessel row before the grid exists
    ("all", "error: 2e+06 orders needed at tau = 3.9999255302072587 (q_max = 2e+06), "
            "more than the ceiling of 1000000\n"),
    ("numeric,propagator", "error: q_max = 2000000 does not fit in the spectral range: "
                           "(q_max + 1/2)*64 must be <= 512; this grid supports q_max <= 7 "
                           "(use more grid points for more orders)\n"),
])
def test_too_many_orders_are_refused_by_the_first_route_to_need_them(
    paths, message, tmp_path, monkeypatch
):
    code, out, err = _main_on_the_readme_file([
        "diffract", "--params", "sodium.params", "--paths", paths, "--q-max", "2000000",
        "--grid-points", "1024", "--box-lambdas", "32",
    ], tmp_path, monkeypatch)
    assert (code, out, err) == (1, "", message)


# Small runs of every command that reads the parameter file: (argv, the
# fields each sets in the README's file before the probed one). The
# propagate packet is 4 wavelengths wide, so a 32-wavelength box holds it.
_PROBES = {
    "optics": (["optics", "--params", "sodium.params"], {}),
    "validity": (["validity", "--params", "sodium.params", "--saturation", "1"], {}),
    "diffract": ([
        "diffract", "--params", "sodium.params", "--paths", "all", "--grid-points", "4096",
        "--box-lambdas", "128", "--steps", "64", "--q-max", "3",
    ], {}),
    "propagate": ([
        "propagate", "--params", "sodium.params", "--grid-points", "1024",
        "--box-lambdas", "32", "--steps", "8", "--out", "probe",
    ], {"w_y": repr(4.0 * 2.0 * math.pi / 1.0667e5)}),
    "sweep": (["sweep", "--params", "sodium.params", "--axis", "rho_0", "--values", "1e16"], {}),
    "bloch": ([
        "bloch", "--params", "sodium.params", "--density", "2e16", "--drive-re", "1e7",
        "--dt", "1e-11", "--steps", "8",
    ], {}),
}


@pytest.mark.parametrize("command", list(_PROBES))
def test_each_probe_command_runs_clean_on_the_readme_file(command, tmp_path, monkeypatch):
    # the probes below start from a run that works
    argv, base = _PROBES[command]
    assert _main_on_the_readme_file(argv, tmp_path, monkeypatch, **base)[::2] == (0, "")


@pytest.mark.parametrize("value", ["1e-300", "5e-324"])
@pytest.mark.parametrize("field", list(units._FIELDS))
@pytest.mark.parametrize("command", list(_PROBES))
def test_a_tiny_field_ends_every_command_with_an_exit_code(
    command, field, value, tmp_path, monkeypatch
):
    # every field at a tiny finite value, through a small run of each
    # command: an exit code, no numpy warning (an exception out of main is
    # a traceback) and one message line for a failure. A usage error is
    # one "error: " line; exit 2 is a guard's one line, or a report whose
    # flags or errors column carry the failure and nothing on stderr
    argv, base = _PROBES[command]
    code, out, err = _main_on_the_readme_file(
        argv, tmp_path, monkeypatch, **{**base, field: value}
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    elif code == 2:
        assert (err.count("\n") == 1 and err.endswith("\n")) if err else out
