"""End-to-end command-line behavior through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matteroptics
from matteroptics import characteristic_volume, cli, propagate, units
from matteroptics.cli import main
from matteroptics.diffraction import (
    DEFAULT_BOX_LAMBDAS,
    DEFAULT_GRID_POINTS,
    DEFAULT_Z_STEPS,
    analytic_orders,
    commensurate_grid,
    default_q_max,
)
from matteroptics.sweep import SweepSpec
from matteroptics.errors import NumericsError, PhysicsGuardError
from matteroptics.serialize import csv_num
from matteroptics.units import convert_field, detuning

from conftest import (
    MEMOS,
    make_params,
    oracle_parser,
    params_file_text,
    poison_envelope,
    poison_z_step,
    red_detuned,
    with_g0,
    with_v0rho,
    with_wy_lambdas,
)


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_params(tmp_path, params, units="cgs", name="p.params"):
    path = tmp_path / name
    path.write_text(params_file_text(params, units), encoding="utf-8")
    return str(path)


def kv_table(text):
    rows = {}
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        rows[cells[0]] = cells[1]
    return rows


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip().startswith("matteroptics ")

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "optics", "--bogus")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("bloch", "--detuning", "-5e-1", "--dt", "0.01", "--steps", "3"),
        ("bloch", "--detuning", "0.5", "--drive-re", "-1e-1", "--dt", "0.01", "--steps", "3"),
        ("bloch", "--detuning", "-5E-1", "--dt", "0.01", "--steps", "3"),
        ("sweep", "--axis", "delta_shift", "--values", "-1e9,0", "--q-max", "2"),
    ])
    def test_negative_values_in_any_notation_are_values(self, capsys, params_file, argv):
        # argparse alone reads only -N and -N.N as numbers, so these were
        # taken for flags; the attached --flag=value form gives the same bytes
        command, *rest = argv
        code, out, err = run(capsys, command, "--params", params_file, *rest)
        assert (code, err) == (0, "") and out
        i = next(i for i, token in enumerate(rest) if token[:2] in ("-5", "-1"))
        attached = [*rest[: i - 1], f"{rest[i - 1]}={rest[i]}", *rest[i + 1 :]]
        assert run(capsys, command, "--params", params_file, *attached) == (code, out, err)
        code, _, err = run(capsys, command, "--params", params_file, *rest, "--bogus")
        assert code == 1 and "unrecognized arguments: --bogus" in err

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "optics")
        assert code == 1
        assert "--params" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "optics", "--params", "/nonexistent/x.params")
        assert code == 1
        assert "i/o error" in err

    @pytest.mark.parametrize("threads, message", [
        ("0", "must be >= 1, got 0"),
        ("-3", "must be >= 1, got -3"),
        ("two", "invalid int value: 'two'"),
    ])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_threads_below_one_are_a_usage_error(
        self, capsys, params_file, tmp_path, command, threads, message
    ):
        # rejected as the flag is parsed, on every command, before any work
        needed = {
            "propagate": ["--out", str(tmp_path / "run")],
            "bloch": ["--dt", "1e-9", "--steps", "1"],
            "sweep": ["--values", "0"],
        }
        code, out, err = run(
            capsys, command, "--params", params_file, "--format", "json",
            "--threads", threads, *needed.get(command, []),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: matteroptics {command} ")
        assert err.endswith(
            f"matteroptics {command}: error: argument --threads: {message}\n"
        )
        assert os.listdir(tmp_path) == ["ref.params"]

    def test_parser_is_built_once_and_reused(self, capsys, tmp_path, monkeypatch):
        # the exact path's flag maps are built at import; a call only
        # reads them, so calls in any order give the same replies
        path = write_params(tmp_path, make_params())
        calls = [
            ("optics", "--params", path),
            ("validity", "--params", path, "--format", "json"),
            ("optics", "--bogus"),  # usage error, exit 1
            ("diffract", "--params", path, "--q-max", "3"),
            ("--version",),
            ("optics", "--params", path, "--format", "json"),
        ]
        built = {command: cli._exact_map(command) for command in cli._COMMANDS}
        assert cli._EXACT == built
        monkeypatch.setattr(cli, "_exact_map", lambda command: pytest.fail("maps rebuilt"))
        first = [run(capsys, *argv) for argv in calls]
        assert [r[0] for r in first] == [0, 2, 1, 0, 0, 0]  # validity flags a check
        assert [run(capsys, *argv) for argv in reversed(calls)] == first[::-1]
        assert cli._EXACT == built


def _prog(command):
    return "matteroptics" if command is None else f"matteroptics {command}"


def _option_strings(command):
    """Every option string of command, as argparse registers them."""
    strings = ["-h", "--help"]
    for key in (*cli._COMMON, *cli._COMMANDS[command][1:]):
        flag = key.split()[-1]
        strings.append(flag)
        if cli._FLAGS[key].get("negatable"):
            strings.append(f"--no-{flag[2:]}")
    return strings


def _prefix(option, strings):
    """The shortest prefix of option, three characters or more, that no
    other option string starts with."""
    for n in range(3, len(option)):
        if not any(s.startswith(option[:n]) for s in strings if s != option):
            return option[:n]
    return option


def _samples(spec, k):
    """The k-th value of a flag of spec, as typed: negative-looking ones
    among them, and text with a space that starts with "-"."""
    if "choices" in spec:
        return spec["choices"][k % len(spec["choices"])]
    kind = spec.get("type")
    if kind is int:
        return str(k + 2) if "min" in spec else ("-3", "7", "-1")[k % 3]
    if kind is float:
        return ("-5e-1", "-.25", "1E3", "-1e-300", "+2")[k % 5]
    return ("-1e9,0", "run-1", "-x y", "a=b", "")[k % 5]


def _oracle_argvs(command):
    """Token lists of command's flags in every form argparse reads."""
    strings = _option_strings(command)
    flags = [
        (key.split()[-1], cli._FLAGS[key])
        for key in (*cli._COMMON, *cli._COMMANDS[command][1:])
    ]
    required = [
        token for flag, spec in flags if spec.get("required")
        for token in (flag, _samples(spec, 0))
    ]

    def tokens(k, form):
        out = []
        for flag, spec in flags:
            if spec.get("negatable"):
                out.append(flag if k % 2 else f"--no-{flag[2:]}")
                continue
            value = _samples(spec, k)
            name = _prefix(flag, strings) if form == "prefix" else flag
            out.extend([f"{name}={value}"] if form == "attached" else [name, value])
        return out

    yield required  # every other flag at its default
    for k in range(4):
        for form in ("spaced", "attached", "prefix"):
            yield tokens(k, form)
    yield tokens(0, "spaced") + tokens(1, "attached")  # the last of a repeat wins
    yield tokens(2, "prefix") + required
    for flag, spec in flags:
        if spec.get("negatable"):
            no = f"--no-{flag[2:]}"
            for switches in ([no], [flag], [no, flag], [_prefix(no, strings)],
                             [_prefix(flag, strings), no]):
                yield [*required, *switches]


def _oracle_errors(command):
    """(what, tokens) of one usage error of each kind command can make."""
    strings = _option_strings(command)
    flags = {
        key.split()[-1]: cli._FLAGS[key] for key in (*cli._COMMON, *cli._COMMANDS[command][1:])
    }
    required = [t for f, s in flags.items() if s.get("required") for t in (f, _samples(s, 0))]
    typed = {kind: [f for f, s in flags.items() if s.get("type") is kind and "min" not in s]
             for kind in (int, float)}
    yield "unknown flag", [*required, "--bogus", "3"]
    yield "unknown flag with a value", ["--bogus=3", *required]
    yield "stray value", [*required, "stray"]
    yield "missing value", [*required, "--params"]
    yield "missing value before a flag", ["--params", "--format", "json", *required]
    yield "missing value before --", [*required, "--out", "--", "x"]
    yield "bad int", [*required, (typed[int] or ["--threads"])[0], "1.5"]
    yield "bad float", [*required, typed[float][0], "1,5"]
    yield "empty float", [*required, f"{typed[float][0]}="]
    yield "bad choice", [*required, "--format", "xml"]
    yield "bad attached choice", [*required, "--units=SI"]
    yield "threads 0", [*required, "--threads", "0"]
    yield "threads -3", [*required, "--threads=-3"]
    yield "threads two", [*required, "--threads", "two"]
    yield "value to -h", [*required, "-hx"]
    yield "value to --help", [*required, "--help=1"]
    if required:
        yield "missing required flags", []
        yield "missing a required flag", required[:2]
    for flag, spec in flags.items():
        if spec.get("negatable"):
            yield "value to a switch", [*required, f"{flag}=yes"]
    shared = sorted({s[:n] for s in strings if s.startswith("--") for n in range(3, len(s))
                     if sum(o.startswith(s[:n]) for o in strings) > 1})
    for prefix in shared[:2]:
        yield f"ambiguous prefix {prefix}", [*required, prefix, "1"]
        yield f"ambiguous attached prefix {prefix}", [f"{prefix}=1", *required]


def _token_lists(command):
    """A strategy of command's token lists: whole flags with good values,
    among prefixes, attached values, switches, -h, "--" and stray or bad
    values, and the required flags at the front half the time."""
    strings = _option_strings(command)
    values = st.sampled_from(
        ["-5e-1", "-.25", "0", "3", "two", "", "-", "--", "-x y", "csv", "si", "full", "a=b"]
    )
    pieces = [values.map(lambda v: [v]), st.sampled_from([["-h"], ["--"], ["--bogus"]])]
    required = []
    for key in (*cli._COMMON, *cli._COMMANDS[command][1:]):
        flag, spec = key.split()[-1], cli._FLAGS[key]
        if spec.get("negatable"):
            pieces.append(st.sampled_from([[flag], [f"--no-{flag[2:]}"]]))
            continue
        good = st.sampled_from([_samples(spec, k) for k in range(5)])
        if spec.get("required"):
            required += [flag, _samples(spec, 0)]
        pieces += [
            st.tuples(st.just(flag), good).map(list),
            st.tuples(st.just(flag), good | values).map(list),
            st.tuples(st.sampled_from([flag, _prefix(flag, strings)]), good | values).map(
                lambda pair: ["=".join(pair)]
            ),
        ]
    return st.tuples(st.booleans(), st.lists(st.one_of(pieces), max_size=8)).map(
        lambda drawn: (required if drawn[0] else []) + [t for piece in drawn[1] for t in piece]
    )


def _oracle_reply(capsys, parse, tokens):
    try:
        result = parse(tokens)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestReaderMatchesArgparse:
    """cli's reader against an argparse parser built from the same flag
    table: the same namespace for every form argparse reads, and the same
    exit code and error line for every usage error."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_same_namespace(self, capsys, command):
        oracle = oracle_parser(command)
        cases = list(_oracle_argvs(command))
        assert len(cases) >= 15
        for tokens in cases:
            want, _, err = _oracle_reply(capsys, oracle.parse_args, tokens)
            assert err == "", (tokens, err)
            got = cli._read_args([command, *tokens])
            assert vars(got) == {"command": command, **vars(want)}, tokens

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_same_usage_errors(self, capsys, command):
        oracle = oracle_parser(command)
        kinds = set()
        for what, tokens in _oracle_errors(command):
            code, _, want = _oracle_reply(capsys, oracle.parse_args, tokens)
            assert code == 1, (what, tokens)
            got = run(capsys, command, *tokens)
            assert got == (1, "", want), (what, tokens)
            assert want.startswith(f"usage: matteroptics {command} [-h] "), what
            assert want.splitlines()[-1].startswith(f"matteroptics {command}: error: ")
            kinds.add(what.split()[0])
        assert {"unknown", "missing", "bad", "threads"} <= kinds
        assert ("ambiguous" in kinds) == (command not in ("optics", "validity"))

    @pytest.mark.parametrize("argv", [
        ("-h",), ("--help",), ("--he",), ("-hh",), ("optics", "-h"), ("bloch", "--help"),
        ("sweep", "--params", "x", "--he"), ("propagate", "-hh"),
    ])
    def test_help_is_rendered_from_the_table(self, capsys, argv):
        # argparse wraps -h at 78 columns, and may break a line after a
        # hyphen, so the text is compared with all whitespace taken out
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        command = argv[0] if argv[0] in cli._COMMANDS else None
        assert out.startswith(f"usage: {_prog(command)} [-h] ")
        assert max(map(len, out.splitlines())) <= 78
        squeezed = "".join(out.split())
        if command is None:
            rows = [f"{name}{about}" for name, (about, *_) in cli._COMMANDS.items()]
        else:
            rows = []
            for key in (*cli._COMMON, *cli._COMMANDS[command][1:]):
                spec = cli._FLAGS[key]
                note = (
                    "(required)" if spec.get("required")
                    else "" if spec.get("default") is None else f"(default:{spec['default']})"
                )
                assert f"\n  {key.split()[-1]}" in out, key
                rows.append(spec["help"] + note)
        assert all("".join(row.split()) in squeezed for row in rows)

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_and_usage_render_on_any_argparse(self, monkeypatch, command):
        # BooleanOptionalAction lost metavar and choices in Python 3.14 (3.12
        # and 3.13 warn when they are passed at all, even as None): a switch
        # is built without them, and rendering raises no warning
        import argparse
        import warnings

        class Switch(argparse.BooleanOptionalAction):
            def __init__(self, *args, **kwargs):
                assert not {"metavar", "choices"} & set(kwargs), kwargs
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "BooleanOptionalAction", Switch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parser = cli._parser(command)
            texts = parser.format_help(), parser.format_usage()
        assert all(text.startswith(f"usage: {_prog(command)} [-h] ") for text in texts)

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("--bogus",), "the following arguments are required: command"),
        (("stats",), "argument command: invalid choice: 'stats' (choose from 'optics', "
                     "'validity', 'diffract', 'propagate', 'bloch', 'sweep')"),
        (("--version=1",), "argument --version: ignored explicit argument '1'"),
    ])
    def test_program_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            "usage: matteroptics [-h] [--version]\n"
            "                    {optics,validity,diffract,propagate,bloch,sweep} ...\n"
            f"matteroptics: error: {message}\n"
        )

    @pytest.mark.parametrize("argv", [("--version",), ("--vers",)])
    def test_version(self, capsys, argv):
        assert run(capsys, *argv) == (0, f"matteroptics {matteroptics.__version__}\n", "")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @given(data=st.data())
    def test_the_exact_path_gives_argparse_namespace(self, command, data):
        # _read_exact may decline any line, but a namespace it gives is
        # argparse's; and no line, with or without a command, raises
        tokens = data.draw(_token_lists(command))
        got = cli._read_exact(command, tokens)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if got is not None:
                parser = cli._parser(command)
                assert got == parser.parse_args(tokens, SimpleNamespace(command=command))
            for argv in ([command, *tokens], tokens):
                cli._read_args(argv)

    @pytest.mark.parametrize("flag, message", [
        ("--threads=--", "argument --threads: invalid int value: '--'"),
        ("--units=--", "argument --units: invalid choice: '--' (choose from 'si', 'cgs')"),
    ])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_an_attached_double_dash_is_the_value(self, capsys, command, flag, message):
        # Python 3.11's argparse drops the value of --flag=-- and stores
        # [], so the oracle cannot judge these lines; "--" is read as the
        # value, as the table-driven reader before argparse read it
        code, out, err = run(capsys, command, flag)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: matteroptics {command} [-h] ")
        assert err.endswith(f"\nmatteroptics {command}: error: {message}\n")

    def test_an_attached_double_dash_is_the_file_name(self, capsys):
        assert run(capsys, "optics", "--params=--") == (
            1, "", "i/o error: [Errno 2] No such file or directory: '--'\n"
        )


def test_every_workload_line_takes_the_exact_path(tmp_path, monkeypatch):
    # the benchmark's lines name each flag whole and give each value a
    # token of its own, so none of them reaches argparse; a new flag form
    # in a workload would otherwise move its lines there unseen
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    lines = [
        op.argv
        for name in workloads.WORKLOADS
        for seed in (1, 2)
        for op in workloads.build(name, seed, tmp_path / f"{name}-{seed}").ops
    ]
    assert len(lines) == 234
    for command, *tokens in lines:
        assert cli._read_exact(command, tokens) is not None, (command, *tokens)


class TestOptics:
    QUANTITIES = [
        "alpha", "chi", "n_squared", "local_detuning", "v0", "v0_rho", "adiabatic_ratio",
        "contact_bound", "significant_density_exact", "significant_density_scaling",
    ]

    @pytest.mark.parametrize("fields, failing", [
        ({}, []),
        ({"dipole": 1e300}, [name for name in QUANTITIES if name != "contact_bound"]),
    ])
    def test_one_medium_response_gives_chi_and_n_squared(
        self, capsys, tmp_path, monkeypatch, fields, failing
    ):
        # one bundle per run; a bundle that fails is the error entry of
        # each quantity read from it, in the table's order
        calls = []
        real = cli.medium_response
        monkeypatch.setattr(cli, "medium_response", lambda *a: calls.append(a) or real(*a))
        path = write_params(tmp_path, make_params(**fields))
        code, out, err = run(capsys, "optics", "--params", path, "--density", "3e13",
                             "--format", "json")
        assert (code, err, len(calls)) == (2 if failing else 0, "", 1)
        doc = json.loads(out)
        assert list(doc["errors"]) == failing
        assert list(doc["quantities"]) == ["density"] + [
            name for name in self.QUANTITIES if name not in failing
        ]
        if failing:
            assert doc["errors"]["chi"] == doc["errors"]["n_squared"] == doc["errors"]["alpha"]

    def test_csv_dilute(self, capsys, params_file):
        code, out, _ = run(capsys, "optics", "--params", params_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "quantity,value,error"
        table = kv_table(out)
        assert table["chi"] == "0"  # exactly zero at zero density, not -0
        assert table["n_squared"] == "1"
        assert table["density"] == "0"
        assert float(table["alpha"]) < 0.0  # driven above resonance
        assert float(table["adiabatic_ratio"]) > 100.0
        assert "input_mass" in table

    def test_json_shape(self, capsys, params_file):
        code, out, _ = run(capsys, "optics", "--params", params_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"units", "input", "quantities", "errors", "meta"}
        assert report["errors"] == {}
        assert report["units"] == "cgs"
        assert report["quantities"]["chi"] == 0.0
        assert report["quantities"]["n_squared"] == 1.0
        assert report["meta"]["tool"] == "matteroptics"
        assert report["meta"]["command"] == "optics"
        assert len(report["input"]) == 14

    def test_si_and_cgs_agree(self, capsys, tmp_path):
        p = make_params()
        rho_cgs = with_v0rho(p, 0.3).rho_0
        out_by_units = {}
        for units, dens in (("cgs", rho_cgs), ("si", rho_cgs * 1.0e6)):
            path = write_params(tmp_path, p, units, f"{units}.params")
            code, out, _ = run(
                capsys, "optics", "--params", path, "--format", "json",
                "--density", repr(dens),
            )
            assert code == 0
            out_by_units[units] = json.loads(out)["quantities"]
        cgs, si = out_by_units["cgs"], out_by_units["si"]
        assert si["alpha"] == pytest.approx(cgs["alpha"] * 1.0e-6, rel=1e-12)
        assert si["v0"] == pytest.approx(cgs["v0"] * 1.0e-6, rel=1e-12)
        assert si["v0_rho"] == pytest.approx(cgs["v0_rho"], rel=1e-9)
        assert si["v0_rho"] == pytest.approx(0.3, rel=1e-9)
        assert si["n_squared"] == pytest.approx(cgs["n_squared"], rel=1e-12)
        assert si["significant_density_exact"] == pytest.approx(
            cgs["significant_density_exact"] * 1.0e6, rel=1e-9
        )

    def test_density_echo_matches_validity(self, capsys, tmp_path):
        # 1.637e22 / m^3 does not survive a multiply by 1e-6 and a divide
        # by 1e-6 unchanged; both commands echo the value as typed
        path = write_params(tmp_path, make_params(), units="si")
        echoes = {}
        for command in ("optics", "validity"):
            _, out, _ = run(
                capsys, command, "--params", path, "--format", "json",
                "--density", "1.637e22", "--saturation", "1.0",
            )
            report = json.loads(out)
            echoes[command] = report.get("quantities", report)["density"]
        assert echoes["optics"] == echoes["validity"] == 1.637e22

    def test_zero_detuning_reports_errors(self, capsys, tmp_path):
        path = write_params(tmp_path, make_params(omega_l=3.198e15))
        code, out, _ = run(capsys, "optics", "--params", path)
        assert code == 2
        lines = out.splitlines()
        assert any(l.startswith('alpha,,"') for l in lines)
        assert any(l.startswith('contact_bound,,"') for l in lines)
        assert "local_detuning,0," in lines  # still well defined


class TestValidity:
    NAMES = [
        "adiabatic_ratio", "pole_distance", "packet_broadness",
        "adiabatic_ratio_packet", "pole_distance_packet", "collision_bound",
    ]

    def test_default_saturation_fails_collisions(self, capsys, params_file):
        code, out, _ = run(capsys, "validity", "--params", params_file)
        assert code == 2
        assert [l.split(",")[0] for l in out.splitlines()] == ["check", *self.NAMES]
        rows = {l.split(",")[0]: l.split(",") for l in out.splitlines()[1:]}
        assert rows["collision_bound"][3] == "false"
        assert rows["adiabatic_ratio"][3] == "true"
        assert rows["pole_distance"][3] == "true"
        assert rows["packet_broadness"][3] == "true"

    def test_explicit_saturation_passes(self, capsys, params_file):
        code, out, _ = run(
            capsys, "validity", "--params", params_file, "--saturation", "1.0"
        )
        assert code == 0
        assert "false" not in out

    def test_json(self, capsys, params_file):
        code, out, _ = run(
            capsys, "validity", "--params", params_file,
            "--saturation", "1.0", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_ok"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == self.NAMES
        assert all(c["ok"] for c in report["checks"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_detuning_default_saturation_is_an_error_entry(self, capsys, tmp_path, fmt):
        path = write_params(tmp_path, make_params(omega_l=3.198e15))
        code, out, err = run(capsys, "validity", "--params", path, "--format", fmt)
        assert (code, err) == (2, "")
        message = "cannot derive the default saturation at zero detuning; pass --saturation"
        if fmt == "json":
            checks = json.loads(out)["checks"]
            assert [c["name"] for c in checks] == self.NAMES
            assert checks[-1] == {
                "name": "collision_bound", "value": None, "threshold": 10.0,
                "ok": False, "error": message,
            }
        else:
            assert out.splitlines()[-1] == f'collision_bound,,10,false,"{message}"'


class TestInvalidOverrides:
    """--density and --saturation go through the same rules as the file."""

    EXTRA = {
        "optics": (),
        "validity": (),
        "bloch": ("--drive-re", "1.0", "--detuning", "0.1", "--dt", "0.01", "--steps", "4"),
        "diffract": ("--paths", "analytic", "--q-max", "3"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("value, rule", [("nan", "finite"), ("-1", "nonnegative")])
    @pytest.mark.parametrize("command", sorted(EXTRA))
    def test_density_is_validated_as_rho_0(self, capsys, params_file, command, value, rule, fmt):
        code, out, err = run(
            capsys, command, "--params", params_file, "--density", value,
            *self.EXTRA[command], "--format", fmt,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: rho_0 must be {rule}, got ")

    @pytest.mark.parametrize("command", ["optics", "validity", "diffract"])
    def test_si_density_is_reported_as_typed(self, capsys, tmp_path, command):
        # -1 per m^3 is -1e-6 per cm^3; the error names the value typed
        path = write_params(tmp_path, make_params(), units="si")
        code, out, err = run(
            capsys, command, "--params", path, "--density", "-1", *self.EXTRA[command]
        )
        assert (code, out) == (1, "")
        assert err == "error: rho_0 must be nonnegative, got -1.0\n"

    @pytest.mark.parametrize("value", ["inf", "1e999", "-inf"])
    @pytest.mark.parametrize("command", ["optics", "validity"])
    def test_infinite_saturation_is_refused(self, capsys, params_file, command, value):
        # every collision bound would pass at it
        code, out, err = run(capsys, command, "--params", params_file, f"--saturation={value}")
        assert (code, out) == (1, "")
        assert err == f"error: --saturation must be finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "value, rule", [("nan", "positive"), ("0", "positive"), ("-1", "positive"),
                        ("inf", "finite")],
    )
    @pytest.mark.parametrize("command", ["optics", "validity"])
    def test_saturation_outside_the_open_half_line_is_a_usage_error(
        self, capsys, params_file, command, value, rule, fmt
    ):
        # no collision bound has a value at NaN or s <= 0, and every one
        # would pass at s = inf: one message naming the flag, no table
        code, out, err = run(
            capsys, command, "--params", params_file, "--saturation", value, "--format", fmt
        )
        assert (code, out) == (1, "")
        assert err == f"error: --saturation must be {rule}, got {float(value)!r}\n"


def _main(*argv):
    """(exit code, stdout, stderr) of main(argv), captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# The README point written in SI, the numbers a user would type.
_SI_BASE = {
    f: convert_field(getattr(make_params(), f), f, "cgs", "si")
    for f in units._FIELDS
}


class TestTypedInputs:
    """On an SI file every echo of an input, and every message naming one,
    gives the double the user typed; the physics reads each converted once."""

    @staticmethod
    def _write(directory, typed, name="typed.params") -> str:
        path = directory / name
        path.write_text(
            "units = si\n" + "".join(f"{k} = {v!r}\n" for k, v in typed.items()),
            encoding="utf-8",
        )
        return str(path)

    @given(
        scales=st.fixed_dictionaries(
            {f: st.floats(0.5, 2.0) for f in ("mass", "dipole", "w_l", "w_y", "v_g")}
        ),
        density=st.floats(1e18, 1e22),
        axis=st.sampled_from(list(units._FIELDS)),
        factor=st.floats(0.5, 2.0),
    )
    def test_echoes_and_messages_carry_the_typed_values(
        self, tmp_path_factory, scales, density, axis, factor
    ):
        typed = {f: v * scales.get(f, 1.0) for f, v in _SI_BASE.items()}
        directory = tmp_path_factory.mktemp("typed")
        path = self._write(directory, typed)

        # the optics input block is the file's doubles, bit for bit
        _, out, _ = _main("optics", "--params", path, "--format", "json")
        assert {k: float(v).hex() for k, v in json.loads(out)["input"].items()} == {
            k: float(v).hex() for k, v in typed.items()
        }
        # the density echoes are --density as typed
        for command in ("optics", "validity"):
            _, out, _ = _main(
                command, "--params", path, "--format", "json", "--density", repr(density)
            )
            report = json.loads(out)
            assert report.get("quantities", report)["density"] == density
        # the sweep table's axis and error cells carry the typed value
        _, out, _ = _main(
            "sweep", "--params", path, "--axis", "rho_0", f"--values={-density!r},{density!r}",
            "--paths", "analytic", "--q-max", "1",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == csv_num(-density) and rows[2][0] == csv_num(density)
        assert rows[1][-1] == f"rho_0 must be nonnegative, got {-density!r}"
        # a file's own out-of-range value is named as typed
        bad = self._write(directory, {**typed, "rho_0": -density}, "bad.params")
        assert _main("optics", "--params", bad) == (
            1, "", f"error: rho_0 must be nonnegative, got {-density!r}\n"
        )
        # a sweep point is the CGS set with one field converted, on any
        # axis, omega_l's identity conversion included
        pf = units.read_param_file(path)
        value = factor * (typed[axis] or 1.0)
        spec = SweepSpec(base=pf, axis=axis, values=(value,), paths="analytic", q_max=1)
        assert spec.point(value) == replace(
            pf.params, **{axis: convert_field(value, axis, "si", "cgs")}
        )


class TestPacketRange:
    """validity's packet rows and the guards cover the density range [0, rho_0]."""

    # the README's sodium file, 1 GHz red of resonance, at V0 rho_0 = -1.2:
    # the peak is 0.2 from the pole, but 1 + V0 rho crosses zero on the
    # packet's shoulder, at rho = 1/|V0|
    RED = make_params(omega_l=3.198e15 - 6.2831853e9)
    RED_DENSITY = "4.789e16"

    def test_red_validity_flags_the_pole_inside_the_packet(self, capsys, tmp_path):
        path = write_params(tmp_path, self.RED)
        code, out, _ = run(
            capsys, "validity", "--params", path, "--density", self.RED_DENSITY,
            "--saturation", "1.0",
        )
        assert code == 2
        rows = {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}
        assert rows["adiabatic_ratio"] == ["20.5921906", "10", "true", ""]
        assert rows["pole_distance"] == ["0.199918284", "0.1", "true", ""]
        assert rows["adiabatic_ratio_packet"] == ["0", "10", "false", ""]
        assert rows["pole_distance_packet"] == ["0", "0.1", "false", ""]

    def test_red_numeric_diffraction_hits_the_pole(self, capsys, tmp_path):
        path = write_params(tmp_path, self.RED)
        code, out, err = run(
            capsys, "diffract", "--params", path, "--density", self.RED_DENSITY,
            "--paths", "numeric", "--q-max", "3", "--grid-points", "16384",
            "--box-lambdas", "512",
        )
        assert (code, out) == (2, "")
        v0 = characteristic_volume(self.RED)
        prefix = "physics guard: phase-profile pole: |denominator| = 0.000e+00 at density "
        assert err == f"{prefix}{-1.0 / v0:.3e}\n"

    def test_blue_wings_bind_the_adiabatic_ratio(self, capsys, tmp_path):
        # gamma = |Delta|/8 at V0 rho_0 = 0.3: 8 * 1.3 = 10.4 at the peak,
        # 8 in the wings, where the propagator's guard also rejects
        base = make_params()
        p = with_v0rho(replace(base, gamma=abs(detuning(base)) / 8.0), 0.3)
        path = write_params(tmp_path, p)
        code, out, _ = run(
            capsys, "validity", "--params", path, "--saturation", "1.0", "--format", "json"
        )
        assert code == 2
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["adiabatic_ratio"]["value"] == pytest.approx(10.4, rel=1e-12)
        assert checks["adiabatic_ratio"]["ok"] is True
        assert checks["adiabatic_ratio_packet"]["value"] == pytest.approx(8.0, rel=1e-12)
        assert checks["adiabatic_ratio_packet"]["ok"] is False
        assert checks["pole_distance_packet"]["ok"] is True


def _gamma_at_ratio_ten(params):
    """A linewidth at which |Delta| / gamma is exactly 10.0 in floating point."""
    delta = abs(detuning(params))
    gamma = delta / 10.0
    for _ in range(64):
        ratio = delta / gamma
        if ratio == 10.0:
            return gamma
        gamma = math.nextafter(gamma, math.inf if ratio > 10.0 else 0.0)
    raise AssertionError("no linewidth gives a ratio of exactly 10")


def test_adiabatic_ratio_of_exactly_ten_passes_everywhere(capsys, tmp_path):
    # validity, the sweep flag and the propagator guard share one rule:
    # ok when |Delta_l| / gamma >= 10, so exactly 10 passes all three
    base = make_params()
    at_ten = replace(base, gamma=_gamma_at_ratio_ten(base))
    below = replace(at_ten, gamma=math.nextafter(at_ten.gamma, math.inf))
    grid = propagate.Grid1D(1024, -1.0e-2, 1.0e-2)
    tracer = propagate.init_gaussian(grid, 0.0, 1.0e-3)  # rho_0 = 0: density 0
    config = propagate.PropagationConfig(n_steps=1, kinetic_enabled=False)
    for params, ok in ((at_ten, True), (below, False)):
        path = write_params(tmp_path, params)
        code, out, _ = run(
            capsys, "validity", "--params", path, "--saturation", "1.0", "--format", "json"
        )
        check = json.loads(out)["checks"][0]
        assert check["name"] == "adiabatic_ratio"
        assert (check["value"] == 10.0) is ok and (check["value"] < 10.0) is not ok
        assert check["ok"] is ok
        assert code == (0 if ok else 2)

        code, out, _ = run(capsys, "sweep", "--params", path, "--values", "0", "--q-max", "2")
        assert out.splitlines()[1].split(",")[-4] == ("true" if ok else "false")
        assert code == (0 if ok else 2)

        envelope = np.zeros(2)
        if ok:
            propagate.step(tracer, 1.0e-6, config, params, envelope=envelope)
        else:
            with pytest.raises(PhysicsGuardError, match="adiabatic"):
                propagate.step(tracer, 1.0e-6, config, params, envelope=envelope)


class TestDiffract:
    def test_analytic_csv(self, capsys, tmp_path):
        path = write_params(tmp_path, with_g0(make_params(), 2.0))
        code, out, _ = run(
            capsys, "diffract", "--params", path, "--q-max", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tau = 4")
        assert lines[1].startswith("# g0 = 2")
        assert lines[2] == "# v0_rho0 = 0"
        assert lines[3].startswith("# sum_analytic = ")
        assert lines[4] == "q,angle_rad,P_analytic"
        body = lines[5:]
        assert len(body) == 7
        assert [row.split(",")[0] for row in body] == ["-3", "-2", "-1", "0", "1", "2", "3"]
        want = analytic_orders(4.0, 3)
        got_p0 = float(body[3].split(",")[2])
        assert got_p0 == pytest.approx(want.orders[0], rel=1e-6)

    def test_all_paths_json(self, capsys, tmp_path):
        path = write_params(tmp_path, with_g0(make_params(), 2.0))
        code, out, _ = run(
            capsys, "diffract", "--params", path, "--paths", "all",
            "--grid-points", "1024", "--box-lambdas", "32", "--steps", "512",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["paths"] == ["analytic", "numeric", "propagator"]
        assert report["q_max"] == 7  # capped by the grid's spectral capacity
        assert 0.0 < report["discrepancy"] < 1e-3
        for name in report["paths"]:
            assert len(report["orders"][name]) == 15
            assert report["sums"][name] <= 1.0 + 1e-9
        assert len(report["angles_rad"]) == 15
        assert report["angles_rad"]["0"] == 0.0

    def test_density_override(self, capsys, tmp_path):
        p = with_g0(make_params(), 1.0)
        path = write_params(tmp_path, p)
        rho = with_v0rho(p, 0.5).rho_0
        code, out, _ = run(
            capsys, "diffract", "--params", path, "--density", repr(rho),
            "--q-max", "2", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["v0_rho0"] == pytest.approx(0.5, rel=1e-12)
        assert report["tau"] == pytest.approx(2.0 / 1.5**2, rel=1e-12)

    @pytest.mark.parametrize("units", ["si", "cgs"])
    def test_v0_is_in_the_files_units(self, capsys, tmp_path, units):
        # diffract and optics report the one characteristic volume alike
        path = write_params(tmp_path, with_g0(make_params(), 1.0), units)
        docs = [
            json.loads(run(capsys, command, "--params", path, "--format", "json", *flags)[1])
            for command, flags in (("diffract", ("--q-max", "2")), ("optics", ()))
        ]
        assert docs[0]["v0"] == docs[1]["quantities"]["v0"]
        cgs = characteristic_volume(make_params())
        assert docs[0]["v0"] == pytest.approx(cgs * (1e-6 if units == "si" else 1.0), rel=1e-12)

    def test_capacity_overflow_is_usage_error(self, capsys, tmp_path):
        path = write_params(tmp_path, with_g0(make_params(), 2.0))
        code, _, err = run(
            capsys, "diffract", "--params", path, "--paths", "numeric",
            "--q-max", "20", "--grid-points", "256", "--box-lambdas", "8",
        )
        assert code == 1
        assert "q_max" in err

    def test_capacity_overflow_is_refused_before_the_mask(self, capsys, tmp_path, monkeypatch):
        # the commensurate grid fixes the capacity, so a q_max above it is
        # refused before the phase mask is built, with the message that
        # momentum_spectrum would have given after it
        path = write_params(tmp_path, with_g0(make_params(), 2.0))
        masks = []
        monkeypatch.setattr(
            "matteroptics.diffraction.numeric_orders", lambda *a: masks.append(a)
        )
        code, out, err = run(
            capsys, "diffract", "--params", path, "--paths", "numeric",
            "--q-max", "20", "--grid-points", "256", "--box-lambdas", "8",
        )
        assert (code, out, masks) == (1, "", [])
        assert err == (
            "error: q_max = 20 does not fit in the spectral range: (q_max + 1/2)*16 "
            "must be <= 128; this grid supports q_max <= 7 (use more grid points "
            "for more orders)\n"
        )

    def test_order_count_above_the_ceiling_is_refused(self, capsys, tmp_path, monkeypatch):
        # v_g = 1e-300 puts tau near 4e302: the analytic route would ask for
        # a Bessel row of that many orders, with or without --q-max
        path = write_params(tmp_path, replace(with_g0(make_params(), 2.0), v_g=1e-300))
        rows = []
        monkeypatch.setattr("matteroptics.diffraction.bessel_j_sequence", rows.append)
        for extra in ((), ("--q-max", "3")):
            code, out, err = run(capsys, "diffract", "--params", path, *extra)
            assert (code, out, rows) == (1, "", [])
            assert err.startswith("error: ") and " orders needed at tau = " in err
            assert err.endswith(", more than the ceiling of 1000000\n")

    def test_diffract_is_a_one_point_sweep(self, capsys, tmp_path):
        p = with_g0(make_params(), 2.0)
        path = write_params(tmp_path, p)
        rho = repr(with_v0rho(p, 0.3).rho_0)
        grid = ("--q-max", "5", "--grid-points", "1024", "--box-lambdas", "32",
                "--steps", "64", "--paths", "all", "--format", "json")
        code, out, _ = run(capsys, "diffract", "--params", path, "--density", rho, *grid)
        assert code == 0
        point = json.loads(out)
        code, out, _ = run(capsys, "sweep", "--params", path, "--values", rho, *grid)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["tau"] == point["tau"]
        assert row["orders"] == point["orders"]
        assert row["discrepancy"] == point["discrepancy"] > 0.0

    @pytest.mark.parametrize("command", ["diffract", "sweep"])
    @pytest.mark.parametrize("selection", ["magic", "analytic,Numeric", ",", ""])
    def test_bad_path_selection(self, capsys, params_file, command, selection):
        values = ("--values", "0") if command == "sweep" else ()
        code, out, err = run(
            capsys, command, "--params", params_file, *values, "--paths", selection
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: invalid path selection {selection!r}; "
            "use analytic, numeric, propagator or all\n"
        )

    def test_diffract_takes_a_comma_list_as_sweep_does(self, capsys, tmp_path):
        p = with_g0(make_params(), 2.0)
        path = write_params(tmp_path, p)
        rho = repr(with_v0rho(p, 0.3).rho_0)
        grid = ("--grid-points", "1024", "--box-lambdas", "32",
                "--paths", "numeric, analytic", "--format", "json")
        code, out, _ = run(capsys, "diffract", "--params", path, "--density", rho, *grid)
        assert code == 0
        point = json.loads(out)
        assert point["paths"] == ["analytic", "numeric"]
        code, out, _ = run(capsys, "sweep", "--params", path, "--values", rho, *grid)
        assert code == 0
        report = json.loads(out)
        assert report["spec"]["q_max"] == point["q_max"] == 7
        row = report["rows"][0]
        assert row["tau"] == point["tau"]
        assert row["orders"] == point["orders"]
        assert row["discrepancy"] == point["discrepancy"] > 0.0


class TestPropagate:
    def _params_path(self, tmp_path):
        p = with_wy_lambdas(with_g0(make_params(), 2.0), 4.0)
        return write_params(tmp_path, p), p

    def test_run_writes_files(self, capsys, tmp_path):
        path, p = self._params_path(tmp_path)
        prefix = str(tmp_path / "run")
        code, out, _ = run(
            capsys, "propagate", "--params", path, "--out", prefix,
            "--grid-points", "1024", "--box-lambdas", "32",
            "--steps", "256", "--snapshots", "4",
        )
        assert code == 0
        expected = [
            f"{prefix}_state_{i:06d}.csv" for i in (0, 64, 128, 192, 256)
        ] + [f"{prefix}_spectrum.csv", f"{prefix}_report.csv"]
        for f in expected:
            assert os.path.exists(f)
        assert out.splitlines() == [f"wrote {f}" for f in expected]

        report = kv_table(open(f"{prefix}_report.csv").read())
        assert report["model"] == "full"
        assert float(report["norm_drift_rel"]) < 1e-9
        assert report["kinetic"] == "true"
        assert report["q_max"] == "7"
        assert float(report["duration_s"]) == pytest.approx(
            8.0 * p.w_l / p.v_g, rel=1e-8
        )
        spectrum = open(f"{prefix}_spectrum.csv").read().splitlines()
        assert spectrum[0] == "q,angle_rad,P"
        assert len(spectrum) == 16
        total = sum(float(r.split(",")[2]) for r in spectrum[1:])
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_json_report(self, capsys, tmp_path):
        path, _ = self._params_path(tmp_path)
        prefix = str(tmp_path / "runj")
        code, out, _ = run(
            capsys, "propagate", "--params", path, "--out", prefix,
            "--grid-points", "1024", "--box-lambdas", "32",
            "--steps", "128", "--format", "json",
        )
        assert code == 0
        assert out.splitlines() == [f"wrote {prefix}_report.json"]
        report = json.loads(open(f"{prefix}_report.json").read())
        assert set(report) == {
            "scalars", "model", "spectrum", "angles_rad", "snapshots", "meta",
        }
        assert report["snapshots"] == []
        assert report["scalars"]["kinetic"] is True
        assert report["scalars"]["norm_drift_rel"] < 1e-9

    def test_q_max_is_checked_before_the_transit(self, capsys, tmp_path, monkeypatch):
        # 4096 points over the auto box (325 wavelengths for a 50-wavelength
        # packet) hold orders up to 2, so --q-max 3 fails before any step
        path = write_params(tmp_path, make_params())
        transits = []
        monkeypatch.setattr(
            "matteroptics.cli.propagate_through_laser", lambda *a, **k: transits.append(a)
        )
        code, out, err = run(
            capsys, "propagate", "--params", path, "--out", str(tmp_path / "run"),
            "--grid-points", "4096", "--q-max", "3", "--snapshots", "2",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: q_max = 3 does not fit in the spectral range: (q_max + 1/2)*651 "
            "must be <= 2048; this grid supports q_max <= 2 (use more grid points "
            "for more orders)\n"
        )
        assert transits == []
        assert os.listdir(tmp_path) == ["p.params"]

    def test_requires_out_prefix(self, capsys, params_file):
        code, _, err = run(capsys, "propagate", "--params", params_file)
        assert code == 1
        assert "--out" in err

    @pytest.mark.parametrize("snapshots, message", [
        ("-1", "error: --snapshots must be >= 0, got -1\n"),
        ("16", "error: --snapshots must not exceed --steps, got --snapshots 16 > --steps 8\n"),
    ])
    def test_snapshot_count_outside_the_steps_is_rejected(
        self, capsys, tmp_path, snapshots, message
    ):
        # 16 snapshots of 8 steps would collapse onto 8 distinct steps
        path, _ = self._params_path(tmp_path)
        code, out, err = run(
            capsys, "propagate", "--params", path, "--out", str(tmp_path / "run"),
            "--grid-points", "1024", "--box-lambdas", "32", "--steps", "8",
            "--snapshots", snapshots,
        )
        assert (code, out, err) == (1, "", message)
        assert os.listdir(tmp_path) == ["p.params"]

    def test_one_snapshot_per_step(self, capsys, tmp_path):
        path, _ = self._params_path(tmp_path)
        code, _, _ = run(
            capsys, "propagate", "--params", path, "--out", str(tmp_path / "run"),
            "--grid-points", "1024", "--box-lambdas", "32", "--steps", "8",
            "--snapshots", "8",
        )
        assert code == 0
        snaps = sorted(f for f in os.listdir(tmp_path) if "_state_" in f)
        assert snaps == [f"run_state_{i:06d}.csv" for i in range(9)]

    def test_numerics_failure_rescues_last_state(self, capsys, tmp_path, monkeypatch):
        # the rescue writes the state the error carries, whatever it is
        path, p = self._params_path(tmp_path)
        prefix = str(tmp_path / "bad")
        carried = []

        def fake(state, config, params, observer=None, observe_steps=()):
            carried.append(propagate.WaveState(state.grid, 0.5 * state.amplitude, 1.0))
            exc = NumericsError("non-finite amplitude after step 192", step=192, time=1.0)
            exc.last_good = (128, carried[0])
            raise exc

        monkeypatch.setattr("matteroptics.cli.propagate_through_laser", fake)
        code, _, err = run(
            capsys, "propagate", "--params", path, "--out", prefix,
            "--grid-points", "1024", "--box-lambdas", "32", "--steps", "256",
        )
        assert code == 2
        assert "numerics failure" in err
        assert "(step 128)" in err
        expected = io.StringIO()
        propagate.write_state_csv(carried[0], p.rho_0, expected)
        with open(f"{prefix}_state_lastgood.csv", encoding="utf-8") as fh:
            assert fh.read() == expected.getvalue()
        assert not os.path.exists(f"{prefix}_report.csv")

    def test_rescued_state_follows_the_finite_check_interval(
        self, capsys, tmp_path, monkeypatch
    ):
        # A field poisoned at step 9 is caught by the check at step 9; the
        # rescue must hold step 6, the last state that passed a check.
        path, p = self._params_path(tmp_path)
        prefix = str(tmp_path / "bad")
        monkeypatch.setattr(propagate, "_FINITE_CHECK_INTERVAL", 3)
        fields = poison_z_step(monkeypatch, 9, {3, 6, 9, 12, 15, 16})
        code, _, err = run(
            capsys, "propagate", "--params", path, "--out", prefix,
            "--grid-points", "1024", "--box-lambdas", "32", "--steps", "16",
        )
        assert code == 2
        assert "after step 9" in err
        assert "(step 6)" in err
        self._assert_rescue(prefix, p, fields[6])

    @staticmethod
    def _assert_rescue(prefix, p, field):
        """The rescue file holds `field` on the run's grid."""
        grid = commensurate_grid(p, 1024, 32.0)
        expected = io.StringIO()
        propagate.write_state_csv(propagate.WaveState(grid, field), p.rho_0, expected)
        with open(f"{prefix}_state_lastgood.csv", encoding="utf-8") as fh:
            assert fh.read() == expected.getvalue()

    def test_nan_between_checks_takes_the_rescue_path(
        self, capsys, tmp_path, monkeypatch
    ):
        # Poisoned at step 7 with checks every 3 steps: step 8's adiabatic
        # guard sees the NaN first and must report a numerics failure, so
        # the rescue holds step 6.
        path, p = self._params_path(tmp_path)
        prefix = str(tmp_path / "bad")
        monkeypatch.setattr(propagate, "_FINITE_CHECK_INTERVAL", 3)
        fields = poison_z_step(monkeypatch, 7, {3, 6, 9, 12, 15, 16})
        code, _, err = run(
            capsys, "propagate", "--params", path, "--out", prefix,
            "--grid-points", "1024", "--box-lambdas", "32", "--steps", "16",
        )
        assert code == 2
        assert "numerics failure" in err and "physics guard" not in err
        assert "(step 6)" in err
        self._assert_rescue(prefix, p, fields[6])

    def test_nan_on_a_snapshot_step_takes_the_rescue_path(
        self, capsys, tmp_path, monkeypatch
    ):
        path, _ = self._params_path(tmp_path)
        prefix = str(tmp_path / "bad")
        poison_z_step(monkeypatch, 4, {4, 8, 12, 16})  # the snapshot steps
        code, _, err = run(
            capsys, "propagate", "--params", path, "--out", prefix,
            "--grid-points", "1024", "--box-lambdas", "32",
            "--steps", "16", "--snapshots", "4",
        )
        assert code == 2
        assert "numerics failure" in err and "after step 4" in err
        assert "(step 0)" in err
        assert os.path.exists(f"{prefix}_state_lastgood.csv")
        assert sorted(os.listdir(tmp_path)) == [
            "bad_state_000000.csv", "bad_state_lastgood.csv", "p.params",
        ]

    def test_a_finite_snapshot_is_a_rescue_point(self, capsys, tmp_path, monkeypatch):
        # Poisoned at step 12 of 16 with snapshots at 8 and 16: step 13's
        # density check fails, and the rescue is the step-8 snapshot.
        path, _ = self._params_path(tmp_path)
        prefix = str(tmp_path / "bad")
        poison_z_step(monkeypatch, 12, {8, 16})  # the snapshot steps
        code, _, err = run(
            capsys, "propagate", "--params", path, "--out", prefix,
            "--grid-points", "1024", "--box-lambdas", "32",
            "--steps", "16", "--snapshots", "2",
        )
        assert code == 2
        assert "numerics failure" in err and "(step 8)" in err
        assert sorted(os.listdir(tmp_path)) == [
            "bad_state_000000.csv", "bad_state_000008.csv", "bad_state_lastgood.csv",
            "p.params",
        ]
        with open(f"{prefix}_state_000008.csv", encoding="utf-8") as snap, open(
            f"{prefix}_state_lastgood.csv", encoding="utf-8"
        ) as rescue:
            assert rescue.read() == snap.read()

    def test_non_finite_kinetic_off_stretch_rescues_the_last_snapshot(
        self, capsys, tmp_path, monkeypatch
    ):
        # kinetic off, snapshots at 8 and 16 of 16 steps: an envelope that
        # turns NaN past z = 0 fails the stretch from step 9 to 16 before
        # its exponential, and the rescue is the step-8 snapshot
        path, _ = self._params_path(tmp_path)
        prefix = str(tmp_path / "bad")
        poison_envelope(monkeypatch, lambda z: z > 0.0)
        code, _, err = run(
            capsys, "propagate", "--params", path, "--out", prefix, "--no-kinetic",
            "--grid-points", "1024", "--box-lambdas", "32",
            "--steps", "16", "--snapshots", "2",
        )
        assert code == 2
        assert "numerics failure: non-finite laser drive over steps 9..16 " in err
        assert "(step 8)" in err
        assert sorted(os.listdir(tmp_path)) == [
            "bad_state_000000.csv", "bad_state_000008.csv", "bad_state_lastgood.csv",
            "p.params",
        ]
        with open(f"{prefix}_state_000008.csv", encoding="utf-8") as snap, open(
            f"{prefix}_state_lastgood.csv", encoding="utf-8"
        ) as rescue:
            assert rescue.read() == snap.read()


class TestBloch:
    def test_pi_pulse_inverts(self, capsys):
        dt = repr(math.pi / 64.0)
        code, out, _ = run(
            capsys, "bloch", "--drive-re", "1.0", "--detuning", "0.0",
            "--dt", dt, "--steps", "64",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t_s,re_R,im_R,W"
        assert len(lines) == 66
        final_w = float(lines[-1].split(",")[3])
        assert final_w > 0.99999

    def test_damped_run_reports_residual(self, capsys):
        code, out, err = run(
            capsys, "bloch", "--drive-re", "1.0", "--detuning", "0.5",
            "--gamma-l", "0.2", "--gamma-t", "0.3",
            "--dt", "0.05", "--steps", "2000",
        )
        assert code == 0
        assert err.startswith("steady-state residual:")
        assert float(err.split(":")[1]) < 1e-5

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "bloch", "--drive-re", "0.5", "--detuning", "1.0",
            "--dt", "0.05", "--steps", "10", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "detuning", "drive", "rates", "final", "steady_state",
            "steady_state_residual", "trajectory", "meta",
        }
        assert report["steady_state"] is None  # undamped run has no fixed point
        assert report["steady_state_residual"] is None
        assert len(report["trajectory"]) == 11
        assert report["final"] == report["trajectory"][-1]

    def test_local_field_scales_drive(self, capsys, tmp_path):
        p = make_params()
        path = write_params(tmp_path, p)
        rho = with_v0rho(p, 1.0).rho_0
        base_args = (
            "bloch", "--params", path, "--density", repr(rho),
            "--drive-re", "1.0", "--detuning", "0.0",
            "--dt", "0.01", "--steps", "1", "--format", "json",
        )
        code, out, _ = run(capsys, *base_args)
        assert code == 0
        assert json.loads(out)["drive"]["re"] == pytest.approx(0.5, rel=1e-12)
        code, out, _ = run(capsys, *base_args, "--no-local-field")
        assert code == 0
        assert json.loads(out)["drive"]["re"] == 1.0

    def test_unresolved_step_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "bloch", "--drive-re", "1.0", "--detuning", "0.0",
            "--dt", "1.0", "--steps", "5",
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--detuning", "nan"), "error: detuning must be finite, got nan\n"),
            (
                ("--drive-re", "nan", "--detuning", "0.1"),
                "error: drive must be finite, got (nan+0j) at step 0\n",
            ),
            (("--detuning", "0.1", "--w0", "nan"), "error: --w0 must be finite, got nan\n"),
            (("--detuning", "0.1", "--r0-re", "inf"), "error: --r0-re must be finite, got inf\n"),
            (("--detuning", "0.1", "--r0-im=-inf"), "error: --r0-im must be finite, got -inf\n"),
        ],
        ids=["detuning", "drive", "w0", "r0-re", "r0-im"],
    )
    def test_non_finite_input_is_named(self, capsys, flags, named):
        code, out, err = run(capsys, "bloch", *flags, "--dt", "0.01", "--steps", "5")
        assert code == 1
        assert out == ""
        assert err == named

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--w0", "2"), "error: --w0: inversion 2.0 outside [-1, 1]\n"),
            (("--w0=-1.5",), "error: --w0: inversion -1.5 outside [-1, 1]\n"),
            (
                ("--r0-re", "0.9", "--r0-im", "0.9"),
                f"error: --r0-re/--r0-im: |coherence| = {abs(0.9 + 0.9j)!r} exceeds 1\n",
            ),
        ],
        ids=["w0", "w0-negative", "r0"],
    )
    def test_out_of_range_state_is_named(self, capsys, flags, named):
        code, out, err = run(
            capsys, "bloch", "--detuning", "0.1", *flags, "--dt", "0.01", "--steps", "5"
        )
        assert code == 1
        assert out == ""
        assert err == named

    @pytest.mark.parametrize(
        "flags, length",
        [
            (("--w0", "0.5", "--r0-re", "0.5"), "1.25"),
            (("--r0-im", "0.1"), repr(1.0 + 4.0 * 0.1**2)),
            (
                ("--w0=-0.8", "--r0-re", "0.3", "--r0-im", "0.1"),
                repr(0.8**2 + 4.0 * abs(0.3 + 0.1j) ** 2),
            ),
        ],
        ids=["w0-and-r0-re", "default-w0", "all-three"],
    )
    def test_start_off_the_bloch_sphere_is_named(self, capsys, flags, length):
        # each part is within its own range, but W0^2 + 4|R0|^2 > 1
        code, out, err = run(
            capsys, "bloch", "--detuning", "0.5", "--drive-re", "1", *flags,
            "--dt", "0.1", "--steps", "400",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --w0/--r0-re/--r0-im: W0^2 + 4|R0|^2 = {length} exceeds 1\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--w0", "0.6", "--r0-re", "0.4"),
            ("--w0", "0.8", "--r0-im=-0.3"),
            ("--w0", "0", "--r0-re", "0.5"),
        ],
    )
    def test_start_on_the_bloch_sphere_runs(self, capsys, flags):
        code, out, _ = run(
            capsys, "bloch", "--detuning", "0.5", "--drive-re", "1", *flags,
            "--dt", "0.1", "--steps", "4",
        )
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_needs_a_detuning_source(self, capsys):
        code, _, err = run(capsys, "bloch", "--dt", "0.1", "--steps", "1")
        assert code == 1
        assert "detuning" in err

    @pytest.mark.parametrize(
        "flags",
        [("--density", "0"), ("--density", "0", "--detuning", "0.0"), (), ("--detuning", "0.0")],
    )
    def test_params_file_read_exactly_once(self, capsys, tmp_path, monkeypatch, flags):
        path = write_params(tmp_path, make_params())
        real = cli.read_param_file
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "read_param_file", counted)
        code, _, _ = run(
            capsys, "bloch", "--params", path, *flags,
            "--drive-re", "1.0", "--dt", "1e-12", "--steps", "1",
        )
        assert code == 0
        assert len(calls) == 1

    def test_a_given_params_file_is_read_with_a_detuning(self, capsys, tmp_path):
        # --detuning leaves the file's constants unused, but a file named
        # on the command line is still read, so a missing one is an error
        missing = str(tmp_path / "missing.params")
        code, out, err = run(
            capsys, "bloch", "--params", missing, "--detuning", "0.1",
            "--dt", "0.01", "--steps", "5",
        )
        assert (code, out) == (1, "")
        assert err.startswith("i/o error: ") and "missing.params" in err


class TestSweep:
    def test_range_flag_conflict(self, capsys, params_file):
        code, _, err = run(
            capsys, "sweep", "--params", params_file,
            "--values", "0", "--start", "0", "--stop", "1", "--num", "3",
        )
        assert code == 1
        assert "not both" in err

    def test_range_required(self, capsys, params_file):
        code, _, err = run(capsys, "sweep", "--params", params_file)
        assert code == 1

    def test_unparseable_values(self, capsys, params_file):
        code, _, err = run(
            capsys, "sweep", "--params", params_file, "--values", "a,b"
        )
        assert code == 1
        assert "could not parse" in err

    def test_unknown_axis_names_the_valid_ones(self, capsys, params_file):
        code, _, err = run(
            capsys, "sweep", "--params", params_file, "--axis", "bogus", "--values", "0"
        )
        assert code == 1
        assert "bogus" in err and "rho_0" in err and "w_y" in err

    def test_every_point_failing_a_guard_exits_two(self, capsys, tmp_path):
        # as diffract does on the same point
        p = make_params()
        path = write_params(tmp_path, replace(p, omega_l=p.omega_a))
        code, out, err = run(capsys, "sweep", "--params", path, "--values", "0")
        assert code == 2 and out == ""
        assert err == (
            "physics guard: every sweep point failed: rho_0=0: "
            "characteristic volume undefined at zero detuning\n"
        )
        code, _, err = run(capsys, "diffract", "--params", path)
        assert code == 2
        assert err == "physics guard: characteristic volume undefined at zero detuning\n"

    def test_every_point_failing_otherwise_is_a_usage_error(self, capsys, tmp_path):
        # a negative density is a parameter error at one point and a guard
        # failure (zero detuning) at the other: not every reason is a guard
        p = make_params()
        path = write_params(tmp_path, replace(p, omega_l=p.omega_a))
        code, _, err = run(capsys, "sweep", "--params", path, "--values=-1,0")
        assert code == 1
        assert err.startswith("error: every sweep point failed: rho_0=-1: ")
        path = write_params(tmp_path, with_g0(make_params(), 1.0))
        code, _, err = run(capsys, "sweep", "--params", path, "--values=-1,-2")
        assert code == 1
        assert err.startswith("error: every sweep point failed: rho_0=-1: ")

    def test_valid_point_exits_zero(self, capsys, tmp_path):
        path = write_params(tmp_path, with_g0(make_params(), 1.0))
        code, out, _ = run(
            capsys, "sweep", "--params", path, "--values", "0", "--q-max", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("rho_0,tau,analytic_P_0")
        assert len(lines) == 2
        assert ",true,true,true," in lines[1]

    @pytest.mark.parametrize("units, shown", [("si", "1e+21"), ("cgs", "1e+15")])
    def test_the_axis_is_in_the_files_units(self, capsys, tmp_path, units, shown):
        # as typed: 1e21 m^-3 is 1e15 cm^-3, and a CGS file takes 1e15 as it is
        path = write_params(tmp_path, with_g0(make_params(), 1.0), units)
        code, out, _ = run(
            capsys, "sweep", "--params", path, "--axis", "rho_0", f"--values=-{shown},{shown}",
            "--paths", "analytic", "--q-max", "1",
        )
        assert code == 2  # the negative density is an error row
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [f"-{shown}", shown]
        p = make_params()
        path = write_params(tmp_path, replace(p, omega_l=p.omega_a), units)
        code, out, err = run(capsys, "sweep", "--params", path, "--values", f"0,{shown}")
        assert code == 2 and out == ""
        reason = "characteristic volume undefined at zero detuning"
        assert err == (
            f"physics guard: every sweep point failed: rho_0=0: {reason}; "
            f"rho_0={shown}: {reason}\n"
        )

    def test_linear_range(self, capsys, tmp_path):
        path = write_params(tmp_path, with_g0(make_params(), 1.0))
        code, out, _ = run(
            capsys, "sweep", "--params", path,
            "--start", "0", "--stop", "4e13", "--num", "3", "--q-max", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] == ["0", "2e+13", "4e+13"]

    @pytest.mark.parametrize("start, stop, num", [
        (0.1, 0.7, 7), (-8e307, 8e307, 3), (1e308, -7e307, 4), (2.5, 2.5, 2), (-3.0, 9.0, 1),
    ])
    def test_a_range_with_a_finite_span_keeps_its_bits(
        self, capsys, params_file, start, stop, num
    ):
        # start + i * (stop - start) / (num - 1), as typed, whatever the span
        code, out, _ = run(
            capsys, "sweep", "--params", params_file, "--axis", "delta_shift",
            f"--start={start!r}", f"--stop={stop!r}", "--num", str(num),
            "--q-max", "1", "--format", "json",
        )
        assert code == 0
        want = [start]
        if num > 1:
            want = [start + i * ((stop - start) / (num - 1)) for i in range(num)]
        assert json.loads(out)["spec"]["values"] == want

    @pytest.mark.parametrize("start, stop", [(-1e308, 1e308), (1.7e308, -1e308)])
    def test_an_overflowing_span_is_refused_naming_it(self, capsys, params_file, start, stop):
        # every value of the range would be finite, but stop - start is not
        code, out, err = run(
            capsys, "sweep", "--params", params_file, "--axis", "delta_shift",
            f"--start={start!r}", f"--stop={stop!r}", "--num", "3",
        )
        assert (code, out) == (1, "")
        assert err == f"error: the span --stop - --start = {stop!r} - {start!r} overflows\n"

    def test_flagged_point_exits_two(self, capsys, tmp_path):
        path = write_params(tmp_path, with_wy_lambdas(with_g0(make_params(), 1.0), 5.0))
        code, out, _ = run(
            capsys, "sweep", "--params", path, "--values", "0", "--q-max", "3"
        )
        assert code == 2
        assert ",false," in out.splitlines()[1]

    def test_error_row_exits_two(self, capsys, tmp_path):
        p = with_g0(red_detuned(make_params()), -1.0)
        path = write_params(tmp_path, p)
        pole = -1.0 / characteristic_volume(p)
        code, out, _ = run(
            capsys, "sweep", "--params", path,
            "--values", f"0,{pole!r}", "--q-max", "2",
        )
        assert code == 2
        bad = out.splitlines()[2]
        assert bad.split(",")[1] == ""

    def test_si_axis_values_converted(self, capsys, tmp_path):
        p = with_g0(make_params(), 1.0)
        path = write_params(tmp_path, p, units="si")
        rho_cgs = with_v0rho(p, 0.5).rho_0
        code, out, _ = run(
            capsys, "sweep", "--params", path,
            "--values", repr(rho_cgs * 1.0e6), "--q-max", "2", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["value"] == pytest.approx(rho_cgs, rel=1e-9)
        assert row["tau"] == pytest.approx(2.0 / 1.5**2, rel=1e-9)

    def test_threads_do_not_change_bytes(self, capsys, tmp_path):
        p = with_g0(make_params(), 2.0)
        path = write_params(tmp_path, p)
        values = ",".join(
            repr(v) for v in (0.0, with_v0rho(p, 0.2).rho_0, with_v0rho(p, 0.4).rho_0)
        )
        outputs = []
        for threads in ("1", "8"):
            out_path = str(tmp_path / f"sweep_t{threads}.csv")
            code, _, _ = run(
                capsys, "sweep", "--params", path, "--values", values,
                "--paths", "analytic,numeric", "--q-max", "5",
                "--grid-points", "1024", "--box-lambdas", "32",
                "--threads", threads, "--out", out_path,
            )
            assert code == 0
            outputs.append(open(out_path, "rb").read())
        assert outputs[0] == outputs[1]


def _at_pole(p):
    """p at V0 rho_0 = -1, where tau does not exist and the rule takes tau = 0."""
    return replace(p, rho_0=-1.0 / characteristic_volume(p))


class TestDefaultQMax:
    """Without --q-max, diffract, sweep and propagate report diffraction.default_q_max."""

    @pytest.mark.parametrize(
        "g0, paths, grid, want",
        [
            (2.0, "analytic", (), 34),
            (2.0, "numeric", ("--grid-points", "1024", "--box-lambdas", "32"), 7),
            (0.7, "numeric", ("--grid-points", "65536", "--box-lambdas", "32"), 32),
        ],
    )
    def test_diffract(self, capsys, tmp_path, g0, paths, grid, want):
        p = with_g0(make_params(), g0)
        path = write_params(tmp_path, p)
        code, out, _ = run(
            capsys, "diffract", "--params", path, "--paths", paths, *grid, "--format", "json"
        )
        assert code == 0
        n, box = (int(grid[1]), float(grid[3])) if grid else (4096, 128.0)
        assert json.loads(out)["q_max"] == default_q_max([p], (paths,), n, box) == want

    @pytest.mark.parametrize(
        "paths, grid, want",
        [
            ("analytic", (), 32),
            ("analytic,numeric", ("--grid-points", "1024", "--box-lambdas", "32"), 7),
        ],
    )
    def test_sweep_counts_a_pole_point_as_tau_zero(self, capsys, tmp_path, paths, grid, want):
        # the range comes from the swept points, not the base: the base sits
        # at the pole, the pole point counts as tau = 0, the other has |tau| = 2
        pole = _at_pole(with_g0(red_detuned(make_params()), -1.0))
        path = write_params(tmp_path, pole)
        code, out, _ = run(
            capsys, "sweep", "--params", path, "--values", f"{pole.rho_0!r},0",
            "--paths", paths, *grid, "--format", "json",
        )
        assert code == 2  # the pole point is an error row
        n, box = (int(grid[1]), float(grid[3])) if grid else (4096, 128.0)
        routes = tuple(paths.split(","))
        points = [pole, replace(pole, rho_0=0.0)]
        assert json.loads(out)["spec"]["q_max"] == default_q_max(points, routes, n, box) == want

    def test_sweep_range_covers_every_swept_point(self, capsys, tmp_path):
        # red g0 = -1 over V0 rho_0 = 0, -0.5, -0.85: tau reaches -88.9, so
        # the range must reach past it; sized from the base point (q_max 32)
        # the last row kept 0.242 of its population
        p = with_g0(red_detuned(make_params()), -1.0)
        path = write_params(tmp_path, p)
        values = ",".join(repr(with_v0rho(p, x).rho_0 + 0.0) for x in (0.0, -0.5, -0.85))
        code, out, _ = run(
            capsys, "sweep", "--params", path, "--values", values, "--format", "json"
        )
        report = json.loads(out)
        assert report["spec"]["q_max"] == 119
        for row in report["rows"]:
            assert sum(row["orders"]["analytic"].values()) >= 1.0 - 1e-9
        assert report["rows"][2]["tau"] == pytest.approx(-88.9, abs=0.05)

    @pytest.mark.parametrize("pole, want", [(False, 7), (True, 30)])
    def test_propagate(self, capsys, tmp_path, pole, want):
        # 1024 points over 32 wavelengths hold 7 orders, 4096 points hold 31;
        # the pole run (single-particle model, no tau) keeps min(30, 31);
        # gamma = 0 keeps the adiabatic guard, which fails at the pole, off
        if pole:
            p = _at_pole(with_wy_lambdas(with_g0(red_detuned(make_params(gamma=0.0)), -0.3), 4.0))
        else:
            p = with_wy_lambdas(with_g0(make_params(), 1.0), 4.0)
        n = "4096" if pole else "1024"
        path = write_params(tmp_path, p)
        code, _, _ = run(
            capsys, "propagate", "--params", path, "--grid-points", n,
            "--box-lambdas", "32", "--steps", "8", "--no-kinetic", "--model", "single",
            "--format", "json", "--out", str(tmp_path / "run"),
        )
        assert code == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        got = report["scalars"]["q_max"]
        assert got == default_q_max([p], ("propagator",), int(n), 32.0) == want

    def test_default_grid_is_read_from_diffraction(self):
        for command in ("diffract", "sweep", "propagate"):
            args = cli._read_args([command])
            assert args.grid_points == DEFAULT_GRID_POINTS
            assert args.steps == DEFAULT_Z_STEPS
        assert cli._read_args(["sweep"]).box_lambdas == DEFAULT_BOX_LAMBDAS
        assert cli._read_args(["diffract"]).box_lambdas == DEFAULT_BOX_LAMBDAS
        assert cli._read_args(["propagate"]).box_lambdas is None  # fits the packet
        spec = SweepSpec(
            base=make_params(), axis="rho_0", values=(0.0,), paths=("analytic",), q_max=1
        )
        assert (spec.grid_points, spec.z_steps, spec.box_lambdas) == (
            DEFAULT_GRID_POINTS, DEFAULT_Z_STEPS, DEFAULT_BOX_LAMBDAS
        )


def _num(value):
    """What a CSV cell holds for a JSON value: csv_num, or empty for null."""
    return "" if value is None else csv_num(value)


class TestCsvMatchesJson:
    """Run with --format csv and json: every CSV number is its JSON value
    formatted with csv_num."""

    def _both(self, capsys, *argv):
        texts = {}
        for fmt in ("csv", "json"):
            code, texts[fmt], _ = run(capsys, *argv, "--format", fmt)
            assert code in (0, 2)
        return texts["csv"], json.loads(texts["json"])

    @pytest.mark.parametrize(
        "params, units",
        [(make_params(), "si"), (make_params(omega_l=3.198e15), "cgs")],  # second has errors
    )
    def test_optics(self, capsys, tmp_path, params, units):
        path = write_params(tmp_path, params, units)
        text, doc = self._both(capsys, "optics", "--params", path, "--density", "3e13")
        rows = [line.split(",", 2) for line in text.splitlines()[1:]]
        for name, value, error in rows:
            if error:
                assert value == ""
                assert error == '"' + doc["errors"][name].replace('"', '""') + '"'
            elif name.startswith("input_"):
                assert value == _num(doc["input"][name[len("input_"):]])
            else:
                assert value == _num(doc["quantities"][name])
        assert len(rows) == len(doc["input"]) + len(doc["quantities"]) + len(doc["errors"])

    def test_validity(self, capsys, params_file):
        text, doc = self._both(capsys, "validity", "--params", params_file)
        lines = text.splitlines()[1:]
        for line, check in zip(lines, doc["checks"], strict=True):
            name, value, threshold, ok, _ = line.split(",", 4)
            assert name == check["name"]
            assert [value, threshold, ok] == [
                _num(check["value"]), _num(check["threshold"]), _num(check["ok"]),
            ]

    def test_diffract(self, capsys, tmp_path):
        p = with_g0(make_params(), 2.0)
        path = write_params(tmp_path, p)
        text, doc = self._both(
            capsys, "diffract", "--params", path, "--density", repr(with_v0rho(p, 0.2).rho_0),
            "--paths", "all", "--grid-points", "1024", "--box-lambdas", "32", "--steps", "64",
        )
        lines = text.splitlines()
        comments = dict(line[2:].split(" = ") for line in lines if line.startswith("# "))
        assert comments == {
            "tau": _num(doc["tau"]),
            "g0": _num(doc["g0"]),
            "v0_rho0": _num(doc["v0_rho0"]),
            **{f"sum_{n}": _num(doc["sums"][n]) for n in doc["paths"]},
            "discrepancy": _num(doc["discrepancy"]),
        }
        table = [line.split(",") for line in lines if not line.startswith("#")]
        assert table[0] == ["q", "angle_rad", *(f"P_{n}" for n in doc["paths"])]
        assert [row[0] for row in table[1:]] == list(doc["angles_rad"])
        for q, angle, *cells in table[1:]:
            assert angle == _num(doc["angles_rad"][q])
            assert cells == [_num(doc["orders"][n][q]) for n in doc["paths"]]

    def test_propagate(self, capsys, tmp_path):
        p = with_wy_lambdas(with_g0(make_params(), 2.0), 4.0)
        path = write_params(tmp_path, p)
        for fmt in ("csv", "json"):
            code, _, _ = run(
                capsys, "propagate", "--params", path, "--grid-points", "1024",
                "--box-lambdas", "32", "--steps", "32", "--q-max", "5",
                "--format", fmt, "--out", str(tmp_path / fmt),
            )
            assert code == 0
        doc = json.loads((tmp_path / "json_report.json").read_text())
        report = (tmp_path / "csv_report.csv").read_text().splitlines()
        assert report[:2] == ["quantity,value", f"model,{doc['model']}"]
        assert report[2:] == [f"{k},{_num(v)}" for k, v in doc["scalars"].items()]
        spectrum = (tmp_path / "csv_spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "q,angle_rad,P"
        assert spectrum[1:] == [
            f"{q},{_num(doc['angles_rad'][q])},{_num(P)}" for q, P in doc["spectrum"].items()
        ]

    def test_bloch(self, capsys):
        text, doc = self._both(
            capsys, "bloch", "--drive-re", "1.0", "--drive-im", "0.3", "--detuning", "0.5",
            "--gamma-l", "0.2", "--gamma-t", "0.3", "--dt", "0.05", "--steps", "40",
        )
        lines = text.splitlines()
        assert lines[0] == "t_s,re_R,im_R,W"
        assert lines[1:] == [
            ",".join(_num(s[k]) for k in ("t_s", "re_R", "im_R", "W")) for s in doc["trajectory"]
        ]

    def test_sweep(self, capsys, tmp_path):
        p = with_g0(red_detuned(make_params()), -1.0)
        path = write_params(tmp_path, p)
        values = f"0,{with_v0rho(p, -0.3).rho_0!r},{_at_pole(p).rho_0!r}"  # last: error row
        text, doc = self._both(
            capsys, "sweep", "--params", path, "--values", values, "--q-max", "3",
            "--paths", "analytic,numeric", "--grid-points", "1024", "--box-lambdas", "32",
        )
        table = list(csv.reader(io.StringIO(text)))
        paths, q_max = doc["spec"]["paths"], doc["spec"]["q_max"]
        for cells, row in zip(table[1:], doc["rows"], strict=True):
            if "error" in row:
                want = [_num(row["value"])] + [""] * (len(cells) - 2) + [row["error"]]
            else:
                want = [
                    _num(row["value"]),
                    _num(row["tau"]),
                    *(_num(row["orders"][n][str(q)]) for n in paths for q in range(q_max + 1)),
                    _num(row["discrepancy"]),
                    *(_num(f) for f in row["flags"].values()),
                    "",
                ]
            assert cells == want


@pytest.mark.parametrize("command", ["diffract", "propagate"])
def test_unknown_model_is_an_argparse_usage_error(capsys, params_file, tmp_path, command):
    # the flag table's choices are the one check of a model name, worded
    # as argparse words it
    out = ("--out", str(tmp_path / "run")) if command == "propagate" else ()
    code, stdout, err = run(
        capsys, command, "--params", params_file, *out, "--model", "heuristic"
    )
    assert (code, stdout) == (1, "")
    assert "argument --model: invalid choice: 'heuristic'" in err
    assert os.listdir(tmp_path) == ["ref.params"]  # nothing written


class TestHugeInputs:
    """A finite value whose square or order range overflows the double range
    ends as an error naming the quantity, not as a traceback."""

    HUGE = "1e+300 is out of range: its power 2 overflows"

    def _path(self, tmp_path, **fields):
        return write_params(tmp_path, make_params(**fields))

    @pytest.mark.parametrize("field, argv, message", [
        ("rho_0", ("diffract",), "1 + V0 rho_0 = 2.5"),
        ("w_l", ("diffract",), "tau = 2 g0 / (1 + V0 rho_0)^2 is not finite: g0 = inf"),
        ("rabi_peak", ("diffract", "--q-max", "3"), f"rabi_peak = {HUGE}"),
        ("dipole", ("sweep", "--values", "0,1e16"), f"rho_0=0: dipole = {HUGE}"),
        ("w_l", ("sweep", "--axis", "w_l", "--values", "1e300"), "g0 = inf"),
        ("rabi_peak", ("propagate", "--q-max", "3"), f"rabi_peak = {HUGE}"),
        ("w_l", ("propagate", "--q-max", "3", "--no-kinetic"), f"w_l = {HUGE}"),
        ("dipole", ("propagate", "--model", "gp", "--q-max", "3"), f"dipole = {HUGE}"),
        ("dipole", ("bloch", "--density", "1e15", "--dt", "0.01", "--steps", "2"),
         f"dipole = {HUGE}"),
    ])
    def test_an_overflow_is_a_usage_error_naming_it(
        self, capsys, tmp_path, field, argv, message
    ):
        path = self._path(tmp_path, **{field: 1e300})
        command, *rest = argv
        if command == "propagate":  # the default box fits the 50-wavelength packet
            rest = [*rest, "--grid-points", "8192", "--steps", "8", "--out", str(tmp_path / "r")]
        code, out, err = run(capsys, command, "--params", path, *rest)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.filterwarnings("error")
    def test_a_packet_no_grid_box_holds_is_refused_before_any_array(self, capsys, tmp_path):
        # the fitted box of 6.5 w_y: at w_y = 1e300 the grid's y*y would overflow
        path = self._path(tmp_path, w_y=1e300)
        code, out, err = run(
            capsys, "propagate", "--params", path, "--out", str(tmp_path / "r"), "--steps", "8"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: w_y is too wide for the grid: its box of 6.5 w_y spans 1.10351e+305 "
            "effective wavelengths 2 pi/(n k_L), and 4096 grid points hold at most 2048\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["p.params"]

    @pytest.mark.parametrize("module, ceiling, argv, message", [
        ("propagate", "MAX_GRID_POINTS", ("diffract", "--paths", "numeric", "--grid-points", "32"),
         "n_points = 32 grid points is more than the ceiling of 16"),
        ("propagate", "MAX_Z_STEPS", ("diffract", "--paths", "propagator", "--steps", "17"),
         "n_steps = 17 z-steps is more than the ceiling of 16"),
        ("propagate", "MAX_Z_STEPS", ("propagate", "--steps", "17", "--snapshots", "17"),
         "n_steps = 17 z-steps is more than the ceiling of 16"),
        ("bloch", "MAX_BLOCH_STEPS", ("bloch", "--dt", "0.01", "--steps", "17"),
         "n_steps = 17 Bloch steps is more than the ceiling of 16"),
        ("sweep", "MAX_SWEEP_POINTS",
         ("sweep", "--axis", "rho_0", "--start", "0", "--stop", "1", "--num", "17"),
         "--num = 17 sweep points is more than the ceiling of 16"),
    ])
    def test_a_count_past_its_ceiling_is_refused(
        self, capsys, tmp_path, monkeypatch, params_file, module, ceiling, argv, message
    ):
        # each ceiling lowered to 16 and asked for 17: one error line that
        # names the count, whatever the real ceiling allows
        monkeypatch.setattr(f"matteroptics.{module}.{ceiling}", 16)
        command, *rest = argv
        if command == "propagate":
            rest = [*rest, "--out", str(tmp_path / "r")]
        code, out, err = run(capsys, command, "--params", params_file, *rest)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["ref.params"]

    def test_a_values_list_past_the_sweep_ceiling_is_refused(
        self, capsys, tmp_path, monkeypatch, params_file
    ):
        # --values is bounded like --num: six listed points past a ceiling
        # of 4 are one error line, and no row is evaluated or written
        monkeypatch.setattr("matteroptics.sweep.MAX_SWEEP_POINTS", 4)
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--params", params_file, "--values", "0,1e15,2e15,3e15,4e15,5e15",
            "--paths", "analytic", "--q-max", "2", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == "error: --values = 6 sweep points is more than the ceiling of 4\n"
        assert not out_path.exists()

    def test_a_huge_density_override_names_the_beam_splitter_factor(self, capsys, params_file):
        code, _, err = run(capsys, "diffract", "--params", params_file, "--density", "1e200")
        assert code == 1
        assert err.startswith("error: 1 + V0 rho_0 = ")
        assert err.endswith("is out of range: its power 2 overflows\n")

    @pytest.mark.parametrize("field, command, entry, power", [
        ("dipole", "optics", "alpha", 2),
        ("rabi_peak", "optics", "contact_bound", 2),
        ("k_l", "optics", "significant_density_scaling", 3),
        ("dipole", "validity", "adiabatic_ratio", 2),
        ("rabi_peak", "validity", "collision_bound", 2),
    ])
    def test_a_report_keeps_the_overflow_as_an_error_entry(
        self, capsys, tmp_path, field, command, entry, power
    ):
        path = self._path(tmp_path, **{field: 1e300})
        code, out, err = run(capsys, command, "--params", path, "--format", "json")
        assert (code, err) == (2, "")
        doc = json.loads(out)
        errors = (
            doc["errors"] if command == "optics"
            else {c["name"]: c["error"] for c in doc["checks"] if c["error"]}
        )
        assert errors[entry].endswith(f"is out of range: its power {power} overflows")

    def test_a_mixed_sweep_keeps_its_finite_row(self, capsys, params_file):
        args = ("sweep", "--params", params_file, "--axis", "rho_0", "--paths", "analytic",
                "--q-max", "3")
        code, out, err = run(capsys, *args, "--values", "0,1e200")
        assert (code, err) == (2, "")
        header, finite, huge = out.splitlines()
        assert run(capsys, *args, "--values", "0") == (0, f"{header}\n{finite}\n", "")
        assert huge.startswith("1e+200,,,,,,,,,,1 + V0 rho_0 = ")
        assert huge.endswith("is out of range: its power 2 overflows")


@pytest.mark.parametrize("units", ["cgs", "si"])
def test_every_command_gives_the_bytes_of_a_cold_process(capsys, tmp_path, units):
    # the parameter parse, the key quoting and the grid arrays are memoized
    # across calls in one process; clearing every memo before each call, as
    # a one-shot process starts, moves no byte. An SI file converts the
    # typed --density, a CGS one keeps it as typed.
    p = with_v0rho(with_wy_lambdas(with_g0(make_params(), 1.0), 4.0), 0.2)
    path = write_params(tmp_path, p, units)
    rho = format(convert_field(p.rho_0, "rho_0", "cgs", units), ".17g")
    grid = ("--grid-points", "1024", "--box-lambdas", "32", "--steps", "16", "--q-max", "3")
    commands = [
        ("optics", "--params", path, "--density", rho, "--format", "json"),
        ("validity", "--params", path, "--density", rho, "--format", "json"),
        ("diffract", "--params", path, "--density", rho, "--paths", "all", "--format", "json",
         *grid),
        ("sweep", "--params", path, "--axis", "rho_0", "--values", f"0,{rho}", "--paths", "all",
         "--format", "json", *grid),
        ("bloch", "--params", path, "--density", rho, "--drive-re", "1.0", "--dt", "1e-12",
         "--steps", "40", "--gamma-l", "1e9", "--gamma-t", "1e9", "--format", "json"),
    ]

    def outputs(cold):
        got = []
        for argv in commands:
            if cold:
                for memo in MEMOS:
                    memo.cache_clear()
            got.append(run(capsys, *argv))
        return got

    cold = outputs(cold=True)
    # 2: the 4-wavelength packet fails packet_broadness, which validity
    # and the sweep flag; both still write their report
    assert [code for code, _, _ in cold] == [0, 2, 0, 2, 0]
    assert all(out.endswith("}\n") for _, out, _ in cold)
    assert outputs(cold=False) == cold
    assert outputs(cold=False) == cold
