"""Static checks on the package source."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

import matteroptics
from matteroptics import units
from matteroptics.errors import ParameterError

from conftest import MEMOS, argparse_kwargs

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matteroptics"
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Imported names never read in the module, as 'name (line N)'.

    A name listed in the module's __all__ counts as read.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "print(d)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "osp (line 2)", "b (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_module_reads(source: str, modules: set[str]) -> list[str]:
    """Reads of a `_`-prefixed attribute of a module in `modules` bound by
    `from . import X`, as 'X._name (line N)'. Dunder names are not private."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
        if alias.name in modules
    }
    return [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
    ]


def test_private_read_checker():
    source = (
        "from . import a, b as bee, __version__\n"
        "from .c import d\n"
        "x = a._hidden + bee._other + a.public + a.__name__\n"
        "y = d._fine + c._unbound + __version__._x\n"
    )
    assert private_module_reads(source, {"a", "b", "c"}) == [
        "a._hidden (line 3)", "bee._other (line 3)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    # a module's private names are its own; another module that needs one
    # needs it made public, or the decision moved to its owner
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert private_module_reads(path.read_text(encoding="utf-8"), modules) == []


def guard_sites(source: str, constant: str | None, error: str | None = None) -> set[str]:
    """Functions that compare `constant` or raise `error`(...), by name.

    Module-level code counts as '<module>'.
    """
    sites = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        compares = constant is not None and isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Name) and n.id == constant for n in ast.walk(node)
        )
        raises = error is not None and isinstance(node, ast.Call) and error in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )
        if compares or raises:
            sites.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_guard_site_checker():
    source = (
        "def guard(d):\n"
        "    if abs(d) <= EPS_POLE:\n"
        "        raise PoleError('x')\n"
        "def other(d):\n"
        "    return d if EPS_POLE < d else None\n"
        "err = PoleError('y')\n"
        "def third():\n"
        "    return errors.PoleError('z')\n"
        "def unrelated(d):\n"
        "    return d <= 1e-12\n"
    )
    assert guard_sites(source, "EPS_POLE", "PoleError") == {"guard", "other", "<module>", "third"}
    assert guard_sites(source, "EPS_POLE") == {"guard", "other"}
    assert guard_sites(source, None, "PoleError") == {"guard", "<module>", "third"}


def package_guard_sites(constant: str | None, error: str | None = None) -> set[str]:
    return {
        f"{path.stem}.{site}"
        for path in PACKAGE.glob("*.py")
        for site in guard_sites(path.read_text(encoding="utf-8"), constant, error)
    }


def test_one_pole_guard():
    # every local-field denominator goes through optics.check_pole, so a
    # new formula cannot grow a guard, a threshold or a message of its own
    assert package_guard_sites("EPS_POLE", "PoleError") == {"optics.check_pole"}


def test_one_adiabatic_guard():
    # the propagator and any later caller reject a density range through
    # optics.check_adiabatic; the regime checks report the threshold
    # through RegimeCheck, which compares no named constant
    assert package_guard_sites("ADIABATIC_RATIO_MIN") == {"optics.check_adiabatic"}


def test_one_home_of_the_regime_checks():
    # validity, the sweep flags and any later reader take their checks
    # from models.regime_checks, so a check cannot be evaluated beside it
    # with a threshold or a default of its own
    assert package_guard_sites(None, "evaluate") == {"models.regime_checks"}


def name_tests(source: str, names: set[str]) -> list[int]:
    """Lines that compare a value with in, not in, == or != against a
    string literal in `names`, alone or inside a literal collection."""
    tests = (ast.In, ast.NotIn, ast.Eq, ast.NotEq)
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, tests) for op in node.ops)
        and any(isinstance(n, ast.Constant) and n.value in names for n in ast.walk(node))
    })


def test_name_test_checker():
    source = (
        'TABLE = {"a": 1, "b": 2}\n'
        'x = f("a")\n'
        'if "a" in chosen or y == "b":\n'
        '    pass\n'
        'z = k not in ("c", "a")\n'
        'w = k < "a"\n'
        'v = need == "grid"\n'
    )
    assert name_tests(source, {"a", "b"}) == [3, 5]


def test_one_route_selector():
    # every route selection goes through diffraction.select_routes: no
    # other function checks names against ROUTES, and no other module
    # reads it
    assert package_guard_sites("ROUTES") == {"diffraction.select_routes"}
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "ROUTES"
    }
    assert readers == {"diffraction.py"}
    # diffraction's route table is the one place a route's name decides
    # anything: its keys are no comparison, and no code tests a name
    from matteroptics import cli
    from matteroptics.diffraction import ROUTES

    tested = {
        path.name: lines
        for path in PACKAGE.glob("*.py")
        if (lines := name_tests(path.read_text(encoding="utf-8"), set(ROUTES)))
    }
    assert tested == {}
    # a route added to the table cannot be missing from --help
    help_text = cli._FLAGS["--paths"]["help"]
    assert re.findall("|".join(ROUTES), help_text) == list(ROUTES)


def test_one_rule_for_the_packet_density():
    # rho_0 alone fixes the packet's peak amplitude and the density the
    # potential sees; everything that builds a packet or reads its
    # density asks packet_normalization, so the two cannot disagree
    assert package_guard_sites(None, "packet_normalization") == {
        "propagate._weight", "propagate.write_state_csv", "propagate.init_gaussian",
        "diffraction.propagator_orders",
    }


def test_one_ceiling_on_the_order_count():
    assert package_guard_sites("MAX_ORDERS") == {"propagate.check_order_count"}


def test_one_guard_per_count_ceiling():
    # each count that sizes an array is refused above its own ceiling in
    # one place, before the array is made
    sites = {
        name: package_guard_sites(name)
        for name in ("MAX_GRID_POINTS", "MAX_Z_STEPS", "MAX_BLOCH_STEPS", "MAX_SWEEP_POINTS")
    }
    assert sites == {
        "MAX_GRID_POINTS": {"propagate.__post_init__"},
        "MAX_Z_STEPS": {"propagate.__post_init__"},
        "MAX_BLOCH_STEPS": {"bloch.integrate"},
        "MAX_SWEEP_POINTS": {"cli.cmd_sweep"},
    }


def test_one_comparison_bounds_both_sweep_point_lists():
    # --values and --num reach the ceiling through one comparison, so the
    # two lists cannot be bounded apart
    compares = [
        node for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Name) and n.id == "MAX_SWEEP_POINTS" for n in ast.walk(node))
    ]
    assert len(compares) == 1


def cli_args_reads(source: str) -> set[str]:
    """Every attribute `name` read as args.<name> in the source."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.ctx, ast.Load)
    }


def test_cli_args_reads_checker():
    source = "def f(args):\n    x = args.q_max + args.steps\n    args.out = 1\n    g(other.a)\n"
    assert cli_args_reads(source) == {"q_max", "steps"}


def test_every_flag_is_read_and_listed():
    # a flag removed from the table but still read, or defined but listed
    # by no command, would only fail when a user reaches that line
    from matteroptics import cli

    dests = {
        argparse.ArgumentParser().add_argument(key.split()[-1], **argparse_kwargs(spec)).dest
        for key, spec in cli._FLAGS.items()
    }
    read = cli_args_reads((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert read - dests - {"command"} == set()
    listed = set(cli._COMMON).union(*(flags for _, *flags in cli._COMMANDS.values()))
    assert set(cli._FLAGS) - listed == set()


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module the source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_checker():
    source = "import os.path, json as j\nfrom argparse import Namespace\nfrom . import cli\n"
    assert imported_modules(source) == {"os", "json", "argparse"}


def test_argparse_is_imported_only_by_cli_parser():
    # argparse formats -h and reads every line that cli's exact path
    # declines, all inside cli._parser, so a line of whole flags and
    # good values never imports it
    importers = {
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if "argparse" in imported_modules(ast.unparse(node))
    }
    assert importers == {"cli._parser"}


def test_one_owner_of_numerics_failures():
    # the transit scans its real states and step checks each fresh
    # density; a caller reads the last good state off the error instead
    # of scanning again
    assert package_guard_sites(None, "NumericsError") == {
        "propagate._weight", "propagate.propagate_through_laser",
    }


def test_one_table_holds_the_parameter_schema():
    # units._FIELDS owns each field's dimension and lower bound, in field
    # order; the range rules and the file's known and required keys are
    # derived from it, so a new field is one table row
    names = [f.name for f in fields(units.PhysicalParams)]
    assert list(units._FIELDS) == names
    assert {dim for dim, _ in units._FIELDS.values()} <= set(units._SI_TO_CGS)
    bounds = {name: bound for name, (_, bound) in units._FIELDS.items()}
    assert set(bounds.values()) == {"positive", "nonnegative", None}
    # PhysicalParams' range rules read the bound column itself: each field
    # alone at 0 and at -1 is refused exactly where its bound says
    ok = units.PhysicalParams(**{name: 1.0 for name in names})
    for name, bound in bounds.items():
        for value, refused in ((0.0, bound == "positive"), (-1.0, bound is not None)):
            try:
                replace(ok, **{name: value})
            except ParameterError as exc:
                assert refused and str(exc).startswith(f"{name} must be "), (name, value)
            else:
                assert not refused, (name, value)
    required = {f.name for f in fields(units.PhysicalParams) if f.default is MISSING}
    assert units._REQUIRED_FIELDS == required == set(names) - {"delta_shift"}


def backward_conversions(source: str, names: set[str]) -> list[str]:
    """Calls that may convert an input toward the file's units, as
    'function (line N)': a convert_field call whose target system is not
    the literal "cgs", and a convert_dimension call from "cgs" to another
    system whose value reads a field in `names` (p.rho_0, or a bare rho_0)."""
    found = []

    def system(call, index, keyword):
        node = next((k.value for k in call.keywords if k.arg == keyword), None)
        if node is None and len(call.args) > index:
            node = call.args[index]
        return node.value if isinstance(node, ast.Constant) else None

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            to_system = system(node, 3, "to_system")
            reads_field = bool(node.args) and any(
                (getattr(n, "attr", None) or getattr(n, "id", None)) in names
                for n in ast.walk(node.args[0])
            )
            if (callee == "convert_field" and to_system != "cgs") or (
                callee == "convert_dimension" and system(node, 2, "from_system") == "cgs"
                and to_system != "cgs" and reads_field
            ):
                found.append(f"{where} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_backward_conversion_checker():
    source = (
        "def typed(v, pf):\n"
        "    return convert_field(v, 'rho_0', pf.units, 'cgs')\n"
        "def echo(pf, density):\n"
        "    return convert_field(density, 'rho_0', 'cgs', pf.units)\n"
        "def derived(rn, p, pf):\n"
        "    a = convert_dimension(rn.v0, 'volume', 'cgs', pf.units)\n"
        "    b = convert_dimension(p.rho_0, 'density', 'cgs', pf.units)\n"
        "    c = convert_dimension(rho_0 * 2.0, 'density', 'cgs', to_system=pf.units)\n"
        "    return units.convert_field(p.w_y, 'w_y', from_system='cgs', to_system='si')\n"
    )
    assert backward_conversions(source, {"rho_0", "w_y"}) == [
        "echo (line 4)", "derived (line 7)", "derived (line 8)", "derived (line 9)",
    ]


def test_no_input_is_converted_back():
    # an echo of an input reads ParamFile.typed, the value as typed; only
    # derived outputs (v0, alpha, ...) go from CGS to the file's units, so
    # no lossy round trip can reach a report or a message
    names = set(units._FIELDS)
    found = [
        f"{path.name}: {site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in backward_conversions(path.read_text(encoding="utf-8"), names)
    ]
    assert found == []


def imaginary_exponentials(source: str) -> list[str]:
    """Calls of an `exp` (np.exp, cmath.exp, a bare exp) whose argument holds
    an imaginary literal, as 'function (line N)', outside phase_factor.
    Module-level code counts as '<module>'."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "exp"
            and where != "phase_factor"
            and any(
                isinstance(n, ast.Constant) and isinstance(n.value, complex)
                for arg in node.args
                for n in ast.walk(arg)
            )
        ):
            found.append(f"{where} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_imaginary_exponential_checker():
    source = (
        "def phase_factor(theta):\n"
        "    return np.exp(-1j * theta)\n"
        "def settle(psi, drive, w):\n"
        "    return psi * np.exp(-1j * (drive * w))\n"
        "def kinetic(c, k):\n"
        "    return cmath.exp(-0.5j * c * k * k) + exp(2j)\n"
        "def envelope(z):\n"
        "    return np.exp(-(z * z)) * np.exp(x)\n"
        "mask = numpy.exp(1j * phi)\n"
    )
    assert imaginary_exponentials(source) == [
        "settle (line 4)", "kinetic (line 6)", "kinetic (line 6)", "<module> (line 9)",
    ]


def test_every_pure_phase_factor_comes_from_phase_factor():
    # propagate.phase_factor takes exp(-i theta) from cos and sin, with the
    # bits of the complex exponential in about half its time; a phase taken
    # through np.exp would pay for libm's cexp again
    found = [
        f"{path.name}: {site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in imaginary_exponentials(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_each_float_format_has_one_owner():
    # CSV's 9 digits and JSON's 17 are serialize's contract; a writer that
    # formats its own floats could drift from it (sign folding, inf, NaN)
    owners = {
        (literal, path.name)
        for path in PACKAGE.glob("*.py")
        for literal in (".17g", ".9g")
        if literal in path.read_text(encoding="utf-8")
    }
    assert owners == {(".17g", "serialize.py"), (".9g", "serialize.py")}


def csv_text_cell_sites(source: str) -> list[str]:
    """Where a module writes CSV text cells its own way, as 'what (line N)':
    an import of the csv module, or a quote doubled by .replace('"', '""')."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            sites.append(f"import csv (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            sites.append(f"import csv (line {node.lineno})")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "replace"
            and [getattr(a, "value", None) for a in node.args] == ['"', '""']
        ):
            sites.append(f"quote doubling (line {node.lineno})")
    return sites


def test_csv_text_cell_checker():
    source = (
        "import csv\n"
        "from csv import writer\n"
        "import io, csv as c\n"
        "cell = '\"' + text.replace('\"', '\"\"') + '\"'\n"
        "other = text.replace('a', 'b')\n"
        "import csvkit\n"
    )
    assert csv_text_cell_sites(source) == [
        "import csv (line 1)", "import csv (line 2)", "import csv (line 3)",
        "quote doubling (line 4)",
    ]


def test_each_csv_text_cell_has_one_owner():
    # serialize.csv_cell is the one rule for a text cell (always quoted,
    # its quotes doubled); a writer with its own quoting, or the csv
    # module's quote-when-needed, would give the same text two spellings
    owners = {
        path.name: [site.split(" (")[0] for site in sites]
        for path in PACKAGE.glob("*.py")
        if (sites := csv_text_cell_sites(path.read_text(encoding="utf-8")))
    }
    assert owners == {"serialize.py": ["quote doubling"]}


def test_every_memo_of_the_package_is_listed():
    # a test that starts cold clears conftest.MEMOS; a memo missing from it
    # would carry state from one call to the next unseen
    caches = {
        value
        for module in pkgutil.iter_modules(matteroptics.__path__)
        for value in vars(importlib.import_module(f"matteroptics.{module.name}")).values()
        if hasattr(value, "cache_clear")
    }
    assert caches == set(MEMOS)


def test_root_exports_resolve():
    # a stale __all__ entry breaks `from matteroptics import *`
    missing = [name for name in matteroptics.__all__ if not hasattr(matteroptics, name)]
    assert missing == []
    assert len(set(matteroptics.__all__)) == len(matteroptics.__all__)


def loaded_names(source: str) -> set[str]:
    """Every name and attribute name the module reads (loads)."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_loaded_names_checker():
    source = (
        "from .a import b, c\n"
        "x = b(1)\n"
        "y.attr = c.method()\n"
        "def unused(): pass\n"
    )
    assert loaded_names(source) == {"b", "c", "method", "y"}


def public_api():
    """Every name in matteroptics.__all__, and Class.method for every public
    method (function, classmethod, staticmethod or property) of a public class."""
    for name in matteroptics.__all__:
        yield name
        obj = getattr(matteroptics, name)
        if isinstance(obj, type):
            for attr, value in vars(obj).items():
                method = inspect.isfunction(value) or isinstance(
                    value, (classmethod, staticmethod, property)
                )
                if method and not attr.startswith("_"):
                    yield f"{name}.{attr}"


def test_public_api_has_a_reader_outside_the_tests():
    # a public name only the tests read is surface to keep up for nobody:
    # the package itself (not its re-exports) or the benchmark, whose
    # tracer names its targets as strings, must read it
    read = set().union(*(
        loaded_names(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
    ))
    perfbench = "\n".join(path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py"))
    unread = [
        name for name in public_api()
        if name.rpartition(".")[2] not in read
        and not re.search(rf"\b{re.escape(name.rpartition('.')[2])}\b", perfbench)
    ]
    assert unread == []


def package_imports(source: str) -> set[tuple[str, str]]:
    """(enclosing function, module) for each import of a package module.

    A package module is a relative import or one under matteroptics;
    `from . import x` names x. Module-level code counts as '<module>'.
    """
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            found.update((where, name.split(".")[0]) for name in names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("matteroptics."):
            found.add((where, node.module.split(".")[1]))
        elif isinstance(node, ast.Import):
            found.update(
                (where, alias.name.split(".")[1])
                for alias in node.names
                if alias.name.startswith("matteroptics.")
            )
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_package_imports_checker():
    source = (
        "import os\n"
        "from .a import b\n"
        "from . import c, d\n"
        "def f():\n"
        "    from .e.g import h\n"
        "    import matteroptics.i\n"
        "    from concurrent.futures import j\n"
        "def k():\n"
        "    from matteroptics.l import m\n"
    )
    assert package_imports(source) == {
        ("<module>", "a"), ("<module>", "c"), ("<module>", "d"),
        ("f", "e"), ("f", "i"), ("k", "l"),
    }


def test_the_layering_is_one_way():
    # the grid layer owns the order window and the pattern it fills, so it
    # imports no route, no sweep, no dynamics and no front end; and no
    # module defers an import to dodge a cycle, only cli's per-command
    # imports, which keep the modules one command needs off the others
    imports = {
        path.stem: package_imports(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    upward = {module for _, module in imports["propagate"]} & {
        "diffraction", "sweep", "bloch", "cli",
    }
    assert upward == set()
    deferred = {
        f"{stem}.{where}"
        for stem, sites in imports.items()
        for where, _ in sites
        if where != "<module>"
    }
    assert deferred == {"cli.cmd_bloch", "cli.cmd_sweep"}
