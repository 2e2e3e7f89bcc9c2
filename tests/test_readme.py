"""The README's command-line examples, run against its own parameter file.

Every `$ matteroptics ...` example is run through main(argv) in a
directory holding the README's `ini` block as `sodium.params`; every
line the README shows beneath it, other than `...`, must appear
verbatim in the output. `$ head -N FILE` examples read the first N
lines of a file an earlier example wrote.
"""

import contextlib
import io
import re
import shlex
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from matteroptics import PhysicalParams
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


@pytest.mark.parametrize("field", [f.name for f in fields(PhysicalParams)])
def test_a_huge_field_ends_every_example_with_an_exit_code(field, tmp_path, monkeypatch):
    # 1e300 is finite, so the file parses; whatever overflows further on
    # must end in an exit code and at most one line of message
    (ini,) = _blocks("ini")
    text, count = re.subn(rf"^{field} = .*$", f"{field} = 1e300", ini, flags=re.M)
    assert count == 1
    (tmp_path / "sodium.params").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv, _ in EXAMPLES:
        if argv[0] != "matteroptics":
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy's overflow warnings
                code = main(argv[1:])  # an exception here is a traceback
        message = err.getvalue()
        assert code in (0, 1, 2), argv
        assert message.count("\n") <= 1, argv
        if code == 1:
            assert message.startswith("error: "), argv
