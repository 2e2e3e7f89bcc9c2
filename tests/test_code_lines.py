"""tools/code_lines.py: code lines without blanks, comments or docstrings."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 7 code lines: the import, the constant, the class line, its attribute,
# the def line, the string that is not a docstring and the return. Not
# counted: the blanks, the comment lines and the three docstrings, one
# of them spanning three lines.
MODULE = '''"""A module docstring."""

import math

# a comment line
LIMIT = 3  # a trailing comment keeps the line


class Box:
    """A class docstring
    over three
    lines."""

    size = 1


def area(r):
    """A function docstring."""
        # an indented comment line
    note = """not a docstring"""
    return math.pi * r * r
'''


def test_a_synthetic_module_has_its_known_count(tmp_path):
    (tmp_path / "sample.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "empty.py").write_text("", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], check=True, capture_output=True, text=True
    ).stdout
    assert out == "0 empty\n7 sample\n7 total\n"
