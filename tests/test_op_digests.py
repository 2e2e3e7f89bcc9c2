"""tools/op_digests.py: one stable digest per perfbench operation."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_digests.py"


def test_two_runs_list_the_same_digest_for_every_operation(tmp_path):
    argv = [sys.executable, str(TOOL), "--work", str(tmp_path / "work"),
            "--seeds", "1", "--workloads", "interactive_mix"]
    first, second = (
        subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
        for _ in range(2)
    )
    assert len(first) == 128
    assert first == second
    ops, cold = first[:100], first[100:]
    assert [line.split()[:3] for line in ops] == [
        ["interactive_mix", "1", f"{i:03d}"] for i in range(100)
    ]
    assert len({line.split()[3] for line in ops}) == 100  # each op writes its own path
    # then -h, a usage error and two forms that argparse reads, for the
    # program and for each command
    commands = ["optics", "validity", "diffract", "propagate", "bloch", "sweep"]
    rare = ("--threads=--", "--thr 0")
    assert [line.rpartition(" ")[0] for line in cold] == [
        "matteroptics -h", "matteroptics", *(f"matteroptics {flags}" for flags in rare),
        *(f"matteroptics {c} {flags}" for c in commands for flags in ("-h", "--bogus", *rare)),
    ]
    # the program's three lines without a command get one reply
    digests = [line.rpartition(" ")[2] for line in cold]
    assert digests[1] == digests[2] == digests[3]
    assert len(set(digests)) == 26
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rpartition(" ")[2]) for line in first)


def test_against_lists_the_operations_whose_outputs_differ(tmp_path, monkeypatch):
    # a copy of this tree's src in which only validity prints one more
    # line and only the program's -h one more word: exactly the validity
    # operations and that cold path differ, and the tool exits 1
    src = TOOL.parent.parent / "src"
    other = tmp_path / "other"
    shutil.copytree(src, other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = other / "src" / "matteroptics" / "cli.py"
    text = cli_py.read_text(encoding="utf-8")
    for old, new in (
        ("def cmd_validity(args) -> int:\n", "def cmd_validity(args) -> int:\n    print('#')\n"),
        ('"Medium optics, ', '"Moved: medium optics, '),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli_py.write_text(text, encoding="utf-8")
    argv = [sys.executable, str(TOOL), "--work", str(tmp_path / "work"),
            "--seeds", "1", "--workloads", "interactive_mix", "--against"]

    same = subprocess.run([*argv, str(src.parent)], capture_output=True, text=True)
    assert (same.returncode, same.stdout) == (
        0, "0 of 100 operations differ\n0 of 28 cold paths differ\n"
    )

    changed = subprocess.run([*argv, str(other)], capture_output=True, text=True)
    monkeypatch.syspath_prepend(str(TOOL.parent.parent / "perfbench"))
    import workloads

    ops = workloads.build("interactive_mix", 1, tmp_path / "work" / "interactive_mix-1").ops
    validity = [f"interactive_mix 1 {i:03d} differs" for i, op in enumerate(ops)
                if op.argv[0] == "validity"]
    assert validity
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [
        *validity, "matteroptics -h differs",
        f"{len(validity)} of 100 operations differ", "1 of 28 cold paths differ",
    ]
