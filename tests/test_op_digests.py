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
    assert len(first) == 100
    assert first == second
    assert [line.split()[:3] for line in first] == [
        ["interactive_mix", "1", f"{i:03d}"] for i in range(100)
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[3]) for line in first)
    assert len({line.split()[3] for line in first}) == 100  # each op writes its own path


def test_against_lists_the_operations_whose_outputs_differ(tmp_path, monkeypatch):
    # a copy of this tree's src in which only validity prints one more
    # line: exactly the validity operations differ, and the tool exits 1
    src = TOOL.parent.parent / "src"
    other = tmp_path / "other"
    shutil.copytree(src, other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = other / "src" / "matteroptics" / "cli.py"
    head = "def cmd_validity(args) -> int:\n"
    text = cli_py.read_text(encoding="utf-8")
    assert text.count(head) == 1
    cli_py.write_text(text.replace(head, head + "    print('#')\n"), encoding="utf-8")
    argv = [sys.executable, str(TOOL), "--work", str(tmp_path / "work"),
            "--seeds", "1", "--workloads", "interactive_mix", "--against"]

    same = subprocess.run([*argv, str(src.parent)], capture_output=True, text=True)
    assert (same.returncode, same.stdout) == (0, "0 of 100 operations differ\n")

    changed = subprocess.run([*argv, str(other)], capture_output=True, text=True)
    monkeypatch.syspath_prepend(str(TOOL.parent.parent / "perfbench"))
    import workloads

    ops = workloads.build("interactive_mix", 1, tmp_path / "work" / "interactive_mix-1").ops
    validity = [f"interactive_mix 1 {i:03d} differs" for i, op in enumerate(ops)
                if op.argv[0] == "validity"]
    assert validity
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [
        *validity, f"{len(validity)} of 100 operations differ",
    ]
