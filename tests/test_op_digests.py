"""tools/op_digests.py: one stable digest per perfbench operation."""

import re
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
