"""Print one digest per perfbench operation, to compare two commits' outputs.

Builds each perfbench workload at each seed from the checkout this file
sits in, under a fixed work directory (outputs embed their own paths,
so both sides must use the same one), runs every operation of one round
through matteroptics.cli.main in this process, and prints one line per
operation:

    <workload> <seed> <index> <sha256 of exit code, stdout, stderr and every file written>

To check that a change keeps every output byte, run it on both trees
and diff the two listings; for a tree that lacks this file, copy it to
that tree's tools/ first:

    python3 tools/op_digests.py --work /tmp/op-digests > after.txt
    python3 <parent tree>/tools/op_digests.py --work /tmp/op-digests > before.txt
    diff before.txt after.txt

It reads perfbench/workloads.py and perfbench/checks.py and changes
nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from matteroptics import cli  # noqa: E402


def op_digest(op) -> str:
    """Clear the operation's output directory, run it, and hash what it gave."""
    out_dir = checks.output_path(op).parent
    for path in out_dir.iterdir():
        path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    h = hashlib.sha256()
    for chunk in (str(code), out.getvalue(), err.getvalue()):
        h.update(chunk.encode() + b"\0")
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", type=Path, required=True, help="fixed directory for inputs and outputs")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    for name in args.workloads:
        for seed in args.seeds:
            ops = workloads.build(name, seed, args.work.resolve() / f"{name}-{seed}").ops
            for index, op in enumerate(ops):
                print(f"{name} {seed} {index:03d} {op_digest(op)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
