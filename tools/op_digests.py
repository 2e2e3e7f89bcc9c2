"""Print one digest per perfbench operation, to compare two commits' outputs.

Builds each perfbench workload at each seed from this checkout's
perfbench/, under a fixed work directory (outputs embed their own paths,
so both sides must use the same one), runs every operation of one round
through matteroptics.cli.main in this process, and prints one line per
operation:

    <workload> <seed> <index> <sha256 of exit code, stdout, stderr and every file written>

It then digests the cold paths that no workload reaches, for the
program and for each command, one line each: -h, a usage error, and two
forms that argparse reads, not the exact path (an attached "--" value
and a prefix):

    matteroptics [<command>] <flags> <sha256 of exit code, stdout, stderr and files>

The package run is the `src` of --tree, this checkout by default. To
check that a change keeps every output byte, give the other checkout as
--against: the same workloads and seeds are then run on its `src` too,
by this file in a subprocess under the same --work directory, and the
tool prints each operation or cold path whose digests differ, then how
many of each differ, and exits 1 if any do:

    python3 tools/op_digests.py --work /tmp/op-digests --against <parent tree>

It reads perfbench/workloads.py and perfbench/checks.py and changes
nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402


# The six commands, named here so that both trees digest the same cold paths.
COMMANDS = ("optics", "validity", "diffract", "propagate", "bloch", "sweep")
RARE_FORMS = (["--threads=--"], ["--thr", "0"])
COLD_ARGVS = (
    ["-h"], [], *RARE_FORMS,
    *([command, *flags] for command in COMMANDS for flags in (["-h"], ["--bogus"], *RARE_FORMS)),
)


def digest(cli, argv, out_dir: Path) -> str:
    """Clear out_dir, run argv, and hash what it gave: its exit code,
    stdout, stderr and every file it wrote to out_dir."""
    for path in out_dir.iterdir():
        path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    h = hashlib.sha256()
    for chunk in (str(code), out.getvalue(), err.getvalue()):
        h.update(chunk.encode() + b"\0")
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def import_cli(tree: Path):
    """matteroptics.cli from tree's src, and from nowhere else."""
    src = tree / "src"
    sys.path.insert(0, str(src))
    from matteroptics import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"matteroptics was already loaded from {cli.__file__}, not {src}")
    return cli


def listing(args) -> list[str]:
    """One '<workload> <seed> <index> <digest>' line per operation, on --tree's src."""
    cli = import_cli(args.tree.resolve())
    lines = []
    for name in args.workloads:
        for seed in args.seeds:
            ops = workloads.build(name, seed, args.work.resolve() / f"{name}-{seed}").ops
            for index, op in enumerate(ops):
                out_dir = checks.output_path(op).parent
                lines.append(f"{name} {seed} {index:03d} {digest(cli, op.argv, out_dir)}")
    cold_dir = args.work.resolve() / "cold"  # where a cold path would write, if it did
    cold_dir.mkdir(parents=True, exist_ok=True)
    for argv in COLD_ARGVS:
        lines.append(f"{' '.join(['matteroptics', *argv])} {digest(cli, argv, cold_dir)}")
    return lines


def compare(args) -> int:
    """Run --against's src in a subprocess, then this one's; print what differs."""
    theirs = subprocess.run(
        [sys.executable, __file__, "--tree", str(args.against), "--work", str(args.work),
         "--seeds", *map(str, args.seeds), "--workloads", *args.workloads],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    ours = listing(args)
    before = {line.rpartition(" ")[0]: line for line in theirs}
    after = {line.rpartition(" ")[0]: line for line in ours}
    keys = sorted(before.keys() | after.keys())
    differ = [key for key in keys if before.get(key) != after.get(key)]
    for key in differ:
        print(f"{key} differs")
    for what, cold in (("operations", False), ("cold paths", True)):
        count = sum(key.startswith("matteroptics") == cold for key in keys)
        moved = sum(key.startswith("matteroptics") == cold for key in differ)
        print(f"{moved} of {count} {what} differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", type=Path, required=True, help="fixed directory for inputs and outputs")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS))
    ap.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src is run")
    ap.add_argument("--against", type=Path, help="checkout to compare every digest with")
    args = ap.parse_args(argv)
    if args.against is not None:
        return compare(args)
    for line in listing(args):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
