"""Time one CLI call in fresh interpreters, alternating between two source trees.

    python3 tools/ab_calls.py [--rounds N] TREE_A TREE_B -- ARGV...

Each round runs ``friedman_bounds.cli.main(ARGV)`` once with TREE_A/src and
once with TREE_B/src on the path, in a new interpreter each time, and once a
bare ``python3 -c pass`` by the same interpreter, in the caller's environment
with neither tree on the path; the order of the three reverses between
rounds, so drift in the machine's speed falls on all of them.  Per tree it prints the median whole-call wall time
(interpreter start to exit), the median in-call time (``main`` alone, its
imports included) and the median CPU time (the interpreter's user plus
system seconds, all threads), over the rounds, and the exit codes ``main``
returned.  The bare row has no in-call time: its wall and CPU times are the
interpreter's start-up alone, the floor under both trees' whole-call times,
which moves with the machine from one session to the next.  A change that
moves work onto more threads trades CPU time for wall time, so both are
shown.  Standard library only (``resource`` makes it Unix only); relative
paths in ARGV are read from the current directory.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHILD = """\
import contextlib, io, sys, time
from friedman_bounds.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(time.perf_counter() - start, code)
"""


def cpu_seconds() -> float:
    """User plus system seconds of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


BARE = "python3 -c pass"


def one_call(tree: str | None, argv: list[str]) -> tuple[float, float, float, int]:
    """(whole-call wall s, in-call s, CPU s, exit code) of one fresh interpreter;
    with no tree, of a bare ``-c pass``, whose in-call time is nan."""
    env, cmd = dict(os.environ), [sys.executable, "-c", "pass"]
    if tree is not None:
        env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
        cmd = [sys.executable, "-c", CHILD, *argv]
    cpu, start = cpu_seconds(), time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
    if tree is None:
        return wall, math.nan, cpu, proc.returncode
    in_call, code = proc.stdout.split()
    return wall, float(in_call), cpu, int(code)


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("argv", nargs="+", help="the CLI call, after --")
    ns = parser.parse_args(args)
    if ns.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {ns.rounds}")
    trees = [*ns.trees, None]  # None: the bare interpreter
    runs: list[list[tuple[float, float, float, int]]] = [[], [], []]
    for i in range(ns.rounds):
        for side in ((0, 1, 2) if i % 2 == 0 else (2, 1, 0)):
            runs[side].append(one_call(trees[side], ns.argv))
    print(f"{'tree':<40} {'wall_s':>8} {'in_call_s':>10} {'cpu_s':>8}  codes")
    for label, tree, side in zip(["A", "B", "bare"], trees, runs):
        wall, in_call, cpu, codes = zip(*side)
        label += " " + (BARE if tree is None else tree)
        in_call_s = "-" if tree is None else f"{statistics.median(in_call):.4f}"
        print(f"{label:<40} {statistics.median(wall):>8.4f} {in_call_s:>10} "
              f"{statistics.median(cpu):>8.4f}  {sorted(set(codes))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
