"""Time one CLI call in fresh interpreters, alternating between two source trees.

    python3 tools/ab_calls.py [--rounds N] TREE_A TREE_B -- ARGV...

Each round runs ``friedman_bounds.cli.main(ARGV)`` once with TREE_A/src and
once with TREE_B/src on the path, in a new interpreter each time, and once a
bare ``python3 -c pass`` by the same interpreter, in the caller's environment
with neither tree on the path; the order of the three reverses between
rounds, so drift in the machine's speed falls on all of them.  Per tree it
prints the median whole-call wall time (interpreter start to exit), the
median in-call time (``main`` alone, its imports included) and the median
CPU time (the interpreter's user plus system seconds, all threads), each
followed by its lower and upper quartile over the rounds
(``statistics.quantiles``, inclusive method), and the exit codes ``main``
returned.  A last line counts the rounds in which TREE_B's whole-call wall
time was below TREE_A's (a tie counts for neither), so a gain claimed for
TREE_B reads off one run: B wins in at least nine tenths of the rounds,
and the medians differ by more than A's q3 - q1.  The bare row has no
in-call time: its wall and CPU times are the
interpreter's start-up alone, the floor under both trees' whole-call times,
which moves with the machine from one session to the next.  A change that
moves work onto more threads trades CPU time for wall time, so both are
shown.  Standard library only (``resource`` makes it Unix only); relative
paths in ARGV are read from the current directory.  A TREE without
src/friedman_bounds is a usage error (exit 2) before any run; a child
interpreter that fails ends the timing with the last line of its stderr
(exit 1).
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
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
        sys.exit(f"error: the call on {tree or BARE!r} failed: {lines[-1]}")  # exit status 1
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
    if tree is None:
        return wall, math.nan, cpu, proc.returncode
    in_call, code = proc.stdout.split()
    return wall, float(in_call), cpu, int(code)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("argv", nargs="+", help="the CLI call, after --")
    ns = parser.parse_args(args)
    if ns.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {ns.rounds}")
    for tree in ns.trees:
        if not (Path(tree) / "src" / "friedman_bounds").is_dir():
            parser.error(f"TREE {tree} has no src/friedman_bounds")
    trees = [*ns.trees, None]  # None: the bare interpreter
    runs: list[list[tuple[float, float, float, int]]] = [[], [], []]
    for i in range(ns.rounds):
        for side in ((0, 1, 2) if i % 2 == 0 else (2, 1, 0)):
            runs[side].append(one_call(trees[side], ns.argv))
    names = ("wall_s", "in_call_s", "cpu_s")
    print(f"{'tree':<40}" + "".join(f" {name:>10} {'q1':>7} {'q3':>7}" for name in names)
          + "  codes")
    for label, tree, side in zip(["A", "B", "bare"], trees, runs):
        wall, in_call, cpu, codes = zip(*side)
        label += " " + (BARE if tree is None else tree)
        cells = ""
        for values in (wall, in_call, cpu):
            if math.isnan(values[0]):  # the bare row's in-call time
                cells += f" {'-':>10} {'-':>7} {'-':>7}"
            else:
                q1, median, q3 = quartiles(list(values))
                cells += f" {median:>10.4f} {q1:>7.4f} {q3:>7.4f}"
        print(f"{label:<40}{cells}  {sorted(set(codes))}")
    wins = sum(b[0] < a[0] for a, b in zip(runs[0], runs[1]))
    print(f"B below A in whole-call wall time: {wins} of {ns.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
