"""Seeded inputs and the CLI calls of each benchmark workload.

The benchmark seed fixes every CSV byte and every ``--seed`` flag; the CLI
only ever receives the generated files and flags.  Each call is a ``Call``:
its argument vector plus what its output checker needs to know.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SAMPLES = 200_000

# (name, rows, columns, format, header) of the three ingest CSVs
INGEST_FILES = (
    ("scores", 200_000, 5, "scores", True),
    ("ranks", 200_000, 5, "ranks", False),
    ("wide", 20_000, 50, "scores", False),
)


@dataclass
class Call:
    """One CLI call: a step label, its argv, and the facts its check uses."""

    step: str
    argv: list[str]
    kind: str                      # "test", "distance", "verify" or "rate"
    spec: dict = field(default_factory=dict)


def tie_free_scores(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """Integer scores in 1e-4 units with no tie inside any row.

    Rows with a repeated value are redrawn until none is left, and the result
    is checked once more before it is returned.
    """
    ints = rng.integers(0, 10_000_000, size=(n, r))
    while True:
        ordered = np.sort(ints, axis=1)
        tied = np.flatnonzero(np.any(np.diff(ordered, axis=1) == 0, axis=1))
        if tied.size == 0:
            break
        ints[tied] = rng.integers(0, 10_000_000, size=(tied.size, r))
    if np.any(np.diff(np.sort(ints, axis=1), axis=1) == 0):
        raise RuntimeError("generated scores contain a tie")
    return ints


def rank_rows(ints: np.ndarray) -> np.ndarray:
    """Ranks 1..r of each tie-free integer row."""
    return np.argsort(np.argsort(ints, axis=1), axis=1) + 1


def write_csv(path: Path, rows: np.ndarray, fmt: str, header: bool) -> None:
    """Scores are written as (int - 5e6) / 1e4 with four decimals, so that
    distinct integers stay distinct after the CLI parses them as floats."""
    r = rows.shape[1]
    head = ",".join(f"t{j + 1}" for j in range(r)) if header else ""
    if fmt == "scores":
        np.savetxt(path, (rows - 5_000_000) / 1e4, fmt="%.4f", delimiter=",",
                   header=head, comments="")
    else:
        np.savetxt(path, rows, fmt="%d", delimiter=",", header=head, comments="")


def make_csvs(seed: int, directory: Path, scale: int = 1) -> list[dict]:
    """Write the ingest CSVs (rows divided by ``scale``) and return, per file,
    its path, format, shape and exact column rank sums."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for name, n, r, fmt, header in INGEST_FILES:
        n //= scale
        if fmt == "scores":
            rows = tie_free_scores(rng, n, r)
            ranks = rank_rows(rows)
        else:
            rows = rng.permuted(np.tile(np.arange(1, r + 1), (n, 1)), axis=1)
            ranks = rows
        path = directory / f"{name}-{seed}-{n}x{r}.csv"
        write_csv(path, rows, fmt, header)
        out.append({"name": name, "path": str(path), "format": fmt, "header": header,
                    "n": n, "r": r, "rank_sums": [int(v) for v in ranks.sum(axis=0)]})
    return out


def _distance(step: str, r: int, n: int, seed: int, metric: str = "kolmogorov",
              threads: int = 1, same_stdout_as: str = "") -> Call:
    argv = ["distance", "--r", str(r), "--n", str(n), "--metric", metric,
            "--samples", str(SAMPLES), "--seed", str(seed)]
    spec = {"r": r, "n": n, "metric": metric, "samples": SAMPLES, "mode": "mc"}
    if threads != 1:
        argv += ["--threads", str(threads)]
    if same_stdout_as:
        spec["same_stdout_as"] = same_stdout_as
    return Call(step, argv, "distance", spec)


def calls(workload: str, seed: int, data_dir: Path) -> list[Call]:
    """The CLI calls of one round of ``workload``; inputs derive from ``seed``."""
    seeds = random.Random(seed)

    def flag_seed() -> int:
        return seeds.randrange(2 ** 31)

    if workload == "ingest":
        out = []
        for f in make_csvs(seed, data_dir):
            argv = ["test", f["path"], "--json"]
            if f["format"] == "ranks":
                argv += ["--format", "ranks"]
            out.append(Call(f["name"], argv, "test", f))
        return out
    if workload == "mc-narrow":
        s = [flag_seed() for _ in range(4)]
        return [
            _distance("k2x400", 2, 400, s[0]),
            _distance("k3x50", 3, 50, s[1]),
            _distance("k5x200", 5, 200, s[2]),
            _distance("w2x100", 2, 100, s[3], metric="wasserstein"),
            _distance("k3x50-t2", 3, 50, s[1], threads=2, same_stdout_as="k3x50"),
        ]
    if workload == "mc-wide":
        return [
            _distance("k8x50", 8, 50, flag_seed()),
            _distance("k10x20", 10, 20, flag_seed()),
            _distance("cos6x100", 6, 100, flag_seed(), metric="cos"),
        ]
    if workload == "oracle":
        rate_n = [2, 4, 8, 9, 16, 32]
        return [
            Call("verify", ["verify", "--suite", "all", "--r-max", "6", "--n-max", "4",
                            "--seed", str(flag_seed())], "verify"),
            Call("rate", ["rate", "--mode", "auto", "--r", "3", "--h", "x2",
                          "--n", ",".join(map(str, rate_n)), "--samples", str(SAMPLES),
                          "--seed", str(flag_seed())], "rate",
                 {"r": 3, "n": rate_n, "samples": SAMPLES}),
            Call("exact4x5", ["distance", "--mode", "exact", "--r", "4", "--n", "5"],
                 "distance", {"r": 4, "n": 5, "metric": "kolmogorov", "mode": "exact"}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ingest", "mc-narrow", "mc-wide", "oracle")
