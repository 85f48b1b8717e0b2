"""Benchmark of the friedman-bounds CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``ingest``, ``mc-narrow``, ``mc-wide`` and
``oracle``.  Every CLI call runs in a fresh interpreter, one at a time, on
inputs generated from ``--seed``, and its output is checked against an
independent reference (``checks.py``).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 repeats rounds of the workload's calls for about ``--seconds`` and
reports the end-to-end metrics.  --trace 1 runs one untraced round, the same
round again with the package's public functions wrapped in spans
(``tracer.py``), the per-layer probes (``probes.py``) and one
``-X importtime`` import, and reports the per-layer metrics.  Both write a
report under ``perfbench/out/``; the traced one holds every span.

Times at reference speed.  The machine this was built on shares its cores
with other tenants, and a call can run up to 2x slower from one second to
the next.  Each child therefore reads a speed gauge (``child.gauge``, fixed
work that does not touch the package) around and, every 0.25 s, during its
call.  The end-to-end times are divided by the call's mean slowdown against
``GAUGE_REFERENCE_S``, so they read as seconds on the machine at its
uncontended speed.  The raw times are kept in the run report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170.0        # every run ends well inside 180 s
BARE_IMPORTS = 3           # set-up-only children per untraced run, besides one per CLI call
GAUGE_REFERENCE_S = 0.0032  # child.gauge() on the uncontended machine of layers.json

sys.path.insert(0, str(HERE))


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("FRIEDMAN_BOUNDS_THREADS", None)
    return env


def spawn(cmd: list[str], out_dir: Path, label: str, deadline: float) -> dict:
    """Run one child to completion (killed at ``deadline``) and return its
    exit code, stdout, stderr, wall time, CPU time and peak RSS."""
    stdout_path, stderr_path = out_dir / f"{label}.out", out_dir / f"{label}.err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "start": start, "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": stderr_path.read_text(encoding="utf-8", errors="replace")}


def run_child(argv: list[str], trace: bool, out_dir: Path, label: str, deadline: float) -> dict:
    """One ``child.py`` interpreter: a CLI call, or only the import when
    ``argv`` is empty.  ``wall_s`` excludes the time spent reading the gauge; ``speed``
    scales a time to the reference speed (1.0 when the child left no record)."""
    record_path = out_dir / f"{label}.json"
    record_path.unlink(missing_ok=True)
    res = spawn([sys.executable, str(HERE / "child.py"), str(record_path), "1" if trace else "0",
                 *argv], out_dir, label, deadline)
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    res["setup_s"] = record["import_done"] - res["start"] if "import_done" in record else None
    res["spans"] = record.get("spans", [])
    gauge_s = record.get("gauge_s", [])
    res["wall_s"] -= sum(gauge_s)
    res["speed"] = GAUGE_REFERENCE_S / statistics.mean(gauge_s) if gauge_s else 1.0
    return res


def run_round(calls, trace: bool, out_dir: Path, deadline: float, tag: str) -> list[dict]:
    """Run every call of one round in its own interpreter and check it."""
    import checks
    results, earlier = [], {}
    for call in calls:
        res = run_child(call.argv, trace, out_dir, f"{tag}-{call.step}", deadline)
        res["step"] = call.step
        problems, work = checks.check(call, res["returncode"], res["stdout"], earlier)
        if res["setup_s"] is None:
            problems.append("child wrote no timing record")
        if problems and res["stderr"].strip():
            problems.append("stderr: " + res["stderr"].strip().splitlines()[-1])
        res["problems"], res["work"] = problems, work
        earlier[call.step] = res["stdout"]
        results.append(res)
    return results


def work_counts(workload: str, results: list[dict]) -> tuple[int, int]:
    """(units done, units skipped) in one round: rows, samples or verify checks."""
    work: dict[str, int] = {}
    for res in results:
        for key, value in res["work"].items():
            work[key] = work.get(key, 0) + value
    if workload == "ingest":
        return work.get("rows", 0), 0
    if workload == "oracle":
        return work.get("passed", 0), work.get("skipped", 0)
    return work.get("samples", 0), 0


def call_record(res: dict) -> dict:
    return {k: res[k] for k in ("step", "wall_s", "setup_s", "cpu_s", "rss_mb", "speed",
                                "problems") if k in res}


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "friedman_bounds").glob("*.py")))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload: str, seed: int, seconds: float, calls, out_dir: Path, deadline: float):
    """Rounds of the workload's calls for about ``seconds``; the end-to-end
    metrics.  An operation is a checked CLI call or a set-up-only import."""
    rounds: list[list[dict]] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        rounds.append(run_round(calls, False, out_dir, deadline, f"r{len(rounds)}"))
        now = time.monotonic()
        if now + (now - round_start) > min(start + seconds, deadline):
            break
    bare = [run_child([], False, out_dir, f"import{i}", deadline) for i in range(BARE_IMPORTS)]
    for res in bare:
        res["step"] = "import"
        res["problems"] = [] if res["returncode"] == 0 and res["setup_s"] is not None else [
            f"set-up-only import failed: {res['stderr'][-300:]}"]
    every = [res for results in rounds for res in results] + bare
    attempted = len(every)
    failed = sum(bool(res["problems"]) for res in every)
    done, skipped = work_counts(workload, rounds[0])
    # each call at its fastest over the rounds, at reference speed: the
    # machine's other tenants only ever slow a call down
    wall = sum(min(results[i]["wall_s"] * results[i]["speed"] for results in rounds)
               for i in range(len(calls)))
    setup = statistics.median(res["setup_s"] * res["speed"] for res in every
                              if res["setup_s"] is not None)
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_s": metric(wall, "s"),
        "work_per_s": metric(done / wall, "1/s"),
        "work_done": metric(done, "count"),
        "work_share": metric(done / max(1, done + skipped), "fraction"),
        "peak_rss_mb": metric(max(res["rss_mb"] for res in every), "MB"),
        "ops_ok_share": metric((attempted - failed) / attempted, "fraction"),
    }
    report = {"workload": workload, "seed": seed, "machine": machine(), "src_lines": src_lines(),
              "work_skipped": skipped,
              "raw_wall_s": [sum(res["wall_s"] for res in results) for results in rounds],
              "raw_cpu_s": [sum(res["cpu_s"] for res in results) for results in rounds],
              "rounds": [[call_record(res) for res in results] for results in rounds],
              "imports": [call_record(res) for res in bare],
              "problems": [f"{res['step']}: {p}" for res in every for p in res["problems"]]}
    return metrics, attempted, failed, report


def import_split(out_dir: Path, deadline: float) -> dict:
    """Import seconds from ``python -X importtime``: the whole start-up, the
    package import, numpy, the outermost scipy modules, and the package's own
    module bodies."""
    res = spawn([sys.executable, "-X", "importtime", "-c", "import friedman_bounds.cli"],
                out_dir, "importtime", deadline)
    rows = []
    for line in res["stderr"].splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        rows.append((level, name.strip(), int(self_us) / 1e6, int(cum_us) / 1e6))
    out = {"setup.import.total.s": 0.0, "setup.import.numpy.s": 0.0,
           "setup.import.scipy.s": 0.0, "setup.import.friedman_bounds.s": 0.0,
           "setup.import.friedman_bounds.self_s": 0.0}
    stack: list[tuple[int, str]] = []
    for level, name, self_s, cum_s in reversed(rows):   # the listing is post-order
        while stack and stack[-1][0] >= level:
            stack.pop()
        outer = [n for _, n in stack]
        if level == 0:
            out["setup.import.total.s"] += cum_s
        if name == "numpy" and not any(n.startswith("numpy") for n in outer):
            out["setup.import.numpy.s"] += cum_s
        if name.startswith("scipy") and not any(n.startswith("scipy") for n in outer):
            out["setup.import.scipy.s"] += cum_s
        if name == "friedman_bounds.cli":
            out["setup.import.friedman_bounds.s"] += cum_s
        if name.startswith("friedman_bounds"):
            out["setup.import.friedman_bounds.self_s"] += self_s
        stack.append((level, name))
    return out


def per_layer_spec() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]


def traced(workload: str, seed: int, calls, out_dir: Path, deadline: float):
    """One untraced and one traced round, the probes and the import split;
    the per-layer metrics."""
    import tracer
    plain = run_round(calls, False, out_dir, deadline, "plain")
    with_spans = run_round(calls, True, out_dir, deadline, "traced")
    probe_path = out_dir / "probes.json"
    probe_path.unlink(missing_ok=True)
    probe = spawn([sys.executable, str(HERE / "probes.py"), str(seed),
                   str(out_dir / "probe-data"), str(probe_path)], out_dir, "probes", deadline)
    try:
        probes = json.loads(probe_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        probes = {"metrics": {}, "problems": [f"probe run failed: {probe['stderr'][-500:]}"],
                  "spans": []}

    spans = []   # every call's spans in one list; parents index into it
    for res in with_spans:
        offset = len(spans)
        for name, start, end, parent in res["spans"]:
            spans.append({"name": name, "start": start, "end": end,
                          "parent": parent + offset if parent >= 0 else -1,
                          "workload": workload, "step": res["step"]})
    rows = [[s["name"], s["start"], s["end"], s["parent"]] for s in spans]
    layer_self = tracer.layer_self_times(rows)
    # work after set-up, at reference speed
    untraced_s, traced_s = (sum((r["wall_s"] - r["setup_s"]) * r["speed"] for r in results
                                if r["setup_s"] is not None) for results in (plain, with_spans))

    values = dict(probes["metrics"])
    values.update(import_split(out_dir, deadline))
    values.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                   "trace.overhead_s": traced_s - untraced_s, "trace.spans": len(spans)})
    per_call = {}
    for res in plain:
        key = f"cli.{workload}.{res['step']}"
        per_call.update({f"{key}.wall_s": res["wall_s"], f"{key}.cpu_s": res["cpu_s"],
                         f"{key}.rss_mb": res["rss_mb"], f"{key}.setup_s": res["setup_s"]})
    problems = [f"{r['step']}: {p}" for r in plain + with_spans for p in r["problems"]]
    problems += [f"probes: {p}" for p in probes["problems"]]
    missing = [m["name"] for m in per_layer_spec() if m["name"] not in values]
    problems += [f"per-layer metric {name} was not measured" for name in missing]
    attempted = len(plain) + len(with_spans) + 1      # the probe run is one operation
    failed = sum(bool(r["problems"]) for r in plain + with_spans) + int(
        bool(probes["problems"]) or bool(missing))
    report = {"workload": workload, "seed": seed, "machine": machine(), "src_lines": src_lines(),
              "layer_self_s": layer_self,
              "functions": tracer.self_times(rows),
              "cli_calls": per_call, "probe_sizes": probes.get("sizes"),
              "probe_layer_self_s": probes.get("layer_self_s"), "problems": problems,
              "notes": json.loads((HERE / "layers.json").read_text(encoding="utf-8")),
              "spans": spans, "probe_spans": probes["spans"]}
    return values, attempted, failed, report, layer_self


def measure(args, out_dir: Path, deadline: float) -> int:
    import workloads
    calls = workloads.calls(args.workload, args.seed, out_dir / "data")
    if args.trace:
        values, attempted, failed, report, layer_self = traced(
            args.workload, args.seed, calls, out_dir, deadline)
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in per_layer_spec()
                   if m["name"] in values}
        print(f"self time per layer, {args.workload} (seed {args.seed}):")
        for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {s:10.4f} s")
        print(f"  traced {values['trace.traced_s']:.4f} s vs untraced "
              f"{values['trace.untraced_s']:.4f} s of work after set-up, at reference speed")
        report_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    else:
        metrics, attempted, failed, report = untraced(
            args.workload, args.seed, args.seconds, calls, out_dir, deadline)
        report_path = OUT / f"run-{args.workload}-{args.seed}.json"
    report["metrics"] = metrics
    report_path.write_text(json.dumps(report), encoding="utf-8")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "friedman_bounds" / "cli.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = OUT / f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, out_dir, deadline)
    finally:
        shutil.rmtree(out_dir / "data", ignore_errors=True)
        shutil.rmtree(out_dir / "probe-data", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
