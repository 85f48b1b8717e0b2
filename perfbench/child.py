"""Run one ``friedman-bounds`` CLI call in this fresh interpreter.

Usage: python3 perfbench/child.py <record.json> <trace 0|1> [cli arguments...]

This does what the installed ``friedman-bounds`` console script does
(import ``friedman_bounds.cli`` and call ``main``), and writes to
``record.json`` the system-wide monotonic time at which the import finished,
so that the parent can split the call's wall time into set-up and work.
Without CLI arguments it only imports, which times set-up alone.

It also reads a speed gauge: a fixed piece of numpy work that does not
touch the package, timed three times after the import, every
``GAUGE_PERIOD_S`` during the call (from a SIGALRM handler, skipped while the
call runs worker threads, which would make the gauge wait for the GIL) and
three times after it.  The parent turns the readings into the machine's
speed during this call.  With trace 1 the package's public functions are
wrapped first, every gauge reading is a span of its own (so that no package
span counts it as self time), and the spans are written to the record.
"""

import json
import signal
import sys
import threading
import time

import numpy as np

GAUGE_PERIOD_S = 0.25
_GEN = np.random.Generator(np.random.Philox(key=7))
_ROWS = np.tile(np.arange(8), (2048, 1))


def gauge() -> float:
    """Seconds for twelve row shuffles of a small array: a few milliseconds
    that slow down with the machine about as much as the package's pure-Python
    and numpy code do (a pure-Python loop or a large array tracked one of them
    well and the other badly)."""
    start = time.perf_counter()
    for _ in range(12):
        _GEN.permuted(_ROWS, axis=1).sum(axis=0)
    return time.perf_counter() - start


class Gauge:
    def __init__(self, measure=gauge):
        self.measure = measure
        self.readings: list[float] = []

    def read(self, *_signal_args) -> None:
        if not (_signal_args and threading.active_count() > 1):
            self.readings.append(self.measure())


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import friedman_bounds.cli as cli
    record = {"import_done": time.monotonic()}
    rec = None
    meter = Gauge()
    if trace:
        import tracer
        rec = tracer.install()
        meter = Gauge(rec.wrap("gauge.read", gauge))
    for _ in range(3):
        meter.read()
    code = 0
    try:
        if argv:
            signal.signal(signal.SIGALRM, meter.read)
            signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
            try:
                code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        sys.stdout.flush()
        for _ in range(3):
            meter.read()
        record["gauge_s"] = meter.readings
        if rec is not None:
            record["spans"] = rec.spans
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
