"""Always show one line per acceptance criterion in the terminal summary, and
give tests a fresh interpreter to run the package in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def fresh_python():
    """Run a script in a new interpreter that imports the package from src/
    and return the JSON value on the last line of its stdout."""
    def run(script: str, *argv: str):
        paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])
    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = []
    for name, mod in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] == "test_acceptance" and hasattr(mod, "RESULTS"):
            results.extend(mod.RESULTS)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, status, seconds in sorted(set(results)):
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {name}: {status} ({seconds:.1f}s)")
