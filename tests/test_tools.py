"""tools/src_lines.py, the code-line count that tracks the size of src/, and
tools/ab_calls.py, the A/B timer of one CLI call."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def src_lines():
    return load(TOOL)


@pytest.fixture(scope="module")
def ab_calls():
    return load(TOOL.parent / "ab_calls.py")


MODULE = '''"""A module docstring
over two lines."""

# a comment-only line
total = (1 +
         2)
text = """a string
that is code"""


class Box:
    """A class docstring."""

    def size(self):
        """A function docstring."""
        return total  # a trailing comment
'''
CODE_LINES = {5, 6, 7, 8, 11, 14, 16}  # total, text (two lines each), class, def and return


def test_counts_exactly_the_token_lines(src_lines, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert src_lines.count(path) == (len(MODULE.splitlines()), len(CODE_LINES))


def test_total_is_the_sum_of_the_module_rows(src_lines, capsys):
    assert src_lines.main(["src_lines.py"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    *modules, total = rows
    assert total[0] == "total"
    src = TOOL.parents[1] / "src"
    assert sorted(row[0] for row in modules) == sorted(
        p.relative_to(src).as_posix() for p in src.rglob("*.py"))
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in modules)


@pytest.mark.parametrize("root", ["--help", "/nonexistent", "empty", "module.py"])
def test_a_root_without_modules_is_refused(src_lines, tmp_path, capsys, root):
    # once each of these printed "total 0 0" and exited 0
    (tmp_path / "empty").mkdir()
    (tmp_path / "module.py").write_text(MODULE)
    path = str(tmp_path / root) if root in ("empty", "module.py") else root
    assert src_lines.main(["src_lines.py", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {path} is not a directory" in err


@pytest.mark.parametrize("rounds", ["0", "-2"])
def test_ab_calls_needs_a_round(ab_calls, capsys, rounds):
    # once --rounds 0 ran nothing and crashed unpacking the empty medians
    with pytest.raises(SystemExit) as exit_:
        ab_calls.main(["--rounds", rounds, "ta", "tb", "--", "bounds"])
    assert exit_.value.code == 2
    assert f"--rounds must be >= 1, got {rounds}" in capsys.readouterr().err


def test_ab_calls_times_one_call_on_both_trees(ab_calls, capsys):
    root = str(TOOL.parents[1])
    assert ab_calls.main(["--rounds", "2", root, root, "--", "bounds", "--n", "5", "--r", "3"]) == 0
    header, *rows, bare, wins = capsys.readouterr().out.splitlines()
    assert header.split() == ["tree", "wall_s", "q1", "q3", "in_call_s", "q1", "q3",
                              "cpu_s", "q1", "q3", "codes"]
    assert [row.split()[:2] for row in rows] == [["A", root], ["B", root]]
    for row in rows:
        wall, _, _, in_call, _, _, cpu, _, _, codes = row.split()[2:]
        assert 0 < float(in_call) < float(wall) and codes == "[0]"
        # the child's own CPU time, not the parent's nor an earlier child's: an
        # interpreter start costs some, and `bounds` runs on one thread
        assert 0 < float(cpu) < 2 * float(wall)
    # the third row is the interpreter's start-up alone, timed in the same rounds
    assert bare.split()[:4] == ["bare", "python3", "-c", "pass"]
    wall, _, _, in_call, _, _, cpu, _, _, codes = bare.split()[4:]
    assert in_call == "-" and codes == "[0]"
    assert 0 < float(wall) and 0 < float(cpu) < 2 * float(wall)
    assert wins.startswith("B below A in whole-call wall time: ") and wins.endswith(" of 2 rounds")


def make_tree(path: Path, init: str = "") -> str:
    """A source tree holding src/friedman_bounds, with ``init`` as its __init__.py."""
    (path / "src" / "friedman_bounds").mkdir(parents=True)
    (path / "src" / "friedman_bounds" / "__init__.py").write_text(init)
    return str(path)


def test_ab_calls_alternates_the_trees_and_the_bare_start(ab_calls, monkeypatch, capsys,
                                                          tmp_path):
    order = []

    def one_call(tree, argv):
        order.append(tree)
        return 0.5, (0.25 if tree else math.nan), 0.5, 0

    monkeypatch.setattr(ab_calls, "one_call", one_call)
    ta, tb = make_tree(tmp_path / "ta"), make_tree(tmp_path / "tb")
    assert ab_calls.main(["--rounds", "3", ta, tb, "--", "bounds"]) == 0
    assert order == [ta, tb, None, None, tb, ta, ta, tb, None]
    bare = capsys.readouterr().out.splitlines()[-2]
    assert bare.split() == ["bare", "python3", "-c", "pass", "0.5000", "0.5000", "0.5000",
                            "-", "-", "-", "0.5000", "0.5000", "0.5000", "[0]"]


def test_ab_calls_prints_quartiles_and_the_rounds_b_won(ab_calls, monkeypatch, capsys,
                                                         tmp_path):
    # the gain rule reads off one run: B's wins over the paired rounds (a tie
    # counts for neither) and each tree's quartiles next to its median
    ta, tb = make_tree(tmp_path / "ta"), make_tree(tmp_path / "tb")
    walls = {ta: iter([1.0, 2.0, 3.0, 4.0, 5.0]), tb: iter([0.5, 2.0, 2.5, 3.0, 6.0]),
             None: iter([0.1] * 5)}

    def one_call(tree, argv):
        wall = next(walls[tree])
        return wall, (wall / 2 if tree else math.nan), 2 * wall, 0

    monkeypatch.setattr(ab_calls, "one_call", one_call)
    assert ab_calls.main(["--rounds", "5", ta, tb, "--", "bounds"]) == 0
    header, a, b, bare, wins = capsys.readouterr().out.splitlines()
    # inclusive quartiles of 1..5 are 2 and 4; of 0.5, 2, 2.5, 3, 6 they are 2 and 3
    assert a.split()[2:] == ["3.0000", "2.0000", "4.0000", "1.5000", "1.0000", "2.0000",
                             "6.0000", "4.0000", "8.0000", "[0]"]
    assert b.split()[2:5] == ["2.5000", "2.0000", "3.0000"]
    assert wins == "B below A in whole-call wall time: 3 of 5 rounds"


def test_ab_calls_quartiles_of_one_round_are_its_value(ab_calls):
    # statistics.quantiles needs two values; one round is its own median and quartiles
    assert ab_calls.quartiles([0.25]) == (0.25, 0.25, 0.25)
    assert ab_calls.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_ab_calls_bare_start_imports_no_tree(ab_calls, monkeypatch):
    seen = {}

    def run(cmd, env, **kwargs):
        seen["cmd"], seen["env"] = cmd, env
        return SimpleNamespace(returncode=0, stdout="")

    monkeypatch.setattr(ab_calls.subprocess, "run", run)
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    wall, in_call, cpu, code = ab_calls.one_call(None, ["bounds"])
    assert seen["cmd"][1:] == ["-c", "pass"] and seen["env"]["PYTHONPATH"] == "/elsewhere"
    assert code == 0 and math.isnan(in_call) and wall >= 0


def test_ab_calls_cpu_time_counts_the_child_alone(ab_calls, monkeypatch):
    readings = iter([10.0, 10.25])  # children's CPU seconds before and after the call
    monkeypatch.setattr(ab_calls, "cpu_seconds", lambda: next(readings))
    root = str(TOOL.parents[1])
    wall, in_call, cpu, code = ab_calls.one_call(root, ["bounds", "--n", "5", "--r", "3"])
    assert cpu == 0.25 and code == 0 and 0 < in_call < wall


def test_ab_calls_refuses_a_tree_without_the_package(ab_calls, monkeypatch, capsys, tmp_path):
    # once the child's ModuleNotFoundError, hidden by capture_output, surfaced as
    # a CalledProcessError traceback; now no call runs at all
    monkeypatch.setattr(ab_calls, "one_call", None)
    root = str(TOOL.parents[1])
    for tree in ("/nonexistent", str(tmp_path)):
        with pytest.raises(SystemExit) as exit_:
            ab_calls.main(["--rounds", "1", root, tree, "--", "bounds", "--n", "3", "--r", "3"])
        assert exit_.value.code == 2
        assert f"TREE {tree} has no src/friedman_bounds" in capsys.readouterr().err


def test_ab_calls_reports_a_failing_child(ab_calls, capsys, tmp_path):
    # sys.exit with a message prints it to stderr and exits with status 1
    broken = make_tree(tmp_path, 'raise ImportError("broken on purpose")\n')
    root = str(TOOL.parents[1])
    with pytest.raises(SystemExit) as exit_:
        ab_calls.main(["--rounds", "1", root, broken, "--", "bounds", "--n", "3", "--r", "3"])
    assert exit_.value.code == f"error: the call on {broken!r} failed: ImportError: broken on purpose"
    assert capsys.readouterr().out == ""
