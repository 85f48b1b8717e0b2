"""tools/src_lines.py, the code-line count that tracks the size of src/."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_ab_calls_times_one_call_on_both_trees(capsys):
    spec = importlib.util.spec_from_file_location("ab_calls", TOOL.parent / "ab_calls.py")
    ab_calls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_calls)
    root = str(TOOL.parents[1])
    assert ab_calls.main(["--rounds", "2", root, root, "--", "bounds", "--n", "5", "--r", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["tree", "wall_s", "in_call_s", "cpu_s", "codes"]
    assert [row.split()[:2] for row in rows] == [["A", root], ["B", root]]
    for row in rows:
        wall, in_call, cpu, codes = row.split()[2:]
        assert 0 < float(in_call) < float(wall) and codes == "[0]"
        # the child's own CPU time, not the parent's nor an earlier child's: an
        # interpreter start costs some, and `bounds` runs on one thread
        assert 0 < float(cpu) < 2 * float(wall)


def test_ab_calls_cpu_time_counts_the_child_alone(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_calls", TOOL.parent / "ab_calls.py")
    ab_calls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_calls)
    readings = iter([10.0, 10.25])  # children's CPU seconds before and after the call
    monkeypatch.setattr(ab_calls, "cpu_seconds", lambda: next(readings))
    root = str(TOOL.parents[1])
    wall, in_call, cpu, code = ab_calls.one_call(root, ["bounds", "--n", "5", "--r", "3"])
    assert cpu == 0.25 and code == 0 and 0 < in_call < wall
