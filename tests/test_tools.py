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
