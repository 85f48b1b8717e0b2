"""Count file lines and code lines of each module under src/, and in total.

A code line is a physical line that holds a token and is not blank,
comment-only or part of a docstring (the string that opens a module, class
or function body).  A string token that spans several lines counts each of
them.  Standard library only:

    python3 tools/src_lines.py [ROOT]

ROOT defaults to the src/ directory next to this script's parent.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(file lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total_file = total_code = 0
    print(f"{'module':<48} {'file':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        file_lines, code_lines = count(path)
        total_file += file_lines
        total_code += code_lines
        print(f"{path.relative_to(root).as_posix():<48} {file_lines:>6} {code_lines:>6}")
    print(f"{'total':<48} {total_file:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
