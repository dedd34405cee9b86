"""Code lines of every module of the domdp package, and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function body). Run it
from the repository root:

    python tests/code_lines.py

It prints one line per module, ``<lines>  <file>``, then ``<total>  total``.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "domdp"
DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    blank = {i for i, line in enumerate(text.splitlines(), 1) if not line.strip()}
    return len(code - docstrings - blank)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
