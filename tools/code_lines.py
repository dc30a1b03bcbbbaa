"""Count the code lines of each module of a source directory.

Usage, from the repository root:

    python tools/code_lines.py src/prefixlab

A code line holds at least one token that is not a comment: blank lines,
comment-only lines and the lines of a docstring (the string that opens a
module, class or function) do not count. The script prints one
``count  path`` line per ``.py`` file under SRC_DIR, sorted by path, and a
last ``count  total`` line.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# Tokens that carry no code of their own.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# The nodes whose first statement may be a docstring.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", type=Path)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src_dir.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
