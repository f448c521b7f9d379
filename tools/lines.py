"""Total and code lines per module of a Python package.

Usage (from the repository root):

    python3 tools/lines.py                 # the modules of src/hodgesp
    python3 tools/lines.py path/to/pkg ... # other directories or files

A code line holds at least one token that is not a comment, a docstring
or whitespace: the tokenizer's COMMENT, NL, NEWLINE, INDENT, DEDENT and
ENDMARKER tokens never count, and neither does the string of a docstring
(the first statement of a module, class or function, when it is a string
literal). A token that spans several lines, such as a multi-line string
that is not a docstring, makes each of its lines a code line. Total lines
are those ``wc -l`` counts.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of ``tree`` occupy."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docs:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/hodgesp"])
    args = parser.parse_args(argv)
    files = []
    for path in map(Path, args.paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    totals = [0, 0]
    print(f"{'module':<40} {'lines':>7} {'code':>7}")
    for path in files:
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{str(path):<40} {lines:>7} {code:>7}")
    print(f"{'total':<40} {totals[0]:>7} {totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
