"""Total and code lines per module of a Python package.

Usage (from the repository root):

    python3 tools/lines.py                 # the modules of src/hodgesp
    python3 tools/lines.py path/to/pkg ... # other directories or files
    python3 tools/lines.py --against REV   # before (at git REV), after, delta

A code line holds at least one token that is not a comment, a docstring
or whitespace: the tokenizer's COMMENT, NL, NEWLINE, INDENT, DEDENT and
ENDMARKER tokens never count, and neither does the string of a docstring
(the first statement of a module, class or function, when it is a string
literal). A token that spans several lines, such as a multi-line string
that is not a docstring, makes each of its lines a code line. Total lines
are those ``wc -l`` counts. With ``--against REV`` each file is also read
as ``git show REV:path``; a file missing on one side counts 0 there.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True)


def at_revision(rev: str, path: Path) -> tuple[int, int]:
    """(total lines, code lines) of ``path`` at git revision ``rev``, or
    (0, 0) where it did not exist."""
    shown = git("show", f"{rev}:./{path.as_posix()}")
    return count(shown.stdout) if shown.returncode == 0 else (0, 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/hodgesp"])
    parser.add_argument("--against", metavar="REV",
                        help="also count each file at git revision REV and "
                             "print before, after and delta")
    args = parser.parse_args(argv)
    files = set()
    for path in map(Path, args.paths):
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    if args.against:
        listed = git("ls-tree", "-r", "--name-only", args.against, "--",
                     *args.paths)
        if listed.returncode:
            parser.error(listed.stderr.strip())
        files.update(Path(name) for name in listed.stdout.split()
                     if name.endswith(".py"))
    rows = []
    for path in sorted(files):
        now = count(path.read_text()) if path.exists() else (0, 0)
        if args.against:
            old = at_revision(args.against, path)
            now = (old[0], now[0], now[0] - old[0],
                   old[1], now[1], now[1] - old[1])
        rows.append((str(path), now))
    if args.against:
        print(f"{'':<40} {'-------- lines --------':>23} "
              f"{'--------- code --------':>23}")
        head = ("before", "after", "delta") * 2
    else:
        head = ("lines", "code")
    print(f"{'module':<40}" + "".join(f" {h:>7}" for h in head))
    rows.append(("total", [sum(col) for col in zip(*(r for _, r in rows))]))
    for name, values in rows:
        print(f"{name:<40}" + "".join(f" {v:>7}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
