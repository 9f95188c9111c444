"""Count code lines in the modalsim package.

A code line is a non-blank line that holds something other than a comment
or a docstring; a multi-line statement or string counts every line it
spans.  A docstring is the string that opens a module, class or function
body.  Prints each module's count in a source directory, `src/modalsim`
unless one is given, and the total:

    python tools/code_lines.py [SOURCE_DIR]

Given the package of another checkout, say a `git worktree` of the parent
commit, it counts that one, so two runs give a change's line delta.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "modalsim"
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
