"""Count the lines of each `src/` module of two checkouts, split by kind.

    python3 tools/src_lines.py PARENT_DIR CHANGE_DIR

For each Python module under `src/` of either checkout it prints the total,
docstring, comment and code lines, parent -> change and the delta, then
the same for all modules together.  A docstring line is a line of a
module, class or function docstring; a comment line holds a comment and
nothing else; a code line is any other non-blank line.  Blank lines count
in the total only.  Deleted comments and docstrings show as such, not as
less code.  Exit status 0, or 2 on a usage error.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("total", "docstring", "comment", "code")


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


def count(text: str) -> dict[str, int]:
    """The line counts of one module's source text, by kind."""
    docstring = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring
    return {
        "total": len(text.splitlines()),
        "docstring": len(docstring),
        "comment": len(comment - code - docstring),
        "code": len(code),
    }


def tally(root: Path) -> dict[str, dict[str, int]]:
    """Counts per module path relative to root/src."""
    src = root / "src"
    return {
        str(path.relative_to(src)): count(path.read_text(encoding="utf-8"))
        for path in sorted(src.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(arg) / "src").is_dir() for arg in argv):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (tally(Path(arg)) for arg in argv)
    zero = dict.fromkeys(KINDS, 0)
    rows = [(name, before.get(name, zero), after.get(name, zero)) for name in sorted(before.keys() | after.keys())]
    rows.append(("src/", *({kind: sum(c[kind] for c in side.values()) for kind in KINDS} for side in (before, after))))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"  {kind:>20}" for kind in KINDS))
    for name, old, new in rows:
        cells = (f"{old[k]} -> {new[k]} ({new[k] - old[k]:+d})" for k in KINDS)
        print(f"{name:<{width}}" + "".join(f"  {cell:>20}" for cell in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
