"""Count the code lines of the package, its public functions and
classes, its record classes and their fields, and the names it exports.

A code line of ``src/moment_fiber/*.py`` holds at least one token that is
not a comment, a line break or indentation, and lies in no docstring (the
leading string of a module, class or function, found with ``ast``).  A
multi-line string that is not a docstring counts every line it spans.
A record class is a class decorated with ``record`` (from ``errors``);
its fields are its class-level annotations, as ``record`` reads them.
A public name is a function or class defined at a module's top level
whose name does not start with ``_``.  Prints one line per module, its
code lines and its public names, then the totals, the number of record
classes and of their fields, and the number of names in the package's
``__all__``.  A reader that closes the pipe early (``| head``) ends it
quietly, with exit status 0.

Run from anywhere: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "moment_fiber"
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def record_fields(source: str) -> list[int]:
    """The field count of each record class in one module's source."""
    return [
        sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)
    ]


def public_names(source: str) -> int:
    """The number of public functions and classes at the module's top level."""
    return sum(
        isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        for node in ast.parse(source).body
    )


def exported_names(source: str) -> int:
    """The number of names in the module's ``__all__`` list."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return len(node.value.elts)
    return 0


def main() -> None:
    total, public, fields = 0, 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        count, names = code_lines(source), public_names(source)
        total += count
        public += names
        fields += record_fields(source)
        print(f"{path.name:<16} {count:>6} {names:>4} public")
    print(f"{'total':<16} {total:>6} {public:>4} public")
    print(f"{'record classes':<16} {len(fields):>6}")
    print(f"{'record fields':<16} {sum(fields):>6}")
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    print(f"{'__all__ names':<16} {exported_names(init):>6}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader stopped early (``| head``); quiet the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
