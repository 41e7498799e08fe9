"""Statement gate: run tier-1 under a line tracer and fail on any unreached statement.

    PYTHONPATH=src python tests/statement_gate.py [pytest arguments]

The arguments go to ``pytest.main`` unchanged.  ``sys.settrace`` records
the lines of ``src/sicaoc`` that the run executes; every statement that
``ast`` finds there (docstrings left out) must own at least one of them,
apart from the allowlisted entry points below.  A compound statement
(``def``, ``if``, ``for``, ...) also counts as reached when a statement
in its body is.  Each unreached statement is printed as ``path:line``.
The exit status is pytest's if the tests fail, else 1 if a statement is
unreached or an allowlist entry matches nothing, else 0.  Only this
thread of this process is traced: code that runs only in other threads
or in child processes is unseen.
pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sicaoc"
MAIN_GUARD = 'if __name__ == "__main__"'

# (module, top-level scope) -> why tier-1 cannot reach it; "*" is the whole module
ALLOWLIST = {
    ("cli.py", "entry"): "the console script's entry point; it runs only as the main "
                         "program of a child process (`python -m sicaoc` in tier-1, the "
                         "installed `sicaoc` in CI's console-script step)",
    ("cli.py", MAIN_GUARD): "runs only when cli.py is the main program",
    ("__main__.py", "*"): "the `python -m sicaoc` entry point, a module that runs only "
                          "as the main program of a child process",
}


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _scope(stmt: ast.stmt) -> str:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'":
        return MAIN_GUARD
    return "<module>"


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements nested directly in ``stmt``: its blocks, handlers and cases."""
    parts = [*getattr(stmt, "handlers", ()), *getattr(stmt, "cases", ())]
    return [child for block in (*(getattr(stmt, name, ()) for name in
                                  ("body", "orelse", "finalbody")),
                                *(part.body for part in parts))
            for child in block]


def statements(body: list[ast.stmt], scope: str | None = None, docstring: bool = True):
    """Yield ``(scope, stmt, own_lines, children)`` for each statement, parents first.

    ``own_lines`` run from the statement's first line (a decorator's, if
    any) to the line before its first nested statement, or to its last
    line if it has none.
    """
    for k, stmt in enumerate(body):
        if docstring and k == 0 and _is_docstring(stmt):
            continue
        inner = scope or _scope(stmt)
        children = _children(stmt)
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        end = min((child.lineno for child in children), default=stmt.end_lineno + 1)
        yield inner, stmt, set(range(first, end)), children
        yield from statements(children, inner, isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))


def unreached(path: Path, executed: set[int]) -> tuple[int, list[tuple[str, int]]]:
    """The statement count of ``path`` and the ``(scope, line)`` of each one unreached."""
    found = list(statements(ast.parse(path.read_text(encoding="utf-8")).body))
    reached = {}
    for scope, stmt, own, children in reversed(found):   # children before parents
        reached[stmt] = bool(own & executed) or any(reached.get(c) for c in children)
    return len(found), [(scope, stmt.lineno) for scope, stmt, _, _ in found
                        if not reached[stmt]]


def trace_run(args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer; return its exit code and the lines run."""
    root = str(PACKAGE)
    lines: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(calls)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
    return int(code), lines


def main(args) -> int:
    code, lines = trace_run(args)
    used, missed, total = set(), [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        count, misses = unreached(path, lines[str(path)])
        total += count
        for scope, line in misses:
            key = next((k for k in ((path.name, scope), (path.name, "*"))
                        if k in ALLOWLIST), None)
            if key is None:
                missed.append(f"{path.relative_to(PACKAGE.parents[1])}:{line}: "
                              "statement never reached")
            else:
                used.add(key)
    stale = [f"allowlist entry {key} matches no unreached statement"
             for key in ALLOWLIST if key not in used]
    for problem in missed + stale:
        print(problem)
    print(f"statement gate: {len(missed)} of {total} statements unreached outside "
          f"the allowlist of {len(ALLOWLIST)} entry points")
    return code or (1 if missed or stale else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
