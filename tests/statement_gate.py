"""Statement gate: run tier-1 under a line tracer and fail on any line of code that never runs.

    PYTHONPATH=src python tests/statement_gate.py [pytest arguments]

The arguments go to ``pytest.main`` unchanged.  The interpreter says
which lines hold code: each module of ``src/sicaoc`` is compiled, and
every line in the line table (``co_lines()``) of each of its code
objects, nested ones included, must run under ``sys.settrace``.  There
is no exception: the entry points ``cli.entry`` and ``__main__.py`` run
in-process too.  A ``line`` event runs a line; a call runs the code
object's first line, which on Python 3.11+ holds only the ``RESUME``
that gets no ``line`` event.  A code object all of whose lines have run
is not traced again.  A function's docstring has no line in its table,
and module and class docstrings run at import.  Each line never run is
printed as ``path:line``.  The exit status is pytest's if the tests
fail, else 1 if a line never ran, else 0.  Only this thread of this
process is traced: code that runs only in other threads or in child
processes is unseen.  pytest does not collect this file;
``tests/test_statement_gate.py`` checks its premise, that the lines a
code object reports as it runs are its line table, and its verdict on a
small package.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sicaoc"


def key(code: CodeType) -> tuple[str, int, str]:
    """A name for ``code`` that holds both for the copy compiled here and the imported one."""
    return code.co_filename, code.co_firstlineno, code.co_name


def line_tables(path: Path):
    """Yield each code object compiled from ``path``, nested ones too, with its lines of code."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
        yield code, {line for _, _, line in code.co_lines() if line}


def trace_run(args, left: dict[tuple[str, int, str], set[int]]) -> int:
    """Run pytest with ``args`` under the tracer and return its exit code.

    Each line that runs is discarded from ``left[key(code)]``; a code
    object with no key there, or no line left, is not traced.
    """
    def calls(frame, event, arg):
        code = frame.f_code
        lines = left.get(key(code))
        if not lines:
            return None
        lines.discard(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.discard(frame.f_lineno)
            return local if lines else None
        return local if lines else None

    sys.settrace(calls)
    try:
        return int(pytest.main(list(args)))
    finally:
        sys.settrace(None)


def main(args) -> int:
    tables = [(path, code, lines) for path in sorted(PACKAGE.glob("*.py"))
              for code, lines in line_tables(path)]
    left: dict[tuple[str, int, str], set[int]] = {}
    for _, code, lines in tables:
        left.setdefault(key(code), set()).update(lines)
    status = trace_run(args, left)
    missed = {(path, line) for path, code, lines in tables for line in lines & left[key(code)]}
    for path, line in sorted(missed):
        print(f"{path.relative_to(PACKAGE.parents[1])}:{line}: line never run")
    total = len({(path, line) for path, _, lines in tables for line in lines})
    print(f"statement gate: {len(missed)} of {total} lines of code never run")
    return status or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
