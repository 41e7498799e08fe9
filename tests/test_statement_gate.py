"""The statement gate's premise and verdict.

The premise: a code object that runs reports each line of its line table.

``tests/statement_gate.py`` takes the lines that hold code from the
interpreter's line tables (``co_lines()``), and credits a line when the
tracer sees a ``line`` event for it, or, for a code object's first
line, a call.  Here a module written with the constructs ``src/sicaoc``
uses is imported and run to its last line under a tracer, and each code
object's table must be exactly the lines it reported, on whichever
Python runs the suite.  The verdict: run on a package with a function
that no test calls, the gate names its line and exits 1.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from statement_gate import key, line_tables

GATE = Path(__file__).with_name("statement_gate.py")

MODULE = '''\
from __future__ import annotations

import contextlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Grid:
    """A docstring of a class."""

    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")


def scaled(factor):
    """A docstring of a function."""
    def apply(x):
        return factor * x
    return apply


def countdown(n):
    while n > 0:
        yield n
        n -= 1


def tables(n):
    squares = [k * k for k in range(n)]
    index = {k: v for k, v in enumerate(squares)}
    return sum(
        v
        for v in index.values()
    )


def guarded(fail):
    with contextlib.suppress(KeyError):
        try:
            if fail:
                raise ValueError(fail)
            note = "ok"
        except ValueError:
            note = "failed"
        finally:
            done = True
    return note, done


def search(items, target):
    k = 0
    while k < len(items):
        if items[k] == target:
            break
        k += 1
    else:
        return None
    return k


def sign(x):
    return ("positive"
            if x > 0
            else "negative"
            if x < 0
            else "zero")
'''


def run_every_line(module):
    assert module.Grid(3).steps == 3
    with pytest.raises(ValueError, match="steps must be positive"):
        module.Grid(0)
    assert module.scaled(2)(3) == 6
    assert list(module.countdown(2)) == [2, 1]
    assert module.tables(3) == 5
    assert module.guarded(False) == ("ok", True)
    assert module.guarded(True) == ("failed", True)
    assert module.search([1, 2], 2) == 1
    assert module.search([1], 5) is None
    assert [module.sign(x) for x in (1, -1, 0)] == ["positive", "negative", "zero"]


def test_each_code_object_reports_the_lines_of_its_table(tmp_path, monkeypatch):
    path = tmp_path / "premise.py"
    path.write_text(MODULE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("premise", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "premise", module)   # dataclass looks its module up
    events = {}

    def local(frame, event, arg):
        if event == "line":
            events[key(frame.f_code)].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename != str(path):
            return None
        events.setdefault(key(frame.f_code), set())
        return local

    saved = sys.gettrace()   # under the statement gate, its own tracer
    sys.settrace(calls)
    try:
        spec.loader.exec_module(module)
        run_every_line(module)
    finally:
        sys.settrace(saved)
    for code, lines in line_tables(path):
        first = {code.co_firstlineno}
        assert lines | first == events.pop(key(code)) | first, code.co_name
    assert not events


PACKAGE_MODULE = """\
def used():
    return 1


def unused():
    return 2
"""


@pytest.mark.parametrize("calls, status", [(["used"], 1), (["used", "unused"], 0)],
                         ids=["unused-never-called", "both-called"])
def test_verdict_on_a_package(tmp_path, calls, status):
    # in a child process: the gate's sys.settrace(None) would end the tracing
    # of a gate that runs this suite
    tests = tmp_path / "tests"
    package = tmp_path / "src" / "sicaoc"
    tests.mkdir()
    package.mkdir(parents=True)
    shutil.copy(GATE, tests / GATE.name)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(PACKAGE_MODULE, encoding="utf-8")
    (tests / "test_mod.py").write_text(
        "from sicaoc import mod\n\n\ndef test_calls():\n"
        + "".join(f"    mod.{name}()\n" for name in calls), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "tests/statement_gate.py", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    assert proc.returncode == status, proc.stdout + proc.stderr
    never = [line for line in proc.stdout.splitlines() if line.endswith(": line never run")]
    if status:
        # from Python 3.11 on, unused's table also holds its first line (5)
        assert "src/sicaoc/mod.py:6: line never run" in never
        assert set(never) <= {f"src/sicaoc/mod.py:{line}: line never run" for line in (5, 6)}
    else:
        assert never == []
