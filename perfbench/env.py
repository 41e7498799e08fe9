"""Locate the package source of the checkout the benchmark lives in.

The benchmark runs the code of its own checkout, never an installed
copy: ``src/`` is put first on ``sys.path`` and the imported package is
checked to come from there.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/sicaoc`` package."""


def use_source():
    """Import ``sicaoc`` from this checkout's ``src/`` and return it."""
    if not (SRC / "sicaoc" / "__init__.py").is_file():
        raise MissingSource(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import sicaoc
    if Path(sicaoc.__file__).resolve().parent != SRC / "sicaoc":
        raise MissingSource(f"sicaoc imported from {sicaoc.__file__}, not {SRC}")
    return sicaoc


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None
