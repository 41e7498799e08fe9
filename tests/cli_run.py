"""One in-process runner of ``cli.main`` that checks the README's exit contract on each run.

Exit 0 leaves stderr empty; any other exit prints exactly one
``error: <category>: <message>`` line, and the exit code is the one
``cli.FAILURES`` gives that category.  A real run prints a warning to
stderr ahead of that line, so here every warning, of any category, is an
exception that ``cli.main`` does not catch and fails the run.  Stdout is
a text stream with an encoding, strict UTF-8 unless the test names
another, as under a UTF-8 locale other than C; every ``wrote`` line of
it names a file.  Runs that do not go through ``cli.main`` here (the
entry points, a failing stdout, a child interpreter) check the same
contract with ``check_contract``.  pytest does not collect this module;
the tests import it by name.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

from sicaoc import cli

EXIT_CODES = dict(cli.FAILURES.values())
ERROR_LINE = re.compile(rf"^error: ({'|'.join(EXIT_CODES)}): ")


class Run(NamedTuple):
    code: int
    out: str
    err: list[str]     # the stderr lines
    files: list[str]   # the sorted names left in the work directory


def check_contract(code: int, err: list[str]) -> None:
    """Assert the exit contract on an exit code and the stderr lines."""
    if code == 0:
        assert err == [], err
    else:
        assert len(err) == 1, err
        category = ERROR_LINE.match(err[0])
        assert category and EXIT_CODES[category[1]] == code, (code, err)


def run_cli(argv: list[str], doc=None, cwd=None, io_encoding="utf-8:strict") -> Run:
    """Run ``cli.main(argv)`` in ``cwd``, or in a new empty directory, and check the contract.

    ``doc``, if given, is the config file, passed as ``--config``: a str
    is written as it is, anything else as JSON.  The file lies beside
    the work directory, not in it, so ``files`` holds only what the run
    and the test left there.  Stdout has the encoding and error handler
    of ``io_encoding``, spelled as in ``PYTHONIOENCODING``; a print it
    cannot encode, or any warning, raises out of ``cli.main``.
    """
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch, "run") if cwd is None else Path(cwd)
        work.mkdir(exist_ok=True)
        if doc is not None:
            config = Path(scratch, "config.json")
            config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = [*argv, "--config", str(config)]
        encoding, errors = io_encoding.split(":")
        out = io.TextIOWrapper(io.BytesIO(), encoding, errors, newline="", write_through=True)
        err = io.StringIO()
        home = os.getcwd()
        os.chdir(work)
        try:
            with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                  warnings.catch_warnings()):
                warnings.simplefilter("error")
                code = cli.main(argv)
            stdout = out.buffer.getvalue().decode(encoding, errors)
            written = [line.removeprefix("wrote ") for line in stdout.splitlines()
                       if line.startswith("wrote ")]
            assert all(Path(path).is_file() for path in written), written
            run = Run(code, stdout, err.getvalue().splitlines(), sorted(os.listdir()))
        finally:
            os.chdir(home)
    check_contract(run.code, run.err)
    return run
