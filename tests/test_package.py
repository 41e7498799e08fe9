"""The package's public surface: ``sicaoc.__all__`` and the README's library example."""

import re
import types
from pathlib import Path

import sicaoc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_and_none_is_a_module():
    assert sicaoc.__all__
    for name in sicaoc.__all__:
        assert not isinstance(getattr(sicaoc, name), types.ModuleType), name
    namespace = {}
    exec("from sicaoc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sicaoc.__all__)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, f"{README}:## Library", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out == "17 3.222350048614689\n"
    assert list(tmp_path.iterdir()) == []
