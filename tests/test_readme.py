"""The package's public surface: the README's library example runs as
written and prints a passing verdict, and every exported name resolves."""

import re
from pathlib import Path

import bornsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.rstrip().endswith("True")


def test_every_exported_name_resolves():
    missing = [name for name in bornsim.__all__ if not hasattr(bornsim, name)]
    assert missing == []
