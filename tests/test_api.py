"""The documented API: the README's library example runs, and every name
the package exports resolves."""

import re
from pathlib import Path

import deecsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library use", "exec"), {})
    assert "LifetimeSummary(" in capsys.readouterr().out


def test_every_exported_name_resolves():
    missing = [name for name in deecsim.__all__ if not hasattr(deecsim, name)]
    assert missing == []
    assert len(set(deecsim.__all__)) == len(deecsim.__all__)
