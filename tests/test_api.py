"""The documented API: the README's library example runs, its spec example
loads, and every name the package exports resolves."""

import re
from pathlib import Path

import deecsim
from deecsim import Protocol
from deecsim.cli import SPEC_KEYS, load_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library use", "exec"), {})
    assert "LifetimeSummary(" in capsys.readouterr().out


def _readme_spec_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Spec files\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```ini\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_spec_example_loads(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(_readme_spec_block(), encoding="utf-8")
    spec = load_spec(path)
    assert spec.n == 100 and spec.max_rounds == 10000
    assert spec.template.geometry.bs_position == (50.0, 50.0)
    assert spec.template.protocol.c == 0.1
    assert spec.protocols == tuple(Protocol)
    assert len(spec.seeds) == 20


def test_readme_spec_example_covers_every_key():
    # each key is set, or shown commented out, under its own section
    documented = set()
    section = None
    for line in _readme_spec_block().splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif match := re.match(r"(?:# )?(\w+) = ", line):
            documented.add((section, match.group(1)))
    assert documented == {(section, key) for section, keys in SPEC_KEYS.items() for key in keys}


def test_every_exported_name_resolves():
    missing = [name for name in deecsim.__all__ if not hasattr(deecsim, name)]
    assert missing == []
    assert len(set(deecsim.__all__)) == len(deecsim.__all__)
