"""The README's "Library use" section against the package root."""

import re
import types
from pathlib import Path

import iklogit

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library use\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def test_library_use_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", library_use_section(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3


def test_every_root_export_is_documented():
    section = library_use_section()
    exports = [
        name
        for name, value in vars(iklogit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert exports
    undocumented = [n for n in exports if not re.search(rf"\b{n}\b", section)]
    assert undocumented == []
