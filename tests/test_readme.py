"""The README's Layout block names every module of the package."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _layout_block():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Layout", 1)[1]
    return section.split("```")[1]


def test_layout_names_every_module():
    named = set(re.findall(r"^\s+(\w+\.py)\s", _layout_block(), re.M))
    modules = {p.name for p in (ROOT / "src" / "ffmzv").glob("*.py")} - {"__init__.py"}
    assert modules <= named, sorted(modules - named)
