"""The declared Python floor, as far as this interpreter can check it: every
Python file of the project parses under the grammar of `requires-python`.
This checks syntax only; the standard library and numpy of the floor are
not run here."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/crgx", "tools", "tests", "perfbench")


def _floor() -> tuple[int, int]:
    """`requires-python`'s lower bound, read with a regex: `tomllib` is
    newer than the floor itself."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_the_floor_grammar_refuses_what_came_after_it():
    # `except*` came in 3.11: a floor of 3.10 must refuse it, or the check
    # below checks nothing
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("tree", TREES)
def test_every_file_parses_at_the_declared_floor(tree):
    floor = _floor()
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths, tree
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
