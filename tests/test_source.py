"""Source-level rules for the runtime package."""

import ast
import sys
import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "logfol").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants must hold under python -O, which strips assert statements
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    # the runtime is pure stdlib; relative imports stay inside the package
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted({name for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{path.name}: imports outside the standard library: {outside}"


# Past 4096 tokens CPython's parser doubles its token array when it
# compiles a module, so a module that crosses it raises the peak memory
# of every uncached import (about 0.5 MiB for polynomials.py) for a
# reason unrelated to the work the program does.
MAX_TOKENS = 4096


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_stay_below_the_token_array_doubling(path):
    with path.open("rb") as handle:
        count = sum(1 for token in tokenize.tokenize(handle.readline)
                    if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))
    assert count < MAX_TOKENS, f"{path.name}: {count} parser tokens"
