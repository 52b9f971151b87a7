"""The package is numpy-only: its modules import the standard library and
numpy, nothing else (scipy may be installed, but is not a dependency)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uavm2m"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _top_level_imports(tree):
    """(line, top-level package) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_modules_import_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [(line, name) for line, name in _top_level_imports(tree) if name not in ALLOWED]
    assert not outside, f"{path.name} imports outside the standard library and numpy: {outside}"


def test_the_check_reads_every_module_and_catches_scipy():
    assert (SRC / "__init__.py").is_file()
    tree = ast.parse("import numpy as np\nfrom scipy import optimize\nfrom . import lma\n")
    assert [name for _, name in _top_level_imports(tree) if name not in ALLOWED] == ["scipy"]
