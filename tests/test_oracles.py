"""The brute-force references stay independent of the code they check."""

import ast
from pathlib import Path

import relmp.oracles


def test_oracles_import_nothing_from_relmp():
    tree = ast.parse(Path(relmp.oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"numpy"}
