"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import streamgate

SOURCES = sorted(Path(streamgate.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "streamgate" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
