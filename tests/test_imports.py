"""The package imports nothing but numpy and the standard library."""

import ast
import sys
from pathlib import Path

import semidense

ALLOWED = sys.stdlib_module_names | {"__future__", "numpy"}


def test_package_imports_only_numpy_and_the_standard_library():
    paths = sorted(Path(semidense.__file__).parent.glob("*.py"))
    assert paths, "no module files found next to semidense/__init__.py"
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0 is relative
                names = [node.module]
            else:
                continue
            bad += [f"{path.name} imports {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not bad, "; ".join(bad)
