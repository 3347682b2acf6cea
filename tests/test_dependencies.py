import ast
import sys
from pathlib import Path

import regcolor

SRC = Path(regcolor.__file__).parent


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the one runtime dependency pyproject.toml declares; an import
    # at any depth (in a function, under try) counts, relative ones are ours
    allowed = sys.stdlib_module_names | {"numpy"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name.partition(".")[0] not in allowed]
    assert not found
    assert len(list(SRC.rglob("*.py"))) > 10  # the walk saw the package
