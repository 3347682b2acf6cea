import ast
import sys
from pathlib import Path

import regcolor

SRC = Path(regcolor.__file__).parent


def _imports():
    """(file name, line, module) of every absolute import under src/regcolor/,
    at any depth (in a function, under try); relative ones are ours."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((path.name, node.lineno, name) for name in names)


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the one runtime dependency pyproject.toml declares
    allowed = sys.stdlib_module_names | {"numpy"}
    found = [imp for imp in _imports()
             if imp[2].partition(".")[0] not in allowed]
    assert not found
    assert len(list(SRC.rglob("*.py"))) > 10  # the walk saw the package


def test_only_cli_imports_json():
    # cli._write is the one encoder of every output document
    importers = {name for name, _, module in _imports()
                 if module.partition(".")[0] == "json"}
    assert importers == {"cli.py"}


def test_every_module_level_import_is_read():
    # __init__.py is exempt: it imports to re-export
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [(path.name, node.lineno, alias.name)
                           for alias in node.names
                           if (alias.asname or alias.name.partition(".")[0])
                           not in read]
    assert not unread
