"""Static checks on the package source."""
import ast
from pathlib import Path

import clinqc

SOURCES = sorted(Path(clinqc.__file__).parent.glob("*.py"))


def private_uses_across_modules(tree: ast.Module) -> list[str]:
    """``module._name`` on an imported clinqc module, and ``from .module
    import _name``."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "clinqc"):
            if node.module in (None, "clinqc"):
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [f"{node.lineno}: from .{node.module} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    found += [f"{node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return found


def test_no_private_names_across_modules():
    assert len(SOURCES) > 1
    found = [f"{path.name}:{use}" for path in SOURCES
             for use in private_uses_across_modules(ast.parse(path.read_text()))]
    assert not found, "private names used across modules:\n" + "\n".join(found)
