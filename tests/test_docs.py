"""README's library table lists exactly what the package exports, module by module."""

import ast
import re
from pathlib import Path

import braceforge

README = Path(__file__).resolve().parent.parent / "README.md"


def exported_by_module():
    """{module: names} that braceforge/__init__.py imports from each of its modules."""
    tree = ast.parse(Path(braceforge.__file__).read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def listed_by_module():
    """{module: names in backticks} for each row of README's library table."""
    out = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.fullmatch(r"\| `braceforge\.(\w+)` \|(.*)\|", line)
        if row:
            out[row[1]] = set(re.findall(r"`(\w+)`", row[2]))
    return out


def test_library_table_matches_the_package_exports():
    exported, listed = exported_by_module(), listed_by_module()
    assert {"groups", "catalog", "braces", "construct", "structure", "ybe"} <= exported.keys()
    for module, names in exported.items():
        assert listed.get(module) == names, module
