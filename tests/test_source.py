"""Static checks over the package source, standing in for a linter."""

from __future__ import annotations

import ast
import re

from conftest import REPO_ROOT

PACKAGE_DIR = REPO_ROOT / "src" / "quantmcp"


def _unused_imports(text: str) -> list[str]:
    """Names ``text`` imports but never names again as a word outside its import statements."""
    lines = text.splitlines()
    imports = [node for node in ast.walk(ast.parse(text))
               if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"]
    for node in imports:
        lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    rest = "\n".join(lines)
    names = [alias.asname or alias.name.partition(".")[0] for node in imports for alias in node.names]
    return [name for name in names if not re.search(rf"\b{re.escape(name)}\b", rest)]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
              for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_the_unused_import_check_sees_an_unused_name_and_a_string_annotation():
    text = 'from __future__ import annotations\nimport os, re\nfrom x import (\n    A,\n    B,\n)\n\ndef f(b: "B"):\n    return re\n'
    assert _unused_imports(text) == ["os", "A"]
