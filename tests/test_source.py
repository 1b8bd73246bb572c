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


def _mutable_field_defaults(text: str) -> list[str]:
    """``Class.field`` for each annotated class field defaulting to ``{}``, ``[]``, ``set()``, ``dict()`` or ``list()``.

    Such a default is one object, shared by every instance that takes it.
    """
    def mutable(node: ast.expr | None) -> bool:
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id in ("dict", "list", "set")
        return isinstance(node, (ast.Dict, ast.List, ast.Set))

    classes = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)]
    return [f"{cls.name}.{ast.unparse(node.target)}" for cls in classes
            for node in cls.body if isinstance(node, ast.AnnAssign) and mutable(node.value)]


def test_no_class_field_defaults_to_a_shared_mutable_literal():
    shared = [f"{path.stem}.{field}" for path in sorted(PACKAGE_DIR.glob("*.py"))
              for field in _mutable_field_defaults(path.read_text(encoding="utf-8"))]
    assert shared == []


def test_the_mutable_default_check_sees_each_literal_and_passes_a_read_only_proxy():
    text = (
        "class A:\n    a: dict = {}\n    b: list[int] = []\n    c: set = set()\n"
        "    d: Mapping = MappingProxyType({})\n    e: tuple = ()\n    f: int\n    def g(self, h: dict = {}): ...\n"
        "\nclass B:\n    class C:\n        i: dict = {1: 2}\n"
    )
    assert _mutable_field_defaults(text) == ["A.a", "A.b", "A.c", "C.i"]
