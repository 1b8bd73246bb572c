"""Static checks over the package source, standing in for a linter."""

from __future__ import annotations

import ast
import importlib.util
import re

from conftest import DATA_DIR, GOLDEN_DIR, REPO_ROOT

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


def _provider_failures_built_elsewhere(text: str) -> list[int]:
    """The lines of ``ProviderFailure(...)`` calls outside ``ProviderConfig.failure``, the one place to build one."""
    tree = ast.parse(text)
    allowed = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "ProviderConfig"
               for method in cls.body if isinstance(method, ast.FunctionDef) and method.name == "failure"
               for node in ast.walk(method)}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in allowed
                  and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "ProviderFailure")


def test_only_the_provider_config_builds_a_provider_failure():
    built = [f"{path.stem}:{line}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for line in _provider_failures_built_elsewhere(path.read_text(encoding="utf-8"))]
    assert built == []


def test_the_provider_failure_check_sees_each_call_outside_the_config_failure_method():
    text = (
        "class ProviderConfig:\n    def failure(self, text):\n        return ProviderFailure(text)\n"
        "\nclass HttpProvider(ProviderConfig):\n    def failure(self, text):\n"
        "        return errors.ProviderFailure(text)\n"
        "\ndef f(config):\n    try:\n        raise ProviderFailure('x', data={})\n"
        "    except ProviderFailure as exc:\n        return isinstance(exc, ProviderFailure), config.failure('y')\n"
    )
    assert _provider_failures_built_elsewhere(text) == [7, 11]


def test_every_golden_and_data_file_is_named_by_a_test_config_or_benchmark_file():
    """A golden or data file that no code or config names is a stray: the test that read it is gone."""
    artifacts = sorted(p for directory in (GOLDEN_DIR, DATA_DIR) for p in directory.iterdir())
    readers = "\n".join(p.read_text(encoding="utf-8") for directory in ("tests", "configs", "perfbench")
                        for p in (REPO_ROOT / directory).glob("*") if p.suffix in (".py", ".conf", ".md"))
    assert artifacts
    assert [p.name for p in artifacts if p.name not in readers] == []


def _names_in_code(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of each identifier, attribute, imported name and identifier-like string ``tree`` holds.

    A docstring is no code, so a name it holds does not count; nor does a comment, which the tree lacks.
    """
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.name.rpartition(".")[2], node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            if node.value.isidentifier():  # a name looked up at run time, as ``getattr(module, "name")`` does
                names.append((node.value, node.lineno))
    return names


def _definitions_named_nowhere(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each function, class and method in ``package`` (module -> text) that no code in
    ``package`` or ``readers`` names outside the definition's own lines.

    Dunders are exempt, as Python names them. So is a method that calls ``super().<its own name>``: it
    overrides a base's method, and the base's callers, maybe in a library, name it.
    """
    trees = {module: ast.parse(text) for module, text in package.items()}
    named = {(module, name, line) for module, tree in trees.items() for name, line in _names_in_code(tree)}
    named |= {(None, name, line) for text in readers for name, line in _names_in_code(ast.parse(text))}
    unnamed = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == node.name
                   and isinstance(call.func.value, ast.Call) and getattr(call.func.value.func, "id", None) == "super"
                   for call in ast.walk(node)):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            if not any(name == node.name and not (where == module and first <= line <= node.end_lineno)
                       for where, name, line in named):
                unnamed.append(f"{module}.{node.name}")
    return unnamed


# The top-level functions that may name requests: its lazy import, the module attribute that resolves
# it, the environment memo, and the one GET, which raises only builtin exceptions.
_REQUESTS_SEAM = frozenset({"_import_requests", "__getattr__", "_environment", "_http_get"})


def _requests_named_outside(text: str, seam: frozenset[str] = _REQUESTS_SEAM) -> list[int]:
    """The lines where code outside the top-level functions ``seam`` lists names ``requests``.

    An import of a requests submodule or from requests names it too; a docstring or comment does not.
    """
    tree = ast.parse(text)
    spans = [range(min([node.lineno, *(d.lineno for d in node.decorator_list)]), node.end_lineno + 1)
             for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in seam]
    names = _names_in_code(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name.partition(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append((node.module.partition(".")[0], node.lineno))
    return sorted({line for name, line in names if name == "requests" and not any(line in span for span in spans)})


def test_only_the_requests_seam_names_requests():
    """Everything else sees builtin exceptions and a response, so a change of http client changes one block."""
    named = [f"{path.stem}:{line}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for line in _requests_named_outside(path.read_text(encoding="utf-8"))]
    assert named == []


def test_the_requests_check_sees_each_name_import_and_attribute_outside_the_seam():
    text = (
        '"""Uses requests."""\n\nif TYPE_CHECKING:\n    import requests.adapters\n\n\n'
        "def _http_get(url):\n    try:\n        return requests.get(url)  # requests\n"
        "    except requests.Timeout as exc:\n        raise TimeoutError(exc) from exc\n"
        "\n\ndef fetch(url):\n    try:\n        return _http_get(url)\n    except requests.RequestException:\n"
        "        return getattr(providers, 'requests')\n"
        "\n\nclass P:\n    def _http_get(self):\n        from requests import Session\n        return Session\n"
    )
    assert _requests_named_outside(text) == [4, 17, 18, 23]


def test_every_function_class_and_method_is_named_by_package_or_benchmark_code():
    """Code that only the tests call is no part of the program: the tests check a copy nobody runs."""
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8") for path in sorted((REPO_ROOT / "perfbench").glob("*.py"))]
    assert package and readers
    assert _definitions_named_nowhere(package, readers) == []


def test_the_unnamed_definition_check_sees_a_function_only_its_body_docstrings_or_comments_name():
    package = {
        "m": (
            '"""Calls ``unused``."""\n\nimport os\n\n\ndef unused(n):\n    return unused(n - 1)  # recursion\n'
            "\n\ndef used():\n    return helper()\n\n\n@used\ndef helper():\n    return os\n"
            "\n\ndef __getattr__(name):\n    return name\n"
            "\n\nclass Session(Base):\n    def prepare(self, request):\n        return super().prepare(request)\n"
            "\n    def _private(self):\n        pass\n"
        ),
        "n": "from .m import used\n\n\ndef patched():\n    '''helper'''\n",
    }
    readers = ['import m\n\nsetattr(m, "patched", m.used)\nSession = m.Session\n']
    assert _definitions_named_nowhere(package, readers) == ["m.unused", "m._private"]


def _cached_property_lines(text: str) -> list[int]:
    """The lines of code naming ``cached_property``: an import of it, an attribute ``functools.cached_property``
    or a bare name, a decorator's too. A docstring or comment does not count.

    Before Python 3.12 a ``cached_property`` takes one lock per attribute, shared by every instance; the
    package's lazy attributes use ``errors.lazy``, which takes none.
    """
    return sorted({line for name, line in _names_in_code(ast.parse(text)) if name == "cached_property"})


def test_no_module_uses_functools_cached_property():
    used = [f"{path.stem}:{line}" for path in sorted(PACKAGE_DIR.glob("*.py"))
            for line in _cached_property_lines(path.read_text(encoding="utf-8"))]
    assert used == []


def test_the_cached_property_check_sees_an_import_an_attribute_and_a_decorator():
    text = (
        '"""Not ``cached_property``, as ``lazy`` is."""\n\nimport functools\nfrom functools import cached_property\n'
        "\n\nclass A:\n    @cached_property\n    def a(self):\n        return 1  # cached_property\n"
        "\n    b = functools.cached_property(lambda self: 2)\n"
    )
    assert _cached_property_lines(text) == [4, 8, 12]


def test_each_line_report_allow_list_entry_names_one_executable_line_of_its_file_and_a_known_reason():
    spec = importlib.util.spec_from_file_location("line_report", REPO_ROOT / "scripts" / "line_report.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)  # defines the report; only running it as a script traces the suite
    entries = report.read_allow_list()
    wrong = []
    for entry in entries:
        path = PACKAGE_DIR / entry.file
        lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
        at = [n for n, line in enumerate(lines, 1) if line.strip() == entry.text]
        if entry.reason not in report.REASONS or len(at) != 1 or at[0] not in report.executable_lines(path):
            wrong.append(entry)
    assert entries and wrong == []
