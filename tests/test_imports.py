"""Every top-level import of the package and of the tests is read somewhere,
and no package module imports a private name from a sibling module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_imports_are_detected():
    assert _unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "line 1: os",
        "line 2: d",
    ]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(modules) > 20
    unused = {}
    for path in modules:
        found = _unused_imports(path.read_text(encoding="utf-8"))
        if found:
            unused[str(path.relative_to(ROOT))] = found
    assert unused == {}


def test_the_package_module_holds_only_its_docstring():
    """Each name has one import path: the module that defines it."""
    tree = ast.parse((ROOT / "src" / "demoplan" / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def _private_imports(source: str) -> list[str]:
    """The underscore-prefixed names the module imports from a sibling module
    of its package."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "demoplan")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_are_detected():
    source = (
        "from os import _exit\n"
        "from .planner import Task, _Blockers\n"
        "from demoplan.model import _parse\n"
        "from . import _helpers\n"
    )
    assert _private_imports(source) == [
        "line 2: _Blockers",
        "line 3: _parse",
        "line 4: _helpers",
    ]


def test_no_package_module_imports_a_private_name_from_a_sibling():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 10
    private = {}
    for path in modules:
        found = _private_imports(path.read_text(encoding="utf-8"))
        if found:
            private[str(path.relative_to(ROOT))] = found
    assert private == {}


def _import_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Each package module -> the package modules it imports, at any depth of
    its code, function-level imports included. ``sources`` maps module names
    to their text."""
    graph = {}
    for name, source in sources.items():
        targets = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                targets.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("demoplan."):
                targets.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                targets.update(a.name.split(".")[1] for a in node.names if a.name.startswith("demoplan."))
        graph[name] = {t.split(".")[0] for t in targets} & set(sources)
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """Some import cycle of ``graph`` as a closed path of module names, or []."""
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> list[str]:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return []
        for target in sorted(graph[name]):
            found = visit(target, path + [name])
            if found:
                return found
        done.add(name)
        return []

    return next((found for name in sorted(graph) if (found := visit(name, []))), [])


def test_import_cycles_are_detected():
    sources = {
        "a": "from .b import x\n",
        "b": "def f():\n    from .c import y  # function-level\n",
        "c": "import demoplan.a\n",
        "d": "from . import a\nfrom demoplan.b import z\n",
    }
    graph = _import_graph(sources)
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a", "b"}}
    assert _cycle(graph) == ["a", "b", "c", "a"]
    assert _cycle({**graph, "c": set()}) == []


def test_the_package_import_graph_is_acyclic():
    package = ROOT / "src" / "demoplan"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    graph = _import_graph(sources)
    assert graph["pddl"] >= {"learning", "model"}
    assert _cycle(graph) == []
