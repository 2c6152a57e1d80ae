"""The package's modules form a layered graph: imports at module level, and no cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mtsgen"


def _imports(tree: ast.Module) -> list:
    """(package module, line, function-level?) of each relative import, at any depth."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                targets = [child.module] if child.module else [a.name for a in child.names]
                found.extend((t.partition(".")[0], child.lineno, in_function) for t in targets)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def _graph() -> dict:
    return {path.stem: _imports(ast.parse(path.read_text(), str(path)))
            for path in sorted(PACKAGE.glob("*.py"))}


def _cycles(edges: dict) -> list:
    """Each cycle of the module graph found by a depth-first search, as a path."""
    cycles, state = [], {}

    def walk(module, path):
        state[module] = "open"
        for target in sorted(edges.get(module, ())):
            if state.get(target) == "open":
                cycles.append(path[path.index(target):] + [target])
            elif target not in state:
                walk(target, path + [target])
        state[module] = "done"

    for module in sorted(edges):
        if module not in state:
            walk(module, [module])
    return cycles


def test_checks_see_what_they_look_for():
    source = "from . import _par\nclass A:\n    def f(self):\n        from .bootstrap import B\n"
    assert _imports(ast.parse(source)) == [("_par", 1, False), ("bootstrap", 4, True)]
    assert _cycles({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == [["a", "b", "c", "a"]]
    assert _cycles({"a": {"a"}}) == [["a", "a"]]
    assert _cycles({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []
    assert ("dependence", False) in {(t, f) for t, _, f in _graph()["forecast"]}


def test_no_function_level_package_import():
    local = [f"{module}.py:{line} imports {target}"
             for module, imports in _graph().items()
             for target, line, in_function in imports if in_function]
    assert local == []


def test_no_import_cycle():
    edges = {module: {target for target, _, _ in imports} for module, imports in _graph().items()}
    assert [" -> ".join(c) for c in _cycles(edges)] == []
