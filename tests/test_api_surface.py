"""The public API is what an artifact or an acceptance criterion reads.

An AST walk starts from the CLI (its `__main__` call, its module-level
tables and the experiments its decorator registers), from the module
level of every package module, from tests/test_acceptance.py and from
the library entry points below, and follows every name, attribute and
string that matches a top-level function or class of the package, or a
public method or property of one of its classes.  A class brings its
private methods along; a public method counts only once its name is
reached.  A public definition that the walk never reaches is dead
weight: delete it, with its tests and its export.  `__init__.py` is left
out: a re-export is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripwave"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# The paper's linear claim: the analyticity of V carries over to the
# solution (tail_bound_check) and to the eigenvectors
# (eigenvector_strip_check).  No artifact reads these checks, so they are
# library entry points, with their report classes, the verdicts of the
# tail report and the weighted-l1 norm both rest on.  This is the only
# list of exceptions.
LIBRARY_ENTRY_POINTS = {
    "linear.tail_bound_check", "linear.TailBoundReport",
    "linear.TailBoundReport.low_ok", "linear.TailBoundReport.high_ok",
    "eigen.eigenvector_strip_check", "eigen.StripBoundCheck",
    "fourier.multiplier_norm_bound",
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _public_methods(node):
    if not isinstance(node, ast.ClassDef):
        return []
    return [item for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def _definitions(modules):
    """{name: [(qualified name, node)]} of the top-level functions and
    classes and of the public methods of the classes."""
    defs = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", node))
                for method in _public_methods(node):
                    defs.setdefault(method.name, []).append(
                        (f"{module}.{node.name}.{method.name}", method))
    return defs


def _walk(node):
    """The nodes under node, without the public methods of a class."""
    skip = set(map(id, _public_methods(node)))
    todo = [child for child in ast.iter_child_nodes(node) if id(child) not in skip]
    yield node
    while todo:
        sub = todo.pop()
        yield sub
        todo.extend(ast.iter_child_nodes(sub))


def _mentions(node):
    """Names, attributes and strings (factories are looked up by name)."""
    for sub in _walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _registered(node, defs):
    """Whether a package decorator registers the definition at import."""
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id in defs for dec in node.decorator_list)


def _reached(modules, defs):
    roots = [ast.parse(ACCEPTANCE.read_text())]
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or _registered(node, defs) \
                    or f"{module}.{node.name}" in LIBRARY_ENTRY_POINTS:
                roots.append(node)
            roots += [method for method in _public_methods(node)
                      if f"{module}.{node.name}.{method.name}" in LIBRARY_ENTRY_POINTS]
    reached = {node.name for node in roots if hasattr(node, "name")}
    todo = list(roots)
    while todo:
        for name in _mentions(todo.pop()):
            if name in defs and name not in reached:
                reached.add(name)
                todo.extend(node for _, node in defs[name])
    return reached


def test_every_public_definition_is_reached():
    modules = _modules()
    defs = _definitions(modules)
    reached = _reached(modules, defs)
    unreached = sorted(qualified for name, entries in defs.items()
                       for qualified, _ in entries
                       if not name.startswith("_") and name not in reached)
    assert unreached == []


def test_library_entry_points_exist():
    defined = {qualified for entries in _definitions(_modules()).values()
               for qualified, _ in entries}
    assert LIBRARY_ENTRY_POINTS <= defined
