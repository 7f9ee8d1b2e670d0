"""Dead-name guard: every name ``src/`` defines is read somewhere in the program.

Parses ``src/neuroloop/*.py`` and ``demos/*.py`` and fails on any top-level
function, class or constant, or any method of a top-level class, whose name
no loaded name or attribute in that code reads. A re-export in
``__init__.py`` is an import, not a read, so it does not keep a name alive;
tests do not either: code only tests call belongs in the tests. Names are
matched by spelling, so a method counts as read when any attribute of that
name is. Dunder names are called by Python itself and are skipped.

The benchmark's tracer names the functions it times in ``TRACED``; a name
that no longer resolves is reported as 0 calls, not as an error, so every
name is checked here against the package.
Runtime budget: well under 0.5 s.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PROGRAM = sorted((ROOT / "src" / "neuroloop").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module, where: str):
    """(name, location) of each top-level function, class, constant and method."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        yield item.name, f"{where}:{item.lineno} ({node.name})"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, f"{where}:{node.lineno}"


def reads(tree: ast.Module):
    """Every name and attribute the code loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_defined_name_is_read():
    defined, read = {}, set()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(ROOT).as_posix()
        for name, location in definitions(tree, where):
            defined.setdefault(name, []).append(location)
        read.update(reads(tree))
    assert len(PROGRAM) > 10
    dead = {
        name: locations for name, locations in defined.items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    }
    assert dead == {}, f"defined but never read in src/ or demos/: {dead}"


def test_every_traced_name_is_a_function_of_its_layer():
    # Read, not imported: the literal is taken from the source.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert len(traced) > 5
    missing = [
        f"{layer}.{name}" for layer, names in traced.items() for name in names
        if not callable(getattr(importlib.import_module(f"neuroloop.{layer}"), name, None))
    ]
    assert missing == [], f"perfbench/tracer.py traces names neuroloop does not define: {missing}"
