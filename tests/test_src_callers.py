"""Every function, class and method under `src/` has a caller under `src/`.

Code that only the tests call belongs in `tests/helpers.py`.  A module-level
function or class counts as called when its bare name appears in `src/`
outside its own definition; the package's `__init__` imports count, so
public exports pass.  A non-dunder method counts as called when `.name`
appears in `src/` outside its own definition, with two exceptions:

- `self.name` counts only for the class it is written in;
- when `src/` also assigns `self.name = ...`, only calls `.name(...)` count,
  since an uncalled read may be that attribute.

Names the benchmark's tracer wraps (`perfbench/tracing.py`, loaded
read-only) pass too.
"""

import ast
from collections import Counter
from pathlib import Path

from test_tracing_hooks import _hooks

SRC = Path(__file__).resolve().parent.parent / "src" / "cwkoszul"


def _names(nodes):
    return Counter(node.id for tree in nodes for node in ast.walk(tree) if isinstance(node, ast.Name))


def _attribute_uses(tree, cls=None):
    """Counter of (name, called, owner) over the `.name` nodes of a tree.

    `owner` is the enclosing class of a `self.name` node and None for any
    other `.name`; `cls` is the class enclosing `tree` itself.
    """
    uses = Counter()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                called = isinstance(node, ast.Call) and node.func is child
                on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
                uses[(child.attr, called, cls if on_self else None)] += 1
            visit(child, cls)

    visit(tree, cls)
    return uses


def _self_assigned(trees):
    """Attribute names that `src/` assigns as `self.name = ...`."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(
                    t.attr for t in targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"
                )
    return out


def _outside_uses(uses, own, meth, cls, calls_only):
    """Uses of `.meth` outside its own definition that count for class `cls`."""
    return sum(
        n - own[key]
        for key, n in uses.items()
        if key[0] == meth and key[2] in (None, cls) and (key[1] or not calls_only)
    )


def test_every_src_definition_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names = _names(trees.values())
    uses = sum((_attribute_uses(tree) for tree in trees.values()), Counter())
    assigned = _self_assigned(trees.values())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    hooked = {(f"{module}.py", attr) for module, attr, *_ in _hooks()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                outside = names[node.name] - _names([node])[node.name]
                if not (outside or node.name in exported or (module, node.name) in hooked):
                    unused.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if not isinstance(meth, ast.FunctionDef) or meth.name.startswith("__"):
                        continue
                    own = _attribute_uses(meth, node.name)
                    outside = _outside_uses(uses, own, meth.name, node.name, meth.name in assigned)
                    if not (outside or (module, f"{node.name}.{meth.name}") in hooked):
                        unused.append(f"{module}:{node.name}.{meth.name}")
    assert not unused, f"defined in src/ but called only from outside it: {unused}"
