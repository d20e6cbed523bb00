"""Every function, class and method under `src/` has a caller under `src/`.

Code that only the tests call belongs in `tests/helpers.py`.  A module-level
function or class counts as called when its bare name appears in `src/`
outside its own definition; the package's `__init__` imports count, so
public exports pass.  A non-dunder method counts as called when `.name`
appears in `src/` outside its own definition.  Names the benchmark's tracer
wraps (`perfbench/tracing.py`, loaded read-only) pass too.
"""

import ast
from collections import Counter
from pathlib import Path

from test_tracing_hooks import _hooks

SRC = Path(__file__).resolve().parent.parent / "src" / "cwkoszul"


def _counts(nodes):
    names, attrs = Counter(), Counter()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] += 1
    return names, attrs


def test_every_src_definition_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names, attrs = _counts(trees.values())
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
                own, _ = _counts([node])
                outside = names[node.name] - own[node.name]
                if not (outside or node.name in exported or (module, node.name) in hooked):
                    unused.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if not isinstance(meth, ast.FunctionDef) or meth.name.startswith("__"):
                        continue
                    _, own = _counts([meth])
                    outside = attrs[meth.name] - own[meth.name]
                    if not (outside or (module, f"{node.name}.{meth.name}") in hooked):
                        unused.append(f"{module}:{node.name}.{meth.name}")
    assert not unused, f"defined in src/ but called only from outside it: {unused}"
