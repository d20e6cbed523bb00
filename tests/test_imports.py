"""Start-up layout: each command loads only the modules it runs.

Every check runs in a fresh interpreter, since this process has imported
the whole package already.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cwkoszul.catalog import catalog

ROOT = Path(__file__).resolve().parent.parent

BASE = {"cli", "cw", "layered"}


def _fresh(code: str, *args: str) -> str:
    """Stdout of `code` run by a new interpreter that imports from `src/`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = """
import contextlib, io, json, sys
from cwkoszul import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "package": sorted(k[len("cwkoszul."):] for k in sys.modules if k.startswith("cwkoszul.")),
    "stdlib": sorted(k for k in ("dataclasses", "decimal", "fractions") if k in sys.modules),
}))
"""


@pytest.mark.parametrize("argv, modules", [
    (["validate", "{file}"], BASE),
    (["validate", "catalog:simplex3"], BASE | {"catalog"}),
    (["hx", "{file}", "--integral"], BASE | {"linalg", "bigraded"}),
    (["koszul", "{file}", "--poset", "bar"], BASE | {"linalg", "dualalg"}),
    (["koszul", "{file}", "--poset", "hat"], BASE | {"linalg", "dualalg", "bigraded"}),
], ids=["validate", "validate-catalog", "hx-integral", "koszul-bar", "koszul-hat"])
def test_each_command_loads_only_its_layers(tmp_path, argv, modules):
    path = tmp_path / "simplex3.json"
    path.write_text(json.dumps(catalog("simplex3").to_dict()))
    report = json.loads(_fresh(LOADED, *(a.format(file=path) for a in argv)))
    assert report["code"] == 0
    assert set(report["package"]) == modules
    if "linalg" not in modules:
        # the exact-arithmetic records and scalars stay off this path
        assert report["stdlib"] == []


EVERY_COMMAND = """
import contextlib, io, sys
from cwkoszul import cli
path, graph = sys.argv[1:]
argvs = [
    ["validate", path], ["poset", path, "--hat"], ["cohomology", path],
    ["relative", path, "--cell", "0"], ["hx", path, "--field", "f2"], ["hx", path, "--integral"],
    ["koszul", path, "--poset", "hat", "--check-remark39"], ["koszul-graph", graph],
    ["rdims", path, "--poset", "hat"], ["ann-check", path, "--vertex", "01", "--n", "1"],
    ["phi-check", path], ["catalog", "list"], ["catalog", "emit", "simplex3"],
]
assert {a[0] for a in argvs} == set(cli.COMMANDS)
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--json", *argv]) == 0, argv
print("dataclasses" in sys.modules)
"""


def test_no_command_loads_dataclasses(tmp_path):
    # records are namedtuples; `dataclasses` would load `inspect` and `ast`
    x = catalog("simplex3")
    path, graph = tmp_path / "simplex3.json", tmp_path / "simplex3_hat.json"
    path.write_text(json.dumps(x.to_dict()))
    graph.write_text(json.dumps(x.face_poset_hat().to_dict()))
    assert _fresh(EVERY_COMMAND, str(path), str(graph)) == "False\n"


LIBRARY = """
import contextlib, importlib, io, sys
import cwkoszul
assert not [k for k in sys.modules if k.startswith("cwkoszul.")], "import loaded a module"
# a command loads the submodule `catalog` before the function is first read
from cwkoszul import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["validate", "catalog:point"])
exec(sys.argv[1], {})
for name in cwkoszul.__all__:
    obj = getattr(cwkoszul, name)
    assert obj.__module__.startswith("cwkoszul."), name
    assert getattr(importlib.import_module(obj.__module__), name) is obj, name
star = {}
exec("from cwkoszul import *", star)
assert all(star[name] is getattr(cwkoszul, name) for name in cwkoszul.__all__)
try:
    cwkoszul.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_readme_library_snippet_and_lazy_exports():
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    # the glued tetrahedra fail at the maximum, and H_X(2, 1) over F2 is 1
    assert _fresh(LIBRARY, snippet) == "False 1bar 2 1\n1\n"
