"""Every function the benchmark's tracer wraps exists under the name it lists.

`perfbench/tracing.py` is loaded read-only from its file; a rename in
`src/` that leaves one of its hooks dangling would break `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.HOOKS


def test_every_traced_name_resolves():
    hooks = _hooks()
    assert hooks
    for mod_name, attr, *_ in hooks:
        obj = importlib.import_module(f"cwkoszul.{mod_name}")
        if "." in attr:
            # the tracer patches a method on the class that defines it
            cls_name, meth = attr.split(".")
            cls = getattr(obj, cls_name, None)
            assert cls is not None and meth in vars(cls), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(obj, attr, None)), f"{mod_name}.{attr}"
