"""Koszulity of layered-graph dual algebras, decided by exact cellular cohomology.

The public names below are imported from their modules on first access
(PEP 562), so `import cwkoszul.cli` and a command that needs no algebra load
none of `linalg`, `bigraded`, `dualalg` or `catalog`.
"""

import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "GF": "linalg",
    "QQ": "linalg",
    "ZZ": "linalg",
    "LayeredGraph": "layered",
    "RegularCWComplex": "cw",
    "SparseExactMatrix": "linalg",
    "annihilator_check": "dualalg",
    "catalog": "catalog",
    "catalog_names": "catalog",
    "cellular_cohomology": "bigraded",
    "comparison_iso_check": "dualalg",
    "complex_from_dict": "cw",
    "field_from_spec": "linalg",
    "graded_dims": "dualalg",
    "graph_from_dict": "layered",
    "hx_table": "bigraded",
    "koszul_decide": "dualalg",
    "koszul_obstructions": "bigraded",
    "relative_cohomology": "bigraded",
}

__all__ = list(_EXPORTS)


def _export(name: str):
    """The public object `name`, imported from its module and kept here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


__getattr__ = _export


class _Package(type(sys)):
    """The package module; loading the submodule `catalog` keeps the function.

    The import system binds each submodule on its package once loaded, which
    would hide the exported function `catalog` behind the module of that name.
    """

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
