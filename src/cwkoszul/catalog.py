"""Built-in regular CW complexes used throughout the test corpus and CLI.

Simplicial entries orient every cell by sorted vertex order.  The glued
two-tetrahedra solid (`example_singular`) is not simplicial: the tetrahedra
share one triangle and one further edge, so pairs of distinct cells share all
their vertices; its signs still come from a global vertex order, which the
validator confirms is consistent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .cw import ComplexError, RegularCWComplex


def _simplicial(name: str, facets: list[str]) -> RegularCWComplex:
    """Complex of all nonempty subsets of the facets; ids are sorted vertex strings."""
    cells: set[tuple[str, ...]] = set()
    for facet in facets:
        verts = tuple(sorted(facet))
        if len(set(verts)) != len(verts):
            raise ValueError(f"facet {facet!r} repeats a vertex")
        for k in range(1, len(verts) + 1):
            cells.update(combinations(verts, k))
    dims = {"".join(c): len(c) - 1 for c in cells}
    incidence: dict[tuple[str, str], int] = {}
    for c in cells:
        if len(c) == 1:
            continue
        cid = "".join(c)
        for i in range(len(c)):
            face = c[:i] + c[i + 1:]
            incidence[(cid, "".join(face))] = (-1) ** i
    return RegularCWComplex(name, dims, incidence)


# vertex sets of the glued-tetrahedra solid: two solid tetrahedra share the
# triangle B4 and the extra edge C4, which forces the apexes to merge into D1.
_SINGULAR_VERTEX_SETS = {
    "C1": ("D1", "D2"),
    "C2": ("D1", "D4"),
    "C3": ("D2", "D3"),
    "C4": ("D1", "D3"),
    "C5": ("D2", "D4"),
    "C6": ("D3", "D4"),
    "C7": ("D1", "D2"),
    "C8": ("D1", "D4"),
    "B1": ("D1", "D2", "D4"),
    "B2": ("D1", "D2", "D3"),
    "B3": ("D1", "D3", "D4"),
    "B4": ("D2", "D3", "D4"),
    "B5": ("D1", "D2", "D3"),
    "B6": ("D1", "D3", "D4"),
    "B7": ("D1", "D2", "D4"),
    "A1": ("D1", "D2", "D3", "D4"),
    "A2": ("D1", "D2", "D3", "D4"),
}

_SINGULAR_FACES = {
    "B1": ("C1", "C2", "C5"),
    "B2": ("C1", "C3", "C4"),
    "B3": ("C2", "C4", "C6"),
    "B4": ("C3", "C5", "C6"),
    "B5": ("C3", "C4", "C7"),
    "B6": ("C4", "C6", "C8"),
    "B7": ("C5", "C7", "C8"),
    "A1": ("B1", "B2", "B3", "B4"),
    "A2": ("B4", "B5", "B6", "B7"),
}


def _example_singular() -> RegularCWComplex:
    dims = {f"D{i}": 0 for i in range(1, 5)}
    dims.update({f"C{i}": 1 for i in range(1, 9)})
    dims.update({f"B{i}": 2 for i in range(1, 8)})
    dims.update({"A1": 3, "A2": 3})
    vsets = {f"D{i}": (f"D{i}",) for i in range(1, 5)}
    vsets.update(_SINGULAR_VERTEX_SETS)
    incidence: dict[tuple[str, str], int] = {}
    for cid, vs in _SINGULAR_VERTEX_SETS.items():
        if len(vs) == 2:
            faces = vs  # endpoints, as vertex cells
        else:
            faces = _SINGULAR_FACES[cid]
        for f in faces:
            missing = set(vs) - set(vsets[f])
            if len(missing) != 1:
                raise AssertionError(f"bad face table at ({cid}, {f})")
            incidence[(cid, f)] = (-1) ** vs.index(missing.pop())
    return RegularCWComplex("example_singular", dims, incidence)


_RP2_FACETS = ["124", "126", "134", "135", "156", "235", "236", "245", "346", "456"]

# the dimensions of each numbered family in the catalog
_FAMILIES = {"simplex": range(1, 6), "sphere": range(1, 5)}


def catalog_names() -> list[str]:
    names = ["point"]
    names += [f"{family}{n}" for family, dims in _FAMILIES.items() for n in dims]
    names += ["rp2_six", "example_singular", "three_triangles_shared_edge"]
    return names


@lru_cache(maxsize=None)
def catalog(name: str) -> RegularCWComplex:
    """Return the validated built-in complex with the given name.

    Only the names of `catalog_names` load, so a complex's name is its
    catalog name; `simplex7` names a dimension out of range, and an alias
    such as `simplex01` is unknown.
    """
    if name not in catalog_names():
        family = name.rstrip("0123456789")
        suffix = name[len(family):]
        if family in _FAMILIES and suffix and suffix == str(int(suffix)):
            dims = _FAMILIES[family]
            raise ComplexError(f"{family} dimension {suffix} unsupported ({dims[0]}..{dims[-1]})")
        raise ComplexError(f"unknown catalog name {name!r}")
    if name == "point":
        x = RegularCWComplex("point", {"p": 0}, {})
    elif name.startswith("simplex"):
        n = int(name[len("simplex"):])
        x = _simplicial(name, ["".join(str(i) for i in range(n + 1))])
    elif name.startswith("sphere"):
        n = int(name[len("sphere"):])
        verts = [str(i) for i in range(n + 2)]
        facets = ["".join(f) for f in combinations(verts, n + 1)]
        x = _simplicial(name, facets)
    elif name == "rp2_six":
        x = _simplicial(name, _RP2_FACETS)
    elif name == "example_singular":
        x = _example_singular()
    else:
        x = _simplicial(name, ["abp", "abq", "abr"])
    report = x.validate()
    if report:
        raise AssertionError(f"catalog complex {name!r} fails validation: {report}")
    return x
