"""Seeded input generators for the benchmark.

Every input is a complex file in the program's JSON format, plus a manifest
entry the program never sees: the facets of simplicial inputs (for the link
oracles) and the kind of space (for known cohomology).  Nothing here imports
`cwkoszul`, so the generators and the oracles built on them are independent
of the code under test.

Simplicial cells are named `v<a>-<b>-...` over sorted integer vertex labels
and oriented by that order: removing the i-th vertex has sign (-1)^i.
"""

from __future__ import annotations

import random
from itertools import combinations


def cell_id(simplex: tuple[int, ...]) -> str:
    return "v" + "-".join(str(v) for v in simplex)


def closure(facets) -> set[tuple[int, ...]]:
    """All nonempty faces of the given facets, as sorted vertex tuples."""
    out: set[tuple[int, ...]] = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            out.update(combinations(f, k))
    return out


def simplicial_file(name: str, facets) -> dict:
    """The complex file of the simplicial complex spanned by `facets`."""
    cells = []
    for s in sorted(closure(facets), key=lambda s: (len(s), s)):
        boundary = {}
        if len(s) > 1:
            for i in range(len(s)):
                boundary[cell_id(s[:i] + s[i + 1:])] = (-1) ** i
        cells.append({"id": cell_id(s), "dim": len(s) - 1, "boundary": boundary})
    return {"name": name, "cells": cells}


def relabel(facets, rng: random.Random) -> list[tuple[int, ...]]:
    """The same complex on a seeded permutation of its vertex labels 1..n."""
    verts = sorted({v for f in facets for v in f})
    image = list(range(1, len(verts) + 1))
    rng.shuffle(image)
    perm = dict(zip(verts, image))
    return sorted(tuple(sorted(perm[v] for v in f)) for f in facets)


# ---------------------------------------------------------------------------
# named simplicial complexes


def simplex(n: int):
    return [tuple(range(n + 1))]


def sphere(n: int):
    """Boundary of the (n+1)-simplex."""
    return [f for f in combinations(range(n + 2), n + 1)]


# the six-vertex real projective plane (half of the icosahedron)
RP2_SIX = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
           (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)]


def grid_surface(a: int, b: int, twisted: bool):
    """Triangulated a x b grid: a torus, or a Klein bottle when `twisted`.

    Vertex (i, j) has label i*b + j.  Leaving the grid through j = b re-enters
    at j = 0, mirrored in i when twisted; i always wraps plainly.  Needs
    a, b >= 3 to be simplicial.
    """

    def vid(i: int, j: int) -> int:
        if j >= b:
            j -= b
            if twisted:
                i = -i
        return (i % a) * b + j

    facets = []
    for i in range(a):
        for j in range(b):
            p, q, r, s = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
            facets.append(tuple(sorted((p, q, s))))
            facets.append(tuple(sorted((p, r, s))))
    return facets


def grown(rng: random.Random, dim: int, facets: int, new_every: int):
    """A pure, strongly connected complex grown facet by facet.

    Each step picks a codimension-1 face of an existing facet and cones it
    over a vertex: a new one on every `new_every`-th step (or when no other
    fits), otherwise an existing vertex that makes a facet not yet present.  With new_every = 1
    the result is a stacked ball; larger values add pinches and cycles.
    """
    out = [tuple(range(dim + 1))]
    have = set(out)
    nverts = dim + 1
    while len(out) < facets:
        base = rng.choice(out)
        drop = rng.choice(base)
        ridge = tuple(v for v in base if v != drop)
        choices = [v for v in range(nverts)
                   if v not in ridge and tuple(sorted(ridge + (v,))) not in have]
        if len(out) % new_every == 0 or not choices:
            apex = nverts
            nverts += 1
        else:
            apex = rng.choice(choices)
        f = tuple(sorted(ridge + (apex,)))
        have.add(f)
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# example_singular: two solid tetrahedra glued along a triangle and one edge


def example_singular_file() -> dict:
    """The paper's glued-tetrahedra solid; not simplicial.

    Both tetrahedra span the vertices D1..D4.  Each is described by the name
    of its face on every vertex subset; the shared triangle B4 and the shared
    edges C3..C6 carry one name in both.  Signs follow the global vertex order.
    """
    tetra = [
        ("A1", {"12": "C1", "14": "C2", "23": "C3", "13": "C4", "24": "C5", "34": "C6",
                "124": "B1", "123": "B2", "134": "B3", "234": "B4"}),
        ("A2", {"12": "C7", "13": "C4", "14": "C8", "23": "C3", "24": "C5", "34": "C6",
                "234": "B4", "123": "B5", "134": "B6", "124": "B7"}),
    ]
    boundary: dict[str, dict[str, int]] = {f"D{i}": {} for i in range(1, 5)}
    for top, names in tetra:
        names = dict(names, **{str(i): f"D{i}" for i in range(1, 5)}, **{"1234": top})
        for verts, cid in names.items():
            if len(verts) == 1:
                continue
            boundary[cid] = {
                names[verts[:i] + verts[i + 1:]]: (-1) ** i for i in range(len(verts))
            }
    dims = {cid: (0 if cid[0] == "D" else 1 if cid[0] == "C" else 2 if cid[0] == "B" else 3)
            for cid in boundary}
    cells = [{"id": c, "dim": dims[c], "boundary": boundary[c]}
             for c in sorted(boundary, key=lambda c: (dims[c], c))]
    return {"name": "example_singular", "cells": cells}
