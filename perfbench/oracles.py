"""Independent answers the benchmark checks the program's output against.

Exact elimination of its own (over Q with Fraction, over F_p with residues),
cellular and simplicial Betti numbers, links, and Reisner's criterion: a pure
simplicial complex is Cohen-Macaulay over F exactly when every link
lk(s), the empty face included, has vanishing reduced cohomology below its
dimension (G. Reisner, Adv. Math. 21, 1976).  For the extended face poset
this is the paper's condition, so it predicts every `koszul --poset hat`
verdict on a simplicial input without either of the program's routes.
Nothing here imports `cwkoszul`.
"""

from __future__ import annotations

from fractions import Fraction

import gen

PRIMES = {"q": 0, "f2": 2, "f3": 3}


def rank(rows, p: int) -> int:
    """Rank of an integer matrix given as sparse rows {col: value}, over F_p or Q (p = 0)."""
    pivots: dict[int, dict] = {}
    for row in rows:
        if p:
            r = {c: v % p for c, v in row.items() if v % p}
        else:
            r = {c: Fraction(v) for c, v in row.items() if v}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], p - 2, p) if p else 1 / r[c]
                pivots[c] = {k: (v * inv) % p if p else v * inv for k, v in r.items()}
                break
            f = r[c]
            for k, v in piv.items():
                w = r.get(k, 0) - f * v
                if p:
                    w %= p
                if w:
                    r[k] = w
                else:
                    r.pop(k, None)
    return len(pivots)


def cochain_dims(groups: list[list], boundary: dict, p: int) -> list[int]:
    """Cohomology dimensions of cells graded by `groups`, with coboundary from
    `boundary[cell] = {face: sign}`; degree i of the result is groups[i]."""
    index = [{c: j for j, c in enumerate(g)} for g in groups]
    ranks = []
    for i in range(len(groups) - 1):
        rows = [{index[i][f]: s for f, s in boundary[c].items()} for c in groups[i + 1]]
        ranks.append(rank(rows, p))
    ranks.append(0)
    return [len(g) - ranks[i] - (ranks[i - 1] if i else 0) for i, g in enumerate(groups)]


def cellular_dims(data: dict, p: int) -> list[int]:
    """Cellular cohomology dimensions of a complex file, degree 0..dim."""
    top = max(c["dim"] for c in data["cells"])
    groups = [[c["id"] for c in data["cells"] if c["dim"] == d] for d in range(top + 1)]
    boundary = {c["id"]: c["boundary"] for c in data["cells"]}
    return cochain_dims(groups, boundary, p)


def faces_of(facets) -> set[tuple]:
    """All faces of the facets, the empty face included."""
    return gen.closure(facets) | {()}


def reduced_dims(faces: set[tuple], p: int) -> dict[int, int]:
    """Reduced cohomology of a simplicial complex with its empty face, by degree -1..dim."""
    top = max(len(s) for s in faces) - 1
    groups = [sorted(s for s in faces if len(s) == d + 1) for d in range(-1, top + 1)]
    boundary = {s: {s[:i] + s[i + 1:]: (-1) ** i for i in range(len(s))} for s in faces}
    return {i - 1: h for i, h in enumerate(cochain_dims(groups, boundary, p))}


def link(faces: set[tuple], sigma: tuple) -> set[tuple]:
    s = set(sigma)
    return {t for t in faces
            if not s & set(t) and tuple(sorted(s | set(t))) in faces}


def relative_dims(facets, sigma: tuple, p: int) -> list[int]:
    """H^n(X, X minus the open star of sigma) for n = 0..dim X: the link's
    reduced cohomology shifted by dim(sigma) + 1."""
    faces = faces_of(facets)
    top = max(len(s) for s in faces) - 1
    lk = reduced_dims(link(faces, sigma), p)
    shift = len(sigma)
    return [lk.get(n - shift, 0) for n in range(top + 1)]


def reisner(facets, p: int) -> bool:
    """True when the pure simplicial complex is Cohen-Macaulay over F_p (Q for p = 0)."""
    faces = faces_of(facets)
    top = max(len(s) for s in faces) - 1
    for sigma in faces:
        lk = reduced_dims(link(faces, sigma), p)
        if any(lk.get(i, 0) for i in range(-1, top - len(sigma))):
            return False
    return True


# column k = 0 of the integral table: (free rank, torsion) by degree
KNOWN_COHOMOLOGY = {
    "torus": [(1, []), (2, []), (1, [])],
    "klein": [(1, []), (1, []), (0, [2])],
    "sphere2": [(1, []), (0, []), (1, [])],
    "sphere3": [(1, []), (0, []), (0, []), (1, [])],
}


def universal_coefficients(integral: dict, n: int, k: int, p: int) -> int:
    """dim H(n,k; F_p) predicted from the integral table: H^n (x) F_p + Tor(H^(n+1), F_p)."""
    entry = integral[f"{n},{k}"]
    above = integral.get(f"{n + 1},{k}", {"torsion": []})
    return (entry["free"] + sum(1 for t in entry["torsion"] if t % p == 0)
            + sum(1 for t in above["torsion"] if t % p == 0))
