"""Shared fixtures: hand-built graphs/complexes and seeded random graphs."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from cwkoszul.cw import RegularCWComplex
from cwkoszul.layered import LayeredGraph


def edge_poset() -> LayeredGraph:
    """Face poset of a single closed edge: endpoints a, b under e."""
    return LayeredGraph({"a": 1, "b": 1, "e": 2}, {("e", "a"), ("e", "b")}, name="edge")


def nonuniform_poset() -> LayeredGraph:
    """Rank-3 vertex whose two covers share no lower cover."""
    return LayeredGraph(
        {"x": 3, "b": 2, "c": 2, "p": 1, "q": 1},
        {("x", "b"), ("x", "c"), ("b", "p"), ("c", "q")},
        name="nonuniform",
    )


def dangling_square_complex() -> RegularCWComplex:
    """A 2-cell whose boundary hits a single edge once: fails validation."""
    return RegularCWComplex(
        "dangling",
        {"v1": 0, "v2": 0, "e": 1, "f": 2},
        {("e", "v1"): -1, ("e", "v2"): 1, ("f", "e"): 1},
    )


def segment_plus_point() -> RegularCWComplex:
    """A closed segment and an isolated vertex: valid but not pure."""
    return RegularCWComplex(
        "segment_plus_point",
        {"a": 0, "b": 0, "c": 0, "e": 1},
        {("e", "a"): -1, ("e", "b"): 1},
    )


def two_disjoint_triangles() -> RegularCWComplex:
    from cwkoszul.catalog import _simplicial

    return _simplicial("two_triangles", ["abc", "def"])


def random_layered_graph(rng: random.Random) -> LayeredGraph:
    """A small random layered graph of rank 2..4 (not necessarily uniform)."""
    top = rng.randint(2, 4)
    layers = {
        r: [f"{r}{chr(97 + i)}" for i in range(rng.randint(1, 3))]
        for r in range(1, top + 1)
    }
    verts = {v: r for r, vs in layers.items() for v in vs}
    covers = set()
    for r in range(2, top + 1):
        for v in layers[r]:
            k = rng.randint(1, len(layers[r - 1]))
            for w in rng.sample(layers[r - 1], k):
                covers.add((v, w))
    return LayeredGraph(verts, covers, name=f"rnd{rng.random():.6f}")


def random_uniform_graphs(count: int, seed: int) -> list[LayeredGraph]:
    """Deterministic list of uniform random graphs of rank <= 4."""
    rng = random.Random(seed)
    out: list[LayeredGraph] = []
    while len(out) < count:
        g = random_layered_graph(rng)
        if g.is_uniform()[0]:
            out.append(g)
    return out


def dense_rref(rows: list[list], p: int = 0) -> list[tuple[int, dict]]:
    """Textbook Gauss-Jordan on a dense copy, over Q (p = 0) or over F_p.

    Scans columns left to right, swaps a pivot row up, scales it to 1 and
    clears its column in every other row.  Returns the nonzero rows of the
    reduced row echelon form as (pivot column, {column: value}), the shape
    `rref_rows` returns; values are Fractions over Q and residues mod p.
    """
    a = [[v % p if p else Fraction(v) for v in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(a)) if a[i][c]), None)
        if found is None:
            continue
        a[r], a[found] = a[found], a[r]
        inv = pow(a[r][c], p - 2, p) if p else 1 / a[r][c]
        a[r] = [v * inv % p if p else v * inv for v in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return [(c, {j: v for j, v in enumerate(a[i]) if v}) for i, c in enumerate(pivots)]


def reference_koszul_decide(g: LayeredGraph, field):
    """The per-interval Koszulity decision: a fresh interval subgraph and
    path-word word complexes for every vertex, with no blocks shared."""
    from cwkoszul.dualalg import KoszulVerdict, KoszulWitness, word_complex
    from cwkoszul.layered import GraphError
    from cwkoszul.linalg import cochain_cohomology

    ok, wit = g.is_uniform()
    if not ok:
        raise GraphError(
            f"graph {g.name!r} is not uniform at vertex {wit[0]!r}; classes {wit[1]}"
        )
    checked: list[tuple[str, int, bool]] = []
    for x in g.vertex_ids():
        r = g.rank(x)
        if r < 2:
            continue
        sub = g.below(x)
        dtop = r - 1
        failure = None
        for k in range(dtop + 1):
            wc = word_complex(sub, k, field)
            dims, mats = wc.chain()
            homs = cochain_cohomology(dims, mats, field)
            if homs[0][0] != 1:
                raise AssertionError(
                    f"internal error: head-degree-{k} cohomology of the interval below "
                    f"{x!r} has dimension {homs[0][0]}, expected 1"
                )
            if k < dtop and homs[dtop - k][0] != 0:
                raise AssertionError(
                    f"internal error: top cohomology below {x!r} (k={k}) is nonzero"
                )
            if k < dtop - 1 and homs[dtop - 1 - k][0] != 0:
                raise AssertionError(
                    f"internal error: subtop cohomology below {x!r} (k={k}) is nonzero"
                )
            for i in range(1, dtop - k + 1):
                hdim, reps = homs[i]
                if hdim != 0:
                    n = k + i
                    labels = wc.blocks[n].labels()
                    rep = reps[0]
                    cocycle = sorted((labels[q], c) for q, c in rep.items())
                    failure = KoszulWitness(x, n, k, cocycle)
                    break
            if failure:
                break
        checked.append((x, r, failure is None))
        if failure:
            return KoszulVerdict(False, field.key, g.name, failure, checked)
    return KoszulVerdict(True, field.key, g.name, None, checked)


# ---------------------------------------------------------------------------
# code only the tests call, and scan-based references for the fast paths


def debug_triples(m) -> str:
    """Printable (row, col, value) triples of a sparse matrix, one per line, sorted."""
    lines = [f"{m.rows} {m.cols}"]
    for (i, j) in sorted(m.entries):
        lines.append(f"{i} {j} {m.entries[(i, j)]}")
    return "\n".join(lines)


def matmul(a, b):
    """The product a * b of two sparse matrices, column by column."""
    from cwkoszul.linalg import SparseExactMatrix

    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
    return SparseExactMatrix.from_columns([a.apply(c) for c in b.col_list()], a.rows, a.ring)


def is_zero(m) -> bool:
    return not m.entries


def kernel_basis(m, ring=None):
    """The kernel vectors of m as the columns of a matrix."""
    from cwkoszul.linalg import SparseExactMatrix, kernel_vectors

    ring = ring or m.ring
    return SparseExactMatrix.from_columns(kernel_vectors(m, ring), m.cols, ring)


def _linked_sequence(g: LayeredGraph, a: str, a2: str, shared: str):
    """BFS witness for down-up ('lower') or up-down ('upper') connectivity."""
    from cwkoszul.layered import GraphError

    if g.rank(a) != g.rank(a2):
        raise GraphError(f"{a!r} and {a2!r} have different ranks")
    if a == a2:
        return [a], []
    nbrs = g.lower_covers if shared == "lower" else g.upper_covers
    side = g.upper_covers if shared == "lower" else g.lower_covers
    prev: dict[str, tuple[str, str]] = {a: ("", "")}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for m in nbrs(u):
            for w in side(m):
                if w not in prev and g.rank(w) == g.rank(a):
                    prev[w] = (u, m)
                    if w == a2:
                        seq, links = [w], []
                        while prev[w][0]:
                            u0, m0 = prev[w]
                            links.append(m0)
                            seq.append(u0)
                            w = u0
                        seq.reverse()
                        links.reverse()
                        return seq, links
                    queue.append(w)
    return None


def down_up_sequence(g: LayeredGraph, a: str, a2: str):
    """Same-rank witness a_0..a_n with common lower covers b_1..b_n, or None."""
    return _linked_sequence(g, a, a2, "lower")


def up_down_sequence(g: LayeredGraph, a: str, a2: str):
    """Same-rank witness a_0..a_n with common upper covers b_1..b_n, or None."""
    return _linked_sequence(g, a, a2, "upper")


@dataclass(frozen=True)
class Subcomplex:
    """A downward-closed set of cells of a parent complex."""

    parent: RegularCWComplex
    cells: frozenset[str]

    def __post_init__(self):
        from cwkoszul.cw import ComplexError

        for c in self.cells:
            for f in self.parent.faces(c):
                if f not in self.cells:
                    raise ComplexError(
                        f"subcomplex is not downward closed: {c!r} without its face {f!r}"
                    )

    def induced(self) -> RegularCWComplex:
        dims = {c: self.parent.dims[c] for c in self.cells}
        inc = {
            (u, l): s
            for (u, l), s in self.parent.incidence.items()
            if u in self.cells and l in self.cells
        }
        return RegularCWComplex(f"{self.parent.name}|sub", dims, inc)

    def euler_characteristic(self) -> int:
        return self.parent.euler_characteristic(self.cells)


def closed_cell(x: RegularCWComplex, alpha: str) -> Subcomplex:
    """All faces of alpha, alpha included."""
    x.cell_dim(alpha)
    return Subcomplex(x, frozenset(x._strict_faces[alpha] | {alpha}))


def complement_star(x: RegularCWComplex, alpha: str) -> Subcomplex:
    """All cells whose closure avoids alpha."""
    x.cell_dim(alpha)
    return Subcomplex(x, frozenset(c for c in x.dims if not x.le(alpha, c)))


def word_cohomology(g: LayeredGraph, k: int, field):
    """Cohomology of the tail-k word complex, listed for head degrees k..d."""
    from cwkoszul.dualalg import word_complex
    from cwkoszul.linalg import cochain_cohomology

    dims, mats = word_complex(g, k, field).chain()
    return cochain_cohomology(dims, mats, field)


def scan_pair_basis(x: RegularCWComplex, n: int, k: int) -> list[tuple[str, str]]:
    """Pairs (upper n-cell, lower k-cell face) by testing every k-cell with `le`."""
    if k > n:
        return []
    return [(beta, alpha) for beta in x.cells(n) for alpha in x.cells(k) if x.le(alpha, beta)]


def scan_relative_complex(x: RegularCWComplex, alpha: str, field):
    """The cochain complex of (X, Y_alpha) on the star of alpha, found by
    testing every cell with `le`: (dims, differentials)."""
    from cwkoszul.linalg import SparseExactMatrix

    cells = [[c for c in x.cells(n) if x.le(alpha, c)] for n in range(x.dim + 1)]
    dims = [len(cs) for cs in cells]
    mats = []
    for n in range(x.dim):
        tgt = {c: i for i, c in enumerate(cells[n + 1])}
        entries = {}
        for j, beta in enumerate(cells[n]):
            for gamma in x.cofaces(beta):
                if gamma in tgt:
                    entries[(tgt[gamma], j)] = x.incidence[(gamma, beta)]
        mats.append(SparseExactMatrix(dims[n + 1], dims[n], entries, field))
    return dims, mats


def scan_relative_cohomology(x: RegularCWComplex, alpha: str, field) -> list[int]:
    """Dimensions of H^n(X, Y_alpha; F) from `scan_relative_complex`."""
    from cwkoszul.linalg import cochain_cohomology

    dims, mats = scan_relative_complex(x, alpha, field)
    return [h for h, _ in cochain_cohomology(dims, mats, field)]
