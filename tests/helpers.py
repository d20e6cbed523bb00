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


def _filled_3_cycle(name: str, signs: dict[str, int]) -> RegularCWComplex:
    """The tetrahedra named in `signs` and their faces, plus a 4-cell W bounded by them."""
    from cwkoszul.catalog import _simplicial

    x = _simplicial(name, list(signs))
    incidence = dict(x.incidence)
    incidence.update({("W", t): s for t, s in signs.items()})
    return RegularCWComplex(name, {**x.dims, "W": 4}, incidence)


def _boundary_of_4_simplex(verts: str) -> dict[str, int]:
    """The fundamental cycle of the boundary of the 4-simplex on `verts`."""
    return {verts[:i] + verts[i + 1:]: (-1) ** i for i in range(5)}


def glued_spheres_complex() -> RegularCWComplex:
    """A 4-cell W bounded by two 3-spheres glued along the circle 0-1-2.

    One sphere is the boundary of the 4-simplex on 01234, the other the join
    of the circles {01, 12, 02} and {56, 67, 57}.  The face poset is thin
    and the boundary has Euler characteristic 0, as S^3 does, but the open
    intervals (01, W), (02, W) and (12, W) are disconnected.
    """
    circle_a = {"01": 1, "12": 1, "02": -1}
    circle_b = {"56": 1, "67": 1, "57": -1}
    signs = _boundary_of_4_simplex("01234")
    signs.update({e + f: s * t for e, s in circle_a.items() for f, t in circle_b.items()})
    return _filled_3_cycle("glued_spheres", signs)


def doubled_tetrahedron_complex() -> RegularCWComplex:
    """A 3-cell g bounded by two copies of the boundary of the tetrahedron 1234.

    The copies share the vertices and the edges 12 and 34 only; their other
    edges and their triangles carry the suffix a or b.  Boundary of boundary
    vanishes and the boundary of g has Euler characteristic 2, as S^2 does,
    but [12, g] and [34, g] have four intermediate cells each.
    """
    from cwkoszul.catalog import _simplicial

    t = _simplicial("tetrahedron", ["1234"])
    shared = {"1", "2", "3", "4", "12", "34"}
    dims = {"g": 3}
    incidence = {}
    for suffix in "ab":
        def name(c):
            return "g" if t.dims[c] == 3 else c if c in shared else c + suffix

        dims.update((name(c), d) for c, d in t.dims.items() if d < 3)
        incidence.update(((name(u), name(l)), s) for (u, l), s in t.incidence.items())
    return RegularCWComplex("doubled_tetrahedron", dims, incidence)


def disjoint_spheres_complex() -> RegularCWComplex:
    """A 4-cell W bounded by two disjoint boundaries of 4-simplices.

    Every check before the diamond condition passes; [0bar, W] splits.
    """
    signs = {**_boundary_of_4_simplex("01234"), **_boundary_of_4_simplex("56789")}
    return _filled_3_cycle("disjoint_spheres", signs)


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
    from cwkoszul.dualalg import KoszulVerdict, KoszulWitness
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
        sub = below(g, x)
        dtop = r - 1
        failure = None
        for k in range(dtop + 1):
            wc = path_word_complex(sub, k, field)
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
    return SparseExactMatrix.from_columns([a.apply(c) for c in b.columns], a.rows, a.ring)


def transpose(m):
    """The transpose of a sparse matrix: its rows become the columns."""
    from cwkoszul.linalg import SparseExactMatrix

    return SparseExactMatrix._canonical(m.cols, m.row_list(), m.ring)


def is_zero(m) -> bool:
    return not m.entries


def convert(m, ring):
    """The entries of m over `ring`; a matrix already over it is returned as is."""
    from cwkoszul.linalg import SparseExactMatrix

    if ring == m.ring:
        return m
    return SparseExactMatrix.from_columns(m.columns, m.rows, ring)


def kernel_basis(m):
    """The kernel vectors of m as the columns of a matrix."""
    from cwkoszul.linalg import SparseExactMatrix, kernel_vectors

    return SparseExactMatrix.from_columns(kernel_vectors(m), m.cols, m.ring)


def image_vectors(m, ring=None) -> list[dict]:
    """Basis of the column space of m, in reduced echelon form."""
    from cwkoszul.linalg import rref_rows

    ring = ring or m.ring
    return [row for _, row in rref_rows(convert(m, ring).columns, ring)]


def reduce_mod_rows(vec: dict, rref, ring) -> dict:
    """A vector reduced modulo the row span of an RREF; no pivot column is left.

    `rref` holds the (pivot column, row) pairs of `rref_rows`, as its list or
    as a dict.  The reference for `linalg._reduce`: one subtraction of a whole
    pivot row per pivot column the vector holds, in the ring's own arithmetic.
    """
    pivot_rows = rref if isinstance(rref, dict) else dict(rref)
    out = dict(vec)
    for c in [c for c in out if c in pivot_rows]:
        coeff = out[c]
        for j, v in pivot_rows[c].items():
            w = ring.of(out.get(j, 0) - coeff * v)
            if w:
                out[j] = w
            else:
                out.pop(j, None)
    return out


def _linked_sequence(g: LayeredGraph, a: str, a2: str, shared: str):
    """BFS witness for down-up ('lower') or up-down ('upper') connectivity."""
    from cwkoszul.layered import GraphError

    if g.rank(a) != g.rank(a2):
        raise GraphError(f"{a!r} and {a2!r} have different ranks")
    if a == a2:
        return [a], []
    up = lambda v: upper_covers(g, v)
    nbrs = g.lower_covers if shared == "lower" else up
    side = up if shared == "lower" else g.lower_covers
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
    return Subcomplex(x, frozenset(c for c in x.dims if not cell_le(x, alpha, c)))


def word_cohomology(g: LayeredGraph, k: int, field):
    """Cohomology of the tail-k word complex, listed for head degrees k..d."""
    from cwkoszul.linalg import cochain_cohomology

    dims, mats = path_word_complex(g, k, field).chain()
    return cochain_cohomology(dims, mats, field)


def cell_le(x: RegularCWComplex, a: str, b: str) -> bool:
    """a is a face of b (or equal)."""
    x.cell_dim(a), x.cell_dim(b)
    return a == b or a in x._strict_faces[b]


def is_thin(g: LayeredGraph) -> tuple[bool, tuple[str, str, list[str]] | None]:
    """True iff every rank-2 interval [b, a] has exactly four elements.

    Witness on failure: (a, b, interval elements).
    """
    for a in g.vertex_ids():
        for b in g.sphere(a, 2):
            mids = [z for z in g.lower_covers(a) if b in g.strictly_below(z)]
            if len(mids) != 2:
                return False, (a, b, sorted([a, b] + mids))
    return True, None


def scan_pair_basis(x: RegularCWComplex, n: int, k: int) -> list[tuple[str, str]]:
    """Pairs (upper n-cell, lower k-cell face) by testing every k-cell with `cell_le`."""
    if k > n:
        return []
    return [(beta, alpha) for beta in x.cells(n) for alpha in x.cells(k) if cell_le(x, alpha, beta)]


def pair_dims(layer) -> dict[int, int]:
    """Dimensions of the pair spaces of a `BigradedLayer`, by n."""
    return {n: len(b) for n, b in layer.bases.items()}


def reduced_quotients(red) -> dict:
    """The pair spaces of a `ReducedLayer` presented by `linalg.quotient` as
    cokernels of the vertical differential (of the empty map for n = k and
    past the top), by n: the reference for the echelon forms it holds."""
    from cwkoszul.linalg import SparseExactMatrix, quotient

    layer, above, k = red.layer, red.above, red.k
    ring = layer.d_up[k].ring
    out = {}
    for n, labels in sorted(layer.bases.items()):
        if above is not None and n > k:
            rel = above.d_down[n]
        else:
            rel = SparseExactMatrix(len(labels), 0, {}, ring)
        out[n] = quotient(labels, rel, ring)
    return out


def reduced_dims(red) -> dict[int, int]:
    """Dimensions of the quotients of a `ReducedLayer`, by n."""
    return {n: q.dim for n, q in reduced_quotients(red).items()}


def pair_layers(x: RegularCWComplex, ring) -> dict:
    """The pair layers of all columns over `ring`, each lending its bases to
    the next as `reduced_layers` chains them, by k."""
    from cwkoszul.bigraded import build_layer

    layers: dict = {}
    below = None
    for k in range(x.dim + 1):
        below = layers[k] = build_layer(x, k, ring, below)
    return layers


def reference_layer(x: RegularCWComplex, k: int, ring):
    """The pair layer of column k built alone: the bases of column k and the
    targets of its vertical differential are listed by `scan_pair_basis`."""
    from cwkoszul.bigraded import BigradedLayer
    from cwkoszul.linalg import SparseExactMatrix

    d = x.dim
    bases = {n: scan_pair_basis(x, n, k) for n in range(k, d + 1)}
    d_up, d_down = {}, {}
    for n in range(k, d + 1):
        tgt = {pair: i for i, pair in enumerate(bases.get(n + 1, []))}
        entries = {
            (tgt[(gamma, alpha)], j): x.incidence[(gamma, beta)]
            for j, (beta, alpha) in enumerate(bases[n])
            for gamma in x.cofaces(beta)
        }
        d_up[n] = SparseExactMatrix(len(tgt), len(bases[n]), entries, ring)
        if k >= 1:
            below_basis = scan_pair_basis(x, n, k - 1)
            tgt = {pair: i for i, pair in enumerate(below_basis)}
            entries = {
                (tgt[(beta, gamma)], j): x.incidence[(alpha, gamma)]
                for j, (beta, alpha) in enumerate(bases[n])
                for gamma in x.faces(alpha)
            }
            d_down[n] = SparseExactMatrix(len(below_basis), len(bases[n]), entries, ring)
    return BigradedLayer(k, bases, d_up, d_down)


def reference_reduced_layer(x: RegularCWComplex, k: int, ring):
    """Reduced column k from the pair layers of columns k and k+1 built alone."""
    from cwkoszul.bigraded import reduced_layer

    above = reference_layer(x, k + 1, ring) if k < x.dim else None
    return reduced_layer(reference_layer(x, k, ring), above, ring)


def reduced_chain(red) -> tuple[list[int], list]:
    """Dimensions of the quotients of a `ReducedLayer` (`reduced_quotients`)
    and the maps its `d_up` induces between them by `induced_map`, which
    checks that relations go to relations."""
    from cwkoszul.linalg import induced_map

    q, d_up = reduced_quotients(red), red.layer.d_up
    ns = sorted(q)
    return [q[n].dim for n in ns], [induced_map(d_up[n], q[n], q[n + 1]) for n in ns[:-1]]


def reference_hx_table(x: RegularCWComplex, ring):
    """`hx_table` through quotient coordinates: the cohomology of the chain
    of every reduced column, by ranks over a field and by one Smith form per
    induced map over Z."""
    from cwkoszul.bigraded import PairCohomologyTable, reduced_layers
    from cwkoszul.linalg import cohomology_dims, integral_cochain_cohomology

    entries = {}
    for layer in reduced_layers(x, ring):
        dims, mats = reduced_chain(layer)
        if ring.p is None:
            groups = integral_cochain_cohomology(dims, mats)
        else:
            groups = cohomology_dims(dims, mats, ring)
        for i, val in enumerate(groups):
            entries[(layer.k + i, layer.k)] = val
    return PairCohomologyTable(ring.key, x.dim, entries)


def tampered_build_layer(k: int, edit):
    """`bigraded.build_layer` with `edit(layer)` applied to the layer of column k,
    to stand in for a pair layer built wrong."""
    from cwkoszul import bigraded

    build = bigraded.build_layer

    def tampered(x, col, ring, below):
        layer = build(x, col, ring, below)
        if col == k:
            edit(layer)
        return layer

    return tampered


def flip_d_up_sign(layer) -> None:
    """Negate one entry of `layer.d_up[1]`: the first of its first nonzero column."""
    m = layer.d_up[1]
    cols = [dict(c) for c in m.columns]
    col = next(c for c in cols if c)
    i = min(col)
    col[i] = m.ring.of(-col[i])
    layer.d_up[1] = type(m)._canonical(m.rows, cols, m.ring)


def double_diagonal_d_down(layer) -> None:
    """Double the `d_down[k]` column of the first pair (t, t) of column k."""
    m = layer.d_down[layer.k]
    cols = list(m.columns)
    cols[0] = {i: m.ring.of(2 * v) for i, v in cols[0].items()}
    layer.d_down[layer.k] = type(m)._canonical(m.rows, cols, m.ring)


def scan_relative_complex(x: RegularCWComplex, alpha: str, field):
    """The cochain complex of (X, Y_alpha) on the star of alpha, found by
    testing every cell with `cell_le`: (dims, differentials)."""
    from cwkoszul.linalg import SparseExactMatrix

    cells = [[c for c in x.cells(n) if cell_le(x, alpha, c)] for n in range(x.dim + 1)]
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


def matrix_from_rows(rows: list[dict], ncols: int, ring):
    """The matrix with the given sparse rows, entries brought to the canonical form of ring."""
    from cwkoszul.linalg import SparseExactMatrix

    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return SparseExactMatrix(len(rows), ncols, entries, ring)


def identity(n: int, ring):
    """The n x n identity matrix."""
    from cwkoszul.linalg import SparseExactMatrix

    return SparseExactMatrix(n, n, {(i, i): ring.one for i in range(n)}, ring)


def upper_covers(g: LayeredGraph, v: str) -> tuple[str, ...]:
    """The vertices covering v, sorted."""
    g.rank(v)
    return tuple(sorted(u for u, l in g.covers if l == v))


def below(g: LayeredGraph, x: str) -> LayeredGraph:
    """The induced layered graph on [bottom, x]; ranks unchanged, built anew."""
    from cwkoszul.layered import BOTTOM

    g.rank(x)
    keep = set(g.strictly_below(x)) | {x}
    verts = {v: g.vertices[v] for v in keep}
    covs = {(u, l) for (u, l) in g.covers if u in keep and l in keep and l != BOTTOM}
    name = f"{g.name}[<={x}]" if g.name else f"[<={x}]"
    return LayeredGraph(verts, covs, name=name)


def diamond_classes(g: LayeredGraph, b: str, a: str) -> list[list[tuple[str, ...]]]:
    """Partition of g.maximal_chains(b, a) under one-position exchanges.

    Two chains are directly related when they differ in at most one
    position; classes are the transitive closure, each sorted, listed by
    smallest member.  The listing reference for `open_interval_connected`.
    """
    chains = g.maximal_chains(b, a)
    index = {ch: i for i, ch in enumerate(chains)}
    parent = list(range(len(chains)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    if chains:
        length = len(chains[0])
        for pos in range(1, length - 1):
            buckets: dict[tuple, int] = {}
            for ch, i in index.items():
                key = ch[:pos] + ch[pos + 1:]
                if key in buckets:
                    union(buckets[key], i)
                else:
                    buckets[key] = i
    groups: dict[int, list[tuple[str, ...]]] = {}
    for ch, i in index.items():
        groups.setdefault(find(i), []).append(ch)
    return sorted(sorted(g) for g in groups.values())


def open_interval_connected(g: LayeredGraph, b: str, a: str) -> bool:
    """True iff a search through covers inside the open interval (a, b) of g reaches all of it.

    On every interval of length >= 3 this stands for the diamond condition
    (proof in `RegularCWComplex.validate`, which runs the same search on the
    closures of a complex).  The graph reference for that search.
    """
    from cwkoszul.layered import GraphError

    if not g.le(a, b):
        raise GraphError(f"{a!r} is not below {b!r}")
    inside = {z for z in g.strictly_below(b) if a in g.strictly_below(z)}
    stack = [min(inside)] if inside else []
    seen = set(stack)
    while stack:
        z = stack.pop()
        for w in g.lower_covers(z) + upper_covers(g, z):
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(inside)


def scan_to_dict(x: RegularCWComplex) -> dict:
    """`RegularCWComplex.to_dict` by scanning every incidence for each cell."""
    cells = []
    for c in sorted(x.dims):
        boundary = {l: x.incidence[(u, l)] for (u, l) in x.incidence if u == c}
        cells.append({"id": c, "dim": x.dims[c], "boundary": {k: boundary[k] for k in sorted(boundary)}})
    return {"name": x.name, "cells": cells}


def reference_validation_report(x: RegularCWComplex) -> list[str]:
    """The report of `x.validate()`, built one check per pass and the diamond
    condition on the bar poset `x._face_poset_bar_unchecked()` through
    `open_interval_connected`: the reference for the closure-based validator."""
    report: list[str] = []
    dims, faces, inc, strict = x.dims, x._faces, x.incidence, x._strict_faces
    for c in x.cells():
        if dims[c] >= 1 and not faces[c]:
            report.append(f"cell {c!r} of dimension {dims[c]} has no codimension-1 face")
    for c in x.cells():
        if dims[c] == 1:
            if len(faces[c]) != 2:
                report.append(f"1-cell {c!r} has {len(faces[c])} endpoints, expected 2")
            elif sum(inc[(c, v)] for v in faces[c]) != 0:
                report.append(f"1-cell {c!r} must have one +1 and one -1 endpoint")
    for g in x.cells():
        if dims[g] < 2:
            continue
        acc: dict[str, int] = {}
        for b in faces[g]:
            for a in faces[b]:
                acc[a] = acc.get(a, 0) + inc[(g, b)] * inc[(b, a)]
        for a, v in sorted(acc.items()):
            if v != 0:
                report.append(f"boundary of boundary is nonzero at ({g!r}, {a!r}): {v}")
    for g in x.cells():
        for a in sorted(strict[g]):
            if dims[a] == dims[g] - 2:
                mids = [b for b in faces[g] if a in strict[b]]
                if len(mids) != 2:
                    report.append(
                        f"interval [{a!r}, {g!r}] has {len(mids)} intermediate cells, expected 2"
                    )
    for c in x.cells():
        n = dims[c]
        if n >= 1:
            chi = sum((-1) ** dims[f] for f in strict[c])
            if chi != 1 + (-1) ** (n - 1):
                report.append(
                    f"boundary of {c!r} has Euler characteristic {chi}, "
                    f"expected {1 + (-1) ** (n - 1)}"
                )
    if not report:
        bar = x._face_poset_bar_unchecked()
        for b in bar.vertex_ids():
            for a in sorted(bar.strictly_below(b)):
                if bar.rank(b) - bar.rank(a) > 2 and not open_interval_connected(bar, b, a):
                    report.append(f"interval [{a!r}, {b!r}] splits into several diamond classes")
    return report


def integral_cellular_cohomology(x: RegularCWComplex) -> list[tuple[int, tuple[int, ...]]]:
    """Cellular cohomology over Z: (free rank, torsion factors) per degree."""
    from cwkoszul.bigraded import cellular_complex
    from cwkoszul.linalg import ZZ, integral_cochain_cohomology

    dims, mats = cellular_complex(x, ZZ)
    return integral_cochain_cohomology(dims, mats)


def grid_torus(a: int, b: int) -> RegularCWComplex:
    """The triangulated a x b grid with both directions wrapped: a torus (a, b >= 3)."""
    from cwkoszul.catalog import _simplicial

    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

    def vert(i, j):
        return letters[(i % a) * b + j % b]

    facets = []
    for i in range(a):
        for j in range(b):
            p, q, r, s = vert(i, j), vert(i + 1, j), vert(i, j + 1), vert(i + 1, j + 1)
            facets += [p + q + s, p + r + s]
    return _simplicial(f"torus{a}x{b}", facets)


# ---------------------------------------------------------------------------
# the dense Smith normal form: the reference for the integral path
#
# Both run `_snf_reduce` on the whole relation matrix, and the quotient
# tracks two ambient-sized square transforms, as the integral path did
# before it eliminated unit pivots sparsely.


def to_dense(m) -> list[list]:
    """The entries of a sparse matrix as a list of rows."""
    out = [[m.ring.zero] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


def dense_smith_factors(m) -> tuple[int, ...]:
    """Invariant factors of an integer matrix from one dense Smith form."""
    from cwkoszul.linalg import ZZ, _snf_reduce

    dense = to_dense(convert(m, ZZ))
    return tuple(_snf_reduce(dense, None, None)) if dense else ()


class dense_integral_quotient:
    """The cokernel of the integer map `relations`, by a dense Smith form.

    The Smith form runs on the relations, the columns of the map, as the
    rows of a dense matrix; its column transform q supplies the coordinates:
    `project` multiplies by the columns of q past the rank, `lift` reads the
    rows of its inverse.  Raises `TorsionError` unless every factor is 1.
    """

    def __init__(self, ambient_labels: list, relations):
        from cwkoszul.linalg import TorsionError, _snf_reduce

        self.ambient_labels = list(ambient_labels)
        n = len(ambient_labels)
        if relations.rows != n:
            raise ValueError("relation map does not land in the ambient basis")
        dense = [[col.get(i, 0) for i in range(n)] for col in relations.columns]
        q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        qinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        factors = _snf_reduce(dense, q, qinv) if dense else []
        if any(d != 1 for d in factors):
            raise TorsionError(
                f"integral quotient has torsion (invariant factors {factors}); "
                "no free coordinate system exists"
            )
        self._rank = len(factors)
        self._q = q
        self._qinv = qinv
        self.dim = n - self._rank

    def project(self, vec: dict) -> dict:
        s, q = self._rank, self._q
        out = {}
        for t in range(s, len(self.ambient_labels)):
            acc = sum(v * q[a][t] for a, v in vec.items())
            if acc:
                out[t - s] = acc
        return out

    def lift(self, idx: int) -> dict:
        return {a: v for a, v in enumerate(self._qinv[self._rank + idx]) if v}

    def in_relation_lattice(self, vec: dict) -> bool:
        return not self.project(vec)


# ---------------------------------------------------------------------------
# the path-word presentation: the reference the head blocks are tested against
#
# Each graded component is the span of its path words (descending cover
# chains avoiding the minimum) modulo rows that sum, over a fixed prefix and
# suffix, the admissible middle letters.  `memo` is a dict owned by one call
# of a reference entry point, which lets its word lists be built once.


def path_words(g: LayeredGraph, m: int, memo: dict | None = None) -> list[tuple[str, ...]]:
    """All descending cover chains of m letters avoiding the minimum, sorted."""
    memo = {} if memo is None else memo
    key = ("words", m)
    if key not in memo:
        if m == 0:
            memo[key] = [()]
        elif m == 1:
            memo[key] = sorted((v,) for v in g.vertex_ids(skip_bottom=True))
        else:
            memo[key] = sorted(
                (u,) + w
                for w in path_words(g, m - 1, memo)
                for u in upper_covers(g, w[0])
            )
    return memo[key]


def path_words_by_head(
    g: LayeredGraph, m: int, head_rank: int, memo: dict | None = None
) -> list[tuple[str, ...]]:
    """The degree-m path words whose head sits at the given rank, sorted."""
    memo = {} if memo is None else memo
    key = ("by_head", m)
    if key not in memo:
        groups: dict[int, list[tuple[str, ...]]] = {}
        for w in path_words(g, m, memo):
            groups.setdefault(g.rank(w[0]), []).append(w)
        memo[key] = groups
    return memo[key].get(head_rank, [])


def _relation_rows(
    g: LayeredGraph, m: int, head_rank: int | None, memo: dict
) -> list[list[tuple[str, ...]]]:
    """Relation supports in the degree-m component (optionally one head rank).

    One row per (prefix, suffix): the words obtained by inserting each
    admissible letter between a prefix ending at b and a suffix two ranks
    further down; their sum vanishes in the algebra.  Ambient spaces carry
    path words only: any other word contains a two-letter factor that is
    itself a relation, so it is zero before these rows apply.
    """
    rows: list[list[tuple[str, ...]]] = []
    covers = g.covers
    for i in range(1, m):
        if head_rank is None:
            prefixes = path_words(g, i, memo)
        else:
            prefixes = path_words_by_head(g, i, head_rank, memo)
        for pi in prefixes:
            b = pi[-1]
            rb = g.rank(b)
            if rb < 2:
                continue
            if i == m - 1:
                rows.append([pi + (c,) for c in g.lower_covers(b)])
            else:
                for v in path_words_by_head(g, m - i - 1, rb - 2, memo):
                    members = [
                        pi + (c,) + v
                        for c in g.lower_covers(b)
                        if (c, v[0]) in covers
                    ]
                    if members:
                        rows.append(members)
    return rows


@dataclass
class GradedComponent:
    """One graded component (or head-rank block) as a quotient of path words."""

    graph: LayeredGraph
    degree: int
    presentation: object

    @property
    def dim(self) -> int:
        return self.presentation.dim

    def labels(self) -> list[tuple[str, ...]]:
        return self.presentation.labels()


def _component(words: list, rows: list, field):
    from cwkoszul.linalg import SparseExactMatrix, quotient

    index = {w: j for j, w in enumerate(words)}
    rel = SparseExactMatrix.from_columns(
        [{index[w]: field.one for w in row} for row in rows], len(words), field
    )
    return quotient(list(words), rel, field)


def path_graded_component(g: LayeredGraph, m: int, field, memo: dict | None = None) -> GradedComponent:
    """The full degree-m component; its relation matrix is block diagonal by head."""
    memo = {} if memo is None else memo
    words = path_words(g, m, memo)
    rows = _relation_rows(g, m, None, memo) if m >= 2 else []
    return GradedComponent(g, m, _component(words, rows, field))


def path_block_component(
    g: LayeredGraph, m: int, head_rank: int, field, memo: dict | None = None
) -> GradedComponent:
    """The degree-m block of words whose head sits at the given rank."""
    memo = {} if memo is None else memo
    words = path_words_by_head(g, m, head_rank, memo)
    rows = _relation_rows(g, m, head_rank, memo) if m >= 2 else []
    return GradedComponent(g, m, _component(words, rows, field))


def path_graded_dims(g: LayeredGraph, field, up_to: int | None = None) -> list[int]:
    """Dimensions of the graded components in degrees 1..up_to, on path words."""
    top = g.max_rank + 1 if up_to is None else up_to
    memo: dict = {}
    return [path_graded_component(g, m, field, memo).dim for m in range(1, top + 1)]


def _lmul_ambient(g: LayeredGraph, coeffs: dict, src_words: list, dst_words: list, field):
    """Prepend a linear combination of generators, on ambient path words."""
    from cwkoszul.linalg import SparseExactMatrix

    dst_index = {w: i for i, w in enumerate(dst_words)}
    covers = g.covers
    entries: dict[tuple[int, int], object] = {}
    for j, w in enumerate(src_words):
        for y, cv in coeffs.items():
            if w == ():
                tgt = (y,)
            elif (y, w[0]) in covers:
                tgt = (y,) + w
            else:
                continue
            i = dst_index.get(tgt)
            if i is not None:
                entries[(i, j)] = cv
    return SparseExactMatrix(len(dst_words), len(src_words), entries, field)


def _lmul_induced(g: LayeredGraph, coeffs: dict, src: GradedComponent, dst: GradedComponent, field):
    """Left multiplication on quotient coordinates (no relation re-checks;
    any left multiplication preserves the relation ideal)."""
    from cwkoszul.linalg import SparseExactMatrix

    f = _lmul_ambient(g, coeffs, src.presentation.ambient_labels, dst.presentation.ambient_labels, field)
    cols = [dst.presentation.project(f.apply(src.presentation.lift(q))) for q in range(src.dim)]
    return SparseExactMatrix.from_columns(cols, dst.dim, field)


@dataclass
class WordComplex:
    """For a fixed tail rank k+1: blocks of words graded by head rank, with the
    differential that prepends every generator one rank above the head."""

    graph: LayeredGraph
    k: int
    field: object
    blocks: dict
    mats: dict

    def dims(self) -> dict[int, int]:
        return {n: b.dim for n, b in self.blocks.items()}

    def chain(self):
        ns = sorted(self.blocks)
        return [self.blocks[n].dim for n in ns], [self.mats[n] for n in ns[:-1]]


def path_word_complex(g: LayeredGraph, k: int, field) -> WordComplex:
    """The whole-graph tail-k word complex on path words, maps through
    `induced_map` (which checks that relations go to relations)."""
    from cwkoszul.layered import GraphError
    from cwkoszul.linalg import induced_map

    d = g.max_rank - 1
    if not 0 <= k <= d:
        raise GraphError(f"tail index {k} outside 0..{d}")
    memo: dict = {}
    blocks = {n: path_block_component(g, n - k + 1, n + 1, field, memo) for n in range(k, d + 1)}
    mats = {}
    for n in range(k, d):
        coeffs = {y: field.one for y in g.at_rank(n + 2)}
        f = _lmul_ambient(
            g, coeffs,
            blocks[n].presentation.ambient_labels, blocks[n + 1].presentation.ambient_labels,
            field,
        )
        mats[n] = induced_map(f, blocks[n].presentation, blocks[n + 1].presentation)
    return WordComplex(g, k, field, blocks, mats)


def word_complex_labels(blocks, spaces) -> list[list[tuple[str, ...]]]:
    """The path words of every space of `dualalg.word_complex`, from the
    (offsets, dim) of each space through `HeadBlocks.labels`."""
    return [
        [w for h in offsets for w in blocks.labels(h, i + 1)]
        for i, (offsets, _) in enumerate(spaces)
    ]


def path_whole_graph_criterion(g: LayeredGraph, field) -> bool:
    """`whole_graph_criterion` on path-word complexes."""
    from cwkoszul.linalg import cohomology_dims

    for k in range(g.max_rank):
        dims, mats = path_word_complex(g, k, field).chain()
        if any(cohomology_dims(dims, mats, field)[1:]):
            return False
    return True


def path_annihilator_check(g: LayeredGraph, field, x: str, n: int, memo: dict | None = None) -> bool:
    """`annihilator_check` on full path-word components; a `memo` shared by
    calls on one graph over one field keeps their components."""
    from cwkoszul.layered import BOTTOM, GraphError
    from cwkoszul.linalg import rank, rref_rows

    r = g.rank(x)
    if x == BOTTOM:
        raise GraphError("the minimum carries no generator")
    if not 0 <= n <= r:
        raise GraphError(f"depth {n} outside 0..{r}")
    if n == r:
        return True
    top = g.max_rank
    memo = {} if memo is None else memo
    if "components" not in memo:
        memo["components"] = {m: path_graded_component(g, m, field, memo) for m in range(top + 2)}
    comps = memo["components"]
    now = {y: field.one for y in g.sphere(x, n)}
    nxt = [y for y in g.sphere(x, n + 1) if y != BOTTOM]
    nxt_set = set(nxt)
    coeffs_next = {y: field.one for y in nxt}
    outside = [y for y in g.vertex_ids(skip_bottom=True) if y not in nxt_set]
    for m in range(top + 1):
        src, dst = comps[m], comps[m + 1]
        kmat = _lmul_induced(g, now, src, dst, field)
        kdim = src.dim - rank(kmat)
        vecs: list[dict] = []
        if m >= 1:
            prev = comps[m - 1]
            if coeffs_next:
                f = _lmul_ambient(
                    g, coeffs_next,
                    prev.presentation.ambient_labels, src.presentation.ambient_labels,
                    field,
                )
                for q in range(prev.dim):
                    vecs.append(src.presentation.project(f.apply(prev.presentation.lift(q))))
            covers = g.covers
            word_index = {w: j for j, w in enumerate(src.presentation.ambient_labels)}
            for w in prev.labels():
                for y in outside:
                    if w == () or (y, w[0]) in covers:
                        vecs.append(src.presentation.project({word_index[(y,) + w]: field.one}))
        jdim = len(rref_rows(vecs, field))
        for v in vecs:
            if kmat.apply(v):
                raise AssertionError(
                    "internal error: annihilator span escapes the kernel "
                    f"at vertex {x!r}, depth {n}, degree {m}"
                )
        if jdim != kdim:
            return False
    return True


def path_comparison_map(x: RegularCWComplex, pairs, block):
    """`comparison_map` from the pair-space quotient `pairs` (one of
    `reduced_quotients`) into the path-word block of head rank n+1."""
    from cwkoszul.dualalg import sign_of_path
    from cwkoszul.linalg import SparseExactMatrix

    g, field = block.graph, pairs.ring
    word_index = {w: i for i, w in enumerate(block.presentation.ambient_labels)}
    cols = []
    for beta, alpha in pairs.labels():
        chain = g.first_maximal_chain(beta, alpha)
        sgn = field.of(sign_of_path(x, chain))
        cols.append(block.presentation.project({word_index[chain]: sgn}))
    return SparseExactMatrix.from_columns(cols, block.dim, field)


def path_comparison_iso_check(x: RegularCWComplex, field) -> tuple[bool, list[tuple]]:
    """`comparison_iso_check` on path-word blocks."""
    from cwkoszul.bigraded import reduced_layers
    from cwkoszul.linalg import rank

    x.ensure_valid()
    g = x.face_poset_bar()
    details = []
    all_ok = True
    memo: dict = {}
    for layer in reduced_layers(x, field):
        k, quotients = layer.k, reduced_quotients(layer)
        for n in range(k, x.dim + 1):
            block = path_block_component(g, n - k + 1, n + 1, field, memo)
            phi = path_comparison_map(x, quotients[n], block)
            ldim, rdim = quotients[n].dim, block.dim
            ok = ldim == rdim and rank(phi) == ldim
            details.append((n, k, ldim, rdim, ok))
            all_ok = all_ok and ok
    return all_ok, details


def block_relations(blocks, h: str, m: int) -> tuple[int, list[dict]]:
    """The ambient size and relation columns of B(h, m) in the store `blocks`,
    rebuilt from the definition in the `HeadBlocks` docstring: the ambient
    basis concatenates the blocks B(c, m-1) of the lower covers c of h, and
    each relation sums, over the covers c between h and a vertex d two ranks
    below, one basis vector of B(d, m-2) with c prepended."""
    g, one = blocks.graph, blocks.field.one
    if m == 1:
        return 1, []
    covers = g.lower_covers(h)
    _, offsets = blocks.block(h, m)
    size = sum(blocks.block(c, m - 1)[0].dim for c in covers)
    if m == 2:
        return size, [{offsets[c]: one for c in covers}]
    relations = []
    for d in g.sphere(h, 2):
        for q in range(blocks.block(d, m - 2)[0].dim):
            rel = {}
            for c in covers:
                if (c, d) in g.covers:
                    rel.update((offsets[c] + i, v) for i, v in blocks.prepend(c, d, m - 2)[q].items())
            relations.append(rel)
    return size, relations
