"""Bigraded cohomology of incident cell pairs of a regular CW complex.

For 0 <= k <= n <= dim X the pair space in bidegree (n, k) is the free module
on pairs (upper n-cell, lower k-cell face).  The horizontal differential pushes
the upper cell up through its cofaces, the vertical one pushes the lower cell
down through its faces; the two commute.  Dividing each column by the vertical
image leaves a complex of quotients whose cohomology generalizes ordinary
cellular cohomology (the k = 0 row reproduces it) and whose vanishing below
the top dimension is exactly what the Koszulity decision needs.

A field and Z take one path.  The pair layer of each column is built once,
over the ring of the call, and lends its bases to the next column as the
targets of the vertical differential.  `reduced_layer` is the one place
that divides a column by the vertical image: it keeps the echelon form of
the image's generators in each degree, refusing torsion over Z, and every
reader of a column works on that form, with no quotient coordinates.
`hx_table` reads every entry from ranks: the echelon form of the vertical
image in degree n + 1, continued with the horizontal images of the pair
basis vectors that are not its pivots in degree n, gives the rank of the
induced map; over Z the Smith factors of the same forms give the torsion.
Over a field the nonpivot pairs of each form label a basis of the reduced
pair space, which is what the comparison with the word complexes reads.
Pair bases are read off the closure of each upper cell.
Relative cohomology lives on the star of a cell.  On the pair layer of
column k the pairs (beta, alpha) of one k-cell alpha and `d_up` are the
relative cochain complex of alpha's star, so the obstruction report reads
every cell's relative groups from the echelon forms of the layers it
walks anyway; the `relative` command still walks the star of its one cell
up through cofaces.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator

from .cw import ComplexError, RegularCWComplex
from .linalg import (
    SparseExactMatrix,
    _check_complex,
    _echelon,
    _field_char,
    cohomology_dims,
    echelon_factors,
    require_free,
)


def pair_basis(x: RegularCWComplex, n: int, k: int) -> list[tuple[str, str]]:
    """Pairs (upper n-cell, lower k-cell face), sorted by (upper, lower)."""
    if k > n:
        return []
    if k == n:
        return [(beta, beta) for beta in x.cells(n)]
    faces, dims = x._strict_faces, x.dims
    return [
        (beta, alpha)
        for beta in x.cells(n)
        for alpha in sorted(a for a in faces[beta] if dims[a] == k)
    ]


def _units(ring) -> dict[int, object]:
    """The incidence numbers +1 and -1 in the canonical form of `ring`."""
    return {1: ring.of(1), -1: ring.of(-1)}


class BigradedLayer(namedtuple("BigradedLayer", "k bases d_up d_down")):
    """Pair spaces of one column k with both differentials, over one ring:
    `bases[n]` lists the pairs of bidegree (n, k), and `d_up[n]` and
    `d_down[n]` are the horizontal and vertical differentials out of it."""

    __slots__ = ()


def build_layer(
    x: RegularCWComplex, k: int, ring, below: BigradedLayer | None
) -> BigradedLayer:
    """Assemble bases and differentials of column k, with entries in `ring`.

    `below` is the layer of column k-1 (None for k = 0); its bases are the
    targets of the vertical differential.
    """
    x.ensure_valid()
    d = x.dim
    if not 0 <= k <= d:
        raise ComplexError(f"column {k} outside 0..{d}")
    bases = {n: pair_basis(x, n, k) for n in range(k, d + 1)}
    index = {n: {pair: i for i, pair in enumerate(bases[n])} for n in bases}
    unit, inc = _units(ring), x.incidence

    d_up: dict[int, SparseExactMatrix] = {}
    cofaces = x._cofaces
    for n in range(k, d + 1):
        tgt = index.get(n + 1, {})
        cols = [
            {tgt[(gamma, alpha)]: unit[inc[(gamma, beta)]] for gamma in cofaces[beta]}
            for beta, alpha in bases[n]
        ]
        d_up[n] = SparseExactMatrix(len(tgt), cols, ring)

    d_down: dict[int, SparseExactMatrix] = {}
    if k >= 1:
        faces = x._faces
        for n in range(k, d + 1):
            tgt = {pair: i for i, pair in enumerate(below.bases[n])}
            cols = [
                {tgt[(beta, gamma)]: unit[inc[(alpha, gamma)]] for gamma in faces[alpha]}
                for beta, alpha in bases[n]
            ]
            d_down[n] = SparseExactMatrix(len(tgt), cols, ring)

    return BigradedLayer(k, bases, d_up, d_down)


class ReducedLayer(namedtuple("ReducedLayer", "layer above echelons ranks")):
    """Column k with the echelon forms of the vertical image of column k+1.

    `layer` is column k and `above` column k+1 (None past the top).
    `echelons[n]` is E_n = (pivot rows, core) of the generators of V_n, the
    image of `above.d_down[n]` in the pair space P_n (empty for n = k and
    for the top column), and `ranks[n]` is rank V_n.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return self.layer.k

    def labels(self, n: int) -> list[tuple[str, str]]:
        """Over a field, the pairs at the nonpivot columns of E_n: their
        classes are a basis of P_n / V_n."""
        pivots = self.echelons[n][0]
        return [pair for j, pair in enumerate(self.layer.bases[n]) if j not in pivots]


def reduced_layer(layer: BigradedLayer, above: BigradedLayer | None, ring) -> ReducedLayer:
    """Column k = layer.k divided by the vertical image of column k+1.

    `layer` and `above` are the pair layers of columns k and k+1 over
    `ring`; `above` is None past the top.  Over Z a quotient P_n / V_n
    with torsion is refused (`TorsionError`).
    """
    p, k = ring.p, layer.k
    echelons, ranks = {}, {}
    for n in sorted(layer.bases):
        tails, core = {}, []
        if above is not None and n > k:
            tails, core = _echelon(above.d_down[n].columns, p)
        factors = echelon_factors(tails, core)
        require_free(factors)
        ranks[n] = len(factors)
        echelons[n] = tails, core
    return ReducedLayer(layer, above, echelons, ranks)


def reduced_layers(x: RegularCWComplex, ring) -> Iterator[ReducedLayer]:
    """The reduced columns k = 0..dim in turn, each pair layer built once
    and lent to the next column as the targets of its vertical differential."""
    layer = build_layer(x, 0, ring, None)
    for k in range(x.dim + 1):
        above = build_layer(x, k + 1, ring, layer) if k < x.dim else None
        yield reduced_layer(layer, above, ring)
        layer = above


# ---------------------------------------------------------------------------
# classical cellular and relative cohomology (computed directly on cells)


def _coboundaries(x: RegularCWComplex, cells, ring) -> tuple[list[int], list[SparseExactMatrix]]:
    """Cochain dimensions and coboundaries on the n-cells `cells[n]`.

    The cells must be closed under cofaces, as all of X and an open star are.
    """
    dims = [len(cs) for cs in cells]
    unit, inc, cofaces = _units(ring), x.incidence, x._cofaces
    mats = []
    for n in range(len(cells) - 1):
        tgt = {c: i for i, c in enumerate(cells[n + 1])}
        cols = [
            {tgt[gamma]: unit[inc[(gamma, beta)]] for gamma in cofaces[beta]} for beta in cells[n]
        ]
        mats.append(SparseExactMatrix(dims[n + 1], cols, ring))
    return dims, mats


def cellular_complex(x: RegularCWComplex, ring) -> tuple[list[int], list[SparseExactMatrix]]:
    x.ensure_valid()
    return _coboundaries(x, [x.cells(n) for n in range(x.dim + 1)], ring)


def cellular_cohomology(x: RegularCWComplex, field) -> list[int]:
    """Dimensions of the cellular cohomology of X over a field."""
    dims, mats = cellular_complex(x, field)
    return cohomology_dims(dims, mats, field)


def relative_cohomology(x: RegularCWComplex, alpha: str, field) -> list[int]:
    """Dimensions of H^n(X, Y_alpha; F), Y_alpha the complement star of alpha.

    The relative cochain complex lives on the cells having alpha as a face.
    """
    x.ensure_valid()
    a, d = x.cell_dim(alpha), x.dim
    # the star of alpha, dimension by dimension, walking up through cofaces
    cells: list[list[str]] = [[] for _ in range(a)] + [[alpha]]
    for _ in range(a, d):
        cells.append(sorted({g for c in cells[-1] for g in x.cofaces(c)}))
    dims, mats = _coboundaries(x, cells, field)
    return cohomology_dims(dims, mats, field)


# ---------------------------------------------------------------------------
# the bigraded table and the obstruction report


class PairCohomologyTable(namedtuple("PairCohomologyTable", "coeff dim entries")):
    """Cohomology of the reduced columns over the ring named `coeff`:
    `entries[(n, k)]` for 0 <= k <= n <= dim."""

    __slots__ = ()

    def entry(self, n: int, k: int):
        return self.entries[(n, k)]


def _column_entries(red: ReducedLayer, ring) -> list:
    """H_X(n, k) for n = k..dim, k = red.k, from echelon ranks on the pair layers.

    P_n is the pair space of bidegree (n, k), V_n the vertical image in it,
    E_n its echelon form from `reduced_layer`, and d = `red.layer.d_up`.
    The entry is the cohomology of the complex P_n / V_n:

    - E_n gives rank V_n: its pivots, plus over Z the nonzero Smith factors
      of its core; `reduced_layer` has refused torsion in P_n / V_n.
    - The pivot rows of E_n are unitriangular on its pivot columns; with
      the unit vectors at its other columns they form a unimodular basis of
      P_n.  The pivot rows lie in V_n and d maps V_n into V_{n+1}, so
      V_{n+1} + d(P_n) is spanned by V_{n+1} and the images of those unit
      vectors.  E_{n+1} continued with those images (and its core again over
      Z) has rank r_n + rank V_{n+1}, r_n the rank of the induced map.
    - h(n, k) = |P_n| - rank V_n - r_n - r_{n-1}.  Over Z, P_{n+1} / V_{n+1}
      is free, so the Smith factors other than 1 of the continued form are
      the torsion of H(n+1, k).

    Over a field the core is empty and every factor is 1.  The checks run
    before any rank is read: d commutes with the vertical differential on
    every generator of V_n (so d maps V_n into V_{n+1}), and d o d = 0.
    """
    p, k, layer, above = ring.p, red.k, red.layer, red.above
    echelons, ranks = red.echelons, red.ranks
    ns = sorted(layer.bases)
    if above is not None:
        for n in ns[1:-1]:
            f, up, down = layer.d_up[n], above.d_up[n].columns, above.d_down[n + 1]
            for j, c in enumerate(above.d_down[n].columns):
                if f.apply(c) != down.apply(up[j]):
                    raise ValueError(
                        f"column {k}: d_up[{n}] does not commute with the vertical "
                        f"differential on generator {j} of the vertical image"
                    )
    _check_complex([len(layer.bases[n]) for n in ns], [layer.d_up[n] for n in ns[:-1]])

    r = dict.fromkeys(ns, 0)  # r[n]: rank of the map induced in degree n
    torsion = {n: () for n in ns}
    for n in ns[:-1]:
        pivots = echelons[n][0]
        cols = layer.d_up[n].columns
        tails, core = echelons[n + 1]
        rows = [cols[j] for j in range(len(cols)) if j not in pivots]
        factors = echelon_factors(*_echelon(rows + core, p, tails))
        r[n] = len(factors) - ranks[n + 1]
        torsion[n + 1] = tuple(f for f in factors if f != 1)
    out = []
    for n in ns:
        h = len(layer.bases[n]) - ranks[n] - r[n] - r.get(n - 1, 0)
        if h < 0:
            raise AssertionError(f"negative cohomology dimension {h} in bidegree ({n}, {k})")
        out.append((h, torsion[n]) if p is None else h)
    return out


def hx_table(x: RegularCWComplex, ring) -> PairCohomologyTable:
    """Bigraded cohomology table over a field or over Z.

    The pair layers are built once each, column by column, and every entry
    is read from echelon ranks on them (`_column_entries`).
    """
    x.ensure_valid()
    entries: dict[tuple[int, int], object] = {}
    for red in reduced_layers(x, ring):
        _add_column(entries, red, ring)
    return PairCohomologyTable(ring.key, x.dim, entries)


def _add_column(entries: dict, red: ReducedLayer, ring) -> None:
    """Store the entries H_X(n, k) of column k = red.k under (n, k)."""
    k = red.k
    for i, val in enumerate(_column_entries(red, ring)):
        entries[(k + i, k)] = val


def _relative_dims(layer: BigradedLayer, p: int) -> list[tuple[str, int, int]]:
    """(alpha, n, dim) for every nonzero H^n(X, Y_alpha) of the k-cells
    alpha, k = layer.k, read off the pair layer over F_p (p > 0) or Q (p = 0).

    The pairs (beta, alpha) of one alpha form a block of each pair space,
    and with `d_up` they are the relative cochain complex of alpha's star.
    Every column of `d_up[n]` lies in one block, so each pivot row of its
    echelon form does too, and the pivots counted by block (read off the
    lower cell of the pivot's pair) are the ranks of the blocks'
    coboundaries: h^n(alpha) = |block_n(alpha)| - rank_n - rank_{n-1}.
    The layer's differentials are taken as checked by `_column_entries`.
    """
    size: Counter = Counter()
    ranks: Counter = Counter()
    for n, pairs in layer.bases.items():
        size.update((alpha, n) for _, alpha in pairs)
        target = layer.bases.get(n + 1)
        if target:
            ranks.update((target[c][1], n) for c in _echelon(layer.d_up[n].columns, p)[0])
    out = []
    for (alpha, n), s in size.items():
        h = s - ranks[(alpha, n)] - ranks[(alpha, n - 1)]
        if h < 0:
            raise AssertionError(
                f"negative relative cohomology dimension {h} of {alpha!r} in degree {n}"
            )
        if h:
            out.append((alpha, n, h))
    return out


class ObstructionReport(namedtuple("ObstructionReport", "coeff dim bigraded cohomology relative")):
    """Koszulity obstructions of the extended poset, by both routes.

    `bigraded` lists nonzero table entries (n, k, dim) with 0 <= k < n < dim;
    `cohomology` lists nonzero reduced cellular cohomology (n, dim) in
    0 < n < dim; `relative` lists cells alpha and degrees n < dim with
    H^n(X, Y_alpha) != 0, as (alpha, n, dim).  The two routes always agree
    on emptiness.
    """

    __slots__ = ()

    @property
    def empty(self) -> bool:
        return not self.bigraded


def koszul_obstructions(x: RegularCWComplex, field) -> ObstructionReport:
    """Both obstruction routes for the extended face poset; cross-checked.

    One walk of the pair layers gives both the table and the relative
    groups of every cell: each column's entries come first, with the checks
    of `_column_entries` on its layer, and then the relative groups of its
    lower cells are read off the same layer (`_relative_dims`).  The
    cellular cohomology is computed on its own cochain complex.
    """
    x.ensure_valid()
    if not x.is_pure():
        raise ComplexError(f"complex {x.name!r} is not pure")
    if not x.connected_by_codim1():
        raise ComplexError(f"complex {x.name!r} is not connected by codimension-1 faces")
    d, p = x.dim, _field_char(field)
    entries: dict[tuple[int, int], object] = {}
    relative = []
    for red in reduced_layers(x, field):
        _add_column(entries, red, field)
        relative += [t for t in _relative_dims(red.layer, p) if t[1] < d]
    bigraded = [
        (n, k, entries[(n, k)])
        for k in range(d)
        for n in range(k + 1, d)
        if entries[(n, k)] != 0
    ]
    cell_dims = cellular_cohomology(x, field)
    cohomology = [(n, cell_dims[n]) for n in range(1, d) if cell_dims[n] != 0]
    if bool(bigraded) != bool(cohomology or relative):
        raise AssertionError(
            "internal error: bigraded and classical obstruction routes disagree "
            f"on {x.name!r} over {field!r}"
        )
    return ObstructionReport(field.key, d, sorted(bigraded), cohomology, sorted(relative))
