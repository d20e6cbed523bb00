"""The graded dual algebra of a layered graph, presented by head blocks.

The algebra has one degree-1 generator per nonminimal vertex.  A product of
generators is nonzero only along a strictly descending chain of covers (a
"path word"), and for every vertex the sum of its one-step continuations
vanishes.  No relation changes a word's first letter, so each graded
component A_m is the direct sum of head blocks B(h, m): the degree-m words
headed by h, modulo relations.

`HeadBlocks` presents each block once per public call, as the cokernel of
A_{m-2} (x) R -> A_{m-1} (x) V restricted to h (Polishchuk-Positselski,
Quadratic Algebras, 2005), on the blocks B(c, m-1) of the lower covers c of
h, so no path word is ever listed: a block's coordinates are indices, and
the words they stand for are built on demand, for a printed witness.
Most blocks repeat the relations of another: every B(h, 1) is the field,
and blocks over alike intervals often have equal relation matrices.  So a
store eliminates each distinct relation matrix once and shares the
presentation, hash-consing style (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006).
Every entry point works on these blocks:
`graded_dims` sums their dimensions, left multiplication by generators is
made of `HeadBlocks.prepend` maps at block offsets (the annihilator test and
the differential of `word_complex`, whose cohomology decides Koszulity), and
the comparison map projects each chain onto block coordinates.

A vertex's word complexes depend only on its lower interval.  The decision
takes the certificate of `layered.boolean_closures`, which `validate` shares:
a vertex's lower interval is Boolean when its lower covers are certified with
distinct atom sets and its interval has the size of a Boolean lattice.  It
decides one certified vertex per rank; the others of that rank share its
passing verdict.  In the face poset of a simplicial complex every interval
below the maximum is Boolean.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .cw import ComplexError, RegularCWComplex
from .layered import BOTTOM, GraphError, LayeredGraph, NotUniformError, boolean_closures
from .linalg import (
    QuotientPresentation,
    SparseExactMatrix,
    cocycle_representatives,
    cohomology_dims,
    quotient,
    rank as mat_rank,
    span_rank,
)


class KoszulWitness(namedtuple("KoszulWitness", "vertex n k cocycle")):
    """A nonzero off-diagonal word cohomology class below `vertex` in
    bidegree (n, k): its cocycle as (path word, coefficient) pairs."""

    __slots__ = ()


class KoszulVerdict(namedtuple("KoszulVerdict", "koszul field_key graph_name witness checked")):
    """The decision over the field named `field_key`: the first failure's
    witness (None when Koszul) and (vertex, rank, passed) per vertex checked."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# head blocks and their sums


class HeadBlocks:
    """The head blocks B(h, m) of one graph over one field, each presented once.

    B(h, m) is presented on the quotient coordinates of the blocks below it.
    Its ambient basis is the concatenation, over the lower covers c of h in
    sorted order, of the bases of B(c, m-1), the word of each with h
    prepended.  The presentation keeps ambient indices only; `labels`
    builds the words of a block's basis when a witness is printed.  Degree 2
    has one relation, the sum of all of them.  In degree m >= 3, every d two
    ranks below h and every basis vector q of B(d, m-2) give one relation:
    the sum, over the covers c between h and d, of q with c prepended.
    B(h, m) is the cokernel of the map whose columns are these relations,
    the path-word relations whose prefix is (h,); the ones with longer
    prefixes are already divided out in the blocks B(c, m-1).  The
    quotient basis is the one the path-word presentation picks, since both
    reduced echelon forms keep exactly the words that are no combination of
    later words modulo the relations.

    A store serves one public call, or one `koszul` command that shares it
    between the decision and the whole-graph criterion, and is dropped with it.

    Within a store, blocks with equal relations share one presentation.  The
    key is the ambient size and the relation columns, each as the tuple of
    its (index, value) items; the store's field is fixed.  A presentation
    depends on nothing else, and no presentation, prepend list or column
    dict is changed once built, so sharing them changes no result.  Each
    block keeps its own cover offsets, and `labels` reads them, so the words
    of a basis are the block's own.  The columns of `prepend(y, h, m)` are
    likewise built once per (shared presentation, offset of h, dim B(h, m)).
    Both caches live and die with the store.
    """

    def __init__(self, g: LayeredGraph, field):
        self.graph = g
        self.field = field
        self._blocks: dict[tuple[str, int], tuple[QuotientPresentation, dict[str, int]]] = {}
        # (ambient size, relation columns as item tuples) -> its one presentation
        self._presentations: dict[tuple, QuotientPresentation] = {}
        self._prepends: dict[tuple[str, str, int], list[dict]] = {}
        # (presentation, offset, count) -> the projections of those ambient units
        self._projections: dict[tuple, list[dict]] = {}
        self._labels: dict[tuple[str, int], list[tuple[str, ...]]] = {}

    def block(self, h: str, m: int) -> tuple[QuotientPresentation, dict[str, int]]:
        """B(h, m) for 1 <= m <= rank(h), and the ambient offset of each B(c, m-1).

        The presentation is shared with every block of the store that has the
        same ambient size and relation columns; the offsets are h's own."""
        key = (h, m)
        if key not in self._blocks:
            g, one = self.graph, self.field.one
            if h == BOTTOM:
                raise GraphError("the minimum carries no generator")
            if not 1 <= m <= g.rank(h):
                raise GraphError(f"degree {m} outside 1..{g.rank(h)} for head {h!r}")
            size = 0
            offsets: dict[str, int] = {}
            relations: list[dict] = []
            if m == 1:
                size = 1
            else:
                covers = g.lower_covers(h)
                for c in covers:
                    offsets[c] = size
                    size += self.block(c, m - 1)[0].dim
                if m == 2:
                    relations.append({offsets[c]: one for c in covers})
                else:
                    for d in g.sphere(h, 2):
                        mids = [c for c in covers if (c, d) in g.covers]
                        for q in range(self.block(d, m - 2)[0].dim):
                            rel = {}
                            for c in mids:
                                off = offsets[c]
                                for i, v in self.prepend(c, d, m - 2)[q].items():
                                    rel[off + i] = v
                            relations.append(rel)
            shared = (size, tuple(tuple(rel.items()) for rel in relations))
            pres = self._presentations.get(shared)
            if pres is None:
                # relation columns: projections and the field's one are canonical already
                rmap = SparseExactMatrix(size, relations, self.field)
                pres = self._presentations[shared] = quotient(range(size), rmap, self.field)
            self._blocks[key] = (pres, offsets)
        return self._blocks[key]

    def labels(self, h: str, m: int) -> list[tuple[str, ...]]:
        """The path words of the basis of B(h, m): each free ambient index of
        the block is (h,) + the word of its coordinate in its cover's block."""
        key = (h, m)
        if key not in self._labels:
            pres, offsets = self.block(h, m)
            if m == 1:
                words = [(h,)]
            else:
                covers, starts = list(offsets), list(offsets.values())
                words = []
                for j in pres.labels():
                    # the last cover starting at or before j; empty blocks share a start
                    i = bisect_right(starts, j) - 1
                    words.append((h,) + self.labels(covers[i], m - 1)[j - starts[i]])
            self._labels[key] = words
        return self._labels[key]

    def prepend(self, y: str, h: str, m: int) -> list[dict]:
        """Left multiplication by y, B(h, m) -> B(y, m+1), one column per basis
        vector: the projections (`project`) of B(y, m+1)'s ambient units at
        h's offset, built once per (shared presentation, offset, dim B(h, m))."""
        key = (y, h, m)
        if key not in self._prepends:
            pres, offsets = self.block(y, m + 1)
            shared = (pres, offsets[h], self.block(h, m)[0].dim)
            cols = self._projections.get(shared)
            if cols is None:
                _, off, count = shared
                units = ({off + q: self.field.one} for q in range(count))
                cols = self._projections[shared] = [pres.project(u) for u in units]
            self._prepends[key] = cols
        return self._prepends[key]


def block_component(blocks: HeadBlocks, m: int, heads) -> tuple[dict[str, int], int]:
    """The direct sum of B(h, m) over `heads`, in their order: each block's
    offset and the total dimension.  Heads of rank below m carry no degree-m
    word and are skipped."""
    rank = blocks.graph.rank
    offsets: dict[str, int] = {}
    dim = 0
    for h in heads:
        if rank(h) >= m:
            offsets[h] = dim
            dim += blocks.block(h, m)[0].dim
    return offsets, dim


def graded_component(blocks: HeadBlocks, m: int) -> tuple[dict[str, int], int]:
    """A_m for m >= 1, the sum of B(h, m) over all nonminimal vertices h."""
    return block_component(blocks, m, blocks.graph.vertex_ids(skip_bottom=True))


def graded_dims(g: LayeredGraph, field, up_to: int | None = None) -> list[int]:
    """Dimensions of the graded components in degrees 1..up_to.

    The default range ends one past the longest descending chain, so the last
    listed dimension is always 0.
    """
    top = g.max_rank + 1 if up_to is None else up_to
    blocks = HeadBlocks(g, field)
    return [graded_component(blocks, m)[1] for m in range(1, top + 1)]


def _prepend_columns(blocks: HeadBlocks, gens, m: int, src: dict, dst: dict):
    """Left multiplication by each of `gens` between the block offsets `src`
    (degree m) and `dst` (degree m+1): (offset of the generator's block,
    source coordinate, image in that block) per basis vector of each source
    block below a generator.  In degree 0 the source is the field itself."""
    lower, one = blocks.graph.lower_covers, blocks.field.one
    for y in gens:
        oy = dst.get(y)
        if oy is None:
            continue
        if m == 0:
            yield oy, 0, {0: one}
            continue
        for h in lower(y):
            oh = src.get(h)
            if oh is not None:
                for q, col in enumerate(blocks.prepend(y, h, m)):
                    yield oy, oh + q, col


def _left_multiplication(blocks: HeadBlocks, gens, m: int, src: tuple, dst: tuple) -> SparseExactMatrix:
    """Left multiplication by the sum of `gens` between the (offsets, dim)
    sums `src` of degree m and `dst` of degree m+1."""
    cols: list[dict] = [{} for _ in range(src[1])]
    for oy, j, col in _prepend_columns(blocks, gens, m, src[0], dst[0]):
        out = cols[j]
        for i, v in col.items():
            out[oy + i] = v
    return SparseExactMatrix(dst[1], cols, blocks.field)


# ---------------------------------------------------------------------------
# word complexes and the Koszulity decision


def word_complex(
    blocks: HeadBlocks, heads: list
) -> tuple[list[tuple[dict[str, int], int]], list[SparseExactMatrix]]:
    """The word complex whose space i is the sum of B(h, i+1) over heads[i].

    The heads of each space sit one rank above those of the space before, and
    the differential prepends every head of the next space.  Returns the
    (block offsets, dimension) of each space and the differentials between
    consecutive spaces.
    """
    comps = [block_component(blocks, i + 1, hs) for i, hs in enumerate(heads)]
    mats = [
        _left_multiplication(blocks, heads[i + 1], i + 1, comps[i], comps[i + 1])
        for i in range(len(comps) - 1)
    ]
    return comps, mats


def _interval_failure(blocks: HeadBlocks, x: str) -> KoszulWitness | None:
    """Decide the word complexes of the interval below x, of rank >= 2.

    The tail-k complex has the heads of rank n+1 below x in head degree
    n = k..rank(x)-1; each must have one-dimensional cohomology concentrated
    in head degree k.  Returns the first failure as a witness, or None.
    """
    g, field = blocks.graph, blocks.field
    r = g.rank(x)
    dtop = r - 1
    for k in range(dtop + 1):
        spaces, mats = word_complex(blocks, [g.sphere(x, r - n - 1) for n in range(k, r)])
        dims = [dim for _, dim in spaces]
        hs = cohomology_dims(dims, mats, field)
        if hs[0] != 1:
            raise AssertionError(
                f"internal error: head-degree-{k} cohomology of the interval below "
                f"{x!r} has dimension {hs[0]}, expected 1"
            )
        if k < dtop and hs[dtop - k] != 0:
            raise AssertionError(
                f"internal error: top cohomology below {x!r} (k={k}) is nonzero"
            )
        if k < dtop - 1 and hs[dtop - 1 - k] != 0:
            raise AssertionError(
                f"internal error: subtop cohomology below {x!r} (k={k}) is nonzero"
            )
        for i in range(1, dtop - k + 1):
            if hs[i] != 0:
                reps = cocycle_representatives(mats, i, dims[i], field)
                if len(reps) != hs[i]:
                    raise AssertionError(
                        f"internal error: {len(reps)} representatives below {x!r} "
                        f"(n={k + i}, k={k}) for a cohomology of dimension {hs[i]}"
                    )
                # the words of space i, built for the witness only
                labels = [w for h in spaces[i][0] for w in blocks.labels(h, i + 1)]
                cocycle = sorted((labels[q], c) for q, c in reps[0].items())
                return KoszulWitness(x, k + i, k, cocycle)
    return None


def koszul_decide(g: LayeredGraph, field, blocks: HeadBlocks | None = None) -> KoszulVerdict:
    """Decide Koszulity of the dual algebra of a uniform layered graph.

    Works bottom-up: for each vertex x of rank >= 2 the word complexes of the
    interval below x must have one-dimensional cohomology concentrated in head
    degree equal to the tail index.  The first failure yields the witness.
    Every complex is assembled from head blocks shared by the whole decision,
    or with the caller when it passes `blocks`, a store of g over `field`.

    A vertex's verdict depends only on its interval up to isomorphism, and
    all Boolean lattices of one rank are isomorphic.  So among the vertices
    whose interval `layered.boolean_closures` certifies, the first of each
    rank is decided and, once it passes, every later one of that rank passes
    with it.  A failure is always found directly, so witnesses and `checked`
    lists are those of deciding every vertex.
    """
    ok, wit = g.is_uniform()
    if not ok:
        raise NotUniformError(
            f"graph {g.name!r} is not uniform at vertex {wit[0]!r}; classes {wit[1]}"
        )
    if blocks is None:
        blocks = HeadBlocks(g, field)
    boolean = boolean_closures(g.vertex_ids(skip_bottom=True), g._lower, g._below)
    passed: set[int] = set()  # ranks whose first Boolean vertex passed
    checked: list[tuple[str, int, bool]] = []
    for x in g.vertex_ids():
        r = g.rank(x)
        if r < 2:
            continue
        if x in boolean and r in passed:
            checked.append((x, r, True))
            continue
        failure = _interval_failure(blocks, x)
        checked.append((x, r, failure is None))
        if failure:
            return KoszulVerdict(False, field.key, g.name, failure, checked)
        if x in boolean:
            passed.add(r)
    return KoszulVerdict(True, field.key, g.name, None, checked)


def whole_graph_criterion(g: LayeredGraph, field, blocks: HeadBlocks | None = None) -> bool:
    """Whole-graph variant: off-diagonal word cohomology vanishes everywhere.

    The tail-k complex has every vertex of rank n+1 as a head in head degree
    n = k..max_rank-1.  This coincides with the vertexwise decision when the
    graph has a unique maximal vertex.  With several maxima the top head
    degree carries the space's own top cohomology and may be nonzero on
    Koszul inputs, so this is only reported; verdicts never rely on it.
    `blocks`, when given, is a store of g over `field` shared with the
    decision.
    """
    top = g.max_rank
    if blocks is None:
        blocks = HeadBlocks(g, field)
    for k in range(top):
        spaces, mats = word_complex(blocks, [g.at_rank(n + 1) for n in range(k, top)])
        if any(cohomology_dims([dim for _, dim in spaces], mats, field)[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# annihilator criterion


def annihilator_check(g: LayeredGraph, field, x: str, n: int) -> bool:
    """Degreewise right-annihilator test for the depth-n sphere sum at x.

    Compares, in every degree, the kernel of left multiplication by the sum
    over the depth-n sphere with the span of the depth-(n+1) sphere sum and of
    all generators outside that sphere.  The span always sits inside the
    kernel; equality of dimensions in every degree is the verdict.
    """
    r = g.rank(x)
    if x == BOTTOM:
        raise GraphError("the minimum carries no generator")
    if not 0 <= n <= r:
        raise GraphError(f"depth {n} outside 0..{r}")
    if n == r:
        return True
    top = g.max_rank
    blocks = HeadBlocks(g, field)
    # degree 0 is the field itself
    comps = [({}, 1)] + [graded_component(blocks, m) for m in range(1, top + 2)]
    now = g.sphere(x, n)
    nxt = [y for y in g.sphere(x, n + 1) if y != BOTTOM]
    nxt_set = set(nxt)
    outside = [y for y in g.vertex_ids(skip_bottom=True) if y not in nxt_set]
    for m in range(top + 1):
        src = comps[m]
        kmat = _left_multiplication(blocks, now, m, src, comps[m + 1])
        kdim = src[1] - mat_rank(kmat)
        vecs: list[dict] = []
        if m >= 1:
            prev = comps[m - 1]
            vecs = [v for v in _left_multiplication(blocks, nxt, m - 1, prev, src).columns if v]
            vecs += [
                {oy + i: v for i, v in col.items()}
                for oy, _, col in _prepend_columns(blocks, outside, m - 1, prev[0], src[0])
            ]
        jdim = span_rank(vecs, field)
        for v in vecs:
            if kmat.apply(v):
                raise AssertionError(
                    "internal error: annihilator span escapes the kernel "
                    f"at vertex {x!r}, depth {n}, degree {m}"
                )
        if jdim != kdim:
            return False
    return True


# ---------------------------------------------------------------------------
# comparison with the bigraded pair complexes


def sign_of_path(x: RegularCWComplex, chain) -> int:
    """Product of the incidence numbers along a maximal descending cell chain."""
    chain = tuple(chain)
    if not chain:
        raise ComplexError("empty chain")
    sign = 1
    for u, l in zip(chain, chain[1:]):
        s = x.incidence.get((u, l))
        if s is None:
            raise ComplexError(f"({u!r}, {l!r}) is not a codimension-1 incidence")
        sign *= s
    return sign


def _word_coordinates(blocks: HeadBlocks, word: tuple[str, ...]) -> dict:
    """A path word in the coordinates of the block of its head.

    The tail's coordinates in its own block, shifted to the tail head's
    offset, are the word's ambient coordinates, since prepending a letter
    carries relations to relations.
    """
    if len(word) == 1:
        return {0: blocks.field.one}
    pres, offsets = blocks.block(word[0], len(word))
    off = offsets[word[1]]
    return pres.project({off + i: v for i, v in _word_coordinates(blocks, word[1:]).items()})


def comparison_map(
    x: RegularCWComplex, n: int, layer: ReducedLayer, blocks: HeadBlocks
) -> SparseExactMatrix:
    """The signed path map from the reduced pair space (n, k) to the word space.

    The word space is the sum of B(beta, n-k+1) over the n-cells beta, the
    vertices of rank n+1 of the bar poset.  Each pair (upper, lower) of
    `layer.labels(n)`, a basis of the reduced pair space, goes to the class
    of its lexicographically smallest connecting chain, weighted by that
    chain's sign; the choice of chain does not matter in the quotient.  A
    signed value is brought to the canonical form of the field by `of`.
    `layer` is the reduced column k over the field of `blocks`, the
    head-block store of the bar poset of x; the poset is read from it.
    """
    g, field = blocks.graph, blocks.field
    offsets, dim = block_component(blocks, n - layer.k + 1, g.at_rank(n + 1))
    cols = []
    for beta, alpha in layer.labels(n):
        chain = g.first_maximal_chain(beta, alpha)
        sgn, off = sign_of_path(x, chain), offsets[beta]
        cols.append({off + i: field.of(sgn * v) for i, v in _word_coordinates(blocks, chain).items()})
    return SparseExactMatrix(dim, cols, field)


def comparison_iso_check(x: RegularCWComplex, field) -> tuple[bool, list[tuple]]:
    """Check bijectivity of the signed path map in every bidegree.

    Returns (all bijective, rows of (n, k, pair dim, word dim, bijective)),
    the pair dim being the number of labels: the columns of the map.
    """
    # imported here, so that deciding Koszulity alone never loads `bigraded`
    from .bigraded import reduced_layers

    x.ensure_valid()
    blocks = HeadBlocks(x.face_poset_bar(), field)
    d = x.dim
    details = []
    all_ok = True
    for layer in reduced_layers(x, field):
        k = layer.k
        for n in range(k, d + 1):
            phi = comparison_map(x, n, layer, blocks)
            ldim, rdim = phi.cols, phi.rows
            ok = ldim == rdim and mat_rank(phi) == ldim
            details.append((n, k, ldim, rdim, ok))
            all_ok = all_ok and ok
    return all_ok, details
