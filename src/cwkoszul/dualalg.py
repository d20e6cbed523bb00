"""The graded dual algebra of a layered graph, presented on descending path words.

The algebra has one degree-1 generator per nonminimal vertex.  A product of
generators is nonzero only along a strictly descending chain of covers (a
"path word"), and for every vertex the sum of its one-step continuations
vanishes.  Consequently each graded component is the span of its path words
modulo rows that sum, over a fixed prefix and suffix, the admissible middle
letters.  Left multiplication by the sum of all generators is a differential;
its cohomology on the blocks of fixed head and tail rank decides Koszulity
vertex by vertex.

No relation changes a word's first letter, so every component is a direct
sum of head blocks B(h, m): the degree-m words headed by h, modulo relations.
A block depends only on the interval below h.  `koszul_decide` presents each
block once per decision, as the cokernel of A_{m-2} (x) R -> A_{m-1} (x) V
restricted to h (Polishchuk-Positselski, Quadratic Algebras, 2005): its
ambient space is the direct sum of the blocks B(c, m-1) over the lower covers
c of h, so it never lists the path words themselves, and it assembles the
word complex of every interval from these shared blocks.  The other entry
points (`graded_component`, `block_component`, `word_complex`, the comparison
map and the annihilator test) present components on full path words, which
lets them project arbitrary words; they are the reference the blocks are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cw import ComplexError, RegularCWComplex
from .layered import BOTTOM, GraphError, LayeredGraph
from .linalg import (
    QuotientPresentation,
    SparseExactMatrix,
    cocycle_representatives,
    cohomology_dims,
    induced_map,
    quotient,
    rank as mat_rank,
    rref_rows,
)
from .bigraded import ReducedLayer, reduced_layer, reduced_layers


# ---------------------------------------------------------------------------
# path words and relation rows


def path_words(g: LayeredGraph, m: int, memo: dict | None = None) -> list[tuple[str, ...]]:
    """All descending cover chains of m letters avoiding the minimum, sorted.

    `memo` is a dict owned by one public call, which lets the word lists of
    that call be built once; nothing is kept beyond it.
    """
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
                for u in g.upper_covers(w[0])
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
    """Relation supports in the degree-m component (optionally one head block).

    One row per (prefix, suffix): the words obtained by inserting each
    admissible letter between a prefix ending at b and a suffix two ranks
    further down; their sum vanishes in the algebra.

    Ambient spaces carry path words only: any other word contains a two-letter
    factor that is itself a relation, so it is zero before these rows apply.
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
    """One graded component of the dual algebra as a quotient of path words."""

    graph: LayeredGraph
    degree: int
    presentation: QuotientPresentation

    @property
    def dim(self) -> int:
        return self.presentation.dim

    def labels(self) -> list[tuple[str, ...]]:
        return self.presentation.labels()


def _component(words: list, rows: list, field) -> QuotientPresentation:
    index = {w: j for j, w in enumerate(words)}
    rel_rows = [{index[w]: field.one for w in row} for row in rows]
    rel = SparseExactMatrix.from_rows(rel_rows, len(words), field)
    return quotient(list(words), rel, field)


def graded_component(g: LayeredGraph, m: int, field, memo: dict | None = None) -> GradedComponent:
    """The full degree-m component; its relation matrix is block diagonal by head.

    `memo` shares path words between the calls of one public function.
    """
    memo = {} if memo is None else memo
    words = path_words(g, m, memo)
    rows = _relation_rows(g, m, None, memo) if m >= 2 else []
    return GradedComponent(g, m, _component(words, rows, field))


def block_component(
    g: LayeredGraph, m: int, head_rank: int, field, memo: dict | None = None
) -> GradedComponent:
    """The degree-m block of words whose head sits at the given rank (`memo` as above)."""
    memo = {} if memo is None else memo
    words = path_words_by_head(g, m, head_rank, memo)
    rows = _relation_rows(g, m, head_rank, memo) if m >= 2 else []
    return GradedComponent(g, m, _component(words, rows, field))


def graded_dims(g: LayeredGraph, field, up_to: int | None = None) -> list[int]:
    """Dimensions of the graded components in degrees 1..up_to.

    The default range ends one past the longest descending chain, so the last
    listed dimension is always 0.
    """
    top = g.max_rank + 1 if up_to is None else up_to
    memo: dict = {}
    return [graded_component(g, m, field, memo).dim for m in range(1, top + 1)]


# ---------------------------------------------------------------------------
# left multiplication


def _lmul_ambient(
    g: LayeredGraph,
    coeffs: dict[str, object],
    src_words: list[tuple[str, ...]],
    dst_words: list[tuple[str, ...]],
    field,
) -> SparseExactMatrix:
    """Prepend a linear combination of generators, on ambient path words."""
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


def _lmul_induced(
    g: LayeredGraph, coeffs: dict, src: GradedComponent, dst: GradedComponent, field
) -> SparseExactMatrix:
    """Left multiplication on quotient coordinates (no relation re-checks;
    any left multiplication preserves the relation ideal)."""
    f = _lmul_ambient(g, coeffs, src.presentation.ambient_labels, dst.presentation.ambient_labels, field)
    cols = [dst.presentation.project(f.apply(src.presentation.lift(q))) for q in range(src.dim)]
    return SparseExactMatrix.from_columns(cols, dst.dim, field)


# ---------------------------------------------------------------------------
# word complexes and the Koszulity decision


@dataclass
class WordComplex:
    """For a fixed tail rank k+1: blocks of words graded by head rank, with the
    differential that prepends every generator one rank above the head."""

    graph: LayeredGraph
    k: int
    field: object
    blocks: dict[int, GradedComponent]
    mats: dict[int, SparseExactMatrix]

    def dims(self) -> dict[int, int]:
        return {n: b.dim for n, b in self.blocks.items()}

    def chain(self) -> tuple[list[int], list[SparseExactMatrix]]:
        ns = sorted(self.blocks)
        return [self.blocks[n].dim for n in ns], [self.mats[n] for n in ns[:-1]]


def word_complex(g: LayeredGraph, k: int, field) -> WordComplex:
    d = g.max_rank - 1
    if not 0 <= k <= d:
        raise GraphError(f"tail index {k} outside 0..{d}")
    memo: dict = {}
    blocks = {n: block_component(g, n - k + 1, n + 1, field, memo) for n in range(k, d + 1)}
    mats: dict[int, SparseExactMatrix] = {}
    for n in range(k, d):
        coeffs = {y: field.one for y in g.at_rank(n + 2)}
        f = _lmul_ambient(
            g,
            coeffs,
            blocks[n].presentation.ambient_labels,
            blocks[n + 1].presentation.ambient_labels,
            field,
        )
        mats[n] = induced_map(f, blocks[n].presentation, blocks[n + 1].presentation)
    return WordComplex(g, k, field, blocks, mats)


@dataclass
class KoszulWitness:
    vertex: str
    n: int
    k: int
    cocycle: list[tuple[tuple[str, ...], object]]


@dataclass
class KoszulVerdict:
    koszul: bool
    field_key: str
    graph_name: str
    witness: KoszulWitness | None
    checked: list[tuple[str, int, bool]]


class HeadBlocks:
    """The head blocks B(h, m) of one graph over one field, each presented once.

    B(h, m) is presented on the quotient coordinates of the blocks below it.
    Its ambient basis is the concatenation, over the lower covers c of h in
    sorted order, of the bases of B(c, m-1), labelled (h,) + word.  Degree 2
    has one relation, the sum of all of them.  In degree m >= 3, every d two
    ranks below h and every basis vector q of B(d, m-2) give one relation:
    the sum, over the covers c between h and d, of q with c prepended.
    These are the path-word relations whose prefix is (h,); the ones with
    longer prefixes are already divided out in the blocks B(c, m-1).  The
    quotient basis is the one the path-word presentation picks, since both
    reduced echelon forms keep exactly the words that are no combination of
    later words modulo the relations.

    A store serves one `koszul_decide` call and is dropped with it.
    """

    def __init__(self, g: LayeredGraph, field):
        self.graph = g
        self.field = field
        self._blocks: dict[tuple[str, int], tuple[QuotientPresentation, dict[str, int]]] = {}
        self._prepends: dict[tuple[str, str, int], list[dict]] = {}

    def block(self, h: str, m: int) -> tuple[QuotientPresentation, dict[str, int]]:
        """B(h, m) for 1 <= m <= rank(h), and the ambient offset of each B(c, m-1)."""
        key = (h, m)
        if key not in self._blocks:
            g, one = self.graph, self.field.one
            labels: list[tuple[str, ...]] = []
            offsets: dict[str, int] = {}
            rows: list[dict] = []
            if m == 1:
                labels.append((h,))
            else:
                covers = g.lower_covers(h)
                for c in covers:
                    offsets[c] = len(labels)
                    labels.extend((h,) + w for w in self.block(c, m - 1)[0].labels())
                if m == 2:
                    rows.append({offsets[c]: one for c in covers})
                else:
                    for d in g.sphere(h, 2):
                        mids = [c for c in covers if (c, d) in g.covers]
                        for q in range(self.block(d, m - 2)[0].dim):
                            row = {}
                            for c in mids:
                                off = offsets[c]
                                for i, v in self.prepend(c, d, m - 2)[q].items():
                                    row[off + i] = v
                            rows.append(row)
            rel = SparseExactMatrix.from_rows(rows, len(labels), self.field)
            self._blocks[key] = (quotient(labels, rel, self.field), offsets)
        return self._blocks[key]

    def prepend(self, y: str, h: str, m: int) -> list[dict]:
        """Left multiplication by y, B(h, m) -> B(y, m+1), one column per basis vector."""
        key = (y, h, m)
        if key not in self._prepends:
            pres, offsets = self.block(y, m + 1)
            off, one = offsets[h], self.field.one
            self._prepends[key] = [
                pres.project({off + q: one}) for q in range(self.block(h, m)[0].dim)
            ]
        return self._prepends[key]

    def word_complex(self, x: str, k: int) -> tuple[list[list[tuple[str, ...]]], list[SparseExactMatrix]]:
        """The tail-k word complex of the interval below x, from shared blocks.

        Returns the basis labels of each space, for head degrees k..rank(x)-1,
        and the differentials between consecutive spaces.  The space of head
        degree n is the direct sum of B(h, n-k+1) over the vertices h of rank
        n+1 below x, in sorted order; the differential prepends every
        generator one rank above the head.
        """
        g = self.graph
        r = g.rank(x)
        heads = [g.sphere(x, r - n - 1) for n in range(k, r)]
        labels: list[list[tuple[str, ...]]] = []
        offsets: list[dict[str, int]] = []
        for i, hs in enumerate(heads):
            space: list[tuple[str, ...]] = []
            offs: dict[str, int] = {}
            for h in hs:
                offs[h] = len(space)
                space.extend(self.block(h, i + 1)[0].labels())
            labels.append(space)
            offsets.append(offs)
        mats = []
        for i in range(len(heads) - 1):
            entries = {}
            for y in heads[i + 1]:
                oy = offsets[i + 1][y]
                for h in g.lower_covers(y):
                    oh = offsets[i][h]
                    for q, col in enumerate(self.prepend(y, h, i + 1)):
                        for j, v in col.items():
                            entries[(oy + j, oh + q)] = v
            mats.append(SparseExactMatrix(len(labels[i + 1]), len(labels[i]), entries, self.field))
        return labels, mats


def koszul_decide(g: LayeredGraph, field) -> KoszulVerdict:
    """Decide Koszulity of the dual algebra of a uniform layered graph.

    Works bottom-up: for each vertex x of rank >= 2 the word complexes of the
    interval below x must have one-dimensional cohomology concentrated in head
    degree equal to the tail index.  The first failure yields the witness.
    Every complex is assembled from head blocks shared by the whole decision.
    """
    ok, wit = g.is_uniform()
    if not ok:
        raise GraphError(
            f"graph {g.name!r} is not uniform at vertex {wit[0]!r}; classes {wit[1]}"
        )
    blocks = HeadBlocks(g, field)
    checked: list[tuple[str, int, bool]] = []
    for x in g.vertex_ids():
        r = g.rank(x)
        if r < 2:
            continue
        dtop = r - 1
        failure = None
        for k in range(dtop + 1):
            labels, mats = blocks.word_complex(x, k)
            dims = [len(space) for space in labels]
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
                    cocycle = sorted((labels[i][q], c) for q, c in reps[0].items())
                    failure = KoszulWitness(x, k + i, k, cocycle)
                    break
            if failure:
                break
        checked.append((x, r, failure is None))
        if failure:
            return KoszulVerdict(False, field.key, g.name, failure, checked)
    return KoszulVerdict(True, field.key, g.name, None, checked)


def whole_graph_criterion(g: LayeredGraph, field) -> bool:
    """Whole-graph variant: off-diagonal word cohomology vanishes everywhere.

    Coincides with the vertexwise decision when the graph has a unique maximal
    vertex.  With several maxima the top head degree carries the underlying
    space's own top cohomology and may be nonzero on Koszul inputs, so this is
    evaluated only for reporting; verdicts never rely on it.
    """
    d = g.max_rank - 1
    for k in range(d + 1):
        dims, mats = word_complex(g, k, field).chain()
        if any(cohomology_dims(dims, mats, field)[1:]):
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
    memo: dict = {}
    comps = {m: graded_component(g, m, field, memo) for m in range(top + 2)}
    now = {y: field.one for y in g.sphere(x, n)}
    nxt = [y for y in g.sphere(x, n + 1) if y != BOTTOM]
    nxt_set = set(nxt)
    coeffs_next = {y: field.one for y in nxt}
    outside = [y for y in g.vertex_ids(skip_bottom=True) if y not in nxt_set]
    for m in range(top + 1):
        src, dst = comps[m], comps[m + 1]
        kmat = _lmul_induced(g, now, src, dst, field)
        kdim = src.dim - mat_rank(kmat)
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
                        vecs.append(src.presentation.project(
                            {word_index[(y,) + w]: field.one}
                        ))
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


def comparison_map(
    x: RegularCWComplex,
    field,
    n: int,
    k: int,
    layer: ReducedLayer | None = None,
    block: GradedComponent | None = None,
) -> SparseExactMatrix:
    """The signed path map from the reduced pair space (n, k) to the word block.

    Each pair (upper, lower) goes to the class of its lexicographically
    smallest connecting chain, weighted by that chain's sign; the choice of
    chain does not matter in the quotient.
    """
    g = x.face_poset_bar()
    if layer is None:
        layer = reduced_layer(x, k, field)
    if block is None:
        block = block_component(g, n - k + 1, n + 1, field)
    lq = layer.quotients[n]
    word_index = {w: i for i, w in enumerate(block.presentation.ambient_labels)}
    cols = []
    for q in range(lq.dim):
        beta, alpha = lq.ambient_labels[lq.nonpivots[q]]
        chain = g.first_maximal_chain(beta, alpha)
        sgn = field.of(sign_of_path(x, chain))
        vec = block.presentation.project({word_index[chain]: sgn})
        cols.append(vec)
    return SparseExactMatrix.from_columns(cols, block.dim, field)


def comparison_iso_check(x: RegularCWComplex, field) -> tuple[bool, list[tuple]]:
    """Check bijectivity of the signed path map in every bidegree.

    Returns (all bijective, rows of (n, k, pair dim, word dim, bijective)).
    """
    x.ensure_valid()
    g = x.face_poset_bar()
    d = x.dim
    details = []
    all_ok = True
    memo: dict = {}
    for layer in reduced_layers(x, field):
        k = layer.k
        for n in range(k, d + 1):
            block = block_component(g, n - k + 1, n + 1, field, memo)
            phi = comparison_map(x, field, n, k, layer=layer, block=block)
            ldim, rdim = layer.quotients[n].dim, block.dim
            ok = ldim == rdim and mat_rank(phi) == ldim
            details.append((n, k, ldim, rdim, ok))
            all_ok = all_ok and ok
    return all_ok, details
