"""Cohomology by ranks against the full computation with representatives."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cwkoszul.bigraded import cellular_complex, reduced_layers
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.dualalg import HeadBlocks, word_complex
from cwkoszul.linalg import (
    GF,
    QQ,
    ZZ,
    cochain_cohomology,
    cocycle_representatives,
    cohomology_dims,
    integral_cochain_cohomology,
    rank,
)

from helpers import (
    convert,
    identity,
    image_vectors,
    matrix,
    matrix_from_rows,
    path_word_complex,
    reduced_chain,
    scan_relative_complex,
)

FIELDS = (QQ, GF(2), GF(3))
SMALL = [n for n in catalog_names() if n not in ("simplex5", "sphere4")]


def _unimodular(n: int, ops) -> tuple[list[list[int]], list[list[int]]]:
    """A product P of elementary integer row operations and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for a, b, c in ops:
        if a == b or a >= n or b >= n:
            continue
        p[a] = [x + c * y for x, y in zip(p[a], p[b])]  # P <- (I + c e_ab) P
        for row in q:  # Q <- Q (I - c e_ab)
            row[b] -= c * row[a]
    return p, q


def _mul(a: list[list[int]], b: list[list[int]], inner: int) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(len(a))]


@st.composite
def integer_complexes(draw):
    """A cochain complex over Z with known cohomology, free of torsion.

    C_i splits into slots [image of d_(i-1) | source of d_i | cohomology];
    the standard differential sends the source slots of C_i onto the first
    slots of C_(i+1).  Each C_i is then given a unimodular change of basis,
    so the ranks, and the cohomology, are the same over every field.
    """
    n = draw(st.integers(1, 5))
    ranks = [draw(st.integers(0, 3)) for _ in range(n - 1)] + [0]
    hs = [draw(st.integers(0, 2)) for _ in range(n)]
    dims = [(ranks[i - 1] if i else 0) + ranks[i] + hs[i] for i in range(n)]
    op = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-2, 2))
    bases = [_unimodular(d, draw(st.lists(op, max_size=8))) for d in dims]
    mats = []
    for i in range(n - 1):
        first = ranks[i - 1] if i else 0
        std = [[int(r < ranks[i] and c == first + r) for c in range(dims[i])]
               for r in range(dims[i + 1])]
        p_next, q_here = bases[i + 1][0], bases[i][1]
        dense = _mul(_mul(p_next, std, dims[i + 1]), q_here, dims[i])
        mats.append([{r: row[c] for r, row in enumerate(dense)} for c in range(dims[i])])
    return dims, mats, hs


def _over(ring, dims, columns):
    return [matrix(dims[i + 1], cols, ring) for i, cols in enumerate(columns)]


@pytest.mark.parametrize("ring", FIELDS, ids=repr)
@given(data=integer_complexes())
@settings(max_examples=60, deadline=None)
def test_dims_equal_full_cohomology_on_generated_complexes(ring, data):
    dims, columns, hs = data
    mats = _over(ring, dims, columns)
    full = cochain_cohomology(dims, mats, ring)
    assert cohomology_dims(dims, mats, ring) == [h for h, _ in full] == hs
    for i, (h, reps) in enumerate(full):
        assert cocycle_representatives(mats, i, dims[i], ring) == reps
        # the representatives are cocycles, independent modulo the image
        if i < len(mats):
            assert all(not mats[i].apply(v) for v in reps)
        image = image_vectors(mats[i - 1], ring) if i else []
        span = matrix_from_rows(image + reps, dims[i], ring)
        assert rank(span) == len(image) + h


@given(data=integer_complexes())
@settings(max_examples=40, deadline=None)
def test_integral_free_ranks_on_generated_complexes(data):
    dims, columns, hs = data
    homs = integral_cochain_cohomology(dims, _over(ZZ, dims, columns))
    assert homs == [(h, ()) for h in hs]


def _catalog_complexes(x, ring):
    """Cellular, relative, reduced-layer and word complexes of one complex."""
    yield "cellular", cellular_complex(x, ring)
    for alpha in x.cells():
        yield f"relative {alpha}", scan_relative_complex(x, alpha, ring)
    for layer in reduced_layers(x, ring):
        yield f"reduced layer {layer.k}", reduced_chain(layer)
    g = x.face_poset_bar()
    for k in range(g.max_rank):
        yield f"word complex {k}", path_word_complex(g, k, ring).chain()
    if x.is_pure():
        hat = x.face_poset_hat()
        blocks = HeadBlocks(hat, ring)
        for v in hat.vertex_ids():
            r = hat.rank(v)
            for k in range(r):
                spaces, mats = word_complex(blocks, [hat.sphere(v, r - n - 1) for n in range(k, r)])
                yield f"interval below {v}, tail {k}", ([dim for _, dim in spaces], mats)


@pytest.mark.parametrize("ring", FIELDS, ids=repr)
def test_dims_equal_full_cohomology_on_catalog_complexes(ring):
    for name in SMALL:
        x = catalog(name)
        for what, (dims, mats) in _catalog_complexes(x, ring):
            full = cochain_cohomology(dims, mats, ring)
            assert cohomology_dims(dims, mats, ring) == [h for h, _ in full], (name, what)
            for i, (_, reps) in enumerate(full):
                assert cocycle_representatives(mats, i, dims[i], ring) == reps, (name, what, i)


def test_dims_reject_nonzero_composite():
    ident = identity(1, QQ)
    with pytest.raises(ValueError, match="composition"):
        cohomology_dims([1, 1, 1], [ident, ident], QQ)
    twice = matrix_from_rows([{0: 1}, {0: 1}], 1, GF(3))
    pair = matrix_from_rows([{0: 1, 1: 1}], 2, GF(3))
    with pytest.raises(ValueError, match="composition"):
        cohomology_dims([1, 2, 1], [twice, pair], GF(3))
    # the same composite vanishes over F2
    assert cohomology_dims([1, 2, 1], [convert(twice, GF(2)), convert(pair, GF(2))], GF(2)) == [0, 0, 0]


def test_dims_reject_shape_mismatch():
    ident = identity(1, QQ)
    with pytest.raises(ValueError, match="shape"):
        cohomology_dims([2, 1], [ident], QQ)
    with pytest.raises(ValueError, match="one differential less"):
        cohomology_dims([1, 1, 1], [ident], QQ)


def test_integral_rejects_nonzero_composite_and_shape_mismatch():
    ident = identity(1, ZZ)
    with pytest.raises(ValueError, match="composition"):
        integral_cochain_cohomology([1, 1, 1], [ident, ident])
    with pytest.raises(ValueError, match="shape"):
        integral_cochain_cohomology([1, 2], [ident])
