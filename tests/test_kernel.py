"""The elimination kernel against a dense textbook Gauss-Jordan, and its invariances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cwkoszul.linalg import (
    GF,
    QQ,
    ZZ,
    SparseExactMatrix,
    cochain_cohomology,
    reduce_mod_rows,
    rref_rows,
)

from helpers import dense_rref, identity, to_dense

FIELDS = [QQ, GF(2), GF(3), GF(5)]

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3]))


@st.composite
def dense_rows(draw, max_rows=7, max_cols=7):
    """A small dense matrix over Q, mostly integral and sparse."""
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
    return n, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


def sparse(rows, ring):
    """Dict rows of ring elements; over F_p a denominator divisible by p becomes 0."""
    out = []
    for row in rows:
        vals = {}
        for j, v in enumerate(row):
            try:
                v = ring.of(v)
            except ZeroDivisionError:
                v = ring.zero
            if v:
                vals[j] = v
        out.append(vals)
    return out


def reference(rows, ring):
    width = max((max(r) + 1 for r in rows if r), default=1)
    return dense_rref([[row.get(j, 0) for j in range(width)] for row in rows], ring.char)


@pytest.mark.parametrize("ring", FIELDS, ids=repr)
@given(data=dense_rows())
@settings(max_examples=60, deadline=None)
def test_rref_matches_dense_reference(ring, data):
    _, rows = data
    srows = sparse(rows, ring)
    assert rref_rows(srows, ring) == reference(srows, ring)


@pytest.mark.parametrize("ring", FIELDS, ids=repr)
@given(data=dense_rows(), seed=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_rref_depends_only_on_the_row_space(ring, data, seed):
    _, rows = data
    srows = sparse(rows, ring)
    shuffled = [dict(r) for r in srows] + [{}] + [dict(r) for r in srows[:2]]
    seed.shuffle(shuffled)
    assert rref_rows(shuffled, ring) == rref_rows(srows, ring)


@given(data=dense_rows())
@settings(max_examples=60, deadline=None)
def test_rref_over_q_returns_fractions(data):
    _, rows = data
    integral = [{j: int(v) for j, v in r.items() if v.denominator == 1} for r in sparse(rows, QQ)]
    for srows in (sparse(rows, QQ), integral):
        for c, row in rref_rows(srows, QQ):
            assert row[c] == 1
            assert all(type(v) is Fraction for v in row.values())


@pytest.mark.parametrize("ring", FIELDS, ids=repr)
@given(data=dense_rows(), vec=st.lists(rationals, min_size=7, max_size=7))
@settings(max_examples=40, deadline=None)
def test_reduce_mod_rows_clears_pivots(ring, data, vec):
    n, rows = data
    srows = sparse(rows, ring)
    red = rref_rows(srows, ring)
    v = sparse([vec[:n]], ring)[0]
    out = reduce_mod_rows(v, red, ring)
    assert not set(out) & {c for c, _ in red}
    assert reduce_mod_rows(v, dict(red), ring) == out
    # v - out lies in the row span: adding it leaves the reduced form unchanged
    diff = dict(v)
    for j, x in out.items():
        diff[j] = ring.of(diff.get(j, 0) - x)
    assert rref_rows(srows + [diff], ring) == red


@pytest.mark.parametrize("ring", FIELDS + [ZZ], ids=repr)
@given(data=dense_rows(), vecs=st.lists(st.lists(st.integers(-3, 3), min_size=7, max_size=7),
                                        min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_apply_matches_dense_product_on_repeated_calls(ring, data, vecs):
    n, rows = data
    if ring is ZZ:
        rows = [[int(v) for v in row] for row in rows]
    srows = sparse(rows, ring)
    m = SparseExactMatrix.from_rows(srows, n, ring)
    dense = to_dense(m)
    for _ in range(2):
        for raw in vecs:
            x = {j: ring.of(v) for j, v in enumerate(raw[:n]) if ring.of(v)}
            expected = {}
            for i, row in enumerate(dense):
                s = ring.of(sum(row[j] * x.get(j, 0) for j in range(n)))
                if s:
                    expected[i] = s
            assert m.apply(x) == expected


def test_integers_are_refused():
    with pytest.raises(TypeError, match="not a field"):
        rref_rows([{0: 2}], ZZ)
    with pytest.raises(TypeError, match="not a field"):
        cochain_cohomology([1, 1], [identity(1, ZZ)], ZZ)
