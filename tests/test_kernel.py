"""The elimination kernel against a dense textbook Gauss-Jordan, its invariances,
and the int form of values over Q."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from cwkoszul import bigraded, dualalg
from cwkoszul.bigraded import (
    build_layer,
    cellular_complex,
    hx_table,
    koszul_obstructions,
    reduced_layers,
    relative_cohomology,
)
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.dualalg import koszul_decide
from cwkoszul.linalg import (
    GF,
    QQ,
    ZZ,
    QuotientPresentation,
    SparseExactMatrix,
    _echelon,
    _eliminate,
    _reduce,
    cochain_cohomology,
    echelon_factors,
    kernel_vectors,
    rank,
    rref_rows,
    span_rank,
)

from helpers import (
    dense_rref,
    identity,
    matrix_from_rows,
    reduce_mod_rows,
    reduced_chain,
    to_dense,
    transpose,
)

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
    return dense_rref([[row.get(j, 0) for j in range(width)] for row in rows], ring.p)


@pytest.mark.parametrize("ring", FIELDS, ids=repr)
@given(data=dense_rows())
@example(data=(3, [[1, 1, 0], [0, 1, 1], [1, 0, 0]]))  # reducing row 3 by row 1 adds pivot 1
@settings(max_examples=60, deadline=None)
def test_rref_matches_dense_reference(ring, data):
    _, rows = data
    srows = sparse(rows, ring)
    assert rref_rows(srows, ring) == reference(srows, ring)
    assert span_rank(srows, ring) == len(reference(srows, ring))


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
    out = _reduce(v, _eliminate(srows, ring.p)[0], ring.p)
    assert not set(out) & {c for c, _ in red}
    assert reduce_mod_rows(v, red, ring) == reduce_mod_rows(v, dict(red), ring) == out
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
    m = matrix_from_rows(srows, n, ring)
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
    # only IntegralQuotient may present a lattice and reach a nonempty core
    with pytest.raises(TypeError, match="not a field"):
        QuotientPresentation(["u", "v"], SparseExactMatrix(2, 1, {(0, 0): 2, (1, 0): 3}, ZZ), ZZ)


# ---------------------------------------------------------------------------
# the representation of Q: an int for every integral value


def _canonical(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_qq_of_gives_an_int_exactly_for_integral_values():
    for x, want in ((3, 3), (0, 0), (Fraction(4, 2), 2), (Fraction(-3), -3), (Fraction(6, 3), 2)):
        v = QQ.of(x)
        assert type(v) is int and v == want
    for x in (Fraction(1, 2), Fraction(-4, 6), Fraction(7, 3)):
        v = QQ.of(x)
        assert type(v) is Fraction and v == x
    assert type(QQ.zero) is int and type(QQ.one) is int


# ints, integral Fractions such as Fraction(4, 2), and proper fractions
mixed = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(lambda k: Fraction(2 * k, 2), st.integers(-3, 3)),
    rationals,
)


@st.composite
def mixed_rows(draw, max_rows=6, max_cols=6):
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(mixed, min_size=n, max_size=n), min_size=m, max_size=m))
    return n, [{j: v for j, v in enumerate(row) if v} for row in rows]


@given(data=mixed_rows(), raw=st.lists(mixed, min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_q_kernel_matches_dense_fraction_reference(data, raw):
    """rank, kernel_vectors and QuotientPresentation over Q agree with the
    dense Fraction Gauss-Jordan, and return every integral value as an int."""
    n, rows = data
    ref = dense_rref([[row.get(j, 0) for j in range(n)] for row in rows])
    free = [j for j in range(n) if j not in dict(ref)]
    m = matrix_from_rows(rows, n, QQ)
    assert rank(m) == span_rank(rows, QQ) == len(ref)

    kern = kernel_vectors(m)
    assert kern == [{j: 1, **{c: -row[j] for c, row in ref if j in row}} for j in free]
    for v in kern:
        assert all(_canonical(x) for x in v.values())
        assert not m.apply(v)

    pres = QuotientPresentation(list(range(n)), transpose(m), QQ)
    assert pres.dim == len(free)
    vec = {j: QQ.of(v) for j, v in enumerate(raw[:n]) if v}
    expected = {j: Fraction(v) for j, v in vec.items()}
    for c, row in ref:
        coeff = expected.pop(c, 0)
        for j, w in row.items():
            if j != c:
                expected[j] = expected.get(j, 0) - coeff * w
    got = pres.project(vec)
    assert got == {free.index(j): v for j, v in expected.items() if v}
    assert all(_canonical(x) for x in got.values())


def test_q_decisions_on_integral_input_build_no_fraction(monkeypatch):
    """On the integral input sphere3 every value over Q stays an int: the hat
    decision, the bigraded table and both obstruction routes build no Fraction."""
    x = catalog("sphere3")
    g = x.face_poset_hat()
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic results bypass __new__ there
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            built.append(args)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    assert Fraction(1, 2) and built == [(1, 2)]
    built.clear()

    verdict = koszul_decide(g, QQ)
    hx_table(x, QQ)
    report = koszul_obstructions(x, QQ)
    assert verdict.koszul and report.empty
    assert built == []


# ---------------------------------------------------------------------------
# matrices built inside the kernel hold canonical entries


def _assert_canonical(m):
    """m equals its canonicalised copy, value types included (over Q, 1 == Fraction(1))."""
    canon = SparseExactMatrix(m.rows, m.cols, m.entries, m.ring)
    assert m == canon, m
    assert all(type(v) is type(canon.entries[key]) for key, v in m.entries.items()), m


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=repr)
def test_kernel_built_matrices_are_canonical(ring, monkeypatch):
    built = []  # word-complex differentials and coboundaries, as they are built
    word_complex, coboundaries = dualalg.word_complex, bigraded._coboundaries

    def recording_words(blocks, heads):
        labels, mats = word_complex(blocks, heads)
        built.extend(mats)
        return labels, mats

    def recording_coboundaries(x, cells, ring):
        dims, mats = coboundaries(x, cells, ring)
        built.extend(mats)
        return dims, mats

    monkeypatch.setattr(dualalg, "word_complex", recording_words)
    monkeypatch.setattr(bigraded, "_coboundaries", recording_coboundaries)
    for name in catalog_names():
        x = catalog(name)
        layer = build_layer(x, 0, ring, None)
        for k in range(1, x.dim + 1):
            layer = build_layer(x, k, ring, layer)
            for m in list(layer.d_up.values()) + list(layer.d_down.values()):
                _assert_canonical(m)
        cellular_complex(x, ring)
        for reduced in reduced_layers(x, ring):
            for m in reduced_chain(reduced)[1]:
                _assert_canonical(m)
        if ring is not ZZ:
            for alpha in x.cells():
                relative_cohomology(x, alpha, ring)
            koszul_decide(x.face_poset_bar(), ring)
            if x.is_pure():
                koszul_decide(x.face_poset_hat(), ring)
    for m in built:
        _assert_canonical(m)
    assert len(built) > 100 or ring is ZZ


def test_comparison_map_reduces_negative_signs_mod_p():
    x, field = catalog("sphere2"), GF(3)
    g = x.face_poset_bar()
    blocks = dualalg.HeadBlocks(g, field)
    signs = set()
    for layer in reduced_layers(x, field):
        for n in range(layer.k, x.dim + 1):
            for beta, alpha in layer.labels(n):
                chain = g.first_maximal_chain(beta, alpha)
                signs.add(dualalg.sign_of_path(x, chain))
            phi = dualalg.comparison_map(x, n, layer, blocks)
            assert all(v in (1, 2) for v in phi.entries.values())
            _assert_canonical(phi)
    assert -1 in signs


def test_canonical_constructor_checks_bounds():
    # the columns give the width; only row indices can fall outside
    assert SparseExactMatrix._canonical(2, [{}, {}, {1: 1}], GF(3)).entries == {(1, 2): 1}
    for i in (2, -1):
        with pytest.raises(IndexError, match=rf"entry \({i},2\) outside 2x3"):
            SparseExactMatrix._canonical(2, [{}, {}, {i: 1}], GF(3))


@st.composite
def stacked_rows(draw, max_rows=6, max_cols=6):
    """Two small integer matrices of one width, mostly sparse."""
    n = draw(st.integers(1, max_cols))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 6])
    row = st.lists(entry, min_size=n, max_size=n)
    return [draw(st.lists(row, max_size=max_rows)) for _ in range(2)]


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ], ids=repr)
@given(data=stacked_rows())
@example(data=[  # over Z: 3 pivots continued, 4 stacked
    [[3, 0, 2, 3, 0, 2], [2, 2, 1, 2, 3, 6], [3, -1, 2, -1, 4, 6], [4, -1, 0, 6, 1, 0]],
    [[4, -2, 0, 2, -2, 2], [6, 2, 4, 6, 3, -1], [-2, 0, -1, -2, -2, 6], [1, 0, 0, 0, -1, 4]],
])
@settings(max_examples=80, deadline=None)
def test_continued_echelon_matches_stacked_elimination(ring, data):
    # continuing the echelon form of A with B (and A's core again over Z)
    # spans what A and B span together: the same Smith factors, so the same
    # rank; over a field the pivots are the rank.  Over Z the split of the
    # factors 1 between pivots and core depends on the row order.
    a, b = (sparse(rows, ring) for rows in data)
    tails, core = _echelon(a, ring.p)
    before = dict(tails)
    continued = _echelon(b + core, ring.p, tails)
    stacked = _echelon(a + b, ring.p)
    assert tails == before  # the earlier form is read, not extended
    assert echelon_factors(*continued) == echelon_factors(*stacked)
    if ring.p is not None:
        assert len(continued[0]) == len(stacked[0]) == span_rank(a + b, ring)
