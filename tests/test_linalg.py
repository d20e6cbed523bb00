"""Exact linear algebra: ranks, kernels, quotients, SNF, integral cohomology."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cwkoszul.bigraded import hx_table, koszul_obstructions, reduced_layers
from cwkoszul.catalog import catalog
from cwkoszul.dualalg import koszul_decide
from cwkoszul.linalg import (
    GF,
    QQ,
    ZZ,
    IntegralQuotient,
    SmithForm,
    TorsionError,
    _echelon,
    _eliminate,
    cochain_cohomology,
    field_from_spec,
    induced_map,
    integral_cochain_cohomology,
    is_prime,
    kernel_vectors,
    quotient,
    rank,
    rref_rows,
    smith_normal_form,
    span_rank,
)

from helpers import (
    convert,
    debug_triples,
    dense_integral_quotient,
    dense_smith_factors,
    identity,
    image_vectors,
    is_zero,
    kernel_basis,
    matmul,
    matrix,
    matrix_from_rows,
    transpose,
)


def dense(rows, ring):
    ncols = len(rows[0]) if rows else 0
    return matrix(len(rows), [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)], ring)


small_entries = st.integers(min_value=-3, max_value=3)
small_shape = st.tuples(st.integers(1, 4), st.integers(1, 4))


@st.composite
def small_matrices(draw, ring=ZZ):
    m, n = draw(small_shape)
    rows = draw(st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return dense(rows, ring)


def test_rank_all_ones_f2():
    m = dense([[1, 1], [1, 1]], GF(2))
    assert rank(m) == 1


def test_rank_triangle_boundary_incidence():
    # edges ab, ac, bc against vertices a, b, c of a hollow triangle
    m = dense([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]], QQ)
    assert rank(m) == 2


def test_kernel_of_zero_map_is_full_basis():
    m = matrix(3, [{}] * 3, QQ)
    vecs = kernel_vectors(m)
    assert vecs == [{0: QQ.one}, {1: QQ.one}, {2: QQ.one}]
    kb = kernel_basis(m)
    assert kb == identity(3, QQ)


def test_kernel_vectors_annihilate():
    m = dense([[1, 2, 3], [2, 4, 6]], QQ)
    assert rank(m) == 1
    for v in kernel_vectors(m):
        assert m.apply(v) == {}


def test_image_vectors_echelon():
    m = dense([[1, 1], [1, 1], [0, 0]], QQ)
    vecs = image_vectors(m)
    assert vecs == [{0: Fraction(1), 1: Fraction(1)}]


def test_rref_deterministic_pivoting():
    rows = [{1: QQ.one}, {0: QQ.one, 1: QQ.one}]
    red = rref_rows(rows, QQ)
    # smallest column first: pivot (0, row 1), then (1, row 0)
    assert [c for c, _ in red] == [0, 1]
    assert red[0][1] == {0: QQ.one}


def test_quotient_no_relations_is_identity():
    q = quotient(["u", "v"], matrix(2, [], QQ), QQ)
    assert q.dim == 2
    assert q.labels() == ["u", "v"]
    assert q.project({0: QQ.one}) == {0: QQ.one}
    assert q.project({1: Fraction(5)}) == {1: Fraction(5)}


def test_quotient_full_rank_is_zero():
    rel = dense([[1, 0], [0, 1]], QQ)
    q = quotient(["u", "v"], rel, QQ)
    assert q.dim == 0
    assert q.project({0: QQ.one, 1: QQ.one}) == {}


def test_quotient_one_relation():
    # two path words with their sum divided out: one-dimensional quotient
    rel = transpose(dense([[1, 1]], QQ))
    q = quotient(["ea", "eb"], rel, QQ)
    assert q.dim == 1
    assert q.labels() == ["eb"]
    assert q.project({0: QQ.one}) == {0: Fraction(-1)}
    assert q.project({1: QQ.one}) == {0: Fraction(1)}


def test_project_lift_identity():
    rel = transpose(dense([[1, 2, 3]], QQ))
    q = quotient(list("abc"), rel, QQ)
    for j in range(q.dim):
        assert q.project(q.lift(j)) == {j: QQ.one}


def test_induced_map_identity_and_zero():
    for ring in (QQ, ZZ):
        rel = transpose(dense([[1, 1]], ring))
        q = quotient(["u", "v"], rel, ring)
        ident = identity(2, ring)
        assert induced_map(ident, q, q) == identity(1, ring), ring
        zero = matrix(2, [{}] * 2, ring)
        assert is_zero(induced_map(zero, q, q)), ring


def test_induced_map_integral_identity():
    rel = transpose(dense([[1, 1]], ZZ))
    q = quotient(["u", "v"], rel, ZZ)
    ident = identity(2, ZZ)
    assert induced_map(ident, q, q) == identity(1, ZZ)


def test_induced_map_rejects_unpreserved_relations():
    # over Z the relations are a lattice; the check is the same
    for ring in (QQ, ZZ):
        src = quotient(["u", "v"], transpose(dense([[1, 1]], ring)), ring)
        dst = quotient(["u", "v"], matrix(2, [], ring), ring)
        f = dense([[1, 0], [0, -1]], ring)  # sends u+v to u-v, not a dst relation
        with pytest.raises(ValueError, match="relation"):
            induced_map(f, src, dst)
        # a map carrying u+v to 0 is accepted
        assert induced_map(dense([[1, -1], [1, -1]], ring), src, dst).rows == 2


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_quotient_dimension_identity(m):
    # the quotient is the cokernel of m: dimension rows - rank, every column
    # of m projects to zero, and the relation rows are a basis of its image
    for ring in (QQ, GF(2), GF(3)):
        mq = convert(m, ring)
        q = quotient(list(range(m.rows)), mq, ring)
        assert q.dim == m.rows - rank(mq), ring
        for col in mq.columns:
            assert q.project(col) == {}, ring
        assert span_rank(q.relation_rows, ring) == len(q.relation_rows) == rank(mq), ring


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ], ids=repr)
def test_quotient_keeps_no_relation_map(ring):
    # over Z the second relation has no unit entry and stays in the core
    rel = transpose(dense([[1, 1, 0, 0], [0, 2, 3, 0]], ring))
    q = quotient(list("abcd"), rel, ring)
    assert q.dim == 2
    for name, value in vars(q).items():
        assert value is not rel and value is not rel.columns, name


@given(small_matrices(), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_induced_composition(f, extra):
    # dst relations contain the image of src relations by construction
    src_rel = dense([[1]] * f.cols, QQ) if f.cols > 1 else matrix(f.cols, [], QQ)
    src = quotient(list(range(f.cols)), src_rel, QQ)
    fq = convert(f, QQ)
    mid = quotient(list(range(f.rows)), matmul(fq, src_rel), QQ)
    g = identity(f.rows, QQ)
    dst = mid
    left = induced_map(matmul(g, fq), src, dst)
    right = matmul(induced_map(g, mid, dst), induced_map(fq, src, mid))
    assert left == right


def test_cochain_cohomology_single_space():
    assert cochain_cohomology([1], [], QQ)[0][0] == 1


def test_cochain_cohomology_identity_map():
    ident = identity(1, QQ)
    homs = cochain_cohomology([1, 1], [ident], QQ)
    assert [h for h, _ in homs] == [0, 0]


def test_cochain_cohomology_rejects_nonzero_composition():
    ident = identity(1, QQ)
    with pytest.raises(ValueError, match="composition"):
        cochain_cohomology([1, 1, 1], [ident, ident], QQ)


def test_cochain_representatives_span_kernel_mod_image():
    d0 = dense([[0, 0], [0, 0]], QQ)
    d1 = dense([[1, 1]], QQ)
    homs = cochain_cohomology([2, 2, 1], [d0, d1], QQ)
    assert [h for h, _ in homs] == [2, 1, 0]
    (hdim, reps) = homs[1]
    assert len(reps) == 1
    assert d1.apply(reps[0]) == {}


def test_smith_diag_2_3():
    s = smith_normal_form(dense([[2, 0], [0, 3]], ZZ))
    assert s.factors == (1, 6)
    assert s.rank == 2


def test_smith_zero_and_empty():
    assert smith_normal_form(matrix(2, [{}] * 3, ZZ)).factors == ()


def test_smith_form_divisibility_enforced():
    for factors in ((2, 3), (0, 0), (-2,), (2, -4)):
        with pytest.raises(ValueError):
            SmithForm(factors)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_smith_matches_field_ranks(m):
    s = smith_normal_form(m)
    assert s.rank == rank(convert(m, QQ))
    for p in (2, 3, 5):
        expected = sum(1 for f in s.factors if f % p != 0)
        assert rank(convert(m, GF(p))) == expected


def test_integral_quotient_free():
    rel = transpose(dense([[1, 1]], ZZ))
    q = quotient(["u", "v"], rel, ZZ)
    assert q.ring is ZZ and q.dim == 1
    for j in range(q.dim):
        assert q.project(q.lift(j)) == {j: 1}
    assert q.in_relation_span({0: 1, 1: 1})
    assert not q.in_relation_span({0: 1})


def test_integral_quotient_rejects_torsion():
    rel = dense([[2]], ZZ)
    with pytest.raises(ValueError, match="torsion"):
        quotient(["u"], rel, ZZ)


# sparse integer relation matrices of every kind the unit-pivot elimination
# meets: +-1 only, no unit entry at all (all core), mixed, torsion by a scaled
# row, zero, and empty
ENTRIES = {
    "units": st.sampled_from([0, 0, 0, 1, -1]),
    "core": st.sampled_from([0, 0, 0, 2, -2, 3, -4, 6]),
    "mixed": st.sampled_from([0, 0, 0, 1, -1, 1, 2, -2, 3]),
    "zero": st.just(0),
}


@st.composite
def integer_relations(draw):
    kind = draw(st.sampled_from(sorted(ENTRIES) + ["torsion"]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = ENTRIES["units" if kind == "torsion" else kind]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if kind == "torsion" and rows:
        i, f = draw(st.integers(0, m - 1)), draw(st.sampled_from([2, 3, -2]))
        rows[i] = [f * v for v in rows[i]]
    return matrix(m, [{i: row[j] for i, row in enumerate(rows)} for j in range(n)], ZZ)


def _quotient_or_error(cls, rel):
    try:
        return cls(list(range(rel.cols)), transpose(rel)), None
    except TorsionError as exc:
        return None, str(exc)


def test_smith_core_without_units():
    # no entry of magnitude 1: everything is core, and gcd(2, 3) = 1 still shows
    rel = dense([[2, 3]], ZZ)
    assert smith_normal_form(rel).factors == (1,)
    q = quotient(["u", "v"], transpose(rel), ZZ)
    assert q.dim == 1 and q.in_relation_span({0: 2, 1: 3})
    assert q.project(q.lift(0)) == {0: 1}


def _check_integral_elimination(rel):
    """The invariants the elimination over Z rests on, for the rows of rel.

    In the echelon form a pivot row holds, of the pivot columns, only ones
    installed after it; the reduced form keeps the pivots and the core and
    leaves no pivot column in any tail; the core vanishes on every pivot
    column and has no unit entry.
    """
    echelon, echelon_core = _echelon(rel.row_list(), None)
    order = list(echelon)
    for t, c in enumerate(order):
        assert not set(echelon[c]) & set(order[:t + 1])
    tails, core = _eliminate(rel.row_list(), None)
    assert list(tails) == order and core == echelon_core
    assert not any(set(tail) & tails.keys() for tail in tails.values())
    assert not any(set(row) & tails.keys() for row in core)
    assert all(v not in (1, -1) for row in core for v in row.values())


def _check_quotient_matches_dense(rel, raw):
    q, err = _quotient_or_error(IntegralQuotient, rel)
    ref, ref_err = _quotient_or_error(dense_integral_quotient, rel)
    assert err == ref_err
    if q is None:
        return
    assert q.dim == ref.dim
    for row in q.relation_rows:
        assert q.project(row) == {}
        assert ref.in_relation_lattice(row)
    for i in range(q.dim):
        assert q.project(q.lift(i)) == {i: 1}
    # v - lift(project(v)) lies in the relation lattice
    v = {j: x for j, x in enumerate(raw[:rel.cols]) if x}
    diff = dict(v)
    for i, c in q.project(v).items():
        for j, x in q.lift(i).items():
            diff[j] = diff.get(j, 0) - c * x
    assert ref.in_relation_lattice({j: x for j, x in diff.items() if x})


@given(integer_relations())
@settings(max_examples=200, deadline=None)
def test_smith_matches_dense_reference(rel):
    _check_integral_elimination(rel)
    assert smith_normal_form(rel).factors == dense_smith_factors(rel)


@given(integer_relations(), st.lists(st.integers(-3, 3), min_size=7, max_size=7))
@settings(max_examples=200, deadline=None)
def test_integral_quotient_matches_dense_reference(rel, raw):
    _check_integral_elimination(rel)
    _check_quotient_matches_dense(rel, raw)


# (rows, echelon tails in install order, core, reduced tails, invariant factors)
UNIT_PIVOT_CASES = [
    # w has no unit entry until a, installed after it, reduces it; a pivots
    # on column 1 past its entry 2 at column 0, and the later pivot 0 of b
    # lands in a's tail; c reduces to zero; the last row never gains a unit
    ([{1: 2, 2: 3, 3: 4}, {0: 2, 1: 1, 2: 1}, {0: 1}, {0: 1, 1: 1, 2: 1}, {3: 2, 4: 2}],
     [(1, {0: 2, 2: 1}), (0, {}), (2, {3: 4})], [{3: 2, 4: 2}],
     [(1, {3: -4}), (0, {}), (2, {3: 4})], (1, 1, 1, 2)),
    ([{1: 2, 2: 3, 3: 4}, {0: 2, 1: 1, 2: 1}, {0: 1}, {0: 1, 1: 1, 2: 1}, {3: 2, 4: 3}],
     [(1, {0: 2, 2: 1}), (0, {}), (2, {3: 4})], [{3: 2, 4: 3}],
     [(1, {3: -4}), (0, {}), (2, {3: 4})], (1, 1, 1, 1)),
    # a chain of ever later, ever smaller pivots 2, 1 in earlier tails: the
    # back-substitution must follow install order, not pivot order
    ([{0: 3}, {2: 2}, {1: 3, 2: -1}, {1: 2, 3: 3}, {1: -1, 3: -1}],
     [(2, {1: -3}), (1, {3: 1}), (3, {})], [{0: 3}],
     [(2, {}), (1, {}), (3, {})], (1, 1, 1, 3)),
]


@pytest.mark.parametrize("rows, echelon, core, reduced, factors", UNIT_PIVOT_CASES)
def test_integral_pivots_on_units_past_the_smallest_column(rows, echelon, core, reduced, factors):
    tails, rest = _echelon(rows, None)
    assert list(tails.items()) == echelon and rest == core
    tails, rest = _eliminate(rows, None)
    assert list(tails.items()) == reduced and rest == core
    rel = matrix_from_rows(rows, 5, ZZ)
    _check_integral_elimination(rel)
    assert smith_normal_form(rel).factors == dense_smith_factors(rel) == factors
    _check_quotient_matches_dense(rel, [1, -2, 3, 0, 1])


def test_integral_cochain_cohomology_times_two():
    times_two = dense([[2]], ZZ)
    homs = integral_cochain_cohomology([1, 1], [times_two])
    assert homs[0] == (0, ())
    assert homs[1] == (0, (2,))


def test_debug_triples_format():
    m = dense([[0, 2], [1, 0]], ZZ)
    assert debug_triples(m) == "2 2\n0 1 2\n1 0 1"


def test_field_from_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("f2").p == 2
    assert field_from_spec("f3").p == 3
    assert field_from_spec("fp:31").p == 31
    with pytest.raises(ValueError):
        field_from_spec("fp:8")
    with pytest.raises(ValueError):
        field_from_spec("fp:abc")
    with pytest.raises(ValueError):
        field_from_spec("f4")


def test_prime_field_arithmetic():
    f5 = GF(5)
    assert f5.of(Fraction(1, 2)) == 3
    assert f5.of(Fraction(-7, 3)) == 1
    assert f5.of(-1) == 4
    with pytest.raises(ZeroDivisionError):
        f5.of(Fraction(1, 10))
    with pytest.raises(ValueError):
        GF(9)


def test_rings_are_values():
    assert GF(5) == GF(5) and hash(GF(5)) == hash(GF(5))
    assert field_from_spec("fp:2") == GF(2) and GF(2) != GF(3)
    assert len({QQ, ZZ, GF(2), GF(3), GF(3)}) == 4
    assert [repr(r) for r in (QQ, ZZ, GF(7))] == ["QQ", "ZZ", "GF(7)"]
    assert [r.key for r in (QQ, ZZ, GF(7))] == ["Q", "Z", "F7"]
    for bad in (0, 1, 4, 2**31 + 11):
        with pytest.raises(ValueError):
            GF(bad)
    # immutable, and copied or pickled as the same value
    with pytest.raises(AttributeError):
        GF(5).p = 7
    with pytest.raises(AttributeError):
        del QQ.p
    assert copy.deepcopy(GF(5)) == pickle.loads(pickle.dumps(GF(5))) == GF(5)
    assert copy.copy(ZZ).p is None


def test_records_are_values():
    x = catalog("rp2_six")
    verdict = koszul_decide(x.face_poset_hat(), GF(2))
    red = next(reduced_layers(x, GF(2)))
    records = [verdict, verdict.witness, red.layer, red, hx_table(x, GF(2)),
               koszul_obstructions(x, GF(2)), smith_normal_form(dense([[2, 0], [0, 3]], ZZ))]
    assert len({type(r) for r in records}) == 7
    assert repr(records[-1]) == "SmithForm(factors=(1, 6))"
    for r in records:
        fields = ", ".join(f"{name}={getattr(r, name)!r}" for name in r._fields)
        assert repr(r) == f"{type(r).__name__}({fields})"
        assert r == type(r)(*r)
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is type(r) and back == r
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)


def test_of_converts_exactly_and_never_truncates():
    assert ZZ.of(2.0) == 2 and ZZ.of(Fraction(6, 3)) == 2
    with pytest.raises(ValueError):
        ZZ.of(2.5)
    assert QQ.of(0.5) == Fraction(1, 2) and type(QQ.of(3.0)) is int
    assert GF(3).of(0.5) == 2 and GF(3).of(2.5) == 1
    with pytest.raises(ZeroDivisionError):
        GF(5).of(Fraction(1, 5))
    m = matrix(1, [{0: 0.5}], GF(3))
    assert m.entries == {(0, 0): 2}
    with pytest.raises(ValueError):
        matrix(1, [{0: 0.5}], ZZ)


def test_is_prime_edges():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)
