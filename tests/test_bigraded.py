"""Pair complexes, their quotients, and the bigraded cohomology table."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cwkoszul import bigraded, linalg
from cwkoszul.bigraded import (
    BigradedLayer,
    _column_entries,
    _relative_dims,
    cellular_cohomology,
    cellular_complex,
    hx_table,
    koszul_obstructions,
    pair_basis,
    reduced_layer,
    reduced_layers,
    relative_cohomology,
)
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.cw import ComplexError
from cwkoszul.dualalg import comparison_iso_check
from cwkoszul.linalg import (
    GF,
    QQ,
    ZZ,
    cochain_cohomology,
    rank,
    smith_normal_form,
)

from helpers import (
    double_diagonal_d_down,
    flip_d_up_sign,
    grid_torus,
    integral_cellular_cohomology,
    is_zero,
    matmul,
    matrix,
    pair_dims,
    pair_layers,
    reduced_chain,
    reduced_dims,
    reduced_quotients,
    reference_hx_table,
    reference_layer,
    reference_reduced_layer,
    scan_pair_basis,
    scan_relative_cohomology,
    segment_plus_point,
    tampered_build_layer,
    two_disjoint_triangles,
)

FIELDS = (QQ, GF(2), GF(3))


def test_pair_basis_dimensions():
    x = catalog("simplex1")
    assert pair_basis(x, 1, 0) == [("01", "0"), ("01", "1")]
    assert pair_basis(x, 1, 1) == [("01", "01")]
    s = catalog("example_singular")
    assert len(pair_basis(s, 3, 0)) == 8  # each solid cell holds four vertices
    for n in range(4):
        assert len(pair_basis(s, n, n)) == s.counts()[n]


def test_layer_differentials_commute_and_square_to_zero():
    for name in ("sphere2", "example_singular"):
        x = catalog(name)
        layers = pair_layers(x, ZZ)
        for k, layer in layers.items():
            for n in sorted(layer.d_up)[:-1]:
                assert is_zero(matmul(layer.d_up[n + 1], layer.d_up[n]))
            if k >= 2:
                below = layers[k - 1]
                for n in layer.d_down:
                    assert is_zero(matmul(below.d_down[n], layer.d_down[n]))
            if k >= 1:
                below = layers[k - 1]
                for n in sorted(layer.bases)[:-1]:
                    left = matmul(below.d_up[n], layer.d_down[n])
                    right = matmul(layers[k - 1 + 1].d_down[n + 1], layer.d_up[n])
                    assert left == right


def test_cellular_cohomology_values():
    assert cellular_cohomology(catalog("sphere2"), QQ) == [1, 0, 1]
    assert cellular_cohomology(catalog("rp2_six"), GF(2)) == [1, 1, 1]
    assert cellular_cohomology(catalog("rp2_six"), QQ) == [1, 0, 0]
    assert cellular_cohomology(catalog("example_singular"), QQ) == [1, 0, 0, 0]
    assert cellular_cohomology(catalog("three_triangles_shared_edge"), GF(3)) == [1, 0, 0]


def test_integral_cellular_cohomology():
    assert integral_cellular_cohomology(catalog("sphere2")) == [(1, ()), (0, ()), (1, ())]
    assert integral_cellular_cohomology(catalog("rp2_six")) == [(1, ()), (0, ()), (0, (2,))]


def test_rp2_top_incidence_has_invariant_factor_two():
    _, mats = cellular_complex(catalog("rp2_six"), ZZ)
    factors = smith_normal_form(mats[1]).factors
    assert 2 in factors and all(f in (1, 2) for f in factors)


def test_relative_cohomology_of_marked_edge():
    s = catalog("example_singular")
    for f in FIELDS:
        dims = relative_cohomology(s, "C4", f)
        assert dims[2] >= 1
    with pytest.raises(ComplexError, match="unknown"):
        relative_cohomology(s, "C99", QQ)


def test_reduced_layer_dims():
    for name in ("sphere2", "example_singular"):
        x = catalog(name)
        d = x.dim
        layers = list(reduced_layers(x, QQ))
        top = reduced_dims(layers[d])
        for n in range(d, d + 1):
            assert top[n] == len(pair_basis(x, n, d))
        zero = reduced_dims(layers[0])
        for n in range(d + 1):
            assert zero[n] == len(x.cells(n))


def test_reduced_layer_dimension_recursion():
    # dim L(n,k) = dim C(n,k-1) - dim L(n,k-1) for k >= 1
    for name in ("sphere2", "simplex3", "example_singular"):
        x = catalog(name)
        for field in (QQ, GF(2)):
            dims = [reduced_dims(layer) for layer in reduced_layers(x, field)]
            for k in range(1, x.dim + 1):
                for n in range(k, x.dim + 1):
                    lhs = dims[k][n]
                    rhs = len(pair_basis(x, n, k - 1)) - dims[k - 1][n]
                    assert lhs == rhs, (name, n, k)


def test_reduced_k0_matches_cellular_complex():
    # the k = 0 reduction is isomorphic to the cellular cochain complex
    x = catalog("sphere2")
    layer = next(reduced_layers(x, QQ))
    dims, mats = reduced_chain(layer)
    homs = cochain_cohomology(dims, mats, QQ)
    assert [h for h, _ in homs] == cellular_cohomology(x, QQ)


def test_reduced_k0_equals_cellular_matrices():
    # one quotient coordinate per upper cell, in cell order, with the same
    # differential entries as the cellular cochain complex
    for name in ("sphere1", "sphere2", "example_singular"):
        x = catalog(name)
        layer = next(reduced_layers(x, QQ))
        _, lmats = reduced_chain(layer)
        cdims, cmats = cellular_complex(x, QQ)
        assert list(reduced_dims(layer).values()) == cdims
        assert lmats == cmats, name


def _lower_block_dims(x, alpha, field):
    """Cohomology of the sub complex of pairs with fixed lower cell."""
    k = x.cell_dim(alpha)
    layer = pair_layers(x, ZZ)[k]
    idx = {
        n: [i for i, (b, a) in enumerate(layer.bases[n]) if a == alpha]
        for n in layer.bases
    }
    dims, mats = [], []
    ns = sorted(layer.bases)
    for n in ns:
        dims.append(len(idx[n]))
    for n in ns[:-1]:
        src, tgt = idx[n], {i: p for p, i in enumerate(idx[n + 1])}
        cols = [{tgt[i]: v for i, v in layer.d_up[n].apply({j: 1}).items()} for j in src]
        mats.append(matrix(len(idx[n + 1]), cols, field))
    return [h for h, _ in cochain_cohomology(dims, mats, field)]


def test_lower_blocks_compute_relative_cohomology():
    for name in ("simplex2", "sphere2", "example_singular"):
        x = catalog(name)
        for alpha in x.cells():
            k = x.cell_dim(alpha)
            block = _lower_block_dims(x, alpha, QQ)
            rel = relative_cohomology(x, alpha, QQ)
            assert rel[:k] == [0] * k
            assert block == rel[k:], (name, alpha)


def test_upper_blocks_are_contractible_columns():
    # fixing the upper cell, the vertical complex has homology Z in degree 0 only
    for name in ("sphere2", "example_singular"):
        x = catalog(name)
        layers = pair_layers(x, ZZ)
        for beta in x.cells():
            nb = x.cell_dim(beta)
            dims_by_k, rank_by_k = {}, {}
            for k in range(nb + 1):
                idx = [i for i, (b, a) in enumerate(layers[k].bases[nb]) if b == beta]
                dims_by_k[k] = len(idx)
                if k >= 1:
                    d_down = layers[k].d_down[nb]
                    m = matrix(len(layers[k - 1].bases[nb]), [d_down.columns[j] for j in idx], QQ)
                    rank_by_k[k] = rank(m)
            for k in range(nb + 1):
                kernel = dims_by_k[k] - rank_by_k.get(k, 0)
                image = rank_by_k.get(k + 1, 0)
                expected = 1 if k == 0 else 0
                assert kernel - image == expected, (name, beta, k)


def test_hx_table_k0_row_matches_cellular():
    for name in ("point", "simplex2", "sphere2", "rp2_six", "example_singular"):
        x = catalog(name)
        for f in FIELDS:
            table = hx_table(x, f)
            cell = cellular_cohomology(x, f)
            for n in range(x.dim + 1):
                assert table.entry(n, 0) == cell[n], (name, f.key, n)


def test_hx_integral_simplex3_diagonal():
    table = hx_table(catalog("simplex3"), ZZ)
    for (n, k), val in table.entries.items():
        if n == k:
            assert val == (1, ()), (n, k)
        else:
            assert val == (0, ()), (n, k)


def test_hx_table_singular_solid():
    for f in FIELDS:
        table = hx_table(catalog("example_singular"), f)
        assert table.entry(1, 0) == 0
        assert table.entry(2, 0) == 0
        assert table.entry(2, 1) == 1


def test_hx_integral_rp2():
    table = hx_table(catalog("rp2_six"), ZZ)
    assert table.entry(2, 0) == (0, (2,))  # integral top cohomology of the plane
    assert table.entry(1, 0) == (0, ())
    assert table.entry(1, 1) == (1, ())
    assert table.entry(2, 2) == (10, ())  # one generator per top cell
    # universal coefficients: the free rank reappears as the field dimension
    free, torsion = table.entry(2, 1)
    assert torsion == ()
    assert hx_table(catalog("rp2_six"), QQ).entry(2, 1) == free


def test_hx_integral_singular_solid():
    table = hx_table(catalog("example_singular"), ZZ)
    assert table.entry(2, 1) == (1, ())  # the obstruction class is integral
    assert table.entry(3, 3) == (2, ())


def test_manifold_rows_vanish_below_top():
    # sphere / disc / projective-plane inputs with vanishing reduced cohomology
    cases = [("sphere2", QQ), ("simplex3", QQ), ("rp2_six", QQ), ("rp2_six", GF(3))]
    for name, f in cases:
        x = catalog(name)
        table = hx_table(x, f)
        for k in range(x.dim):
            assert table.entry(k, k) == 1, (name, k)
            for n in range(k + 1, x.dim):
                assert table.entry(n, k) == 0, (name, n, k)


def test_single_top_cell_kills_top_row():
    # a solid simplex has vanishing top-degree entries off the diagonal
    for f in (QQ, GF(2)):
        table = hx_table(catalog("simplex3"), f)
        for k in range(3):
            assert table.entry(3, k) == 0, k


def test_obstructions_rp2():
    assert koszul_obstructions(catalog("rp2_six"), QQ).empty
    assert koszul_obstructions(catalog("rp2_six"), GF(3)).empty
    rep = koszul_obstructions(catalog("rp2_six"), GF(2))
    assert rep.bigraded == [(1, 0, 1)]


def test_obstructions_singular_solid():
    for f in FIELDS:
        rep = koszul_obstructions(catalog("example_singular"), f)
        assert not rep.empty
        assert (2, 1, 1) in rep.bigraded
        assert ("C4", 2, 1) in rep.relative
        assert rep.cohomology == []


def test_universal_coefficients_consistency():
    # dim over F_p = integral free rank + torsion hit by p in this degree and
    # the next one up the column; ties the Z and F_p pipelines together
    for name in catalog_names():  # catalog() validates every entry
        x = catalog(name)
        ztable = hx_table(x, ZZ)
        for p in (2, 3):
            ftable = hx_table(x, GF(p))
            for (n, k), (free, torsion) in ztable.entries.items():
                t_here = sum(1 for t in torsion if t % p == 0)
                above = ztable.entries.get((n + 1, k), (0, ()))
                t_above = sum(1 for t in above[1] if t % p == 0)
                assert ftable.entry(n, k) == free + t_here + t_above, (name, p, n, k)


def test_integral_tables_run_the_dense_smith_form_only_on_a_core(monkeypatch):
    snf_reduce = linalg._snf_reduce

    def refuse(*args):
        raise AssertionError("dense Smith form ran")

    # unit pivots leave no core on these: the dense Smith form never runs
    monkeypatch.setattr(linalg, "_snf_reduce", refuse)
    for x in (catalog("sphere3"), grid_torus(4, 5)):
        assert hx_table(x, ZZ).entry(x.dim, 0) == (1, ()), x.name

    # on rp2_six it runs on the one-column core that the Z/2 leaves in the
    # continued elimination of column 0
    shapes = []

    def record(a, q, qinv):
        shapes.append((len(a), len(a[0])))
        return snf_reduce(a, q, qinv)

    monkeypatch.setattr(linalg, "_snf_reduce", record)
    assert hx_table(catalog("rp2_six"), ZZ).entry(2, 0) == (0, (2,))
    assert shapes and all(cols == 1 for _, cols in shapes)


HX_RINGS = (QQ, GF(2), GF(3), GF(5), ZZ)


@pytest.mark.parametrize("ring", HX_RINGS, ids=repr)
def test_hx_table_equals_quotient_reference(ring):
    # echelon ranks on the pair layers against induced maps on quotients
    complexes = [catalog(name) for name in catalog_names()]
    for x in complexes + [grid_torus(4, 5), grid_torus(5, 5)]:
        assert hx_table(x, ring) == reference_hx_table(x, ring), x.name


def test_hx_table_builds_no_quotient_or_induced_map(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hx_table left the echelon path")

    monkeypatch.setattr(linalg, "induced_map", refuse)
    monkeypatch.setattr(linalg.QuotientPresentation, "__init__", refuse)
    monkeypatch.setattr(linalg, "smith_normal_form", refuse)
    monkeypatch.setattr(linalg, "integral_cochain_cohomology", refuse)
    for name in ("sphere2", "rp2_six", "example_singular"):
        for ring in HX_RINGS:
            hx_table(catalog(name), ring)


def test_hx_square_check_fires(monkeypatch):
    # d_up of column 0 no longer carries the vertical image of column 1
    monkeypatch.setattr(bigraded, "build_layer", tampered_build_layer(0, flip_d_up_sign))
    for ring in (QQ, ZZ):
        with pytest.raises(ValueError, match="column 0: d_up\\[1\\] does not commute"):
            hx_table(catalog("sphere2"), ring)


def test_hx_torsion_refusal_matches_the_quotient(monkeypatch):
    # a doubled generator of V_2 in column 1: Z/2 torsion in the quotient,
    # refused with the factor list the integral quotient prints
    monkeypatch.setattr(bigraded, "build_layer", tampered_build_layer(2, double_diagonal_d_down))
    x = catalog("sphere2")
    with pytest.raises(linalg.TorsionError) as ours:
        hx_table(x, ZZ)
    with pytest.raises(linalg.TorsionError) as ref:
        reference_hx_table(x, ZZ)
    assert str(ours.value) == str(ref.value)
    assert "invariant factors [1, 1, 1, 2]" in str(ours.value)  # one per triangle


@st.composite
def two_term_columns(draw):
    """Column 0 of a two-term pair complex: d_up D: Z^a -> Z^b and the
    vertical generators G: Z^c -> Z^b, small integer matrices."""
    a, b, c = draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.sampled_from([0, 0, 1, -1, 2, 3, -3, 4])
    d_up = draw(st.lists(st.lists(entry, min_size=b, max_size=b), min_size=a, max_size=a))
    gens = draw(st.lists(st.lists(entry, min_size=b, max_size=b), min_size=c, max_size=c))
    return a, b, c, d_up, gens


@pytest.mark.parametrize("ring", (QQ, GF(2), GF(3), ZZ), ids=repr)
@given(data=two_term_columns())
@example(data=(1, 2, 2, [[1, 1]], [[2, 3], [3, 4]]))  # V = Z^2 with no unit entry
@settings(max_examples=80, deadline=None)
def test_column_entries_match_the_quotient_complex(ring, data):
    # the echelon reading of one column against quotients and induced maps,
    # also where the vertical image leaves a core over Z
    a, b, c, d_up, gens = data

    def mat(rows, cols):
        return matrix(rows, [dict(enumerate(col)) for col in cols], ring)

    layer = BigradedLayer(0, {0: list(range(a)), 1: list(range(b))},
                          {0: mat(b, d_up), 1: mat(0, [{}] * b)}, {})
    above = BigradedLayer(1, {1: list(range(c))}, {1: mat(0, [{}] * c)}, {1: mat(b, gens)})
    try:
        src = linalg.quotient(layer.bases[0], mat(a, []), ring)
        dst = linalg.quotient(layer.bases[1], above.d_down[1], ring)
    except linalg.TorsionError as exc:
        with pytest.raises(linalg.TorsionError) as ours:
            _column_entries(reduced_layer(layer, above, ring), ring)
        assert str(ours.value) == str(exc)
        return
    dims, mats = [src.dim, dst.dim], [linalg.induced_map(layer.d_up[0], src, dst)]
    if ring == ZZ:
        expected = linalg.integral_cochain_cohomology(dims, mats)
    else:
        expected = linalg.cohomology_dims(dims, mats, ring)
    assert _column_entries(reduced_layer(layer, above, ring), ring) == expected


def test_obstructions_require_hypotheses():
    with pytest.raises(ComplexError, match="not pure"):
        koszul_obstructions(segment_plus_point(), QQ)
    with pytest.raises(ComplexError, match="connected"):
        koszul_obstructions(two_disjoint_triangles(), QQ)


SMALL = [n for n in catalog_names() if n not in ("simplex5", "sphere4")]


def test_pair_basis_equals_le_scan():
    for name in catalog_names():
        x = catalog(name)
        for n in range(x.dim + 1):
            for k in range(x.dim + 1):
                assert pair_basis(x, n, k) == scan_pair_basis(x, n, k), (name, n, k)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_relative_cohomology_equals_le_scan(field):
    for name in SMALL:
        x = catalog(name)
        for alpha in x.cells():
            assert relative_cohomology(x, alpha, field) == scan_relative_cohomology(
                x, alpha, field
            ), (name, alpha)


def test_layer_below_supplies_the_vertical_targets():
    for name in SMALL:
        x = catalog(name)
        for k, shared in pair_layers(x, ZZ).items():
            alone = reference_layer(x, k, ZZ)
            assert pair_dims(shared) == pair_dims(alone), (name, k)
            assert shared.bases == alone.bases and shared.d_up == alone.d_up
            assert shared.d_down == alone.d_down, (name, k)


@pytest.mark.parametrize("ring", FIELDS + (ZZ,), ids=repr)
def test_shared_columns_equal_reduced_layer(ring):
    for name in SMALL:
        x = catalog(name)
        layers = list(reduced_layers(x, ring))
        assert [layer.k for layer in layers] == list(range(x.dim + 1))
        for layer in layers:
            ref = reference_reduced_layer(x, layer.k, ring)
            assert layer.echelons == ref.echelons, (name, layer.k)
            assert reduced_dims(layer) == reduced_dims(ref), (name, layer.k)
            ref_quotients = reduced_quotients(ref)
            for n, q in reduced_quotients(layer).items():
                assert q.ambient_labels == ref_quotients[n].ambient_labels
                assert q.labels() == ref_quotients[n].labels(), (name, layer.k, n)
            assert reduced_chain(layer) == reduced_chain(ref), (name, layer.k)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_labels_equal_the_quotient_labels(field):
    # the nonpivot pairs of each E_n are the free labels that the quotient
    # presentation of P_n / V_n picks
    for x in [catalog(name) for name in catalog_names()] + [grid_torus(4, 5)]:
        for red in reduced_layers(x, field):
            for n, q in reduced_quotients(red).items():
                assert red.labels(n) == q.labels(), (x.name, n, red.k)


def test_every_column_reader_reduces_each_column_once(monkeypatch):
    calls = []
    reduce = bigraded.reduced_layer

    def counted(layer, above, ring):
        calls.append(layer.k)
        return reduce(layer, above, ring)

    monkeypatch.setattr(bigraded, "reduced_layer", counted)
    for run in (lambda x: hx_table(x, ZZ), lambda x: hx_table(x, GF(3)),
                lambda x: koszul_obstructions(x, QQ), lambda x: comparison_iso_check(x, GF(2))):
        for name in ("sphere2", "example_singular"):
            calls.clear()
            run(catalog(name))
            assert calls == list(range(catalog(name).dim + 1)), name


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(5)), ids=repr)
def test_relative_dims_read_off_the_layers_equal_the_star_complex(field):
    # every cell's relative groups, in every degree, from the pair layer of its column
    for x in [catalog(name) for name in catalog_names()] + [grid_torus(4, 5)]:
        got = {}
        for red in reduced_layers(x, field):
            _column_entries(red, field)
            for alpha, n, h in _relative_dims(red.layer, field.p):
                got[(alpha, n)] = h
        for alpha in x.cells():
            rel = [got.get((alpha, n), 0) for n in range(x.dim + 1)]
            assert rel == relative_cohomology(x, alpha, field), (x.name, alpha)
