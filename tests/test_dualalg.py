"""Dual algebra: path words, graded components, word complexes, Koszulity."""

import pytest

from cwkoszul.bigraded import reduced_layers
from cwkoszul.catalog import catalog
from cwkoszul.cw import ComplexError
from cwkoszul.dualalg import (
    HeadBlocks,
    annihilator_check,
    comparison_iso_check,
    comparison_map,
    graded_dims,
    koszul_decide,
    whole_graph_criterion,
    sign_of_path,
)
from cwkoszul.layered import BOTTOM, GraphError
from cwkoszul.linalg import GF, QQ, rref_rows

from helpers import (
    below,
    closed_cell,
    edge_poset,
    image_vectors,
    is_zero,
    matmul,
    nonuniform_poset,
    path_block_component,
    path_graded_component,
    path_word_complex,
    path_words,
    reduce_mod_rows,
    reduced_chain,
    word_cohomology,
)

FIELDS = (QQ, GF(2), GF(3))


def test_path_words_edge_poset():
    g = edge_poset()
    assert path_words(g, 1) == [("a",), ("b",), ("e",)]
    assert path_words(g, 2) == [("e", "a"), ("e", "b")]
    assert path_words(g, 3) == []


def test_graded_dims_point_and_edge():
    p = catalog("point").face_poset_bar()
    assert graded_dims(p, QQ, up_to=2) == [1, 0]
    g = edge_poset()
    assert graded_dims(g, QQ, up_to=3) == [3, 1, 0]


def test_edge_degree_two_presentation():
    g = edge_poset()
    comp = path_graded_component(g, 2, QQ)
    assert comp.presentation.ambient_labels == [("e", "a"), ("e", "b")]
    assert comp.dim == 1
    assert comp.labels() == [("e", "b")]


def test_dims_vanish_above_max_rank():
    for name in ("simplex2", "sphere2"):
        g = catalog(name).face_poset_bar()
        assert path_graded_component(g, g.max_rank + 1, QQ).dim == 0


def test_word_complex_differentials_square_to_zero():
    for name in ("simplex3", "example_singular"):
        g = catalog(name).face_poset_bar()
        for k in range(g.max_rank):
            wc = path_word_complex(g, k, QQ)
            ns = sorted(wc.mats)
            for n in ns[:-1]:
                assert is_zero(matmul(wc.mats[n + 1], wc.mats[n]))


def test_word_complex_top_tail():
    g = catalog("sphere2").face_poset_bar()
    d = g.max_rank - 1
    wc = path_word_complex(g, d, QQ)
    assert set(wc.blocks) == {d}
    assert wc.blocks[d].dim == len(g.at_rank(d + 1))


def test_word_complex_bad_tail():
    with pytest.raises(GraphError, match="outside"):
        path_word_complex(edge_poset(), 5, QQ)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interval_graph_cohomology_profile(n):
    # closed-simplex posets have one maximal vertex: cohomology sits on the
    # diagonal, and the top two head degrees vanish off it
    g = catalog(f"simplex{n}").face_poset_bar()
    d = g.max_rank - 1
    for k in range(d + 1):
        dims = [h for h, _ in word_cohomology(g, k, QQ)]
        assert dims[0] == 1, (n, k)
        if k < d:
            assert dims[d - k] == 0
        if k < d - 1:
            assert dims[d - 1 - k] == 0
        assert all(h == 0 for h in dims[1:]), (n, k, dims)


def test_koszul_decide_requires_uniform():
    with pytest.raises(GraphError, match="uniform"):
        koszul_decide(nonuniform_poset(), QQ)


def test_koszul_decide_bar_posets():
    for name in ("point", "simplex2", "sphere2", "example_singular",
                 "three_triangles_shared_edge"):
        g = catalog(name).face_poset_bar()
        v = koszul_decide(g, QQ)
        assert v.koszul and v.witness is None, name
        assert all(ok for _, _, ok in v.checked)


def test_koszul_decide_singular_hat():
    g = catalog("example_singular").face_poset_hat()
    for f in FIELDS:
        v = koszul_decide(g, f)
        assert not v.koszul
        assert v.witness.vertex == "1bar"
        assert (v.witness.n, v.witness.k) == (2, 1)
        assert v.witness.cocycle  # nonzero representative serialized
        assert v.checked[-1][2] is False


def test_witness_cocycle_is_a_nonzero_cocycle():
    g = catalog("example_singular").face_poset_hat()
    v = koszul_decide(g, QQ)
    w = v.witness
    sub = below(g, w.vertex)
    wc = path_word_complex(sub, w.k, QQ)
    labels = wc.blocks[w.n].labels()
    vec = {labels.index(word): c for word, c in w.cocycle}
    assert vec
    assert wc.mats[w.n].apply(vec) == {}

    img = image_vectors(wc.mats[w.n - 1]) if w.n - 1 in wc.mats else []
    assert reduce_mod_rows(vec, rref_rows(img, QQ), QQ)


def test_decision_deterministic_on_fresh_objects():
    from cwkoszul.cw import complex_from_dict

    data = catalog("example_singular").to_dict()
    runs = []
    for _ in range(2):
        x = complex_from_dict(data)
        v = koszul_decide(x.face_poset_hat(), QQ)
        runs.append((v.witness.vertex, v.witness.n, v.witness.k, v.witness.cocycle))
    assert runs[0] == runs[1]


def test_koszul_decide_rp2_depends_on_characteristic():
    x = catalog("rp2_six")
    g = x.face_poset_hat()
    v2 = koszul_decide(g, GF(2))
    assert not v2.koszul and (v2.witness.n, v2.witness.k) == (1, 0)
    assert koszul_decide(g, QQ).koszul
    assert koszul_decide(g, GF(3)).koszul


def test_whole_graph_criterion_agrees():
    g1 = catalog("simplex2").face_poset_bar()
    assert whole_graph_criterion(g1, QQ) is koszul_decide(g1, QQ).koszul is True
    g2 = catalog("example_singular").face_poset_hat()
    assert whole_graph_criterion(g2, QQ) is koszul_decide(g2, QQ).koszul is False


def test_block_sum_identity():
    # every graded component splits along head vertices (and head ranks)
    for name in ("simplex2", "sphere2", "example_singular"):
        g = catalog(name).face_poset_bar()
        for m in range(1, g.max_rank + 1):
            comp = path_graded_component(g, m, QQ)
            by_rank = sum(
                path_block_component(g, m, r, QQ).dim for r in range(1, g.max_rank + 1)
            )
            assert comp.dim == by_rank, (name, m)


def test_subalgebra_dimension_identity():
    # the span of words inside an interval matches the interval's own algebra
    g = catalog("sphere2").face_poset_bar()
    for x in g.vertex_ids():
        if g.rank(x) == 0:
            continue
        sub = below(g, x)
        for m in range(1, g.max_rank + 1):
            comp = path_graded_component(g, m, QQ)
            inside = sum(
                1 for w in comp.labels() if all(v == x or g.le(v, x) for v in w)
            )
            assert inside == path_graded_component(sub, m, QQ).dim, (x, m)


def test_annihilator_depth_zero_always_holds():
    for name in ("simplex2", "sphere1", "example_singular"):
        g = catalog(name).face_poset_bar()
        for x in g.vertex_ids(skip_bottom=True):
            assert annihilator_check(g, QQ, x, 0), (name, x)


def test_annihilator_all_depths_on_small_koszul_graphs():
    for name in ("sphere1", "simplex2"):
        g = catalog(name).face_poset_bar()
        for x in g.vertex_ids(skip_bottom=True):
            for n in range(g.rank(x) + 1):
                assert annihilator_check(g, QQ, x, n), (name, x, n)


def test_annihilator_fails_where_decision_says():
    g = catalog("example_singular").face_poset_hat()
    v = koszul_decide(g, QQ)
    w = v.witness
    # cohomology in head degree n sits against multiplication by the sphere
    # sum at depth (rank - 1) - n - 1
    depth = g.rank(w.vertex) - 2 - w.n
    assert annihilator_check(g, QQ, w.vertex, depth) is False
    assert annihilator_check(g, QQ, w.vertex, 0) is True


def test_annihilator_input_validation():
    g = edge_poset()
    with pytest.raises(GraphError, match="unknown"):
        annihilator_check(g, QQ, "zz", 0)
    with pytest.raises(GraphError, match="outside"):
        annihilator_check(g, QQ, "e", 3)
    with pytest.raises(GraphError, match="no generator"):
        annihilator_check(g, QQ, BOTTOM, 0)
    assert annihilator_check(g, QQ, "e", 2) is True  # vacuous at full depth


def test_sign_of_path():
    x = catalog("simplex1")
    assert sign_of_path(x, ("01", "0")) == x.incidence[("01", "0")]
    assert sign_of_path(x, ("01", "1")) == x.incidence[("01", "1")]
    with pytest.raises(ComplexError, match="not a codimension-1"):
        sign_of_path(x, ("01", "01"))
    with pytest.raises(ComplexError, match="empty"):
        sign_of_path(x, ())


def test_signed_words_are_path_independent():
    for name in ("sphere2", "example_singular"):
        x = catalog(name)
        g = x.face_poset_bar()
        for beta in x.cells():
            for alpha in sorted(closed_cell(x, beta).cells):
                nb, ka = x.cell_dim(beta), x.cell_dim(alpha)
                if nb == ka:
                    continue
                block = path_block_component(g, nb - ka + 1, nb + 1, QQ)
                idx = {w: i for i, w in enumerate(block.presentation.ambient_labels)}
                chains = g.maximal_chains(beta, alpha)
                images = {
                    tuple(sorted(block.presentation.project(
                        {idx[c]: QQ.of(sign_of_path(x, c))}
                    ).items()))
                    for c in chains
                }
                assert len(images) == 1, (name, beta, alpha)


def test_comparison_map_is_chain_map():
    for name in ("simplex2", "sphere2"):
        x = catalog(name)
        g = x.face_poset_bar()
        d = x.dim
        for f in (QQ, GF(2)):
            for k, layer in enumerate(reduced_layers(x, f)):
                blocks = HeadBlocks(g, f)
                wc = path_word_complex(g, k, f)
                _, mats = reduced_chain(layer)
                for n in range(k, d):
                    phi_n = comparison_map(x, n, layer=layer, blocks=blocks)
                    phi_n1 = comparison_map(x, n + 1, layer=layer, blocks=blocks)
                    assert matmul(phi_n1, mats[n - k]) == matmul(wc.mats[n], phi_n)


def test_comparison_iso_on_catalog():
    for name in ("point", "simplex2", "sphere2", "rp2_six", "example_singular"):
        x = catalog(name)
        ok, details = comparison_iso_check(x, QQ)
        assert ok, name
        for n, k, ldim, rdim, good in details:
            assert ldim == rdim and good
            if n == k:
                assert ldim == len(x.cells(n))
