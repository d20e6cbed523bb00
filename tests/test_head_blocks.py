"""Shared head blocks: every entry point on them equals the path-word reference."""

import pytest

from cwkoszul import dualalg
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.dualalg import (
    HeadBlocks,
    annihilator_check,
    comparison_iso_check,
    graded_dims,
    koszul_decide,
    whole_graph_criterion,
    word_complex,
)
from cwkoszul.layered import BOTTOM, GraphError
from cwkoszul.linalg import GF, QQ

from helpers import (
    below,
    path_annihilator_check,
    path_comparison_iso_check,
    path_graded_dims,
    path_whole_graph_criterion,
    path_word_complex,
    random_uniform_graphs,
    reference_koszul_decide,
)

FIELDS = (QQ, GF(2), GF(3))
# the reference builds every interval on full path words; these two catalog
# entries alone would take most of the suite's time through it
SLOW = {"simplex5", "sphere4"}


def _posets(names):
    out = []
    for name in names:
        x = catalog(name)
        out.append(x.face_poset_bar())
        if x.is_pure():
            out.append(x.face_poset_hat())
    return out


SMALL = [n for n in catalog_names() if n not in SLOW]
SMALL_POSETS = _posets(SMALL)
RANDOM = random_uniform_graphs(30, 2024)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_assembled_complex_equals_interval_word_complex(field):
    for g in SMALL_POSETS + RANDOM:
        blocks = HeadBlocks(g, field)
        for x in g.vertex_ids(skip_bottom=True):
            sub = below(g, x)
            r = g.rank(x)
            for k in range(r):
                labels, mats = word_complex(blocks, [g.sphere(x, r - n - 1) for n in range(k, r)])
                wc = path_word_complex(sub, k, field)
                ns = sorted(wc.blocks)
                assert [len(space) for space in labels] == [wc.blocks[n].dim for n in ns]
                assert labels == [wc.blocks[n].labels() for n in ns], (g.name, x, k)
                assert mats == [wc.mats[n] for n in ns[:-1]], (g.name, x, k)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_decision_matches_per_interval_reference(field):
    for g in SMALL_POSETS + RANDOM:
        got, want = koszul_decide(g, field), reference_koszul_decide(g, field)
        assert got.koszul == want.koszul, g.name
        assert got.witness == want.witness, g.name
        assert got.checked == want.checked, g.name


def test_decision_matches_reference_on_large_catalog_entries():
    for g in _posets(sorted(SLOW)):
        got, want = koszul_decide(g, GF(2)), reference_koszul_decide(g, GF(2))
        assert (got.koszul, got.witness, got.checked) == (
            want.koszul, want.witness, want.checked
        ), g.name


def test_each_block_presented_once_per_decision(monkeypatch):
    presented = []

    def counting_quotient(labels, rel, field):
        presented.append(len(labels))
        return quotient(labels, rel, field)

    quotient = dualalg.quotient
    monkeypatch.setattr(dualalg, "quotient", counting_quotient)
    g = catalog("simplex4").face_poset_hat()
    assert koszul_decide(g, QQ).koszul
    # a Koszul decision visits every block B(h, m), 1 <= m <= rank(h), once
    assert len(presented) == sum(g.rank(v) for v in g.vertex_ids(skip_bottom=True))
    presented.clear()
    koszul_decide(g, QQ)  # a second decision shares nothing with the first
    assert len(presented) == sum(g.rank(v) for v in g.vertex_ids(skip_bottom=True))


def test_block_guard():
    g = catalog("simplex2").face_poset_bar()
    blocks = HeadBlocks(g, QQ)
    with pytest.raises(GraphError, match="no generator"):
        blocks.block(BOTTOM, 1)
    vertex = g.at_rank(1)[0]
    for m in (0, 2):
        with pytest.raises(GraphError, match="outside"):
            blocks.block(vertex, m)
    with pytest.raises(GraphError, match="unknown"):
        blocks.block("zz", 1)
    assert blocks.block(vertex, 1)[0].labels() == [(vertex,)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_graded_dims_equal_reference(field):
    for g in SMALL_POSETS + RANDOM:
        assert graded_dims(g, field) == path_graded_dims(g, field), g.name
        assert graded_dims(g, field, up_to=2) == path_graded_dims(g, field, up_to=2), g.name


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_annihilator_equals_reference_at_every_vertex_and_depth(field):
    for g in SMALL_POSETS + RANDOM:
        memo: dict = {}
        for x in g.vertex_ids(skip_bottom=True):
            for n in range(g.rank(x) + 1):
                got = annihilator_check(g, field, x, n)
                assert got == path_annihilator_check(g, field, x, n, memo), (g.name, x, n)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_whole_graph_complex_and_criterion_equal_reference(field):
    for g in SMALL_POSETS + RANDOM:
        blocks = HeadBlocks(g, field)
        top = g.max_rank
        for k in range(top):
            labels, mats = word_complex(blocks, [g.at_rank(n + 1) for n in range(k, top)])
            wc = path_word_complex(g, k, field)
            ns = sorted(wc.blocks)
            assert labels == [wc.blocks[n].labels() for n in ns], (g.name, k)
            assert mats == [wc.mats[n] for n in ns[:-1]], (g.name, k)
        assert whole_graph_criterion(g, field) == path_whole_graph_criterion(g, field), g.name


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_comparison_equals_reference(field):
    for name in SMALL:
        x = catalog(name)
        assert comparison_iso_check(x, field) == path_comparison_iso_check(x, field), name
