"""Shared head blocks: every entry point on them equals the path-word reference."""

import random
from itertools import combinations

import pytest

from cwkoszul import cli, dualalg
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
from cwkoszul.layered import BOTTOM, TOP, GraphError, LayeredGraph, boolean_closures
from cwkoszul.linalg import GF, QQ, quotient

from helpers import (
    below,
    block_relations,
    matrix,
    path_annihilator_check,
    path_comparison_iso_check,
    path_graded_dims,
    path_whole_graph_criterion,
    path_word_complex,
    random_layered_graph,
    random_uniform_graphs,
    reference_boolean_lower_intervals,
    reference_koszul_decide,
    word_complex_labels,
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


def _graph(name, covers):
    """A layered graph whose vertex ids start with their rank."""
    return LayeredGraph({v: int(v[0]) for cover in covers for v in cover}, set(covers), name=name)


def _subset_covers(atoms, drop=()):
    """The covers between subsets of `atoms` of size >= 1, except those in
    `drop`; a subset's id is its size followed by its atoms."""
    name = lambda s: f"{len(s)}{''.join(s)}"
    return [
        (name(s), name(f))
        for r in range(2, len(atoms) + 1)
        for s in combinations(atoms, r)
        for f in combinations(s, r - 1)
        if (name(s), name(f)) not in drop
    ]


# 3abc's interval is Boolean; 3y's has Boolean counts (8 elements, 3 atoms,
# 12 covers) but 2ab and 2ab' share their atom set, so it is no Boolean lattice
COUNTERFEIT = _graph("counterfeit", _subset_covers("abc") + [("2ab'", "1a"), ("2ab'", "1b")]
                     + [("3y", e) for e in ("2ab", "2ab'", "2bc")])
# every condition but the cover count holds: 3abc misses its cover 2ac
B4_MINUS_ONE_COVER = _graph("b4_minus_one_cover", _subset_covers("abcd", {("3abc", "2ac")}))

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
                spaces, mats = word_complex(blocks, [g.sphere(x, r - n - 1) for n in range(k, r)])
                wc = path_word_complex(sub, k, field)
                ns = sorted(wc.blocks)
                assert [dim for _, dim in spaces] == [wc.blocks[n].dim for n in ns]
                labels = word_complex_labels(blocks, spaces)
                assert labels == [wc.blocks[n].labels() for n in ns], (g.name, x, k)
                assert mats == [wc.mats[n] for n in ns[:-1]], (g.name, x, k)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_decision_matches_per_interval_reference(field):
    for g in SMALL_POSETS + RANDOM + [COUNTERFEIT, B4_MINUS_ONE_COVER]:
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


def _presented_blocks(monkeypatch):
    """The ambient dimension of every block presented from now on."""
    presented = []

    def counting_quotient(labels, rel, field):
        presented.append(len(labels))
        return quotient(labels, rel, field)

    quotient = dualalg.quotient
    monkeypatch.setattr(dualalg, "quotient", counting_quotient)
    return presented


def _every_block(g):
    return [(h, m) for h in g.vertex_ids(skip_bottom=True) for m in range(1, g.rank(h) + 1)]


def _relation_matrix(blocks, h, m):
    """B(h, m)'s ambient size and relation columns, as a hashable value."""
    size, relations = block_relations(blocks, h, m)
    return size, tuple(tuple(sorted(rel.items())) for rel in relations)


def test_each_block_presented_once_per_decision(monkeypatch):
    presented = _presented_blocks(monkeypatch)
    g = catalog("simplex4").face_poset_hat()
    blocks = HeadBlocks(g, QQ)
    assert koszul_decide(g, QQ, blocks).koszul
    count = len(presented)
    # a Koszul decision visits every block B(h, m), 1 <= m <= rank(h), and
    # presents each distinct relation matrix once, shared by all its blocks
    shared = {}
    for h, m in _every_block(g):
        pres = blocks.block(h, m)[0]
        assert shared.setdefault(_relation_matrix(blocks, h, m), pres) is pres, (h, m)
    assert len(presented) == count == len(shared) < len(_every_block(g))
    presented.clear()
    koszul_decide(g, QQ)  # a second decision shares nothing with the first
    assert len(presented) == count


def _decided_vertices(monkeypatch):
    """The vertex of every word complex assembled from now on, in call order."""
    decided = []

    def recording_word_complex(blocks, heads):
        decided.append(heads[-1][0])  # the last space has the single head x
        return word_complex(blocks, heads)

    monkeypatch.setattr(dualalg, "word_complex", recording_word_complex)
    return decided


def _certified(g):
    """The vertices of rank >= 2 that `boolean_closures` certifies."""
    cert = boolean_closures(g.vertex_ids(skip_bottom=True), g._lower, g._below)
    return {v for v in cert if g.rank(v) >= 2}


def test_boolean_certificate():
    for name in ("simplex4", "sphere3", "rp2_six"):
        x = catalog(name)
        bar = x.face_poset_bar()
        cells = {v for v in bar.vertex_ids() if bar.rank(v) >= 2}
        # closed simplices are Boolean; so is the whole hat poset of a sphere
        assert _certified(bar) == cells, name
        top = {TOP} if name == "sphere3" else set()
        assert _certified(x.face_poset_hat()) == cells | top, name
    # a square 2-cell has four atoms below a rank-3 vertex
    edges = ["2ab", "2bc", "2cd", "2ad"]
    square = _graph("square", [(e, "1" + v) for e in edges for v in e[1:]]
                    + [("3s", e) for e in edges])
    assert _certified(square) == set(edges)
    assert _certified(COUNTERFEIT) == {"2ab", "2ab'", "2ac", "2bc", "3abc"}
    assert "4abcd" not in _certified(B4_MINUS_ONE_COVER)


def test_boolean_certificate_equals_the_interval_scan():
    # the O(rank) certificate per vertex against the scan of each whole interval
    rng = random.Random(20261022)
    graphs = _posets(catalog_names()) + [COUNTERFEIT, B4_MINUS_ONE_COVER]
    graphs += [random_layered_graph(rng) for _ in range(600)]
    graphs += random_uniform_graphs(200, 31)
    certified = 0
    for g in graphs:
        want = reference_boolean_lower_intervals(g)
        assert _certified(g) == want, g.to_dict()
        certified += bool(want)
    assert certified >= 300


def test_certificate_bitmasks_are_the_atoms_below():
    for g in _posets(catalog_names()) + random_uniform_graphs(50, 7):
        atoms = g.at_rank(1)
        cert = boolean_closures(g.vertex_ids(skip_bottom=True), g._lower, g._below)
        for v, mask in cert.items():
            below = {a for a in atoms if g.le(a, v)}
            assert below == {a for i, a in enumerate(atoms) if mask >> i & 1}, (g.name, v)


@pytest.mark.parametrize("name", ["simplex4", "sphere3"])
def test_one_boolean_interval_decided_per_rank(monkeypatch, name):
    g = catalog(name).face_poset_hat()
    decided = _decided_vertices(monkeypatch)
    verdict = koszul_decide(g, GF(2))
    assert verdict.koszul
    assert [v for v, _, _ in verdict.checked] == [v for v in g.vertex_ids() if g.rank(v) >= 2]
    # one vertex per rank >= 2, the maximum among them, each with all its tails
    once = sorted(set(decided), key=g.rank)
    assert [g.rank(v) for v in once] == list(range(2, g.max_rank + 1))
    assert TOP in once
    assert all(decided.count(v) == g.rank(v) for v in once)


def test_counterfeit_boolean_interval_is_decided_directly(monkeypatch):
    decided = _decided_vertices(monkeypatch)
    assert koszul_decide(COUNTERFEIT, QQ).koszul
    # 2ab stands for every rank-2 interval and 3abc for the Boolean rank-3 one
    assert sorted(set(decided)) == ["2ab", "3abc", "3y"]


def test_check_remark39_shares_the_decision_blocks(monkeypatch, capsys):
    presented = _presented_blocks(monkeypatch)
    argv = ["koszul", "catalog:sphere4", "--poset", "hat", "--field", "f2"]
    counts = []
    for extra in ([], ["--check-remark39"]):
        presented.clear()
        assert cli.main(argv + extra) == 0
        counts.append(len(presented))
    capsys.readouterr()
    # 192 blocks B(h, m) share 16 distinct relation matrices
    assert counts == [16, 16]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_shared_presentation_equals_a_fresh_quotient(field):
    blocks_seen = presentations_seen = 0
    for g in _posets(catalog_names()) + RANDOM + [COUNTERFEIT]:
        blocks = HeadBlocks(g, field)
        every = _every_block(g)
        for h, m in every:
            pres = blocks.block(h, m)[0]
            size, relations = block_relations(blocks, h, m)
            fresh = quotient(range(size), matrix(size, relations, field), field)
            assert pres.labels() == fresh.labels(), (g.name, h, m)
            units = [{j: field.one} for j in range(size)]
            assert [pres.project(u) for u in units] == [fresh.project(u) for u in units], (g.name, h, m)
        blocks_seen += len(every)
        presentations_seen += len({id(blocks.block(h, m)[0]) for h, m in every})
    assert presentations_seen < blocks_seen


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
    assert blocks.labels(vertex, 1) == [(vertex,)]


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
            spaces, mats = word_complex(blocks, [g.at_rank(n + 1) for n in range(k, top)])
            wc = path_word_complex(g, k, field)
            ns = sorted(wc.blocks)
            assert [dim for _, dim in spaces] == [wc.blocks[n].dim for n in ns], (g.name, k)
            assert word_complex_labels(blocks, spaces) == [wc.blocks[n].labels() for n in ns], (g.name, k)
            assert mats == [wc.mats[n] for n in ns[:-1]], (g.name, k)
        assert whole_graph_criterion(g, field) == path_whole_graph_criterion(g, field), g.name


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_comparison_equals_reference(field):
    for name in SMALL:
        x = catalog(name)
        assert comparison_iso_check(x, field) == path_comparison_iso_check(x, field), name
