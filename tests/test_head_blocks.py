"""Shared head blocks: complexes assembled from them equal the path-word ones."""

import pytest

from cwkoszul import dualalg
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.dualalg import HeadBlocks, koszul_decide, word_complex
from cwkoszul.linalg import GF, QQ

from helpers import random_uniform_graphs, reference_koszul_decide

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


SMALL_POSETS = _posets([n for n in catalog_names() if n not in SLOW])
RANDOM = random_uniform_graphs(30, 2024)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_assembled_complex_equals_interval_word_complex(field):
    for g in SMALL_POSETS + RANDOM:
        blocks = HeadBlocks(g, field)
        for x in g.vertex_ids(skip_bottom=True):
            sub = g.below(x)
            for k in range(g.rank(x)):
                labels, mats = blocks.word_complex(x, k)
                wc = word_complex(sub, k, field)
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
