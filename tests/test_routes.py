"""The two Koszulity routes of the hat poset: where the witness sits, and
metamorphic checks under relabelling cell ids and reorienting a cell."""

import random

import pytest

from cwkoszul.bigraded import koszul_obstructions
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.cw import RegularCWComplex
from cwkoszul.dualalg import koszul_decide
from cwkoszul.linalg import GF, QQ

FIELDS = (QQ, GF(2), GF(3))

LIGHT = [
    name for name in catalog_names()
    if name not in ("simplex5", "sphere4")
    and catalog(name).is_pure() and catalog(name).connected_by_codim1()
]


def _bidegree(verdict):
    w = verdict.witness
    return None if w is None else (w.n, w.k)


@pytest.mark.parametrize("field", FIELDS + (GF(5),), ids=repr)
def test_witness_bidegree_is_the_first_obstruction(field):
    witnesses = 0
    for name in LIGHT:
        x = catalog(name)
        verdict = koszul_decide(x.face_poset_hat(), field)
        report = koszul_obstructions(x, field)
        if verdict.witness:
            witnesses += 1
            n, k = _bidegree(verdict)
            assert (k, n) == min((k, n) for n, k, _ in report.bigraded), name
    assert witnesses  # example_singular fails over every field


def _relabelled_and_reoriented(x: RegularCWComplex, rng: random.Random):
    """x with fresh cell ids given in shuffled order and one cell of dimension
    >= 1 reoriented (every incidence it is part of negated), and the map from
    the new ids back to the old.

    A 0-cell is never reoriented: the endpoint rule of a 1-cell fixes its sign.
    """
    old = list(x.cells())
    fresh = [f"z{i:03d}" for i in range(len(old))]
    rng.shuffle(fresh)
    new = dict(zip(old, fresh))
    assert not set(fresh) & set(old)
    flipped = rng.choice([c for c in old if x.dims[c] >= 1])
    incidence = {
        (new[u], new[l]): -s if flipped in (u, l) else s
        for (u, l), s in x.incidence.items()
    }
    y = RegularCWComplex(x.name, {new[c]: d for c, d in x.dims.items()}, incidence)
    return y, {v: k for k, v in new.items()}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_routes_ignore_cell_ids_and_orientation(field):
    rng = random.Random(2024)
    for name in LIGHT:
        x = catalog(name)
        if x.dim == 0:
            continue
        y, back = _relabelled_and_reoriented(x, rng)
        assert y.validate() == [], name
        vx, vy = koszul_decide(x.face_poset_hat(), field), koszul_decide(y.face_poset_hat(), field)
        assert vy.koszul == vx.koszul and _bidegree(vy) == _bidegree(vx), name
        rx, ry = koszul_obstructions(x, field), koszul_obstructions(y, field)
        assert ry.empty == vy.koszul, name
        assert ry.bigraded == rx.bigraded and ry.cohomology == rx.cohomology, name
        assert sorted((back[a], n, h) for a, n, h in ry.relative) == rx.relative, name
