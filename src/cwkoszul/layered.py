"""Layered graphs (finite ranked posets with a unique minimum).

Vertices are string ids, totally ordered by the usual string order; every
derived enumeration (spheres, chains, witnesses) follows that order so results
are reproducible.  The minimum carries the reserved id "0bar" and is implicit
in serialized graphs; rank-1 vertices are wired to it automatically.
`closures` is the one closure walk: below each vertex here, below and above
each cell in `cw`.
"""

from __future__ import annotations


BOTTOM = "0bar"
TOP = "1bar"
RESERVED_IDS = {BOTTOM}


class GraphError(ValueError):
    pass


class NotUniformError(GraphError):
    """The graph is not uniform, so the Koszulity decision does not apply."""


def _union(items, links) -> tuple[dict[str, str], int]:
    """One union-find pass over `items` under 'share an element of links[item]'.

    Returns the parent links, a root per class, and the number of classes.
    """
    parent: dict[str, str] = {}
    owner: dict[str, str] = {}
    count = 0
    for v in items:
        parent[v] = v
        count += 1
        for c in links[v]:
            u = owner.setdefault(c, v)
            if u == v:
                continue
            # path halving keeps the trees shallow
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            w = v
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            if u != w:
                parent[w] = u
                count -= 1
    return parent, count


def closures(order, links) -> dict[str, frozenset[str]]:
    """The strict closure of each item: every item reached through one or
    more links.  `order` lists every linked item before the items that link
    to it, so each closure is the union of its links' closures."""
    out: dict[str, frozenset[str]] = {}
    for v in order:
        acc: set[str] = set()
        for w in links[v]:
            acc.add(w)
            acc.update(out[w])
        out[v] = frozenset(acc)
    return out


def linked_classes(items, links) -> list[list[str]]:
    """Partition of the sorted `items` under 'share an element of links(item)'.

    Two items are linked when their link sets meet; the classes are the
    transitive closure, each in item order, listed by smallest member.
    """
    parent, _ = _union(items, {v: links(v) for v in items})
    groups: dict[str, list[str]] = {}
    for v in items:
        root = v
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(v)
    return sorted(groups.values())


class LayeredGraph:
    """Immutable ranked poset: ranks, cover relations, cached reachability.

    `covers` are (upper, lower) pairs dropping rank by exactly one; the order
    relation is their transitive closure, materialized at construction.
    """

    def __init__(self, vertices: dict[str, int], covers: set[tuple[str, str]], name: str = ""):
        self.name = name
        verts = dict(vertices)
        if BOTTOM in verts and verts[BOTTOM] != 0:
            raise GraphError(f"reserved vertex {BOTTOM!r} must have rank 0")
        verts[BOTTOM] = 0
        for v, r in verts.items():
            if type(r) is not int or r < 0:
                raise GraphError(f"vertex {v!r} has invalid rank {r!r}")
            if r == 0 and v != BOTTOM:
                raise GraphError(f"vertex {v!r} has rank 0 but only {BOTTOM!r} may")
        cover_set = set(covers)
        for u, l in cover_set:
            if u not in verts or l not in verts:
                raise GraphError(f"cover ({u!r}, {l!r}) references unknown vertex")
            if l == BOTTOM:
                raise GraphError(f"cover ({u!r}, {BOTTOM!r}) must be left implicit")
        for v, r in verts.items():
            if r == 1:
                cover_set.add((v, BOTTOM))
        for u, l in cover_set:
            if verts[u] != verts[l] + 1:
                raise GraphError(
                    f"cover ({u!r}, {l!r}) drops rank from {verts[u]} to {verts[l]}, expected 1"
                )
        self.vertices = verts
        self.covers = frozenset(cover_set)

        lower: dict[str, list[str]] = {v: [] for v in verts}
        for u, l in cover_set:
            lower[u].append(l)
        self._lower = {v: tuple(sorted(ws)) for v, ws in lower.items()}

        for v, r in verts.items():
            if r >= 1 and not self._lower[v]:
                raise GraphError(f"vertex {v!r} of rank {r} has no lower cover")

        by_rank: dict[int, list[str]] = {}
        for v, r in verts.items():
            by_rank.setdefault(r, []).append(v)
        self._by_rank = {r: tuple(sorted(vs)) for r, vs in by_rank.items()}
        self.max_rank = max(verts.values())

        self._below = closures(self.vertex_ids(), self._lower)

    # -- basic queries ------------------------------------------------------

    def rank(self, v: str) -> int:
        try:
            return self.vertices[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def __contains__(self, v: str) -> bool:
        return v in self.vertices

    def vertex_ids(self, skip_bottom: bool = False) -> list[str]:
        out = []
        for r in sorted(self._by_rank):
            if skip_bottom and r == 0:
                continue
            out.extend(self._by_rank[r])
        return out

    def at_rank(self, r: int) -> tuple[str, ...]:
        return self._by_rank.get(r, ())

    def lower_covers(self, v: str) -> tuple[str, ...]:
        self.rank(v)
        return self._lower[v]

    def le(self, a: str, b: str) -> bool:
        self.rank(a), self.rank(b)
        return a == b or a in self._below[b]

    def strictly_below(self, v: str) -> frozenset[str]:
        self.rank(v)
        return self._below[v]

    def sphere(self, x: str, n: int) -> tuple[str, ...]:
        """Vertices strictly below x whose rank is rank(x) - n; sphere(x, 0) = (x,).

        Every vertex below x is reached from x by a chain of covers, each
        dropping the rank by one, so n steps down the lower covers reach
        exactly this level."""
        r = self.rank(x)
        if n < 0:
            raise GraphError(f"negative sphere radius {n}")
        if n == 0:
            return (x,)
        if n >= r:
            return (BOTTOM,) if n == r else ()
        lower = self._lower
        level = lower[x]
        for _ in range(n - 1):
            level = {w for v in level for w in lower[v]}
        return tuple(sorted(level))

    # -- structure predicates ------------------------------------------------

    def is_uniform(self) -> tuple[bool, tuple[str, list[list[str]]] | None]:
        """True iff every vertex of rank >= 2 has a single cover class.

        On failure the witness is (vertex, partition of its lower covers).
        """
        lower = self._lower
        for v in self.vertex_ids():
            if self.vertices[v] >= 2 and _union(lower[v], lower)[1] > 1:
                return False, (v, linked_classes(lower[v], self.lower_covers))
        return True, None

    # -- chains ---------------------------------------------------------------

    def maximal_chains(self, b: str, a: str) -> list[tuple[str, ...]]:
        """All maximal chains of [a, b] as descending tuples, lexicographically."""
        if not self.le(a, b):
            raise GraphError(f"{a!r} is not below {b!r}")
        out: list[tuple[str, ...]] = []
        stack = [b]

        def descend():
            cur = stack[-1]
            if cur == a:
                out.append(tuple(stack))
                return
            for w in self._lower[cur]:
                if w == a or a in self._below[w]:
                    stack.append(w)
                    descend()
                    stack.pop()

        descend()
        return out

    def first_maximal_chain(self, b: str, a: str) -> tuple[str, ...]:
        """The lexicographically first maximal chain of [a, b], maximal_chains(b, a)[0].

        Greedy descent: each step takes the smallest lower cover still above a,
        so no other chain is listed.
        """
        if not self.le(a, b):
            raise GraphError(f"{a!r} is not below {b!r}")
        chain = [b]
        while chain[-1] != a:
            chain.append(next(
                w for w in self._lower[chain[-1]] if w == a or a in self._below[w]
            ))
        return tuple(chain)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        verts = [
            {"id": v, "rank": r}
            for v, r in sorted(self.vertices.items())
            if v != BOTTOM
        ]
        covs = sorted([u, l] for (u, l) in self.covers if l != BOTTOM)
        return {"name": self.name, "vertices": verts, "covers": covs}

    def __eq__(self, other):
        return (
            isinstance(other, LayeredGraph)
            and self.vertices == other.vertices
            and self.covers == other.covers
        )

    def __repr__(self):
        return f"LayeredGraph({self.name!r}, {len(self.vertices)} vertices, max rank {self.max_rank})"


def graph_from_dict(data: dict) -> LayeredGraph:
    """Build a graph from the JSON schema; the minimum is implicit."""
    if not isinstance(data, dict):
        raise GraphError("graph file must contain a JSON object")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise GraphError("'name' must be a string")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list):
        raise GraphError("'vertices' must be a list")
    verts: dict[str, int] = {}
    for i, item in enumerate(raw_vertices):
        if not isinstance(item, dict) or "id" not in item or "rank" not in item:
            raise GraphError(f"vertices[{i}]: expected an object with 'id' and 'rank'")
        vid, r = item["id"], item["rank"]
        if not isinstance(vid, str) or not vid:
            raise GraphError(f"vertices[{i}]: id must be a nonempty string")
        if vid in RESERVED_IDS:
            raise GraphError(f"vertices[{i}]: id {vid!r} is reserved")
        if type(r) is not int or r < 1:
            raise GraphError(f"vertices[{i}] ({vid!r}): rank must be an integer >= 1")
        if vid in verts:
            raise GraphError(f"vertices[{i}]: duplicate id {vid!r}")
        verts[vid] = r
    raw_covers = data.get("covers", [])
    if not isinstance(raw_covers, list):
        raise GraphError("'covers' must be a list")
    covers: set[tuple[str, str]] = set()
    for i, pair in enumerate(raw_covers):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise GraphError(f"covers[{i}]: expected [upperId, lowerId]")
        u, l = pair
        if l == BOTTOM or u == BOTTOM:
            raise GraphError(f"covers[{i}]: covers to the minimum must be omitted")
        for x in (u, l):
            if x not in verts:
                raise GraphError(f"covers[{i}]: unknown vertex {x!r}")
        covers.add((u, l))
    return LayeredGraph(verts, covers, name=name)
