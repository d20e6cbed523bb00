"""Finite regular CW complexes given combinatorially by signed incidence numbers.

A complex stores cell dimensions and the incidence map d(upper, lower) in
{-1, +1}, defined exactly for codimension-1 faces, together with the faces,
cofaces and strict lower closure of every cell; `layered.closures` builds it,
and the upper closures `validate` reads.  A cell dimension is below the
number of cells, since every dimension up to it needs a cell.

The validator checks the combinatorial consequences of regularity that
matter here: vanishing boundary-of-boundary, thin face poset, sphere Euler
characteristics of cell boundaries, connected open intervals of rank gap >= 3
in the face poset, and boundaries of cells of dimension >= 4 with the
integral homology of spheres.  Together they make every closed cell of
dimension <= 3 a ball; above that, a cell bounded by a homology sphere that
is no sphere passes, so regularity itself is not certified there.  The
diamond condition is checked without listing maximal chains: all maximal
chains of every interval form one class under one-position exchanges iff
every such open interval is connected through covers (strongly
flag-connected iff strongly connected).  A cell whose closure
`layered.boolean_closures` certifies as a Boolean lattice is a simplex, and
the Euler, diamond and homology checks skip it.  Every check reads the
complex's own closures, so validation builds no face poset; each call of
`face_poset_bar` or `face_poset_hat` builds a new one.
"""

from __future__ import annotations

from .layered import BOTTOM, TOP, LayeredGraph, boolean_closures, closures, linked_classes


class ComplexError(ValueError):
    pass


def _connected(inside, faces) -> bool:
    """True iff the covers inside `inside` connect all of it.

    Every such cover is (u, l) with l in faces[u], so a union-find over the
    faces of the cells inside sees each one once; no coface is scanned.
    Each find halves its path (every visited cell is pointed at its
    grandparent), so the trees stay shallow when cells have many faces.
    """
    parent: dict[str, str] = {}  # a cell's parent in its tree; roots have none
    parts = len(inside)
    for cell in inside:
        for l in faces[cell]:
            if l in inside:
                u = cell
                while u in parent:
                    up = parent[u]
                    parent[u] = u = parent.get(up, up)
                while l in parent:
                    up = parent[l]
                    parent[l] = l = parent.get(up, up)
                if u != l:
                    parent[u] = l
                    parts -= 1
    return parts <= 1


def _homology_sphere_defect(x: RegularCWComplex, c: str) -> str:
    """The integral homology groups of the boundary of cell c that differ
    from those of the sphere S^(d-1), d = dim c >= 2, as "H_k = ..." terms,
    empty when there are none.  Needs vanishing boundary of boundary.

    The boundary's cellular chain complex has the strict faces of c and the
    complex's incidences.  The Smith factors of each differential, read by
    `linalg.echelon_factors` off an echelon form over Z, give its rank and
    the torsion of the homology one degree below.
    """
    from .linalg import _echelon, echelon_factors

    dims, faces, inc = x.dims, x._faces, x.incidence
    d = dims[c]
    by_dim: list[list[str]] = [[] for _ in range(d)]
    for f in sorted(x._strict_faces[c]):
        by_dim[dims[f]].append(f)
    ranks, torsion = [0] * (d + 1), [()] * (d + 1)
    for k in range(1, d):
        index = {f: i for i, f in enumerate(by_dim[k - 1])}
        rows = [{index[l]: inc[(u, l)] for l in faces[u]} for u in by_dim[k]]
        factors = echelon_factors(*_echelon(rows, None))
        ranks[k], torsion[k] = len(factors), tuple(f for f in factors if f != 1)
    out = []
    for k in range(d):
        free = len(by_dim[k]) - ranks[k] - ranks[k + 1]
        if free != (k in (0, d - 1)) or torsion[k + 1]:
            terms = ([f"Z^{free}" if free > 1 else "Z"] if free else [])
            terms += [f"Z/{t}" for t in torsion[k + 1]]
            out.append(f"H_{k} = {' + '.join(terms) or '0'}")
    return ", ".join(out)


class RegularCWComplex:
    """Immutable signed incidence structure of a finite regular CW complex."""

    def __init__(self, name: str, dims: dict[str, int], incidence: dict[tuple[str, str], int]):
        if not dims:
            raise ComplexError("complex has no cells")
        for cid, d in dims.items():
            if not isinstance(cid, str) or not cid:
                raise ComplexError(f"cell id {cid!r} must be a nonempty string")
            if cid in (BOTTOM, TOP):
                raise ComplexError(f"cell id {cid!r} is reserved")
            if type(d) is not int or d < 0:
                raise ComplexError(f"cell {cid!r} has invalid dimension {d!r}")
        for (u, l), s in incidence.items():
            if u not in dims or l not in dims:
                raise ComplexError(f"incidence ({u!r}, {l!r}) references an unknown cell")
            if dims[u] != dims[l] + 1:
                raise ComplexError(
                    f"incidence ({u!r}, {l!r}) joins dimensions {dims[u]} and {dims[l]}"
                )
            if type(s) is not int or s not in (1, -1):
                raise ComplexError(f"incidence ({u!r}, {l!r}) must be +1 or -1, got {s!r}")
        for cid, d in dims.items():
            if d >= len(dims):
                raise ComplexError(
                    f"cell {cid!r} has dimension {d}, but {len(dims)} cells "
                    f"cannot fill every dimension 0..{d}"
                )
        self.name = name
        self.dims = dict(dims)
        self.incidence = dict(incidence)
        self.dim = max(dims.values())

        by_dim: dict[int, list[str]] = {}
        for cid, d in dims.items():
            by_dim.setdefault(d, []).append(cid)
        self._by_dim = {d: tuple(sorted(cs)) for d, cs in by_dim.items()}

        faces: dict[str, list[str]] = {c: [] for c in dims}
        cofaces: dict[str, list[str]] = {c: [] for c in dims}
        for (u, l) in incidence:
            faces[u].append(l)
            cofaces[l].append(u)
        self._faces = {c: tuple(sorted(fs)) for c, fs in faces.items()}
        self._cofaces = {c: tuple(sorted(fs)) for c, fs in cofaces.items()}

        self._strict_faces = closures(self.cells(), self._faces)
        self._sign = {c: -1 if d & 1 else 1 for c, d in dims.items()}
        self._report: tuple[str, ...] | None = None

    # -- basic queries ------------------------------------------------------

    def cells(self, d: int | None = None) -> tuple[str, ...]:
        if d is None:
            out: list[str] = []
            for k in sorted(self._by_dim):
                out.extend(self._by_dim[k])
            return tuple(out)
        return self._by_dim.get(d, ())

    def cell_dim(self, c: str) -> int:
        try:
            return self.dims[c]
        except KeyError:
            raise ComplexError(f"unknown cell {c!r}") from None

    def __contains__(self, c: str) -> bool:
        return c in self.dims

    def faces(self, c: str) -> tuple[str, ...]:
        self.cell_dim(c)
        return self._faces[c]

    def cofaces(self, c: str) -> tuple[str, ...]:
        self.cell_dim(c)
        return self._cofaces[c]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self._by_dim.get(d, ())) for d in range(self.dim + 1))

    def euler_characteristic(self, cells=None) -> int:
        if cells is None:
            cells = self.dims
        sign = self._sign
        return sum(sign[c] for c in cells)

    # -- validation -----------------------------------------------------------

    def validate(self) -> list[str]:
        """Combinatorial admissibility report; empty means no violations found.

        The checks run in order on the complex itself: a codimension-1 face
        for every cell of dimension >= 1, two opposite endpoints per 1-cell,
        vanishing boundary of boundary, two intermediate cells in every rank-2
        interval between cells, and sphere Euler characteristics of cell
        boundaries.  One pass over the faces of faces of each cell serves the
        boundary-of-boundary and the rank-2 checks; the report still lists
        every line of the first before any line of the second.

        Only when all of them pass is the diamond condition checked.  The
        checks above make the bar poset (the cells with an added minimum
        0bar, rank = dimension + 1) a thin layered graph: every cell of
        dimension >= 1 has a lower cover, incidences drop the dimension by
        one, and every rank-2 interval (below a 1-cell or between cells) has
        two intermediates.  An interval of rank <= 2 is one class: its
        maximal chains differ in their one interior position.  On every
        interval [a, b] of length (rank gap) >= 3 the diamond condition, that
        the maximal chains form one class under one-position exchanges,
        stands for the connectivity of the open interval (a, b) through
        covers: strongly flag-connected iff strongly connected
        (McMullen-Schulte, *Abstract Regular Polytopes*, 2002, 2B).

        - (=>) Let [a, b] have length >= 3.  The interior of a chain is
          connected through covers.  Two chains that differ by one exchange
          still share an interior element.  So if all chains form one class,
          the open interval (a, b) is connected.
        - (<=) Induct on length.  Intervals of length <= 2 are always one
          class.  If every open subinterval of length >= 3 is connected, all
          chains through one element z form one class: by induction [a, z]
          and [z, b] are each one class.  A cover path in (a, b) then links
          any two elements z and z'.

        So a ranked poset, thin or not, has a split interval iff it has a
        disconnected open interval of length >= 3; each of the latter splits,
        and each split interval contains one.  Interval by interval the two
        differ: a 4-cell W bounded by two 3-spheres glued along a circle
        0-1-2 splits 7 intervals, but only (01, W), (02, W), (12, W) are
        disconnected.

        The open interval (a, b) is read off the closures: the strict faces
        of b above a, all strict faces of b for a = 0bar.  Its covers, each a
        cell inside and one of its faces inside, must join it into one
        component.  Cells b go by dimension and then by id, and each a in
        string order among the strict faces of b and 0bar.

        Last, again only when every check before passes, the boundary of
        each cell of dimension d >= 4 must have the integral homology of
        S^(d-1) (`_homology_sphere_defect`).  The checks before force a
        sphere for d <= 3, and a complex passing them is then regular up to
        dimension 3, so the given signs compute its cellular homology
        (Massey, *A Basic Course in Algebraic Topology*, 1991, IX.7):

        - d = 1: the two endpoints, S^0.
        - d = 2: each vertex of the boundary lies on exactly two of its edges
          (the rank-2 intervals [v, c]), so the boundary is a union of
          cycles, and one cycle, as (0bar, c) is connected: S^1.
        - d = 3: the 2-cells of the boundary are discs (d = 2), every edge of
          it lies on exactly two of them ([e, c]), and the link of each
          vertex v, the open interval (v, c), is a single cycle by the same
          argument.  So the boundary is a closed surface, connected as
          (0bar, c) is, with Euler characteristic 2: S^2.

        From d = 4 on they do not: the boundary of a 4-cell can be a 3-torus
        with every check above passing.  A homology sphere that is no sphere
        still passes, so regularity itself stays uncertified there.

        A cell whose closure is Boolean (`layered.boolean_closures`) is a
        simplex: its boundary is the boundary of a simplex, with sphere
        Euler characteristic and homology, and every interval below it is
        Boolean, so connected.  The Euler, diamond and homology checks skip
        such cells, and the upper closures that the diamond check reads for
        a > 0bar are built only when some other cell of dimension >= 3 needs
        them.  The report is kept as a tuple, and each call returns a new
        list of it.
        """
        if self._report is not None:
            return list(self._report)
        report: list[str] = []
        dims, faces, inc, strict = self.dims, self._faces, self.incidence, self._strict_faces
        cells = self.cells()
        for c in cells:
            d = dims[c]
            if d >= 1 and not faces[c]:
                report.append(f"cell {c!r} of dimension {d} has no codimension-1 face")
        for c in cells:
            if dims[c] == 1:
                if len(faces[c]) != 2:
                    report.append(
                        f"1-cell {c!r} has {len(faces[c])} endpoints, expected 2"
                    )
                elif sum(inc[(c, v)] for v in faces[c]) != 0:
                    report.append(
                        f"1-cell {c!r} must have one +1 and one -1 endpoint"
                    )
        # boundary of boundary vanishes, and each rank-2 interval [a, g]
        # between cells has exactly two intermediates: the cells a of
        # dimension dim g - 2 below g are the faces of faces of g, each met
        # once per intermediate
        nonzero: list[str] = []
        mids: list[str] = []
        for g in cells:
            if dims[g] < 2:
                continue
            acc: dict[str, int] = {}
            met: dict[str, int] = {}
            for b in faces[g]:
                sb = inc[(g, b)]
                for a in faces[b]:
                    acc[a] = acc.get(a, 0) + sb * inc[(b, a)]
                    met[a] = met.get(a, 0) + 1
            for a in sorted(acc):
                if acc[a]:
                    nonzero.append(f"boundary of boundary is nonzero at ({g!r}, {a!r}): {acc[a]}")
                if met[a] != 2:
                    mids.append(
                        f"interval [{a!r}, {g!r}] has {met[a]} intermediate cells, expected 2"
                    )
        report += nonzero + mids
        # the checks below skip the cells whose closure is certified Boolean;
        # a faceless cell of dimension >= 1 would be certified as an atom,
        # and so a cell above it with fewer atoms than its rank
        boolean = boolean_closures(cells, faces, strict)
        rest = [c for c in cells if dims[c] >= 1 and boolean.get(c, 0).bit_count() != dims[c] + 1]
        # boundaries of n-cells have the Euler characteristic of S^(n-1)
        for c in rest:
            n = dims[c]
            chi = self.euler_characteristic(strict[c])
            expected = 2 if n & 1 else 0
            if chi != expected:
                report.append(
                    f"boundary of {c!r} has Euler characteristic {chi}, expected {expected}"
                )
        if not report:
            above = None
            for b in rest:
                db = dims[b]
                if db < 2:
                    continue
                inside_b = strict[b]
                low = [a for a in inside_b if dims[a] < db - 2]
                if low and above is None:
                    above = closures(reversed(cells), self._cofaces)
                low.append(BOTTOM)
                for a in sorted(low):
                    inside = inside_b if a == BOTTOM else above[a] & inside_b
                    if not _connected(inside, faces):
                        report.append(
                            f"interval [{a!r}, {b!r}] splits into several diamond classes"
                        )
        if not report:
            for c in rest:
                if dims[c] >= 4:
                    defect = _homology_sphere_defect(self, c)
                    if defect:
                        report.append(
                            f"boundary of {c!r} has {defect}, expected the integral "
                            f"homology of S^{dims[c] - 1}"
                        )
        self._report = tuple(report)
        return report

    def ensure_valid(self) -> None:
        report = self.validate()
        if report:
            raise ComplexError("; ".join(report))

    # -- face posets ------------------------------------------------------------

    def _face_poset_bar_unchecked(self) -> LayeredGraph:
        verts = {c: d + 1 for c, d in self.dims.items()}
        covers = set(self.incidence.keys())
        return LayeredGraph(verts, covers, name=self.name)

    def face_poset_bar(self) -> LayeredGraph:
        """The cell poset with an added minimum; rank = dimension + 1."""
        self.ensure_valid()
        return self._face_poset_bar_unchecked()

    def face_poset_hat(self) -> LayeredGraph:
        """The cell poset with added minimum and maximum; requires purity.

        One construction: the cells at rank dimension + 1 under the
        incidences, and TOP one rank above, covering the top cells, which are
        the maximal cells of a pure complex.
        """
        self.ensure_valid()
        if not self.is_pure():
            raise ComplexError(f"complex {self.name!r} is not pure")
        verts = {c: d + 1 for c, d in self.dims.items()}
        verts[TOP] = self.dim + 2
        covers = set(self.incidence)
        covers.update((TOP, c) for c in self.cells(self.dim))
        return LayeredGraph(verts, covers, name=f"{self.name}^" if self.name else "^")

    # -- structure predicates ------------------------------------------------------

    def is_pure(self) -> bool:
        """Every cell lies in the closure of a top-dimensional cell."""
        covered: set[str] = set()
        for c in self.cells(self.dim):
            covered.add(c)
            covered.update(self._strict_faces[c])
        return len(covered) == len(self.dims)

    def connected_by_codim1(self) -> bool:
        """Top cells form one class under sharing a codimension-1 face.

        The codimension-1 face of a point is the empty cell, which every
        point shares, so a 0-dimensional complex is one class.
        """
        if not self.is_pure():
            raise ComplexError(f"complex {self.name!r} is not pure")
        if self.dim == 0:
            return True
        return len(linked_classes(self.cells(self.dim), self.faces)) == 1

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        inc = self.incidence
        cells = [
            {"id": c, "dim": self.dims[c], "boundary": {l: inc[(c, l)] for l in self._faces[c]}}
            for c in sorted(self.dims)
        ]
        return {"name": self.name, "cells": cells}

    def __eq__(self, other):
        return (
            isinstance(other, RegularCWComplex)
            and self.name == other.name
            and self.dims == other.dims
            and self.incidence == other.incidence
        )

    def __repr__(self):
        return f"RegularCWComplex({self.name!r}, counts={self.counts()})"


def complex_from_dict(data: dict) -> RegularCWComplex:
    """Build a complex from the JSON schema, with located schema errors."""
    if not isinstance(data, dict):
        raise ComplexError("complex file must contain a JSON object")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ComplexError("'name' must be a string")
    raw_cells = data.get("cells")
    if not isinstance(raw_cells, list):
        raise ComplexError("'cells' must be a list")
    dims: dict[str, int] = {}
    boundaries: dict[str, dict] = {}
    for i, item in enumerate(raw_cells):
        if not isinstance(item, dict) or "id" not in item or "dim" not in item:
            raise ComplexError(f"cells[{i}]: expected an object with 'id' and 'dim'")
        cid, d = item["id"], item["dim"]
        if not isinstance(cid, str) or not cid:
            raise ComplexError(f"cells[{i}]: id must be a nonempty string")
        if type(d) is not int or d < 0:
            raise ComplexError(f"cells[{i}] ({cid!r}): dim must be an integer >= 0")
        if cid in dims:
            raise ComplexError(f"cells[{i}]: duplicate id {cid!r}")
        boundary = item.get("boundary", {})
        if not isinstance(boundary, dict):
            raise ComplexError(f"cells[{i}] ({cid!r}): 'boundary' must be an object")
        dims[cid] = d
        boundaries[cid] = boundary
    incidence: dict[tuple[str, str], int] = {}
    for cid, boundary in boundaries.items():
        if dims[cid] == 0 and boundary:
            raise ComplexError(f"0-cell {cid!r} must have an empty boundary")
        for fid, s in boundary.items():
            if type(s) is not int or s not in (1, -1):
                raise ComplexError(
                    f"cell {cid!r}: boundary[{fid!r}] must be +1 or -1, got {s!r}"
                )
            if fid not in dims:
                raise ComplexError(f"cell {cid!r}: boundary references unknown cell {fid!r}")
            if dims[fid] != dims[cid] - 1:
                raise ComplexError(
                    f"cell {cid!r} (dim {dims[cid]}): boundary cell {fid!r} "
                    f"has dim {dims[fid]}, expected {dims[cid] - 1}"
                )
            incidence[(cid, fid)] = s
    return RegularCWComplex(name, dims, incidence)
