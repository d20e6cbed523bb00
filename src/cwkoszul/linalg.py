"""Exact sparse linear algebra over Q, prime fields and Z.

One value, `Ring(p)`, names the coefficients: `p` is None for Z, 0 for Q
and the prime for F_p, and it is the `p` every elimination branches on.
A matrix is its list of columns, each a dict {row: nonzero scalar}; only
ranks of wide matrices, kernels and Smith forms split it into rows.
Scalars are in the canonical form of `Ring.of`, converted exactly, never
truncated: Python ints over Z, residues in [0, p) over F_p, and over Q an
int for every integral value and a `fractions.Fraction` for any other.

Every elimination, over F_p, Q or Z, goes through one forward loop,
`_echelon`, on dict rows with the arithmetic inline (`% p` over F_p, plain
int arithmetic over Z and over Q on integral values).  The ring sets the
pivot rule: a row's smallest column over a field, its smallest column with
a unit entry over Z, where rows without one wait in a core.  Ranks and
Smith forms read that echelon form and run no back-substitution: over Z
`echelon_factors` gives 1 per pivot and the dense Smith form of the core.
Given the pivot rows of an earlier echelon form, the loop continues it
with more rows, so the rank of a stacked matrix costs only the new rows.  The
reduced form, `_eliminate`, is the echelon form plus one back-substitution
pass; kernels, quotient presentations and cohomology representatives read
its pivot rows as they are, and the public `rref_rows` returns them with
Fraction values over Q.  The reduced row echelon form of a row space is
unique, so kernels, quotient bases and representatives depend only on the
spans involved, never on row order: they are reproducible across runs.

Values become canonical in one place, `Ring.of`.  A matrix is built from
columns whose values are canonical already, as the kernel's arithmetic
keeps them; a caller holding any other value converts it with `Ring.of`.

Every presented quotient is the cokernel of a relation map ring^r ->
ring^ambient, built by `quotient(labels, relations, ring)`.  One class,
`QuotientPresentation`, eliminates the columns of the map as they are and
reads the quotient coordinates off the pivots of their reduced form, over
Q, F_p and Z alike; it keeps the reduced pivot rows, not the map.  Over Z
rows with no unit entry may be left in a core, and only the subclass
`IntegralQuotient` adds what it needs: a dense Smith normal form of the
core, refusing a quotient with torsion (`require_free`).  `induced_map`
carries a map to quotient coordinates over either kind.  On request paths
the only presented quotients are the head blocks of the word algebra, over
a field: the pair spaces of the bigraded side are divided by their vertical
images through echelon forms (`bigraded.reduced_layer`), and no cohomology
table needs `induced_map`, since ranks of stacked echelon forms give the
same numbers.

Cohomology is read from ranks: `cohomology_dims` checks the shapes and
d o d = 0 and takes one rank per differential.  Cocycles are built only
where a caller needs them, one degree at a time, by
`cocycle_representatives`; `cochain_cohomology` returns both.  Over Z,
`integral_cochain_cohomology` reads free ranks and torsion from one Smith
form per differential, found the same way.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush


class Ring:
    """Z (p None), Q (p = 0) or F_p (p a prime below 2^31), immutable,
    compared and hashed by `p`.

    `of` gives the canonical form of a value, and the kernel's arithmetic
    keeps it: a matrix over Q built from integral entries holds ints,
    eliminations on it stay on ints, and a Fraction appears only where a
    division is inexact.  `rref_rows` and the representatives of
    `cocycle_representatives` return Fractions over Q: that is the public
    form.  Z has no division: eliminations pivot on units and Smith forms.
    """

    # a slot, not a namedtuple field: `of` reads `p` per entry (9 against 20 ns, CPython 3.11)
    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int | None):
        if p:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p >= 2**31:
                raise ValueError(f"prime {p} too large (must be < 2^31)")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Ring")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.p == other.p if type(other) is Ring else NotImplemented

    def __hash__(self):
        return hash(self.p)

    def __reduce__(self):
        return Ring, (self.p,)

    @property
    def key(self) -> str:
        return "Z" if self.p is None else f"F{self.p}" if self.p else "Q"

    def of(self, x):
        """x in the canonical form of the ring, never truncated.

        An int is reduced mod p over F_p; any other value goes through
        `Fraction(x)`.  Raises ValueError over Z for a value that is not
        integral, ZeroDivisionError over F_p when p divides its denominator.
        """
        p = self.p
        if type(x) is int:
            return x % p if p else x
        if type(x) is not Fraction:
            x = Fraction(x)
        if p:
            d = x.denominator % p
            if not d:
                raise ZeroDivisionError(f"{x} has no residue mod {p}")
            return x.numerator * pow(d, p - 2, p) % p
        if x.denominator == 1:
            return x.numerator
        if p is None:
            raise ValueError(f"{x} is not an integer")
        return x

    def __repr__(self):
        return "ZZ" if self.p is None else f"GF({self.p})" if self.p else "QQ"


QQ = Ring(0)
ZZ = Ring(None)


def GF(p: int) -> Ring:
    """The prime field F_p, for a prime p below 2^31."""
    if not p:
        raise ValueError(f"{p} is not prime")
    return Ring(p)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2^31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def field_from_spec(text: str):
    """Parse a field selector: 'q', 'f2', 'f3' or 'fp:<prime>'."""
    t = text.strip().lower()
    if t == "q":
        return QQ
    if t == "f2":
        return GF(2)
    if t == "f3":
        return GF(3)
    if t.startswith("fp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise ValueError(f"bad prime in field selector {text!r}") from None
        return GF(p)
    raise ValueError(f"unknown field selector {text!r} (expected q, f2, f3 or fp:<P>)")


# ---------------------------------------------------------------------------
# the elimination kernel


def _field_char(ring) -> int:
    """p over F_p and 0 over Q; Z has no division and is refused."""
    if ring.p is None:
        raise TypeError("Z is not a field")
    return ring.p


def _subtract(dst: dict, coeff, src: dict, p: int) -> None:
    """dst -= coeff * src in place, dropping zeros; residues mod p when p > 0.

    Over Q an integral result is stored as an int, so ints stay ints and a
    Fraction that becomes integral turns back into one.
    """
    get = dst.get
    if p:
        for j, v in src.items():
            w = (get(j, 0) - coeff * v) % p
            if w:
                dst[j] = w
            else:
                dst.pop(j, None)
    else:
        for j, v in src.items():
            w = get(j, 0) - coeff * v
            if w:
                dst[j] = w if type(w) is int or w.denominator != 1 else w.numerator
            else:
                dst.pop(j, None)


def _divide(row: dict, d, p: int) -> dict:
    """row / d; over Q an exact integral quotient stays an int, over Z (d = -1) all do."""
    if p:
        inv = pow(d, p - 2, p)
        return {j: v * inv % p for j, v in row.items()}
    out = {}
    for j, v in row.items():
        if type(v) is int and type(d) is int and not v % d:
            out[j] = v // d
        else:
            w = Fraction(v, d)
            out[j] = w.numerator if w.denominator == 1 else w
    return out


# ---------------------------------------------------------------------------
# sparse matrices


class SparseExactMatrix:
    """Immutable sparse matrix mapping column vectors: F^cols -> F^rows.

    A matrix is its list of columns, one dict {row: nonzero scalar} per
    column, as the complexes emit them and `apply` reads them.  The list is
    kept, not copied, and its values are taken as canonical for `ring`
    (`Ring.of`); only the row bounds are checked.
    """

    __slots__ = ("rows", "cols", "columns", "ring")

    def __init__(self, rows: int, columns: list[dict], ring):
        for j, col in enumerate(columns):
            for i in col:
                if not 0 <= i < rows:
                    raise IndexError(f"entry ({i},{j}) outside {rows}x{len(columns)}")
        self.rows, self.cols, self.columns, self.ring = rows, len(columns), columns, ring

    @property
    def entries(self) -> dict:
        """The nonzero entries as {(row, col): value}, built afresh on each read."""
        return {(i, j): v for j, col in enumerate(self.columns) for i, v in col.items()}

    def row_list(self) -> list[dict]:
        rows = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def apply(self, vec: dict) -> dict:
        """Matrix times column vector."""
        cols = self.columns
        p = self.ring.p
        out: dict = {}
        for j, x in vec.items():
            if x:
                _subtract(out, -x, cols[j], p)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __repr__(self):
        nnz = sum(map(len, self.columns))
        return f"SparseExactMatrix({self.rows}x{self.cols}, {nnz} nz, {self.ring!r})"


def _echelon(
    rows: list[dict], p, tails: dict[int, dict] | None = None
) -> tuple[dict[int, dict], list[dict]]:
    """A row echelon form of sparse rows over F_p (p > 0), Q (p = 0) or Z (p None).

    Returns (tails, core).  `tails` maps each pivot column, in install order,
    to its pivot row without its pivot 1; a pivot row vanishes on every pivot
    column installed before it, so over a field the pivots count the rank.
    The rows are read, not changed; over Q their values in the form of
    `Ring.of` keep the arithmetic on ints.

    Given `tails` of an earlier echelon form, the loop continues it on a
    copy: the result is an echelon form of the earlier rows and `rows`
    together, provided `rows` holds the earlier core again over Z.

    One forward loop: each row is reduced at the pivot columns it holds, in
    increasing column order (a heap), then pivots on its smallest column over
    a field and on its smallest column holding 1 or -1 over Z.  A Z row with
    no such entry waits in `core`; waiting rows are reduced again after every
    pass that added a pivot, until a pass adds none.  Over a field the loop
    makes one pass and `core` stays empty.  Over Z only unimodular row
    operations are used, and `core` ends as the rows with no unit entry,
    which vanish on every pivot column.

    Why the loop is right over Z, where a pivot row may hold columns smaller
    than its pivot: of the pivot columns it holds only ones installed after
    it, so each reduction step trades a pivot column for later-installed
    ones, and the loop ends.  And the reduced row is unique: the pivot rows
    are unitriangular on the pivot columns in install order, so row +
    span(pivot rows) has one element vanishing on every pivot column.  The
    heap order changes the work, not the result.
    """
    tails = {} if tails is None else dict(tails)
    pending, known = rows, len(tails)
    while True:
        core = []
        for src in pending:
            if p:
                row = {c: w for c, v in src.items() if (w := v % p)}
            else:
                row = {c: v for c, v in src.items() if v}
            heap = [c for c in row if c in tails]
            heapify(heap)
            while heap:
                c = heappop(heap)
                v = row.pop(c, 0)
                if v:  # else cancelled, or queued twice
                    tail = tails[c]
                    _subtract(row, v, tail, p)
                    for j in tail:
                        if j in tails:
                            heappush(heap, j)
            if not row:
                continue
            if p is None:
                pc = min((c for c, v in row.items() if v == 1 or v == -1), default=None)
                if pc is None:
                    core.append(row)
                    continue
            else:
                pc = min(row)
            pv = row.pop(pc)
            if pv != 1:
                row = _divide(row, pv, p)
            tails[pc] = row
        if not core or len(tails) == known:
            return tails, core
        pending, known = core, len(tails)


def _eliminate(rows: list[dict], p) -> tuple[dict[int, dict], list[dict]]:
    """`_echelon` with fully reduced pivot rows: no tail holds a pivot column.

    Over a field this is the reduced row echelon form, unique for a row
    space, so the result does not depend on the order of the rows, on zero
    rows or on repeated rows; each pivot is its row's smallest column.  Over
    Z the core is that of `_echelon`.

    One back-substitution pass in reverse install order: a pivot row holds
    only pivot columns installed after it, and those rows are reduced
    already.
    """
    tails, core = _echelon(rows, p)
    for c in reversed(tails):
        tail = tails[c]
        for j in [j for j in tail if j in tails]:
            _subtract(tail, tail.pop(j), tails[j], p)
    return tails, core


def _full_rows(tails: dict[int, dict]) -> list[tuple[int, dict]]:
    """(pivot column, row with its pivot 1) per pivot, by pivot column."""
    return [(c, {c: 1, **tails[c]}) for c in sorted(tails)]


def _reduce(vec: dict, tails: dict[int, dict], p: int) -> dict:
    """vec reduced by fully reduced pivot rows, given by their tails: no pivot column is left."""
    out = dict(vec)
    for c in [c for c in out if c in tails]:
        _subtract(out, out.pop(c), tails[c], p)
    return out


def rref_rows(rows: list[dict], ring) -> list[tuple[int, dict]]:
    """Reduced row echelon form of sparse row vectors over a field.

    Returns [(pivot_col, row)] sorted by pivot column; each row has a 1 at its
    pivot, which is its smallest column, and zeros at every other pivot
    column (see `_eliminate`).  Values are residues over F_p and Fractions
    over Q.
    """
    p = _field_char(ring)
    rref = _full_rows(_eliminate(rows, p)[0])
    if p:
        return rref
    return [(c, {j: Fraction(v) for j, v in row.items()}) for c, row in rref]


def span_rank(vecs: list[dict], ring) -> int:
    """Dimension of the span of sparse vectors over a field: the pivots of an echelon form."""
    return len(_echelon(vecs, _field_char(ring))[0])


def rank(m: SparseExactMatrix) -> int:
    """Rank over the field of m, eliminating the rows or the columns, whichever are fewer."""
    return span_rank(m.columns if m.cols < m.rows else m.row_list(), m.ring)


def kernel_vectors(m: SparseExactMatrix) -> list[dict]:
    """Basis of {x : m x = 0} over the field of m, one vector per free column, in reduced form."""
    ring = m.ring
    p = _field_char(ring)
    tails = _eliminate(m.row_list(), p)[0]
    vecs = {j: {j: ring.one} for j in range(m.cols) if j not in tails}
    for c in sorted(tails):
        for j, coeff in tails[c].items():
            vecs[j][c] = -coeff % p if p else -coeff
    return list(vecs.values())


# ---------------------------------------------------------------------------
# quotient presentations


class QuotientPresentation:
    """The cokernel of a relation map ring^r -> ring^ambient over Q, F_p or Z.

    The columns of the map are the relations, eliminated as they are by
    `_eliminate`: fully reduced pivot rows, one per pivot column with a 1
    there, and over Z a core of rows without a unit entry, which vanishes
    on every pivot column; over a field the core is empty.  Each pivot
    column is a combination of nonpivot columns modulo the relations, so
    ring^ambient / relations is ring^(nonpivot columns) / core.  The free
    coordinates are the nonpivot columns no core row touches: `project`
    reduces an ambient vector by the pivot rows and reads them, and `lift`
    embeds them back as ambient unit vectors, so project(lift(j)) is the
    j-th unit vector.  Only `IntegralQuotient` presents a lattice, and it
    adds the coordinates of the core.  The relation map is not kept.
    """

    def __init__(self, ambient_labels: list, relations: SparseExactMatrix, ring):
        n = len(ambient_labels)
        if relations.rows != n:
            raise ValueError("relation map does not land in the ambient basis")
        self.ambient_labels = list(ambient_labels)
        self.ring = ring
        # None selects the unit pivots of Z, which `_field_char` refuses here
        self._p = None if isinstance(self, IntegralQuotient) else _field_char(ring)
        self._tails, self._core = _eliminate(relations.columns, self._p)
        touched = {c for row in self._core for c in row}
        self._free = [j for j in range(n) if j not in self._tails and j not in touched]
        self._free_pos = {j: i for i, j in enumerate(self._free)}
        self.dim = len(self._free)

    @property
    def relation_rows(self) -> list[dict]:
        """The reduced pivot rows and the core: a basis of the span, or lattice generators."""
        return [row for _, row in _full_rows(self._tails)] + self._core

    def labels(self) -> list:
        return [self.ambient_labels[j] for j in self._free]

    def in_relation_span(self, vec: dict) -> bool:
        return not self.project(vec)

    def project(self, vec: dict) -> dict:
        pos = self._free_pos
        return {pos[j]: v for j, v in _reduce(vec, self._tails, self._p).items()}

    def lift(self, q: int) -> dict:
        return {self._free[q]: self.ring.one}

    def __repr__(self):
        return f"{type(self).__name__}(ambient={len(self.ambient_labels)}, dim={self.dim})"


class TorsionError(ValueError):
    """A relation lattice whose quotient has torsion, so no free coordinates."""


def require_free(factors: list[int]) -> None:
    """Refuse a relation lattice with an invariant factor other than 1."""
    if any(d != 1 for d in factors):
        raise TorsionError(
            f"integral quotient has torsion (invariant factors {factors}); "
            "no free coordinate system exists"
        )


class IntegralQuotient(QuotientPresentation):
    """The cokernel of an integer relation map Z^r -> Z^ambient, which must be free.

    `QuotientPresentation` over Z with the Smith core: the column transform
    q of the Smith form of the core (`_snf_reduce` on the columns its rows
    touch) gives the coordinates past the free columns.  Every invariant
    factor must be 1, else `TorsionError`.
    """

    def __init__(self, ambient_labels: list, relations: SparseExactMatrix):
        super().__init__(ambient_labels, relations, ZZ)
        cols, dense = _dense_core(self._core)
        m = len(cols)
        q = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        qinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        factors = [1] * len(self._tails)
        if self._core:
            factors += _snf_reduce(dense, q, qinv)
        require_free(factors)
        r, f = len(factors) - len(self._tails), self.dim
        # core column -> its quotient coordinates, the rows of q past the core rank
        self._core_coords = {
            c: {f + t - r: q[a][t] for t in range(r, m) if q[a][t]} for a, c in enumerate(cols)
        }
        self._core_lifts = [{cols[b]: v for b, v in enumerate(qinv[t]) if v} for t in range(r, m)]
        self.dim += m - r

    def project(self, vec: dict) -> dict:
        """Free quotient coordinates; a core column goes through the core's transform."""
        free_pos, core_coords = self._free_pos, self._core_coords
        out: dict = {}
        for c, v in _reduce(vec, self._tails, None).items():
            i = free_pos.get(c)
            if i is None:
                _subtract(out, -v, core_coords[c], None)
            else:
                out[i] = v
        return out

    def lift(self, idx: int) -> dict:
        if idx < len(self._free):
            return super().lift(idx)
        return dict(self._core_lifts[idx - len(self._free)])

    def labels(self) -> list:
        # quotient coordinates mix free columns and SNF-derived ones
        return list(range(self.dim))


def quotient(ambient_labels: list, relations: SparseExactMatrix, ring):
    """The cokernel of `relations`: ring^r -> ring^ambient, a map over the same ring.

    A `QuotientPresentation` over a field, an `IntegralQuotient` over Z.
    """
    if ring.p is None:
        return IntegralQuotient(ambient_labels, relations)
    return QuotientPresentation(ambient_labels, relations, ring)


def induced_map(f: SparseExactMatrix, src, dst) -> SparseExactMatrix:
    """The map induced by f on quotient coordinates: project o f o lift.

    `src` and `dst` come from `quotient` over the ring of f.  Raises if f
    does not carry src's relations into dst's relation span (lattice over Z);
    that always signals a construction bug upstream.
    """
    if f.cols != len(src.ambient_labels) or f.rows != len(dst.ambient_labels):
        raise ValueError("ambient shape mismatch in induced_map")
    for i, row in enumerate(src.relation_rows):
        if not dst.in_relation_span(f.apply(row)):
            raise ValueError(
                f"induced_map: image of relation row {i} is not in the target relation span"
            )
    cols = [dst.project(f.apply(src.lift(j))) for j in range(src.dim)]
    return SparseExactMatrix(dst.dim, cols, src.ring)


# ---------------------------------------------------------------------------
# cochain cohomology over a field


def _check_complex(dims: list[int], mats: list[SparseExactMatrix]) -> None:
    """Shapes fit dims and consecutive composites vanish.

    The composite is checked by applying each map to the columns of the
    previous one; no product matrix is built.
    """
    if len(mats) != max(len(dims) - 1, 0):
        raise ValueError("expected one differential less than the number of spaces")
    for i, m in enumerate(mats):
        if m.cols != dims[i] or m.rows != dims[i + 1]:
            raise ValueError(f"differential {i} has shape {m.rows}x{m.cols}, "
                             f"expected {dims[i + 1]}x{dims[i]}")
    for i in range(len(mats) - 1):
        nxt = mats[i + 1]
        for col in mats[i].columns:
            if col and nxt.apply(col):
                raise ValueError(f"composition of differentials {i} and {i + 1} is nonzero")


def cohomology_dims(dims: list[int], mats: list[SparseExactMatrix], ring) -> list[int]:
    """Dimensions of the cohomology of 0 -> C_0 -> C_1 -> ... -> C_N -> 0.

    mats[i] maps C_i -> C_{i+1} over the field `ring`; consecutive
    composites must vanish.  One
    rank per map gives h^i = dims[i] - rank(mats[i]) - rank(mats[i-1]).
    """
    _check_complex(dims, mats)
    ranks = [rank(m) for m in mats] + [0]
    out = []
    for i, d in enumerate(dims):
        h = d - ranks[i] - (ranks[i - 1] if i else 0)
        if h < 0:
            raise AssertionError(f"negative cohomology dimension {h} in degree {i}")
        out.append(h)
    return out


def cocycle_representatives(mats: list[SparseExactMatrix], i: int, dim: int, ring) -> list[dict]:
    """Representative cocycles of H^i of a complex, in degree i only.

    `dim` is the dimension of C_i.  The representatives are the echelon
    kernel vectors of mats[i] reduced by the reduced echelon form of the
    image of mats[i-1], brought to reduced echelon form by `rref_rows`, so
    over Q their values are Fractions, as a reported witness carries them.
    The complex is taken as checked by `cohomology_dims`.
    """
    p = _field_char(ring)
    if i < len(mats):
        kern = kernel_vectors(mats[i])
    else:
        kern = [{j: ring.one} for j in range(dim)]
    img = _eliminate(mats[i - 1].columns, p)[0] if i > 0 else {}
    reps = [row for _, row in rref_rows([_reduce(v, img, p) for v in kern], ring)]
    if len(reps) != len(kern) - len(img):
        raise AssertionError("cohomology representative count mismatch")
    return reps


def cochain_cohomology(
    dims: list[int], mats: list[SparseExactMatrix], ring
) -> list[tuple[int, list[dict]]]:
    """Cohomology of 0 -> C_0 -> C_1 -> ... -> C_N -> 0, with representatives.

    Returns per degree (dimension, representative cocycles), as
    `cohomology_dims` and `cocycle_representatives` give them.
    """
    hs = cohomology_dims(dims, mats, ring)
    out = []
    for i, h in enumerate(hs):
        reps = cocycle_representatives(mats, i, dims[i], ring)
        if len(reps) != h:
            raise AssertionError("cohomology representative count mismatch")
        out.append((h, reps))
    return out


# ---------------------------------------------------------------------------
# Smith normal form and integral cohomology


class SmithForm(namedtuple("SmithForm", "factors")):
    """Nonzero invariant factors d_1 | d_2 | ... | d_r of an integer matrix,
    `factors`, a tuple."""

    __slots__ = ()

    def __new__(cls, factors: tuple[int, ...]):
        for a, b in zip(factors, factors[1:]):
            if a <= 0 or b % a != 0:
                raise ValueError(f"invariant factors {factors} violate divisibility")
        if factors and factors[-1] <= 0:
            raise ValueError("invariant factors must be positive")
        return super().__new__(cls, factors)

    @property
    def rank(self) -> int:
        return len(self.factors)


def _dense_core(core: list[dict]) -> tuple[list[int], list[list[int]]]:
    """The columns the core rows touch, and the rows as a dense matrix on them."""
    cols = sorted({c for row in core for c in row})
    return cols, [[row.get(c, 0) for c in cols] for row in core]


def _snf_reduce(a: list[list[int]], q: list[list[int]] | None, qinv: list[list[int]] | None):
    """In-place SNF of dense integer matrix a; tracks column ops in q, qinv."""
    m = len(a)
    n = len(a[0]) if m else 0

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if q is not None:
            for row in q:
                row[i], row[j] = row[j], row[i]
            qinv[i], qinv[j] = qinv[j], qinv[i]

    def col_addmul(dst, src, c):  # col_dst += c * col_src
        for row in a:
            row[dst] += c * row[src]
        if q is not None:
            for row in q:
                row[dst] += c * row[src]
            for k in range(n):
                qinv[src][k] -= c * qinv[dst][k]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def row_addmul(dst, src, c):
        ai, aj = a[dst], a[src]
        for k in range(n):
            ai[k] += c * aj[k]

    def row_negate(i):
        a[i] = [-x for x in a[i]]

    def smallest(t):  # first minimal-magnitude nonzero of the block from (t, t), row-major
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:  # nothing is smaller
                        return best
        return best

    t = 0
    while t < m and t < n:
        best = smallest(t)
        if best is None:
            break
        while True:
            _, bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            piv = a[t][t]
            for i in range(t + 1, m):
                if a[i][t]:
                    row_addmul(i, t, -(a[i][t] // piv))
            for j in range(t + 1, n):
                if a[t][j]:
                    col_addmul(j, t, -(a[t][j] // piv))
            if any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n)):
                best = smallest(t)
                continue
            if abs(piv) == 1:  # a unit divides the rest of the block
                break
            # pivot divides the rest of the block?  else add the first offender's column
            offender = next((j for i in range(t + 1, m) for j in range(t + 1, n)
                             if a[i][j] % piv != 0), None)
            if offender is None:
                break
            col_addmul(t, offender, 1)
            best = smallest(t)
        if a[t][t] < 0:
            row_negate(t)
        t += 1
    return [a[i][i] for i in range(min(m, n)) if a[i][i] != 0]


def echelon_factors(tails: dict[int, dict], core: list[dict]) -> list[int]:
    """Nonzero invariant factors of the span of an echelon form; all 1 over a field.

    Its rows span the lattice by unimodular row operations.  On the pivot
    columns, in install order, the pivot rows are unitriangular, so
    unimodular row operations among them and then column operations by the
    pivot columns clear every other entry of the pivot rows.  The core
    vanishes on the pivot columns, so none of these operations touches it.
    The factors are 1 for each pivot followed by the dense `_snf_reduce` of
    the core, restricted to the columns its rows touch.
    """
    factors = [1] * len(tails)
    if core:
        factors += _snf_reduce(_dense_core(core)[1], None, None)
    return factors


def smith_normal_form(m: SparseExactMatrix) -> SmithForm:
    """Invariant factors of an integer matrix (transforms not tracked).

    Read by `echelon_factors` from the echelon form of `_echelon` over Z on
    the rows, with no back-substitution.
    """
    return SmithForm(tuple(echelon_factors(*_echelon(m.row_list(), None))))


def integral_cochain_cohomology(
    dims: list[int], mats: list[SparseExactMatrix]
) -> list[tuple[int, tuple[int, ...]]]:
    """Cohomology of a complex of free Z-modules: (free rank, torsion) per degree.

    One Smith normal form per differential gives both: its number of nonzero
    invariant factors is the rank over Q, and the factors of the (i-1)-st
    differential exceeding 1 are the torsion of H^i.
    """
    _check_complex(dims, mats)
    snfs = [smith_normal_form(m) for m in mats]
    out = []
    for i, d in enumerate(dims):
        ker = d - snfs[i].rank if i < len(snfs) else d
        if i > 0:
            prev = snfs[i - 1].rank
            tors = tuple(f for f in snfs[i - 1].factors if f != 1)
        else:
            prev, tors = 0, ()
        out.append((ker - prev, tors))
    return out
