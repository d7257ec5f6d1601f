"""Exact rational matrices and integer lattice arithmetic.

Everything in this module is exact: scalars are ``fractions.Fraction``,
lattices are free abelian subgroups of Q^n held in a canonical form, and all
normal-form computations (Hermite, Smith) run over arbitrary-precision
integers.  The canonical lattice representation is a row-style Hermite normal
form over a cleared common denominator, stored as sparse rows of (column,
value) pairs, so lattice equality is a plain comparison of the stored data.
Every Hermite form is built by one routine, the in-place insertion of
``SparseHNF``, which also owns the exponent test that accepts most vectors
offered to a full-rank lattice without reducing them; dense rows are built
only where a caller asks for them (``hnf_int``) and for Gram matrices and
linear solves, and an integer matrix meets a sparse row in
``apply_columns``.

Values are immutable, a SparseHNF apart; every other operation is a pure
function of its inputs and may be evaluated concurrently without coordination.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces."""


class NotSublatticeError(ValueError):
    """A quotient was requested for B not contained in A."""


class SpanMismatchError(ValueError):
    """A finite quotient was requested but the rational spans differ."""


class DegenerateFormError(ValueError):
    """A bilinear form is singular on the relevant span."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (signed decimal digits) into a Fraction.

    Anything else, decimal points and exponents included, raises ValueError.
    """
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text.strip()):
        raise ValueError(f"not of the form p/q: {text!r}")
    return Fraction(text.strip())


def as_integer(value, what: str) -> int:
    """``value`` as an int; 2.0 passes, while 2.5, "2" or True raises."""
    if type(value) is int:
        return value
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or isinstance(value, bool):
        raise ValueError(f"{what}: not an integer: {value!r}")
    return n


def format_rational(value: Fraction | int) -> str:
    """``"p/q"``, or ``"p"`` when the denominator is 1 (str of either)."""
    return str(value)


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

class QMatrix:
    """Immutable dense matrix over the rationals, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        ents = tuple(Fraction(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(
                f"entry count {len(ents)} != rows*cols = {rows * cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = [e for row in rows for e in row]
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       [self.entry(i, j) for j in range(self.cols)
                        for i in range(self.rows)])

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ")
        return QMatrix(self.rows, self.cols,
                       [a + b for a, b in zip(self.entries, other.entries)])

    def scale(self, c) -> "QMatrix":
        c = Fraction(c)
        return QMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        a, b = self.row_list(), other.row_list()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum((ai[k] * b[k][j] for k in range(self.cols)),
                               Fraction(0)))
        return QMatrix(self.rows, other.cols, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def is_symmetric(self) -> bool:
        return (self.rows == self.cols
                and all(self.entry(i, j) == self.entry(j, i)
                        for i in range(self.rows) for j in range(i)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatchError("trace of non-square matrix")
        return sum((self.entry(i, i) for i in range(self.rows)), Fraction(0))

    def inverse(self) -> "QMatrix":
        """Exact inverse by fraction-free elimination.

        Raises DegenerateFormError if singular.
        """
        n = self.rows
        if n != self.cols:
            raise DimensionMismatchError("inverse of non-square matrix")
        if not n:
            return QMatrix(0, 0, [])
        den = lcm(1, *(e.denominator for e in self.entries))
        a = [[int(x * den) for x in row] for row in self.row_list()]
        det, y = _bareiss_solve(a, [[int(i == j) for j in range(n)]
                                    for i in range(n)])
        return QMatrix(n, n, [Fraction(den * x, det)
                              for row in y for x in row])


# ---------------------------------------------------------------------------
# integer normal forms
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple:
    """Return (x, y, g) with x*a + y*b == g = gcd(a, b), g the positive gcd."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _bareiss_solve(m: list, b: list) -> tuple:
    """(d, Y) with M Y = d B and d = +-det(M), for square integer M.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): every division
    by the previous pivot is exact, so all entries stay integers, and at the
    end each diagonal entry equals d.  ``m`` and ``b`` are sequences of
    integer rows.  Raises DegenerateFormError if M is singular.
    """
    n = len(m)
    a = [list(mr) + list(br) for mr, br in zip(m, b)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise DegenerateFormError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i == k:
                continue
            ri = a[i]
            f = ri[k]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
            elif p != prev:
                a[i] = [p * x // prev for x in ri]
        prev = p
    return prev, [row[n:] for row in a]


def hnf_int(rows: Iterable[Sequence[int]], cols: int) -> list:
    """Canonical row Hermite normal form of the integer row span.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped, and rows are ordered by pivot column.
    The result depends only on the row span, not on row order.
    """
    return [list(row) for row in ZLattice._from_ints(cols, 1, rows).rows]


def smith_invariants(rows: Sequence[Sequence[int]]) -> list:
    """Invariant factors d1 | d2 | ... of an integer matrix (nonzero only)."""
    return smith_of_hnf(ZLattice._from_ints(
        len(rows[0]) if rows else 0, 1, rows).nonzeros)


def smith_of_hnf(nonzeros: Sequence) -> list:
    """Invariant factors of the matrix with the canonical HNF rows
    ``nonzeros``, sparse and in pivot order as a ZLattice stores them.

    Hermite forms of the transpose and of the matrix alternate until every
    row has one nonzero (Kannan-Bachem 1979).  The leading pivot of each
    transposed form is the gcd of the leading row, so it shrinks, or that
    row and column clear; this needs row t of one form to be column t of
    the next, in pivot order.  Replacing each pair (d_i, d_j) of the
    diagonal by (gcd, lcm) then gives the divisibility chain.
    """
    while any(len(nz) > 1 for nz in nonzeros):
        columns: dict = {}
        for t, nz in enumerate(nonzeros):
            for j, x in nz:
                columns.setdefault(j, {})[t] = x
        nonzeros = ZLattice._from_sparse(
            len(nonzeros), 1, [columns[j] for j in sorted(columns)]).nonzeros
    d = [nz[0][1] for nz in nonzeros]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def column_nonzeros(m: Sequence[Sequence]) -> list:
    """The (row, entry) pairs of the nonzero entries of each column of m."""
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]]
            for j in range(len(m[0]) if m else 0)]


def apply_columns(cols: Sequence, nonzeros: Iterable, height: int) -> list:
    """m @ v, for v given by its (index, entry) nonzeros.

    ``cols`` holds the column nonzeros of m and ``height`` its row count;
    each nonzero of v meets only the nonzeros of its column.
    """
    out = [0] * height
    for j, x in nonzeros:
        for i, y in cols[j]:
            out[i] += y * x
    return out


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    """a @ b for integer matrices given by rows, as row tuples: row i is
    b^T @ a_i, and the column nonzeros of b^T are b's row nonzeros.  A
    ``b`` with no rows gives rows of width zero."""
    width = len(b[0]) if b else 0
    cols = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    return tuple(tuple(apply_columns(
        cols, [(k, x) for k, x in enumerate(row) if x], width)) for row in a)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

class ZLattice:
    """Free abelian subgroup of Q^n in canonical form.

    The lattice is ``rows / den`` for its canonical integer HNF basis and
    least positive ``den``.  Only sparse rows are stored, in pivot order:
    ``nonzeros[t]`` holds the (column, value) pairs of row t's nonzeros in
    column order, and ``row_of`` maps each pivot column to its row; dense
    ``rows`` are derived on each read.  Canonicalization is idempotent, so
    equality is structural equality of the stored data.
    """

    __slots__ = ("ambient_dim", "den", "nonzeros", "row_of")

    def __init__(self, ambient_dim: int, den: int, nonzeros: tuple) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nonzeros", nonzeros)
        object.__setattr__(self, "row_of",
                           {nz[0][0]: t for t, nz in enumerate(nonzeros)})

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("ZLattice is immutable")

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Sequence]) -> "ZLattice":
        """Canonicalize the Z-span of the given rational rows."""
        rational = [[Fraction(x) for x in row] for row in rows]
        for row in rational:
            if len(row) != ambient_dim:
                raise DimensionMismatchError(
                    f"row length {len(row)} != ambient_dim {ambient_dim}")
        den = lcm(1, *(x.denominator for row in rational for x in row))
        return cls._from_ints(ambient_dim, den, [
            [int(x * den) for x in row] for row in rational])

    @classmethod
    def _from_ints(cls, ambient_dim: int, den: int,
                   rows: Iterable[Sequence[int]]) -> "ZLattice":
        """Canonicalize the Z-span of ``rows / den``, for integer rows.

        ``den`` must be positive; it need not be the least denominator.
        """
        return cls._from_sparse(ambient_dim, den, (
            {j: x for j, x in enumerate(row) if x} for row in rows))

    @classmethod
    def _from_sparse(cls, ambient_dim: int, den: int, rows: Iterable[dict],
                     left: int = 0) -> "ZLattice":
        """The lattice over ``den`` of the rows of the HNF of the integer
        ``{column: int}`` rows (consumed) with a pivot at column ``left`` or
        right of it, shifted ``left`` columns to the left.

        With ``left`` = 0 that is the Z-span of ``rows / den``.  For rows
        [x M | x N], the kept rows span the x N with x M = 0: an echelon
        combination with a zero left block uses no row pivoted in it.
        """
        h = SparseHNF(left + ambient_dim)
        for w in rows:
            h._insert(w)
        kept = [nz for nz in sorted(h.nonzeros) if nz[0][0] >= left]
        g = gcd(den, *(x for nz in kept for _, x in nz))
        return cls(ambient_dim, den // g, tuple(
            tuple((j - left, x // g) for j, x in nz) for nz in kept))

    @classmethod
    def zero(cls, ambient_dim: int) -> "ZLattice":
        return cls(ambient_dim, 1, ())

    @classmethod
    def standard(cls, n: int) -> "ZLattice":
        return cls.from_rows(n, [[int(i == j) for j in range(n)]
                                 for i in range(n)])

    @property
    def rows(self) -> tuple:
        """Dense row tuples of the canonical basis, built on each read."""
        rows = [[0] * self.ambient_dim for _ in self.nonzeros]
        for row, nz in zip(rows, self.nonzeros):
            for j, x in nz:
                row[j] = x
        return tuple(map(tuple, rows))

    @property
    def rank(self) -> int:
        return len(self.nonzeros)

    @property
    def basis(self) -> QMatrix:
        """Canonical rational basis, one generator per row."""
        return QMatrix(self.rank, self.ambient_dim,
                       [x for row in self.basis_rows() for x in row])

    def basis_rows(self) -> list:
        return [self.basis_row(i) for i in range(len(self.nonzeros))]

    def basis_row(self, i: int) -> list:
        """Row i of the canonical basis, as Fractions."""
        row = dict(self.nonzeros[i])
        return [Fraction(row.get(j, 0), self.den)
                for j in range(self.ambient_dim)]

    def scale(self, c) -> "ZLattice":
        """c times the lattice.  For c = +-p / q the canonical rows of p R
        are p times those of R, so only the common factor of the new
        denominator and the entries is divided out."""
        c = Fraction(c)
        if c == 0:
            return ZLattice.zero(self.ambient_dim)
        p, den = abs(c.numerator), self.den * c.denominator
        g = gcd(den, *(p * x for nz in self.nonzeros for _, x in nz))
        return ZLattice(self.ambient_dim, den // g, tuple(
            tuple((j, p * x // g) for j, x in nz) for nz in self.nonzeros))

    def coordinates(self, vector: Sequence) -> list | None:
        """Integer coordinates of ``vector`` in the canonical basis, or None."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatchError("vector has wrong length")
        vector = [Fraction(x) for x in vector]
        den = lcm(1, *(x.denominator for x in vector))
        return self.int_coordinates(
            {j: x.numerator * (den // x.denominator)
             for j, x in enumerate(vector) if x}, den)

    def int_coordinates(self, w: dict, den: int) -> list | None:
        """Integer coordinates of ``w / den``, or None if it is not a member.

        ``w`` maps columns to ints and is left unchanged; ``den`` is
        positive.  With g = gcd(den, *w), self.den * w / den is integral
        iff den / g divides self.den.  The least live column j of the
        rescaled copy is skipped if zero, and otherwise must be the pivot of
        a row, whose coordinate it fixes and whose other nonzeros (right of
        j) are subtracted.  Pivots increase strictly, so j is reached once
        every row with a smaller pivot is subtracted, as in row order; a
        nonzero at a non-pivot column can never be cleared, and rows whose
        pivot is never reached keep coordinate zero.
        """
        g = gcd(den, *w.values())
        f, r = divmod(self.den, den // g)
        if r:
            return None
        w = {j: x // g * f for j, x in w.items() if x}
        coords = [0] * len(self.nonzeros)
        while w:
            j = min(w)
            x = w.pop(j)
            if not x:
                continue
            t = self.row_of.get(j)
            if t is None:
                return None
            nz = self.nonzeros[t]
            q, r = divmod(x, nz[0][1])
            if r:
                return None
            coords[t] = q
            for col, y in nz[1:]:
                w[col] = w.get(col, 0) - q * y
        return coords

    def __contains__(self, vector) -> bool:
        return self.coordinates(vector) is not None

    def __eq__(self, other) -> bool:
        return (isinstance(other, ZLattice)
                and self.ambient_dim == other.ambient_dim
                and self.den == other.den and self.nonzeros == other.nonzeros)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.den, self.nonzeros))

    def __repr__(self) -> str:
        return (f"ZLattice(dim={self.ambient_dim}, rank={self.rank}, "
                f"den={self.den})")


class SparseHNF:
    """A lattice rows / den in canonical form, grown in place one vector at
    a time (Cohen 1993, section 2.4).  It is the one Hermite reduction of
    the package: every canonical form is built by inserting rows into one,
    here or in ZLattice._from_sparse.

    It holds the ``den``, ``nonzeros`` and ``row_of`` of the equal
    ``ZLattice``, but with rows in the order their pivots were made, and
    ``above`` maps a column to the rows with a nonzero there right of their
    pivot.  The lattice only grows, so a pivot once made stays, and so does
    its row number.

    Most vectors offered to a full-rank lattice are accepted without
    reducing them.  A full-rank L = M / den_L, with M in Z^n, contains
    e * Z^n / den_L, where e is the exponent of Z^n / M (its largest Smith
    invariant), so w / den lies in L whenever den * e divides den_L *
    gcd(w).  ``exponent()`` gives the pair (den_L, e) that test uses, taken
    when the lattice is first offered a vector at full rank and again
    after each new snapshot, not on every change.  Lattices only grow, so
    a pair from an earlier lattice stays sound; ``add`` and ``contains``
    never decide membership differently for it, they only skip the
    reduction.
    """

    def __init__(self, ambient_dim: int) -> None:
        self.ambient_dim, self.den, self._lattice = ambient_dim, 1, None
        self.row_of, self.nonzeros, self.above = {}, [], {}
        self._pair = None

    def lattice(self) -> ZLattice:
        """The lattice as a ZLattice, built once per change; a new one
        renews the exponent pair when the test next needs it."""
        if self._lattice is None:  # rows in pivot order
            self._lattice = ZLattice(self.ambient_dim, self.den,
                                     tuple(sorted(self.nonzeros)))
            self._pair = None
        return self._lattice

    def exponent(self) -> tuple | None:
        """The pair (den_L, e) of the exponent test, None below full rank."""
        if self._pair is None and len(self.nonzeros) == self.ambient_dim:
            self._pair = (self.den, smith_of_hnf(sorted(self.nonzeros))[-1])
        return self._pair

    def _known(self, w: dict, den: int) -> bool:
        """Whether the exponent test puts w / den in the lattice."""
        e = self._pair or self.exponent()
        return e is not None and e[0] * gcd(*w.values()) % (den * e[1]) == 0

    def contains(self, w: dict, den: int) -> bool:
        """Whether w / den is a member, by the exponent test or else by
        ZLattice.int_coordinates."""
        return (self._known(w, den)
                or ZLattice.int_coordinates(self, w, den) is not None)

    def add(self, w: dict, den: int) -> bool:
        """Add ``w / den`` to the lattice; True if that changed it.

        With g = gcd(den, *w), the rows are rescaled by f = D / self.den to
        D = lcm(self.den, den / g), and w, over D, is inserted; a member
        has f = 1.  The rows and D stay coprime, as gcd(D, f * old rows) =
        f and gcd(D, vector) = D / (den / g) are coprime.
        """
        if self._known(w, den):
            return False
        g = gcd(den, *w.values())
        wden = den // g
        den = lcm(self.den, wden)
        f, c = den // self.den, den // wden
        if f > 1:
            self.nonzeros = [tuple((j, f * x) for j, x in nz)
                             for nz in self.nonzeros]
            self.den = den
        return self._insert({j: x // g * c for j, x in w.items()})

    def _insert(self, v: dict) -> bool:
        """Insert the integer vector ``v`` (a {column: int} map, consumed);
        True if that changed the rows.

        v is reduced at its least live column j.  A row whose pivot p
        divides its entry x is subtracted; otherwise the row and v become
        their _xgcd combination, with pivot gcd(p, x), and the remainder,
        which goes on reducing.  A member reduces to nothing this way, as
        in ZLattice.int_coordinates, and nothing is written.  At a column
        without a row, v made positive there becomes a new pivot row.  A
        new or combined row is reduced as it is written; once the pivots
        are final, so are the rows with an entry at a new or smaller pivot.
        """
        new = ()
        pivots = []  # the columns of new or smaller pivots
        while v:
            j = min(v)
            x = v.pop(j)
            if not x:
                continue
            t = self.row_of.get(j)
            if t is None:
                if x < 0:
                    v = {i: -y for i, y in v.items()}
                new = ((j, abs(x)),) + self._reduced(v)
                break
            nz = self.nonzeros[t]
            p = nz[0][1]
            q, r = divmod(x, p)
            if r:
                row = dict(nz[1:])
                a, b, h = _xgcd(p, x)
                cols = row.keys() | v.keys()
                comb = {i: a * row.get(i, 0) + b * v.get(i, 0) for i in cols}
                v = {i: p // h * v.get(i, 0) - x // h * row.get(i, 0)
                     for i in cols}
                self._put(t, ((j, h),) + self._reduced(comb))
                pivots.append(j)
            else:
                for i, y in nz[1:]:
                    v[i] = v.get(i, 0) - q * y
        if new:
            j = new[0][0]
            t = self.row_of[j] = len(self.nonzeros)
            self.nonzeros.append(())
            self._put(t, new)
            pivots.append(j)
        if not pivots:
            return False
        stale = set()  # the rows with an entry at one of the pivots
        for j in pivots:
            stale.update(self.above.get(j, ()))
        for t in stale:
            nz = self.nonzeros[t]
            row = nz[:1] + self._reduced(dict(nz[1:]))
            if row != nz:
                self._put(t, row)
        self._lattice = None
        return True

    def _reduced(self, v: dict) -> tuple:
        """The nonzeros of ``v`` (consumed) in column order, with each entry
        at a pivot reduced into [0, pivot) by subtracting that pivot's row,
        least column first: that changes ``v`` only right of the pivot."""
        out = []
        while v:
            j = min(v)
            x = v.pop(j)
            t = self.row_of.get(j)
            if t is not None:
                nz = self.nonzeros[t]
                q, x = divmod(x, nz[0][1])
                for i, y in nz[1:] if q else ():
                    v[i] = v.get(i, 0) - q * y
            if x:
                out.append((j, x))
        return tuple(out)

    def _put(self, t: int, nz: tuple) -> None:
        """Make the (column, value) nonzeros ``nz``, in column order, row t."""
        for j, _ in self.nonzeros[t][1:]:
            self.above[j].discard(t)
        self.nonzeros[t] = nz
        for j, _ in nz[1:]:
            self.above.setdefault(j, set()).add(t)


def hnf(matrix: QMatrix) -> QMatrix:
    """Canonical echelon basis of the integer row span of ``matrix``.

    Clears denominators, computes the row HNF, and restores the scale, so the
    output spans the same subgroup of Q^n as the input rows.  Deterministic
    and row-order independent.
    """
    lat = ZLattice.from_rows(matrix.cols, matrix.row_list())
    return lat.basis


def lattice_sum(a: ZLattice, b: ZLattice) -> ZLattice:
    """Smallest lattice containing both operands."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    den = lcm(a.den, b.den)
    return ZLattice._from_sparse(a.ambient_dim, den, [
        {j: den // lat.den * x for j, x in nz}
        for lat in (a, b) for nz in lat.nonzeros])


def lattice_intersect(a: ZLattice, b: ZLattice) -> ZLattice:
    """Largest lattice contained in both operands.

    It is read off the HNF of [u | u] for u in A and [w | 0] for w in B: a
    combination x*A + y*B with zero left block has x*A = -y*B in both, and
    every element of the intersection arises this way.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    n = a.ambient_dim
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return ZLattice._from_sparse(n, den, [
        {k: fa * x for j, x in nz for k in (j, n + j)} for nz in a.nonzeros
    ] + [{j: fb * x for j, x in nz} for nz in b.nonzeros], n)


def quotient_invariants(a: ZLattice, b: ZLattice) -> list:
    """Elementary divisors of A/B for B <= A with equal rational span."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    coords = []
    for nz in b.nonzeros:
        c = a.int_coordinates(dict(nz), b.den)
        if c is None:
            raise NotSublatticeError("B is not contained in A")
        coords.append(c)
    if b.rank != a.rank:
        raise SpanMismatchError("A/B is infinite (ranks differ)")
    if a.rank == 0:
        return []
    return smith_invariants(coords)


def quotient_exponent(a: ZLattice, b: ZLattice) -> int:
    """Least m > 0 with m*A contained in B (for B <= A, equal span)."""
    inv = quotient_invariants(a, b)
    return inv[-1] if inv else 1


def quotient_index(a: ZLattice, b: ZLattice) -> int:
    """Index [A : B] for B <= A with equal rational span."""
    return prod(quotient_invariants(a, b))


def membership(vector: Sequence, a: ZLattice) -> bool:
    """Exact test whether ``vector`` is an integral combination of A's basis."""
    return a.coordinates(vector) is not None


def int_gram(rows: Sequence[Sequence[int]],
             form: Sequence[Sequence[int]]) -> tuple:
    """rows @ form @ rows^T, for integer rows and a square integer form."""
    return mat_mul(mat_mul(rows, form), list(zip(*rows)))


def _gram_blocks(m: Sequence[Sequence[int]]) -> list:
    """Index lists of the connected blocks of a square matrix's nonzeros.

    Indices i and j share a block when a chain of nonzero entries m[i][k],
    m[k][l], ... joins them, so permuted into block order m is block
    diagonal.  Blocks come in order of their least index, each ascending.
    """
    parent = list(range(len(m)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x:
                parent[find(i)] = find(j)
    blocks: dict = {}
    for i in range(len(m)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def dual_lattice(a: ZLattice, gram: QMatrix) -> ZLattice:
    """Dual of A inside its own rational span, w.r.t. the given form.

    Returns {u in span(A) : <u, x> in Z for all x in A}.  The form must be
    symmetric and nondegenerate on span(A); the zero lattice is self-dual.

    With A = H/den and the form F/fden for integer H and F, the dual rows
    are den fden M^-1 H for the integer Gram matrix M = H F H^T.  M is
    solved one block of ``_gram_blocks`` at a time (a form that pairs each
    charge only with its negative gives a block per such pair): the
    fraction-free solve of M_b gives M_b Y_b = d_b H_b, and scaling each Y_b
    by d / d_b, for d the lcm of the block determinants |d_b|, gives
    M Y = d H, so the dual rows are den fden Y / d.
    """
    if gram.rows != a.ambient_dim or gram.cols != a.ambient_dim:
        raise DimensionMismatchError("form has wrong shape")
    if not gram.is_symmetric():
        raise ValueError("form is not symmetric")
    fden = lcm(1, *(x.denominator for x in gram.entries))
    form = [[int(x * fden) for x in row] for row in gram.row_list()]
    return int_dual_lattice(a, int_gram(a.rows, form), fden)


def int_dual_lattice(a: ZLattice, m: Sequence[Sequence[int]],
                     fden: int = 1) -> ZLattice:
    """``dual_lattice`` for a form F / fden, given by the integer Gram
    M = H F H^T of A's canonical rows H, which is not checked for shape or
    symmetry."""
    if a.rank == 0:
        return a
    h = a.rows
    solved = []
    for block in _gram_blocks(m):
        try:
            solved.append(_bareiss_solve(
                [[m[i][j] for j in block] for i in block],
                [h[i] for i in block]))
        except DegenerateFormError:
            raise DegenerateFormError("form is degenerate on the span of A")
    d = lcm(*(abs(db) for db, _ in solved))
    y = []
    for db, yb in solved:
        c = a.den * fden * d // db
        y.extend([c * x for x in row] for row in yb)
    return ZLattice._from_ints(a.ambient_dim, d, y)
