"""Truncated lattice vertex operator algebra kernel.

The Fock space of a positive definite even lattice is spanned, in each
degree, by monomials in creation modes applied to lattice-translate ground
states.  This module enumerates those graded bases up to a cutoff, evaluates
the vertex products a_k b exactly over Q, carries the invariant bilinear form
normalized by <vac, vac> = 1, and exposes the Virasoro operators built from
the canonical quadratic element.

The product kernel runs on ints: ``pair_products`` gives integer tables
over (N!)^2 at cutoff N, one per ordered monomial pair, each bucket a
tuple of packed ints (num << INDEX_BITS) | index that stays inside this
module: the kernel adds smaller buckets into a table with
``_add_bucket``, and ``vertex_product`` and every product test of the form
layer multiply int rows through ``_products_all_k``.  A table is built from
the memoized tables of smaller pairs: the commutator formula peels the
right monomial's modes, the iterate formula then the left one's, and the
base case e^alpha_k e^beta is built layer by layer from the creation
exponential E(z) = exp(sum alpha(-n) z^n / n), whose degree-e layer
satisfies e E_e = sum_{n<=e} alpha(-n) E_{e-n}.  A creation mode maps a
basis monomial to one basis monomial, so each step remaps smaller tables
by index lists and adds them with integer factors; no intermediate lands
above the degree being built.  The division by e is a checked divmod that
raises on a remainder.  The invariant form is integral.

Conventions.  A monomial is a multiset of modes gamma_i(-n) (n >= 1, i a
basis index) applied to the ground state e^alpha; its degree is the sum of
the n plus half the norm of alpha.  The tail sign of a product comes from
the bimultiplicative two-cocycle and its z-power from the tail pairing.
The bilinear form is the one the invariance identity forces once
<vac, vac> = 1: one-mode adjoints pick up a sign, so e.g.
<gamma(-1), gamma(-1)> = -<gamma, gamma>, and
<e^a, e^-a> = (-1)^(|a|^2/2) eps(a, -a).  ``invariance_identity_check``
verifies that contract coefficientwise and doubles as the construction's
oracle in the test suite.

All values are immutable; the memo tables are pure caches (a concurrent
reader sees exactly what a sequential run would produce).  Among them is one
record per monomial (``_record``: degree, last-mode peel, distinct-mode
lowerings, tail pairings), built on first use, which a table miss and the
form pairing read instead of re-deriving those facts.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import groupby
from math import comb, factorial, isqrt, lcm
from typing import Iterable, NamedTuple, Sequence

from voaforms.exact import QMatrix, as_integer, format_rational, parse_rational


# a pair_products bucket entry is (num << INDEX_BITS) | index
INDEX_BITS = 20
INDEX_MASK = (1 << INDEX_BITS) - 1


class CutoffExceededError(ValueError):
    """A product or operator would land beyond the representable degrees."""


class NotHomogeneousError(ValueError):
    """A homogeneous element was required."""


class ElementParseError(ValueError):
    """An element literal does not match the term grammar."""


class FockMonomial(NamedTuple):
    """Creation-mode multiset (sorted (n, i) pairs) over a lattice tail."""

    modes: tuple
    tail: tuple


class GradedVector:
    """Finite rational combination of Fock monomials below a cutoff."""

    __slots__ = ("terms", "cutoff")

    def __init__(self, terms: dict, cutoff: int):
        clean = {m: Fraction(c) for m, c in terms.items() if c}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "cutoff", cutoff)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("GradedVector is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GradedVector") -> "GradedVector":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return GradedVector(out, self.cutoff)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(-1)

    def scale(self, c) -> "GradedVector":
        c = Fraction(c)
        if not c:
            return GradedVector({}, self.cutoff)
        return GradedVector({m: c * v for m, v in self.terms.items()},
                            self.cutoff)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedVector)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"GradedVector({len(self.terms)} terms, cutoff={self.cutoff})"


class EvenLattice:
    """Positive definite even lattice given by its integer Gram matrix."""

    __slots__ = ("rank", "gram", "_sq")

    def __init__(self, gram: Sequence[Sequence[int]]) -> None:
        try:
            g = tuple(tuple(as_integer(x, "gram") for x in row)
                      for row in gram)
        except TypeError:
            raise ValueError("gram: not a list of rows") from None
        n = len(g)
        if n == 0:
            raise ValueError("gram: empty matrix; the rank must be at least 1")
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix is not square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
            raise ValueError("gram matrix is not symmetric")
        if any(g[i][i] % 2 for i in range(n)):
            raise ValueError("lattice not even: odd diagonal entry")
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_sq", self._completed_squares(g, n))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("EvenLattice is immutable")

    @staticmethod
    def _completed_squares(g, n):
        q = [[Fraction(g[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            if q[i][i] <= 0:
                raise ValueError("gram matrix is not positive definite")
            for j in range(i + 1, n):
                q[j][i] = q[i][j]
                q[i][j] = q[i][j] / q[i][i]
            for k in range(i + 1, n):
                for l in range(k, n):
                    q[k][l] -= q[k][i] * q[i][l]
        return tuple(tuple(row) for row in q)

    def inner(self, a: Sequence[int], b: Sequence[int]) -> int:
        g = self.gram
        return sum(g[i][j] * a[i] * b[j]
                   for i in range(self.rank) for j in range(self.rank))

    def inner_basis(self, a: Sequence[int], j: int) -> int:
        """<a, gamma_j> for integer coordinates a."""
        g = self.gram
        return sum(g[i][j] * a[i] for i in range(self.rank))

    def norm(self, a: Sequence[int]) -> int:
        return self.inner(a, a)

    def short_vectors(self, max_norm: int) -> list:
        """All lattice vectors of norm <= max_norm, sorted by (norm, coords)."""
        if max_norm < 0:
            return []
        n = self.rank
        q = self._sq
        found = []

        def bounds(center: Fraction, budget: Fraction, qii: Fraction):
            # integers x with qii*(x + center)^2 <= budget
            t = budget / qii
            num, den = t.numerator, t.denominator
            root = Fraction(isqrt(num * den), den)
            lo = -center - root - 1
            hi = -center + root + 1
            lo_i = int(lo) - 1
            hi_i = int(hi) + 1
            return [x for x in range(lo_i, hi_i + 1)
                    if qii * (x + center) ** 2 <= budget]

        def rec(i: int, budget: Fraction, partial: list):
            if i < 0:
                vec = tuple(partial[::-1])
                found.append(vec)
                return
            center = sum((q[i][j] * partial[n - 1 - j]
                          for j in range(i + 1, n)), Fraction(0))
            for x in bounds(center, budget, q[i][i]):
                used = q[i][i] * (x + center) ** 2
                rec(i - 1, budget - used, partial + [x])

        rec(n - 1, Fraction(max_norm), [])
        found.sort(key=lambda v: (self.norm(v), v))
        return found

    def to_json(self) -> dict:
        return {"rank": self.rank, "gram": [list(r) for r in self.gram]}

    @classmethod
    def from_json(cls, data: dict) -> "EvenLattice":
        """The lattice of {"gram": ..., "rank": ...}; "rank" is optional."""
        if not isinstance(data, dict):
            raise ValueError("lattice is not an object")
        if "gram" not in data:
            raise ValueError("missing field 'gram'")
        lat = cls(data["gram"])
        rank = data.get("rank", lat.rank)
        if type(rank) is not int:
            raise ValueError("field 'rank' is not an integer")
        if rank != lat.rank:
            raise ValueError("field 'rank' disagrees with 'gram'")
        return lat


def _parse_int(text: str, piece: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ElementParseError(f"number too long in {piece!r}") from None


def _mode_multisets(total: int, rank: int) -> list:
    """All multisets of (n, i) pairs with sum of n == total, canonical order."""
    results = []

    def rec(remaining, max_n, max_i, acc):
        if remaining == 0:
            results.append(tuple(acc[::-1]))
            return
        for n in range(min(remaining, max_n), 0, -1):
            itop = max_i if n == max_n else rank - 1
            for i in range(itop, -1, -1):
                rec(remaining - n, n, i, acc + [(n, i)])

    rec(total, total, rank - 1, [])
    return results


def _remove_one(modes: tuple, pair: tuple) -> tuple:
    idx = modes.index(pair)
    return modes[:idx] + modes[idx + 1:]


def _exact_div(a: int, b: int) -> int:
    """a / b for integers that must divide; a remainder is a kernel defect."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"product kernel: {a} is not divisible by {b}")
    return q


def _add_bucket(acc: dict, k: int, bucket: tuple, f: int, up=None) -> None:
    """acc[k][index] += f * num over a packed bucket, index mapped by up."""
    tgt = acc.get(k)
    if tgt is None:
        tgt = acc[k] = {}
    get = tgt.get
    if up is None:
        for p in bucket:
            x = p & INDEX_MASK
            tgt[x] = get(x, 0) + f * (p >> INDEX_BITS)
    else:
        for p in bucket:
            x = up[p & INDEX_MASK]
            tgt[x] = get(x, 0) + f * (p >> INDEX_BITS)


def _products_all_k(V: "TruncatedVOA", u: list, v: list) -> dict:
    """{k: {target index: num}} for all products u_k v below the cutoff.

    u and v are sparse int rows [(monomial, x)] over den_u and den_v; num
    is over den_u * den_v * V.product_den and may be zero.
    """
    out: dict = {}
    for m1, x in u:
        for m2, y in v:
            xy = x * y
            for k, bucket in V.pair_products(m1, m2).items():
                tgt = out.get(k)
                if tgt is None:
                    tgt = out[k] = {}
                for p in bucket:
                    i = p & INDEX_MASK
                    tgt[i] = tgt.get(i, 0) + xy * (p >> INDEX_BITS)
    return out


class TruncatedVOA:
    """Lattice VOA truncated at a maximum degree, with exact products."""

    def __init__(self, lattice: EvenLattice, cutoff: int) -> None:
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if cutoff > sys.maxsize:  # beyond the domain of math.factorial
            raise ValueError(f"cutoff must be at most {sys.maxsize}")
        self.lattice = lattice
        self.cutoff = cutoff
        # pair_products numerators are over product_den = (N!)^2
        self.product_den = factorial(cutoff) ** 2
        self._bases = {}
        self._base_index = {}
        self._records = {}
        self._prod = {}
        self._lifts = {}
        # iterate-formula lifts (mode order, k shift, factor) per mode order
        # n, built on first use
        self._iterate_lifts = {}
        self._formmat = {}
        self._omega = None
        # dim V_0 = 1 falls out of evenness + positive definiteness: the only
        # vector of norm 0 is 0 and there is no mode of degree 0.
        if len(self.graded_basis(0)) != 1:  # pragma: no cover - structural
            raise ValueError("degree-0 space is not one-dimensional")

    # -- grading ------------------------------------------------------------

    def epsilon(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        """Bimultiplicative cocycle sign: +1 on ordered basis pairs."""
        g = self.lattice.gram
        n = self.lattice.rank
        s = sum(g[i][j] * alpha[i] * beta[j]
                for i in range(n) for j in range(i))
        return -1 if s % 2 else 1

    def mono_degree(self, mono: FockMonomial) -> int:
        return (self._records.get(mono) or self._record(mono))[0]

    def _record(self, mono: FockMonomial) -> tuple:
        """(degree, peel, lowerings, pairings) of a monomial, memoized.

        peel is (n, i, w, deg w) for the last mode gamma_i(-n) and the
        monomial w left without it, or None on a bare tail; lowerings holds
        one (j, l, multiplicity, v) per distinct mode gamma_l(-j), in mode
        order, v the monomial without one copy of it; pairings[i] is
        <tail, gamma_i>.
        """
        modes, tail = mono
        lat = self.lattice
        deg = sum(n for n, _ in modes) + lat.norm(tail) // 2
        peel = None
        if modes:
            n, i = modes[-1]
            peel = (n, i, FockMonomial(modes[:-1], tail), deg - n)
        lowerings = tuple(
            (j, l, c, FockMonomial(_remove_one(modes, (j, l)), tail))
            for (j, l), c in Counter(modes).items())
        pairings = tuple(lat.inner_basis(tail, i) for i in range(lat.rank))
        rec = self._records[mono] = (deg, peel, lowerings, pairings)
        return rec

    def graded_basis(self, degree: int) -> tuple:
        """Canonically ordered monomial basis of the given degree."""
        if degree > self.cutoff:
            raise CutoffExceededError(
                f"degree {degree} beyond cutoff {self.cutoff}")
        hit = self._bases.get(degree)
        if hit is not None:
            return hit
        monos = []
        for tail in self.lattice.short_vectors(2 * degree):
            rem = degree - self.lattice.norm(tail) // 2
            for modes in _mode_multisets(rem, self.lattice.rank):
                monos.append(FockMonomial(modes, tail))
        basis = tuple(monos)
        if len(basis) >> INDEX_BITS:
            raise ValueError(f"degree {degree} has {len(basis)} monomials, "
                             f"more than pair_products can index")
        self._bases[degree] = basis
        self._base_index[degree] = {m: i for i, m in enumerate(basis)}
        return basis

    def dim(self, degree: int) -> int:
        return len(self.graded_basis(degree))

    def basis_index(self, degree: int) -> dict:
        self.graded_basis(degree)
        return self._base_index[degree]

    # -- element constructors ------------------------------------------------

    def vacuum_monomial(self) -> FockMonomial:
        return FockMonomial((), (0,) * self.lattice.rank)

    def vacuum(self) -> GradedVector:
        return GradedVector({self.vacuum_monomial(): Fraction(1)}, self.cutoff)

    def monomial_vector(self, modes: Iterable, tail: Sequence[int],
                        coeff=1) -> GradedVector:
        """coeff times the monomial of modes (n, i) = gamma_i(-n) on e^tail.

        Each mode needs integers n >= 1 and 0 <= i < rank, and the tail
        needs rank integer entries; anything else raises ValueError.
        """
        rank = self.lattice.rank
        modes = [tuple(m) for m in modes]
        for m in modes:
            if (len(m) != 2 or any(type(x) is not int for x in m)
                    or m[0] < 1 or not 0 <= m[1] < rank):
                raise ValueError(f"mode {m} is not (n, i) with integers "
                                 f"n >= 1 and 0 <= i < {rank}")
        tail = tuple(as_integer(t, "tail") for t in tail)
        if len(tail) != rank:
            raise ValueError(f"tail {tail} has {len(tail)} entries, "
                             f"not rank {rank}")
        mono = FockMonomial(tuple(sorted(modes)), tail)
        if self.mono_degree(mono) > self.cutoff:
            raise CutoffExceededError("monomial degree beyond cutoff")
        return GradedVector({mono: Fraction(coeff)}, self.cutoff)

    def degrees_of(self, v: GradedVector) -> list:
        return sorted({self.mono_degree(m) for m in v.terms})

    def degree_of(self, v: GradedVector) -> int:
        ds = self.degrees_of(v)
        if len(ds) != 1:
            raise NotHomogeneousError(f"degrees present: {ds}")
        return ds[0]

    def homogeneous_components(self, v: GradedVector) -> dict:
        comps = {}
        for m, c in v.terms.items():
            comps.setdefault(self.mono_degree(m), {})[m] = c
        return {d: GradedVector(t, self.cutoff)
                for d, t in sorted(comps.items())}

    def coords(self, v: GradedVector):
        """(degree, coefficient row over the graded basis) for homogeneous v."""
        d = self.degree_of(v)
        idx = self.basis_index(d)
        row = [Fraction(0)] * self.dim(d)
        for m, c in v.terms.items():
            row[idx[m]] = c
        return d, row

    def vector_from_coords(self, degree: int, row: Sequence) -> GradedVector:
        basis = self.graded_basis(degree)
        if len(row) != len(basis):
            raise ValueError("coefficient row has wrong length")
        return GradedVector({m: Fraction(c) for m, c in zip(basis, row) if c},
                            self.cutoff)

    # -- vertex products ------------------------------------------------------

    def pair_products(self, ma: FockMonomial, mb: FockMonomial) -> dict:
        """All products ma_k mb landing within the cutoff: {k: bucket}.

        A bucket is a tuple of ints (num << INDEX_BITS) | index, one per
        nonzero term, sorted by index: num / product_den is the coefficient
        of graded_basis(target)[index] in ma_k mb, for target = deg(ma) +
        deg(mb) - k - 1.  Only _add_bucket and _products_all_k decode them.
        Much of the library reduces to this kernel; results are memoized
        per ordered monomial pair.

        A miss builds the table from memoized tables of smaller pairs
        (Frenkel-Lepowsky-Meurman 1988), peeling the last mode gamma_i(-n)
        and reading the smaller monomials off the two ``_record``s:

        - mb = gamma_i(-n) w, by the commutator formula:
          u_k mb = gamma_i(-n) u_k w
                   - sum_j C(-n, j) (gamma_i(j) u)_{k-n-j} w,
          where gamma_i(0) u = <gamma_i, alpha> u and, for j >= 1,
          gamma_i(j) removes one left mode (j, l) with factor
          j g[i][l] times its multiplicity;
        - mb = e^beta and ma = gamma_i(-n) u, by the iterate formula:
          ma_k e^beta = sum_j C(n+j-1, j) gamma_i(-n-j) u_{k+j} e^beta
                        - (-1)^n <gamma_i, beta> u_{k-n} e^beta;
        - e^alpha_k e^beta = eps(alpha, beta) times the degree
          e = -k-1-<alpha, beta> layer E_e of alpha's creation exponential
          on e^(alpha+beta), where E_0 = 1 and
          e E_e = sum_{n=1..e} sum_i alpha_i gamma_i(-n) E_{e-n}.

        A creation mode gamma_i(-m) maps each basis monomial to one basis
        monomial, so a table is a sum of smaller tables remapped by the
        index lists of ``_raised`` and scaled by integers.  Every table
        read targets degree t - m for a lift by gamma_i(-m) and t
        otherwise, for the target t being built, so the recursion never
        leaves the cutoff.
        """
        key = (ma, mb)
        hit = self._prod.get(key)
        if hit is not None:
            return hit
        records = self._records
        ra = records.get(ma) or self._record(ma)
        rb = records.get(mb) or self._record(mb)
        cutoff = self.cutoff
        acc: dict = {}          # k -> {index: num}
        if not (ra[1] or rb[1]):            # e^alpha_k e^beta
            lat = self.lattice
            alpha, beta = ma.tail, mb.tail
            tau = tuple(a + b for a, b in zip(alpha, beta))
            deg = lat.norm(tau) // 2
            k0 = -lat.inner(alpha, beta) - 1
            if deg <= cutoff:
                acc[k0] = {self.basis_index(deg)[FockMonomial((), tau)]:
                           self.epsilon(alpha, beta) * self.product_den}
            for e in range(1, cutoff - deg + 1):
                layer: dict = {}
                for n in range(1, e + 1):
                    for i, a in enumerate(alpha):
                        if a:
                            up = self._raised(deg + e - n, n, i)
                            for x, c in acc[k0 - e + n].items():
                                layer[up[x]] = layer.get(up[x], 0) + a * c
                acc[k0 - e] = {x: _exact_div(c, e) for x, c in layer.items()}
        else:
            if rb[1]:                       # commutator formula
                n, i, w, dw = rb[1]
                u, d = ma, ra[0] + dw
                lifts = ((n, 0, 1),)    # (mode order, k shift, factor)
                z = -ra[3][i]
                g = self.lattice.gram[i]
                for j, l, c, v in ra[2]:
                    if g[l]:
                        f = j * g[l] * c * comb(n + j - 1, j)
                        for k, bucket in self.pair_products(v, w).items():
                            _add_bucket(acc, k + n + j, bucket,
                                        f if j % 2 else -f)
            else:                           # iterate formula
                n, i, u, du = ra[1]
                w, d = mb, du + rb[0]
                lifts = self._iterate_lifts.get(n)
                if lifts is None:
                    lifts = self._iterate_lifts[n] = [
                        (n + j, -j, comb(n + j - 1, j))
                        for j in range(cutoff - n + 1)]
                z = rb[3][i] * (1 if n % 2 else -1)
            for k, bucket in self.pair_products(u, w).items():
                t = d - k - 1
                for m, s, f in lifts:
                    if t + m > cutoff:
                        break
                    _add_bucket(acc, k + s, bucket, f,
                                self._raised(t, m, i))
                if z:
                    _add_bucket(acc, k + n, bucket, z)
        packed = {}
        for k, bucket in acc.items():
            b = tuple([(c << INDEX_BITS) | i
                       for i, c in sorted(bucket.items()) if c])
            if b:
                packed[k] = b
        self._prod[key] = packed
        return packed

    def _raised(self, t: int, m: int, i: int) -> list:
        """Index map of gamma_i(-m) from graded_basis(t) to t + m."""
        key = (t, m, i)
        up = self._lifts.get(key)
        if up is None:
            index = self.basis_index(t + m)
            up = self._lifts[key] = [
                index[FockMonomial(tuple(sorted(mono.modes + ((m, i),))),
                                   mono.tail)]
                for mono in self.graded_basis(t)]
        return up

    def int_rows(self, v: GradedVector):
        """(den, {degree: [(monomial, int)]}) with v the rows over den."""
        den = lcm(1, *(c.denominator for c in v.terms.values()))
        rows: dict = {}
        for m, c in v.terms.items():
            rows.setdefault(self.mono_degree(m), []).append(
                (m, c.numerator * (den // c.denominator)))
        return den, rows

    def vertex_product(self, a: GradedVector, k: int,
                       b: GradedVector) -> GradedVector:
        """The product a_k b; a degree above the cutoff raises."""
        aden, arows = self.int_rows(a)
        bden, brows = self.int_rows(b)
        acc: dict = {}
        for da, u in arows.items():
            for db, v in brows.items():
                target = da + db - k - 1
                if target > self.cutoff:
                    raise CutoffExceededError(
                        f"a_{k} b has degree {target} > cutoff {self.cutoff}")
                if target < 0:
                    continue
                row = acc.setdefault(target, {})
                for i, c in _products_all_k(self, u, v).get(k, {}).items():
                    row[i] = row.get(i, 0) + c
        den = aden * bden * self.product_den
        out = {}
        for target, row in acc.items():
            basis = self.graded_basis(target)
            for i, c in row.items():
                if c:
                    out[basis[i]] = Fraction(c, den)
        return GradedVector(out, self.cutoff)

    # -- bilinear form ---------------------------------------------------------

    def _heis_pair(self, ma: FockMonomial, mb: FockMonomial) -> int:
        """The Heisenberg part of <ma, mb>: peel ma's last mode gamma_i(-n),
        pair it with each copy of a mode gamma_l(-n) of mb."""
        if len(ma.modes) != len(mb.modes):
            return 0
        if not ma.modes:
            return 1
        records = self._records
        n, i, w, _ = (records.get(ma) or self._record(ma))[1]
        g = self.lattice.gram[i]
        return sum(-n * g[l] * c * self._heis_pair(w, v)
                   for j, l, c, v in (records.get(mb) or self._record(mb))[2]
                   if j == n and g[l])

    def pair_form(self, ma: FockMonomial, mb: FockMonomial) -> int:
        if any(a + b for a, b in zip(ma.tail, mb.tail)):
            return 0
        s = self.epsilon(ma.tail, tuple(-t for t in ma.tail))
        if (self.lattice.norm(ma.tail) // 2) % 2:
            s = -s
        return s * self._heis_pair(ma, mb)

    def bilinear_form(self, u: GradedVector, v: GradedVector) -> Fraction:
        total = Fraction(0)
        for m1, c1 in u.terms.items():
            for m2, c2 in v.terms.items():
                f = self.pair_form(m1, m2)
                if f:
                    total += c1 * c2 * f
        return total

    def form_matrix(self, degree: int) -> list:
        """Gram matrix of the invariant form on graded_basis(degree)."""
        hit = self._formmat.get(degree)
        if hit is None:
            # only monomials of opposite tails pair to a nonzero value
            basis = self.graded_basis(degree)
            by_tail: dict = {}
            for q, b in enumerate(basis):
                by_tail.setdefault(b.tail, []).append((q, b))
            hit = [[0] * len(basis) for _ in basis]
            for row, a in zip(hit, basis):
                for q, b in by_tail.get(tuple(-t for t in a.tail), ()):
                    row[q] = self.pair_form(a, b)
            self._formmat[degree] = hit
        return hit

    # -- Virasoro ---------------------------------------------------------------

    def virasoro_element(self) -> GradedVector:
        """Canonical degree-2 element whose modes give the L operators."""
        if self._omega is None:
            g = QMatrix.from_rows([list(r) for r in self.lattice.gram])
            ginv = g.inverse()
            terms: dict = {}
            for i in range(self.lattice.rank):
                for j in range(self.lattice.rank):
                    c = Fraction(1, 2) * ginv.entry(i, j)
                    if not c:
                        continue
                    mono = FockMonomial(tuple(sorted(((1, i), (1, j)))),
                                        (0,) * self.lattice.rank)
                    terms[mono] = terms.get(mono, Fraction(0)) + c
            self._omega = GradedVector(terms, self.cutoff)
        return self._omega

    def L_apply(self, n: int, v: GradedVector) -> GradedVector:
        """L(n) v realized as omega_{n+1} v."""
        return self.vertex_product(self.virasoro_element(), n + 1, v)

    def divided_translate(self, v: GradedVector, n: int) -> GradedVector:
        """v_{-n-1} vac, which equals L(-1)^n v / n! exactly."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self.vertex_product(v, -n - 1, self.vacuum())

    def is_quasi_primary(self, v: GradedVector) -> bool:
        return self.L_apply(1, v).is_zero()

    # -- invariance identity -----------------------------------------------------

    def _raising_chain(self, v: GradedVector) -> list:
        """[v, L(1)v, L(1)^2 v, ...] up to the first zero (v homogeneous)."""
        chain = [v]
        while not chain[-1].is_zero():
            chain.append(self.L_apply(1, chain[-1]))
        return chain

    def invariance_identity_check(self, a: GradedVector, u: GradedVector,
                                  v: GradedVector) -> bool:
        """Coefficientwise comparison of the two sides of the adjoint identity.

        For every representable k, <a_k u, v> must equal the alternating sum
        sum_n (-1)^deg(a)/n! <u, (L(1)^n a)_{2 deg(a) - n - k - 2} v> taken
        over the homogeneous components of a.  Degree filtering keeps every
        intermediate inside the cutoff, so the comparison is exact.
        """
        acomps = self.homogeneous_components(a)
        ucomps = self.homogeneous_components(u)
        vcomps = self.homogeneous_components(v)
        chains = {da: self._raising_chain(ac) for da, ac in acomps.items()}
        ks = set()
        for da in acomps:
            for du in ucomps:
                for dv in vcomps:
                    ks.add(da + du - dv - 1)
        for k in sorted(ks):
            lhs = Fraction(0)
            rhs = Fraction(0)
            for da, ac in acomps.items():
                for du, uc in ucomps.items():
                    dv = da + du - k - 1
                    vc = vcomps.get(dv)
                    if vc is None:
                        continue
                    lhs += self.bilinear_form(
                        self.vertex_product(ac, k, uc), vc)
                    sgn = -1 if da % 2 else 1
                    for n, an in enumerate(chains[da]):
                        if an.is_zero():
                            break
                        m = 2 * da - n - k - 2
                        prod = self.vertex_product(an, m, vc)
                        rhs += Fraction(sgn, factorial(n)) * \
                            self.bilinear_form(uc, prod)
            if lhs != rhs:
                return False
        return True

    # -- element literals -----------------------------------------------------------

    _TERM_H = re.compile(r"^h\(\s*(\d+)\s*,\s*(-\d+)\s*\)(?:\^(\d+))?$")
    _TERM_E = re.compile(r"^e\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)$")

    def format_element(self, v: GradedVector) -> str:
        """Canonical literal for an element; inverse of parse_element."""
        if v.is_zero():
            return "0"

        def position(term):
            d = self.mono_degree(term[0])
            return d, self.basis_index(d)[term[0]]

        parts = []
        for mono, coeff in sorted(v.terms.items(), key=position):
            factors = [format_rational(coeff)]
            for (n_, c_), run in groupby(mono.modes):
                exp = len(list(run))
                factors.append(f"h({c_ + 1},-{n_})"
                               + (f"^{exp}" if exp > 1 else ""))
            factors.append("e(" + ",".join(str(t) for t in mono.tail) + ")")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def parse_element(self, text: str) -> GradedVector:
        if not isinstance(text, str):
            raise ElementParseError(f"element literal {text!r} is not text")
        text = text.strip()
        if text == "0":
            return GradedVector({}, self.cutoff)
        terms: dict = {}
        for raw in text.split("+"):
            raw = raw.strip()
            if not raw:
                raise ElementParseError("empty term")
            pieces = [p.strip() for p in raw.split("*")]
            try:
                coeff = parse_rational(pieces[0])
            except (ValueError, ZeroDivisionError):
                raise ElementParseError(
                    f"bad coefficient {pieces[0]!r}") from None
            modes = []
            tail = None
            for piece in pieces[1:]:
                mh = self._TERM_H.match(piece)
                if mh:
                    i_ = _parse_int(mh.group(1), piece) - 1
                    n_ = -_parse_int(mh.group(2), piece)
                    exp = _parse_int(mh.group(3) or "1", piece)
                    if exp < 1:
                        raise ElementParseError(
                            f"exponent must be at least 1 in {piece!r}")
                    if not (0 <= i_ < self.lattice.rank):
                        raise ElementParseError(
                            f"mode index out of range in {piece!r}")
                    if n_ < 1:
                        raise ElementParseError(
                            f"mode order must be negative in {piece!r}")
                    if n_ * exp > self.cutoff:
                        raise CutoffExceededError(
                            f"{piece!r} has degree beyond cutoff "
                            f"{self.cutoff}")
                    modes.extend([(n_, i_)] * exp)
                    continue
                me = self._TERM_E.match(piece)
                if me:
                    if tail is not None:
                        raise ElementParseError("two tails in one term")
                    tail = tuple(_parse_int(x, piece)
                                 for x in me.group(1).split(","))
                    if len(tail) != self.lattice.rank:
                        raise ElementParseError(
                            f"tail length != rank in {piece!r}")
                    continue
                raise ElementParseError(f"unrecognized factor {piece!r}")
            if tail is None:
                raise ElementParseError(f"term {raw!r} lacks a tail factor")
            mono = FockMonomial(tuple(sorted(modes)), tail)
            if self.mono_degree(mono) > self.cutoff:
                raise CutoffExceededError(
                    f"term {raw!r} has degree beyond cutoff {self.cutoff}")
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return GradedVector(terms, self.cutoff)
