"""Integral forms inside truncated lattice VOAs.

A TruncatedForm is a degree-indexed family of lattices in graded-basis
coordinates, together with the generating data it was saturated from.  The
operations here generate forms by closing generator sets under all products
landing below the cutoff, certify lattice integrality degree by degree,
compute dual families and their stability under the raising operators, run
the two rescaling constructions that turn nearly-integral data into integral
data, and intersect or decompose forms under finite automorphism groups.
Saturation schedules row pairs, and each degree's live exact.SparseHNF
decides membership.  A lifted lattice isometry acts on each degree through
its column nonzeros, built once from its action on modes and tails.

Every certificate produced here is truncation-scoped: it speaks about
degrees up to the host's cutoff and says so explicitly in its ``scope``
field.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Sequence

from voaforms.dihedral import FiniteAlgebra, trace_form
from voaforms.exact import (
    DegenerateFormError,
    QMatrix,
    SparseHNF,
    ZLattice,
    apply_columns,
    as_integer,
    column_nonzeros,
    columns_matrix,
    format_rational,
    identity_matrix,
    int_dual_lattice,
    int_gram,
    lattice_intersect,
    lattice_sum,
    mat_mul,
    quotient_exponent,
)
from voaforms.latgroup import (
    Character,
    GroupClosureError,
    SignedAction,
    close_group,
    common_eigenlattice,
    direct_sum,
    intersect_images,
    preserves,
    tel_exponent,
)
from voaforms.voa import (
    EvenLattice,
    FockMonomial,
    GradedVector,
    NotHomogeneousError,
    TruncatedVOA,
    _products_all_k,
)


class FormError(ValueError):
    """Base class for integral-form failures."""


class SaturationError(FormError):
    """Product closure did not stabilize within the iteration bound."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class PreconditionError(FormError):
    """An operation's stated precondition does not hold."""


class ConclusionError(FormError):
    """A mechanically asserted conclusion failed (implementation defect)."""


class VacuumIntegralityError(FormError):
    """The degree-0 lattice is r Z vac with a non-integer r.

    Such a family cannot be product-closed: the vacuum self-product forces
    r^2 vac into the form, and r^2 is not an integer multiple of r.
    """


class RankMismatchError(FormError):
    """Degreewise ranks differ, so the comparison is meaningless."""


class DegeneratePieceError(FormError, DegenerateFormError):
    """The invariant form is degenerate on a degree piece of the form."""


class TruncatedForm:
    """Degree-indexed lattice family inside a truncated VOA."""

    def __init__(self, host: TruncatedVOA, lattices: dict,
                 generators: Sequence[GradedVector] = (),
                 gen_degree: int | None = None,
                 saturation_trace: list | None = None) -> None:
        self.host = host
        self.lattices = {int(d): lat for d, lat in lattices.items()
                         if lat.rank > 0}
        self.generators = tuple(generators)
        self.gen_degree = gen_degree
        self.saturation_trace = saturation_trace or []
        self._grams = {}
        self._duals = {}

    def lattice(self, degree: int) -> ZLattice:
        lat = self.lattices.get(degree)
        if lat is None:
            return ZLattice.zero(self.host.dim(degree))
        return lat

    def rank(self, degree: int) -> int:
        return self.lattice(degree).rank

    def degrees(self) -> list:
        return sorted(self.lattices)

    def contains(self, v: GradedVector) -> bool:
        for d, comp in self.host.homogeneous_components(v).items():
            _, row = self.host.coords(comp)
            if row not in self.lattice(d):
                return False
        return True

    def with_scaled_degree(self, degree: int, c) -> "TruncatedForm":
        """Copy with one degree's lattice scaled (fixture constructor)."""
        lats = dict(self.lattices)
        lats[degree] = self.lattice(degree).scale(c)
        return TruncatedForm(self.host, lats, self.generators,
                             self.gen_degree, self.saturation_trace)

    def __repr__(self):
        ranks = {d: self.rank(d) for d in self.degrees()}
        return f"TruncatedForm(cutoff={self.host.cutoff}, ranks={ranks})"


# ---------------------------------------------------------------------------
# generation by saturation
# ---------------------------------------------------------------------------

def generate_form(V: TruncatedVOA, generators: Iterable[GradedVector],
                  gen_degree: int | None = None,
                  iter_bound: int = 50) -> TruncatedForm:
    """Close the generators (plus the vacuum) under all truncated products.

    Maintains one canonical lattice per degree.  Each pass takes the basis
    rows of a snapshot of the lattices at its start and adds products u_k v
    of rows u, v (deg u > 0) landing below the cutoff to the live lattice
    of their degree, but only for pairs (u, v) where u or v is fresh.  A
    row is fresh if it does not lie in its degree's lattice at the start of
    the previous pass; every row is fresh in the first pass and in a degree
    that had no lattice then.  Stops when a pass changes no lattice.

    This is semi-naive evaluation, and each pass still ends on the
    lattices that multiplying every pair of rows gives.  Write S_t for the
    lattices at the start of pass t.  By induction on t, S_(t+1) contains
    every product of two rows of S_t, and so (products being bilinear) of
    any two of its vectors: pass 1 multiplies every pair, and in a later
    pass two non-fresh rows lie in S_(t-1), so their products lie in S_t
    already.  The pairs a pass skips therefore add nothing, and as
    lattices are stored canonically, every pass ends on the same lattices,
    with the same denominator trace, as multiplying every pair of rows, or
    every vector found so far, which spans the same lattices.

    Rows fall into blocks.  When every generator has one tail, every
    product of rows is charge-pure (a product of charges gamma and delta
    has charge gamma + delta), so each lattice is the direct sum of its
    parts of one charge, and its canonical rows are the union of theirs.
    A block B then holds the rows of one degree d and charge gamma, keyed
    (d, r, gamma == r) with r = max(gamma, -gamma); otherwise each degree
    is one block, of charge 0.  A product of charge gamma + delta has
    degree at least |gamma + delta|^2 / 2, so a pair of blocks for which
    that is above the cutoff has no product below it and is skipped.

    Orbits.  G is the group _saturation_lifts gives: lifts of signed
    permutations of the basis, each mapping a basis monomial to +-1 times
    a basis monomial and the block (d, gamma) to (d, g gamma), with
    g(x_k y) = (g x)_k (g y) and g vac = vac, such that S_0 is G-stable;
    G is {1} unless every generator has one tail.  Whenever w changes a
    lattice, g w is added for every g in G, so every live lattice is
    G-stable.  An ordered block pair (B, C) represents its orbit {(g B,
    g C)} when (key B, key C) is the largest (key g B, key g C), and only
    representatives are multiplied.  That loses nothing: S_t is G-stable
    and charge-pure, so its rows of g B span g of the span of its rows of
    B, and the products of the pair (g B, g C) span g of those of (B, C),
    which the pass adds with their images.  So each pass ends on the same
    lattices as if it multiplied every block pair, and S_(t+1) contains
    every product of two rows of S_t as above.

    A pass multiplies its representatives in two phases.  Let f(B) be the
    largest key in B's orbit.  Phase 1 takes the pairs with f(B) > f(C);
    for B and C in one orbit, the pairs whose orbit holds (C, B) too, and
    otherwise the pair of (B, C) and (C, B) whose orbit has the larger
    representative; and inside a diagonal pair (B, B), the row pairs (u,
    v) with u at or after v.  Phase 2 takes the rest (_pair_phase).  The
    phase depends only on the orbit.  Let A be the products that changed
    a lattice in phase 1 (not their images) and L the live lattices after
    it, so L = S + sum_g Z g A for S = S_t.  Phase 2 runs only if some a
    in A has a derivative a_(-i-1) vac = L(-1)^i a / i!, with deg a + i
    within the cutoff, outside L; one product a x vac gives them all.
    Otherwise every phase-2 product lies in L already, so the pass ends
    as it would with both phases; if phase 1 changes nothing, A is empty,
    S is closed under all products, and the pass is the last.

    (1) By G-stability, L contains S_B x S_C, S_B the part of S of block
    B, for every block pair (B, C) of phase 1, representative or not, and
    the products of the row pairs that phase 1 takes from a diagonal
    representative.  That includes every (B, C) with C the degree-0
    block of vac / m, whose f is the least.  (2) A phase-2 pair (u, v) is
    a pair of rows of one block with u before v, of blocks with f(B) <
    f(C), or of one orbit whose reverse (C, B) has the larger orbit
    representative; in each case (v, u) is a phase-1 pair, so its
    products lie in L by (1).  Skew symmetry Y(u,z)v = e^(zL(-1))
    Y(v,-z)u (Frenkel-Huang-Lepowsky 1993) reads

        u_k v = sum_(i>=0) (-1)^(k+i+1) (v_(k+i) u)_(-i-1) vac.

    Each w = v_(k+i) u lies in L, so w = s + sum n_(a,g) g a over a in A
    of degree deg w and g in G, with s in S and integers n_(a,g).  Then
    s_(-i-1) vac lies in L: s is an integer combination of rows, (1) puts
    each row of positive degree times vac / m in L, and vac = m (vac / m)
    (when s has degree 0, s_(-i-1) vac is s or 0).  Each a_(-i-1) vac
    lies in L by the test, as deg a + i = deg(u_k v), and so does (g
    a)_(-i-1) vac = g(a_(-i-1) vac), L being G-stable and g vac = vac.
    So u_k v lies in L, and by G so do the products of the images of the
    pair.  No vector here exceeds the cutoff: v_(k+i) u has degree
    deg(u_k v) - i, and its (-i-1)-product with vac raises that by i, so
    the identity holds in the truncated VOA.

    A failure to stabilize raises SaturationError carrying the per-pass
    denominator trace (which is also the denominator-growth report for
    converged runs).  Rows are ints over their lattice's denominator
    throughout.  A live lattice is an exact.SparseHNF, which each vector
    not yet in it changes in place, and which accepts most products by its
    exponent test without reducing them.  As Hermite normal forms are
    unique, its rows and denominator are those ZLattice gives for the span
    of the vectors added, so each pass's snapshot (ZLattices) and the
    trace are canonical.
    """
    gens = [g for g in generators if not g.is_zero()]
    # degree_of raises NotHomogeneousError for mixed degrees
    max_gen_degree = max(map(V.degree_of, gens), default=0)
    if gen_degree is None:
        gen_degree = max_gen_degree
    elif max_gen_degree > gen_degree:
        raise PreconditionError(
            f"generator of degree {max_gen_degree} exceeds bound {gen_degree}")
    elif gen_degree > V.cutoff:
        raise PreconditionError(
            f"gen_degree {gen_degree} exceeds cutoff {V.cutoff}")

    live = {d: SparseHNF(V.dim(d)) for d in range(V.cutoff + 1)}

    def image(g: VOAAutomorphism, d: int, w: dict) -> dict:
        # g has one nonzero per column, in distinct rows
        cols = g.columns(d)
        return {cols[j][0][0]: cols[j][0][1] * x for j, x in w.items()}

    seeds = []
    for vec in [V.vacuum()] + gens:
        den, rows = V.int_rows(vec)
        [(d, row)] = rows.items()
        w = {V.basis_index(d)[m]: x for m, x in row}
        live[d].add(w, den)
        seeds.append((d, den, w))
    pure = all(len({m.tail for m in g.terms}) == 1 for g in gens)
    lifts = _saturation_lifts(V, lambda g: all(
        live[d].contains(image(g, d, w), den) for d, den, w in seeds)
    ) if pure else []
    n = V.lattice.rank
    acts = [column_nonzeros(g.isometry) for g in lifts]

    def tail_key(tail: tuple) -> tuple:
        r = max(tail, tuple(-a for a in tail))
        return r, tail == r

    @cache
    def orbit(tail: tuple) -> tuple:
        """The tail keys of g tail, for g = 1 and then each lift."""
        return (tail_key(tail),) + tuple(
            tail_key(tuple(apply_columns(s, enumerate(tail), n)))
            for s in acts)

    @cache  # one verdict per pair of tails for the whole saturation
    def phase(tu: tuple, tv: tuple):
        """_pair_phase for blocks of tails tu, tv, or None when no
        product of the pair lies within the cutoff."""
        if V.lattice.norm([a + b for a, b in zip(tu, tv)]) > 2 * V.cutoff:
            return None
        return _pair_phase(orbit(tu), orbit(tv))

    vac = [(V.vacuum_monomial(), 1)]

    def derivatives_in(a: tuple) -> bool:
        """Whether a_(-i-1) vac = L(-1)^i a / i! lies in the live lattice
        for every i with deg a + i within the cutoff, for a = (d, den, w)."""
        d, den, w = a
        basis = V.graded_basis(d)
        row = [(basis[j], x) for j, x in w.items() if x]
        den *= V.product_den
        return all(live[d - k - 1].contains(acc, den)
                   for k, acc in _products_all_k(V, row, vac).items())

    zero = (0,) * n
    trace = []
    prev: dict = {}
    for _ in range(iter_bound):
        start = {d: lat.lattice() for d, lat in live.items() if lat.nonzeros}
        blocks: dict = {}  # key -> (degree, tail, rows, fresh flags)
        for d, lat in start.items():
            basis = V.graded_basis(d)
            old = prev.get(d)
            for nz in lat.nonzeros:
                row = [(basis[j], x) for j, x in nz]
                tail = row[0][0].tail if pure else zero
                b = blocks.setdefault((d,) + tail_key(tail),
                                      (d, tail, [], []))
                b[2].append(row)
                b[3].append(old is None
                            or old.int_coordinates(dict(nz), lat.den) is None)
        order = sorted(blocks.items())
        new = {kb: [v for v, f in zip(vs, fs) if f]
               for kb, (_, _, vs, fs) in order}
        phases = ([], [])  # representative block pairs of phases 1 and 2
        added = []  # A: the products that changed a lattice so far
        for ku, (du, tu, _, _) in order:
            if du == 0:
                continue  # vacuum as left factor only reproduces the input
            for kv, (dv, tv, _, _) in order:
                p = phase(tu, tv)
                if p is None:
                    continue
                if du != dv:
                    p = 1 if du > dv else 2
                if p != 2:
                    phases[0].append((ku, kv))
                if p != 1:  # a diagonal pair is split between the phases
                    phases[1].append((ku, kv))
        for phase1, pairs in zip((True, False), phases):
            if not phase1 and all(map(derivatives_in, added)):
                break  # every phase-2 product lies in L (see above)
            for ku, kv in pairs:
                du, _, urows, ufresh = blocks[ku]
                dv, _, vrows, _ = blocks[kv]
                vnew = new[kv]
                den = start[du].den * start[dv].den * V.product_den
                seen = 0  # fresh rows of a diagonal block up to u
                for i, (u, fu) in enumerate(zip(urows, ufresh)):
                    if ku != kv:  # all of C is on this phase's side
                        vs = vrows if fu else vnew
                    else:
                        seen += fu
                        if phase1:  # the rows up to u itself
                            vs = vrows[:i + 1] if fu else vnew[:seen]
                        else:
                            vs = vrows[i + 1:] if fu else vnew[seen:]
                    for v in vs:
                        for k, acc in _products_all_k(V, u, v).items():
                            d = du + dv - k - 1
                            if live[d].add(acc, den):
                                added.append((d, den, acc))
                                for g in lifts:
                                    live[d].add(image(g, d, acc), den)
        trace.append({d: lat.den for d, lat in live.items() if lat.nonzeros})
        if not added:
            return TruncatedForm(V, start, [V.vacuum()] + gens,
                                 gen_degree, trace)
        prev = start
    raise SaturationError(
        f"saturation did not stabilize within {iter_bound} passes", trace)


def _pair_phase(ou: tuple, ov: tuple):
    """Where generate_form multiplies a block pair (B, C) of one degree,
    given the keys of g B and of g C for g = 1 and then each other
    element of G: None when (B, C) is not its orbit's representative,
    otherwise 1 or 2 for its phase, or 0 for B = C, split between them."""
    pairs = list(zip(ou, ov))
    if max(pairs) != pairs[0]:
        return None  # the image of a representative
    if max(ou) != max(ov):
        return 1 if max(ou) > max(ov) else 2
    if ou == ov:
        return 0
    if pairs[0][::-1] in pairs:  # (C, B) lies in the orbit of (B, C)
        return 1
    return 1 if pairs[0] > max(zip(ov, ou)) else 2


# ---------------------------------------------------------------------------
# integrality certificates
# ---------------------------------------------------------------------------

class LICertificate:
    """Outcome of a degreewise integrality check, truncation-scoped."""

    def __init__(self, cutoff: int, passed: bool, degrees: dict,
                 first_failure: tuple | None) -> None:
        self.scope = f"degrees<={cutoff}"
        self.passed = passed
        # d -> {"rank": r, "gram": rows, "li": bool}: the Gram entries are
        # ints when li holds and Fractions otherwise
        self.degrees = degrees
        self.first_failure = first_failure  # (degree, i, j, value) or None

    def to_json(self) -> dict:
        out = {"scope": self.scope, "passed": self.passed, "degrees": {}}
        for d, info in sorted(self.degrees.items()):
            out["degrees"][str(d)] = {
                "basis_rank": info["rank"],
                "gram": [[format_rational(x) for x in row]
                         for row in info["gram"]],
                "li": info["li"],
            }
        if self.first_failure is not None:
            d, i, j, val = self.first_failure
            out["witness"] = {"degree": d, "row": i, "col": j,
                              "value": format_rational(val)}
        return out


def _gram(J: TruncatedForm, degree: int) -> tuple:
    """(s, M, g): the Gram matrix M / s of the degree's lattice basis H / den
    under the integer form matrix F, for M = H F H^T and s = den^2, and
    g = gcd(s, *M).  Cached on J; every Gram below is read from it."""
    hit = J._grams.get(degree)
    if hit is None:
        lat = J.lattice(degree)
        s = lat.den * lat.den
        m = int_gram(lat.rows, J.host.form_matrix(degree))
        hit = J._grams[degree] = (s, m, gcd(s, *(gcd(*row) for row in m)))
    return hit


def form_gram(J: TruncatedForm, degree: int) -> list:
    """Gram matrix of the invariant form on the degree's lattice basis."""
    s, m, _ = _gram(J, degree)
    return [[Fraction(x, s) for x in row] for row in m]


def check_lattice_integral(J: TruncatedForm) -> LICertificate:
    """PASS with per-degree Gram matrices, or FAIL with the first bad entry.

    A degree is integral when s divides every entry of M; its Gram is then
    kept as the ints M / s, and otherwise as Fractions.
    """
    degrees = {}
    failure = None
    for d in J.degrees():
        s, m, g = _gram(J, d)
        li = g == s
        if li:
            gram = [[x // s for x in row] for row in m]
        else:
            gram = form_gram(J, d)
            if failure is None:
                failure = next((d, i, j, gram[i][j])
                               for i, row in enumerate(m)
                               for j, x in enumerate(row) if x % s)
        degrees[d] = {"rank": J.rank(d), "gram": gram, "li": li}
    return LICertificate(J.host.cutoff, failure is None, degrees, failure)


def minimal_integral_scale(J: TruncatedForm) -> int:
    """Least m > 0 with m*J lattice-integral below the cutoff.

    Scaling a set by m scales Gram entries by m^2, so this is the least m
    whose square the lcm of the entry denominators, s / g per degree,
    divides.  That m takes each prime of the lcm to half its exponent,
    rounded up.  Trial division runs while p^3 <= r for the cofactor r;
    past that r has at most two prime factors, each at least p, so it
    contributes its square root if it is a square and r otherwise.
    """
    r = lcm(1, *(s // g for s, _, g in (_gram(J, d) for d in J.degrees())))
    m = 1
    p = 2
    while p * p * p <= r:
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        m *= p ** ((e + 1) // 2)
        p += 1
    root = isqrt(r)
    return m * (root if root * root == r else r)


# ---------------------------------------------------------------------------
# dual families
# ---------------------------------------------------------------------------

class DualFamily:
    """Degreewise duals of a form; low-rank degrees are span-relative."""

    def __init__(self, lattices: dict, low_rank_degrees: tuple) -> None:
        self.lattices = lattices
        self.low_rank_degrees = low_rank_degrees

    def lattice(self, degree: int) -> ZLattice:
        return self.lattices[degree]

    def degrees(self):
        return sorted(self.lattices)


def dual_form(J: TruncatedForm) -> DualFamily:
    """Degreewise dual w.r.t. the invariant form restricted to each degree.

    Distinct degrees pair to zero, so the degreewise restriction is the
    whole story.  For degrees where J has lower rank than the graded piece,
    the dual is taken inside the rational span of J's piece and the degree
    is flagged.  Each degree's dual is cached on J.
    """
    V = J.host
    return DualFamily({d: _degree_dual(J, d) for d in J.degrees()},
                      tuple(d for d in J.degrees() if J.rank(d) < V.dim(d)))


def _degree_dual(J: TruncatedForm, d: int) -> ZLattice:
    """Dual of J's degree-d lattice under the invariant form, cached on J."""
    hit = J._duals.get(d)
    if hit is None:
        try:
            hit = int_dual_lattice(J.lattice(d), _gram(J, d)[1])
        except DegenerateFormError:
            raise DegeneratePieceError(
                f"invariant form degenerate on the degree-{d} piece")
        J._duals[d] = hit
    return hit


def dual_stability_check(J: TruncatedForm, n: int,
                         return_witness: bool = False):
    """Whether (1/n!) L(1)^n maps each degree's dual into the lower dual.

    L(1) = omega_2 acts on each dual row's int nonzeros, n times.
    """
    if _missing_vacuum(J):
        raise PreconditionError("the vacuum does not lie in the form")
    V = J.host
    duals = dual_form(J)
    degrees = [d for d in duals.degrees() if d >= n]  # the rest map to 0
    if not degrees:
        return (True, None) if return_witness else True
    wden, omega = V.int_rows(V.virasoro_element())
    omega = omega[2]
    scale = 1  # n! (wden * product_den)^n: the image is over lat.den * scale
    for i in range(1, n + 1):
        scale *= i * wden * V.product_den
    for s in degrees:
        lat = duals.lattice(s)
        target = duals.lattices.get(s - n)
        for t, nz in enumerate(lat.nonzeros):
            img = dict(nz)
            for d in range(s, s - n, -1):
                basis = V.graded_basis(d)
                u = [(basis[j], x) for j, x in img.items()]
                img = _products_all_k(V, omega, u).get(2, {})
            if not any(img.values()):
                continue
            if target is None or \
                    target.int_coordinates(img, lat.den * scale) is None:
                return (False, (s, lat.basis_row(t))) if return_witness \
                    else False
    return (True, None) if return_witness else True


def _missing_vacuum(J: TruncatedForm) -> bool:
    return J.lattice(0).int_coordinates({0: 1}, 1) is None


# ---------------------------------------------------------------------------
# closure sampling
# ---------------------------------------------------------------------------

def closure_sample(J: TruncatedForm, samples: int = 200, seed: int = 0):
    """Seeded product sampling: a_k b of basis vectors must stay in the form.

    Returns (ok, witness) where witness is (degree_a, index_a, degree_b,
    index_b, k) for the first failing triple.
    """
    V = J.host
    rng = random.Random(seed)
    degs = [d for d in J.degrees() if J.rank(d) > 0]
    if not degs:
        return True, None
    for _ in range(samples):
        da, db = rng.choice(degs), rng.choice(degs)
        ia, ib = rng.randrange(J.rank(da)), rng.randrange(J.rank(db))
        k = rng.randint(da + db - 1 - V.cutoff, da + db - 1)
        la, lb = J.lattice(da), J.lattice(db)
        u = [(V.graded_basis(da)[j], x) for j, x in la.nonzeros[ia]]
        v = [(V.graded_basis(db)[j], x) for j, x in lb.nonzeros[ib]]
        w = _products_all_k(V, u, v).get(k, {})
        den = la.den * lb.den * V.product_den
        if J.lattice(da + db - k - 1).int_coordinates(w, den) is None:
            return False, (da, ia, db, ib, k)
    return True, None


# ---------------------------------------------------------------------------
# the two rescaling constructions
# ---------------------------------------------------------------------------

def scaled_with_vacuum(J: TruncatedForm, m: int,
                       assert_conclusion: bool = True,
                       seed: int = 0) -> TruncatedForm:
    """The family m*J + Z vac, for an integer m making m*J integral.

    For a product-closed J this is again product-closed and integral; both
    are asserted (sampling for closure) unless disabled.
    """
    if m <= 0:
        raise PreconditionError("m must be a positive integer")
    V = J.host
    scaled = TruncatedForm(V, {d: J.lattice(d).scale(m)
                               for d in J.degrees()})
    cert = check_lattice_integral(scaled)
    if not cert.passed:
        d, i, j, val = cert.first_failure
        raise PreconditionError(
            f"m*J is not integral at degree {d}: entry ({i},{j}) = {val}")
    lats = {d: scaled.lattice(d) for d in scaled.degrees()}
    lats[0] = lattice_sum(lats.get(0, ZLattice.zero(1)), ZLattice.standard(1))
    out = TruncatedForm(V, lats,
                        [V.vacuum()] + [g.scale(m) for g in J.generators],
                        J.gen_degree)
    if assert_conclusion:
        cert2 = check_lattice_integral(out)
        if not cert2.passed:
            raise ConclusionError(
                "m*J + Z vac failed the integrality check")
        ok, witness = closure_sample(out, seed=seed)
        if not ok:
            raise ConclusionError(
                f"m*J + Z vac failed closure sampling at {witness}")
    return out


def rescale_to_integral(J: TruncatedForm, t: int,
                        iter_bound: int = 50):
    """Exponent pair (m1, m2) and the regenerated integral form.

    m1 is the exponent of the degree-(1..t) pieces over their intersection
    with the degreewise duals; m2 is the symmetric exponent for the duals.
    The form regenerated from Z vac and m1*m2 times the low-degree pieces is
    integral below the cutoff, and that conclusion is asserted.
    """
    V = J.host
    if J.gen_degree is not None and J.gen_degree > t:
        raise PreconditionError(
            f"form was generated in degrees <= {J.gen_degree}, above t={t}")
    if _missing_vacuum(J):
        raise PreconditionError("the vacuum does not lie in the form")
    m1 = 1
    m2 = 1
    for s in range(1, t + 1):
        L = J.lattice(s)
        if L.rank == 0:
            continue
        dual = _degree_dual(J, s)
        inter = lattice_intersect(L, dual)
        if inter.rank != L.rank:
            raise DegeneratePieceError(
                f"degree-{s} dual intersection lost rank")
        m1 = lcm(m1, quotient_exponent(L, inter))
        m2 = lcm(m2, quotient_exponent(dual, inter))
    m = m1 * m2
    gens = [V.vacuum()]
    for s in range(1, t + 1):
        for row in J.lattice(s).basis_rows():
            gens.append(V.vector_from_coords(s, [m * x for x in row]))
    out = generate_form(V, gens, gen_degree=t, iter_bound=iter_bound)
    cert = check_lattice_integral(out)
    if not cert.passed:
        d, i, j, val = cert.first_failure
        raise ConclusionError(
            f"rescaled form not integral at degree {d}: {val}")
    return m1, m2, out


# ---------------------------------------------------------------------------
# quasi-primary generation
# ---------------------------------------------------------------------------

class QPCertificate:
    """Quasi-primarity of the generators plus integrality of their closure."""

    def __init__(self, quasi_primary: bool, failures: list,
                 li_certificate: LICertificate | None,
                 form: TruncatedForm | None = None) -> None:
        self.quasi_primary = quasi_primary
        self.non_quasi_primary_indices = failures
        self.li_certificate = li_certificate
        self.form = form

    @property
    def passed(self) -> bool:
        return self.quasi_primary and self.li_certificate is not None \
            and self.li_certificate.passed


def quasi_primary_integrality_check(V: TruncatedVOA,
                                    generators: Sequence[GradedVector],
                                    iter_bound: int = 50) -> QPCertificate:
    """Certify that quasi-primary generators close into an integral form.

    A generator failing the raising-operator test is reported separately
    from an integrality failure; the closure is only attempted when all
    generators are quasi-primary, since the closure claim presupposes them.
    """
    failures = [i for i, g in enumerate(generators)
                if not V.is_quasi_primary(g)]
    if failures:
        return QPCertificate(False, failures, None)
    J = generate_form(V, list(generators), iter_bound=iter_bound)
    return QPCertificate(True, [], check_lattice_integral(J), J)


# ---------------------------------------------------------------------------
# vacuum line
# ---------------------------------------------------------------------------

def vacuum_intersection(J: TruncatedForm) -> int:
    """The unique n > 0 with J_0 = n Z vac; errors on fractional r."""
    L = J.lattice(0)
    if L.rank == 0:
        raise PreconditionError("degree-0 piece is zero")
    gen = L.basis_rows()[0][0]
    r = abs(gen)
    if r.denominator != 1:
        raise VacuumIntegralityError(
            f"degree-0 lattice is {r} Z vac; closure would force "
            f"{r * r} vac into the form, which is not an integer multiple "
            f"of {r}")
    return int(r)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

class VOAAutomorphism:
    """Lift of a signed lattice isometry, with tail sign corrections.

    ``isometry`` maps basis coordinates (as a matrix on column vectors) and
    must preserve the Gram matrix; ``basis_signs`` fixes the lift on the
    ground states of the basis vectors.  The sign on a general tail is the
    unique bimultiplicative-coboundary extension, so the lifted map is an
    algebra map for every choice of basis signs.
    """

    def __init__(self, host: TruncatedVOA, isometry: Sequence[Sequence[int]],
                 basis_signs: Sequence[int] | None = None) -> None:
        V = host
        n = V.lattice.rank
        S = tuple(tuple(as_integer(x, "isometry entry") for x in row)
                  for row in isometry)
        if len(S) != n or any(len(r) != n for r in S):
            raise ValueError("isometry has wrong shape")
        g = V.lattice.gram
        if mat_mul(mat_mul(list(zip(*S)), g), S) != g:
            raise ValueError("matrix does not preserve the form")
        self.host = V
        self.isometry = S
        self.basis_signs = self.checked_signs(n, basis_signs)
        self._cols = {}
        # delta[i][j] = eps(e_i, e_j) eps(S e_i, S e_j), S e_i column i of S
        unit = [[int(a == i) for a in range(n)] for i in range(n)]
        cols = tuple(zip(*S))
        self._delta = tuple(tuple(V.epsilon(unit[i], unit[j])
                                  * V.epsilon(cols[i], cols[j])
                                  for j in range(n)) for i in range(n))

    @staticmethod
    def checked_signs(n: int, basis_signs: Sequence[int] | None) -> tuple:
        """The basis signs as n ints +-1, all 1 for None."""
        if basis_signs is None:
            return (1,) * n
        signs = tuple(as_integer(s, "basis sign") for s in basis_signs)
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError("basis signs must be +-1 of length rank")
        return signs

    def tail_sign(self, alpha: Sequence[int]) -> int:
        """The coboundary sign on e^alpha."""
        n = self.host.lattice.rank
        d = self._delta
        par = 0
        for i in range(n):
            a = alpha[i]
            if self.basis_signs[i] == -1 and a % 2:
                par ^= 1
            if d[i][i] == -1 and (a * (a - 1) // 2) % 2:
                par ^= 1
            for j in range(i + 1, n):
                if d[i][j] == -1 and (a * alpha[j]) % 2:
                    par ^= 1
        return -1 if par else 1

    def apply(self, v: GradedVector) -> GradedVector:
        """Image of v, one homogeneous component at a time."""
        V = self.host
        out: dict = {}
        for d, comp in V.homogeneous_components(v).items():
            _, row = V.coords(comp)
            img = apply_columns(self.columns(d), enumerate(row), len(row))
            out.update(V.vector_from_coords(d, img).terms)
        return GradedVector(out, v.cutoff)

    def columns(self, degree: int) -> tuple:
        """The induced action on graded_basis(degree), as the (row, entry)
        nonzeros of each column in row order: each gamma_i(-m) goes to
        sum_a S[a][i] gamma_a(-m), and e^alpha to tail_sign(alpha)
        e^(S alpha) (Frenkel-Lepowsky-Meurman 1988)."""
        hit = self._cols.get(degree)
        if hit is not None:
            return hit
        V = self.host
        n = len(self.isometry)
        scols = column_nonzeros(self.isometry)
        idx = V.basis_index(degree)
        cols = []
        for mono in V.graded_basis(degree):
            tail = tuple(apply_columns(scols, enumerate(mono.tail), n))
            spread = [((), self.tail_sign(mono.tail))]
            for m_, i_ in mono.modes:
                spread = [(modes + ((m_, a),), c * x)
                          for modes, c in spread for a, x in scols[i_]]
            col: dict = {}  # distinct mode orders can give one monomial
            for modes, c in spread:
                i = idx[FockMonomial(tuple(sorted(modes)), tail)]
                col[i] = col.get(i, 0) + c
            cols.append(tuple(sorted((i, c) for i, c in col.items() if c)))
        self._cols[degree] = cols = tuple(cols)
        return cols

    def matrix(self, degree: int) -> tuple:
        """The integer matrix of columns(degree) (column action)."""
        return columns_matrix(self.columns(degree))

    def compose(self, other: "VOAAutomorphism") -> "VOAAutomorphism":
        """self after other."""
        # other takes e^(e_i) to basis_signs[i] e^(S' e_i), S' e_i column i
        signs = [s * self.tail_sign(col)
                 for s, col in zip(other.basis_signs, zip(*other.isometry))]
        return VOAAutomorphism(
            self.host, mat_mul(self.isometry, other.isometry), signs)

    def key(self):
        return (self.isometry, self.basis_signs)

    def __eq__(self, other):
        return isinstance(other, VOAAutomorphism) and \
            self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def preserves_form(self, J: TruncatedForm) -> bool:
        return all(preserves(J.lattice(d), [self.columns(d)])
                   for d in J.degrees())


def identity_lift(V: TruncatedVOA) -> VOAAutomorphism:
    """The identity of V, as the lift of the identity isometry."""
    return VOAAutomorphism(V, identity_matrix(V.lattice.rank))


def negation_lift(V: TruncatedVOA) -> VOAAutomorphism:
    """The lift of the -1 isometry with trivial basis signs."""
    n = V.lattice.rank
    return VOAAutomorphism(V, [[-int(i == j) for j in range(n)]
                               for i in range(n)])


def diagram_lifts(V: TruncatedVOA) -> list:
    """The lifts, with trivial basis signs, of the permutations of the
    basis other than the identity that preserve the Gram matrix (for a
    Cartan matrix, its diagram automorphisms), found by
    _gram_permutations, which raises GroupClosureError past 1024."""
    return [VOAAutomorphism(V, m) for m in _gram_permutations(V)]


def _gram_permutations(V: TruncatedVOA) -> list:
    """The matrices of diagram_lifts(V)'s permutations.

    A backtracking search maps basis vectors 0, 1, ... in turn and keeps
    a partial map only while it preserves the Gram entries among the
    vectors mapped so far, so it never lists all n! permutations.  It
    raises GroupClosureError once it finds more than 1024, the bound of
    latgroup.close_group.
    """
    bound = 1024
    g = V.lattice.gram
    n = len(g)

    def extend(image: tuple):
        i = len(image)
        if i == n:
            yield image
            return
        for j in range(n):
            if j not in image and g[j][j] == g[i][i] and all(
                    g[image[k]][j] == g[k][i] for k in range(i)):
                yield from extend(image + (j,))

    perms = list(islice(extend(()), bound + 1))
    if len(perms) > bound:
        raise GroupClosureError(
            f"more than {bound} permutations preserve the Gram matrix")
    return [tuple(tuple(int(a == p[i]) for i in range(n)) for a in range(n))
            for p in perms[1:]]  # the search finds the identity first


def _saturation_lifts(V: TruncatedVOA, stable) -> list:
    """The elements other than 1 of G = <theta, diagram_lifts(V)> for
    which stable(g) holds; G is {1, theta} when it has more than 1024
    elements.

    G is the group +-P of the signed permutations that preserve the
    Gram matrix, each lifted with trivial basis signs, so its order is
    twice that of the group P of permutations.  Those lifts compose to
    the lift of the product: tail_sign is +1 on each +-e_i, as
    eps(e_i, e_i) = 1.  A permutation joins the generators only when the
    group they generate so far lacks it, so G is closed on a few of
    them.  For stable(g) = "g maps every seed into S_0" the elements
    kept, with 1, are the stabilizer of S_0, a subgroup: g of finite
    order with g S_0 in S_0 has g S_0 = S_0.
    """
    one = identity_matrix(V.lattice.rank)
    minus = tuple(tuple(-x for x in row) for row in one)
    group = {one, minus}
    try:
        perms = _gram_permutations(V)
    except GroupClosureError:
        perms = []
    if 2 * (len(perms) + 1) <= 1024:
        gens = [minus]
        for m in perms:
            if m not in group:
                gens.append(m)
                group = set(close_group(gens, one, mat_mul))
    lifts = (VOAAutomorphism(V, m) for m in sorted(group) if m != one)
    return [g for g in lifts if stable(g)]


def parity_sign_map(V: TruncatedVOA, index: int) -> VOAAutomorphism:
    """Identity isometry, sign -1 on ground states odd in one coordinate."""
    n = V.lattice.rank
    signs = [1] * n
    signs[index] = -1
    return VOAAutomorphism(V, identity_matrix(n), signs)


# ---------------------------------------------------------------------------
# fixed points, eigenforms, invariant intersections
# ---------------------------------------------------------------------------

def _eigenform(J: TruncatedForm, auts: Sequence[VOAAutomorphism],
               signs: Sequence[int], columns) -> dict:
    """{degree: sublattice of J's piece on which the matrix with column
    nonzeros columns(degree)[i] acts by signs[i]}; every automorphism must
    preserve J."""
    for a in auts:
        if not a.preserves_form(J):
            raise PreconditionError(
                "an automorphism does not map the form into itself; "
                "intersect over the group first")
    return {d: common_eigenlattice(J.lattice(d), columns(d), signs)
            for d in J.degrees()}


def fixed_subform(J: TruncatedForm,
                  auts: Sequence[VOAAutomorphism]) -> TruncatedForm:
    """Degreewise common fixed lattice of the listed automorphisms."""
    return TruncatedForm(J.host, _eigenform(
        J, auts, [1] * len(auts), lambda d: [a.columns(d) for a in auts]))


def graded_sign_action(V: TruncatedVOA, auts: Sequence[VOAAutomorphism],
                       degree: int) -> SignedAction:
    """SignedAction of the automorphisms' columns on one graded piece."""
    return SignedAction.from_columns(V.dim(degree),
                                     [a.columns(degree) for a in auts])


def character_eigenform(J: TruncatedForm, auts: Sequence[VOAAutomorphism],
                        char: Character) -> dict:
    """Degreewise eigenlattices of the form under commuting involutions."""
    if len(char.signs) != len(auts):
        raise ValueError("character length != action rank")
    return _eigenform(
        J, auts, char.signs,
        lambda d: graded_sign_action(J.host, auts, d).columns)


def eigenform_decomposition(J: TruncatedForm,
                            auts: Sequence[VOAAutomorphism]):
    """({character: {degree: eigenlattice}} for all 2^r characters,
    {degree: exponent of the piece over its total eigenlattice}).

    Each exponent must divide 2^r for r listed involutions; violations
    raise.  Preservation is checked once per automorphism and degree.
    """
    for a in auts:
        if not a.preserves_form(J):
            raise PreconditionError(
                "an automorphism does not map the form into itself")
    chars = Character.all_characters(len(auts))
    eigen = {ch: {} for ch in chars}
    exps = {}
    for d in J.degrees():
        L, act = J.lattice(d), graded_sign_action(J.host, auts, d)
        for ch in chars:
            eigen[ch][d] = common_eigenlattice(L, act.columns, ch.signs)
        exps[d] = tel_exponent(
            L, direct_sum([eigen[ch][d] for ch in chars]), act.rank)
    return eigen, exps


def tel_exponents(J: TruncatedForm,
                  auts: Sequence[VOAAutomorphism]) -> dict:
    """Exponent of each degree piece over its total eigenlattice.

    Every value must divide 2^r for r listed involutions; violations raise.
    """
    return eigenform_decomposition(J, auts)[1]


def invariant_form_intersect(J: TruncatedForm,
                             auts: Sequence[VOAAutomorphism],
                             bound: int = 1024):
    """Intersection of g.J over the generated finite group, with exponents.

    Returns (form, {degree: exponent of J over the intersection}).  The
    group G is closed once, on the automorphisms (VOAAutomorphism.compose),
    and ``bound`` caps the order of G itself: that can exceed the order
    of its image on a degree, as on degree 0, where every g acts as 1.
    Each degree meets J's piece with its images under the g != 1 of G,
    which act through their columns, once per distinct action.
    """
    try:
        group = close_group(auts, identity_lift(J.host),
                            VOAAutomorphism.compose, bound)[1:]
    except GroupClosureError as e:
        raise FormError(str(e)) from e
    lats = {}
    exps = {}
    for d in J.degrees():
        lats[d], exps[d] = intersect_images(
            J.lattice(d), [g.columns(d) for g in group],
            [a.columns(d) for a in auts])
    return TruncatedForm(J.host, lats), exps


# ---------------------------------------------------------------------------
# mutual scale transfer
# ---------------------------------------------------------------------------

def mutual_scale_report(J: TruncatedForm, K: TruncatedForm):
    """Least scales pushing each form into the other, degree by degree.

    Returns (m_J_into_K, m_K_into_J, per_degree) where per_degree maps each
    compared degree to its pair of exponents.  These witness that the two
    forms are commensurable below the cutoff, so one is nearly integral iff
    the other is.
    """
    if J.host is not K.host:
        raise PreconditionError("forms live in different hosts")
    per = {}
    mjk = 1
    mkj = 1
    for d in sorted(set(J.degrees()) | set(K.degrees())):
        LJ, LK = J.lattice(d), K.lattice(d)
        if LJ.rank != LK.rank:
            raise RankMismatchError(
                f"degree {d}: ranks {LJ.rank} vs {LK.rank}")
        if LJ.rank == 0:
            continue
        s = lattice_sum(LJ, LK)
        if s.rank != LJ.rank:
            raise RankMismatchError(
                f"degree {d}: rational spans differ")
        a = quotient_exponent(s, LK)
        b = quotient_exponent(s, LJ)
        per[d] = (a, b)
        mjk = lcm(mjk, a)
        mkj = lcm(mkj, b)
    return mjk, mkj, per


# ---------------------------------------------------------------------------
# degree-piece algebra extraction (trace-form comparisons)
# ---------------------------------------------------------------------------

def degree_mode_matrices(J: TruncatedForm, degree: int) -> list:
    """Matrices of x_{degree-1} acting on the degree piece, per basis vector.

    The product of two degree-i elements at mode i-1 lands in degree i
    again, so each basis vector acts on the piece; on a product-closed form
    the matrices are integral.  Column convention: entry (k, j) is the
    k-th coordinate of x_{degree-1} (basis_j).
    """
    V = J.host
    lat = J.lattice(degree)
    basis = V.graded_basis(degree)
    rows = [[(basis[j], x) for j, x in nz] for nz in lat.nonzeros]
    den = lat.den * lat.den * V.product_den
    dim = len(rows)
    mats = []
    for u in rows:
        cols = [_span_coords(lat, _products_all_k(V, u, v).get(
            degree - 1, {}), den) for v in rows]
        mats.append(QMatrix(dim, dim, [cols[j][k] for k in range(dim)
                                       for j in range(dim)]))
    return mats


def degree_trace_form(J: TruncatedForm, degree: int) -> QMatrix:
    """Gram matrix of (x, y) -> Tr(x_{degree-1} y_{degree-1}) on the piece.

    This is the integer-valued trace form on the degree piece; compare it
    against the inherited form (``form_gram``) with proportionality_check.
    Symmetric by trace cyclicity even where the mode product itself is not
    commutative.
    """
    return trace_form(degree_mode_matrices(J, degree))


def degree_algebra(J: TruncatedForm, degree: int):
    """The degree piece as a FiniteAlgebra, when its mode product commutes.

    Pieces of hosts with a nonzero degree-1 space generally fail
    commutativity (the product differs from its flip by a translate of a
    lower product); those feed degree_trace_form directly instead.
    """
    mats = degree_mode_matrices(J, degree)
    dim = len(mats)
    cijk = [[[mats[i].entry(k, j) for k in range(dim)]
             for j in range(dim)] for i in range(dim)]
    gram = form_gram(J, degree)
    labels = [f"x{i}" for i in range(dim)]
    return FiniteAlgebra(labels, cijk, gram)


def standard_form(V: TruncatedVOA, iter_bound: int = 50) -> TruncatedForm:
    """The form generated by the ground states of the +-basis vectors."""
    gens = []
    for i in range(V.lattice.rank):
        tail = [0] * V.lattice.rank
        tail[i] = 1
        gens.append(V.monomial_vector([], tail))
        tail2 = [0] * V.lattice.rank
        tail2[i] = -1
        gens.append(V.monomial_vector([], tail2))
    return generate_form(V, gens, iter_bound=iter_bound)


def build_manifest(J: TruncatedForm,
                   cert: LICertificate | None = None) -> dict:
    """Manifest JSON for a form: host lattice, cutoff, generators, degrees."""
    V = J.host
    if cert is None:
        cert = check_lattice_integral(J)
    out = {
        "lattice": V.lattice.to_json(),
        "cutoff": V.cutoff,
        "generators": [V.format_element(g) for g in J.generators],
        "degrees": cert.to_json()["degrees"],
    }
    if J.gen_degree is not None:
        out["gen_degree"] = J.gen_degree
    if J.saturation_trace:
        out["denominator_trace"] = [
            {str(d): den for d, den in sorted(pass_info.items())}
            for pass_info in J.saturation_trace]
    return out


def form_from_manifest(data: dict, iter_bound: int = 50,
                       host: TruncatedVOA | None = None):
    """Rebuild (host, form) from a manifest's lattice/cutoff/generators,
    on ``host`` when given (the caller checks it is the manifest's)."""
    V = host
    if V is None:
        V = TruncatedVOA(EvenLattice.from_json(data["lattice"]),
                         as_integer(data["cutoff"], "cutoff"))
    gens = manifest_generators(V, data)
    gen_degree = data.get("gen_degree")
    try:
        J = generate_form(V, gens,
                          gen_degree=None if gen_degree is None
                          else as_integer(gen_degree, "gen_degree"),
                          iter_bound=iter_bound)
    except PreconditionError as e:  # the only ones test gen_degree
        raise PreconditionError(f"gen_degree: {e}") from None
    return V, J


def manifest_generators(V: TruncatedVOA, data: dict) -> list:
    """The manifest's list of generator literals, parsed on V; each must
    be homogeneous."""
    gens = data["generators"]
    if not isinstance(gens, list):
        raise ValueError("generators: not a list")
    try:
        out = [V.parse_element(s) for s in gens]
        for g in out:
            if not g.is_zero():
                V.degree_of(g)
    except ValueError as e:  # a parse or degree error, of its own type
        raise type(e)(f"generators: {e}") from None
    return out


def _span_coords(lat: ZLattice, w: dict, den: int) -> list:
    """Rational coordinates of w / den, w a {column: int} map, in lat's basis.

    Solving along the pivots, as int_coordinates does, divides by each
    pivot once, so s w / den has integer coordinates for s = den times
    the product of the pivots whenever w / den lies in the rational span.
    """
    s = den * prod(nz[0][1] for nz in lat.nonzeros)
    coords = lat.int_coordinates({j: s * x for j, x in w.items()}, den)
    if coords is None:
        raise FormError("product left the rational span of the piece")
    return [Fraction(c, s) for c in coords]
