import hashlib
import json
import random
import time
from fractions import Fraction as F
from math import factorial

import pytest

from voaforms.exact import (
    SparseHNF,
    ZLattice,
    apply_columns,
    column_nonzeros,
    lattice_intersect,
    lattice_sum,
    quotient_exponent,
)
from voaforms.latgroup import (
    ActionError,
    Character,
    GroupClosureError,
    SignedAction,
    close_group,
    common_eigenlattice,
    image_lattice,
    invariant_intersection,
)
import voaforms.forms as fm
from voaforms.forms import (
    ConclusionError,
    FormError,
    PreconditionError,
    RankMismatchError,
    SaturationError,
    TruncatedForm,
    VacuumIntegralityError,
    VOAAutomorphism,
)
from voaforms.voa import (
    EvenLattice,
    FockMonomial,
    NotHomogeneousError,
    TruncatedVOA,
)

import dense_hnf
from oracles import member_by_solve


@pytest.fixture(scope="module")
def v4():
    return TruncatedVOA(EvenLattice([[2]]), 4)


@pytest.fixture(scope="module")
def j4(v4):
    return fm.standard_form(v4)


def egens(V):
    return [V.monomial_vector([], [1]), V.monomial_vector([], [-1])]


class TestGenerateForm:
    def test_vacuum_only(self, v4):
        j = fm.generate_form(v4, [])
        assert j.degrees() == [0]
        assert j.lattice(0) == ZLattice.standard(1)

    def test_degree_one_closure_step(self):
        V = TruncatedVOA(EvenLattice([[2]]), 2)
        j = fm.generate_form(V, egens(V))
        lat = j.lattice(1)
        # e^{+-gamma} are generators and their 0-product gives gamma(-1)
        for tail in (1, -1):
            _, row = V.coords(V.monomial_vector([], [tail]))
            assert row in lat
        _, row = V.coords(V.monomial_vector([(1, 0)], [0]))
        assert row in lat

    def test_full_rank_at_cutoff_four(self, v4, j4):
        for d in range(5):
            assert j4.rank(d) == v4.dim(d)

    def test_generation_monotone(self, v4, j4):
        half = fm.generate_form(v4, [v4.monomial_vector([], [1])])
        for d in half.degrees():
            for row in half.lattice(d).basis_rows():
                assert row in j4.lattice(d)

    def test_inhomogeneous_generator_rejected(self, v4):
        g = v4.vacuum() + v4.monomial_vector([], [1])
        with pytest.raises(NotHomogeneousError):
            fm.generate_form(v4, [g])

    def test_gen_degree_bound_enforced(self, v4):
        with pytest.raises(PreconditionError):
            fm.generate_form(v4, egens(v4), gen_degree=0)

    def test_gen_degree_above_cutoff_rejected(self, v4):
        with pytest.raises(PreconditionError):
            fm.generate_form(v4, [], gen_degree=v4.cutoff + 1)

    def test_divergent_generators_error_with_trace(self, v4):
        bad = [v4.monomial_vector([], [1], F(1, 2)),
               v4.monomial_vector([], [-1], F(1, 2))]
        with pytest.raises(SaturationError) as exc:
            fm.generate_form(v4, bad, iter_bound=6)
        assert len(exc.value.trace) == 6
        # the degree-0 denominator keeps growing: that is the divergence
        dens = [p.get(0, 1) for p in exc.value.trace]
        assert dens[-1] > dens[0]

    def test_contains(self, v4, j4):
        assert j4.contains(v4.vacuum())
        assert j4.contains(v4.monomial_vector([(1, 0)], [0], 3))
        assert not j4.contains(v4.monomial_vector([(1, 0)], [0], F(1, 2)))

    def test_closure_sampling(self, j4):
        ok, witness = fm.closure_sample(j4, samples=150, seed=11)
        assert ok and witness is None


def _item_saturation(V, generators, iter_bound):
    """The closure as first written: multiply every pair of found vectors.

    Each vector that enlarges a lattice becomes an item, and each pass
    multiplies every ordered pair of items not multiplied before.
    Membership goes through the Gauss-Jordan oracle; lattices only grow, so
    a row once found inside stays inside and is not solved for again.
    Returns the lattices, the per-pass denominator trace, and whether the
    closure converged.
    """
    items, lattices, members = [], {}, set()

    def try_add(vec):
        if vec.is_zero():
            return False
        d, row = V.coords(vec)
        key = (d, tuple(row))
        if key in members:
            return False
        lat = lattices.get(d, ZLattice.zero(V.dim(d)))
        if lat.rank and member_by_solve(row, lat.basis_rows()):
            members.add(key)
            return False
        lattices[d] = lattice_sum(lat, ZLattice.from_rows(V.dim(d), [row]))
        items.append((d, vec))
        return True

    try_add(V.vacuum())
    for g in generators:
        try_add(g)
    trace, prev = [], 0
    for _ in range(iter_bound):
        cur = len(items)
        for i in range(cur):
            du, u = items[i]
            if du == 0:
                continue
            for j in range(prev if i < prev else 0, cur):
                dw, w = items[j]
                for k in range(du + dw - 1 - V.cutoff, du + dw):
                    try_add(V.vertex_product(u, k, w))
        trace.append({d: lattices[d].den for d in sorted(lattices)})
        if len(items) == cur:
            return lattices, trace, True
        prev = cur
    return lattices, trace, False


class TestSaturationMatchesItemLoop:
    """Lattice-level passes end on the item loop's lattices, pass by pass."""

    @pytest.mark.parametrize("gram, cutoff, generators", [
        ([[2]], 3, ["1 * e(1)", "1 * e(-1)"]),
        ([[2]], 4, ["1 * e(1)", "1 * e(-1)"]),
        ([[2, 1], [1, 2]], 2,
         ["1 * e(1,0)", "1 * e(-1,0)", "1 * e(0,1)", "1 * e(0,-1)"]),
        ([[2]], 3, ["1 * e(1) + 2 * e(-1)", "3 * h(1,-1) * e(0)",
                    "1 * h(1,-1)^2 * e(0) + 1 * h(1,-2) * e(0)"]),
        # rescale_to_integral(standard_form, 1) at A1 cutoff 4: vac plus
        # m = 2 times the degree-1 basis rows
        ([[2]], 4, ["1 * e(0)", "2 * h(1,-1) * e(0)", "2 * e(-1)",
                    "2 * e(1)"]),
        # degrees 1 and 2 grow in pass 3 at the denominator they had at the
        # start of pass 2, so some of their rows are not fresh
        ([[2]], 4, ["2 * e(2)", "3 * e(-1)"]),
    ])
    def test_converged_forms(self, gram, cutoff, generators):
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        gens = [V.parse_element(s) for s in generators]
        lattices, trace, converged = _item_saturation(V, gens, 50)
        assert converged
        J = fm.generate_form(V, gens)
        assert J.saturation_trace == trace
        assert J.degrees() == sorted(lattices)
        for d, lat in lattices.items():
            assert (J.lattice(d).den, J.lattice(d).rows) == \
                (lat.den, lat.rows)

    def test_divergent_trace(self):
        V = TruncatedVOA(EvenLattice([[2]]), 4)
        gens = [V.parse_element("1/2 * e(1)"),
                V.parse_element("1/2 * e(-1)")]
        _, trace, converged = _item_saturation(V, gens, 3)
        assert not converged
        with pytest.raises(SaturationError) as exc:
            fm.generate_form(V, gens, iter_bound=3)
        assert exc.value.trace == trace


def _full_rank_lattices(seed, count):
    """Seeded full-rank lattices M / den with den > 1, in dimensions 1-4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        lat = ZLattice._from_ints(n, rng.randint(2, 30), rows)
        if lat.rank == n and lat.den > 1:
            out.append(lat)
    return out


STANDARD_A2 = ["1 * e(1,0)", "1 * e(-1,0)", "1 * e(0,1)", "1 * e(0,-1)"]
# not swap-stable, so saturation keeps theta alone
LOPSIDED_A2 = ["1 * e(1,0)", "1 * e(-1,0)", "2 * e(0,1)", "2 * e(0,-1)"]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
STANDARD_D4 = [f"1 * e({','.join(str(s * (i == j)) for j in range(4))})"
               for i in range(4) for s in (1, -1)]


class TestExponentFastPath:
    """SparseHNF accepts w / den into a full-rank lattice M / den_L without
    reducing it when den * e divides den_L * gcd(w), for the pair (den_L,
    e) = SparseHNF.exponent().  That is sound when (e / den_L) Z^n lies in
    the lattice, and accepts the most products when e is least."""

    @staticmethod
    def live(lat):
        """A SparseHNF holding lat, its rows added one by one."""
        h = SparseHNF(lat.ambient_dim)
        for nz in lat.nonzeros:
            h.add(dict(nz), lat.den)
        return h

    def test_scaled_cube_is_inside(self):
        rng = random.Random(5)
        lats = _full_rank_lattices(16, 40)
        pairs = [self.live(lat).exponent() for lat in lats]
        assert [den for den, _ in pairs] == [lat.den for lat in lats]
        exps = [e for _, e in pairs]
        assert any(e != lat.den for lat, e in zip(lats, exps))
        assert any(lat.den % e for lat, e in zip(lats, exps))
        for lat, e in zip(lats, exps):
            n = lat.ambient_dim
            vectors = [[int(i == j) for i in range(n)] for j in range(n)]
            vectors += [[rng.randint(-9, 9) for _ in range(n)]
                        for _ in range(5)]
            for scale in (1, 2, 5):
                for z in vectors:
                    w = {j: scale * e * x for j, x in enumerate(z)}
                    assert lat.int_coordinates(w, scale * lat.den) \
                        is not None, (lat, e, z, scale)

    def test_exponent_is_least(self):
        for lat in _full_rank_lattices(16, 40):
            _, e = self.live(lat).exponent()
            primes = [p for p in range(2, e + 1)
                      if e % p == 0 and all(p % q for q in range(2, p))]
            for p in primes:
                assert any(lat.int_coordinates({j: e // p}, lat.den) is None
                           for j in range(lat.ambient_dim)), (lat, e, p)

    def test_accepts_without_reducing(self, monkeypatch):
        """The pair exists from full rank on; add and contains then accept
        what the test covers with no reduction, a change keeps the pair,
        and a new snapshot renews it."""
        h = SparseHNF(2)
        assert h.add({0: 2}, 3) and h.exponent() is None
        assert h.add({0: 1, 1: 4}, 3) and h.exponent() == (3, 8)
        insert, coords = SparseHNF._insert, ZLattice.int_coordinates
        calls = []
        monkeypatch.setattr(SparseHNF, "_insert",
                            lambda *a: calls.append(a) or insert(*a))
        monkeypatch.setattr(ZLattice, "int_coordinates",
                            lambda *a: calls.append(a) or coords(*a))
        assert not h.add({0: 8, 1: -16}, 3) and h.contains({1: 16}, 6)
        assert calls == []
        assert not h.contains({1: 1}, 3) and len(calls) == 1
        assert h.add({1: 1}, 3) and h.exponent() == (3, 8)
        h.lattice()
        assert h.exponent() == (3, 1)

    @pytest.mark.parametrize("gram, cutoff, generators, iter_bound, digest", [
        # the lopsided form of the invariant-intersection benchmark
        ([[2, 1], [1, 2]], 3,
         ["1 * e(1,0)", "1 * e(-1,0)", "2 * e(0,1)", "2 * e(0,-1)"], 50,
         "ceb8a199a34ca2bc"),
        # divergent: the SaturationError trace
        ([[2]], 4, ["1/2 * e(1)", "1/2 * e(-1)"], 4, "f9b519b2e0b1eff8"),
        ([[2]], 5, ["1 * e(1) + 1 * e(-1)"], 50, "1dad18e9d72b4f19"),
        # saturations that end on a pass phase 1 settles (TestPhaseOneStop)
        ([[2]], 5, ["1 * e(1)", "1 * e(-1)"], 50, "2afc3092a5fbc10b"),
        ([[2, 1], [1, 2]], 3, STANDARD_A2, 50, "77f27f08e9475bfb"),
        ([[2]], 3, ["1 * e(1)"], 50, "b297addee12bd594"),
        # charge-pure but not negation-stable, so theta is not used
        ([[2]], 4, ["1 * e(1)", "1 * h(1,-1) * e(-1)"], 50,
         "2515f86e872eb4e6"),
        # divergent; zero products land in degree 1, which never gets a
        # lattice, so it must stay out of the trace
        ([[4]], 4, ["1/2 * e(1) + 1/3 * e(-1)"], 4, "a938923242ec94f6"),
        ([[2, 0], [0, 2]], 3, ["1 * e(1,0)", "1 * e(0,-1)", "1 * e(-1,1)"],
         50, "4202359a2a6c2e23"),
        ([[2, 0], [0, 2]], 3, ["1 * e(1,1) + 1 * e(-1,-1)", "3 * e(1,0)"],
         50, "aaa4cc1fcd420907"),
        ([[2]], 4, ["1/2 * h(1,-1) * e(0)", "1 * e(1)", "1 * e(-1)"], 5,
         "f0d1ba0456643ae3"),
        ([[2]], 4, ["1/4 * h(1,-1) * h(1,-1) * e(0)", "1/2 * h(1,-2) * e(0)"],
         5, "ff5cbdb884cacb3c"),
        ([[2, 1], [1, 2]], 4, STANDARD_A2, 50, "cd0a0233450908fb"),
        # phase 2 of the first pass runs, its derivative test failing, and
        # each takes one pass more without it
        ([[2, 0], [0, 2]], 2, ["1 * e(1,0)", "1 * e(0,-1)", "1 * e(-1,1)"],
         50, "b57c051c1516bd8d"),
        ([[2, 0], [0, 2]], 3, ["3 * e(-1,0)", "3 * e(0,-1)"], 50,
         "0195ab8e862aef69"),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 2,
         ["1 * e(-1,0,0)", "3 * e(1,1,0)"], 50, "b7dce37326816226"),
        # rank 4, where the exponent test accepts the most products
        (D4, 3, STANDARD_D4, 50, "448a7162f5aeece8"),
    ])
    def test_saturations_unchanged(self, gram, cutoff, generators,
                                   iter_bound, digest):
        """Digests of the lattices and trace that multiplying every row pair
        and reducing every product gives, taken before the code that
        skips that work; the fast path fires on the first three while
        lattices still grow."""
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        gens = [V.parse_element(s) for s in generators]
        try:
            J = fm.generate_form(V, gens, iter_bound=iter_bound)
            data = ([(d, J.lattice(d).den, J.lattice(d).rows)
                     for d in J.degrees()], J.saturation_trace)
        except SaturationError as e:
            data = e.trace
        assert hashlib.sha256(repr(data).encode()).hexdigest()[:16] == digest

    def test_membership_work_bound(self, monkeypatch):
        """standard_form on A2 at cutoff 3 makes 4,403 membership
        reductions without the fast path and 1,051 with it, counting those
        on the live lattices (SparseHNF.contains) and for the fresh flags."""
        calls = [0]
        int_coordinates = ZLattice.int_coordinates

        def counting(self, w, den):
            calls[0] += 1
            return int_coordinates(self, w, den)

        monkeypatch.setattr(ZLattice, "int_coordinates", counting)
        fm.standard_form(TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 3))
        assert calls[0] <= 2500, calls[0]


class TestPhaseOneStop:
    """A pass ends after phase 1 when the L(-1)-derivatives of what phase
    1 added lie in the lattices, and so when phase 1 adds nothing: skew
    symmetry then puts every product of the pairs phase 2 would take in
    the lattices.  Each input here ends on a pass phase 1 settles, and
    skips phase 2 of a pass that changed a lattice (passes 2-3 of the
    third and fifth, pass 1 of the fourth, pass 2 of the others); the
    fourth needs the right-vacuum pairs of phase 1 to reach L(-1) e(1),
    and the last does not use theta."""

    @pytest.mark.parametrize("gram, cutoff, generators", [
        ([[2]], 5, ["1 * e(1)", "1 * e(-1)"]),
        ([[2, 1], [1, 2]], 3, STANDARD_A2),
        ([[2]], 5, ["1 * e(1) + 1 * e(-1)"]),
        ([[2]], 3, ["1 * e(1)"]),
        ([[2, 0], [0, 2]], 3, ["1 * e(1,0)", "1 * e(0,-1)", "1 * e(-1,1)"]),
        ([[2]], 4, ["1 * e(1)", "1 * h(1,-1) * e(-1)"]),
    ])
    def test_closed_under_every_product(self, gram, cutoff, generators):
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        J = fm.generate_form(V, [V.parse_element(s) for s in generators])
        rows = [(d, V.vector_from_coords(d, row)) for d in J.degrees()
                for row in J.lattice(d).basis_rows()]
        missing = [(du, dv, k) for du, u in rows for dv, v in rows
                   for k in range(du + dv - 1 - cutoff, du + dv)
                   if not J.contains(V.vertex_product(u, k, v))]
        assert missing == []

    def test_product_work_bound(self, monkeypatch):
        """Row pairs multiplied, exactly, with the products a x vac of the
        derivative test.  standard_form on A2 at cutoff 3 multiplies 5,600
        when its last pass takes both phases, 3,440 when phase 1 ends it,
        1,615 when it also takes one block pair per negation orbit and
        skips the pairs whose charge lies above the cutoff, 1,379 when
        phase 2 also waits on the derivative test, and 950 when it takes
        one block pair per orbit of G = {+-1, +-swap}; on D4 at cutoff 3,
        G of order 12 takes it from 108,978 to 35,321.  A loop that always
        skips phase 2 makes 280 instead of 298 on the first input, and
        one that leaves the in-block pairs (u, v) with u before v out of
        phase 2 makes 207 instead of 209 on the last, with the same
        lattices; the four inputs on A1 or with a generator of two tails
        use G = {1, theta} or {1}."""
        calls = [0]
        products_all_k = fm._products_all_k

        def counting(*args):
            calls[0] += 1
            return products_all_k(*args)

        monkeypatch.setattr(fm, "_products_all_k", counting)
        for gram, cutoff, generators, want in [
                ([[2]], 5, ["1 * e(1) + 1 * e(-1)"], 298),
                ([[2]], 5, ["1 * e(1)", "1 * e(-1)"], 796),
                ([[2, 1], [1, 2]], 3, STANDARD_A2, 950),
                (D4, 3, STANDARD_D4, 35321),
                ([[2, 1], [1, 2]], 3, LOPSIDED_A2, 1379),
                ([[2]], 4, ["1 * e(1)", "1 * h(1,-1) * e(-1)"], 499),
                ([[2, 0], [0, 2]], 3,
                 ["1 * e(1,0) + 1 * e(-1,0)", "1 * e(0,1) + 1 * e(0,-1)"],
                 209)]:
            V = TruncatedVOA(EvenLattice(gram), cutoff)
            calls[0] = 0
            fm.generate_form(V, [V.parse_element(s) for s in generators])
            assert calls[0] == want, (generators, calls[0])


class TestNegationOrbits:
    """Saturation multiplies one block pair per orbit of theta =
    negation_lift and adds theta w for each new w, when every generator
    has one tail and theta maps each generator into S_0."""

    @pytest.mark.parametrize("gram, cutoff", [
        ([[2]], 5),
        ([[2, 1], [1, 2]], 4),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3),
    ])
    def test_signed_map_is_the_lift(self, gram, cutoff):
        """theta's columns, which saturation reads, map gamma_i(-n) to
        -gamma_i(-n) and e^alpha to e^-alpha, its tail sign being +1 as
        eps(-alpha, -beta) = eps(alpha, beta)."""
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        theta = fm.negation_lift(V)
        for d in range(cutoff + 1):
            index = V.basis_index(d)
            want = tuple(
                ((index[FockMonomial(m.modes, tuple(-a for a in m.tail))],
                  -1 if len(m.modes) % 2 else 1),)
                for m in V.graded_basis(d))
            assert theta.columns(d) == want, d

    @pytest.mark.parametrize("gram, cutoff, generators", [
        ([[2, 1], [1, 2]], 3, STANDARD_A2),
        ([[2]], 4, ["1 * e(1)", "1 * h(1,-1) * e(-1)"]),
        ([[2]], 5, ["1 * e(1) + 1 * e(-1)"]),
    ])
    def test_rows_are_charge_pure(self, gram, cutoff, generators):
        """The blocks need every stored row to have one tail when every
        generator does; a generator of two tails gives rows of several."""
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        gens = [V.parse_element(s) for s in generators]
        J = fm.generate_form(V, gens)
        tails = [len({V.graded_basis(d)[j].tail for j, _ in nz})
                 for d in J.degrees() for nz in J.lattice(d).nonzeros]
        one_tail = all(len({m.tail for m in g.terms}) == 1 for g in gens)
        assert (max(tails) == 1) == one_tail


# the E8 Dynkin diagram, in Bourbaki's labels less one
E8_EDGES = {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
E8 = [[2 if i == j else -int((min(i, j), max(i, j)) in E8_EDGES)
       for j in range(8)] for i in range(8)]


class TestDiagramOrbits:
    """Saturation multiplies one block pair per orbit of G, the lifts of
    the signed permutations of the basis that preserve the Gram matrix
    and map every generator into S_0."""

    @staticmethod
    def perms(gram):
        V = TruncatedVOA(EvenLattice(gram), 1)
        return sorted(tuple(row.index(1) for row in zip(*g.isometry))
                      for g in fm.diagram_lifts(V))

    def test_diagram_automorphisms(self):
        assert self.perms([[2, 1], [1, 2]]) == [(1, 0)]
        assert self.perms([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == \
            [(2, 1, 0)]
        assert self.perms(D4) == [(0, 1, 3, 2), (2, 1, 0, 3), (2, 1, 3, 0),
                                  (3, 1, 0, 2), (3, 1, 2, 0)]
        assert self.perms(E8) == []

    @staticmethod
    def scaled_identity(n):
        return TruncatedVOA(EvenLattice([[2 * (i == j) for j in range(n)]
                                         for i in range(n)]), 1)

    def test_search_stops_at_the_bound(self):
        """2 I_8 has 8! Gram-preserving permutations; the search stops
        after 1,024 of them and saturation keeps theta alone."""
        V = self.scaled_identity(8)
        t = time.perf_counter()
        with pytest.raises(GroupClosureError):
            fm.diagram_lifts(V)
        [theta] = fm._saturation_lifts(V, lambda g: True)
        assert time.perf_counter() - t < 1.0
        assert theta == fm.negation_lift(V)
        V = self.scaled_identity(4)
        assert len(fm.diagram_lifts(V)) == 23
        # G = {+-P} has 48 elements
        assert len(fm._saturation_lifts(V, lambda g: True)) == 47

    @pytest.mark.parametrize("gram, order, digest", [
        ([[2, 1], [1, 2]], 4, "921c94da5f9d5eaa"),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 4, "e40133fcf4c69ec9"),
        (D4, 12, "3720955038cfb5b7"),
        ([[2 * (i == j) for j in range(4)] for i in range(4)], 48,
         "c2dc2aaed19ef563"),
        ([[2 * (i == j) for j in range(5)] for i in range(5)], 240,
         "9acfe7f86c078c69"),
    ])
    def test_lifts_pinned(self, gram, order, digest):
        """The lifts' keys, against a digest taken when G was closed on
        theta and every Gram-preserving permutation."""
        V = TruncatedVOA(EvenLattice(gram), 1)
        keys = [g.key() for g in fm._saturation_lifts(V, lambda g: True)]
        assert len(keys) + 1 == order
        assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == digest

    def test_closed_on_few_generators(self, monkeypatch):
        """On 2 I_5 (|G| = 240) the closure makes 1,436 products, not the
        240 * 121 of closing on theta and all 119 other permutations; on
        2 I_6 (|G| = 1,440 > 1,024) it is not run at all."""
        products = []
        close = fm.close_group

        def counting(gens, one, product, bound=1024):
            def counted(a, b):
                products.append(1)
                return product(a, b)
            return close(gens, one, counted, bound)

        monkeypatch.setattr(fm, "close_group", counting)
        assert len(fm._saturation_lifts(self.scaled_identity(5),
                                        lambda g: True)) == 239
        assert len(products) == 1436
        products.clear()
        V = self.scaled_identity(6)
        assert fm._saturation_lifts(V, lambda g: True) == \
            [fm.negation_lift(V)]
        assert not products

    def test_pair_phases(self):
        """On 2 I_3, where G = +-S_3 has 3-cycles (keyed here by the tails
        themselves), each orbit of tail pairs has one representative, the
        reverse of a phase-2 representative has a phase-1 one, as the
        phase proof needs, and a pair of one orbit that an element swaps
        is in phase 1."""
        V = self.scaled_identity(3)
        acts = [g.isometry for g in fm._saturation_lifts(V, lambda g: True)]
        assert len(acts) == 11
        tails = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3)
                 for c in range(-2, 3)]
        orbit = {t: (t,) + tuple(tuple(sum(r[j] * t[j] for j in range(3))
                                       for r in m) for m in acts)
                 for t in tails}
        rep, phase, orbits = {}, {}, set()
        for tu, ou in orbit.items():
            for tv, ov in orbit.items():
                key = frozenset(zip(ou, ov))
                orbits.add(key)
                p = fm._pair_phase(ou, ov)
                if p is not None:
                    assert key not in rep, (tu, tv)
                    rep[key], phase[tu, tv] = (tu, tv), p
        assert len(rep) == len(orbits)
        kinds = set()
        for (tu, tv), p in phase.items():
            ou, ov = orbit[tu], orbit[tv]
            back = phase[rep[frozenset(zip(ov, ou))]]
            assert (p == 0) == (tu == tv)
            assert p != 2 or back == 1, (tu, tv)
            if p and max(ou) == max(ov):  # two blocks of one orbit
                swapped = (tv, tu) in zip(ou, ov)
                assert p == 1 or not swapped, (tu, tv)
                kinds.add((swapped, back))
        assert kinds == {(True, 1), (False, 1), (False, 2)}

    @staticmethod
    def saturate(monkeypatch, gram, cutoff, generators):
        """The form and the lifts saturation used."""
        used = []
        lifts = fm._saturation_lifts
        monkeypatch.setattr(fm, "_saturation_lifts",
                            lambda *a: used.append(lifts(*a)) or used[-1])
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        J = fm.generate_form(V, [V.parse_element(s) for s in generators])
        [group] = used
        return J, group

    def test_lopsided_keeps_theta(self, monkeypatch):
        """Its product count, 1,379, is in test_product_work_bound."""
        _, group = self.saturate(monkeypatch, [[2, 1], [1, 2]], 3,
                                 LOPSIDED_A2)
        assert [g.isometry for g in group] == [((-1, 0), (0, -1))]

    def test_swap_without_theta(self, monkeypatch):
        """3 e(-1,0) and 3 e(0,-1) are swapped, but theta maps them out of
        S_0 (digest 0195ab8e862aef69 in TestExponentFastPath)."""
        _, group = self.saturate(monkeypatch, [[2, 0], [0, 2]], 3,
                                 ["3 * e(-1,0)", "3 * e(0,-1)"])
        assert [g.isometry for g in group] == [((0, 1), (1, 0))]

    @pytest.mark.parametrize("gram, cutoff, generators, order", [
        ([[2, 1], [1, 2]], 4, STANDARD_A2, 4),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3,
         [f"1 * e({','.join(str(s * (i == j)) for j in range(3))})"
          for i in range(3) for s in (1, -1)], 4),
    ])
    def test_group_preserves_the_form(self, monkeypatch, gram, cutoff,
                                      generators, order):
        """The lifts preserve the form and compose within G."""
        J, group = self.saturate(monkeypatch, gram, cutoff, generators)
        assert len(group) + 1 == order
        assert all(g.preserves_form(J) for g in group)
        n = len(gram)
        one = VOAAutomorphism(J.host, [[int(i == j) for j in range(n)]
                                       for i in range(n)])
        keys = {g.key() for g in group + [one]}
        assert {g.compose(h).key() for g in group for h in group} == keys


class TestIntegralityCertificates:
    def test_standard_form_passes(self, j4):
        cert = fm.check_lattice_integral(j4)
        assert cert.passed and cert.first_failure is None
        assert cert.scope == "degrees<=4"
        enc = cert.to_json()
        assert enc["degrees"]["1"]["li"] is True

    def test_vacuum_only_gram(self, v4):
        j = fm.generate_form(v4, [])
        cert = fm.check_lattice_integral(j)
        assert cert.passed
        assert cert.degrees[0]["gram"] == [[1]]

    def test_scaled_fixture_fails_with_witness(self, j4):
        bad = j4.with_scaled_degree(1, F(1, 2))
        cert = fm.check_lattice_integral(bad)
        assert not cert.passed
        d, i, j, val = cert.first_failure
        assert d == 1 and val.denominator in (2, 4)
        assert "witness" in cert.to_json()

    def test_minimal_scale(self, j4):
        assert fm.minimal_integral_scale(j4) == 1
        assert fm.minimal_integral_scale(
            j4.with_scaled_degree(1, F(1, 2))) == 2
        assert fm.minimal_integral_scale(
            j4.with_scaled_degree(1, F(1, 3))) == 3

    @pytest.mark.parametrize("q, cert_digest, manifest_digest", [
        (2, "4d9acdc2ed484820", "eb37d5372d498f32"),
        (3, "ff06972bbd05b9cf", "d66b063c9e745505"),
    ])
    def test_failing_certificate_unchanged(self, j4, q, cert_digest,
                                           manifest_digest):
        """JSON of a failing certificate, witness included, and of its
        manifest, against digests taken from the Fraction Gram."""
        K = j4.with_scaled_degree(1, F(1, q))
        cert = fm.check_lattice_integral(K).to_json()
        assert "witness" in cert
        for data, digest in ((cert, cert_digest),
                             (fm.build_manifest(K), manifest_digest)):
            text = json.dumps(data)
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_one_int_gram_per_degree(self, j4, monkeypatch):
        """The certificate, the minimal scale, form_gram and the duals
        share one integer Gram per degree."""
        import voaforms.exact as ex
        J = TruncatedForm(j4.host, j4.lattices)
        int_gram = ex.int_gram
        calls = []

        def counting(rows, form):
            calls.append(len(form))
            return int_gram(rows, form)
        monkeypatch.setattr(fm, "int_gram", counting)
        monkeypatch.setattr(ex, "int_gram", counting)
        fm.check_lattice_integral(J)
        fm.minimal_integral_scale(J)
        for d in J.degrees():
            fm.form_gram(J, d)
        fm.dual_form(J)
        assert len(calls) == len(J.degrees()), calls

    def test_passing_check_builds_no_fraction(self, j4, monkeypatch):
        J = TruncatedForm(j4.host, j4.lattices)
        made = []
        new = F.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(F, "__new__", staticmethod(counting))
        cert = fm.check_lattice_integral(J)
        monkeypatch.undo()
        assert cert.passed
        assert not made, made[:3]

    def test_minimal_scale_large_prime(self):
        """Trial division stops at the cube root of the cofactor, so a
        prime or a product of two large primes is not divided out."""
        V = TruncatedVOA(EvenLattice([[2]]), 2)
        q = 1_000_000_007
        K = fm.standard_form(V).with_scaled_degree(1, F(1, q))
        assert fm.minimal_integral_scale(K) == q
        n = 1_000_003 * 1_000_033
        assert fm.minimal_integral_scale(self._pairing_over(V, n)) == n

    def test_minimal_scale_brute_force(self):
        V = TruncatedVOA(EvenLattice([[2]]), 2)
        for n in range(1, 400):
            K = self._pairing_over(V, n)
            gram = fm.form_gram(K, 1)
            least = next(m for m in range(1, n + 1) if all(
                (m * m * x).denominator == 1 for row in gram for x in row))
            assert fm.minimal_integral_scale(K) == least, n

    @staticmethod
    def _pairing_over(V, n):
        """The degree-1 span of e(1) / n and e(-1) on A1, whose Gram has
        the entry -1/n."""
        rows = [[x / n for x in V.coords(V.parse_element("1 * e(1)"))[1]],
                V.coords(V.parse_element("1 * e(-1)"))[1]]
        return TruncatedForm(V, {1: ZLattice.from_rows(V.dim(1), rows)})


class TestDualFamily:
    def test_vacuum_line_self_dual(self, j4):
        duals = fm.dual_form(j4)
        assert duals.lattice(0) == ZLattice.standard(1)

    def test_degree_one_dual_contains_half_heisenberg(self, v4, j4):
        duals = fm.dual_form(j4)
        _, row = v4.coords(v4.monomial_vector([(1, 0)], [0], F(1, 2)))
        assert row in duals.lattice(1)

    def test_no_low_rank_flags_on_full_form(self, j4):
        assert fm.dual_form(j4).low_rank_degrees == ()

    def test_low_rank_flagged(self, v4):
        # one Heisenberg line: rank 1 inside the 3-dimensional piece, with
        # a nondegenerate restricted form
        j = fm.generate_form(v4, [v4.monomial_vector([(1, 0)], [0])])
        duals = fm.dual_form(j)
        assert 1 in duals.low_rank_degrees
        _, row = v4.coords(v4.monomial_vector([(1, 0)], [0], F(1, 2)))
        assert row in duals.lattice(1)

    def test_degenerate_restricted_form_reported(self, v4):
        # a single isotropic ground state spans a degenerate line
        from voaforms.exact import DegenerateFormError
        j = fm.generate_form(v4, [v4.monomial_vector([], [1])])
        with pytest.raises(DegenerateFormError):
            fm.dual_form(j)

    def test_integral_iff_contained_in_dual(self, v4, j4):
        # two independent code paths must agree
        duals = fm.dual_form(j4)
        contained = all(
            all(row in duals.lattice(d) for row in j4.lattice(d).basis_rows())
            for d in j4.degrees())
        assert contained == fm.check_lattice_integral(j4).passed
        bad = j4.with_scaled_degree(1, F(1, 2))
        bad_duals = fm.dual_form(bad)
        bad_contained = all(
            all(row in bad_duals.lattice(d)
                for row in bad.lattice(d).basis_rows())
            for d in bad.degrees())
        assert bad_contained == fm.check_lattice_integral(bad).passed is False

    def test_stability_orders(self, j4):
        for n in range(0, 3):
            assert fm.dual_stability_check(j4, n)

    def test_orders_above_every_degree_build_nothing(self, j4, monkeypatch):
        # L(1)^n maps each degree below n to 0: no L(1) rows are needed
        reads = []
        monkeypatch.setattr(j4.host, "int_rows", reads.append)
        assert fm.dual_stability_check(j4, j4.host.cutoff + 1)
        assert fm.dual_stability_check(j4, 10 ** 4, return_witness=True) \
            == (True, None)
        assert reads == []

    def test_stability_failure_witnessed(self, j4):
        # tripling one degree shrinks its dual by 3, whose raising images
        # acquire denominators no other degree's dual carries
        bad = j4.with_scaled_degree(2, 3)
        ok, witness = fm.dual_stability_check(bad, 1, return_witness=True)
        assert not ok and witness[0] == 2


class TestScaledWithVacuum:
    def test_identity_scale(self, j4):
        k = fm.scaled_with_vacuum(j4, 1, seed=3)
        for d in j4.degrees():
            assert k.lattice(d) == j4.lattice(d)

    def test_scale_two_passes(self, j4):
        k = fm.scaled_with_vacuum(j4, 2, seed=3)
        assert fm.check_lattice_integral(k).passed
        assert k.lattice(0) == ZLattice.standard(1)  # vacuum restored
        assert k.lattice(1) == j4.lattice(1).scale(2)

    def test_precondition_rejected(self, j4):
        bad = j4.with_scaled_degree(1, F(1, 2))
        with pytest.raises(PreconditionError):
            fm.scaled_with_vacuum(bad, 1)
        # m = 2 makes it integral again
        k = fm.scaled_with_vacuum(bad, 2, assert_conclusion=False)
        assert fm.check_lattice_integral(k).passed

    def test_bad_m(self, j4):
        with pytest.raises(PreconditionError):
            fm.scaled_with_vacuum(j4, 0)


class TestRescaleToIntegral:
    def test_integral_input(self, j4):
        m1, m2, jm = fm.rescale_to_integral(j4, 1)
        assert m1 == 1
        # m2 equals the via-elementary-divisors exponent of the dual over
        # the intersection at degree 1, computed directly as the oracle
        from voaforms.exact import lattice_intersect, dual_lattice, QMatrix
        L = j4.lattice(1)
        fmx = QMatrix.from_rows(j4.host.form_matrix(1))
        dual = dual_lattice(L, fmx)
        inter = lattice_intersect(L, dual)
        assert m2 == quotient_exponent(dual, inter) == 2
        assert fm.check_lattice_integral(jm).passed

    def test_scaled_fixture(self, j4):
        bad = j4.with_scaled_degree(1, F(1, 2))
        m1, m2, jm = fm.rescale_to_integral(bad, 1)
        assert (m1, m2) == (4, 1)
        assert fm.check_lattice_integral(jm).passed

    def test_trivial_bound(self, v4):
        j = fm.generate_form(v4, [])
        m1, m2, jm = fm.rescale_to_integral(j, 0)
        assert (m1, m2) == (1, 1)
        assert jm.degrees() == [0]

    def test_gen_degree_precondition(self, v4):
        V2 = TruncatedVOA(EvenLattice([[2]]), 3)
        j = fm.generate_form(V2, [V2.monomial_vector([(2, 0)], [0])])
        with pytest.raises(PreconditionError):
            fm.rescale_to_integral(j, 1)  # generated at degree 2 > 1


class TestQuasiPrimaryCheck:
    def test_standard_generators(self, v4):
        cert = fm.quasi_primary_integrality_check(v4, egens(v4))
        assert cert.quasi_primary and cert.passed
        assert cert.form is not None

    def test_non_quasi_primary_reported(self, v4):
        gens = egens(v4) + [v4.monomial_vector([(2, 0)], [0])]
        cert = fm.quasi_primary_integrality_check(v4, gens)
        assert not cert.quasi_primary
        assert cert.non_quasi_primary_indices == [2]
        assert cert.li_certificate is None and not cert.passed

    def test_vacuum_only(self, v4):
        cert = fm.quasi_primary_integrality_check(v4, [v4.vacuum()])
        assert cert.passed


class TestQuasiPrimaryFamily:
    """Ground-state generators close integrally across small even lattices.

    A low-cutoff sweep over representative even positive definite Gram
    matrices of rank <= 2 with entries bounded by 4; the full-depth runs
    live in the acceptance suite.
    """

    GRAMS = [
        [[2]],
        [[4]],
        [[2, 0], [0, 2]],
        [[2, 1], [1, 2]],
        [[4, 1], [1, 2]],
        [[4, 3], [3, 4]],
        [[4, -2], [-2, 4]],
    ]

    @pytest.mark.parametrize("gram", GRAMS,
                             ids=lambda g: "x".join(str(r) for r in g))
    def test_each_lattice(self, gram):
        V = TruncatedVOA(EvenLattice(gram), 2)
        gens = []
        for i in range(V.lattice.rank):
            for s in (1, -1):
                tail = [0] * V.lattice.rank
                tail[i] = s
                gens.append(V.monomial_vector([], tail))
        cert = fm.quasi_primary_integrality_check(V, gens)
        assert cert.quasi_primary and cert.passed


class TestVacuumIntersection:
    def test_generated_forms(self, j4):
        assert fm.vacuum_intersection(j4) == 1

    def test_scaled_vacuum_line(self, j4):
        assert fm.vacuum_intersection(j4.with_scaled_degree(0, 3)) == 3

    def test_fractional_vacuum_errors(self, j4):
        with pytest.raises(VacuumIntegralityError):
            fm.vacuum_intersection(j4.with_scaled_degree(0, F(1, 2)))

    def test_zero_errors(self, v4):
        j = TruncatedForm(v4, {})
        with pytest.raises(PreconditionError):
            fm.vacuum_intersection(j)


@pytest.fixture(scope="module")
def theta(v4):
    return fm.negation_lift(v4)


@pytest.fixture(scope="module")
def tau(v4):
    return fm.parity_sign_map(v4, 0)


class TestAutomorphisms:
    def test_rejects_non_isometry(self, v4):
        with pytest.raises(ValueError):
            VOAAutomorphism(v4, [[2]])

    def test_fixes_vacuum_and_virasoro(self, v4, theta, tau):
        for a in (theta, tau):
            assert a.apply(v4.vacuum()) == v4.vacuum()
            assert a.apply(v4.virasoro_element()) == v4.virasoro_element()

    def test_degree_preserving(self, v4, theta):
        for d in range(5):
            for m in v4.graded_basis(d):
                img = theta.apply(v4.monomial_vector(m.modes, m.tail))
                assert v4.degree_of(img) == d

    def test_preserves_form_reads_columns(self, j4, theta, tau,
                                          monkeypatch):
        """preserves_form hands latgroup.preserves the column nonzeros
        columns(d) holds, not the dense matrix(d)."""
        def dense(*args):
            raise AssertionError("matrix(d) built")
        monkeypatch.setattr(VOAAutomorphism, "matrix", dense)
        assert theta.preserves_form(j4) and tau.preserves_form(j4)
        V = j4.host
        row = V.coords(V.parse_element("1 * e(1)"))[1]
        K = TruncatedForm(V, {1: ZLattice.from_rows(V.dim(1), [row])})
        assert not theta.preserves_form(K)

    def test_involution_matrices(self, v4, theta, tau):
        from voaforms.latgroup import SignedAction
        for d in range(5):
            SignedAction(v4.dim(d), [theta.matrix(d), tau.matrix(d)])

    def test_respects_products(self, v4, theta, tau, a2n3_standard):
        # on rank 2, where S^T != S and the tail signs are not all 1
        a2 = a2n3_standard[0]
        rng = random.Random(7)
        for a in (theta, tau, theta.compose(tau),
                  VOAAutomorphism(a2, [[-1, -1], [1, 0]]),
                  VOAAutomorphism(a2, [[0, 1], [1, 0]], [-1, 1])):
            V = a.host
            for _ in range(25 if V is v4 else 50):
                p = rng.randint(0, 2)
                q = rng.randint(0, 2)
                u = V.monomial_vector(*rng.choice(V.graded_basis(p)))
                w = V.monomial_vector(*rng.choice(V.graded_basis(q)))
                k = rng.randint(p + q - 1 - V.cutoff, p + q - 1)
                lhs = a.apply(V.vertex_product(u, k, w))
                rhs = V.vertex_product(a.apply(u), k, a.apply(w))
                assert lhs == rhs

    A1 = TruncatedVOA(EvenLattice([[2]]), 6)
    A2 = TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 4)
    A3 = TruncatedVOA(EvenLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), 3)
    SWAP = [[0, 1], [1, 0]]
    LIFTS = [(A1, [[-1]], None), (A1, [[1]], [-1]),
             (A2, SWAP, None), (A2, [[-1, -1], [1, 0]], None),
             (A2, [[-1, 0], [0, -1]], [1, -1]), (A2, SWAP, [-1, 1]),
             (A3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], None),
             (A3, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], [1, -1, 1])]

    def test_matrices_pinned(self):
        """The degree matrices of eight lifts, against a digest taken when
        each column was the image of one basis monomial under the lift."""
        text = "".join(repr(VOAAutomorphism(V, S, signs).matrix(d))
                       for V, S, signs in self.LIFTS
                       for d in range(V.cutoff + 1))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
            "38ca85d0b5e8c61f"

    def test_columns_are_the_matrix_nonzeros(self):
        """columns(d) holds the zero-free column nonzeros of matrix(d), and
        theta one nonzero per column, in distinct rows: saturation maps a
        sparse vector through theta entry by entry."""
        for V, S, signs in self.LIFTS:
            a = VOAAutomorphism(V, S, signs)
            for d in range(V.cutoff + 1):
                assert list(map(list, a.columns(d))) == \
                    column_nonzeros(a.matrix(d)), (S, signs, d)
        for V in (self.A1, self.A2, self.A3):
            theta = fm.negation_lift(V)
            for d in range(V.cutoff + 1):
                cols = theta.columns(d)
                assert all(len(col) == 1 for col in cols)
                assert sorted(i for (i, _), in cols) == list(range(V.dim(d)))

    def test_preserves_standard_form(self, j4, theta, tau):
        assert theta.preserves_form(j4)
        assert tau.preserves_form(j4)

    def test_compose_is_group_operation(self, v4, theta, tau):
        tt = theta.compose(theta)
        ident = VOAAutomorphism(v4, [[1]])
        assert tt == ident
        assert theta.compose(tau) == tau.compose(theta)


class TestFixedAndEigenforms:
    def test_identity_fixed_is_form(self, v4, j4):
        ident = VOAAutomorphism(v4, [[1]])
        fixed = fm.fixed_subform(j4, [ident])
        for d in j4.degrees():
            assert fixed.lattice(d) == j4.lattice(d)

    def test_negation_fixed_degree_one(self, v4, j4, theta):
        fixed = fm.fixed_subform(j4, [theta])
        want = v4.monomial_vector([], [1]) + v4.monomial_vector([], [-1])
        _, row = v4.coords(want)
        lat = fixed.lattice(1)
        assert lat.rank == 1 and row in lat

    def test_fixed_is_product_closed_sampled(self, j4, theta):
        fixed = fm.fixed_subform(j4, [theta])
        ok, _ = fm.closure_sample(fixed, samples=80, seed=2)
        assert ok

    def test_trivial_character_matches_fixed(self, v4, j4, theta):
        fixed = fm.fixed_subform(j4, [theta])
        eig = fm.character_eigenform(j4, [theta], Character((1,)))
        for d in j4.degrees():
            assert eig[d] == fixed.lattice(d)

    def test_negation_odd_part_degree_one(self, v4, j4, theta):
        eig = fm.character_eigenform(j4, [theta], Character((-1,)))
        lat = eig[1]
        assert lat.rank == 2
        diff = v4.monomial_vector([], [1]) - v4.monomial_vector([], [-1])
        _, row = v4.coords(diff)
        assert row in lat
        _, h_row = v4.coords(v4.monomial_vector([(1, 0)], [0]))
        assert h_row in lat

    def test_character_eigenform_is_one_family(self, j4, theta, tau,
                                               monkeypatch):
        """Each character's family equals the decomposition's, built from
        one common_eigenlattice call per degree."""
        cases = [(auts, fm.eigenform_decomposition(j4, auts)[0])
                 for auts in ([theta], [theta, tau])]
        calls = []

        def counting(*args):
            calls.append(args)
            return common_eigenlattice(*args)

        monkeypatch.setattr(fm, "common_eigenlattice", counting)
        for auts, families in cases:
            for char in Character.all_characters(len(auts)):
                calls.clear()
                assert fm.character_eigenform(j4, auts, char) == \
                    families[char]
                assert len(calls) == len(j4.degrees())

    def test_tel_exponents_divide_group_order(self, j4, theta, tau):
        for auts in ([theta], [theta, tau]):
            exps = fm.tel_exponents(j4, auts)
            for e in exps.values():
                assert (1 << len(auts)) % e == 0

    def test_non_preserving_rejected(self, v4, j4, theta):
        skew = _half_eg_skew(v4, j4)
        assert not theta.preserves_form(skew)
        with pytest.raises(PreconditionError):
            fm.fixed_subform(skew, [theta])


def _half_eg_skew(v4, j4):
    """Standard form with e^{+gamma}/2 adjoined at degree 1 (not symmetric)."""
    basis = v4.graded_basis(1)
    eg_index = basis.index(
        next(m for m in basis if m.tail == (1,) and not m.modes))
    extra = [F(1, 2) if i == eg_index else F(0) for i in range(v4.dim(1))]
    skew = TruncatedForm(v4, dict(j4.lattices))
    skew.lattices[1] = ZLattice.from_rows(
        v4.dim(1), j4.lattice(1).basis_rows() + [extra])
    return skew


class TestInvariantIntersect:
    def test_invariant_input(self, j4, theta):
        out, exps = fm.invariant_form_intersect(j4, [theta])
        for d in j4.degrees():
            assert out.lattice(d) == j4.lattice(d)
            assert exps[d] == 1

    def test_skew_input(self, v4, j4, theta):
        # e^{+gamma}/2 adjoined on one side only: the negation lift swaps
        # the two tails, so intersecting over the group restores the
        # standard degree-1 lattice with exponent 2
        skew = _half_eg_skew(v4, j4)
        out, exps = fm.invariant_form_intersect(skew, [theta])
        assert exps[1] == 2
        assert out.lattice(1) == j4.lattice(1)


@pytest.fixture(scope="module")
def a2_rotation():
    """A2 at cutoff 2, its standard form, and the lift of an order-3 rotation."""
    V = TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 2)
    return V, fm.standard_form(V), VOAAutomorphism(V, [[-1, -1], [1, 0]])


class TestOrderThreeRotation:
    # not an involution, so the fixed lattice must not go through the
    # involution checks of a SignedAction
    def test_fixed_subform_ranks_are_average_traces(self, a2_rotation):
        V, J, rho = a2_rotation
        fixed = fm.fixed_subform(J, [rho])
        assert [fixed.rank(d) for d in range(3)] == [1, 2, 5]
        for d in range(3):
            m = rho.matrix(d)
            n = len(m)
            m2 = [[sum(m[i][k] * m[k][j] for k in range(n))
                   for j in range(n)] for i in range(n)]
            traces = n + sum(m[i][i] for i in range(n)) + \
                sum(m2[i][i] for i in range(n))
            assert 3 * fixed.rank(d) == traces
            for row in fixed.lattice(d).basis_rows():
                assert apply_columns(column_nonzeros(m), enumerate(row),
                                     n) == row

    def test_intersection_group_bound(self, a2_rotation):
        _, J, rho = a2_rotation
        with pytest.raises(FormError):
            fm.invariant_form_intersect(J, [rho], bound=2)


def _adjoin_half(J, degree, element):
    """J with element / 2 adjoined to its degree piece."""
    V = J.host
    _, row = V.coords(V.parse_element(element))
    K = TruncatedForm(V, dict(J.lattices))
    K.lattices[degree] = ZLattice.from_rows(
        V.dim(degree),
        J.lattice(degree).basis_rows() + [[F(x, 2) for x in row]])
    return K


@pytest.fixture(scope="module")
def group_inputs():
    """(name, form, automorphisms): lopsided and standard forms of A2 at
    cutoff 3 and of D4 at cutoff 2 under finite groups of lifts."""
    V = TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 3)
    lop = fm.generate_form(V, [V.parse_element(s) for s in LOPSIDED_A2])
    S = fm.standard_form(V)
    swap, theta = VOAAutomorphism(V, [[0, 1], [1, 0]]), fm.negation_lift(V)
    rho = VOAAutomorphism(V, [[-1, -1], [1, 0]])
    par = fm.parity_sign_map(V, 0)
    W = TruncatedVOA(EvenLattice(D4), 2)
    T = fm.standard_form(W)
    skew = _adjoin_half(T, 1, "1 * e(1,0,0,0)")
    dl = fm.diagram_lifts(W)
    return [("lopsided swap theta", lop, [swap, theta]),
            ("standard swap theta", S, [swap, theta]),
            ("lopsided rotation", lop, [rho]),
            ("lopsided rotation theta", lop, [rho, theta]),
            ("lopsided parity", lop, [par]),
            ("lopsided parity swap", lop, [par, swap]),
            ("D4 skew S2", skew, [dl[0]]),
            ("D4 skew S3", skew, [dl[1], dl[2]]),
            ("D4 standard", T, [dl[0], dl[3]])]


class TestActionsThroughColumns:
    """Finite groups of lifts act through their columns: the results equal
    those of the dense matrices, and no dense matrix is built."""

    def test_intersection_matches_dense_matrices(self, group_inputs):
        moved = set()
        for name, J, auts in group_inputs:
            K, exps = fm.invariant_form_intersect(J, auts)
            for d in J.degrees():
                want = invariant_intersection(
                    J.lattice(d), [a.matrix(d) for a in auts])
                assert (K.lattice(d), exps[d]) == want, (name, d)
            moved.add(any(e > 1 for e in exps.values()))
        assert moved == {True, False}

    def test_each_distinct_image_once(self, group_inputs, monkeypatch):
        """The lopsided form under {swap, theta} (the invariant-a2n3 input):
        the three g != 1 act as 1 on degree 0, so 9 of the 12 intersections
        remain, and the results equal those of meeting every image."""
        import voaforms.latgroup as lg
        _, J, auts = group_inputs[0]
        group = close_group(auts, fm.identity_lift(J.host),
                            VOAAutomorphism.compose)[1:]
        want = {}
        for d in J.degrees():
            L = inter = J.lattice(d)
            for g in group:
                inter = lattice_intersect(inter,
                                          image_lattice(g.columns(d), L))
            want[d] = (inter, quotient_exponent(L, inter))
        calls = []
        meet = lg.lattice_intersect
        monkeypatch.setattr(lg, "lattice_intersect",
                            lambda a, b: calls.append(1) or meet(a, b))
        K, exps = fm.invariant_form_intersect(J, auts)
        assert (len(group) * len(J.degrees()), len(calls)) == (12, 9)
        assert {d: (K.lattice(d), exps[d]) for d in J.degrees()} == want

    def test_no_dense_matrix(self, group_inputs, monkeypatch):
        def dense(*args):
            raise AssertionError("matrix(d) built")
        _, J, auts = group_inputs[1]
        monkeypatch.setattr(VOAAutomorphism, "matrix", dense)
        fm.invariant_form_intersect(J, auts)
        fm.tel_exponents(J, auts)
        fm.fixed_subform(J, auts)
        fm.character_eigenform(J, auts, Character((1, -1)))

    def test_decomposition_matches_dense_kernel(self, a1n6):
        """Eigenlattices against the kernel of the dense g - s*I, and
        exponents against the sum of those kernels."""
        V, J = a1n6["voa"], a1n6["form"]
        theta, tau = fm.negation_lift(V), fm.parity_sign_map(V, 0)
        for auts in ([theta], [theta, tau]):
            eigen, exps = fm.eigenform_decomposition(J, auts)
            for d in J.degrees():
                L, n = J.lattice(d), V.dim(d)
                total = ZLattice.zero(n)
                for ch in Character.all_characters(len(auts)):
                    stacked = [[] for _ in L.rows]
                    for a, s in zip(auts, ch.signs):
                        m = a.matrix(d)
                        for row, out in zip(L.rows, stacked):
                            out.extend(sum(m[i][j] * row[j] for j in range(n))
                                       - s * row[i] for i in range(n))
                    ker = dense_hnf.kernel_int(stacked, len(stacked[0]))
                    want = ZLattice.from_rows(n, [
                        [F(sum(k[t] * L.rows[t][j] for t in range(len(k))),
                           L.den) for j in range(n)] for k in ker])
                    assert eigen[ch][d] == want, (len(auts), ch, d)
                    total = lattice_sum(total, want)
                assert exps[d] == quotient_exponent(L, total)

    def test_lift_of_an_involution_that_is_not_one(self, a2n3_standard):
        """Swap with basis signs (1, -1) squares to the identity isometry,
        but its lift does not square to 1."""
        V, S = a2n3_standard
        a = VOAAutomorphism(V, [[0, 1], [1, 0]], [1, -1])
        assert a.preserves_form(S)
        assert a.compose(a) != fm.identity_lift(V)
        with pytest.raises(ActionError, match="square"):
            fm.eigenform_decomposition(S, [a])

    def test_non_commuting_dense_generators(self, a2n3_standard):
        V, _ = a2n3_standard
        swap = VOAAutomorphism(V, [[0, 1], [1, 0]])
        refl = VOAAutomorphism(V, [[-1, -1], [0, 1]])
        one = fm.identity_lift(V)
        assert swap.compose(swap) == one and refl.compose(refl) == one
        for d in (1, 2):
            with pytest.raises(ActionError, match="commute"):
                SignedAction(V.dim(d), [swap.matrix(d), refl.matrix(d)])
            with pytest.raises(ActionError, match="commute"):
                fm.graded_sign_action(V, [swap, refl], d)


@pytest.fixture(scope="module")
def a2n3_standard():
    V = TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 3)
    return V, fm.standard_form(V)


class TestIntegerKernelsMatchFractions:
    """Gram matrices against entrywise Fraction references."""

    def test_form_gram_every_degree(self, a2n3_standard):
        V, S = a2n3_standard
        half = S.with_scaled_degree(1, F(1, 2))
        assert half.lattice(1).den > 1
        for J in (S, half):
            assert J.degrees() == list(range(V.cutoff + 1))
            for d in J.degrees():
                rows = J.lattice(d).basis_rows()
                fmat = V.form_matrix(d)
                n = V.dim(d)
                uf = [[sum((u[i] * fmat[i][j] for i in range(n)), F(0))
                       for j in range(n)] for u in rows]
                want = [[sum((x * y for x, y in zip(fu, w)), F(0))
                         for w in rows] for fu in uf]
                got = fm.form_gram(J, d)
                assert got == want
                assert all(type(x) is F for row in got for x in row)


class TestMutualScale:
    def test_same_form(self, j4):
        mjk, mkj, per = fm.mutual_scale_report(j4, j4)
        assert (mjk, mkj) == (1, 1)

    def test_doubled_form(self, v4, j4):
        k = TruncatedForm(v4, {d: j4.lattice(d).scale(2)
                               for d in j4.degrees()})
        mjk, mkj, per = fm.mutual_scale_report(j4, k)
        assert (mjk, mkj) == (2, 1)

    def test_rank_mismatch(self, v4, j4):
        k = fm.generate_form(v4, [v4.monomial_vector([], [1])])
        with pytest.raises(RankMismatchError):
            fm.mutual_scale_report(j4, k)

    def test_cross_check_with_exponent(self, v4, j4):
        # a genuinely different commensurable form
        g1 = v4.monomial_vector([], [1]) + v4.monomial_vector([], [-1])
        g2 = v4.monomial_vector([], [1]) - v4.monomial_vector([], [-1])
        k = fm.generate_form(v4, [g1, g2])
        if any(k.rank(d) != j4.rank(d) for d in range(5)):
            pytest.skip("combination form is not full rank at this cutoff")
        mjk, mkj, per = fm.mutual_scale_report(j4, k)
        from voaforms.exact import lattice_sum
        for d, (a, b) in per.items():
            s = lattice_sum(j4.lattice(d), k.lattice(d))
            assert a == quotient_exponent(s, k.lattice(d))
            assert b == quotient_exponent(s, j4.lattice(d))


class TestManifest:
    def test_round_trip(self, v4, j4):
        man = fm.build_manifest(j4)
        assert man["cutoff"] == 4
        assert man["degrees"]["1"]["basis_rank"] == 3
        assert "denominator_trace" in man
        V2, j2 = fm.form_from_manifest(man)
        for d in j4.degrees():
            assert j2.lattice(d) == j4.lattice(d)


class TestDegreeTraceForm:
    def test_mode_matrices_are_integral(self, j4):
        for mat in fm.degree_mode_matrices(j4, 2):
            assert all(e.denominator == 1 for e in mat.entries)

    def test_mode_matrices_halved_piece(self, j4):
        # halving the basis halves every structure constant, so the
        # coordinates leave the lattice but stay in its rational span
        half = j4.with_scaled_degree(2, F(1, 2))
        for mat, want in zip(fm.degree_mode_matrices(half, 2),
                             fm.degree_mode_matrices(j4, 2)):
            assert mat == want.scale(F(1, 2))

    @pytest.mark.parametrize("degree, digest", [
        (2, "2691ef9173f46b7d"), (3, "0249cad97a51a41d")])
    def test_mode_matrices_unchanged(self, degree, digest):
        """Digests of the A2 cutoff-3 standard form's mode matrices, taken
        when each coordinate solve took an integer kernel."""
        V = TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 3)
        mats = fm.degree_mode_matrices(fm.standard_form(V), degree)
        data = repr([m.entries for m in mats]).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    def test_span_coords(self):
        # rows (1, 2, 0) and (0, 3, 0) over 2: rational coordinates inside
        # the span, a FormError outside it
        lat = ZLattice.from_rows(3, [[F(1, 2), 1, 0], [0, F(3, 2), 0]])
        rows = lat.basis_rows()
        for w, den in [({0: 1}, 1), ({0: 4, 1: -7}, 3), ({}, 5)]:
            coords = fm._span_coords(lat, w, den)
            assert [sum(c * r[j] for c, r in zip(coords, rows))
                    for j in range(3)] == [F(w.get(j, 0), den)
                                           for j in range(3)]
        with pytest.raises(FormError, match="rational span"):
            fm._span_coords(lat, {1: 1, 2: 1}, 1)

    def test_trace_form_matches_matrix_products(self, j4):
        from voaforms.dihedral import ad_matrix, dihedral_2a, killing_form
        from voaforms.exact import QMatrix

        def reference(mats):
            n = len(mats)
            return QMatrix(n, n, [(mi @ mj).trace()
                                  for mi in mats for mj in mats])
        alg = dihedral_2a()
        assert killing_form(alg) == reference(
            [ad_matrix(alg, alg.basis_vector(i)) for i in range(alg.dim)])
        assert fm.degree_trace_form(j4, 2) == reference(
            fm.degree_mode_matrices(j4, 2))

    def test_trace_form_symmetric_integer(self, j4):
        tf = fm.degree_trace_form(j4, 2)
        assert tf.is_symmetric()
        assert all(e.denominator == 1 for e in tf.entries)

    def test_comparison_with_inherited_form(self, v4, j4):
        # the comparison tooling: trace form vs inherited form on a piece
        from voaforms.dihedral import proportionality_check
        from voaforms.exact import QMatrix
        tf = fm.degree_trace_form(j4, 2)
        inherited = QMatrix.from_rows(fm.form_gram(j4, 2))
        ratio = proportionality_check(tf, inherited)
        assert ratio is None or isinstance(ratio, F)

    def test_commutative_piece_builds_algebra(self, v4):
        # the vacuum line is trivially commutative
        j = fm.generate_form(v4, [])
        alg = fm.degree_algebra(j, 0)
        assert alg.dim == 1
        assert alg.constants[0][0][0] == 1


def _closure_reference(J, seed, samples=200):
    """closure_sample's draws, each product tested with vertex_product."""
    V = J.host
    rng = random.Random(seed)
    degs = J.degrees()
    for _ in range(samples):
        da, db = rng.choice(degs), rng.choice(degs)
        ia, ib = rng.randrange(J.rank(da)), rng.randrange(J.rank(db))
        k = rng.randint(da + db - 1 - V.cutoff, da + db - 1)
        u = V.vector_from_coords(da, J.lattice(da).basis_row(ia))
        v = V.vector_from_coords(db, J.lattice(db).basis_row(ib))
        if not J.contains(V.vertex_product(u, k, v)):
            return False, (da, ia, db, ib, k)
    return True, None


def _dual_stability_reference(J, n):
    """dual_stability_check with L(1) applied by L_apply on vectors."""
    V = J.host
    duals = fm.dual_form(J)
    for s in duals.degrees():
        for row in duals.lattice(s).basis_rows():
            cur = V.vector_from_coords(s, row)
            for _ in range(n):
                cur = V.L_apply(1, cur)
            if cur.is_zero():
                continue
            _, out = V.coords(cur.scale(F(1, factorial(n))))
            target = duals.lattices.get(s - n)
            if target is None or out not in target:
                return False, (s, row)
    return True, None


@pytest.mark.parametrize("scaling", [None, (1, F(1, 2)), (2, F(1, 3))],
                         ids=["unscaled", "deg1-half", "deg2-third"])
@pytest.mark.parametrize("host", ["a1n4", "a2n3"])
def test_product_checks_match_vector_references(request, host, scaling):
    """closure_sample and dual_stability_check against vector references."""
    if host == "a1n4":
        J = request.getfixturevalue("j4")
    else:
        _, J = request.getfixturevalue("a2n3_standard")
    if scaling is not None:
        J = J.with_scaled_degree(*scaling)
    closure = [fm.closure_sample(J, seed=seed) for seed in range(30)]
    assert closure == [_closure_reference(J, seed) for seed in range(30)]
    stability = [fm.dual_stability_check(J, n, return_witness=True)
                 for n in range(J.host.cutoff + 2)]
    assert stability == [_dual_stability_reference(J, n)
                         for n in range(J.host.cutoff + 2)]
    # the scaled forms are neither closed nor dual-stable, and both show it
    assert all(ok for ok, _ in closure) == (scaling is None)
    assert all(ok for ok, _ in stability) == (scaling is None)
