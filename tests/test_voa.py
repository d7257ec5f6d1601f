import hashlib
import random
import time
from fractions import Fraction as F
from math import factorial

import pytest

from voaforms.voa import (
    INDEX_BITS,
    INDEX_MASK,
    CutoffExceededError,
    ElementParseError,
    EvenLattice,
    FockMonomial,
    GradedVector,
    NotHomogeneousError,
    TruncatedVOA,
)

import fraction_kernel
from oracles import graded_dims_by_series


@pytest.fixture(scope="module")
def a1():
    return TruncatedVOA(EvenLattice([[2]]), 6)


@pytest.fixture(scope="module")
def a2():
    return TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 4)


def mono(v, modes, tail, c=1):
    return v.monomial_vector(modes, tail, c)


class TestEvenLattice:
    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError, match="not even"):
            EvenLattice([[1]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            EvenLattice([[2, 3], [3, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            EvenLattice([[2, 1], [0, 2]])

    def test_short_vectors_a1(self):
        lat = EvenLattice([[2]])
        assert lat.short_vectors(2) == [(0,), (-1,), (1,)]
        assert len(lat.short_vectors(8)) == 5

    def test_short_vectors_a2_roots(self):
        lat = EvenLattice([[2, 1], [1, 2]])
        roots = [v for v in lat.short_vectors(2) if lat.norm(v) == 2]
        assert len(roots) == 6

    def test_json_round_trip(self):
        lat = EvenLattice([[2, 1], [1, 2]])
        assert EvenLattice.from_json(lat.to_json()).gram == lat.gram


class TestGradedBasis:
    def test_degree_zero_is_vacuum(self, a1):
        assert a1.graded_basis(0) == (a1.vacuum_monomial(),)

    def test_a1_degree_one(self, a1):
        basis = a1.graded_basis(1)
        assert len(basis) == 3
        assert FockMonomial(((1, 0),), (0,)) in basis
        assert FockMonomial((), (1,)) in basis
        assert FockMonomial((), (-1,)) in basis

    def test_counts_match_series_oracle(self, a1, a2):
        assert [a1.dim(d) for d in range(7)] == \
            graded_dims_by_series([[2]], 6)
        assert [a2.dim(d) for d in range(5)] == \
            graded_dims_by_series([[2, 1], [1, 2]], 4)

    def test_no_duplicates(self, a2):
        for d in range(5):
            basis = a2.graded_basis(d)
            assert len(set(basis)) == len(basis)
            for m in basis:
                assert a2.mono_degree(m) == d

    def test_cutoff_enforced(self, a1):
        with pytest.raises(CutoffExceededError):
            a1.graded_basis(7)

    def test_large_cutoff_constructs_quickly(self):
        # nothing of size (N+1)N/2 is built before a product asks for it
        start = time.perf_counter()
        V = TruncatedVOA(EvenLattice([[2]]), 3000)
        assert time.perf_counter() - start < 1.0
        assert V.dim(1) == 3


class TestVertexProduct:
    def test_exponential_lowest_orders(self, a1):
        eg = mono(a1, [], [1])
        emg = mono(a1, [], [-1])
        assert a1.vertex_product(eg, 1, emg) == a1.vacuum()
        assert a1.vertex_product(eg, 0, emg) == mono(a1, [(1, 0)], [0])
        got = a1.vertex_product(eg, -1, emg)
        want = mono(a1, [(2, 0)], [0], F(1, 2)) + \
            mono(a1, [(1, 0), (1, 0)], [0], F(1, 2))
        assert got == want

    def test_heisenberg_action(self, a1):
        # gamma(-1) acting via its modes: h_0 e^g = <g,g> e^g
        h = mono(a1, [(1, 0)], [0])
        eg = mono(a1, [], [1])
        assert a1.vertex_product(h, 0, eg) == eg.scale(2)
        assert a1.vertex_product(h, 1, h) == a1.vacuum().scale(2)

    def test_grading(self, a1):
        for p in range(4):
            for q in range(4):
                for ma in a1.graded_basis(p):
                    for mb in a1.graded_basis(q):
                        u = mono(a1, ma.modes, ma.tail)
                        v = mono(a1, mb.modes, mb.tail)
                        for k in range(p + q - 1 - a1.cutoff, p + q):
                            for m_ in a1.vertex_product(u, k, v).terms:
                                assert a1.mono_degree(m_) == p + q - k - 1

    def test_bilinearity(self, a1):
        eg = mono(a1, [], [1])
        h = mono(a1, [(1, 0)], [0])
        b = mono(a1, [], [-1])
        lhs = a1.vertex_product(eg.scale(3) + h, 0, b)
        rhs = a1.vertex_product(eg, 0, b).scale(3) + a1.vertex_product(h, 0, b)
        assert lhs == rhs

    def test_inhomogeneous_is_sum_of_components(self, a1):
        a = a1.vacuum().scale(F(1, 3)) + mono(a1, [(1, 0)], [0], 2) + \
            mono(a1, [], [1], F(1, 2))
        b = mono(a1, [], [-1], F(3, 4)) + mono(a1, [(2, 0)], [0], F(-1, 5))
        assert len(a1.degrees_of(a)) == 2 and len(a1.degrees_of(b)) == 2
        mixed = 0
        for k in range(-3, 3):
            want = GradedVector({}, a1.cutoff)
            for u in a1.homogeneous_components(a).values():
                for v in a1.homogeneous_components(b).values():
                    want = want + a1.vertex_product(u, k, v)
            got = a1.vertex_product(a, k, b)
            assert got == want
            mixed += len(a1.degrees_of(got)) > 1
        assert mixed

    def test_cutoff_error_and_drop(self, a1):
        top = mono(a1, [(6, 0)], [0])
        with pytest.raises(CutoffExceededError):
            a1.vertex_product(top, -1, top)

    def test_negative_degree_products_vanish(self, a1):
        eg = mono(a1, [], [1])
        assert a1.vertex_product(eg, 5, eg).is_zero()


class TestVacuumIdentities:
    def test_vacuum_mode_is_delta(self, a1):
        vac = a1.vacuum()
        for d in range(7):
            for m_ in a1.graded_basis(d):
                gv = mono(a1, m_.modes, m_.tail)
                for k in range(max(d - 7, -4), 3):
                    if d - k - 1 > a1.cutoff:
                        continue
                    got = a1.vertex_product(vac, k, gv)
                    if k == -1:
                        assert got == gv
                    else:
                        assert got.is_zero()

    def test_right_vacuum_three_cases(self, a2):
        vac = a2.vacuum()
        for d in range(5):
            for m_ in a2.graded_basis(d):
                gv = mono(a2, m_.modes, m_.tail)
                for k in range(0, 3):
                    assert a2.vertex_product(gv, k, vac).is_zero()
                assert a2.vertex_product(gv, -1, vac) == gv
                k = -2
                while d - k - 1 <= a2.cutoff:
                    n = -k - 1
                    cur = gv
                    for _ in range(n):
                        cur = a2.L_apply(-1, cur)
                    assert a2.vertex_product(gv, k, vac) == \
                        cur.scale(F(1, factorial(n)))
                    k -= 1


def _gbinom(n, i):
    """Binomial coefficient C(n, i) for any integer n and i >= 0."""
    num = 1
    for t in range(i):
        num *= n - t
    return num // factorial(i)


def _sign(n):
    """(-1)^n for any integer n."""
    return -1 if n % 2 else 1


def _basis_vectors(V):
    return [(d, m, V.monomial_vector(m.modes, m.tail))
            for d in range(V.cutoff + 1) for m in V.graded_basis(d)]


def _accumulate(out, vec, coeff):
    for m_, c in vec.terms.items():
        out[m_] = out.get(m_, 0) + coeff * c


def borcherds_failures(V):
    """Instances where the Borcherds identity fails, over the basis.

    For monomials a, b, c with deg a + deg b + deg c <= cutoff, checks
        sum_i C(p,i) (a_{r+i} b)_{p+q-i} c
          = sum_i (-1)^i C(r,i) [a_{p+r-i} (b_{q+i} c)
                                 - (-1)^r b_{q+r-i} (a_{p+i} c)]
    for every (p, q, r) whose intermediates a_r b, b_q c, a_p c and whose
    result all have degree <= cutoff (Borcherds 1986; Frenkel-Lepowsky-
    Meurman 1988).  The degrees of the intermediates only fall as i grows,
    so every product evaluated is representable.  Instances whose result
    tail is too long for the result degree are zero term by term and are
    skipped.  Only vertex_product is used.  Returns (failures, instances).
    """
    N = V.cutoff
    basis = _basis_vectors(V)
    pair = {}

    def prod2(ia, k, ib):
        key = (ia, k, ib)
        hit = pair.get(key)
        if hit is None:
            hit = pair[key] = V.vertex_product(basis[ia][2], k, basis[ib][2])
        return hit

    failures, instances = [], 0
    for ia, (da, ma, a) in enumerate(basis):
        for ib, (db, mb, b) in enumerate(basis):
            for ic, (dc, mc, c) in enumerate(basis):
                s = da + db + dc
                if s > N:
                    continue
                tau = [x + y + z for x, y, z in zip(ma.tail, mb.tail, mc.tail)]
                memo = {}

                def outer(x, k, y, key):
                    hit = memo.get(key)
                    if hit is None:
                        hit = memo[key] = V.vertex_product(x, k, y)
                    return hit

                for t in range(V.lattice.norm(tau) // 2, N + 1):
                    # degrees P, Q, R of a_p c, b_q c, a_r b sum to t + s - 1
                    lo = t + s - 1 - 2 * N
                    for R in range(lo, N + 1):
                        for Q in range(lo, N + 1):
                            P = t + s - 1 - R - Q
                            if P > N:
                                continue
                            p, q, r = da + dc - 1 - P, db + dc - 1 - Q, \
                                da + db - 1 - R
                            diff = {}
                            for i in range(R + 1):
                                co = _gbinom(p, i)
                                if co:
                                    _accumulate(diff, outer(
                                        prod2(ia, r + i, ib), p + q - i, c,
                                        (0, r + i, p + q - i)), co)
                            for i in range(Q + 1):
                                co = _sign(i) * _gbinom(r, i)
                                if co:
                                    _accumulate(diff, outer(
                                        a, p + r - i, prod2(ib, q + i, ic),
                                        (1, p + r - i, q + i)), -co)
                            for i in range(P + 1):
                                co = _sign(i + r) * _gbinom(r, i)
                                if co:
                                    _accumulate(diff, outer(
                                        b, q + r - i, prod2(ia, p + i, ic),
                                        (2, q + r - i, p + i)), co)
                            instances += 1
                            if any(diff.values()):
                                failures.append((ia, ib, ic, p, q, r))
    return failures, instances


def skew_symmetry_failures(V, pairs=None):
    """Pairs where u_k v != sum_j (-1)^(k+j+1) (v_{k+j} u)_{-j-1} vac.

    Runs over the given pairs of _basis_vectors entries (by default every
    ordered pair of basis monomials) and every k with u_k v of degree
    0..cutoff; each (v_{k+j} u)_{-j-1} vac has the degree of u_k v, so
    everything stays representable.  Returns (failures, instances).
    """
    N = V.cutoff
    vac = V.vacuum()
    if pairs is None:
        basis = _basis_vectors(V)
        pairs = [(a, b) for a in basis for b in basis]
    failures, instances = [], 0
    for (du, _, u), (dv, _, v) in pairs:
        for k in range(du + dv - 1 - N, du + dv):
            diff = {}
            _accumulate(diff, V.vertex_product(u, k, v), 1)
            for j in range(du + dv - k):
                _accumulate(diff, V.vertex_product(
                    V.vertex_product(v, k + j, u), -j - 1, vac),
                    _sign(k + j))
            instances += 1
            if any(diff.values()):
                failures.append((u, v, k))
    return failures, instances


@pytest.fixture(scope="module")
def a1n4():
    return TruncatedVOA(EvenLattice([[2]]), 4)


@pytest.fixture(scope="module")
def a2n3():
    return TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 3)


@pytest.fixture(scope="module")
def a2mn3():
    return TruncatedVOA(EvenLattice([[2, -1], [-1, 2]]), 3)


class TestKernelOracles:
    """Identities every vertex algebra satisfies, checked on the kernel."""

    def test_borcherds_identity_a1(self, a1n4):
        failures, instances = borcherds_failures(a1n4)
        assert instances > 50000
        assert failures == []

    def test_borcherds_identity_a2(self, a2n3):
        failures, instances = borcherds_failures(a2n3)
        assert instances > 50000
        assert failures == []

    def test_borcherds_identity_negative_gram(self, a2mn3):
        # the signed factors g[i][l], <gamma_i, alpha> and <gamma_i, beta>
        failures, instances = borcherds_failures(a2mn3)
        assert instances > 50000
        assert failures == []

    def test_skew_symmetry(self, a1n4, a2n3, a2mn3):
        for V in (a1n4, a2n3, a2mn3):
            failures, instances = skew_symmetry_failures(V)
            assert instances > 1000
            assert failures == []

    @pytest.mark.parametrize("gram, cutoff", [
        ([[2]], 5), ([[2, 1], [1, 2]], 3), ([[2, 0], [0, 2]], 3)])
    def test_skew_symmetry_sampled(self, gram, cutoff):
        """Seeded monomial pairs on hosts whose saturations stop after
        phase 1, which rests on this identity."""
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        rng = random.Random(20)
        basis = _basis_vectors(V)
        pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(300)]
        failures, instances = skew_symmetry_failures(V, pairs)
        assert instances > 1000
        assert failures == []


class TestIntegerKernelMatchesFractions:
    """Integer tables over (N!)^2 equal the Fraction kernel's products."""

    @staticmethod
    def check_pairs(V, max_total):
        """Every monomial pair with deg(ma) + deg(mb) <= max_total."""
        monos = [(d, m) for d in range(V.cutoff + 1)
                 for m in V.graded_basis(d)]
        pairs = [(da, ma, db, mb) for da, ma in monos for db, mb in monos
                 if da + db <= max_total]
        for da, ma, db, mb in pairs:
            got = {}
            for k, bucket in V.pair_products(ma, mb).items():
                basis = V.graded_basis(da + db - k - 1)
                got[k] = {basis[p & INDEX_MASK]: F(p >> INDEX_BITS,
                                                   V.product_den)
                          for p in bucket}
            assert got == fraction_kernel.pair_products(V, ma, mb)
        return len(pairs)

    @pytest.mark.parametrize("gram, cutoff", [([[2]], 5),
                                              ([[2, 1], [1, 2]], 3),
                                              ([[4]], 5),
                                              ([[2, 1], [1, 4]], 3),
                                              ([[2, -1], [-1, 2]], 3),
                                              ([[2, -1, 0], [-1, 2, -1],
                                                [0, -1, 2]], 2),
                                              ([[2, 0], [0, 2]], 3)])
    def test_every_monomial_pair(self, gram, cutoff):
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        assert V.product_den == factorial(cutoff) ** 2
        self.check_pairs(V, 2 * cutoff)

    def test_a1_n6_pairs_within_the_cutoff(self):
        # the deepest recursions: up to six modes between the two sides
        V = TruncatedVOA(EvenLattice([[2]]), 6)
        assert V.product_den == factorial(6) ** 2
        assert self.check_pairs(V, 6) == 643

    @pytest.mark.parametrize("gram, cutoff, pairs, digest", [
        ([[2]], 5, 2209, "a7dfec0b87674dee"),
        ([[2, 1], [1, 2]], 3, 5184, "e7a2ae650cb5b69b"),
        ([[2, 0], [0, 2]], 3, 3844, "5f192f66d5fe6f5a")])
    def test_packed_tables_are_pinned(self, gram, cutoff, pairs, digest):
        # index order, dropped zeros and k order, not only the values
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        monos = [(d, m) for d in range(cutoff + 1)
                 for m in V.graded_basis(d)]
        tables = [V.pair_products(ma, mb) for da, ma in monos
                  for db, mb in monos if da + db <= 2 * cutoff]
        assert len(tables) == pairs
        assert hashlib.sha256(
            repr(tables).encode()).hexdigest()[:16] == digest

    def test_mode_above_the_cutoff_has_no_products_within_it(self):
        V = TruncatedVOA(EvenLattice([[2]]), 2)
        assert V.pair_products(FockMonomial(((3, 0),), (0,)),
                               V.vacuum_monomial()) == {}


class TestPackedBuckets:
    """Bucket entries (num << INDEX_BITS) | index decode to basis terms."""

    @pytest.mark.parametrize("gram, cutoff", [([[2, 1], [1, 2]], 3),
                                              ([[2]], 5)])
    def test_entries_decode_in_range(self, gram, cutoff):
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        monos = [(d, m) for d in range(cutoff + 1)
                 for m in V.graded_basis(d)]
        entries = 0
        for da, ma in monos:
            for db, mb in monos:
                for k, bucket in V.pair_products(ma, mb).items():
                    dim = V.dim(da + db - k - 1)
                    assert bucket
                    indices = [p & INDEX_MASK for p in bucket]
                    assert all(i < dim for i in indices)
                    assert len(set(indices)) == len(indices)
                    assert all(p >> INDEX_BITS for p in bucket)
                    entries += len(bucket)
        assert entries > 10000

    def test_tables_independent_of_memo_order(self):
        tables = []
        for order in (1, -1):
            V = TruncatedVOA(EvenLattice([[2, 1], [1, 2]]), 3)
            monos = [m for d in range(4) for m in V.graded_basis(d)]
            pairs = [(ma, mb) for ma in monos for mb in monos][::order]
            tables.append({p: V.pair_products(*p) for p in pairs})
        assert tables[0] == tables[1]

    def test_vacuum_tables(self, a2n3):
        vac = a2n3.vacuum_monomial()
        for d in range(a2n3.cutoff + 1):
            for i, m in enumerate(a2n3.graded_basis(d)):
                assert a2n3.pair_products(vac, m) == {
                    -1: ((a2n3.product_den << INDEX_BITS) | i,)}

    def test_graded_basis_rejects_unindexable_degree(self, monkeypatch):
        import voaforms.voa as voa
        assert TruncatedVOA(EvenLattice([[2]]), 3).dim(3) == 7
        monkeypatch.setattr(voa, "INDEX_BITS", 2)   # at most 3 monomials
        V = TruncatedVOA(EvenLattice([[2]]), 3)
        assert V.dim(1) == 3
        with pytest.raises(ValueError, match="more than pair_products"):
            V.graded_basis(3)


class TestBilinearForm:
    def test_normalization(self, a1):
        assert a1.bilinear_form(a1.vacuum(), a1.vacuum()) == 1

    def test_one_mode_sign(self, a1):
        # forced by the invariance identity: adjoint of gamma(n) is -gamma(-n)
        h = mono(a1, [(1, 0)], [0])
        assert a1.bilinear_form(h, h) == -2

    def test_repeated_mode(self, a1):
        # both copies of gamma(-1) can pair with either copy: 2! (-2)^2
        hh = mono(a1, [(1, 0), (1, 0)], [0])
        assert a1.bilinear_form(hh, hh) == 8

    def test_tail_pairing(self, a1):
        eg = mono(a1, [], [1])
        emg = mono(a1, [], [-1])
        assert a1.bilinear_form(eg, emg) == -1
        assert a1.bilinear_form(eg, eg) == 0

    def test_symmetric(self, a1):
        for d in range(5):
            basis = a1.graded_basis(d)
            for x in basis:
                for y in basis:
                    assert a1.pair_form(x, y) == a1.pair_form(y, x)

    def test_distinct_degrees_orthogonal(self, a1):
        for p in range(4):
            for q in range(4):
                if p == q:
                    continue
                for x in a1.graded_basis(p):
                    for y in a1.graded_basis(q):
                        assert a1.pair_form(x, y) == 0

    @pytest.mark.parametrize("gram, cutoff", [
        ([[2]], 5), ([[2, 1], [1, 2]], 4),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3)])
    def test_form_matrix_is_all_pairs(self, gram, cutoff):
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        for d in range(cutoff + 1):
            basis = V.graded_basis(d)
            assert V.form_matrix(d) == [[V.pair_form(a, b) for b in basis]
                                        for a in basis]

    @pytest.mark.parametrize("gram, cutoff, digest", [
        ([[2]], 6, "b955959095494b9e"),
        ([[2, 1], [1, 2]], 4, "9835327bf735300d"),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3, "e8aa21ad7307437e")])
    def test_form_matrices_are_pinned(self, gram, cutoff, digest):
        # the matrices themselves, which pair_form alone does not fix
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        forms = [V.form_matrix(d) for d in range(cutoff + 1)]
        assert hashlib.sha256(
            repr(forms).encode()).hexdigest()[:16] == digest


class TestVirasoro:
    def test_omega_a1(self, a1):
        assert a1.virasoro_element() == mono(a1, [(1, 0), (1, 0)], [0], F(1, 4))

    def test_l0_is_grading(self, a1, a2):
        for v in (a1, a2):
            for d in range(v.cutoff + 1):
                for m_ in v.graded_basis(d):
                    gv = mono(v, m_.modes, m_.tail)
                    assert v.L_apply(0, gv) == gv.scale(d)

    def test_omega_self_pairing_is_half_rank(self, a1, a2):
        assert a1.bilinear_form(a1.virasoro_element(),
                                a1.virasoro_element()) == F(1, 2)
        assert a2.bilinear_form(a2.virasoro_element(),
                                a2.virasoro_element()) == 1

    def test_weight_one_on_tail(self, a1):
        eg = mono(a1, [], [1])
        assert a1.L_apply(0, eg) == eg

    def test_l1_examples(self, a1):
        assert a1.L_apply(1, mono(a1, [], [1])).is_zero()
        assert a1.L_apply(1, mono(a1, [(2, 0)], [0])) == \
            mono(a1, [(1, 0)], [0], 2)
        assert a1.L_apply(-1, a1.vacuum()).is_zero()

    def test_quasi_primary(self, a1, a2):
        assert a1.is_quasi_primary(a1.vacuum())
        assert a1.is_quasi_primary(mono(a1, [], [1]))
        assert a1.is_quasi_primary(mono(a1, [], [-1]))
        assert not a1.is_quasi_primary(mono(a1, [(2, 0)], [0]))
        for tail in ([1, 0], [-1, 0], [0, 1], [0, -1]):
            assert a2.is_quasi_primary(mono(a2, [], tail))

    def test_divided_translate(self, a1):
        h = mono(a1, [(1, 0)], [0])
        assert a1.divided_translate(h, 0) == h
        assert a1.divided_translate(h, 1) == mono(a1, [(2, 0)], [0])
        assert a1.divided_translate(a1.vacuum(), 3).is_zero()

    def test_divided_translate_matches_l_chain(self, a1):
        rng = random.Random(23)
        for _ in range(10):
            d = rng.randint(0, 3)
            basis = a1.graded_basis(d)
            m_ = basis[rng.randrange(len(basis))]
            gv = mono(a1, m_.modes, m_.tail)
            n = rng.randint(0, a1.cutoff - d)
            cur = gv
            for _ in range(n):
                cur = a1.L_apply(-1, cur)
            assert a1.divided_translate(gv, n) == cur.scale(F(1, factorial(n)))


class TestInvarianceIdentity:
    def test_vacuum_left(self, a1):
        h = mono(a1, [(1, 0)], [0])
        assert a1.invariance_identity_check(a1.vacuum(), h, h)

    def test_low_degree_triples(self, a1):
        eg = mono(a1, [], [1])
        emg = mono(a1, [], [-1])
        h = mono(a1, [(1, 0)], [0])
        assert a1.invariance_identity_check(eg, emg, h)
        assert a1.invariance_identity_check(eg, eg, a1.vacuum())

    def test_randomized_triples(self, a1):
        rng = random.Random(31)
        for _ in range(100):
            vecs = []
            for _ in range(3):
                d = rng.randint(0, 4)
                basis = a1.graded_basis(d)
                m_ = basis[rng.randrange(len(basis))]
                vecs.append(mono(a1, m_.modes, m_.tail,
                                 F(rng.randint(1, 5), rng.randint(1, 3))))
            assert a1.invariance_identity_check(*vecs)

    def test_detects_wrong_form(self, a1):
        # breaking the cocycle sign convention must violate the identity
        eg = mono(a1, [], [1])
        emg = mono(a1, [], [-1])
        h = mono(a1, [(1, 0)], [0])
        good = a1.bilinear_form(a1.vertex_product(eg, 0, emg), h)
        assert good != 0  # the identity is not vacuous on this triple


class TestLiterals:
    def test_round_trip_all_basis(self, a2):
        for d in range(5):
            for m_ in a2.graded_basis(d):
                gv = mono(a2, m_.modes, m_.tail, F(-3, 7))
                lit = a2.format_element(gv)
                assert a2.parse_element(lit) == gv

    def test_vacuum_literal(self, a1):
        assert a1.format_element(a1.vacuum()) == "1 * e(0)"
        assert a1.parse_element("1 * e(0)") == a1.vacuum()

    def test_mode_literal(self, a1):
        gv = a1.parse_element("1 * h(1,-1) * e(0)")
        assert gv == mono(a1, [(1, 0)], [0])

    def test_zero(self, a1):
        assert a1.format_element(GradedVector({}, 6)) == "0"
        assert a1.parse_element("0").is_zero()

    def test_parse_errors(self, a1):
        for bad in ["x * e(0)", "1 * h(2,-1) * e(0)", "1 * h(1,-1)",
                    "1 * e(0,0)", "1 * h(1,1) * e(0)", "1e3 * e(0)",
                    "0.5 * e(0)"]:
            with pytest.raises((ElementParseError, CutoffExceededError)):
                a1.parse_element(bad)

    @pytest.mark.parametrize("factor", ["h(1,-1)^0", "h(1,-1)^00"])
    def test_zero_exponent_rejected(self, a1, factor):
        with pytest.raises(ElementParseError, match=r"exponent.*\^0"):
            a1.parse_element(f"1 * {factor} * e(0)")

    def test_exponent_beyond_cutoff_rejected_before_expansion(self, a1):
        # the factor is checked before its 10^12 modes would be listed
        with pytest.raises(CutoffExceededError, match=r"h\(1,-1\)\^10"):
            a1.parse_element("1 * h(1,-1)^1000000000000 * e(0)")


class TestMonomialVector:
    """monomial_vector accepts exactly the monomials parse_element accepts."""

    @pytest.mark.parametrize("mode", [(0, 0), (-1, 0), (1, 3), (1, -1),
                                      (1.5, 0), (True, 0), (1, 0, 0)])
    def test_rejects_bad_mode(self, a1, mode):
        with pytest.raises(ValueError, match=r"mode \(.*\) is not \(n, i\)"):
            a1.monomial_vector([mode], [0])

    @pytest.mark.parametrize("tail, message", [
        ([], "entries, not rank 1"), ([0, 0], "entries, not rank 1"),
        ([0.5], "tail: not an integer")])
    def test_rejects_bad_tail(self, a1, tail, message):
        with pytest.raises(ValueError, match=message):
            a1.monomial_vector([(1, 0)], tail)

    def test_accepts_every_basis_monomial(self, a2):
        for d in range(a2.cutoff + 1):
            for m in a2.graded_basis(d):
                v = a2.monomial_vector(reversed(m.modes), list(m.tail))
                assert v.terms == {m: 1}


class TestCoords:
    def test_round_trip(self, a1):
        d = 2
        row = [F(i + 1, 3) for i in range(a1.dim(d))]
        v = a1.vector_from_coords(d, row)
        dd, out = a1.coords(v)
        assert dd == d and out == row

    def test_inhomogeneous_rejected(self, a1):
        v = a1.vacuum() + mono(a1, [], [1])
        with pytest.raises(NotHomogeneousError):
            a1.coords(v)
