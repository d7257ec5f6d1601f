import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from voaforms.exact import (
    DegenerateFormError,
    DimensionMismatchError,
    NotSublatticeError,
    QMatrix,
    SparseHNF,
    SpanMismatchError,
    ZLattice,
    _gram_blocks,
    dual_lattice,
    hnf,
    hnf_int,
    int_dual_lattice,
    int_gram,
    lattice_intersect,
    lattice_sum,
    mat_mul,
    membership,
    quotient_exponent,
    quotient_index,
    quotient_invariants,
    smith_invariants,
    smith_of_hnf,
)
from voaforms.voa import EvenLattice, TruncatedVOA

import dense_hnf
from oracles import (
    exponent_by_scan,
    gauss_solve_left,
    grid_points,
    invariants_by_minors,
    member_by_solve,
    member_of_span,
    naive_z_span_basis,
)


def lat(*rows):
    return ZLattice.from_rows(len(rows[0]), rows)


class TestHnf:
    def test_identity_is_fixed(self):
        m = QMatrix.identity(3)
        assert hnf(m) == m

    def test_index_two_sublattice(self):
        rows = [[2, 0], [0, 2], [1, 1]]
        out = hnf(QMatrix.from_rows(rows))
        assert out.row_list() == [[1, 1], [0, 2]]
        assert hnf_int(rows, 2) == dense_hnf.hnf_int(rows, 2) \
            == [[1, 1], [0, 2]]

    def test_rational_single_row(self):
        m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
        out = hnf(m)
        assert out.row_list() == [[Fraction(1, 2), Fraction(1, 3)]]

    def test_row_permutation_independent(self):
        rows = [[2, 3, 1], [4, 0, -2], [1, 1, 1], [0, 5, 5]]
        rng = random.Random(7)
        reference = hnf(QMatrix.from_rows(rows))
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert hnf(QMatrix.from_rows(shuffled)) == reference
            assert hnf_int(shuffled, 3) == dense_hnf.hnf_int(rows, 3) \
                == reference.row_list()

    def test_canonicalization_idempotent(self):
        a = lat([Fraction(1, 2), Fraction(3, 4)], [5, 7])
        again = ZLattice.from_rows(2, a.basis_rows())
        assert again == a
        assert again.rows == a.rows and again.den == a.den


class TestSumIntersect:
    def test_sum_idempotent(self):
        a = lat([2, 1], [0, 3])
        assert lattice_sum(a, a) == a

    def test_sum_of_three_lines(self):
        a = lat([2, 0])
        b = lat([0, 2])
        c = lat([1, 1])
        s = lattice_sum(lattice_sum(a, b), c)
        assert s == lat([1, 1], [0, 2])

    def test_sum_full(self):
        assert lattice_sum(lat([1, 0]), lat([0, 1])) == ZLattice.standard(2)

    def test_intersect_idempotent(self):
        a = lat([2, 1], [0, 3])
        assert lattice_intersect(a, a) == a

    def test_intersect_skew_scalings(self):
        a = lat([2, 0], [0, 1])
        b = lat([1, 0], [0, 3])
        assert lattice_intersect(a, b) == lat([2, 0], [0, 3])

    def test_intersect_containment(self):
        z2 = ZLattice.standard(2)
        two = z2.scale(2)
        assert lattice_intersect(z2, two) == two

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lattice_sum(lat([1, 0]), lat([1, 0, 0]))


class TestQuotient:
    def test_equal_lattices(self):
        a = lat([3, 1], [0, 2])
        assert quotient_exponent(a, a) == 1

    def test_diagonal(self):
        a = ZLattice.standard(2)
        b = lat([2, 0], [0, 6])
        assert quotient_invariants(a, b) == [2, 6]
        assert quotient_exponent(a, b) == 6
        assert quotient_index(a, b) == 12

    def test_checkerboard(self):
        a = ZLattice.standard(2)
        b = lat([1, 1], [1, -1])
        assert quotient_exponent(a, b) == 2
        assert quotient_index(a, b) == 2

    def test_scaling_gives_m(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 3)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            a = ZLattice.from_rows(n, rows)
            if a.rank < n:
                continue
            m = rng.randint(1, 9)
            assert quotient_exponent(a, a.scale(m)) == m
            assert quotient_exponent(a, a.scale(-m)) == m
            assert quotient_exponent(a.scale(Fraction(1, m)), a) == m

    def test_scale_is_the_span_of_scaled_rows(self):
        """scale multiplies the stored rows and divides out a common
        factor; the result is the canonical form of the scaled rows, for
        negative, fractional and zero c."""
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = ZLattice._from_ints(n, rng.choice([1, 2, 3, 6]), [
                [rng.randint(-6, 6) for _ in range(n)]
                for _ in range(rng.randint(0, 4))])
            for c in (Fraction(-3), Fraction(2, 3), Fraction(-5, 4), 0,
                      Fraction(1, 6), Fraction(4), Fraction(-1)):
                got = a.scale(c)
                want = ZLattice.from_rows(
                    n, [[c * x for x in row] for row in a.basis_rows()])
                assert (got.den, got.nonzeros, got.row_of) \
                    == (want.den, want.nonzeros, want.row_of), (a, c)
                assert got == want and hash(got) == hash(want)
        assert ZLattice.standard(2).scale(0) == ZLattice.zero(2)
        assert lat([2, 0], [0, 4]).scale(Fraction(-1, 2)) == lat([1, 0],
                                                                  [0, 2])

    def test_not_sublattice(self):
        with pytest.raises(NotSublatticeError):
            quotient_exponent(lat([2, 0], [0, 2]), lat([1, 0], [0, 1]))

    def test_span_mismatch(self):
        with pytest.raises(SpanMismatchError):
            quotient_exponent(lat([1, 0], [0, 1]), lat([1, 0]))


class TestDual:
    def test_rank_one(self):
        a = ZLattice.standard(1)
        g = QMatrix.from_rows([[2]])
        assert dual_lattice(a, g) == lat([Fraction(1, 2)])

    def test_unimodular_self_dual(self):
        a = ZLattice.standard(3)
        assert dual_lattice(a, QMatrix.identity(3)) == a

    def test_index_three(self):
        a = ZLattice.standard(2)
        g = QMatrix.from_rows([[2, 1], [1, 2]])
        d = dual_lattice(a, g)
        assert quotient_index(d, a) == 3

    def test_involutive(self):
        rng = random.Random(11)
        g = QMatrix.from_rows([[2, 1], [1, 4]])
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            a = ZLattice.from_rows(2, rows)
            if a.rank < 2:
                continue
            assert dual_lattice(dual_lattice(a, g), g) == a

    def test_zero_lattice_self_dual(self):
        z = ZLattice.zero(2)
        assert dual_lattice(z, QMatrix.identity(2)) == z

    def test_degenerate_rejected(self):
        a = ZLattice.standard(2)
        g = QMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(DegenerateFormError):
            dual_lattice(a, g)


def _det(rows):
    """Determinant over Q by plain Gaussian elimination (test reference)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _pairing(rows_a, gram, rows_b):
    n = len(gram)
    return [[sum(u[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))
             for w in rows_b] for u in rows_a]


class TestDualAgainstDefinition:
    """Dual rows lie in span(A) and pair with A's rows unimodularly."""

    GRAMS = {
        2: [[[2, 1], [1, 2]], [[0, 1], [1, 0]], [[1, 0], [0, -1]],
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), -1]]],
        3: [[[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[Fraction(1, 2), 0, Fraction(1, 3)], [0, Fraction(-3, 4), 0],
             [Fraction(1, 3), 0, 2]]],
    }

    @staticmethod
    def _check(a, gram):
        """Check dual_lattice(a, gram) against the definition; False when
        the form is degenerate on span(a), which must raise."""
        rows = a.basis_rows()
        g = QMatrix.from_rows(gram)
        if _det(_pairing(rows, gram, rows)) == 0:
            with pytest.raises(DegenerateFormError):
                dual_lattice(a, g)
            return False
        d = dual_lattice(a, g)
        assert d.rank == a.rank
        for row in d.basis_rows():
            assert gauss_solve_left(rows, row) is not None
        pairing = _pairing(d.basis_rows(), gram, rows)
        assert all(x.denominator == 1 for row in pairing for x in row)
        assert _det(pairing) in (1, -1)
        return True

    def test_random_lattices_and_forms(self):
        rng = random.Random(5)
        seen = {"low rank": 0, "den > 1": 0, "degenerate": 0, "checked": 0}
        for _ in range(150):
            dim = rng.choice((2, 3))
            gram = rng.choice(self.GRAMS[dim])
            a, _ = random_lattice(rng, dim, allow_halves=True)
            if a.rank == 0:
                continue
            a = a.scale(Fraction(rng.choice((1, 2, 3)), rng.choice((1, 3, 5))))
            if not self._check(a, gram):
                seen["degenerate"] += 1
                continue
            seen["checked"] += 1
            seen["low rank"] += a.rank < dim
            seen["den > 1"] += a.den > 1
        assert all(seen.values()), seen

    def test_direct_sums_with_shuffled_columns(self):
        """Sums of GRAMS entries over scattered column sets, and sums of
        lattices inside them, so the Gram matrix splits into blocks that
        dual_lattice solves one at a time."""
        rng = random.Random(8)
        seen = {"several blocks": 0, "lcm < product": 0, "low rank": 0,
                "one degenerate block": 0, "checked": 0}
        for _ in range(120):
            parts = [rng.choice(self.GRAMS[rng.choice((2, 3))])
                     for _ in range(rng.randint(2, 3))]
            dim = sum(len(g) for g in parts)
            cols = list(range(dim))
            rng.shuffle(cols)
            gram = [[0] * dim for _ in range(dim)]
            rows = []
            for g in parts:
                at, cols = cols[:len(g)], cols[len(g):]
                for i, gi in enumerate(g):
                    for j, x in enumerate(gi):
                        gram[at[i]][at[j]] = x
                for r in random_lattice(rng, len(g), allow_halves=True)[1]:
                    row = [0] * dim
                    for i, x in enumerate(r):
                        row[at[i]] = x
                    rows.append(row)
            a = ZLattice.from_rows(dim, rows)
            if a.rank == 0:
                continue
            fden = lcm(*(Fraction(x).denominator for r in gram for x in r))
            m = int_gram(a.rows, [[int(x * fden) for x in r] for r in gram])
            dets = [abs(int(_det([[m[i][j] for j in b] for i in b])))
                    for b in _gram_blocks(m)]
            if not self._check(a, gram):
                seen["one degenerate block"] += dets.count(0) == 1 < len(dets)
                continue
            seen["checked"] += 1
            seen["several blocks"] += len(dets) > 1
            seen["lcm < product"] += lcm(*dets) < prod(dets)
            seen["low rank"] += a.rank < dim
        assert all(seen.values()), seen

    def test_one_degenerate_block_among_others(self):
        # columns 0, 2 carry A2 and columns 1, 3 a hyperbolic plane, whose
        # isotropic line through e_1 is a degenerate block of its own
        gram = [[2, 0, 1, 0], [0, 0, 0, 1], [1, 0, 2, 0], [0, 1, 0, 0]]
        a = lat([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
        with pytest.raises(DegenerateFormError):
            dual_lattice(a, QMatrix.from_rows(gram))
        assert self._check(lat([1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]),
                           gram)

    @pytest.mark.parametrize("gram, cutoff", [([[2]], 5),
                                              ([[2, 1], [1, 2]], 3)])
    def test_host_forms(self, gram, cutoff):
        """int_dual_lattice takes a Gram unchecked; the host's form is the
        Gram of the whole piece, so it must be symmetric, and then the dual
        agrees with dual_lattice's."""
        V = TruncatedVOA(EvenLattice(gram), cutoff)
        for d in range(cutoff + 1):
            f = V.form_matrix(d)
            assert all(f[i][j] == f[j][i] for i in range(len(f))
                       for j in range(i))
            whole = ZLattice.standard(V.dim(d))
            assert int_dual_lattice(whole, f) == \
                dual_lattice(whole, QMatrix.from_rows(f))

    def test_isotropic_line_is_degenerate(self):
        with pytest.raises(DegenerateFormError):
            dual_lattice(lat([1, 0]), QMatrix.from_rows([[0, 1], [1, 0]]))


class TestMembership:
    def test_generator(self):
        a = lat([2, 0], [0, 2], [1, 1])
        assert membership([1, 1], a)

    def test_not_member(self):
        assert not membership([1, 0], ZLattice.standard(2).scale(2))

    def test_multiple_of_generator(self):
        a = lat([1, 1], [1, -1])
        assert membership([3, 3], a)

    def test_rational_vectors(self):
        a = lat([Fraction(1, 2), 0], [0, 1])
        assert membership([Fraction(3, 2), 5], a)
        assert not membership([Fraction(1, 4), 0], a)


class TestSmith:
    def test_known_invariants(self):
        assert smith_invariants([[2, 0], [0, 6]]) == [2, 6]
        assert smith_invariants([[1, 1], [1, -1]]) == [1, 2]
        assert smith_invariants([[0, 0], [0, 0]]) == []

    def test_divisibility_chain(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            inv = smith_invariants(mat)
            for d1, d2 in zip(inv, inv[1:]):
                assert d2 % d1 == 0

    def test_matches_determinantal_divisors(self):
        rng = random.Random(31)
        for trial in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            mat = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6, -9))
                    for _ in range(n)] for _ in range(m)]
            if trial % 5 == 0:
                # rank-deficient: the last row is a combination of others
                c = [rng.randint(-2, 2) for _ in range(m - 1)]
                mat[-1] = [sum(ci * row[j] for ci, row in zip(c, mat))
                           for j in range(n)]
            assert smith_invariants(mat) == invariants_by_minors(mat), mat
        for m, n in ((1, 1), (2, 3), (4, 2), (4, 4)):
            zero = [[0] * n for _ in range(m)]
            assert smith_invariants(zero) == invariants_by_minors(zero) == []
        assert smith_invariants([]) == []


class TestMatMul:
    @staticmethod
    def dense(a, b, n):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(n)] for i in range(len(a))]

    def test_matches_dense_product(self):
        rng = random.Random(17)
        for _ in range(100):
            m, k, n = (rng.randint(0, 5) for _ in range(3))
            k = max(k, 1)
            a = [[rng.choice((0, 0, 0, 1, -2, 5)) for _ in range(k)]
                 for _ in range(m)]
            b = [[rng.choice((0, 0, 0, -1, 3, 7)) for _ in range(n)]
                 for _ in range(k)]
            got = mat_mul(a, b)
            assert [list(r) for r in got] == self.dense(a, b, n)

    def test_empty_and_zero_shapes(self):
        assert mat_mul([], [[1, 2], [3, 4]]) == ()
        assert mat_mul([[1, 2]], [[], []]) == ((),)
        assert mat_mul([[], []], []) == ((), ())
        assert mat_mul([[0, 0], [0, 0], [0, 0]], [[1, 2, 3], [4, 5, 6]]) \
            == ((0, 0, 0),) * 3
        assert mat_mul([[1, 2]], [[0, 0], [0, 0]]) == ((0, 0),)


def random_lattice(rng, dim, max_entry=4, allow_halves=False):
    nrows = rng.randint(1, dim)
    rows = []
    for _ in range(nrows):
        row = [rng.randint(-max_entry, max_entry) for _ in range(dim)]
        if allow_halves and rng.random() < 0.3:
            row = [Fraction(x, 2) for x in row]
        rows.append(row)
    return ZLattice.from_rows(dim, rows), rows


class TestOracleAgreement:
    """Brute-force cross-checks on small random lattices (seeded)."""

    def test_canonical_basis_spans_same_points(self):
        rng = random.Random(2024)
        for _ in range(40):
            dim = rng.randint(1, 3)
            a, gens = random_lattice(rng, dim, max_entry=3)
            grid = grid_points(dim, 3)
            truth = {p for p in grid if member_of_span(p, gens)}
            got = {p for p in grid if member_by_solve(p, a.basis_rows())} \
                if a.rank else {tuple([Fraction(0)] * dim)} & set(grid)
            if a.rank == 0:
                got = {p for p in grid if not any(p)}
            assert got == truth

    def test_sum_intersect_exponent_match_brute_force(self):
        rng = random.Random(99)
        cases = 0
        while cases < 60:
            dim = rng.randint(1, 3)
            a, agens = random_lattice(rng, dim, max_entry=3)
            b, bgens = random_lattice(rng, dim, max_entry=3)
            if a.rank == 0 or b.rank == 0:
                continue
            cases += 1
            grid = grid_points(dim, 3)
            s = lattice_sum(a, b)
            sum_basis = naive_z_span_basis(agens + bgens)
            for p in grid:
                assert member_by_solve(p, s.basis_rows()) == \
                    member_by_solve(p, sum_basis)
            inter = lattice_intersect(a, b)
            for p in grid:
                truth = (member_by_solve(p, a.basis_rows())
                         and member_by_solve(p, b.basis_rows()))
                got = (member_by_solve(p, inter.basis_rows())
                       if inter.rank else not any(p))
                assert got == truth
            # exponent oracle where the quotient is finite
            if inter.rank == a.rank:
                e = quotient_exponent(a, inter)
                assert e == exponent_by_scan(a.basis_rows(),
                                             inter.basis_rows())

    def test_membership_matches_solver(self):
        rng = random.Random(17)
        for _ in range(80):
            dim = rng.randint(1, 3)
            a, _ = random_lattice(rng, dim, max_entry=4, allow_halves=True)
            if a.rank == 0:
                continue
            v = [Fraction(rng.randint(-8, 8), rng.choice([1, 1, 2]))
                 for _ in range(dim)]
            assert membership(v, a) == member_by_solve(v, a.basis_rows())


class TestCoordinates:
    """Stored pivots and integer coordinates against the Gauss-Jordan oracle."""

    def lattices(self):
        rng = random.Random(41)
        out = [ZLattice.zero(3), lat([0, 0, 2], [0, 3, 1])]
        for _ in range(12):
            a, _ = random_lattice(rng, 3, allow_halves=True)
            b, _ = random_lattice(rng, 3, allow_halves=True)
            out += [a, a.scale(Fraction(2, 3)), lattice_intersect(a, b), b]
        return out

    def test_pivots_are_first_nonzero_columns(self):
        for a in self.lattices():
            pivots = [nz[0][0] for nz in a.nonzeros]
            assert pivots == [
                next(j for j, x in enumerate(row) if x) for row in a.rows]
            assert pivots == sorted(set(pivots))

    def test_coordinates_match_solver(self):
        grid = grid_points(3, 1, denominator=2)
        seen = {"member": 0, "fractional": 0, "outside": 0}
        for a in self.lattices():
            rows = a.basis_rows()
            for p in grid:
                sol = gauss_solve_left(rows, p)
                if sol is None:
                    kind, want = "outside", None
                elif all(x.denominator == 1 for x in sol):
                    kind, want = "member", [int(x) for x in sol]
                else:
                    kind, want = "fractional", None
                seen[kind] += 1
                forms = [list(p), [str(x) for x in p]]
                if all(x.denominator == 1 for x in p):
                    forms.append([int(x) for x in p])
                for v in forms:
                    assert a.coordinates(v) == want, (a, v)
        assert min(seen.values()) > 0, seen

    def test_wrong_length_raises(self):
        for a in (lat([1, 0], [0, 2]), ZLattice.zero(2)):
            for v in ([1, 2, 3], [Fraction(1, 3)], ["1/2", 0, 0]):
                with pytest.raises(DimensionMismatchError):
                    a.coordinates(v)


def standard_form_lattices(gram, cutoff):
    """Each degree's lattice of the standard form and, where the rank is
    above 2, the sublattice of every other row (it has non-pivot columns)."""
    from voaforms.forms import standard_form
    from voaforms.voa import EvenLattice, TruncatedVOA
    J = standard_form(TruncatedVOA(EvenLattice(gram), cutoff))
    out = []
    for d in J.degrees():
        a = J.lattice(d)
        out.append(a)
        if a.rank > 2:
            out.append(ZLattice._from_ints(a.ambient_dim, a.den,
                                           a.rows[::2]))
    return out


class TestSparseMembership:
    """int_coordinates on standard-form lattices against Gauss-Jordan."""

    @pytest.fixture(scope="class")
    def lattices(self):
        return standard_form_lattices([[2]], 5)

    @pytest.fixture(scope="class")
    def a2_lattices(self):
        return standard_form_lattices([[2, -1], [-1, 2]], 3)

    @staticmethod
    def expected(a, w, den=None):
        """Integer coordinates of w / den (den = a.den by default) by the
        oracle, or None."""
        den = den or a.den
        sol = gauss_solve_left(a.basis_rows(), [Fraction(x, den) for x in w])
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        return [int(x) for x in sol]

    @staticmethod
    def combination(rng, a):
        """(coords, w): up to two nonzero coordinates and w = coords @ rows."""
        coords = [0] * a.rank
        for i in rng.sample(range(a.rank), min(2, a.rank)):
            coords[i] = rng.choice([-3, -1, 1, 2])
        return coords, [sum(c * row[j] for c, row in zip(coords, a.rows))
                        for j in range(a.ambient_dim)]

    def test_nonzeros_are_the_rows(self, lattices):
        for a in lattices:
            assert a.nonzeros == tuple(
                tuple((j, x) for j, x in enumerate(row) if x)
                for row in a.rows)
            assert a.row_of == {nz[0][0]: t
                                for t, nz in enumerate(a.nonzeros)}

    def test_sparse_members(self, lattices):
        rng = random.Random(5)
        for a in lattices:
            for _ in range(20):
                coords, w = self.combination(rng, a)
                assert self.expected(a, w) == coords
                sparse = {j: x for j, x in enumerate(w) if x}
                assert a.int_coordinates(sparse, a.den) == coords
                # the map is read, not consumed: try_add reuses it on a miss
                assert sparse == {j: x for j, x in enumerate(w) if x}

    @pytest.mark.parametrize("factor, member", [(6, True), (7, False)],
                             ids=["common-factor", "denominator-not-dividing"])
    def test_other_denominator(self, lattices, factor, member):
        """w / den for den = factor * a.den, against the oracle.

        A member scaled by the common factor stays a member; a combination
        that 7 does not divide, over 7 * a.den, has a reduced denominator
        that a.den is not a multiple of.
        """
        rng = random.Random(9)
        seen = 0
        for a in lattices:
            for _ in range(10):
                coords, w = self.combination(rng, a)
                den = factor * a.den
                if member:
                    w = [factor * x for x in w]
                elif gcd(factor, *w) != 1:
                    continue
                assert (a.den % (den // gcd(den, *w)) == 0) == member
                want = self.expected(a, w, den)
                assert want == (coords if member else None)
                snapshot = dict(enumerate(w))
                assert a.int_coordinates(snapshot, den) == want
                assert snapshot == dict(enumerate(w))
                seen += 1
        assert seen > 10

    def test_off_pivot_vectors_are_not_members(self, lattices):
        seen = 0
        for a in lattices:
            free = [j for j in range(a.ambient_dim) if j not in a.row_of]
            for j in free:
                for w in ([0] * a.ambient_dim, [1] * a.ambient_dim):
                    w = [x if i in free else 0 for i, x in enumerate(w)]
                    w[j] = 7
                    assert self.expected(a, w) is None
                    assert a.int_coordinates(dict(enumerate(w)),
                                             a.den) is None
                    seen += 1
        assert seen > 10

    def test_remainder_at_a_pivot(self, lattices):
        seen = 0
        for a in lattices:
            for row, j in zip(a.rows, (nz[0][0] for nz in a.nonzeros)):
                if row[j] == 1:
                    continue
                w = [x * 3 for x in row]
                w[j] += 1
                assert self.expected(a, w) is None
                assert a.int_coordinates(dict(enumerate(w)), a.den) is None
                seen += 1
        assert seen > 10

    def test_a2_charge_blocks(self, a2_lattices):
        """The checks above on A2 at cutoff 3.  Its charge blocks hold
        several rows, and some row has a nonzero at a later pivot, so the
        column-order reduction reaches that pivot only after subtracting."""
        assert any(j in a.row_of for a in a2_lattices
                   for nz in a.nonzeros for j, _ in nz[1:])
        self.test_nonzeros_are_the_rows(a2_lattices)
        self.test_sparse_members(a2_lattices)
        self.test_other_denominator(a2_lattices, 6, True)
        self.test_other_denominator(a2_lattices, 7, False)
        self.test_off_pivot_vectors_are_not_members(a2_lattices)
        self.test_remainder_at_a_pivot(a2_lattices)

    def test_random_lattices(self):
        """Seeded random lattices with den > 1 and rank below the dimension.

        Each w goes in as a dict with shuffled keys and explicit zeros, so a
        reduction that follows insertion order or takes a zero for a live
        column goes wrong.  Non-members: a nonzero past the last pivot, and
        a member with one non-pivot entry cleared, which leaves a nonzero at
        that column once the rows with smaller pivots are subtracted.
        """
        rng = random.Random(13)
        seen = dict.fromkeys(["member", "past-last", "between"], 0)
        for _ in range(150):
            dim = rng.randint(3, 7)
            rows = [[rng.choice([0, 0, 0, 1, -1, 2, 3, -4])
                     for _ in range(dim)]
                    for _ in range(rng.randint(2, dim - 1))]
            # a column that is a multiple of the one before holds no pivot
            col = rng.randrange(1, dim - 1)
            for row in rows:
                row[col] = 2 * row[col - 1]
            a = ZLattice._from_ints(dim, rng.choice([2, 3, 6]), rows)
            if a.den == 1 or not 0 < a.rank < dim:
                continue
            for t, nz in enumerate(a.nonzeros):
                # a single row touches no other row's coordinate
                want = [int(i == t) for i in range(a.rank)]
                assert a.int_coordinates(dict(nz), a.den) == want
            coords = [rng.choice([0, 0, 1, -2, 3]) for _ in range(a.rank)]
            w = [sum(c * row[j] for c, row in zip(coords, a.rows))
                 for j in range(dim)]
            cases = [("member", w)]
            first, last = a.nonzeros[0][0][0], a.nonzeros[-1][0][0]
            if last < dim - 1:
                v = list(w)
                v[rng.randrange(last + 1, dim)] += 1
                cases.append(("past-last", v))
            for j in range(first, last):
                if w[j] and j not in a.row_of:
                    cases.append(("between", w[:j] + [0] + w[j + 1:]))
            for kind, v in cases:
                den = a.den * rng.choice([1, 2, 5])
                v = [x * den // a.den for x in v]
                want = self.expected(a, v, den)
                assert want == (coords if kind == "member" else None)
                keys = list(range(dim))
                rng.shuffle(keys)
                sparse = {j: v[j] for j in keys}
                snapshot = list(sparse.items())
                assert a.int_coordinates(sparse, den) == want, (a, v, den)
                assert list(sparse.items()) == snapshot
                seen[kind] += 1
        assert min(seen.values()) > 30, seen


class TestSparseHNF:
    """SparseHNF.add against the dense reference on every vector added so
    far."""

    @staticmethod
    def check(h, added):
        """h holds the canonical rows of the span of ``added``, a list of
        ({column: int}, den) pairs, and its index matches its rows.  Its
        lattice has the (den, nonzeros) of the dense reference, and
        _from_ints and from_rows of that span agree with it in every
        stored and derived field, and compare and hash equal."""
        n = h.ambient_dim
        den = lcm(1, *(d for _, d in added))
        dense_rows = [[w.get(j, 0) * (den // d) for j in range(n)]
                      for w, d in added]
        got = h.lattice()
        assert (got.den, got.nonzeros) == dense_hnf.lattice(
            n, den, dense_rows), added
        want = ZLattice._from_ints(n, den, dense_rows)
        rational = ZLattice.from_rows(n, [
            [Fraction(w.get(j, 0), d) for j in range(n)] for w, d in added])
        for other in (want, rational):
            assert other == got and hash(other) == hash(got), added
            assert (other.den, other.rows, other.nonzeros, other.row_of) \
                == (got.den, got.rows, got.nonzeros, got.row_of), added
        assert h.den == want.den and len(h.nonzeros) == want.rank
        above: dict = {}
        for t, nz in enumerate(h.nonzeros):
            assert h.row_of[nz[0][0]] == t
            for j, _ in nz[1:]:
                above.setdefault(j, set()).add(t)
        assert {j: ts for j, ts in h.above.items() if ts} == above
        return want

    def add(self, h, added, w, den):
        """Add w / den, check the result, and return whether h changed."""
        before = h.lattice()
        rows, old_den = list(h.nonzeros), h.den
        changed = h.add(dict(w), den)
        assert changed == (before.int_coordinates(w, den) is None)
        if not changed:  # a member leaves every row and den as they were
            assert h.den == old_den and len(h.nonzeros) == len(rows)
            assert all(a is b for a, b in zip(h.nonzeros, rows))
        added.append((w, den))
        want = self.check(h, added)
        assert (h.lattice() is before) == (not changed)
        return changed, want

    @pytest.mark.parametrize("rows, changes", [
        # 6 does not divide pivot 4: the _xgcd merge leaves pivot 2
        ([({0: 4, 1: 1}, 1), ({0: 6}, 1)], [True, True]),
        # the denominator grows to 6, then w / den with gcd(den, w) = 3
        # adds a vector over 2 that is already a member
        ([({0: 1, 1: 1}, 2), ({1: 1}, 3), ({0: 3, 1: 3}, 6)],
         [True, True, False]),
        # column 1 becomes a pivot between pivots 0 and 2, and the entry
        # 5 of the row above drops to 1
        ([({0: 1, 1: 5}, 1), ({2: 1}, 1), ({1: 2}, 1)], [True] * 3),
        # a new pivot left of every other row
        ([({1: 3, 2: 1}, 1), ({0: 2, 1: 1}, 1)], [True, True]),
        # the zero vector, empty or with explicit zeros, and a member
        ([({}, 3), ({0: 0, 2: 0}, 1), ({0: 2, 2: 4}, 3), ({0: 4, 2: 8}, 3),
          ({}, 5)], [False, False, True, False, False]),
    ])
    def test_cases(self, rows, changes):
        h, added = SparseHNF(3), []
        assert [self.add(h, added, w, d)[0] for w, d in rows] == changes

    def test_random_insertions(self):
        """Seeded sparse rows, one at a time; each kind of step occurs."""
        rng = random.Random(17)
        seen = dict.fromkeys(
            ["merge", "den-growth", "new-pivot-above", "member", "zero"], 0)
        for _ in range(300):
            n = rng.randint(1, 6)
            h, added = SparseHNF(n), []
            for _ in range(rng.randint(1, 8)):
                w = {j: rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9])
                     for j in rng.sample(range(n), rng.randint(0, min(3, n)))}
                if w and rng.random() < 0.2:
                    w[rng.choice(list(w))] = 0
                den = rng.choice([1, 1, 2, 3, 4, 6])
                old = h.lattice()
                changed, want = self.add(h, added, w, den)
                f = want.den // old.den
                seen["member"] += not changed
                seen["zero"] += not any(w.values())
                seen["den-growth"] += f > 1
                seen["merge"] += any(
                    want.rows[want.row_of[j]][j] < f * row[j]
                    for j, row in zip((nz[0][0] for nz in old.nonzeros),
                                      old.rows))
                seen["new-pivot-above"] += any(
                    j not in old.row_of and any(row[j] for row in old.rows)
                    for ((j, _), *_) in want.nonzeros)
                probe = dict(enumerate(rng.randint(-3, 3) for _ in range(n)))
                for v in (probe, w):
                    d = rng.choice([1, 2, 6])
                    assert h.contains(v, d) == \
                        (want.int_coordinates(v, d) is not None)
        assert min(seen.values()) > 20, seen

    def test_snapshot_stays_sparse(self):
        """The ZLattice of 3,000 rows with two nonzeros each over 3,000
        columns holds only those nonzeros; as dense rows it would hold
        9,000,000 entries, some 72 MB of pointers."""
        n = 3000
        h = SparseHNF(n)
        for j in range(n):
            assert h.add({j: 2, j + 1: 1} if j + 1 < n else {j: 2}, 1)
        tracemalloc.start()
        try:
            lat = h.lattice()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (lat.rank, lat.den, lat.nonzeros[0]) == (n, 1, ((0, 2), (1, 1)))
        assert peak <= 5 * 2**20, peak


class TestDenseReference:
    """hnf_int, kernels by ZLattice._from_sparse, smith_invariants,
    ZLattice._from_ints, lattice_sum and lattice_intersect all run through
    SparseHNF; each gives exactly what the dense elimination in dense_hnf
    gives."""

    CASES = [
        ([], 3),  # empty input
        ([[0, 0, 0], [0, 0, 0]], 3),  # zero rows
        ([[-3, 2], [-5, -7], [0, -4]], 2),  # negative entries
        ([[4, 1], [6, 0]], 2),  # pivot 4 does not divide 6
        ([[6, 1, 0], [10, 0, 1], [15, 2, 2]], 3),
        # pivots in decreasing order: creation order is not pivot order
        ([[0, 0, 0, 3], [0, 0, 2, 1], [0, 5, 1, 4], [7, 1, 3, 2]], 4),
        ([[0, 0, 4, 6], [0, 6, 9, 1], [10, 4, 0, 3]], 4),
    ]

    @classmethod
    def matrices(cls, seed, count):
        """The hand cases, then seeded integer matrices: sparse, dense, and
        echelon rows listed with their pivots decreasing."""
        yield from cls.CASES
        rng = random.Random(seed)
        for i in range(count):
            m, n = rng.randint(0, 6), rng.randint(1, 6)
            zeros = rng.choice([0, 0.5, 0.8])
            rows = [[0 if rng.random() < zeros else rng.randint(-9, 9)
                     for _ in range(n)] for _ in range(m)]
            if i % 3 == 0:
                for r, row in enumerate(rows):
                    row[:max(n - 1 - r, 0)] = [0] * max(n - 1 - r, 0)
                    row[max(n - 1 - r, 0)] = rng.choice([-6, -4, 2, 3, 5])
            yield rows, n

    def test_hnf_kernel_smith(self):
        seen = dict.fromkeys(["kernel", "full-rank", "invariant>1"], 0)
        for rows, n in self.matrices(5, 300):
            h = hnf_int(rows, n)
            assert h == dense_hnf.hnf_int(rows, n), rows
            # the kernel rows of M: the HNF of [M | I] right of M
            aug = [{**{j: x for j, x in enumerate(r) if x}, n + i: 1}
                   for i, r in enumerate(rows)]
            k = [list(r) for r in
                 ZLattice._from_sparse(len(rows), 1, aug, n).rows]
            assert k == dense_hnf.kernel_int(rows, n), rows
            d = smith_invariants(rows)
            assert d == dense_hnf.smith_invariants(rows), rows
            transposed = [list(c) for c in zip(*rows)]
            assert smith_invariants(transposed) == d, rows
            lat = ZLattice._from_ints(n, 1, rows)
            assert smith_of_hnf(lat.nonzeros) == d, rows
            seen["kernel"] += bool(k)
            seen["full-rank"] += len(h) == n
            seen["invariant>1"] += any(x > 1 for x in d)
        assert min(seen.values()) > 30, seen

    def test_lattices(self):
        rng = random.Random(6)
        seen = dict.fromkeys(["proper-meet", "proper-sum", "den>1"], 0)
        mats = list(self.matrices(7, 200))
        for rows, n in mats:
            den = rng.choice([1, 2, 3, 4, 6, 12])
            a = ZLattice._from_ints(n, den, rows)
            assert (a.den, a.nonzeros) == dense_hnf.lattice(n, den, rows)
            other, m = rng.choice(mats)
            if m != n:
                continue
            b = ZLattice._from_ints(n, rng.choice([1, 2, 5, 6]), other)
            ref_a, ref_b = (a.den, a.nonzeros), (b.den, b.nonzeros)
            s, i = lattice_sum(a, b), lattice_intersect(a, b)
            assert (s.den, s.nonzeros) == dense_hnf.lattice_sum(
                n, ref_a, ref_b), (rows, other)
            assert (i.den, i.nonzeros) == dense_hnf.lattice_intersect(
                n, ref_a, ref_b), (rows, other)
            seen["proper-meet"] += i not in (a, b)
            seen["proper-sum"] += s not in (a, b)
            seen["den>1"] += s.den > 1
        assert min(seen.values()) > 10, seen


class TestZeroLattice:
    def test_legal_everywhere(self):
        z = ZLattice.zero(2)
        a = lat([1, 1])
        assert lattice_sum(z, a) == a
        assert lattice_intersect(z, a) == z
        assert quotient_exponent(z, z) == 1
        assert not membership([1, 0], z)
        assert membership([0, 0], z)
        assert dual_lattice(z, QMatrix.identity(2)) == z


class TestQMatrix:
    def test_shape_invariant(self):
        with pytest.raises(ValueError):
            QMatrix(2, 2, [1, 2, 3])

    def test_inverse(self):
        m = QMatrix.from_rows([[2, 1], [1, 2]])
        inv = m.inverse()
        assert m @ inv == QMatrix.identity(2)
