import random
from fractions import Fraction

import pytest

from voaforms.exact import (
    ZLattice,
    apply_columns,
    column_nonzeros,
    lattice_intersect,
    mat_mul,
    quotient_exponent,
    quotient_index,
)
from voaforms.latgroup import (
    ActionError,
    Character,
    GroupClosureError,
    PreservationError,
    SignedAction,
    close_group,
    common_eigenlattice,
    eigenlattice,
    idempotent_project,
    image_lattice,
    invariant_intersection,
    preserves,
    tel_exponent_check,
    total_eigenlattice,
)

import dense_hnf
from oracles import gauss_solve_left, member_by_solve

SWAP = [[0, 1], [1, 0]]
Z2 = ZLattice.standard(2)


class TestSignedAction:
    def test_rejects_non_involution(self):
        with pytest.raises(ActionError):
            SignedAction(2, [[[1, 1], [0, 1]]])

    def test_rejects_non_commuting(self):
        a = [[0, 1], [1, 0]]
        b = [[1, 0], [0, -1]]
        with pytest.raises(ActionError):
            SignedAction(2, [a, b])

    def test_identity_generators_allowed(self):
        act = SignedAction(2, [[[1, 0], [0, 1]]])
        assert act.rank == 1

    @pytest.mark.parametrize("generator", [[[-1.5]], [["-1"]], [[True]]])
    def test_rejects_non_integers(self, generator):
        with pytest.raises(ValueError, match="not an integer"):
            SignedAction(1, [generator])

    def test_integral_floats_accepted(self):
        act = SignedAction(1, [[[-1.0]]])
        assert act.generators == (((-1,),),)
        assert type(act.generators[0][0][0]) is int


class TestCharacter:
    @pytest.mark.parametrize("signs", [[True], [1.7], ["1"], [-1.0, 0.5]])
    def test_rejects_non_integers(self, signs):
        with pytest.raises(ValueError, match="not an integer"):
            Character(signs)

    def test_integral_floats_accepted(self):
        assert Character([1.0, -1.0]).signs == (1, -1)


class TestEigenlattice:
    def test_trivial_action(self):
        act = SignedAction(2, [[[1, 0], [0, 1]]])
        assert eigenlattice(Z2, act, Character((1,))) == Z2

    def test_swap_plus(self):
        act = SignedAction(2, [SWAP])
        assert eigenlattice(Z2, act, Character((1,))) == \
            ZLattice.from_rows(2, [[1, 1]])

    def test_swap_minus(self):
        act = SignedAction(2, [SWAP])
        assert eigenlattice(Z2, act, Character((-1,))) == \
            ZLattice.from_rows(2, [[1, -1]])

    def test_non_preserving_rejected(self):
        l = ZLattice.from_rows(2, [[1, 0], [0, 2]])
        act = SignedAction(2, [SWAP])
        with pytest.raises(PreservationError):
            eigenlattice(l, act, Character((1,)))

    def test_matches_kernel_oracle(self):
        # eigenlattice = L cap (rational eigenspace), checked pointwise on a
        # grid via an independent Gaussian solver
        rng = random.Random(41)
        act = SignedAction(2, [SWAP])
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            l = ZLattice.from_rows(2, rows)
            if l.rank < 2 or not preserves(
                    l, map(column_nonzeros, act.generators)):
                continue
            for ch in Character.all_characters(1):
                e = eigenlattice(l, act, ch)
                s = ch.signs[0]
                for x in range(-3, 4):
                    for y in range(-3, 4):
                        p = [x, y]
                        in_lat = member_by_solve(p, l.basis_rows())
                        eig = apply_columns(column_nonzeros(SWAP),
                                            enumerate(p), 2) == [s * x, s * y]
                        truth = in_lat and eig
                        got = (member_by_solve(p, e.basis_rows())
                               if e.rank else p == [0, 0])
                        assert got == truth


class TestTotalEigenlattice:
    def test_trivial_action_r1(self):
        act = SignedAction(2, [[[1, 0], [0, 1]]])
        assert total_eigenlattice(Z2, act) == Z2

    def test_swap_index_two(self):
        act = SignedAction(2, [SWAP])
        tel = total_eigenlattice(Z2, act)
        assert tel == ZLattice.from_rows(2, [[1, 1], [1, -1]])
        assert quotient_index(Z2, tel) == 2

    def test_diagonal_signs_r2(self):
        act = SignedAction(2, [[[1, 0], [0, -1]], [[-1, 0], [0, 1]]])
        assert total_eigenlattice(Z2, act) == Z2

    def test_rank_sum_is_direct(self):
        rng = random.Random(5)
        act = SignedAction(2, [SWAP])
        for _ in range(15):
            rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            l = ZLattice.from_rows(2, rows)
            if l.rank < 2 or not preserves(
                    l, map(column_nonzeros, act.generators)):
                continue
            parts = [eigenlattice(l, act, ch)
                     for ch in Character.all_characters(1)]
            tel = total_eigenlattice(l, act)
            assert sum(p.rank for p in parts) == tel.rank
            assert lattice_intersect(parts[0], parts[1]).rank == 0


class TestTelExponent:
    def test_swap(self):
        ok, e = tel_exponent_check(Z2, SignedAction(2, [SWAP]))
        assert ok and e == 2

    def test_trivial(self):
        ok, e = tel_exponent_check(Z2, SignedAction(2, [[[1, 0], [0, 1]]]))
        assert ok and e == 1

    def test_r2_diagonal(self):
        act = SignedAction(2, [[[1, 0], [0, -1]], [[-1, 0], [0, 1]]])
        ok, e = tel_exponent_check(Z2, act)
        assert ok and e == 1

    def test_exponent_divides_2r_exhaustive(self):
        # all sign actions preserving small lattices in dim <= 3
        rng = random.Random(7)
        diag_invs = []
        for bits in range(8):
            d = [1 if bits >> i & 1 else -1 for i in range(3)]
            diag_invs.append([[d[i] * int(i == j) for j in range(3)]
                              for i in range(3)])
        perms = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[0, 1, 0], [1, 0, 0], [0, 0, 1]]]
        cases = 0
        for _ in range(60):
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            l = ZLattice.from_rows(3, rows)
            if l.rank < 3:
                continue
            g1 = diag_invs[rng.randrange(8)]
            g2 = perms[rng.randrange(2)]
            try:
                act = SignedAction(3, [g1, g2])
            except ActionError:
                continue
            if not preserves(l, map(column_nonzeros, act.generators)):
                continue
            ok, e = tel_exponent_check(l, act)
            assert ok and (1 << act.rank) % e == 0
            cases += 1
        assert cases >= 3


class TestIdempotent:
    def test_projection_fixes_eigenvectors(self):
        act = SignedAction(2, [SWAP])
        assert idempotent_project([2, 2], act, Character((1,))) == [2, 2]
        assert idempotent_project([2, -2], act, Character((-1,))) == [2, -2]

    def test_hand_values(self):
        act = SignedAction(2, [SWAP])
        assert idempotent_project([1, 0], act, Character((1,))) == \
            [Fraction(1, 2), Fraction(1, 2)]
        assert idempotent_project([1, 0], act, Character((-1,))) == \
            [Fraction(1, 2), Fraction(-1, 2)]

    def test_character_length_checked(self):
        act = SignedAction(2, [SWAP])
        with pytest.raises(ValueError, match="character length"):
            idempotent_project([1, 0], act, Character((1, -1)))

    def test_resolution_of_identity_and_idempotency(self):
        rng = random.Random(13)
        act = SignedAction(3, [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                               [[1, 0, 0], [0, 1, 0], [0, 0, -1]]])
        for _ in range(20):
            v = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                 for _ in range(3)]
            total = [Fraction(0)] * 3
            for ch in Character.all_characters(2):
                p = idempotent_project(v, act, ch)
                again = idempotent_project(p, act, ch)
                assert again == p
                total = [a + b for a, b in zip(total, p)]
            assert total == v


class TestInvariantIntersection:
    def test_preserving_matrices(self):
        inter, e = invariant_intersection(Z2, [SWAP])
        assert inter == Z2 and e == 1

    def test_negation_rank_one(self):
        l = ZLattice.standard(1)
        inter, e = invariant_intersection(l, [[[-1]]])
        assert inter == l and e == 1

    def test_swap_on_skew_lattice(self):
        l = ZLattice.from_rows(2, [[1, 0], [0, 2]])
        inter, e = invariant_intersection(l, [SWAP])
        # brute truth: points in both L and swap(L)
        truth = ZLattice.from_rows(2, [[2, 0], [0, 2]])
        assert inter == truth
        assert e == 2
        # cross-check the exponent by scan
        for m in range(1, e):
            assert not all(
                member_by_solve([m * x for x in row], inter.basis_rows())
                for row in l.basis_rows())

    def test_singular_rejected(self):
        with pytest.raises(ActionError):
            invariant_intersection(Z2, [[[1, 1], [1, 1]]])

    def test_closure_bound(self):
        # an infinite-order matrix must trip the bound
        with pytest.raises(GroupClosureError):
            invariant_intersection(Z2, [[[1, 1], [0, 1]]], bound=50)

    def test_image_lattice(self):
        l = ZLattice.from_rows(2, [[1, 0], [0, 2]])
        img = image_lattice(column_nonzeros(SWAP), l)
        assert img == ZLattice.from_rows(2, [[0, 1], [2, 0]])


class TestCloseGroup:
    ROTATION = ((-1, -1), (1, 0))  # order 3

    def test_elements_and_products(self):
        """Each element is multiplied once by each generator, and the
        identity comes first."""
        products = []

        def product(a, b):
            products.append((a, b))
            return mat_mul(a, b)

        one = ((1, 0), (0, 1))
        minus = ((-1, 0), (0, -1))
        group = close_group([self.ROTATION, minus], one, product)
        assert group[0] == one and len(group) == len(set(group)) == 6
        assert len(products) == 12
        assert {mat_mul(a, b) for a in group for b in group} == set(group)

    def test_bound(self):
        with pytest.raises(GroupClosureError):
            close_group([self.ROTATION], ((1, 0), (0, 1)), mat_mul, bound=2)
        assert len(close_group([self.ROTATION], ((1, 0), (0, 1)), mat_mul,
                               bound=3)) == 3

    def test_signed_action_from_columns(self):
        gens = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]]
        act = SignedAction.from_columns(3, map(column_nonzeros, gens))
        assert act.generators == SignedAction(3, gens).generators == \
            tuple(tuple(map(tuple, g)) for g in gens)
        with pytest.raises(ActionError, match="commute"):
            SignedAction.from_columns(3, map(column_nonzeros, [
                gens[0], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]))
        with pytest.raises(ActionError, match="square"):
            SignedAction.from_columns(3, [column_nonzeros(
                [[1, 1, 0], [0, 1, 0], [0, 0, 1]])])


def _dense_apply(m, vector):
    """m @ vector, one sum over every column per row (reference)."""
    return [sum(row[j] * x for j, x in enumerate(vector)) for row in m]


def _random_matrix(rng, n, kind):
    """A seeded n x n matrix: "involution" (signed, permuting pairs of
    coordinates), "signed" (any signed permutation), or "dense" (small
    entries, one column zeroed)."""
    m = [[0] * n for _ in range(n)]
    if kind == "involution":
        free = list(range(n))
        rng.shuffle(free)
        while free:
            i = free.pop()
            j = free.pop() if free and rng.random() < 0.6 else i
            m[i][j] = m[j][i] = rng.choice((1, -1))
        return m
    if kind == "signed":
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            m[i][j] = rng.choice((1, -1))
        return m
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    zero = rng.randrange(n)
    for row in m:
        row[zero] = 0
    return m


def _random_lattice(rng, n):
    rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
             for _ in range(n)] for _ in range(rng.randint(1, n))]
    return ZLattice.from_rows(n, rows)


class TestColumnNonzerosAgainstDense:
    """Matrix actions through column nonzeros equal the dense row sums."""

    KINDS = ("involution", "signed", "dense")

    def test_image_lattice(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = _random_matrix(rng, n, rng.choice(self.KINDS))
            lat = _random_lattice(rng, n)
            want = ZLattice.from_rows(
                n, [_dense_apply(m, r) for r in lat.basis_rows()])
            assert image_lattice(column_nonzeros(m), lat) == want

    def test_preserves(self):
        rng = random.Random(22)
        seen = {True: 0, False: 0}
        for _ in range(80):
            n = rng.randint(1, 6)
            mats = [_random_matrix(rng, n, rng.choice(self.KINDS))
                    for _ in range(rng.randint(1, 2))]
            lat = _random_lattice(rng, n) if rng.random() < 0.5 \
                else ZLattice.standard(n).scale(Fraction(1, 2))
            want = all(member_by_solve(_dense_apply(g, r), lat.basis_rows())
                       for g in mats for r in lat.basis_rows())
            assert preserves(lat, map(column_nonzeros, mats)) is want
            seen[want] += 1
        assert all(seen.values()), seen

    def test_common_eigenlattice(self):
        rng = random.Random(23)
        ranks = set()
        for _ in range(80):
            n = rng.randint(1, 6)
            mats = [_random_matrix(rng, n, rng.choice(self.KINDS))
                    for _ in range(rng.randint(1, 2))]
            signs = [rng.choice((1, -1)) for _ in mats]
            lat = _random_lattice(rng, n)
            if lat.rank == 0:
                continue
            stacked = [[] for _ in lat.rows]
            for g, s in zip(mats, signs):
                for row, out in zip(lat.rows, stacked):
                    img = _dense_apply(g, row)
                    out.extend(img[j] - s * row[j] for j in range(n))
            ker = dense_hnf.kernel_int(stacked, len(stacked[0]))
            want = ZLattice.from_rows(n, [[Fraction(x, lat.den) for x in r]
                                          for r in mat_mul(ker, lat.rows)])
            got = common_eigenlattice(
                lat, [column_nonzeros(g) for g in mats], signs)
            assert got == want
            ranks.add((got.rank > 0, got.rank < lat.rank))
        assert len(ranks) == 3, ranks
