from fractions import Fraction as F

import pytest

from voaforms.exact import QMatrix
from voaforms.dihedral import (
    FiniteAlgebra,
    ad_matrix,
    dihedral_2a,
    dihedral_2a_report,
    is_associative_form,
    killing_form,
    proportionality_check,
    trace_form,
)

AD_A = [[1, F(1, 8), F(1, 8)],
        [0, F(1, 8), F(-1, 8)],
        [0, F(-1, 8), F(1, 8)]]
AD_B = [[F(1, 8), 0, F(-1, 8)],
        [F(1, 8), 1, F(1, 8)],
        [F(-1, 8), 0, F(1, 8)]]
AD_C = [[F(1, 8), F(-1, 8), 0],
        [F(-1, 8), F(1, 8), 0],
        [F(1, 8), F(1, 8), 1]]
KILLING = [[F(17, 16), F(1, 4), F(1, 4)],
           [F(1, 4), F(17, 16), F(1, 4)],
           [F(1, 4), F(1, 4), F(17, 16)]]
NATURAL = [[1, F(1, 8), F(1, 8)],
           [F(1, 8), 1, F(1, 8)],
           [F(1, 8), F(1, 8), 1]]


@pytest.fixture(scope="module")
def alg():
    return dihedral_2a()


class TestAlgebra:
    def test_products(self, alg):
        a, b, c = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
        assert alg.multiply(a, a) == [F(1), F(0), F(0)]
        assert alg.multiply(a, b) == [F(1, 8), F(1, 8), F(-1, 8)]
        assert alg.multiply(b, c) == [F(-1, 8), F(1, 8), F(1, 8)]

    def test_inner_products(self, alg):
        assert alg.form_value([1, 0, 0], [0, 1, 0]) == F(1, 8)
        assert alg.form_value([1, 0, 0], [1, 0, 0]) == 1

    def test_commutativity_enforced(self):
        c = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
        c[0][1] = [1, 0]
        c[1][0] = [0, 1]  # deliberately asymmetric
        with pytest.raises(ValueError, match="commutative"):
            FiniteAlgebra(("x", "y"), c, [[1, 0], [0, 1]])

    def test_gram_symmetry_enforced(self, alg):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteAlgebra(alg.labels, alg.constants, [[1, 1, 0],
                                                      [0, 1, 0],
                                                      [0, 0, 1]])


class TestAdjoint:
    def test_matrices(self, alg):
        assert ad_matrix(alg, [1, 0, 0]) == QMatrix.from_rows(AD_A)
        assert ad_matrix(alg, [0, 1, 0]) == QMatrix.from_rows(AD_B)
        assert ad_matrix(alg, [0, 0, 1]) == QMatrix.from_rows(AD_C)

    def test_zero(self, alg):
        assert ad_matrix(alg, [0, 0, 0]) == QMatrix.zero(3, 3)

    def test_linear(self, alg):
        lhs = ad_matrix(alg, [2, -3, F(1, 2)])
        rhs = (ad_matrix(alg, [1, 0, 0]).scale(2) +
               ad_matrix(alg, [0, 1, 0]).scale(-3) +
               ad_matrix(alg, [0, 0, 1]).scale(F(1, 2)))
        assert lhs == rhs

    def test_columns_reproduce_constants(self, alg):
        for i in range(3):
            m = ad_matrix(alg, alg.basis_vector(i))
            for j in range(3):
                col = [m.entry(k, j) for k in range(3)]
                assert col == alg.multiply(alg.basis_vector(i),
                                           alg.basis_vector(j))


class TestProducts:
    def test_squares_and_products(self, alg):
        a = ad_matrix(alg, [1, 0, 0])
        b = ad_matrix(alg, [0, 1, 0])
        c = ad_matrix(alg, [0, 0, 1])
        assert (a @ a) == QMatrix.from_rows(
            [[1, F(1, 8), F(1, 8)],
             [0, F(1, 32), F(-1, 32)],
             [0, F(-1, 32), F(1, 32)]])
        assert (a @ b) == QMatrix.from_rows(
            [[F(1, 8), F(1, 8), F(-3, 32)],
             [F(1, 32), F(1, 8), 0],
             [F(-1, 32), F(-1, 8), 0]])
        # a@c: the exact product; its (0,2) entry is 1/8 = row 0 of A
        # against the last column (0, 0, 1) of C
        assert (a @ c) == QMatrix.from_rows(
            [[F(1, 8), F(-3, 32), F(1, 8)],
             [F(-1, 32), 0, F(-1, 8)],
             [F(1, 32), 0, F(1, 8)]])

    def test_traces(self, alg):
        a = ad_matrix(alg, [1, 0, 0])
        b = ad_matrix(alg, [0, 1, 0])
        ab = alg.multiply([1, 0, 0], [0, 1, 0])
        assert (a @ b).trace() == F(1, 4)
        assert (a @ ad_matrix(alg, ab)).trace() == F(17, 128)


class TestKilling:
    def test_gram(self, alg):
        assert killing_form(alg) == QMatrix.from_rows(KILLING)

    def test_relabeling_symmetry(self, alg):
        k = killing_form(alg)
        # the 2A constants are symmetric in a, b, c, so all diagonal and all
        # off-diagonal entries agree
        assert len({k.entry(i, i) for i in range(3)}) == 1
        assert len({k.entry(i, j) for i in range(3)
                    for j in range(3) if i != j}) == 1

    def test_one_dimensional(self):
        alg1 = FiniteAlgebra(("x",), [[[1]]], [[1]])
        assert killing_form(alg1) == QMatrix.from_rows([[1]])

    def test_trace_form_of_unrelated_matrices(self):
        # no algebra behind them: rational, not symmetric, with zeros
        mats = [QMatrix.from_rows(AD_A), QMatrix.from_rows(AD_B),
                QMatrix.from_rows([[F(2, 3), -1, 0], [0, 0, 5], [1, 0, 0]])]
        n = len(mats)
        assert trace_form(mats) == QMatrix(n, n, [
            (mi @ mj).trace() for mi in mats for mj in mats])
        assert trace_form([]) == QMatrix(0, 0, [])


class TestAssociativity:
    def test_natural_form_associative(self, alg):
        ok, witness = is_associative_form(alg, QMatrix.from_rows(NATURAL))
        assert ok and witness is None

    def test_killing_not_associative(self, alg):
        ok, witness = is_associative_form(alg, QMatrix.from_rows(KILLING))
        assert not ok
        i, j, k, lhs, rhs = witness
        assert (i, j, k) == (0, 0, 1)
        assert lhs == F(1, 4) and rhs == F(17, 128)

    def test_zero_form_associative(self, alg):
        ok, _ = is_associative_form(alg, QMatrix.zero(3, 3))
        assert ok


class TestProportionality:
    def test_killing_vs_natural(self, alg):
        assert proportionality_check(killing_form(alg),
                                     QMatrix.from_rows(NATURAL)) is None

    def test_double(self):
        g = QMatrix.from_rows([[2, 1], [1, 4]])
        assert proportionality_check(g.scale(2), g) == 2

    def test_zero_numerator(self):
        g = QMatrix.from_rows([[2, 1], [1, 4]])
        assert proportionality_check(QMatrix.zero(2, 2), g) == 0

    def test_zero_denominator(self):
        g = QMatrix.from_rows([[2, 1], [1, 4]])
        assert proportionality_check(g, QMatrix.zero(2, 2)) is None


class TestReport:
    def test_structure(self):
        r = dihedral_2a_report()
        assert r["verdicts"] == {"natural_associative": True,
                                 "killing_associative": False,
                                 "proportional": False}
        assert r["traces"] == {"AB": "1/4", "A_ad_ab": "17/128"}
        assert r["killing_witness"]["triple"] == ["a", "a", "b"]
        assert r["gram"]["killing"][0] == ["17/16", "1/4", "1/4"]
        assert r["gram"]["natural"][0] == ["1", "1/8", "1/8"]
