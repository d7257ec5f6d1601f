"""Finite commutative algebras with a bilinear form, exactly over Q.

Hosts the three-dimensional dihedral 2A algebra (the degree-2 piece of the
subalgebra generated by a pair of central-charge-1/2 conformal vectors) and
the generic machinery around it: adjoint matrices, the trace form
Tr(ad(x)ad(y)), associativity tests with witnesses, and exact
proportionality comparison of Gram matrices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from voaforms.exact import QMatrix, format_rational


class FiniteAlgebra:
    """Commutative algebra by structure constants, with a symmetric form."""

    def __init__(self, labels: Sequence[str], constants, gram) -> None:
        self.labels = tuple(labels)
        n = len(self.labels)
        c = [[[Fraction(constants[i][j][k]) for k in range(n)]
              for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                if c[i][j] != c[j][i]:
                    raise ValueError(
                        f"structure constants not commutative at ({i},{j})")
        g = gram if isinstance(gram, QMatrix) else QMatrix.from_rows(gram)
        if not g.is_symmetric():
            raise ValueError("gram matrix is not symmetric")
        if g.rows != n:
            raise ValueError("gram matrix has wrong size")
        self.dim = n
        self.constants = c
        self.gram = g

    def multiply(self, x: Sequence, y: Sequence) -> list:
        """Product of coefficient vectors."""
        n = self.dim
        x = [Fraction(v) for v in x]
        y = [Fraction(v) for v in y]
        out = [Fraction(0)] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                cij = self.constants[i][j]
                f = x[i] * y[j]
                for k in range(n):
                    if cij[k]:
                        out[k] += f * cij[k]
        return out

    def basis_vector(self, i: int) -> list:
        return [Fraction(int(j == i)) for j in range(self.dim)]

    def form_value(self, x: Sequence, y: Sequence) -> Fraction:
        n = self.dim
        return sum((Fraction(x[i]) * self.gram.entry(i, j) * Fraction(y[j])
                    for i in range(n) for j in range(n)), Fraction(0))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "labels": list(self.labels),
            "constants": [[[format_rational(c) for c in row]
                           for row in plane] for plane in self.constants],
            "gram": [[format_rational(self.gram.entry(i, j))
                      for j in range(self.dim)] for i in range(self.dim)],
        }


def dihedral_2a() -> FiniteAlgebra:
    """The 2A algebra on basis a, b, c: p.p = p, p.q = (p+q-r)/8.

    Inner products are (p,p) = 1 and (p,q) = 1/8 for distinct basis
    elements.
    """
    n = 3
    eighth = Fraction(1, 8)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[i][i][i] = Fraction(1)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            k = 3 - i - j
            c[i][j][i] = eighth
            c[i][j][j] = eighth
            c[i][j][k] = -eighth
    gram = [[Fraction(1) if i == j else eighth for j in range(n)]
            for i in range(n)]
    return FiniteAlgebra(("a", "b", "c"), c, gram)


def ad_matrix(algebra: FiniteAlgebra, x: Sequence) -> QMatrix:
    """Matrix of left multiplication by the coefficient vector x."""
    n = algebra.dim
    if len(x) != n:
        raise ValueError("coefficient vector has wrong length")
    cols = [algebra.multiply(x, algebra.basis_vector(j)) for j in range(n)]
    return QMatrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])


def trace_form(mats: Sequence[QMatrix]) -> QMatrix:
    """Gram matrix of (i, j) -> Tr(M_i M_j) = sum of M_i[a][b] M_j[b][a]."""
    n = len(mats)
    flipped = [m.transpose().entries for m in mats]
    out = [Fraction(0)] * (n * n)
    for i, mi in enumerate(mats):
        for j in range(i, n):
            out[i * n + j] = out[j * n + i] = sum(
                x * y for x, y in zip(mi.entries, flipped[j]) if x and y)
    return QMatrix(n, n, out)


def killing_form(algebra: FiniteAlgebra) -> QMatrix:
    """Gram matrix of (x, y) -> Tr(ad(x) ad(y)) on the basis."""
    return trace_form([ad_matrix(algebra, algebra.basis_vector(i))
                       for i in range(algebra.dim)])


def is_associative_form(algebra: FiniteAlgebra, gram: QMatrix):
    """(True, None) or (False, witness) for G(x.y, z) == G(x, y.z).

    The witness is (i, j, k, lhs, rhs) for the first failing basis triple in
    lexicographic order.
    """
    alg = FiniteAlgebra(algebra.labels, algebra.constants, gram)
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            xy = alg.multiply(basis[i], basis[j])
            for k in range(n):
                lhs = alg.form_value(xy, basis[k])
                rhs = alg.form_value(basis[i],
                                     alg.multiply(basis[j], basis[k]))
                if lhs != rhs:
                    return False, (i, j, k, lhs, rhs)
    return True, None


def proportionality_check(g1: QMatrix, g2: QMatrix):
    """Exact scalar r with g1 == r * g2, or None if no such scalar exists."""
    if (g1.rows, g1.cols) != (g2.rows, g2.cols):
        raise ValueError("shapes differ")
    if all(x == 0 for x in g1.entries):
        return Fraction(0)
    pivot = next((i for i, x in enumerate(g2.entries) if x), None)
    if pivot is None:
        return None
    r = g1.entries[pivot] / g2.entries[pivot]
    if all(a == r * b for a, b in zip(g1.entries, g2.entries)):
        return r
    return None


def dihedral_2a_report() -> dict:
    """Full exact report on the 2A algebra.

    Adjoint matrices of all three basis vectors, the products A^2, AB, AC,
    both Gram matrices, the two traces exhibiting non-associativity of the
    trace form, and the three verdicts.
    """
    alg = dihedral_2a()
    a = ad_matrix(alg, [1, 0, 0])
    b = ad_matrix(alg, [0, 1, 0])
    c = ad_matrix(alg, [0, 0, 1])
    killing = killing_form(alg)
    natural = alg.gram
    ab_vec = alg.multiply([1, 0, 0], [0, 1, 0])
    ad_ab = ad_matrix(alg, ab_vec)
    nat_ok, _ = is_associative_form(alg, natural)
    kil_ok, kil_wit = is_associative_form(alg, killing)
    ratio = proportionality_check(killing, natural)

    def enc(m: QMatrix):
        return [[format_rational(m.entry(i, j)) for j in range(m.cols)]
                for i in range(m.rows)]

    report = {
        "basis": list(alg.labels),
        "algebra": alg.to_json(),
        "ad": {"a": enc(a), "b": enc(b), "c": enc(c)},
        "products": {"AA": enc(a @ a), "AB": enc(a @ b), "AC": enc(a @ c),
                     "A_ad_ab": enc(a @ ad_ab)},
        "gram": {"killing": enc(killing), "natural": enc(natural)},
        "traces": {"AB": format_rational((a @ b).trace()),
                   "A_ad_ab": format_rational((a @ ad_ab).trace())},
        "verdicts": {
            "natural_associative": nat_ok,
            "killing_associative": kil_ok,
            "proportional": ratio is not None,
        },
    }
    if kil_wit is not None:
        i, j, k, lhs, rhs = kil_wit
        report["killing_witness"] = {
            "triple": [alg.labels[i], alg.labels[j], alg.labels[k]],
            "form_of_product_left": format_rational(lhs),
            "form_of_product_right": format_rational(rhs),
        }
    if ratio is not None:  # pragma: no cover - 2A grams are not proportional
        report["ratio"] = format_rational(ratio)
    return report
