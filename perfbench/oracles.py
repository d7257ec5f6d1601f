"""Independent computations the workload checks compare the program against.

Nothing here imports voaforms or the repository's tests: dimensions come
from the theta series and partition counts, membership and inverses from
plain rational Gauss-Jordan elimination, and quotient exponents from a scan
over multipliers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt, lcm


def inverse(matrix):
    """Inverse of a square rational matrix by Gauss-Jordan, or None."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def solve(basis, vectors):
    """Rational y with y @ basis == v for each v, or None outside the span.

    ``basis`` must have independent rows.  One Gauss-Jordan pass on the
    transposed system serves every right-hand side.
    """
    r = len(basis)
    n = len(basis[0]) if r else 0
    m = len(vectors)
    a = [[Fraction(basis[i][j]) for i in range(r)]
         + [Fraction(vectors[t][j]) for t in range(m)] for j in range(n)]
    row = 0
    pivot_rows = []
    for col in range(r):
        piv = next((i for i in range(row, n) if a[i][col]), None)
        if piv is None:
            raise ValueError("basis rows are dependent")
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        a[row] = [x / p for x in a[row]]
        for i in range(n):
            f = a[i][col]
            if i != row and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivot_rows.append(row)
        row += 1
    out = []
    for t in range(m):
        if any(a[i][r + t] for i in range(row, n)):
            out.append(None)
        else:
            out.append([a[pivot_rows[c]][r + t] for c in range(r)])
    return out


def members(basis, vectors):
    """Whether every vector is an integral combination of the basis rows."""
    if not basis:
        return all(not any(v) for v in vectors)
    return all(y is not None and all(c.denominator == 1 for c in y)
               for y in solve(basis, vectors))


def quotient_exponent(outer, inner, limit=1 << 20):
    """Least m >= 1 with m * outer inside the lattice spanned by inner."""
    coords = solve(inner, outer) if inner else []
    if any(y is None for y in coords):
        raise ValueError("outer lattice leaves the span of inner")
    for m in range(1, limit + 1):
        if all((m * c).denominator == 1 for y in coords for c in y):
            return m
    raise ValueError(f"no exponent up to {limit}")


def _clear(matrix):
    """(integer matrix, d) with matrix == integer matrix / d."""
    d = lcm_of_denominators(matrix)
    return [[int(Fraction(x) * d) for x in row] for row in matrix], d


def gram(rows, form):
    """Gram matrix rows @ form @ rows^T, exact (on cleared integers)."""
    if not rows:
        return []
    h, dh = _clear(rows)
    f, df = _clear(form)
    hf = [[sum(u[i] * f[i][j] for i in range(len(u)) if u[i])
           for j in range(len(f))] for u in h]
    den = dh * dh * df
    return [[Fraction(sum(a * b for a, b in zip(fu, w)), den) for w in h]
            for fu in hf]


def apply_columns(matrix, row):
    """Image of a coordinate vector under a matrix acting on columns."""
    return [sum(m * x for m, x in zip(mrow, row)) for mrow in matrix]


def lcm_of_denominators(matrix):
    out = 1
    for row in matrix:
        for x in row:
            out = lcm(out, Fraction(x).denominator)
    return out


def _colored_partitions(colors, top):
    """Coefficients of prod_k (1 - q^k)^-colors up to q^top."""
    c = [1] + [0] * top
    for _ in range(colors):
        for k in range(1, top + 1):
            for n in range(k, top + 1):
                c[n] += c[n - k]
    return c


def graded_dimensions(gram_matrix, cutoff):
    """dim V_d for d <= cutoff: theta series times colored partition counts.

    V_d is spanned by Heisenberg monomials of weight d - |a|^2/2 over the
    ground states e^a, so dim V_d = sum_a p_rank(d - |a|^2/2).
    """
    n = len(gram_matrix)
    ginv = inverse(gram_matrix)
    # |a_i| <= sqrt(|a|^2 * (G^-1)_ii) on a positive definite lattice
    box = [isqrt(int(2 * cutoff * ginv[i][i]) + 1) + 1 for i in range(n)]
    theta = [0] * (cutoff + 1)
    for a in product(*(range(-b, b + 1) for b in box)):
        norm = sum(gram_matrix[i][j] * a[i] * a[j]
                   for i in range(n) for j in range(n))
        if norm <= 2 * cutoff:
            theta[norm // 2] += 1
    parts = _colored_partitions(n, cutoff)
    return [sum(theta[h] * parts[d - h] for h in range(d + 1))
            for d in range(cutoff + 1)]


def is_power_of_two(n):
    return n > 0 and n & (n - 1) == 0
