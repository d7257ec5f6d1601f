"""Independent brute-force oracles used by the test suite.

Nothing here goes through the library's canonical-form machinery: spans are
reduced by plain repeated subtraction (no extended gcd, no Hermite
normalization), membership is decided by Gaussian elimination over the
rationals, and graded dimension counts come from power-series arithmetic.
These are the reference answers the fast paths are compared against.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def gauss_solve_left(basis_rows, vector):
    """Solve x @ B = v over Q for independent rows B; None if inconsistent."""
    rows = [[Fraction(e) for e in r] for r in basis_rows]
    v = [Fraction(e) for e in vector]
    m = len(rows)
    if m == 0:
        return [] if not any(v) else None
    n = len(rows[0])
    # augmented columns of B^T | v^T, reduced on the fly
    aug = [[rows[i][j] for i in range(m)] + [v[j]] for j in range(n)]
    piv_of_col = {}
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        d = aug[r][c]
        aug[r] = [x / d for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_of_col[c] = r
        r += 1
    for i in range(r, n):
        if aug[i][m]:
            return None
    sol = [Fraction(0)] * m
    for c, idx in piv_of_col.items():
        sol[c] = aug[idx][m]
    return sol


def member_by_solve(vector, basis_rows):
    """Membership of ``vector`` in the Z-span of independent basis rows."""
    sol = gauss_solve_left(basis_rows, vector)
    return sol is not None and all(x.denominator == 1 for x in sol)


def naive_z_span_basis(gen_rows):
    """Independent rows spanning the same group, by repeated subtraction.

    Works column by column: among rows with a nonzero entry in the current
    column, repeatedly subtracts floor-multiples of the smallest from the
    others (plain Euclid by subtraction of rows, no Bezout coefficients and
    no canonical reduction), then sets the surviving row aside.  Rational
    inputs are scaled to a common denominator first and scaled back at the
    end.
    """
    rows = [[Fraction(e) for e in r] for r in gen_rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    den = 1
    for r in rows:
        for x in r:
            den = lcm(den, x.denominator)
    work = [[int(x * den) for x in r] for r in rows]
    basis = []
    for col in range(n):
        while True:
            cand = [r for r in work if r[col] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            small = cand[0]
            for r in cand[1:]:
                q = r[col] // small[col]
                if q:
                    for j in range(n):
                        r[j] -= q * small[j]
            # rows whose entry became zero drop out of the next round
            work = [r for r in work if any(r)]
        lead = next((r for r in work if r[col] != 0), None)
        if lead is not None:
            basis.append(lead)
            work = [r for r in work if r is not lead]
        work = [r for r in work if any(r)]
        if not work:
            break
    return [[Fraction(x, den) for x in r] for r in basis]


def member_of_span(vector, gen_rows):
    """Membership of ``vector`` in the Z-span of arbitrary generating rows."""
    return member_by_solve(vector, naive_z_span_basis(gen_rows))


def grid_points(dim, box, denominator=1):
    """All points with coordinates in (1/denominator)Z and sup-norm <= box."""
    rng = [Fraction(i, denominator)
           for i in range(-box * denominator, box * denominator + 1)]

    def rec(prefix):
        if len(prefix) == dim:
            yield tuple(prefix)
            return
        for v in rng:
            yield from rec(prefix + [v])

    return list(rec([]))


def exponent_by_scan(a_rows, b_rows, bound=30000):
    """Least m > 0 with m * (Z-span of a_rows) inside the Z-span of b_rows.

    Linear scan with Gaussian membership; independent of Smith-form logic.
    """
    for m in range(1, bound + 1):
        if all(member_by_solve([m * x for x in row], b_rows) for row in a_rows):
            return m
    raise AssertionError("no exponent found within bound")


def det_by_expansion(rows):
    """Determinant of a square integer matrix by cofactor expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * x * det_by_expansion(
        [list(r[:j]) + list(r[j + 1:]) for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x)


def invariants_by_minors(rows):
    """Nonzero invariant factors from the determinantal divisors.

    D_k, the gcd of all k x k minors, equals d_1 ... d_k, so d_k is
    D_k / D_(k-1) for every k up to the rank.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                dk = gcd(dk, det_by_expansion(
                    [[rows[i][j] for j in ci] for i in ri]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def poly_mul_trunc(p, q, nmax):
    """Product of coefficient lists, truncated at degree nmax."""
    out = [0] * (nmax + 1)
    for i, a in enumerate(p):
        if a == 0 or i > nmax:
            continue
        for j, b in enumerate(q):
            if i + j > nmax:
                break
            out[i + j] += a * b
    return out


def graded_dims_by_series(gram, nmax):
    """Graded dimensions of the lattice Fock space from its generating series.

    theta(q) / prod_{n>=1} (1-q^n)^rank, computed with integer power-series
    arithmetic; the theta coefficients come from direct enumeration of
    lattice vectors in an expanding coordinate box that is grown until the
    counts stabilize.
    """
    rank = len(gram)
    theta = [0] * (nmax + 1)
    bound = 1
    prev = None
    while True:
        counts = [0] * (nmax + 1)
        rng = range(-bound, bound + 1)

        def norm(vec):
            return sum(gram[i][j] * vec[i] * vec[j]
                       for i in range(rank) for j in range(rank))

        def rec(prefix):
            if len(prefix) == rank:
                nn = norm(prefix)
                if nn % 2 == 0 and nn // 2 <= nmax:
                    counts[nn // 2] += 1
                return
            for c in rng:
                rec(prefix + [c])

        rec([])
        if counts == prev:
            theta = counts
            break
        prev = counts
        bound += 1
    inv = [0] * (nmax + 1)
    inv[0] = 1
    for n in range(1, nmax + 1):
        geo = [0] * (nmax + 1)
        for j in range(0, nmax + 1, n):
            geo[j] = 1
        for _ in range(rank):
            inv = poly_mul_trunc(inv, geo, nmax)
    return poly_mul_trunc(theta, inv, nmax)
