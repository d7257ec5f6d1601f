"""Dense Hermite and Smith forms, kept as a test-local reference.

This is the elimination as first written: a partial echelon on dense
integer rows (``echelon_insert_partial``) followed by one pass that reduces
the entries above each pivot.  The library builds every Hermite normal form
with ``exact.SparseHNF`` instead; the tests compare the two on seeded
integer matrices.  A canonical form is unique, so the two must agree
exactly.  Lattices are returned as (den, nonzeros) pairs, in the layout of
``ZLattice``.
"""

from math import gcd, lcm


def xgcd(a, b):
    """(x, y, g) with x*a + y*b == g = gcd(a, b), g the positive gcd."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def echelon_insert_partial(pivots, vec, npiv):
    """Reduce ``vec`` against pivot rows in place, inserting it if independent.

    ``pivots`` maps a pivot column (< npiv) to its row.  Returns the inserted
    row, or None if ``vec`` reduced to zero over the pivot columns.  Rows may
    be wider than the pivot range (augmented columns ride along).
    """
    width = len(vec)
    j = 0
    while j < npiv:
        if vec[j] == 0:
            j += 1
            continue
        row = pivots.get(j)
        if row is None:
            pivots[j] = vec
            return vec
        a, b = row[j], vec[j]
        if b % a == 0:
            q = b // a
            for jj in range(j, width):
                vec[jj] -= q * row[jj]
        else:
            x, y, g = xgcd(a, b)
            ag, bg = a // g, b // g
            for jj in range(j, width):
                r, v = row[jj], vec[jj]
                row[jj] = x * r + y * v
                vec[jj] = ag * v - bg * r
        j += 1
    return None


def hnf_int(rows, cols):
    """Canonical row Hermite normal form of the integer row span.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped, and rows are ordered by pivot column.
    """
    pivots = {}
    for r in rows:
        echelon_insert_partial(pivots, list(r), cols)
    cols_sorted = sorted(pivots)
    basis = [pivots[j] for j in cols_sorted]
    for idx, j in enumerate(cols_sorted):
        if basis[idx][j] < 0:
            basis[idx] = [-x for x in basis[idx]]
    # rows below a pivot have zeros at all earlier pivot columns, so reducing
    # in ascending pivot order leaves the columns already reduced alone
    for idx in range(len(basis)):
        j = cols_sorted[idx]
        p = basis[idx][j]
        for up in range(idx):
            q = basis[up][j] // p
            if q:
                basis[up] = [x - q * y for x, y in zip(basis[up], basis[idx])]
    return basis


def kernel_int(rows, cols):
    """Canonical HNF basis of {x : x @ M == 0} for M with the given rows."""
    m = len(rows)
    pivots = {}
    kernel = []
    for i, r in enumerate(rows):
        aug = list(r) + [0] * m
        aug[cols + i] = 1
        if echelon_insert_partial(pivots, aug, cols) is None:
            kernel.append(aug[cols:])
    return hnf_int(kernel, m)


def smith_invariants(rows):
    """Invariant factors d1 | d2 | ... (nonzero only), by alternating row
    Hermite forms of the matrix and its transpose (Kannan-Bachem 1979)."""
    a = [list(r) for r in rows]
    cols = len(a[0]) if a else 0
    while True:
        a = hnf_int(a, cols)
        if all(len(row) - row.count(0) == 1 for row in a):
            break
        a, cols = list(zip(*a)), len(a)
    d = [next(x for x in row if x) for row in a]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def lattice(n, den, rows):
    """(den, nonzeros) of the canonical form of the span of rows / den."""
    basis = [[(j, x) for j, x in enumerate(row) if x]
             for row in hnf_int(rows, n)]
    g = gcd(den, *(x for nz in basis for _, x in nz))
    return den // g, tuple(tuple((j, x // g) for j, x in nz) for nz in basis)


def dense(n, nonzeros):
    """Dense integer rows of sparse (column, value) rows."""
    out = []
    for nz in nonzeros:
        row = [0] * n
        for j, x in nz:
            row[j] = x
        out.append(row)
    return out


def lattice_sum(n, a, b):
    """(den, nonzeros) of A + B, for A and B given as (den, nonzeros)."""
    den = lcm(a[0], b[0])
    return lattice(n, den, [[x * (den // d) for x in row]
                            for d, nzs in (a, b) for row in dense(n, nzs)])


def lattice_intersect(n, a, b):
    """(den, nonzeros) of A meet B: echelonize [u | u] for u in A and
    [w | 0] for w in B on the left block; a row left with a zero left block
    has its right block in the intersection."""
    den = lcm(a[0], b[0])
    pivots = {}
    inter = []
    for (d, nzs), keep in ((a, True), (b, False)):
        for row in dense(n, nzs):
            u = [x * (den // d) for x in row]
            vec = u + (u if keep else [0] * n)
            if echelon_insert_partial(pivots, vec, n) is None \
                    and any(vec[n:]):
                inter.append(vec[n:])
    return lattice(n, den, inter)
