"""Sign actions of elementary abelian 2-groups on lattices.

A SignedAction presents a group E of commuting integral involutions by a
generating list; characters assign a sign to each generator.  The module
computes eigenlattices, total eigenlattices with their exponent bound,
idempotent projections in the group algebra (as products of the commuting
factors (1 + s_i g_i)/2), and intersections of lattice images under finite
integer matrix groups.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from typing import Iterable, Sequence

from voaforms.exact import (
    ZLattice,
    DimensionMismatchError,
    apply_columns,
    as_integer,
    column_nonzeros,
    lattice_intersect,
    lattice_sum,
    mat_mul,
    quotient_exponent,
)


class ActionError(ValueError):
    """The presented matrices do not define a legal sign action."""


class PreservationError(ValueError):
    """The action does not map the given lattice into itself."""


class GroupClosureError(ValueError):
    """Matrix group closure exceeded the configured size bound."""


def _mat_tuple(m: Sequence[Sequence[int]]) -> tuple:
    return tuple(tuple(as_integer(x, "matrix entry") for x in row)
                 for row in m)


def _mat_identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def apply_matrix(m: Sequence[Sequence], vector: Sequence) -> list:
    """Image of a (row) vector under the matrix acting on coordinates."""
    return apply_columns(column_nonzeros(m),
                         [(j, x) for j, x in enumerate(vector) if x], len(m))


def preserves(lattice: ZLattice, columns: Iterable) -> bool:
    """Whether each integer matrix, given by the (row, entry) nonzeros of
    its columns (exact.column_nonzeros), maps the lattice into itself."""
    n = lattice.ambient_dim
    return all(
        lattice.int_coordinates(dict(enumerate(apply_columns(cols, nz, n))),
                                lattice.den) is not None
        for cols in columns for nz in lattice.nonzeros)


class SignedAction:
    """Commuting integral involutions generating E of presented rank r."""

    __slots__ = ("ambient_dim", "generators", "rank")

    def __init__(self, ambient_dim: int, generators: Iterable) -> None:
        gens = tuple(_mat_tuple(g) for g in generators)
        ident = _mat_identity(ambient_dim)
        for g in gens:
            if len(g) != ambient_dim or any(len(r) != ambient_dim for r in g):
                raise ActionError("generator has wrong shape")
            if mat_mul(g, g) != ident:
                raise ActionError("generator does not square to the identity")
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if mat_mul(g, h) != mat_mul(h, g):
                    raise ActionError("generators do not commute")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "rank", len(gens))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("SignedAction is immutable")


class Character:
    """Sign vector on the chosen generators of E."""

    __slots__ = ("signs",)

    def __init__(self, signs: Iterable[int]) -> None:
        sg = tuple(as_integer(s, "character value") for s in signs)
        if any(s not in (1, -1) for s in sg):
            raise ValueError("character values must be +1 or -1")
        object.__setattr__(self, "signs", sg)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Character is immutable")

    def __eq__(self, other):
        return isinstance(other, Character) and self.signs == other.signs

    def __hash__(self):
        return hash(self.signs)

    def __repr__(self):
        return f"Character{self.signs}"

    @staticmethod
    def all_characters(rank: int):
        return [Character(signs) for signs in iproduct((1, -1), repeat=rank)]


def common_eigenlattice(lattice: ZLattice, matrices: Sequence,
                        signs: Sequence[int]) -> ZLattice:
    """Sublattice of the x with g.x = s*x for each paired matrix g and sign s.

    No check is made that the matrices are involutions or preserve the
    lattice.
    """
    if lattice.rank == 0 or not matrices:
        return lattice
    n = lattice.ambient_dim
    # x = y*H/D lies in the sublattice iff y * (H*(g^T - s*I)) = 0 for all
    # pairs, so D times it is spanned by the rows of the HNF of
    # [H*(g^T - s*I) ... | H] with a pivot right of the constraint blocks.
    blocks = [column_nonzeros([[x - s * (i == j) for j, x in enumerate(row)]
                               for i, row in enumerate(g)])
              for g, s in zip(matrices, signs)]
    left = n * len(blocks)
    rows = []
    for nz in lattice.nonzeros:
        w = {left + j: x for j, x in nz}
        for b, cols in enumerate(blocks):
            for i, x in enumerate(apply_columns(cols, nz, n)):
                if x:
                    w[b * n + i] = x
        rows.append(w)
    return ZLattice._from_sparse(n, lattice.den, rows, left)


def eigenlattice(lattice: ZLattice, action: SignedAction,
                 char: Character) -> ZLattice:
    """Sublattice on which every generator acts by the character's sign."""
    if len(char.signs) != action.rank:
        raise ValueError("character length != action rank")
    if not preserves(lattice, map(column_nonzeros, action.generators)):
        raise PreservationError("action does not preserve the lattice")
    return common_eigenlattice(lattice, action.generators, char.signs)


def direct_sum(parts: Sequence[ZLattice]) -> ZLattice:
    """Sum of the eigenlattices of an action; raises unless it is direct."""
    total = ZLattice.zero(parts[0].ambient_dim)
    for p in parts:
        total = lattice_sum(total, p)
    if total.rank != sum(p.rank for p in parts):
        raise ActionError("eigenlattice sum is not direct")
    return total


def total_eigenlattice(lattice: ZLattice, action: SignedAction) -> ZLattice:
    """Internal direct sum of all 2^r eigenlattices."""
    if not preserves(lattice, map(column_nonzeros, action.generators)):
        raise PreservationError("action does not preserve the lattice")
    return direct_sum([common_eigenlattice(lattice, action.generators, ch.signs)
                       for ch in Character.all_characters(action.rank)])


def tel_exponent(lattice: ZLattice, tel: ZLattice, rank: int) -> int:
    """Exact exponent of L/Tel(L), Tel(L) the total eigenlattice of a rank-r
    action.  2^r L <= Tel(L) holds for every preserved lattice; any other
    exponent means the implementation is broken, so it raises."""
    e = quotient_exponent(lattice, tel)
    if (1 << rank) % e:  # pragma: no cover - impossible for preserved lattices
        raise ActionError(f"exponent {e} does not divide 2^{rank}")
    return e


def tel_exponent_check(lattice: ZLattice, action: SignedAction):
    """(2^r L <= Tel(L), exact exponent of L/Tel(L))."""
    tel = total_eigenlattice(lattice, action)
    return True, tel_exponent(lattice, tel, action.rank)


def idempotent_project(vector: Sequence, action: SignedAction,
                       char: Character) -> list:
    """Projection onto the eigenspace of char: 2^-r sum_g char(g) g . vector.

    The generators g_i commute and square to 1, so that sum factors as the
    product of the (1 + s_i g_i)/2, applied here one generator at a time.
    """
    if len(vector) != action.ambient_dim:
        raise DimensionMismatchError("vector has wrong length")
    if len(char.signs) != action.rank:
        raise ValueError("character length != action rank")
    vec = [Fraction(x) for x in vector]
    for g, s in zip(action.generators, char.signs):
        vec = [(x + s * y) / 2 for x, y in zip(vec, apply_matrix(g, vec))]
    return vec


def image_lattice(matrix: Sequence[Sequence], lattice: ZLattice) -> ZLattice:
    """The lattice g.L for an invertible rational matrix g."""
    mden = lcm(1, *(x.denominator for row in matrix for x in row))
    cols = column_nonzeros([[int(x * mden) for x in row] for row in matrix])
    return ZLattice._from_ints(
        lattice.ambient_dim, lattice.den * mden,
        [apply_columns(cols, nz, len(matrix)) for nz in lattice.nonzeros])


def close_matrix_group(gens: Sequence, dim: int, bound: int = 1024) -> list:
    """All products of the given int row-tuple matrices, identity included.

    Raises GroupClosureError if more than ``bound`` distinct elements appear.
    """
    ident = _mat_identity(dim)
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
                    if len(group) > bound:
                        raise GroupClosureError(
                            f"matrix group exceeds {bound} elements")
        frontier = nxt
    return sorted(group)


def invariant_intersection(lattice: ZLattice, matrices: Iterable,
                           bound: int = 1024):
    """Intersection of g.L over the group generated by the given matrices.

    Returns (intersection, exponent of L over it).  Each matrix must be
    invertible over Q.
    """
    mats = [_mat_tuple(m) for m in matrices]
    n = lattice.ambient_dim
    for m in mats:
        if ZLattice._from_ints(n, 1, m).rank < n:
            raise ActionError("matrix is singular")
    group = close_matrix_group(mats, n, bound)
    inter = lattice
    for g in group:
        inter = lattice_intersect(inter, image_lattice(g, lattice))
    e = quotient_exponent(lattice, inter)
    if not preserves(inter, map(column_nonzeros, mats)):  # pragma: no cover
        raise ActionError("intersection is not invariant")
    return inter, e
