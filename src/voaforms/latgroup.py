"""Sign actions of elementary abelian 2-groups on lattices.

A SignedAction presents a group E of commuting integral involutions by a
generating list; characters assign a sign to each generator.  The module
computes eigenlattices, total eigenlattices with their exponent bound,
idempotent projections in the group algebra (as products of the commuting
factors (1 + s_i g_i)/2), and intersections of lattice images under finite
groups.  Matrices act through the nonzeros of their columns; close_group
is the one group closure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable, Sequence

from voaforms.exact import (
    ZLattice,
    DimensionMismatchError,
    apply_columns,
    as_integer,
    column_nonzeros,
    columns_matrix,
    identity_matrix,
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
    """Group closure exceeded the configured size bound."""


def _mat_tuple(m: Sequence[Sequence[int]]) -> tuple:
    return tuple(tuple(as_integer(x, "matrix entry") for x in row)
                 for row in m)


def preserves(lattice: ZLattice, columns: Iterable) -> bool:
    """Whether each integer matrix, given by the (row, entry) nonzeros of
    its columns (exact.column_nonzeros), maps the lattice into itself."""
    n = lattice.ambient_dim
    return all(
        lattice.int_coordinates(dict(enumerate(apply_columns(cols, nz, n))),
                                lattice.den) is not None
        for cols in columns for nz in lattice.nonzeros)


def _product_columns(g: Sequence, h: Sequence, n: int) -> list:
    """The dense columns of g @ h, both given by column nonzeros."""
    return [apply_columns(g, col, n) for col in h]


class SignedAction:
    """Commuting integral involutions generating E of presented rank r.

    Each generator is stored as the (row, entry) nonzeros of its columns
    (``columns``); ``generators`` is their dense view.
    """

    __slots__ = ("ambient_dim", "columns", "rank")

    def __init__(self, ambient_dim: int, generators: Iterable) -> None:
        gens = [_mat_tuple(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim or any(len(r) != ambient_dim for r in g):
                raise ActionError("generator has wrong shape")
        self._set(ambient_dim, map(column_nonzeros, gens))

    @classmethod
    def from_columns(cls, ambient_dim: int,
                     columns: Iterable) -> "SignedAction":
        """The action of integer matrices given by their column nonzeros."""
        act = cls.__new__(cls)
        act._set(ambient_dim, columns)
        return act

    def _set(self, n: int, columns: Iterable) -> None:
        """Check the generators' column nonzeros and store them."""
        cols = tuple(tuple(map(tuple, g)) for g in columns)
        ident = [[int(i == j) for i in range(n)] for j in range(n)]
        for g in cols:
            if len(g) != n:
                raise ActionError("generator has wrong shape")
            if _product_columns(g, g, n) != ident:
                raise ActionError("generator does not square to the identity")
        for i, g in enumerate(cols):
            for h in cols[i + 1:]:
                if _product_columns(g, h, n) != _product_columns(h, g, n):
                    raise ActionError("generators do not commute")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rank", len(cols))

    @property
    def generators(self) -> tuple:
        """The generators as integer matrices (row tuples)."""
        return tuple(map(columns_matrix, self.columns))

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


def common_eigenlattice(lattice: ZLattice, columns: Sequence,
                        signs: Sequence[int]) -> ZLattice:
    """Sublattice of the x with g.x = s*x for each paired matrix g, given
    by its column nonzeros (exact.column_nonzeros), and sign s.

    No check is made that the matrices are involutions or preserve the
    lattice.
    """
    if lattice.rank == 0 or not columns:
        return lattice
    n = lattice.ambient_dim
    # x = y*H/D lies in the sublattice iff y * (H*(g^T - s*I)) = 0 for all
    # pairs, so D times it is spanned by the rows of the HNF of
    # [H*(g^T - s*I) ... | H] with a pivot right of the constraint blocks.
    pairs = list(zip(columns, signs))
    left = n * len(pairs)
    rows = []
    for nz in lattice.nonzeros:
        w = {left + j: x for j, x in nz}
        for b, (cols, s) in enumerate(pairs):
            img = apply_columns(cols, nz, n)
            for j, x in nz:
                img[j] -= s * x
            for i, x in enumerate(img):
                if x:
                    w[b * n + i] = x
        rows.append(w)
    return ZLattice._from_sparse(n, lattice.den, rows, left)


def eigenlattice(lattice: ZLattice, action: SignedAction,
                 char: Character) -> ZLattice:
    """Sublattice on which every generator acts by the character's sign."""
    if len(char.signs) != action.rank:
        raise ValueError("character length != action rank")
    if not preserves(lattice, action.columns):
        raise PreservationError("action does not preserve the lattice")
    return common_eigenlattice(lattice, action.columns, char.signs)


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
    if not preserves(lattice, action.columns):
        raise PreservationError("action does not preserve the lattice")
    return direct_sum([common_eigenlattice(lattice, action.columns, ch.signs)
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
    n = action.ambient_dim
    vec = [Fraction(x) for x in vector]
    for cols, s in zip(action.columns, char.signs):
        img = apply_columns(cols, [(j, x) for j, x in enumerate(vec) if x], n)
        vec = [(x + s * y) / 2 for x, y in zip(vec, img)]
    return vec


def image_lattice(columns: Sequence, lattice: ZLattice) -> ZLattice:
    """The lattice g.L for the integer matrix g given by its column
    nonzeros (exact.column_nonzeros)."""
    n = lattice.ambient_dim
    return ZLattice._from_ints(
        n, lattice.den,
        [apply_columns(columns, nz, n) for nz in lattice.nonzeros])


def close_group(gens: Sequence, one, product, bound: int = 1024) -> list:
    """The elements of the group that the hashable ``gens`` generate under
    ``product``, ``one`` (its identity) first, in the order found: every
    element is multiplied once by every generator.

    Raises GroupClosureError if more than ``bound`` distinct elements appear.
    """
    elements, seen = [one], {one}
    for m in elements:  # the list grows while it is read
        for g in gens:
            p = product(m, g)
            if p not in seen:
                seen.add(p)
                elements.append(p)
                if len(elements) > bound:
                    raise GroupClosureError(
                        f"group exceeds {bound} elements")
    return elements


def intersect_images(lattice: ZLattice, elements: Iterable,
                     generators: Sequence):
    """(L cap g.L over the integer matrices g that ``elements`` gives by
    their column nonzeros, exponent of L over it).

    ``elements`` should be the elements of the finite group that
    ``generators`` (column nonzeros too) generate; the intersection must
    then be stable under each generator.  L meets its image under each
    distinct matrix other than 1 once.
    """
    one = tuple(((j, 1),) for j in range(lattice.ambient_dim))
    images = {tuple(map(tuple, cols)): cols for cols in elements}
    images.pop(one, None)
    inter = lattice
    for cols in images.values():
        inter = lattice_intersect(inter, image_lattice(cols, lattice))
    e = quotient_exponent(lattice, inter)
    if not preserves(inter, generators):  # pragma: no cover
        raise ActionError("intersection is not invariant")
    return inter, e


def invariant_intersection(lattice: ZLattice, matrices: Iterable,
                           bound: int = 1024):
    """Intersection of g.L over the group generated by the given matrices.

    Returns (intersection, exponent of L over it).  Each matrix must be
    invertible over Q; ``bound`` caps the group's order.
    """
    mats = [_mat_tuple(m) for m in matrices]
    n = lattice.ambient_dim
    for m in mats:
        if ZLattice._from_ints(n, 1, m).rank < n:
            raise ActionError("matrix is singular")
    group = close_group(mats, identity_matrix(n), mat_mul, bound)
    return intersect_images(lattice, map(column_nonzeros, group[1:]),
                            [column_nonzeros(m) for m in mats])
