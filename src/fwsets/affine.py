"""Affine maps and affine manifolds (flats)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatchError, EmptySetError
from .linalg import (
    LinearSystem,
    Mat,
    ONE,
    Vec,
    ZERO,
    basis_of_span,
    dim_of,
    dot,
    hash_once,
    identity,
    int_fraction,
    is_zero,
    kernel_basis,
    mat,
    matvec,
    primitive,
    primitive_ints,
    rank,
    rat,
    set_fields,
    vadd,
    vec,
    vscale,
    zeros,
)


@dataclass(frozen=True)
class AffineMap:
    """``T(x) = matrix @ x + offset`` from R^n to R^m; ``offset`` defaults to
    zeros."""

    matrix: Mat
    offset: Vec | None = None

    def __post_init__(self):
        m = mat(self.matrix)
        set_fields(self, matrix=m, offset=zeros(len(m)) if self.offset is None else vec(self.offset))
        if len(self.matrix) != len(self.offset):
            raise DimensionMismatchError("offset length differs from row count")

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(identity(n), zeros(n))

    @property
    def source_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def target_dim(self) -> int:
        return len(self.matrix)

    def apply(self, x: Vec) -> Vec:
        return vadd(matvec(self.matrix, x), self.offset)

    def apply_linear(self, x: Vec) -> Vec:
        return matvec(self.matrix, x)


@dataclass(frozen=True)
class AffineManifold:
    """A flat, held in both forms: ``{x : A x = b}`` and ``point + span(basis)``.

    It compares and hashes by its canonical equations alone: A's rows are the
    primitive kernel basis of the direction space, one per codimension (one
    zero row for the whole space), so every spelling of one flat gives the
    same rows, and ``b = A @ point``.
    ``point`` and ``basis`` are those it was built from or solved for;
    ``basis`` has full rank.
    """

    a: Mat
    b: Vec
    point: Vec = field(compare=False)
    basis: tuple[Vec, ...] = field(compare=False)
    dim: int

    __hash__ = hash_once

    def __post_init__(self):
        set_fields(self, a=mat(self.a), b=vec(self.b), point=vec(self.point), basis=mat(self.basis))

    @staticmethod
    def from_equations(a, b) -> "AffineManifold":
        a = mat(a)
        b = vec(b)
        if not a:
            raise DimensionMismatchError("need at least one equation row")
        n = len(a[0])
        system = LinearSystem(a, n)
        x0 = system.solve(b)
        if x0 is None:
            raise EmptySetError("the equation system has no solution")
        return AffineManifold._canonical(x0, tuple(system.kernel), n)

    @staticmethod
    def from_point_basis(point, basis) -> "AffineManifold":
        point, basis = vec(point), mat(basis)
        n = len(point)
        if basis and len(basis[0]) != n:
            raise DimensionMismatchError("basis vector dimension mismatch")
        if basis and rank(basis) < len(basis):
            raise DimensionMismatchError("basis vectors must be independent")
        return AffineManifold._canonical(point, basis, n)

    @staticmethod
    def _canonical(point: Vec, basis: tuple[Vec, ...], n: int) -> "AffineManifold":
        """The flat through ``point`` along the independent ``basis``, with
        its canonical equations."""
        # rows spanning the orthogonal complement of the direction space:
        # a . b = 0 for every basis vector b means a lies in the kernel of
        # the matrix whose rows are the basis vectors; the whole space keeps
        # one zero row, so that its equations still give its dimension
        if basis:
            a = tuple(primitive(v) for v in kernel_basis(basis, ncols=n)) or (zeros(n),)
        else:
            a = identity(n)
        return AffineManifold(a, tuple(dot(row, point) for row in a), point, basis, n)

    @staticmethod
    def hyperplane(normal, value) -> "AffineManifold":
        """``{x : normal . x = value}``, built without elimination: the
        canonical row is the primitive normal with its last nonzero entry
        positive, the point is ``value / normal_j`` at the first nonzero
        column j, and the basis is ``e_k - (normal_k / normal_j) e_j`` for
        k != j; the fields :meth:`from_equations` gives.  A zero normal
        takes that path."""
        normal, value = vec(normal), rat(value)
        j = next((i for i, x in enumerate(normal) if x), None)
        if j is None:
            return AffineManifold.from_equations((normal,), (value,))
        n = len(normal)
        ints = primitive_ints(normal)
        if next(x for x in reversed(ints) if x) < 0:
            ints = [-x for x in ints]
        xj = value / normal[j]
        point = tuple(xj if i == j else ZERO for i in range(n))
        basis = tuple(
            tuple(ONE if i == k else Fraction(-ints[k], ints[j]) if i == j else ZERO for i in range(n))
            for k in range(n)
            if k != j
        )
        row = tuple(map(int_fraction, ints))
        return AffineManifold((row,), (ints[j] * xj,), point, basis, n)

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        return all(dot(row, x) == rhs for row, rhs in zip(self.a, self.b))

    def inequalities(self) -> tuple[Mat, Vec]:
        """``(rows, rhs)`` of the flat as inequalities: each equation
        ``a . x = b`` as ``a . x <= b`` followed by ``-a . x <= -b``."""
        rows = tuple(r for row in self.a for r in (row, vscale(-ONE, row)))
        return rows, tuple(v for rhs in self.b for v in (rhs, -rhs))

    @property
    def flat_dim(self) -> int:
        return len(self.basis)


def subspace(basis, dim=None) -> AffineManifold:
    """The linear subspace spanned by ``basis`` through the origin; ``dim``
    defaults to the vectors' width."""
    vectors = mat(basis)
    dim = dim_of(dim, vectors)
    vectors = [v for v in vectors if not is_zero(v)]
    return AffineManifold.from_point_basis(zeros(dim), basis_of_span(vectors, dim))
