"""Affine maps and affine manifolds (flats)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError, EmptySetError
from .linalg import (
    LinearSystem,
    Mat,
    Vec,
    basis_of_span,
    dot,
    identity,
    is_zero,
    kernel_basis,
    mat,
    matvec,
    primitive,
    rank,
    vadd,
    vec,
    zeros,
)


@dataclass(frozen=True)
class AffineMap:
    """``T(x) = matrix @ x + offset`` from R^n to R^m."""

    matrix: Mat
    offset: Vec

    def __post_init__(self):
        if len(self.matrix) != len(self.offset):
            raise DimensionMismatchError("offset length differs from row count")

    @staticmethod
    def build(matrix, offset=None) -> "AffineMap":
        m = mat(matrix)
        if offset is None:
            offset = zeros(len(m))
        return AffineMap(m, vec(offset))

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

    The two forms are kept consistent by the constructors; ``basis`` has full
    rank and ``A @ basis_vector = 0`` for every basis vector.
    """

    a: Mat
    b: Vec
    point: Vec
    basis: tuple[Vec, ...]
    dim: int

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
        return AffineManifold(a, b, x0, tuple(system.kernel), n)

    @staticmethod
    def from_point_basis(point, basis) -> "AffineManifold":
        point = vec(point)
        n = len(point)
        basis = tuple(vec(v) for v in basis)
        for v in basis:
            if len(v) != n:
                raise DimensionMismatchError("basis vector dimension mismatch")
        if basis and rank(basis) < len(basis):
            raise DimensionMismatchError("basis vectors must be independent")
        # rows spanning the orthogonal complement of the direction space:
        # a . b = 0 for every basis vector b means a lies in the kernel of
        # the matrix whose rows are the basis vectors
        if basis:
            normal_rows = tuple(primitive(v) for v in kernel_basis(tuple(basis), ncols=n))
        else:
            normal_rows = identity(n)
        a = normal_rows
        b = tuple(dot(row, point) for row in a)
        return AffineManifold(a, b, point, basis, n)

    @staticmethod
    def hyperplane(normal, value) -> "AffineManifold":
        return AffineManifold.from_equations((vec(normal),), (value,))

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        return all(dot(row, x) == rhs for row, rhs in zip(self.a, self.b))

    @property
    def flat_dim(self) -> int:
        return len(self.basis)


def subspace(basis_vectors, dim=None) -> AffineManifold:
    """The linear subspace spanned by ``basis_vectors`` through the origin."""
    basis = [vec(v) for v in basis_vectors]
    basis = [v for v in basis if not is_zero(v)]
    if dim is None:
        if not basis:
            raise DimensionMismatchError("dimension required for the zero subspace")
        dim = len(basis[0])
    return AffineManifold.from_point_basis(zeros(dim), basis_of_span(basis, dim))
