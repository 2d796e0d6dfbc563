"""Affine maps and affine manifolds (flats)."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    is_zero,
    kernel_basis,
    mat,
    matvec,
    primitive,
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
    """The flat ``point + span(basis)``, with its equations ``{x : a x = b}``.

    ``basis`` must be independent.  The equations are derived, never given:
    a's rows are the primitive kernel basis of the direction space, one per
    codimension (one zero row for the whole space, so that the equations
    still give the dimension ``dim``), and ``b = a @ point``.  Every
    spelling of one flat so gives the same rows, and a flat compares and
    hashes by them alone.
    """

    point: Vec = field(compare=False)
    basis: tuple[Vec, ...] = field(compare=False)
    a: Mat = field(init=False)
    b: Vec = field(init=False)
    dim: int = field(init=False)

    __hash__ = hash_once

    def __post_init__(self):
        point, basis = vec(self.point), mat(self.basis)
        n = len(point)
        if basis and len(basis[0]) != n:
            raise DimensionMismatchError("basis vector dimension mismatch")
        # a . v = 0 for every basis vector v: the rows span the kernel of
        # the matrix whose rows are the basis vectors
        kernel = kernel_basis(basis, ncols=n)
        if len(kernel) != n - len(basis):
            raise DimensionMismatchError("basis vectors must be independent")
        a = tuple(map(primitive, kernel)) or (zeros(n),)
        set_fields(self, point=point, basis=basis, a=a, b=tuple(dot(row, point) for row in a), dim=n)

    @staticmethod
    def from_equations(a, b) -> "AffineManifold":
        a = mat(a)
        b = vec(b)
        if not a:
            raise DimensionMismatchError("need at least one equation row")
        system = LinearSystem(a, len(a[0]))
        x0 = system.solve(b)
        if x0 is None:
            raise EmptySetError("the equation system has no solution")
        return AffineManifold(x0, tuple(system.kernel))

    @staticmethod
    def hyperplane(normal, value) -> "AffineManifold":
        """``{x : normal . x = value}``: the point is ``value / normal_j`` at
        the first nonzero column j, and the basis is
        ``e_k - (normal_k / normal_j) e_j`` for k != j; the point and basis
        :meth:`from_equations` gives.  A zero normal takes that path."""
        normal, value = vec(normal), rat(value)
        j = next((i for i, x in enumerate(normal) if x), None)
        if j is None:
            return AffineManifold.from_equations((normal,), (value,))
        n = len(normal)
        point = tuple(value / normal[j] if i == j else ZERO for i in range(n))
        basis = tuple(
            tuple(ONE if i == k else -normal[k] / normal[j] if i == j else ZERO for i in range(n))
            for k in range(n)
            if k != j
        )
        return AffineManifold(point, basis)

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
    return AffineManifold(zeros(dim), basis_of_span(vectors, dim))
