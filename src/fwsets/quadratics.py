"""Quadratic functions over exact rationals.

A quadratic is ``q(x) = 1/2 x^T A x + b^T x + c`` with symmetric A.  Besides
evaluation, the module decides global convexity (A positive semidefinite, by
symmetric rational elimination), finds the directions along which q is
constant, and pulls q back through affine maps and onto affine manifolds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .affine import AffineManifold, AffineMap
from .errors import DimensionMismatchError
from .linalg import (
    Mat,
    Vec,
    hash_once,
    idot,
    mat,
    matmul,
    matvec,
    kernel_basis,
    rat,
    set_fields,
    transpose,
    vadd,
    vec,
    zeros,
)


@dataclass(frozen=True)
class Quadratic:
    a: Mat
    b: Vec
    c: Fraction

    __hash__ = hash_once

    def __post_init__(self):
        set_fields(self, a=mat(self.a), b=vec(self.b), c=rat(self.c))
        n = len(self.b)
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise DimensionMismatchError("A must be n x n for an n-vector b")
        for i in range(n):
            for j in range(i + 1, n):
                if self.a[i][j] != self.a[j][i]:
                    raise DimensionMismatchError("A must be exactly symmetric")

    @staticmethod
    def build(a, b=None, c=0) -> "Quadratic":
        """The quadratic of A symmetrized as (A + A^T)/2, so any square A
        gives the same form; ``b`` defaults to zeros.  A that is not square
        raises DimensionMismatchError."""
        a = mat(a)
        n = len(a)
        if a and len(a[0]) != n:
            raise DimensionMismatchError(f"A must be square, not {n} x {len(a[0])}")
        sym = tuple(
            tuple((a[i][j] + a[j][i]) / 2 for j in range(n)) for i in range(n)
        )
        return Quadratic(sym, zeros(n) if b is None else b, c)

    @property
    def dim(self) -> int:
        return len(self.b)

    @cached_property
    def ints(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int, int]:
        """``(A, b, c, d)`` on ints with ``q = (A, b, c) / d``, d the lcm of
        q's denominators."""
        d = lcm(
            *(x.denominator for row in self.a for x in row),
            *(x.denominator for x in self.b),
            self.c.denominator,
        )
        return (
            tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in self.a),
            tuple(x.numerator * (d // x.denominator) for x in self.b),
            self.c.numerator * (d // self.c.denominator),
            d,
        )

    def evaluate(self, x: Vec) -> Fraction:
        """q(x), on ints: with x = X / s over the lcm s of x's denominators,
        ``q(x) = (X.A X + 2 s b.X + 2 s^2 c) / (2 s^2 d)`` for the ints of
        :attr:`ints`, one Fraction."""
        if len(x) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        a, b, c, d = self.ints
        s = lcm(*(xi.denominator for xi in x))
        xs = [xi.numerator * (s // xi.denominator) for xi in x]
        quad = idot(xs, [idot(row, xs) for row in a])
        return Fraction(quad + 2 * s * (idot(b, xs) + s * c), 2 * s * s * d)

    def gradient(self, x: Vec) -> Vec:
        return vadd(matvec(self.a, x), self.b)


def is_psd(a) -> bool:
    """Exact positive-semidefiniteness by symmetric elimination on ints.

    The matrix (Fractions or Python ints) is scaled to integers by the lcm
    of its denominators.  Pivots are strictly positive diagonal entries,
    and each pivot pv updates the remaining block fraction-free,
    ``s_kl <- (pv s_kl - s_kp s_pl) / prev`` with prev the previous pivot
    (1 at first); Bareiss's division is exact, and the update is the Schur
    complement times ``pv / prev > 0``, so it keeps symmetry and signs.  A
    negative diagonal entry refutes, and a trailing block with zero
    diagonal must vanish entirely.
    """
    scale = lcm(*(x.denominator for row in a for x in row))
    return int_is_psd([[x.numerator * (scale // x.denominator) for x in row] for row in a])


def int_is_psd(s: list[list[int]]) -> bool:
    """:func:`is_psd` of a symmetric matrix of ints, eliminated in place."""
    active = list(range(len(s)))
    prev = 1
    while active:
        if any(s[k][k] < 0 for k in active):
            return False
        pivot = next((k for k in active if s[k][k] > 0), None)
        if pivot is None:
            return all(s[k][l] == 0 for k in active for l in active)
        active.remove(pivot)
        pv, prow = s[pivot][pivot], s[pivot]
        for k in active:
            row, f = s[k], s[k][pivot]
            for l in active:
                row[l] = (pv * row[l] - f * prow[l]) // prev
        prev = pv
    return True


def int_is_pd(s: list[list[int]]) -> bool:
    """Positive definiteness of a symmetric matrix of ints, eliminated in
    place: the pivots of fraction-free elimination taken down the diagonal
    in order are the leading principal minors, and the matrix is positive
    definite iff every one is positive (Sylvester)."""
    prev = 1
    for p, prow in enumerate(s):
        pv = prow[p]
        if pv <= 0:
            return False
        for row in s[p + 1 :]:
            f = row[p]
            for l in range(p + 1, len(s)):
                row[l] = (pv * row[l] - f * prow[l]) // prev
        prev = pv
    return True


def is_convex(q: Quadratic) -> bool:
    """True iff q is convex on all of R^n, i.e. A is positive semidefinite."""
    return is_psd(q.a)


def invariant_directions(q: Quadratic) -> list[Vec]:
    """Basis of ``{d : A d = 0 and b . d = 0}``.

    Along every returned direction, q(x + t d) = q(x) identically in x, t.
    """
    rows = q.a + (q.b,)
    return kernel_basis(rows, ncols=q.dim)


def compose_affine(q: Quadratic, t: AffineMap) -> Quadratic:
    """The pullback ``q o T`` as a quadratic on the source space."""
    if t.target_dim != q.dim:
        raise DimensionMismatchError("map target dimension differs from q's")
    m = t.matrix
    mt = transpose(m)
    a2 = matmul(mt, matmul(q.a, m))
    b2 = matvec(mt, vadd(matvec(q.a, t.offset), q.b))
    c2 = q.evaluate(t.offset)
    return Quadratic(a2, b2, c2)


def restrict_to_affine(q: Quadratic, m: AffineManifold) -> Quadratic:
    """q restricted to the manifold, in its ``point + basis u`` coordinates."""
    if m.dim != q.dim:
        raise DimensionMismatchError("manifold dimension differs from q's")
    basis = m.basis
    t = AffineMap(tuple(zip(*basis)) if basis else tuple(() for _ in range(q.dim)), m.point)
    return compose_affine(q, t)

