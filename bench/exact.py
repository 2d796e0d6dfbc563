"""Exact arithmetic the output checks use, written apart from the library.

The checks in :mod:`workloads` test verdicts against these helpers rather
than against the library's own evaluation, membership and elimination code,
so a fault in a library kernel cannot vouch for itself.  Everything is
``fractions.Fraction`` or ``int``; nothing here imports ``fwsets``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

ZERO = Fraction(0)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def matvec(m, x) -> tuple:
    return tuple(dot(row, x) for row in m)


def q_value(a, b, c, x) -> Fraction:
    """``x.A x / 2 + b.x + c``."""
    return dot(x, matvec(a, x)) / 2 + dot(b, x) + c


def q_gradient(a, b, x) -> tuple:
    return tuple(g + bi for g, bi in zip(matvec(a, x), b))


def curvature(a, d) -> Fraction:
    return dot(d, matvec(a, d))


def satisfies(rows, rhs, x) -> bool:
    """``rows . x <= rhs`` row by row."""
    return all(dot(r, x) <= beta for r, beta in zip(rows, rhs))


def is_descent_ray(a, b, base, d) -> bool:
    """q decreases without bound along ``base + t d``: negative curvature,
    or zero curvature with a negative slope at the base."""
    if not any(d):
        return False
    curv = curvature(a, d)
    return curv < 0 or (curv == 0 and dot(q_gradient(a, b, base), d) < 0)


def _solve_independent(cols, target):
    """The unique ``lam`` with ``sum lam_j cols_j = target``, or None when
    the columns are dependent or the system is inconsistent."""
    n = len(target)
    k = len(cols)
    rows = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] != 0 for i in range(r, n)):
        return None
    return [rows[i][k] for i in range(k)]


def in_cone(generators, x) -> bool:
    """Membership in ``cone(generators)``, by Caratheodory's theorem: x is
    in the cone iff it is a nonnegative combination of some linearly
    independent subset of the generators."""
    if not any(x):
        return True
    gens = [tuple(Fraction(v) for v in g) for g in generators]
    for size in range(1, min(len(gens), len(x)) + 1):
        for subset in combinations(gens, size):
            lam = _solve_independent(subset, x)
            if lam is not None and all(v >= 0 for v in lam):
                return True
    return False


def _lcm_den(values) -> int:
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    return den


def beats_samples(rng, a, b, c, value, vertices, rays, count) -> bool:
    """Does ``value`` lie at or below q on ``count`` random exact points of
    ``conv(vertices) + cone(rays)``?

    The sampler is the integer one of the package's desk-scale acceptance
    criterion: vertex weights in 0..4, ray multipliers in 0..12, and the
    comparison cleared of denominators so it runs on Python ints.
    """
    n = len(b)
    den = _lcm_den([v for row in a for v in row] + list(b) + [c])
    a_i = [[int(v * den) for v in row] for row in a]
    b_i = [int(v * den) for v in b]
    c_i = int(c * den)
    vden = _lcm_den([x for v in vertices for x in v])
    verts = [[int(x * vden) for x in v] for v in vertices]
    rden = [_lcm_den(r) for r in rays]
    rays_i = [[int(x * d) for x in r] for r, d in zip(rays, rden)]
    for _ in range(count):
        weights = [rng.randint(0, 4) for _ in verts]
        if not any(weights):
            weights[0] = 1
        wsum = sum(weights)
        # the sample is p / (wsum * vden); rays keep their own direction
        p = [sum(w * v[i] for w, v in zip(weights, verts)) for i in range(n)]
        for r in rays_i:
            t = rng.randint(0, 12)
            for i in range(n):
                p[i] += t * wsum * vden * r[i]
        s = wsum * vden
        quad = sum(a_i[i][j] * p[i] * p[j] for i in range(n) for j in range(n))
        lin = sum(b_i[i] * p[i] for i in range(n))
        # q(p/s) * den * 2 s^2 = quad + 2 s lin + 2 s^2 c_i
        lhs = (quad + 2 * s * lin + 2 * s * s * c_i) * value.denominator
        rhs = 2 * s * s * value.numerator * den
        if lhs < rhs:
            return False
    return True
