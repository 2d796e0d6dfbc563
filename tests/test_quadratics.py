"""Tests for quadratic functions: evaluation, convexity, invariances."""

import random
from fractions import Fraction

from fwsets.affine import AffineManifold, AffineMap
from fwsets.quadratics import (
    Quadratic,
    compose_affine,
    int_is_pd,
    invariant_directions,
    is_convex,
    is_psd,
    restrict_to_affine,
)
from fwsets.linalg import vec, zeros

F = Fraction


def test_eval_norm_squared():
    q = Quadratic.build([[2, 0], [0, 2]])  # |x|^2
    assert q.evaluate(vec((3, 4))) == 25


def test_eval_luo_zhang_objective():
    # x1^2 - 2 x1 x2 + x3 x4 + 1 at the all-ones point, by hand: 1 - 2 + 1 + 1 = 1
    a = [
        [2, -2, 0, 0],
        [-2, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    q = Quadratic.build(a, zeros(4), 1)
    assert q.evaluate(vec((1, 1, 1, 1))) == 1


def test_eval_at_origin_is_constant():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-3, 3) for _ in range(n)]
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        q = Quadratic.build(a, b, c)
        assert q.evaluate(zeros(n)) == c


def test_eval_on_ints_matches_fraction_arithmetic():
    # rational forms at rational and integer points: one Fraction from the
    # ints over one scale equals the term-by-term Fraction sum
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(1, 4)
        frac = lambda: F(rng.randint(-6, 6), rng.randint(1, 5))
        q = Quadratic.build([[frac() for _ in range(n)] for _ in range(n)], [frac() for _ in range(n)], frac())
        x = tuple(frac() for _ in range(n)) if rng.random() < 0.7 else tuple(rng.randint(-3, 3) for _ in range(n))
        ref = sum(xi * q.a[i][j] * xj for i, xi in enumerate(x) for j, xj in enumerate(x)) / 2
        ref += sum(bi * xi for bi, xi in zip(q.b, x)) + q.c
        assert q.evaluate(x) == ref


def test_build_symmetrizes():
    q = Quadratic.build([[0, 2], [0, 0]])
    assert q.a == ((0, 1), (1, 0))


def test_is_convex_identity_and_saddle():
    assert is_convex(Quadratic.build([[1, 0], [0, 1]]))
    assert not is_convex(Quadratic.build([[1, 0], [0, -1]]))


def test_is_convex_luo_zhang_block():
    # the x1^2 - 2 x1 x2 block [[2,-2],[-2,0]] has a negative pivot direction
    assert not is_psd(((F(2), F(-2)), (F(-2), F(0))))


def test_is_psd_semidefinite_cases():
    assert is_psd(((F(0), F(0)), (F(0), F(0))))
    assert is_psd(((F(1), F(1)), (F(1), F(1))))
    assert not is_psd(((F(0), F(1)), (F(1), F(0))))
    assert is_psd(((F(2), F(-2)), (F(-2), F(2))))


def test_is_psd_on_python_ints():
    # an int matrix is decided on ints: Schur complements in floats would
    # misjudge these two, a rank-1 form v v^T and a definite form whose
    # complement is 1 against entries near 10^18
    v = (3, 10**9 + 7)
    assert is_psd([[x * y for y in v] for x in v])
    assert not is_psd([[9, 3 * v[1]], [3 * v[1], v[1] ** 2 - 1]])
    k = 10**9
    assert is_psd([[k * k, k * (k + 1)], [k * (k + 1), (k + 1) ** 2 + 1]])
    assert not is_psd([[k * k, k * (k + 1)], [k * (k + 1), (k + 1) ** 2 - 1]])
    assert is_psd([]) and is_psd([[0]]) and not is_psd([[-1]])
    assert not is_psd([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def _reference_is_psd(a):
    """Symmetric elimination on Fractions: pivot on positive diagonal
    entries; a negative diagonal entry refutes, and a trailing block with
    zero diagonal must vanish."""
    s = [list(row) for row in a]
    active = list(range(len(s)))
    while active:
        pivot = next((k for k in active if s[k][k] > 0), None)
        if pivot is None:
            return all(s[k][k] >= 0 for k in active) and all(
                s[k][l] == 0 for k in active for l in active
            )
        active.remove(pivot)
        for k in active:
            f = s[k][pivot] / s[pivot][pivot]
            for l in active:
                s[k][l] -= f * s[pivot][l]
    return True


def test_is_psd_matches_fraction_elimination():
    # Gram forms of every rank (singular ones included), zero-diagonal and
    # indefinite forms, with rational entries, against Fraction elimination
    rng = random.Random(20261020)
    answers = {True: 0, False: 0}
    singular = zero_diagonal = 0
    for trial in range(3000):
        n = rng.randint(1, 6)
        kind = trial % 3
        if kind == 0:
            w = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3, 7))) for _ in range(n)]
                 for _ in range(rng.randint(1, n))]
            a = [[sum((r[i] * r[j] for r in w), F(0)) for j in range(n)] for i in range(n)]
        else:
            a = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = F(rng.randint(-2, 3), rng.choice((1, 2)))
            if kind == 2:
                for i in range(n):
                    a[i][i] = F(rng.choice((0, 0, 1)))
        a = tuple(map(tuple, a))
        ref = _reference_is_psd(a)
        assert is_psd(a) == ref, a
        answers[ref] += 1
        singular += ref and kind == 0 and len(w) < n
        zero_diagonal += any(a[i][i] == 0 for i in range(n)) and kind == 2
    assert min(answers.values()) >= 1000 and singular >= 300 and zero_diagonal >= 500


def _leading_minors(a):
    """The determinants of the leading k x k blocks of a, k = 1..n, by
    Gaussian elimination on Fractions with row exchanges."""
    minors = []
    for k in range(1, len(a) + 1):
        s = [[F(x) for x in row[:k]] for row in a[:k]]
        det = F(1)
        for c in range(k):
            r = next((r for r in range(c, k) if s[r][c]), None)
            if r is None:
                det = F(0)
                break
            if r != c:
                s[c], s[r] = s[r], s[c]
                det = -det
            det *= s[c][c]
            for r in range(c + 1, k):
                f = s[r][c] / s[c][c]
                s[r] = [x - f * y for x, y in zip(s[r], s[c])]
        minors.append(det)
    return minors


def test_int_is_pd_matches_leading_minors():
    # Gram forms of every rank, with and without a multiple of I added, and
    # indefinite forms: positive definite iff every leading minor is
    # positive (Sylvester), and then positive semidefinite too
    rng = random.Random(20261021)
    answers = {True: 0, False: 0}
    for trial in range(2000):
        n = rng.randint(1, 6)
        if trial % 2:
            w = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
            shift = rng.choice((0, 0, 1))
            a = [[sum(r[i] * r[j] for r in w) + shift * (i == j) for j in range(n)] for i in range(n)]
        else:
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-2, 3)
        ref = all(m > 0 for m in _leading_minors(a))
        assert int_is_pd([row[:] for row in a]) == ref, a
        assert not ref or is_psd(a), a
        answers[ref] += 1
    assert min(answers.values()) >= 500, answers


def test_psd_matches_midpoint_convexity():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 4)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(raw, [rng.randint(-2, 2) for _ in range(n)], 0)
        convex = is_convex(q)
        violated = False
        for _ in range(100):
            x = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            y = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            mid = tuple((a + b) / 2 for a, b in zip(x, y))
            if q.evaluate(mid) > (q.evaluate(x) + q.evaluate(y)) / 2:
                violated = True
                break
        if convex:
            assert not violated
        # non-convex quadratics may still pass a finite sample, so no converse


def test_invariant_directions_examples():
    # q(x) = x1^2 in R^2: constant along (0, 1)
    q = Quadratic.build([[2, 0], [0, 0]])
    dirs = invariant_directions(q)
    assert len(dirs) == 1 and dirs[0] == (0, 1)

    # q(x) = x1^2 + x2: no invariant directions
    q2 = Quadratic.build([[2, 0], [0, 0]], [0, 1])
    assert invariant_directions(q2) == []

    # q(x, y) = y - x^2: kernel of A is spanned by (0,1) but b.(0,1) != 0
    q3 = Quadratic.build([[-2, 0], [0, 0]], [0, 1])
    assert invariant_directions(q3) == []


def test_invariant_directions_leave_value_unchanged():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 4)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        # force a kernel by zeroing the last row and column
        for i in range(n):
            raw[i][n - 1] = 0
            raw[n - 1][i] = 0
        b = [rng.randint(-2, 2) for _ in range(n - 1)] + [0]
        q = Quadratic.build(raw, b, 3)
        for d in invariant_directions(q):
            for _ in range(100):
                x = tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(n))
                t = F(rng.randint(-9, 9), rng.randint(1, 3))
                moved = tuple(xi + t * di for xi, di in zip(x, d))
                assert q.evaluate(moved) == q.evaluate(x)


def test_compose_with_identity_is_identity():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 4)
        raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(raw, [rng.randint(-3, 3) for _ in range(n)], F(1, 2))
        assert compose_affine(q, AffineMap.identity(n)) == q


def test_compose_shift_in_one_dim():
    # q(y) = y^2 with T(x) = x + 1 gives x^2 + 2x + 1
    q = Quadratic.build([[2]])
    t = AffineMap([[1]], [1])
    comp = compose_affine(q, t)
    assert comp.a == ((2,),) and comp.b == (2,) and comp.c == 1
    assert comp.evaluate((F(3),)) == 16


def test_restrict_norm_to_axis():
    q = Quadratic.build([[2, 0], [0, 2]])  # |x|^2
    line = AffineManifold((0, 0), [(1, 0)])
    r = restrict_to_affine(q, line)
    assert r.dim == 1
    assert r.evaluate((F(3),)) == 9


def test_restrict_bilinear_to_diagonal():
    # x1 x2 restricted to the diagonal parameterized by u (1, 1) is u^2
    q = Quadratic.build([[0, 1], [1, 0]])
    diag = AffineManifold((0, 0), [(1, 1)])
    r = restrict_to_affine(q, diag)
    assert r.evaluate((F(5),)) == 25
    assert r.evaluate((F(-2),)) == 4
