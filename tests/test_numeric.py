"""Tests for the weak-duality bound :func:`numeric.lagrangian_value`, the
multiplier search :func:`numeric.bracket_multiplier` and the exponential
enclosure :func:`numeric.exp_bounds`."""

import math
import random
from fractions import Fraction

import pytest

from fwsets import numeric
from fwsets.linalg import dot, kernel_basis, matvec
from fwsets.numeric import bracket_multiplier, lagrangian_value, one_constraint_bracket
from fwsets.quadratics import Quadratic, is_psd

F = Fraction


def _combination(q, constraints, lams):
    # q + sum(lam_i g_i), term by term
    n = q.dim
    a = [[q.a[i][j] + sum(lam * g.a[i][j] for lam, g in zip(lams, constraints)) for j in range(n)]
         for i in range(n)]
    b = [q.b[i] + sum(lam * g.b[i] for lam, g in zip(lams, constraints)) for i in range(n)]
    c = q.c + sum(lam * g.c for lam, g in zip(lams, constraints))
    return Quadratic.build(a, b, c)


def _random_quadratic(rng, n, kind, const_hi):
    """A seeded quadratic whose form is PSD (a Gram matrix of n rows),
    singular (of fewer rows; half of these get a linear term in the form's
    range, so that sums of them stay consistent) or indefinite."""
    b = [rng.randint(-3, 3) for _ in range(n)]
    if kind == "indefinite":
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    else:
        rows = n if kind == "psd" else rng.randint(0, n - 1)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
        a = [[sum(r[i] * r[j] for r in m) for j in range(n)] for i in range(n)]
        if kind == "singular" and rng.random() < 0.5:
            b = matvec(a, b)
    return Quadratic.build(a, b, rng.randint(-const_hi, const_hi))


def _ball_form(c, r):
    # (|x - c|^2 - r^2)/2
    n = len(c)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    return Quadratic.build(ident, [-x for x in c], (dot(c, c) - r * r) / 2)


def _cases():
    """Seeded objectives and constraints with multipliers: PSD, singular and
    indefinite forms, and ball constraints; every fourth case is singular
    throughout, so that flats of minimizers occur; last the hard case
    ``-x1^2 + x2`` on the unit disk, at its multiplier 2 and above."""
    rng = random.Random(2021)
    kinds = ("psd", "singular", "indefinite")
    cases = []
    for idx in range(120):
        flat = idx % 4 == 3
        n = rng.randint(2, 3) if flat else rng.randint(1, 3) if idx % 3 else 2
        q = _random_quadratic(rng, n, "singular" if flat else kinds[idx % 3], 3)
        constraints = []
        for _ in range(rng.randint(1, 3)):
            if flat:
                constraints.append(_random_quadratic(rng, n, "singular", 4))
            elif rng.random() < 0.3:
                c = [F(rng.randint(-4, 4), 2) for _ in range(n)]
                constraints.append(_ball_form(c, F(rng.randint(1, 4), 2)))
            else:
                constraints.append(_random_quadratic(rng, n, rng.choice(kinds), 4))
        lams = [rng.choice((F(0), F(1, 4), F(1, 2), F(1), F(2))) for _ in constraints]
        cases.append((q, constraints, lams))
    disk = _ball_form((F(0), F(0)), F(1))
    cases.append((Quadratic.build([[-2, 0], [0, 0]], [0, 1]), [disk], [F(2)]))
    cases.append((Quadratic.build([[-2, 0], [0, 0]], [0, 1]), [disk], [F(3)]))
    return cases


def test_lagrangian_value_is_the_minimum_of_the_combination():
    outcomes = {"not psd": 0, "inconsistent": 0, "unique": 0, "flat": 0}
    for q, constraints, lams in _cases():
        comb = _combination(q, constraints, lams)
        res = lagrangian_value(q, constraints, lams)
        kernel = kernel_basis(comb.a, ncols=comb.dim)
        if not is_psd(comb.a):
            assert res is None
            outcomes["not psd"] += 1
            continue
        # A x = -b is consistent iff b is orthogonal to the kernel of the
        # symmetric A
        if any(dot(comb.b, k) for k in kernel):
            assert res is None
            outcomes["inconsistent"] += 1
            continue
        assert res is not None
        value, x0, system = res
        assert all(v == 0 for v in comb.gradient(x0))
        assert all(all(v == 0 for v in matvec(comb.a, k)) for k in system.kernel)
        assert len(system.kernel) == len(kernel)
        assert value == comb.evaluate(x0)
        outcomes["flat" if kernel else "unique"] += 1
    assert all(outcomes.values()), outcomes


def test_lagrangian_value_of_the_disk_hard_case():
    # -x1^2 + x2 + 2 (|x|^2 - 1)/2: the minimizers form the line x2 = -1/2,
    # with value -5/4
    q = Quadratic.build([[-2, 0], [0, 0]], [0, 1])
    value, x0, system = lagrangian_value(q, (_ball_form((F(0), F(0)), F(1)),), (F(2),))
    assert value == F(-5, 4)
    assert x0[1] == F(-1, 2)
    assert len(system.kernel) == 1 and system.kernel[0][1] == 0


# ---------------------------------------------------------------------------
# the multiplier search
# ---------------------------------------------------------------------------

TOL = F(1, 10**9)


def test_bracket_multiplier_steps_past_a_probe_at_the_centre():
    # a synthetic probe whose point |s| = 3 (1 - mu) reaches the centre at
    # mu = 1 and stays there: psi is infinite there, so the refinement
    # bisects instead of taking a secant through it; the gap of a feasible
    # probe is mu times its slack, as for a ball, around the minimum 0
    seen = []

    def probe(mu):
        s = 3 * max(1 - mu, F(0))
        slack = 1 - s * s
        seen.append(slack)
        if slack < 0:
            return slack, mu * slack, None, None
        return slack, -mu * slack / 2, mu * slack / 2, (mu,)

    lower, upper, witness = bracket_multiplier(probe, TOL, F(1))
    assert F(1) in seen
    assert lower <= 0 <= upper and upper - lower <= TOL
    assert witness[0] > F(2, 3) - TOL


def test_bracket_multiplier_on_a_nonconvex_disk_probes_none_below_the_least_eigenvalue(monkeypatch):
    # -3/2 x1^2 + x1/3 + x2^2/2 on the unit disk: q + mu g is PSD only for
    # mu >= 3, and inconsistent at 3, so every probe up to 3 is None; the
    # minimum -11/6 is taken at (-1, 0), with multiplier 10/3
    q = Quadratic.build([[-3, 0], [0, 1]], [F(1, 3), 0])
    g = _ball_form((F(0), F(0)), F(1))
    probed = []

    def recording(q_, constraints, lams):
        res = lagrangian_value(q_, constraints, lams)
        probed.append((lams[0], res is None))
        return res

    monkeypatch.setattr(numeric, "lagrangian_value", recording)
    lower, upper, witness = one_constraint_bracket(q, g, TOL, lambda x: True)
    assert any(none for _, none in probed)
    assert all(none == (mu <= 3) for mu, none in probed)
    assert lower <= F(-11, 6) <= upper and upper - lower <= TOL
    assert upper == q.evaluate(witness) and g.evaluate(witness) <= 0


@pytest.mark.parametrize("q, n, minimum", [
    (Quadratic.build([[-2, 0], [0, 0]], [0, 1]), 2, F(-5, 4)),
    (Quadratic.build([[0, 2, 2], [2, 0, 2], [2, 2, 0]], [3, 3, 3]), 3, F(-13, 4)),
])
def test_one_constraint_bracket_closes_the_hard_cases(q, n, minimum):
    # the two trust-region hard cases of the ball tests: the multiplier 2
    # makes q + mu g singular, and the search must land on it exactly
    g = _ball_form(tuple(F(0) for _ in range(n)), F(1))
    lower, upper, witness = one_constraint_bracket(q, g, TOL, lambda x: True)
    assert lower <= minimum <= upper and upper - lower <= TOL
    assert upper == q.evaluate(witness) and g.evaluate(witness) <= 0


# ---------------------------------------------------------------------------
# the exponential enclosure
# ---------------------------------------------------------------------------


def _reference_exp_bounds(x, terms):
    # the Fraction Taylor loop that the integer Horner sum replaced
    if x < 0:
        lo, hi = _reference_exp_bounds(-x, terms)
        return 1 / hi, 1 / lo
    n = max(terms, int(x) * 3 + 8)
    term = total = F(1)
    for k in range(1, n + 1):
        term *= x / k
        total += term
    tail = term * (x / (n + 1)) / (1 - x / (n + 2))
    return total, total + tail


def test_exp_bounds_match_the_fraction_taylor_loop():
    rng = random.Random(20261019)
    xs = [F(0), F(-49), F(49)]
    for _ in range(40):
        den = rng.randint(1, 9)
        xs.append(F(rng.randint(-49 * den, 49 * den), den))
    assert any(x < 0 for x in xs) and any(x > 0 for x in xs)
    for x in xs:
        for terms in (16, 24, 32, 40, 120):
            lo, hi = numeric.exp_bounds(x, terms)
            assert (lo, hi) == _reference_exp_bounds(x, terms), (x, terms)
            # the enclosure is exact only at 0
            assert lo < hi if x else lo == hi == 1
            # it may be narrower than the float's rounding error
            e = math.exp(float(x))
            if e != 0 and math.isfinite(e):
                assert lo <= e * (1 + 1e-12) and hi >= e * (1 - 1e-12), (x, terms)
