"""Certified rational bounds for the few transcendental quantities we touch.

The polyhedral layers never need these; they exist so that membership in the
one built-in non-algebraic set (the epigraph of x^2 + exp(-x^2)) and
square-root comparisons for ball data can be certified with rational
arithmetic instead of floats.  The weak-duality section at the end forms
the one Lagrangian bound, :func:`lagrangian_value`, and the one bracket of a
minimum under one convex constraint, :func:`one_constraint_bracket`; its
multiplier search :func:`bracket_multiplier` is the one place floats
appear, and they only choose which exact multiplier to probe next.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, inf, isfinite, isqrt, sqrt

from .linalg import LinearSystem, dot, matvec, rat, solve
from .quadratics import is_psd

ONE = Fraction(1)
ZERO = Fraction(0)


def exp_bounds(x, terms: int = 24) -> tuple[Fraction, Fraction]:
    """Rational ``(lo, hi)`` with ``lo <= exp(x) <= hi``.

    For x >= 0, lo is the Taylor sum of x^k/k! over k <= n, with
    ``n = max(terms, 3 floor(x) + 8)``, and hi adds a geometric bound of the
    remainder: the term of index n + j is the previous one times x/(n + j),
    for j >= 2 that ratio is at most x/(n + 2), and x/(n + 2) < 1 because
    n >= 3 floor(x) + 8 > x - 2; so the remainder is at most
    ``x^n/n! * x/(n + 1) / (1 - x/(n + 2))``.  The sum runs by Horner's rule
    on integers, with x = p/q, and becomes one Fraction at the end.
    Negative arguments go through ``exp(x) = 1/exp(-x)`` so the enclosure
    stays valid.
    """
    x = rat(x)
    if x < 0:
        lo, hi = exp_bounds(-x, terms)
        return ONE / hi, ONE / lo
    p, q = x.numerator, x.denominator
    n = max(terms, int(x) * 3 + 8)
    # 1 + x/1 (1 + x/2 (... (1 + x/n))) as num/den, innermost first
    num = den = 1
    for k in range(n, 0, -1):
        den *= k * q
        num = den + p * num
    total = Fraction(num, den)
    # x^n/n! * x/(n + 1) / (1 - x/(n + 2))
    tail = Fraction(p ** (n + 1) * (n + 2), q**n * factorial(n + 1) * ((n + 2) * q - p))
    return total, total + tail


def sqrt_bounds(x, scale: int = 10**12) -> tuple[Fraction, Fraction]:
    """Rational ``(lo, hi)`` with ``lo <= sqrt(x) <= hi`` and width ~1/scale."""
    x = rat(x)
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    num = x.numerator * scale * scale
    den = x.denominator
    root = isqrt(num // den)
    lo = Fraction(root, scale)
    while lo * lo > x:
        root -= 1
        lo = Fraction(root, scale)
    hi = Fraction(root + 1, scale)
    while hi * hi < x:
        root += 1
        hi = Fraction(root + 1, scale)
    return lo, hi


def sqrt_upper(x, scale: int = 10**12) -> Fraction:
    return sqrt_bounds(x, scale)[1]


# ---------------------------------------------------------------------------
# exact arithmetic with quadratic surds a + b sqrt(m)
#
# Interval endpoints of univariate quadratic inequalities are numbers of this
# shape; comparing two of them exactly needs at most two squarings.
# ---------------------------------------------------------------------------

Surd = tuple[Fraction, Fraction, Fraction]  # (a, b, m) meaning a + b*sqrt(m)


def surd(a, b=0, m=0) -> Surd:
    a, b, m = rat(a), rat(b), rat(m)
    if m < 0:
        raise ValueError("radicand must be nonnegative")
    if b == 0 or m == 0:
        return (a, Fraction(0), Fraction(0))
    return (a, b, m)


def surd_sign(s: Surd) -> int:
    """Sign of a + b sqrt(m), exactly."""
    a, b, m = s
    if b == 0 or m == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lead = a * a - b * b * m
    inner = (lead > 0) - (lead < 0)
    return inner if a > 0 else -inner


def surd_cmp(x: Surd, y: Surd) -> int:
    """Sign of x - y for two quadratic surds (radicands may differ)."""
    a, b, m = x
    c, d, k = y
    if b == 0 or m == 0:
        return surd_sign((a - c, -d, k))
    if d == 0 or k == 0:
        return surd_sign((a - c, b, m))
    left_sign = surd_sign((a - c, b, m))
    right_sign = (d > 0) - (d < 0)
    if left_sign < 0 and right_sign >= 0:
        return -1
    if left_sign >= 0 and right_sign < 0:
        return 1
    if left_sign == 0 and right_sign == 0:
        return 0
    if left_sign == 0:
        return -right_sign
    if right_sign == 0:
        return left_sign
    # both sides share a strict sign s: compare squares, one surd remains
    p = a - c
    sq_diff = surd_sign((p * p + b * b * m - d * d * k, 2 * p * b, m))
    return sq_diff if left_sign > 0 else -sq_diff


# ---------------------------------------------------------------------------
# weak duality: the Lagrangian bound, and exact brackets by multiplier search
# ---------------------------------------------------------------------------


def lagrangian_value(q, constraints, lams):
    """Minimize ``q + sum(lam_i g_i)`` over all of R^n, when that is finite.

    Returns ``(value, x0, system)``: the minimizers form ``x0 +
    span(system.kernel)``, system being the :class:`linalg.LinearSystem` of
    the combined form, and by weak duality the value bounds q from below on
    ``{g_i <= 0}``.  None unless the combination is PSD with a consistent
    stationarity system; the value at x0 is ``b.x0 / 2 + c`` of it.
    """
    n = q.dim
    amat = [list(row) for row in q.a]
    bvec = list(q.b)
    const = q.c
    for lam, g in zip(lams, constraints):
        if not lam:
            continue
        # a zero multiplier or entry adds nothing: skip its products
        for i in range(n):
            for j, v in enumerate(g.a[i]):
                if v:
                    amat[i][j] += lam * v
            if g.b[i]:
                bvec[i] += lam * g.b[i]
        const += lam * g.c
    amat_t = tuple(tuple(row) for row in amat)
    if not is_psd(amat_t):
        return None
    system = LinearSystem(amat_t, n)
    x0 = system.solve(tuple(-v for v in bvec))
    if x0 is None:
        return None
    return dot(tuple(bvec), x0) / 2 + const, x0, system


def one_constraint_bracket(q, g, tol: Fraction, member):
    """Exact ``(lower, upper, witness)`` around the minimum of q on ``{g <= 0}``.

    g has a positive definite form, such as a disk, and takes negative
    values.  :func:`lagrangian_value` of q + mu g is the lower bound; its
    point x, moved along a stationary line (the trust-region hard case) by
    :func:`stationary_line_point`, gives the upper bound q(x) when
    ``g(x) <= 0`` and ``member(x)``.  The slack ``-g(x)``, measured from the
    level ``-min g`` that one ``solve`` gives, steers
    :func:`bracket_multiplier`; any of the three may be None.
    """

    def probe(mu):
        res = lagrangian_value(q, (g,), (mu,))
        if res is None:
            return None
        lower, x, system = res
        x = stationary_line_point(g, x, system.kernel)
        slack = -g.evaluate(x)
        if slack >= 0 and member(x):
            return slack, lower, q.evaluate(x), x
        return slack, lower, None, None

    centre = solve(g.a, tuple(-v for v in g.b))
    return bracket_multiplier(probe, tol, -g.evaluate(centre))


# at most this many probes raise mu to a feasible one, and at most this many
# refine the bracket
_EXTRAPOLATIONS = 64
_STEPS = 128


def bracket_multiplier(probe, tol: Fraction, level: Fraction):
    """Search rational multipliers mu >= 0 for an exact bracket of width <= tol.

    ``probe(mu)`` returns None when mu is too small to give a bound, and
    otherwise ``(slack, lower, upper, witness)``: a certified lower bound (by
    weak duality), the objective ``upper`` at a feasible ``witness`` (both
    None when the probe has none), and the exact constraint slack at the
    probe's point, which does not decrease as mu grows and is >= 0 once mu
    is large enough.  ``level > 0`` is the level the slack is measured from:
    ``level - slack`` is a squared norm, such as ``|s|^2`` for a ball point
    ``c + s`` of radius ``sqrt(level)``.

    mu = 0 comes first, and a slack >= 0 there ends the search.  Otherwise
    mu rises until the slack is >= 0, and then refines inside the interval
    between the last infeasible and the least feasible mu, until ``upper -
    lower <= tol``.  Both phases take secant steps through the last two
    probes on the secular function ``psi = 1/sqrt(level - slack) -
    1/sqrt(level)``, which is nearly linear in mu (More and Sorensen,
    "Computing a trust region step", 1983).  Each step aims just past the
    root, at the psi of the slack ``tol / (2 mu)``: the gap of a feasible
    probe is mu (or mu/2) times its slack, so landing there closes the
    bracket.  Without a rising secant through two finite psi (a probe
    returned None, or its point is the centre, where psi is infinite), mu
    doubles from 1 while rising and bisects while refining.
    Floats only choose mu: every mu is a short dyadic, strictly inside the
    refined interval, and every bound comes from ``probe``.  Returns the best
    ``(lower, upper, witness)`` seen; any of them may be None.
    """
    best = [None, None, None]
    radius = sqrt(level)

    def run(mu):
        # the exact slack, and psi in floats (None without a probe)
        res = probe(mu)
        if res is None:
            return None, None
        slack, lower, upper, witness = res
        if lower is not None and (best[0] is None or lower > best[0]):
            best[0] = lower
        if upper is not None and (best[1] is None or upper < best[1]):
            best[1], best[2] = upper, witness
        gap = float(level - slack)
        return slack, 1 / sqrt(gap) - 1 / radius if gap else inf

    def closed():
        return best[0] is not None and best[1] is not None and best[1] - best[0] <= tol

    def aim(prev, last, hi):
        # (target, width): where the secant through the last two probes
        # reaches the psi of the slack tol/(2 mu), and how far past its
        # root that is; None without two finite psi on a rising secant
        if prev is None or prev[1] is None or last[1] is None:
            return None
        (mu0, psi0), (mu1, psi1) = prev, last
        slope = (psi1 - psi0) / float(mu1 - mu0)
        if not 0 < slope < inf:
            return None
        shift = psi1 / slope
        if not isfinite(shift):
            return None
        root = mu1 - Fraction(shift)
        # psi at the slack tol/(2 ref) is at least that slack / (2 radius^3)
        ref = max(root, mu1) if hi is None else hi
        width = float(tol / (2 * ref)) / (2 * radius**3 * slope)
        if not 0 < width < inf:
            return None
        return root + Fraction(width), Fraction(width)

    slack, psi = run(ZERO)
    if slack is not None and slack >= 0:
        return tuple(best)
    lo, prev, last = ZERO, None, (ZERO, psi)
    for _ in range(_EXTRAPOLATIONS):
        step = aim(prev, last, None)
        if step is not None and step[0] > lo:
            target, width = step
            mu = _short_dyadic(lo, 2 * target - lo, target, width)
        else:
            mu = 2 * lo if lo else ONE
        slack, psi = run(mu)
        prev, last = last, (mu, psi)
        if closed():
            return tuple(best)
        if slack is not None and slack >= 0:
            hi = mu
            break
        lo = mu
    else:
        return tuple(best)
    for _ in range(_STEPS):
        if closed():
            break
        step = aim(prev, last, hi)
        mu = (lo + hi) / 2 if step is None else _short_dyadic(lo, hi, *step)
        slack, psi = run(mu)
        prev, last = last, (mu, psi)
        if slack is None or slack < 0:
            lo = mu
        else:
            hi = mu
    return tuple(best)


def stationary_line_point(g, x, kernel):
    """A point of the stationary set ``x + span(kernel)`` just inside
    ``{g <= 0}``, for a quadratic g with a positive definite form.  First
    the point x0 of the set where g is least, from ``(K^T A K) t =
    -K^T grad g(x)`` (A the form, K the kernel); then, along the first
    kernel vector k, the larger root of ``g(x0 + t k) = 0``, taken with the
    lower square-root bound.  x itself when the kernel is empty or the set
    misses ``{g <= 0}``.  This is the hard case of the trust-region problem,
    where the Lagrangian's minimizers form a line or a larger flat."""
    if not kernel:
        return x
    ak = [matvec(g.a, k) for k in kernel]
    gram = tuple(tuple(dot(a, k) for k in kernel) for a in ak)
    grad = g.gradient(x)
    t = solve(gram, tuple(-dot(k, grad) for k in kernel))
    x0 = tuple(xi + sum(ti * k[i] for ti, k in zip(t, kernel)) for i, xi in enumerate(x))
    alpha = gram[0][0] / 2
    value = g.evaluate(x0)
    if value > 0:
        return x
    t0 = sqrt_bounds(-4 * alpha * value)[0] / (2 * alpha)
    return tuple(xi + t0 * ki for xi, ki in zip(x0, kernel[0]))


def _short_dyadic(lo: Fraction, hi: Fraction, guess: Fraction, w: Fraction) -> Fraction:
    """A dyadic rational strictly inside ``(lo, hi)`` near guess.  With the
    margin ``m = min((hi - lo)/1024, w)``, guess is kept m inside the
    interval and rounded to the power of two just above ``1/m``, which moves
    it by less than ``m/2``: a guess already well inside moves by less than
    ``w/2``."""
    m = min((hi - lo) / 1024, w)
    guess = min(max(guess, lo + m), hi - m)
    scale = 1 << (m.denominator // m.numerator).bit_length()
    return Fraction(round(guess * scale), scale)
