"""Certified rational bounds for the few transcendental quantities we touch.

The polyhedral layers never need these; they exist so that membership in the
one built-in non-algebraic set (the epigraph of x^2 + exp(-x^2)) and
square-root comparisons for ball data can be certified with rational
arithmetic instead of floats.  The exponential has one integer kernel,
:func:`exp_series`: for exp(p/q) with p >= 0 it returns the Horner
numerator and denominator of the Taylor sum and those of the geometric
bound on its remainder, so callers decide by cross-multiplying ints;
:func:`exp_bounds` reads it as one Fraction per bound.

The weak-duality section at the end forms the one Lagrangian bound,
:func:`lagrangian_value`, and the one bracket of a minimum under one
convex constraint, :func:`one_constraint_bracket`; its multiplier search
:func:`bracket_multiplier` is the one place floats appear, and they, with
the exact slack models that probes may return, only choose which exact
multiplier to probe next.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, isqrt, lcm, sqrt

from .linalg import ONE, ZERO, LinearSystem, dot, idot, matvec, rat, solve
from .quadratics import int_is_psd


def exp_series(p: int, q: int, terms: int) -> tuple[int, int, int, int]:
    """The enclosure of exp(x), x = p/q >= 0 with q > 0, on ints.

    Returns ``(num, den, tail, tail_den)``: num/den is the Taylor sum of
    x^k/k! over k <= n, with ``n = max(terms, 3 floor(x) + 8)``, and
    tail/tail_den bounds its remainder, so ``num/den <= exp(x) <= num/den +
    tail/tail_den``.  The term of index n + j is the previous one times
    x/(n + j), for j >= 2 that ratio is at most x/(n + 2), and x/(n + 2) < 1
    because n >= 3 floor(x) + 8 > x - 2; so the remainder is at most
    ``x^n/n! * x/(n + 1) / (1 - x/(n + 2))``.  The sum runs by Horner's rule,
    which leaves ``den = n! q^n``, and ``tail_den`` is den times ``(n + 1)
    ((n + 2) q - p)``.  Callers decide by cross-multiplying with these ints.
    """
    n = max(terms, p // q * 3 + 8)
    # 1 + x/1 (1 + x/2 (... (1 + x/n))) as num/den, innermost first
    num = den = 1
    for k in range(n, 0, -1):
        den *= k * q
        num = den + p * num
    return num, den, p ** (n + 1) * (n + 2), den * (n + 1) * ((n + 2) * q - p)


def exp_bounds(x, terms: int = 24) -> tuple[Fraction, Fraction]:
    """Rational ``(lo, hi)`` with ``lo <= exp(x) <= hi``, read off
    :func:`exp_series` of |x|: for x >= 0 the Taylor sum and the sum plus
    its tail bound.  Negative arguments go through ``exp(x) = 1/exp(-x)``
    so the enclosure stays valid.
    """
    x = rat(x)
    num, den, tail, tail_den = exp_series(abs(x.numerator), x.denominator, terms)
    upper = num * (tail_den // den) + tail  # the sum plus its tail, over tail_den
    if x < 0:
        return Fraction(tail_den, upper), Fraction(den, num)
    return Fraction(num, den), Fraction(upper, tail_den)


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
    stationarity system; the value at x0 is ``b.x0 / 2 + c`` of it.  The
    combination runs on ints: each term ``lam g`` is ``p (A, b, c) / (r d)``
    for ``lam = p / r`` and the ints of :attr:`Quadratic.ints`, all over
    the lcm L of those denominators, and x0 and the value are built as
    Fractions once, at the end.
    """
    n = q.dim
    terms = [(ONE, q)] + [(lam, g) for lam, g in zip(lams, constraints) if lam]
    scale = lcm(*(lam.denominator * g.ints[3] for lam, g in terms))
    amat = [[0] * n for _ in range(n)]
    bvec = [0] * n
    const = 0
    for lam, g in terms:
        ga, gb, gc, gd = g.ints
        f = lam.numerator * (scale // (lam.denominator * gd))
        # a zero entry adds nothing: skip its products
        for i in range(n):
            row = amat[i]
            for j, v in enumerate(ga[i]):
                if v:
                    row[j] += f * v
            if gb[i]:
                bvec[i] += f * gb[i]
        const += f * gc
    if not int_is_psd([row[:] for row in amat]):
        return None
    system = LinearSystem(amat, n, scale)
    # (amat / L) y = -bvec gives y = L x0
    sol = system.solve_ints([-v for v in bvec])
    if sol is None:
        return None
    y, d = sol
    x0 = tuple(Fraction(v, d * scale) if v else ZERO for v in y)
    return Fraction(idot(bvec, y) + 2 * d * scale * const, 2 * d * scale * scale), x0, system


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


# at most this many steps raise mu to a feasible one, and at most this many
# refine the bracket
_EXTRAPOLATIONS = 64
_STEPS = 128


def bracket_multiplier(probe, tol: Fraction, level: Fraction):
    """Search rational multipliers mu >= 0 for an exact bracket of width <= tol.

    ``probe(mu)`` returns None when mu is too small to give a bound, and
    otherwise ``(slack, lower, upper, witness)``, optionally followed by a
    ``model``: a certified lower bound (by weak duality), the objective
    ``upper`` at a feasible ``witness`` (both None when the probe has none),
    and the exact constraint slack at the probe's point, which does not
    decrease as mu grows and is >= 0 once mu is large enough.  ``model(mu)``
    is a cheaper exact slack for mu > 0, equal to the probe's wherever the
    probe's point stays on the piece (such as a face) it had, or None.
    ``level > 0`` is the level the slack is measured from: ``level - slack``
    is a squared norm, such as ``|s|^2`` for a ball point ``c + s`` of radius
    ``sqrt(level)``.

    mu = 0 comes first, and a slack >= 0 there ends the search.  Otherwise
    one loop raises mu until the slack is >= 0, and then refines inside the
    interval (lo, hi) between the greatest infeasible and the least feasible
    mu, until ``upper - lower <= tol``.  It takes secant steps through its
    last two points on the secular function ``psi = 1/sqrt(level - slack) -
    1/sqrt(level)``, which is nearly linear in mu (More and Sorensen,
    "Computing a trust region step", 1983).  Each step aims just past the
    root, at the psi of the slack ``tol / (2 mu)``, inside the closing window
    ``0 <= slack <= tol / mu``: the gap of a feasible probe is mu (or mu/2)
    times its slack, so a probe in the window closes the bracket.  Without a
    rising secant through two finite psi (a probe returned None, or its
    point is the centre, where psi is infinite), mu doubles from 1 while
    rising and bisects while refining.

    The steps read the last probe's model while it has one, and probe only
    where the model's slack lies in the window (or the model has none), at
    the dyadic with the fewest bits that the model puts in the window
    (:func:`_fewest_bits`).  That probe closes the bracket when its piece did
    not change; otherwise its own model takes over, and (lo, hi) restart
    from the probes' own interval.  A probe without a model is its own, and
    then every step probes.  Floats and models only choose mu: every mu is a
    dyadic strictly inside the refined interval, and every bound comes from
    ``probe``.  A rational past the float range reads as an infinite float
    (:func:`_float`), and a radius whose cube leaves the float range takes
    no secant steps; either can only change the mu probed next.  Returns
    the best ``(lower, upper, witness)`` seen; any of them may be None.
    """
    best = [None, None, None]
    radius = sqrt(_float(level))
    try:
        cube = radius**3
    except OverflowError:
        cube = inf
    # a radius whose cube leaves the float range, above or below, aims no
    # secant step: the widths would read 0 or divide by 0
    secant = 0 < cube < inf
    model = None  # the last probe's model, None when it has none
    probed = [ZERO, None]  # (lo, hi) read from probes alone

    def run(mu):
        # the probe's exact slack (None without one); keeps its model
        nonlocal model
        res = probe(mu)
        if res is None:
            model = None
            return None
        slack, lower, upper, witness, *rest = res
        model = rest[0] if rest else None
        if lower is not None and (best[0] is None or lower > best[0]):
            best[0] = lower
        if upper is not None and (best[1] is None or upper < best[1]):
            best[1], best[2] = upper, witness
        return slack

    def psi(slack):
        if slack is None or not secant:
            return None
        gap = _float(level - slack)
        return 1 / sqrt(gap) - 1 / radius if gap else inf

    def closing(slack, mu):
        return slack is not None and 0 <= slack <= tol / mu

    def closed():
        return best[0] is not None and best[1] is not None and best[1] - best[0] <= tol

    def evaluate(mu, lo, hi, width):
        # (mu, slack, probed): the model's slack at mu while it lies outside
        # the window, else the probe's, at the fewest bits the window allows
        if model is not None and (slack := model(mu)) is not None:
            if not closing(slack, mu):
                return mu, slack, False
            mu = _fewest_bits(
                mu, width, lambda x: lo < x and (hi is None or x < hi) and closing(model(x), x)
            )
        return mu, run(mu), True

    def aim(prev, last, hi):
        # (target, width): where the secant through the last two points
        # reaches the psi of the slack tol/(2 mu), and how far past its
        # root that is; None without two finite psi on a rising secant
        if prev is None or prev[1] is None or last[1] is None:
            return None
        (mu0, psi0), (mu1, psi1) = prev, last
        slope = (psi1 - psi0) / _float(mu1 - mu0)
        if not 0 < slope < inf:
            return None
        shift = psi1 / slope
        if not isfinite(shift):
            return None
        root = mu1 - Fraction(shift)
        # psi at the slack tol/(2 ref) is at least that slack / (2 radius^3)
        ref = max(root, mu1) if hi is None else hi
        width = _float(tol / (2 * ref)) / (2 * cube * slope)
        if not 0 < width < inf:
            return None
        return root + Fraction(width), Fraction(width)

    slack = run(ZERO)
    if slack is not None and slack >= 0:
        return tuple(best)
    lo, hi, prev, last = ZERO, None, None, (ZERO, psi(slack))
    rises = steps = 0
    while not closed():
        step = aim(prev, last, hi)
        width = None if step is None else step[1]
        if hi is None:
            if rises == _EXTRAPOLATIONS:
                break
            rises += 1
            if step is not None and step[0] > lo:
                mu = _short_dyadic(lo, 2 * step[0] - lo, *step)
            else:
                mu, width = 2 * lo if lo else ONE, None
        else:
            if steps == _STEPS:
                break
            steps += 1
            mu = (lo + hi) / 2 if step is None else _short_dyadic(lo, hi, *step)
        mu, slack, was_probed = evaluate(mu, lo, hi, width)
        prev, last = last, (mu, psi(slack))
        feasible = slack is not None and slack >= 0
        if was_probed:
            probed[feasible] = mu
            lo, hi = probed
        elif feasible:
            hi = mu
        else:
            lo = mu
    return tuple(best)


def _float(x: Fraction) -> float:
    """``float(x)``, or an infinity of x's sign where x lies past the float
    range, which ``float`` refuses with OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


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
    x0 = tuple(xi + dot(t, [k[i] for k in kernel]) for i, xi in enumerate(x))
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


def _fewest_bits(mu: Fraction, width: Fraction | None, ok) -> Fraction:
    """The dyadic rational with the fewest bits where ``ok`` holds, for a
    dyadic mu where it holds and an ``ok`` that holds on an interval.

    Some dyadic of step ``2^-k`` lies in the interval iff one of the two
    next to mu does, and then one of step ``2^-(k+1)`` does too.  So the
    least such k is searched by galloping from the step of about ``4 width``
    (mu's own step without one), finer or coarser, and then by bisection.
    """

    def at(k):
        if k >= top:
            return mu
        unit = Fraction(1, 1 << k) if k >= 0 else Fraction(1 << -k)
        below = mu // unit * unit
        return next((x for x in (below, below + unit) if ok(x)), None)

    top = mu.denominator.bit_length() - 1  # mu's own step is 2^-top
    k = top
    if width is not None:  # the step of about 4 width, a window's typical span
        k = min(top, width.denominator.bit_length() - width.numerator.bit_length() - 2)
    found, step = at(k), 1
    if found is None:
        fail = k
        while (found := at(k := min(fail + step, top))) is None:
            fail, step = k, 2 * step
    else:
        while (coarser := at(k - step)) is not None:
            found, k, step = coarser, k - step, 2 * step
        fail = k - step
    while k - fail > 1:
        mid = (fail + k) // 2
        if (held := at(mid)) is None:
            fail = mid
        else:
            found, k = held, mid
    return found
