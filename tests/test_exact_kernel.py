"""The integer exact kernel against the Fraction algorithms it replaced.

``linalg.dot`` accumulates on ints, ``linalg.rref`` eliminates
fraction-free on ints, ``LinearSystem``, ``solve`` and ``kernel_basis`` read
their results off integer rows, ``polyhedra`` runs double description on
primitive integer vectors and the simplex on a fraction-free tableau, and
the face walk of ``cone_qp.minimize_over_hpolyhedron`` solves each face on
ints.  Each must
return exactly what the Fraction algorithm returns: the references below are
those algorithms, written out here in Fractions.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from fwsets import cone_qp, linalg, polyhedra
from fwsets.errors import DimensionMismatchError
from fwsets.linalg import (
    LinearSystem,
    dot,
    int_rref,
    int_solution,
    kernel_basis,
    primitive_ints,
    rref,
    solve,
)
from fwsets.polyhedra import (
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    Work,
    cone_h_to_v,
    cone_v_to_h,
    dd_convert,
    int_cone_h_to_v,
    lp_solve,
    project_fm,
)
from fwsets.quadratics import Quadratic

F = Fraction
ZERO = F(0)
ONE = F(1)


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------


def ref_rref(m):
    rows = [[F(x) for x in r] for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), pivots


def ref_primitive(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for k in ints:
        g = gcd(g, abs(k))
    if g == 0:
        return tuple(ZERO for _ in v)
    return tuple(F(k, g) for k in ints)


def ref_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def ref_unit(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def ref_kernel(m, n):
    return ref_kernel_from_rref(*ref_rref(m), n)


def ref_kernel_from_rref(red, pivots, n):
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [ZERO] * n
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(tuple(v))
    return basis


def ref_solve_unique(m, b):
    n = len(m[0])
    red, pivots = ref_rref([row + (rhs,) for row, rhs in zip(m, b)])
    assert pivots == list(range(n))
    return tuple(red[r][n] for r in range(n))


def ref_solution_set(m, b, n):
    """``(x, kernel, rank)`` for ``m x = b`` in n unknowns, from one elimination
    of ``[m | b]``: x is the solution with zero free coordinates, or None when
    the system is inconsistent, and the leading columns are the rref of m."""
    red, pivots = ref_rref([tuple(row) + (rhs,) for row, rhs in zip(m, b)])
    rank = sum(pc < n for pc in pivots)
    kernel = ref_kernel_from_rref(red, pivots[:rank], n)
    if rank < len(pivots):
        return None, kernel, rank
    x = [ZERO] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return tuple(x), kernel, rank


def ref_pointed_dd(rows, d):
    """``(rays, units)``: the extreme rays, and the work units the library
    charges: d per ray a non-seed row is evaluated on, one per pair across
    its hyperplane, and one per current ray for each pair whose common zero
    set has at least d - 2 rows."""
    if d == 0:
        return [], 0
    seed, chosen = [], []
    for i, row in enumerate(rows):
        if len(ref_rref(chosen + [row])[1]) > len(chosen):
            chosen.append(row)
            seed.append(i)
        if len(seed) == d:
            break
    assert len(seed) == d
    m = tuple(rows[i] for i in seed)
    rays, zero_sets = [], []
    for j in range(d):
        col = ref_solve_unique(m, tuple(-ONE if k == j else ZERO for k in range(d)))
        rays.append(ref_primitive(col))
        zero_sets.append({seed[k] for k in range(d) if k != j})
    processed = set(seed)
    units = 0
    for t, row in enumerate(rows):
        if t in processed:
            continue
        vals = [ref_dot(row, r) for r in rays]
        units += d * len(vals) + sum(v > 0 for v in vals) * sum(v < 0 for v in vals)
        if all(v <= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    zero_sets[i].add(t)
            processed.add(t)
            continue
        new_rays, new_zsets = [], []
        for i, v in enumerate(vals):
            if v <= 0:
                new_rays.append(rays[i])
                new_zsets.append(zero_sets[i] | ({t} if v == 0 else set()))
        for p in (i for i, v in enumerate(vals) if v > 0):
            for q in (i for i, v in enumerate(vals) if v < 0):
                common = zero_sets[p] & zero_sets[q]
                if len(common) >= d - 2:
                    units += len(rays)
                if any(
                    k != p and k != q and common <= zero_sets[k] for k in range(len(rays))
                ):
                    continue
                combo = ref_primitive(
                    tuple(vals[p] * y - vals[q] * x for x, y in zip(rays[p], rays[q]))
                )
                if all(x == 0 for x in combo):
                    continue
                new_rays.append(combo)
                new_zsets.append(common | {t})
        rays, zero_sets, seen = [], [], {}
        for r, zs in zip(new_rays, new_zsets):
            if r in seen:
                zero_sets[seen[r]] |= zs
            else:
                seen[r] = len(rays)
                rays.append(r)
                zero_sets.append(zs)
        processed.add(t)
    return rays, units


def ref_cone_h_to_v(rows, d):
    """``(rays, lineality basis, units)``, the units as in :func:`ref_pointed_dd`."""
    rows = [tuple(F(x) for x in r) for r in rows]
    rows = [r for r in rows if any(r)]
    lin = ref_kernel(rows, d) if rows else [ref_unit(d, i) for i in range(d)]
    pivots = ref_rref(lin)[1] if lin else []
    comp = [ref_unit(d, j) for j in range(d) if j not in pivots]
    if not comp:
        return (), lin, 0
    reduced = [rr for rr in (tuple(ref_dot(r, c) for c in comp) for r in rows) if any(rr)]
    rays = []
    pointed, units = ref_pointed_dd(reduced, len(comp))
    for s in pointed:
        x = [ZERO] * d
        for coeff, c in zip(s, comp):
            x = [xi + coeff * ci for xi, ci in zip(x, c)]
        rays.append(ref_primitive(x))
    return tuple(dict.fromkeys(rays)), lin, units


def ref_lp_solve(a, b, c, ties):
    """The two-phase Bland-rule simplex on a Fraction tableau, as
    ``(status, x, value, ray, farkas)``; ``ties`` counts the ratio ties
    broken by basis index, the artificials driven out after phase 1, and
    the tableau entries built and updated (the rows a pivot hits, the pivot
    row and the cost row)."""
    m, n = len(a), len(c)
    sigma = [ONE if b[i] >= 0 else -ONE for i in range(m)]
    ncols = 2 * n + m
    ties["entries"] = m * (ncols + m + 1)
    tab = []
    for i in range(m):
        row = [sigma[i] * a[i][j] for j in range(n)]
        row += [-sigma[i] * a[i][j] for j in range(n)]
        row += [sigma[i] if k == i else ZERO for k in range(m)]
        row += [ONE if k == i else ZERO for k in range(m)]
        tab.append(row + [sigma[i] * b[i]])
    basis = list(range(ncols, ncols + m))

    def pivot(cost, r, col):
        ties["entries"] += (sum(i != r and tab[i][col] != 0 for i in range(m)) + 2) * len(tab[r])
        pv = tab[r][col]
        tab[r] = [x / pv for x in tab[r]]
        for i in range(m):
            if i != r and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
        if cost is not None and cost[col] != 0:
            f = cost[col]
            cost[:] = [x - f * y for x, y in zip(cost, tab[r])]
        basis[r] = col

    def simplex(cost, limit):
        while True:
            enter = next((j for j in range(limit) if cost[j] < 0), None)
            if enter is None:
                return "optimal", None
            leave = best = None
            for i in range(m):
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if best is not None and ratio == best:
                        ties["ratio"] += 1
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                return "unbounded", enter
            pivot(cost, leave, enter)

    art_cost = [-sum(tab[i][j] for i in range(m)) for j in range(ncols)]
    art_cost += [ZERO] * m + [-sum(tab[i][-1] for i in range(m))]
    simplex(art_cost, ncols + m)
    if -art_cost[-1] > 0:
        farkas = tuple(-sigma[i] * (ONE - art_cost[ncols + i]) for i in range(m))
        return "infeasible", None, None, None, farkas
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if col is not None:
                ties["driven_out"] += 1
                pivot(None, i, col)
    full_c = list(c) + [-ci for ci in c] + [ZERO] * m
    cost = full_c + [ZERO] * (m + 1)
    for i in range(m):
        if basis[i] < ncols and full_c[basis[i]] != 0:
            cost = [x - full_c[basis[i]] * y for x, y in zip(cost, tab[i])]
    for i in range(m):
        cost[ncols + i] = ONE
    status, ray_col = simplex(cost, ncols)
    z = [ZERO] * ncols
    for i in range(m):
        if basis[i] < ncols:
            z[basis[i]] = tab[i][-1]
    x = tuple(z[j] - z[n + j] for j in range(n))
    if status == "unbounded":
        d = [ZERO] * ncols
        d[ray_col] = ONE
        for i in range(m):
            if basis[i] < ncols:
                d[basis[i]] = -tab[i][ray_col]
        return "unbounded", x, None, tuple(d[j] - d[n + j] for j in range(n)), None
    return "optimal", x, ref_dot(c, x), None, None


def all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


# ---------------------------------------------------------------------------
# dot
# ---------------------------------------------------------------------------


def _dot_entry(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "small":
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12)))
    # a 40-bit dyadic, as the ball multiplier brackets make
    return F(rng.getrandbits(40) - (1 << 39), 1 << rng.randint(0, 40))


def test_dot_matches_fraction_sum():
    rng = random.Random(20261020)
    kinds = ("int", "small", "dyadic")
    seen = {"mixed": 0, "zeros": 0, "ints": 0}
    for _ in range(3000):
        n = rng.randint(0, 8)
        pair = []
        for _ in range(2):
            v = [_dot_entry(rng, rng.choice(kinds)) for _ in range(n)]
            if rng.random() < 0.3:  # zeros, as int 0 and as Fraction 0
                for j in rng.sample(range(n), n // 2):
                    v[j] = rng.choice((0, ZERO))
            if rng.random() < 0.3:  # all ints
                v = [rng.randint(-5, 5) for _ in range(n)]
            pair.append(tuple(v))
        a, b = pair
        got = dot(a, b)
        assert got == ref_dot(a, b) and type(got) is Fraction, (a, b)
        entries = a + b
        seen["mixed"] += any(type(x) is int for x in entries) and any(type(x) is F for x in entries)
        seen["zeros"] += any(x == 0 for x in entries)
        seen["ints"] += bool(entries) and all(type(x) is int for x in entries)
    assert min(seen.values()) >= 300, seen
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    assert dot((F(1, 3), F(1, 6)), (F(1, 2), 3)) == F(2, 3)


def test_dot_of_unequal_lengths_raises():
    for a, b in (((ONE,), ()), ((), (1,)), ((1, 2), (F(1, 2),))):
        with pytest.raises(DimensionMismatchError):
            dot(a, b)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


def _rational(rng, lo=-4, hi=4):
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 5, 6)))


def _rref_cases():
    rng = random.Random(20260905)
    cases = [((F(0),),), ((F(-3, 7),),), ()]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.4:  # a zero column
            j = rng.randrange(ncols)
            for row in m:
                row[j] = ZERO
        if rng.random() < 0.4:  # a zero row
            m[rng.randrange(nrows)] = [ZERO] * ncols
        cases.append(tuple(tuple(r) for r in m))
    for _ in range(30):  # rank deficient: rows combined from a few
        ncols, k = rng.randint(2, 6), rng.randint(1, 3)
        base = [[_rational(rng) for _ in range(ncols)] for _ in range(k)]
        m = []
        for _ in range(rng.randint(k, k + 3)):
            coeffs = [_rational(rng) for _ in range(k)]
            m.append(tuple(sum((c * b[j] for c, b in zip(coeffs, base)), ZERO) for j in range(ncols)))
        cases.append(tuple(m))
    for _ in range(30):  # wide [M | I], M often singular
        n = rng.randint(1, 5)
        m = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            m[-1] = [2 * x for x in m[0]]
        cases.append(tuple(tuple(r) + ref_unit(n, i) for i, r in enumerate(m)))
    return cases


def test_rref_matches_fraction_gauss_jordan():
    shapes = {"singular": 0, "zero": 0}
    for m in _rref_cases():
        red, pivots = rref(m)
        ref_red, ref_pivots = ref_rref(m)
        assert pivots == ref_pivots, m
        assert red == ref_red, m
        assert all_fractions(red), m
        if m and len(pivots) < len(m):
            shapes["singular"] += 1
        if m and any(not any(r) for r in m):
            shapes["zero"] += 1
    assert rref(()) == ((), [])
    assert shapes["singular"] >= 30 and shapes["zero"] >= 10


def test_int_solution_matches_fraction_solution_set():
    inconsistent = 0
    for m in _rref_cases():
        if not m or len(m[0]) < 2:
            continue
        n = len(m[0]) - 1
        rows = [primitive_ints(r) for r in m]
        got = int_solution(rows, int_rref(rows), n)
        x, kernel, _ = ref_solution_set([r[:n] for r in m], [r[n] for r in m], n)
        if x is None:
            assert got is None, m
            inconsistent += 1
            continue
        xs, d, ks = got
        assert d > 0 and tuple(F(v, d) for v in xs) == x, m
        assert [tuple(F(v, d) for v in k) for k in ks] == kernel, m
    assert inconsistent >= 20


def test_linear_system_solve_and_kernel_match_fraction_gauss_jordan():
    # rank, pivots, kernel vectors in order and the particular solutions of
    # consistent and inconsistent right-hand sides, also with repeated rows
    # and for matrices with no rows or no columns
    rng = random.Random(20261101)
    cases = [(m, len(m[0])) for m in _rref_cases() if m]
    cases += [((), 3), ((), 0), (((), ()), 0)]
    for m, n in list(cases[:40]):
        cases.append((m + (m[0], m[-1]), n))
    seen = {"deficient": 0, "inconsistent": 0, "consistent": 0}
    for m, n in cases:
        system = LinearSystem(m, n)
        ref_pivots = [pc for pc in ref_rref(m)[1] if pc < n]
        assert (system.rank, system.pivots) == (len(ref_pivots), ref_pivots), m
        ref_k = ref_kernel(m, n)
        assert system.kernel == ref_k and all_fractions(system.kernel), m
        assert kernel_basis(m, n) == ref_k, m
        # the integer kernel is one positive multiple d of the Fraction one
        ints = system.int_kernel
        assert len(ints) == len(ref_k) and all(type(x) is int for v in ints for x in v), m
        if ints:
            d = ints[0][next(j for j, x in enumerate(ref_k[0]) if x)] / next(x for x in ref_k[0] if x)
            assert d > 0 and [tuple(d * x for x in v) for v in ref_k] == [tuple(v) for v in ints], m
        seen["deficient"] += system.rank < len(m)
        y = [_rational(rng) for _ in range(n)]
        rhss = [
            tuple(ref_dot(row, y) for row in m),
            tuple(_rational(rng) for _ in m),
            (ZERO,) * len(m),
        ]
        for b in rhss:
            x = ref_solution_set(m, b, n)[0]
            got = system.solve(b)
            assert got == x, (m, b)
            if m:  # solve reads the width off m
                assert solve(m, b) == x, (m, b)
            if x is None:
                seen["inconsistent"] += 1
            else:
                seen["consistent"] += 1
                assert all_fractions([got])
    assert LinearSystem((), 2).solve(()) == (ZERO, ZERO)
    assert solve((), ()) == () and solve((), (ONE,)) is None
    assert min(seen.values()) >= 40, seen


def test_right_hand_side_of_wrong_length_raises():
    # integer dot products stop at the shorter sequence, so the length is
    # checked before any is taken
    m = ((ONE, ZERO), (ZERO, ONE))
    for system in (LinearSystem(m, 2), LinearSystem((), 2)):
        for b in ((ONE,), (ONE, ONE, ONE)):
            with pytest.raises(DimensionMismatchError):
                system.solve(b)
            with pytest.raises(DimensionMismatchError):
                system.solve_ints([1] * len(b))
    for b in ((ONE,), (ONE, ONE, ONE)):
        with pytest.raises(DimensionMismatchError):
            solve(m, b)


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------


def _dd_cases():
    rng = random.Random(20260917)
    cases = []
    for d in range(1, 7):
        for _ in range(12):
            nrows = rng.randint(1, 14)
            rows = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(nrows)]
            if rng.random() < 0.7:  # keep x0 inside, so the cone has many rays
                x0 = [F(rng.randint(-2, 2)) for _ in range(d)]
                rows = [[-x for x in r] if ref_dot(r, x0) > 0 else r for r in rows]
            if d > 1 and rng.random() < 0.4:  # lineality: every row orthogonal to w
                w = [F(rng.randint(-2, 2)) for _ in range(d)]
                j = next((i for i, x in enumerate(w) if x), None)
                if j is not None:
                    for row in rows:
                        row[j] -= ref_dot(row, w) / w[j]
            if rng.random() < 0.5:  # a duplicate and a rescaled copy
                rows.append(list(rng.choice(rows)))
                scale = F(rng.randint(1, 5), rng.randint(1, 4))
                rows.append([scale * x for x in rng.choice(rows)])
            if rng.random() < 0.3:  # an equation, as a pair of opposite rows
                row = rng.choice(rows)
                rows.append([-x for x in row])
            if rng.random() < 0.5:  # rational rows
                for row in rng.sample(rows, min(3, len(rows))):
                    den = rng.randint(2, 7)
                    row[:] = [x / den + F(rng.randint(-1, 1), 3) for x in row]
            rows = rows[:14]
            rng.shuffle(rows)
            cases.append(([tuple(r) for r in rows], d))
    return cases


def test_double_description_matches_fraction_reference():
    # the rays, their order, the lineality basis and the work charged, so
    # that no refusal moves
    lineal = multi_ray = 0
    for rows, d in _dd_cases():
        work = Work()
        rays, lin = cone_h_to_v(rows, d, work)
        ref_rays, ref_lin, ref_units = ref_cone_h_to_v(rows, d)
        assert list(rays) == list(ref_rays), (rows, d)
        assert lin == ref_lin, (rows, d)
        assert work.units == ref_units, (rows, d)
        assert all_fractions(rays) and all_fractions(lin)
        lineal += bool(lin)
        multi_ray += len(rays) > d
    assert lineal >= 15 and multi_ray >= 12


def test_integer_rows_match_fraction_reference():
    # the face walks hand int_cone_h_to_v integer rows that are not
    # primitive, and zero rows: each row scaled by a positive integer, and
    # zero rows inserted
    rng = random.Random(20261020)
    zero_rows = 0
    for rows, d in _dd_cases():
        ints = [[rng.randint(1, 6) * x for x in primitive_ints(r)] for r in rows]
        for _ in range(rng.randint(0, 2)):
            ints.insert(rng.randint(0, len(ints)), [0] * d)
            zero_rows += 1
        work = Work()
        rays, lin = int_cone_h_to_v(ints, d, work)
        ref_rays, ref_lin, ref_units = ref_cone_h_to_v(ints, d)
        assert [tuple(map(F, r)) for r in rays] == list(ref_rays), (ints, d)
        assert [tuple(map(F, v)) for v in lin] == [ref_primitive(v) for v in ref_lin], (ints, d)
        assert work.units == ref_units, (ints, d)
    assert zero_rows >= 20


def test_line_elimination_replaces_the_seed_eliminations(monkeypatch):
    # the seed comes from one pass over the rows: a full-rank system is
    # eliminated nowhere else, and one with lineality only for its kernel
    # basis and that basis's pivot columns
    calls = {"int_rref": 0, "independent_rows": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(polyhedra, "int_rref", counted("int_rref", linalg.int_rref))
    monkeypatch.setattr(
        linalg, "independent_rows", counted("independent_rows", linalg.independent_rows)
    )
    rows = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, 0), (1, 1, -1)]
    assert int_cone_h_to_v(rows, 3) == ([(0, 0, 1), (1, 0, 1), (0, 1, 1)], [])
    assert calls == {"int_rref": 0, "independent_rows": 0}
    # every row is orthogonal to the line (1, 1, 1)
    rows = [(-1, 1, 0), (0, -1, 1), (0, 0, 0), (-1, 0, 1)]
    assert int_cone_h_to_v(rows, 3) == ([(0, -1, -1), (0, 0, -1)], [(1, 1, 1)])
    assert calls == {"int_rref": 2, "independent_rows": 0}


# The conversions built on double description, as they were written in
# Fractions: each input is made Fraction, each conversion returns Fraction
# vectors, and duplicates are merged on Fraction tuples.


def ref_cone_v_to_h(gens, d):
    gens = [ref_primitive(tuple(F(x) for x in g)) for g in gens]
    rays, lin, _ = ref_cone_h_to_v([g for g in gens if any(g)], d)
    rows = list(rays)
    for v in lin:
        rows += [ref_primitive(v), ref_primitive(tuple(-x for x in v))]
    return tuple(dict.fromkeys(rows))


def ref_from_halfspaces(rows, d):
    """``(generators, halfspaces)`` of ``PolyCone.from_halfspaces``."""
    hs = tuple(ref_primitive(tuple(F(x) for x in r)) for r in rows)
    hs = tuple(dict.fromkeys(h for h in hs if any(h)))
    rays, lin, _ = ref_cone_h_to_v(hs, d)
    gens = rays + tuple(lin) + tuple(tuple(-x for x in v) for v in lin)
    return tuple(dict.fromkeys(ref_primitive(g) for g in gens)), hs


def ref_h_to_v(a, b, n):
    """``(vertices, rays, lineality, empty_certificate)`` of ``{A x <= b}``."""
    hom = [tuple(row) + (-rhs,) for row, rhs in zip(a, b)]
    rays, lin, _ = ref_cone_h_to_v(hom + [(ZERO,) * n + (-ONE,)], n + 1)
    vertices = tuple(dict.fromkeys(tuple(x / r[n] for x in r[:n]) for r in rays if r[n] > 0))
    if not vertices:
        farkas = ref_lp_solve(a, b, (ZERO,) * n, {"ratio": 0, "driven_out": 0})[4]
        return (), (), (), farkas
    vrays = tuple(dict.fromkeys(ref_primitive(r[:n]) for r in rays if r[n] == 0))
    return vertices, vrays, tuple(ref_primitive(v[:n]) for v in lin), None


def ref_v_to_h(vertices, rays, lineality, n):
    """``(A, b)`` of the V-form."""
    if not vertices:
        return ((ZERO,) * n,), (-ONE,)
    gens = [v + (ONE,) for v in vertices] + [r + (ZERO,) for r in rays]
    for v in lineality:
        gens += [v + (ZERO,), tuple(-x for x in v) + (ZERO,)]
    rows = [row for row in ref_cone_v_to_h(gens, n + 1) if any(row[:n])]
    return tuple(row[:n] for row in rows), tuple(-row[n] for row in rows)


def ref_project(a, b, n, coords):
    vertices, rays, lin, _ = ref_h_to_v(a, b, n)

    def pick(x):
        return tuple(x[c - 1] for c in coords)

    def directions(vs):
        return tuple(dict.fromkeys(ref_primitive(d) for d in map(pick, vs) if any(d)))

    return ref_v_to_h(
        tuple(dict.fromkeys(map(pick, vertices))), directions(rays), directions(lin), len(coords)
    )


def _hpoly_cases():
    """Rational systems ``(A, b, n)``: some with lineality, duplicate,
    rescaled or opposite rows, some bounded, some empty."""
    rng = random.Random(20261022)
    cases = []
    for n in range(1, 5):
        for _ in range(40):
            m = rng.randint(1, 2 * n + 2)
            a = [[_rational(rng, -3, 3) for _ in range(n)] for _ in range(m)]
            b = [_rational(rng, 0, 4) for _ in range(m)]
            if n > 1 and rng.random() < 0.3:  # lineality: every row orthogonal to w
                w = [F(rng.randint(-2, 2)) for _ in range(n)]
                j = next((i for i, x in enumerate(w) if x), None)
                if j is not None:
                    for row in a:
                        row[j] -= ref_dot(row, w) / w[j]
            elif rng.random() < 0.4:  # a box, so that there are vertices
                for i in range(n):
                    for sign in (1, -1):
                        a.append([F(sign) if k == i else ZERO for k in range(n)])
                        b.append(F(rng.randint(1, 3), rng.randint(1, 2)))
            if rng.random() < 0.4:  # a duplicate and a rescaled copy
                i = rng.randrange(m)
                a.append(list(a[i]))
                b.append(b[i])
                scale = F(rng.randint(1, 5), rng.randint(1, 4))
                a.append([scale * x for x in a[i]])
                b.append(scale * b[i])
            if rng.random() < 0.3:  # an equation, or an empty slab
                i = rng.randrange(m)
                a.append([-x for x in a[i]])
                b.append(-b[i] - rng.choice((0, 0, 1, F(1, 2))))
            order = list(range(len(a)))
            rng.shuffle(order)
            cases.append((tuple(tuple(a[i]) for i in order), tuple(b[i] for i in order), n))
    cases.append((((ONE,), (-ONE,)), (-ONE, ZERO), 1))  # x <= -1, x >= 0
    cases.append((((ZERO, ZERO),), (F(-1, 2),), 2))  # 0 <= -1/2
    return cases


def _vpoly_cases():
    """V-forms with redundant and repeated points, rescaled rays and
    lineality, and the empty set."""
    rng = random.Random(20261023)
    cases = []
    for n in range(1, 5):
        for _ in range(25):
            points = [tuple(_rational(rng) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            if len(points) > 1 and rng.random() < 0.5:  # a midpoint and a repeat
                p, q = rng.sample(points, 2)
                points += [tuple((x + y) / 2 for x, y in zip(p, q)), p]
            rays = []
            for _ in range(rng.randint(0, 3)):
                r = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
                if any(r):
                    rays += [r, tuple(F(3, 2) * x for x in r)] if rng.random() < 0.3 else [r]
            lin = []
            if rng.random() < 0.25:
                lin.append(tuple(F(rng.randint(-2, 2), 2) for _ in range(n)))
            cases.append((tuple(points), tuple(rays), tuple(lin), n))
        cases.append(((), (), (), n))
    return cases


def test_conversions_match_fraction_reference(monkeypatch):
    # dd_convert both ways, cone_v_to_h, PolyCone.from_halfspaces and
    # project_fm run on ints from their inputs to their outputs; they must
    # return the values, the order and the Fraction type of the conversions
    # written in Fractions, and hand each cone conversion as many nonzero
    # rows, so that repeats are merged where they were
    rows_in = {"got": [], "ref": []}

    def counted(convert, key):
        def wrapper(rows, d, *work):
            rows_in[key].append(sum(map(any, rows)))
            return convert(rows, d, *work)

        return wrapper

    monkeypatch.setattr(polyhedra, "int_cone_h_to_v", counted(polyhedra.int_cone_h_to_v, "got"))
    monkeypatch.setitem(globals(), "ref_cone_h_to_v", counted(ref_cone_h_to_v, "ref"))
    rng = random.Random(20261024)
    seen = {"empty": 0, "lineality": 0, "rays": 0, "coords dropped": 0}
    for a, b, n in _hpoly_cases():
        v = dd_convert(HPolyhedron(a, b, n))
        got = (v.vertices, v.rays, v.lineality, v.empty_certificate)
        assert got == ref_h_to_v(a, b, n), (a, b)
        assert all_fractions(v.vertices + v.rays + v.lineality + (v.empty_certificate or (),))
        seen["empty"] += v.is_empty
        seen["lineality"] += bool(v.lineality)
        seen["rays"] += bool(v.rays)
        coords = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        image = project_fm(HPolyhedron(a, b, n), coords)
        assert (image.a, image.b) == ref_project(a, b, n, coords), (a, b, coords)
        assert all_fractions(image.a + (image.b,))
        seen["coords dropped"] += len(coords) < n
    assert min(seen.values()) >= 12, seen
    # the lines (-1, 1, 0) and (-2, 0, 1) keep x_1 in two scales of one line
    a, b = ((ONE, ONE, F(2)),), (ONE,)
    image = project_fm(HPolyhedron(a, b, 3), [1])
    assert (image.a, image.b) == ref_project(a, b, 3, [1]) == ((), ())
    for vertices, rays, lin, n in _vpoly_cases():
        h = dd_convert(VPolyhedron(vertices, rays, lin, n))
        assert (h.a, h.b) == ref_v_to_h(vertices, rays, lin, n), (vertices, rays, lin)
        assert all_fractions(h.a + (h.b,))
    for rows, d in _dd_cases():
        facets = cone_v_to_h(rows, d)
        assert facets == ref_cone_v_to_h(rows, d), (rows, d)
        cone = PolyCone.from_halfspaces(rows, d)
        assert (cone.generators, cone.halfspaces) == ref_from_halfspaces(rows, d), (rows, d)
        assert all_fractions(facets + cone.generators + cone.halfspaces)
    assert rows_in["got"] == rows_in["ref"]


# ---------------------------------------------------------------------------
# the QP over {A x <= b}
# ---------------------------------------------------------------------------


def ref_faces(q, p):
    """The Fraction face walk: on each row subset J with independent rows,
    ``x0 + N t`` parametrizes ``A_J x = b_J`` and ``N^T Q N t = -N^T grad q(x0)``
    gives the stationary set.  Returns the faces the walk hands to
    ``cone_qp._least_face``, each built, as a list of
    ``(key, value, z0, kernel, g, h)``."""
    n, m = p.dim, len(p.a)

    def matvec(a, x):
        return tuple(ref_dot(row, x) for row in a)

    def combine(z0, vectors, coeffs):
        return tuple(z0[i] + sum((v[i] * s for v, s in zip(vectors, coeffs)), ZERO) for i in range(n))

    faces = []
    for size in range(min(m, n) + 1):
        for subset in itertools.combinations(range(m), size):
            x0, nbasis, rank = ref_solution_set([p.a[i] for i in subset], [p.b[i] for i in subset], n)
            if rank < size:
                continue
            qn = [matvec(q.a, v) for v in nbasis]
            grad0 = tuple(g + bi for g, bi in zip(matvec(q.a, x0), q.b))
            m_red = [tuple(ref_dot(v, w) for w in qn) for v in nbasis]
            t0, kernel, _ = ref_solution_set(m_red, [-ref_dot(v, grad0) for v in nbasis], len(nbasis))
            if t0 is None:
                continue
            base = combine(x0, nbasis, t0)
            dirs = [combine((ZERO,) * n, nbasis, kv) for kv in kernel]
            value = ref_dot(base, matvec(q.a, base)) / 2 + ref_dot(q.b, base) + q.c
            faces.append((subset, value, base, dirs, p.a, p.b))
    return faces


def int_rows(g, h):
    """The rows ``g z <= h`` as the integer pairs ``(a, b)`` of the face
    solver, all scaled by one factor, the lcm of their denominators."""
    scale = lcm(*(x.denominator for row in g for x in row), *(x.denominator for x in h))
    ints = [[x.numerator * (scale // x.denominator) for x in (*row, hi)] for row, hi in zip(g, h)]
    return tuple((row[:-1], row[-1]) for row in ints)


def face_of(z0, kernel, g, h):
    """The face solver's set for a face of :func:`ref_faces`: the point
    over one integer denominator, each direction as its primitive integers
    and the rows of :func:`int_rows`."""
    den = lcm(*(x.denominator for x in z0))
    num = [x.numerator * (den // x.denominator) for x in z0]
    return cone_qp._Face(num, den, [primitive_ints(kv) for kv in kernel], int_rows(g, h))


def face_parts(z0, kernel, g, h):
    """A face by its point, its directions made primitive and its integer
    rows: what the face solver reads of it."""
    return z0, [primitive_ints(kv) for kv in kernel], int_rows(g, h)


def _qp_form(rng, kind, n):
    def rat():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)))

    if kind == "zero":
        return [[ZERO] * n for _ in range(n)]
    if kind == "indefinite":
        a = [[rat() for _ in range(n)] for _ in range(n)]
        return [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    rank = 1 if kind == "rank1" else rng.randint(1, n)
    w = [[rat() for _ in range(n)] for _ in range(rank)]
    return [[sum((r[i] * r[j] for r in w), ZERO) for j in range(n)] for i in range(n)]


def _qp_cases():
    rng = random.Random(20261018)
    cases = []
    for k in range(1040):
        n = rng.randint(1, 5)
        m = rng.randint(1, 7 if n < 4 else 5 if n == 4 else 4)
        center = [F(rng.randint(-2, 2)) for _ in range(n)]
        rows, rhs = [], []
        for _ in range(m):
            row = [F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 7))) for _ in range(n)]
            rows.append(row)
            rhs.append(ref_dot(row, center) + F(rng.randint(0, 3), rng.choice((1, 2, 3))))
        if rng.random() < 0.15:  # 0 <= 1 or 0 <= -1
            i = rng.randrange(m)
            rows[i], rhs[i] = [ZERO] * n, F(rng.choice((1, -1)))
        if m > 1 and rng.random() < 0.15:  # a row and its reverse, shifted apart
            rows[1] = [-x for x in rows[0]]
            rhs[1] = -rhs[0] - rng.randint(0, 2)
        if m > 2 and rng.random() < 0.2:  # a rescaled duplicate row
            rows[2] = [F(3, 2) * x for x in rows[0]]
            rhs[2] = F(3, 2) * rhs[0]
        kind = ("gram", "indefinite", "rank1", "zero")[k % 4]
        a = _qp_form(rng, kind, n)
        b = [F(rng.randint(-3, 3), rng.choice((1, 2, 3, 7))) for _ in range(n)]
        if rng.random() < 0.5:  # b = A y: singular faces keep consistent systems
            y = [F(rng.randint(-2, 2)) for _ in range(n)]
            b = [ref_dot(row, y) for row in a]
        q = Quadratic(tuple(map(tuple, a)), tuple(b), F(rng.randint(-2, 2), rng.choice((1, 3))))
        cases.append((q, HPolyhedron(tuple(map(tuple, rows)), tuple(rhs), n)))
    return cases


def ref_face_point(z0, kernel, g, h):
    """A point of ``z0 + span(kernel)`` with ``g z <= h`` by the Fraction LP
    in t: rows ``g_i . k_j``, right-hand sides ``h_i - g_i . z0``, and the
    point ``z0 + sum_j t_j k_j``; None when the LP is infeasible."""
    res = lp_solve(
        tuple(tuple(ref_dot(row, kv) for kv in kernel) for row in g),
        tuple(hi - ref_dot(row, z0) for row, hi in zip(g, h)),
        (ZERO,) * len(kernel),
    )
    if res.status != "optimal":
        return None
    return tuple(z0[i] + sum((t * kv[i] for t, kv in zip(res.x, kernel)), ZERO) for i in range(len(z0)))


def test_face_point_matches_fraction_lp():
    # faces with 2-5 directions, met by the exact LP: the integer rows share
    # one scale, so the LP takes the Fraction LP's pivots and ends at its
    # point; the rows here are not primitive, each scaled by 1, 2 or 6
    rng = random.Random(20261104)
    answers = {True: 0, False: 0}
    for _ in range(3000):
        r = rng.randint(2, 5)
        n = rng.randint(r, 6)
        z0 = tuple(_rational(rng) for _ in range(n))
        kernel = [tuple(_rational(rng, -2, 2) for _ in range(n)) for _ in range(r)]
        if not all(any(kv) for kv in kernel):
            continue
        g, h = [], []
        for _ in range(rng.randint(1, 8)):
            row = [_rational(rng, -3, 3) for _ in range(n)]
            # through a point of the set, or just off it
            t = [F(rng.randint(-2, 2)) for _ in range(r)]
            at = tuple(z0[i] + ref_dot(t, [kv[i] for kv in kernel]) for i in range(n))
            rhs = ref_dot(row, at) + rng.choice((0, 1, F(1, 2), 3, -1, -F(1, 3), -2))
            c = rng.choice((1, 2, 6))
            g.append(tuple(c * x for x in row))
            h.append(c * rhs)
        ref = ref_face_point(z0, kernel, g, h)
        got = face_of(z0, kernel, g, h).feasible_point(Work())
        assert got == ref, (z0, kernel, g, h)
        assert got is None or all_fractions([got])
        answers[got is not None] += 1
    assert answers[True] >= 2000 and answers[False] >= 500, answers


def test_face_qp_matches_fraction_face_walk(monkeypatch):
    # every face reaches the feasibility step with the value, point,
    # stationary directions and rows of the Fraction walk, in lexicographic
    # order of the subsets, and the answer is the least face over all of
    # them, also where a convex walk stops early
    least_face = cone_qp._least_face
    streams = []

    def recording(faces, work):
        # every face is built, also those the solver skips
        faces = list(faces)
        built = [(key, value, build()) for key, value, build in faces]
        streams.append(
            [(key, value, f.point(), [primitive_ints(k) for k in f.kernel], f.rows) for key, value, f in built]
        )
        return least_face(faces, work)

    monkeypatch.setattr(cone_qp, "_least_face", recording)
    found = missing = lines = 0
    for q, p in _qp_cases():
        got = cone_qp._face_walk(q, p)
        ref = sorted(ref_faces(q, p), key=lambda face: face[0])
        assert streams.pop() == [(key, value, *face_parts(*face)) for key, value, *face in ref], (q, p)
        faces = ((key, value, lambda face=face: face_of(*face)) for key, value, *face in ref)
        best = least_face(faces, Work())
        assert got == (None if best is None else (best[0], best[2])), (q, p)
        if got is None:
            missing += 1
        else:
            found += 1
            assert type(got[0]) is Fraction and all_fractions([got[1]])
        lines += any(face[3] for face in ref)
    assert found >= 400 and missing >= 100 and lines >= 300


# ---------------------------------------------------------------------------
# the simplex
# ---------------------------------------------------------------------------


def _lp_cases():
    rng = random.Random(20261021)
    cases = []
    for k in range(700):
        n = rng.randint(1, 4)
        m = rng.randint(1, 7)
        a = [[_rational(rng, -3, 3) for _ in range(n)] for _ in range(m)]
        center = [F(rng.randint(-2, 2)) for _ in range(n)]
        if k % 3:  # feasible through center, with some rows tight there
            b = [ref_dot(row, center) + rng.choice((0, 0, 1, F(1, 2), 3)) for row in a]
        else:  # often infeasible
            b = [_rational(rng) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:  # a redundant duplicate row
            a[-1], b[-1] = list(a[0]), b[0]
        if m > 2 and rng.random() < 0.2:  # a rescaled duplicate, negative b
            a[1] = [F(-2) * x for x in a[0]]
            b[1] = F(-2) * b[0] - rng.randint(0, 1)
        if k % 5 == 0:
            c = [ZERO] * n
        else:
            c = [_rational(rng, -2, 2) for _ in range(n)]
        cases.append((tuple(map(tuple, a)), tuple(b), tuple(c)))
    return cases


def test_simplex_matches_fraction_tableau():
    ties = {"ratio": 0, "driven_out": 0, "entries": 0}
    statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    negative_b = zero_c = 0
    for a, b, c in _lp_cases():
        work = Work()
        got = lp_solve(a, b, c, work)
        ref = ref_lp_solve(a, b, c, ties)
        assert (got.status, got.x, got.value, got.ray, got.farkas) == ref, (a, b, c)
        # the same pivots on the same rows, so the same charges
        assert work.units == ties["entries"] * polyhedra.LP_ENTRY_UNITS
        for v in (got.x, got.ray, got.farkas):
            assert v is None or all_fractions([v])
        assert got.value is None or type(got.value) is Fraction
        statuses[got.status] += 1
        negative_b += any(x < 0 for x in b)
        zero_c += not any(c)
    assert min(statuses.values()) >= 60, statuses
    assert ties["ratio"] >= 300 and ties["driven_out"] >= 30, ties
    assert negative_b >= 300 and zero_c >= 100

