"""Tests for the exact polyhedral layer: conversion, projection, polarity, LP."""

import random
import time
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from fwsets import polyhedra
from fwsets.errors import DimensionMismatchError, SizeCapError
from fwsets.linalg import dot, int_kernel_basis, int_primitive, int_rref, mat, primitive, vec, zeros
from fwsets.motzkin import MotzkinSet, PolytopeK
from fwsets.polyhedra import (
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    cone_h_to_v,
    cone_v_to_h,
    dd_convert,
    int_cone_h_to_v,
    intersect,
    lp_solve,
    minkowski_sum,
    polar_cone,
    project_fm,
    recession_cone,
    vpoly_contains,
)

F = Fraction


def hp(rows, rhs, dim=None):
    return HPolyhedron(rows, rhs, dim)


def as_set(vectors):
    return {tuple(v) for v in vectors}


# ---------------------------------------------------------------------------
# dd_convert
# ---------------------------------------------------------------------------


def test_orthant_h_to_v():
    p = hp([[-1, 0], [0, -1]], [0, 0])
    v = dd_convert(p)
    assert as_set(v.vertices) == {(0, 0)}
    assert as_set(v.rays) == {(1, 0), (0, 1)}
    assert not v.lineality


def test_simplex_v_to_h():
    v = VPolyhedron([(0, 0), (1, 0), (0, 1)])
    h = dd_convert(v)
    # {x >= 0, x1 + x2 <= 1} up to row scaling
    pts_in = [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))]
    pts_out = [(-F(1, 100), 0), (F(3, 4), F(3, 8)), (1, 1)]
    for p in pts_in:
        assert h.contains(vec(p))
    for p in pts_out:
        assert not h.contains(vec(p))


def test_unbounded_h_to_v_vertex_enumeration():
    # {x1 >= 0, x2 >= 0, x1 + x2 >= 1}; oracle below solves all 2x2 active
    # subsystems of the three rows and keeps the feasible ones
    rows = [[-1, 0], [0, -1], [-1, -1]]
    rhs = [0, 0, -1]
    p = hp(rows, rhs)
    expected_vertices = set()
    import itertools

    for i, j in itertools.combinations(range(3), 2):
        a = ((F(rows[i][0]), F(rows[i][1])), (F(rows[j][0]), F(rows[j][1])))
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det == 0:
            continue
        b = (F(rhs[i]), F(rhs[j]))
        x = (
            (b[0] * a[1][1] - a[0][1] * b[1]) / det,
            (a[0][0] * b[1] - b[0] * a[1][0]) / det,
        )
        if p.contains(x):
            expected_vertices.add(x)
    v = dd_convert(p)
    assert as_set(v.vertices) == expected_vertices == {(1, 0), (0, 1)}
    assert as_set(v.rays) == {(1, 0), (0, 1)}


def test_empty_h_to_v_has_certificate():
    p = hp([[1], [-1]], [-2, 1])  # x <= -2 and x >= -1
    v = dd_convert(p)
    assert v.is_empty
    lam = v.empty_certificate
    assert lam is not None
    assert all(l >= 0 for l in lam)
    assert lam[0] * 1 + lam[1] * (-1) == 0
    assert lam[0] * (-2) + lam[1] * 1 < 0


def test_whole_space_roundtrip():
    p = HPolyhedron((), (), 2)
    v = dd_convert(p)
    assert not v.is_empty
    back = dd_convert(v)
    for pt in [(0, 0), (5, -7), (F(1, 3), F(2, 9))]:
        assert back.contains(vec(pt))


def test_lineality_recovered():
    # slab 0 <= x1 + x2 <= 1 has lineality along (1, -1)
    p = hp([[1, 1], [-1, -1]], [1, 0])
    v = dd_convert(p)
    assert len(v.lineality) == 1
    l = v.lineality[0]
    assert l[0] + l[1] == 0


def _random_hpoly(rng, n, m):
    rows = []
    rhs = []
    x0 = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    for _ in range(m):
        row = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        if all(c == 0 for c in row):
            row = (F(1),) + row[1:]
        slack = F(rng.randint(0, 5), rng.randint(1, 2))
        rows.append(row)
        rhs.append(dot(row, x0) + slack)
    return HPolyhedron(tuple(rows), tuple(rhs), n)


def _random_point_near(rng, n):
    return tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))


def test_dd_roundtrip_membership_agreement():
    # spec invariant: membership of sampled rational points agrees exactly
    # between the input H-form and H(V(input))
    rng = random.Random(7)
    samples = 0
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        p = _random_hpoly(rng, n, m)
        v = dd_convert(p)
        assert not v.is_empty
        back = dd_convert(v)
        for _ in range(40):
            x = _random_point_near(rng, n)
            assert p.contains(x) == back.contains(x)
            samples += 1
    assert samples == 1000


def test_dd_v_form_membership_matches_h_form():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        p = _random_hpoly(rng, n, m)
        v = dd_convert(p)
        for _ in range(20):
            x = _random_point_near(rng, n)
            assert p.contains(x) == vpoly_contains(v, x)


# ---------------------------------------------------------------------------
# project_fm
# ---------------------------------------------------------------------------


def test_project_orthant_to_first():
    p = hp([[-1, 0], [0, -1]], [0, 0])
    q = project_fm(p, [1])
    assert q.dim == 1
    assert q.contains((F(3),))
    assert not q.contains((F(-1),))


def test_project_simplex_to_second():
    p = hp([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    q = project_fm(p, [2])
    assert q.contains((F(0),)) and q.contains((F(1),)) and q.contains((F(1, 2),))
    assert not q.contains((F(11, 10),)) and not q.contains((F(-1, 10),))


def test_project_to_full_line():
    # {x1 - x2 <= 0, -x1 - x2 <= 0} projects onto coordinate 1 as all of R:
    # its rays (1, 1) and (-1, 1) keep first coordinates 1 and -1, which
    # generate the line, so the image has no constraints
    p = hp([[1, -1], [-1, -1]], [0, 0])
    q = project_fm(p, [1])
    assert len(q.a) == 0
    assert q.contains((F(-100),)) and q.contains((F(100),))


def test_projection_soundness_and_surjectivity():
    # every sampled x in p restricts into the projection; every sampled y of
    # the projection has a preimage (LP feasibility on the lifted system)
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(2, 4)
        m = rng.randint(2, 7)
        p = _random_hpoly(rng, n, m)
        coords = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        proj = project_fm(p, coords)
        v = dd_convert(p)
        for _ in range(10):
            x = _sample_from_v(rng, v)
            if x is None:
                break
            assert proj.contains(tuple(x[c - 1] for c in coords))
        vproj = dd_convert(proj)
        for _ in range(10):
            y = _sample_from_v(rng, vproj)
            if y is None:
                break
            lifted_rows = [list(row) for row in p.a]
            lifted_rhs = list(p.b)
            for k, c in enumerate(coords):
                e = [F(0)] * n
                e[c - 1] = F(1)
                lifted_rows.append(tuple(e))
                lifted_rhs.append(y[k])
                lifted_rows.append(tuple(-v for v in e))
                lifted_rhs.append(-y[k])
            res = lp_solve(tuple(tuple(r) for r in lifted_rows), tuple(lifted_rhs), zeros(n))
            assert res.status == "optimal"


def _sample_from_v(rng, v: VPolyhedron):
    if v.is_empty:
        return None
    x = list(zeros(v.dim))
    weights = [F(rng.randint(0, 4)) for _ in v.vertices]
    if sum(weights) == 0:
        weights[0] = F(1)
    total = sum(weights)
    for w, vert in zip(weights, v.vertices):
        for i in range(v.dim):
            x[i] += w * vert[i] / total
    for r in v.rays:
        t = F(rng.randint(0, 3), rng.randint(1, 2))
        for i in range(v.dim):
            x[i] += t * r[i]
    for l in v.lineality:
        t = F(rng.randint(-3, 3), rng.randint(1, 2))
        for i in range(v.dim):
            x[i] += t * l[i]
    return tuple(x)


# ---------------------------------------------------------------------------
# polar_cone
# ---------------------------------------------------------------------------


def test_polar_orthant_self_dual():
    d = PolyCone.from_generators([(1, 0), (0, 1)])
    pol = polar_cone(d)
    assert pol.contains(vec((1, 0))) and pol.contains(vec((0, 1)))
    assert pol.contains(vec((2, 3)))
    assert not pol.contains(vec((-1, 0)))


def test_polar_of_whole_plane_is_origin():
    d = PolyCone.from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)])
    pol = polar_cone(d)
    assert pol.contains(zeros(2))
    assert not pol.contains(vec((1, 0)))
    assert not pol.contains(vec((0, -1)))


def test_polar_wedge():
    # positive polar of cone{(1,0),(1,1)} is cone{(0,1),(1,-1)}:
    # solve c.g >= 0 for both generators by hand
    d = PolyCone.from_generators([(1, 0), (1, 1)])
    pol = polar_cone(d)
    gens = as_set(pol.generators)
    assert gens == {(0, 1), (1, -1)}


def test_polar_involution():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, 5)
        gens = []
        for _ in range(k):
            g = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            if any(c != 0 for c in g):
                gens.append(g)
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        dd = polar_cone(polar_cone(d))
        for g in d.generators:
            assert dd.contains(g)
        for g in dd.generators:
            assert d.with_halfspaces().contains(g)


# ---------------------------------------------------------------------------
# intersect / minkowski_sum / recession_cone
# ---------------------------------------------------------------------------


def test_recession_cone_examples():
    p = hp([[-1, 0], [0, -1], [-1, -1]], [0, 0, -1])
    d = recession_cone(p)
    assert as_set(d.generators) == {(1, 0), (0, 1)}

    box = hp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
    d2 = recession_cone(box)
    assert not d2.generators


def test_minkowski_sum_of_segments_is_square():
    seg1 = VPolyhedron([(0, 0), (1, 0)])
    seg2 = VPolyhedron([(0, 0), (0, 1)])
    sq = minkowski_sum(seg1, seg2)
    assert as_set(sq.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    h = dd_convert(sq)
    assert h.contains(vec((F(1, 2), F(1, 2))))
    assert not h.contains(vec((F(3, 2), F(1, 2))))


def test_intersect_stacks_rows():
    p = hp([[1, 0]], [1])
    q = hp([[0, 1]], [2])
    r = intersect(p, q)
    assert len(r.a) == 2
    assert r.contains(vec((0, 0)))
    assert not r.contains(vec((2, 0)))


def test_recession_direction_property():
    # d in recession cone  =>  x + t d stays inside, exactly
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        p = _random_hpoly(rng, n, m)
        d = recession_cone(p)
        v = dd_convert(p)
        for g in d.generators:
            for _ in range(5):
                x = _sample_from_v(rng, v)
                t = F(rng.randint(0, 20), rng.randint(1, 3))
                moved = tuple(xi + t * gi for xi, gi in zip(x, g))
                assert p.contains(moved)


# ---------------------------------------------------------------------------
# exact LP
# ---------------------------------------------------------------------------


def test_lp_optimal_on_simplex():
    p = hp([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    res = lp_solve(p.a, p.b, vec((-1, -2)))
    assert res.status == "optimal"
    assert res.value == -2
    assert res.x == (0, 1)


def test_lp_unbounded_gives_improving_ray():
    p = hp([[-1, 0], [0, -1]], [0, 0])
    res = lp_solve(p.a, p.b, vec((-1, 0)))
    assert res.status == "unbounded"
    ray = res.ray
    assert dot(vec((-1, 0)), ray) < 0
    assert all(dot(row, ray) <= 0 for row in p.a)


def test_lp_infeasible_gives_farkas():
    p = hp([[1], [-1]], [-2, 1])
    res = lp_solve(p.a, p.b, zeros(1))
    assert res.status == "infeasible"
    lam = res.farkas
    assert all(l >= 0 for l in lam)
    assert sum(l * row[0] for l, row in zip(lam, p.a)) == 0
    assert sum(l * rhs for l, rhs in zip(lam, p.b)) < 0


def test_lp_with_no_variables_reads_its_right_hand_side():
    # 0 <= b row by row: optimal at the empty point when b >= 0, and
    # infeasible otherwise with the first negative row as Farkas certificate
    res = lp_solve(((), ()), vec((1, 0)), ())
    assert (res.status, res.x, res.value) == ("optimal", (), 0)
    res = lp_solve(((), (), ()), vec((1, -2, -1)), ())
    assert res.status == "infeasible"
    assert res.farkas == (0, 1, 0)
    assert sum(l * rhs for l, rhs in zip(res.farkas, (1, -2, -1))) < 0


def test_lp_random_feasibility_consistency():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 7)
        rows = tuple(
            tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)
        )
        rhs = tuple(F(rng.randint(-4, 4)) for _ in range(m))
        p = HPolyhedron(rows, rhs, n)
        res = lp_solve(rows, rhs, zeros(n))
        if res.status == "optimal":
            assert p.contains(res.x)
        else:
            assert res.status == "infeasible"
            lam = res.farkas
            assert all(l >= 0 for l in lam)
            for j in range(n):
                assert sum(lam[i] * rows[i][j] for i in range(m)) == 0
            assert sum(lam[i] * rhs[i] for i in range(m)) < 0


def feasible_point(p):
    """A point of p, or None when p is empty: the LP with zero cost."""
    res = lp_solve(p.a, p.b, zeros(p.dim))
    return res.x if res.status == "optimal" else None


def test_feasible_point_and_farkas_helpers():
    p = hp([[-1, 0], [0, -1]], [0, 0])
    x = feasible_point(p)
    assert x is not None and p.contains(x)
    # a feasible system has no Farkas witness
    assert lp_solve(p.a, p.b, zeros(2)).farkas is None


def test_size_cap_errors(monkeypatch):
    with pytest.raises(SizeCapError):
        dd_convert(HPolyhedron((), (), 11))
    # 65 copies of x1 <= 1 in R^4: no row count is capped, and the copies
    # cost only their evaluations: the homogenized rows have rank 2 (the
    # lines e2, e3, e4 are never eliminated), and 64 copies each evaluate
    # the 2 seed rays at 2 units an evaluation
    p = HPolyhedron([[1] + [0] * 3] * 65, [1] * 65)
    v = dd_convert(p)
    assert v.vertices == ((1, 0, 0, 0),) and v.rays == ((-1, 0, 0, 0),)
    assert len(v.lineality) == 3
    monkeypatch.setattr(polyhedra, "DD_BUDGET", 64 * 2 * 2 - 1)
    with pytest.raises(SizeCapError):
        dd_convert(p)


def test_conversion_stops_past_the_budget(monkeypatch):
    # the cones over a square and an octagon have 4 and 8 facets; in the
    # square's polar, the fourth generator evaluates 3 seed rays in R^3,
    # 1 positive and 2 negative, and both pairs scan the 3 rays for the
    # adjacency test, so the conversion needs 3 * 3 + 1 * 2 + 2 * 3 = 17
    # units of work
    square = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]
    octagon = [(2, 1, 3), (1, 2, 3), (-1, 2, 3), (-2, 1, 3), (-2, -1, 3), (-1, -2, 3),
               (1, -2, 3), (2, -1, 3)]
    facets = {len(gens): cone_v_to_h(gens, 3) for gens in (square, octagon)}
    for gens, work in ((square, 17), (octagon, 145)):
        monkeypatch.setattr(polyhedra, "DD_BUDGET", work)
        assert cone_v_to_h(gens, 3) == facets[len(gens)]
        monkeypatch.setattr(polyhedra, "DD_BUDGET", work - 1)
        with pytest.raises(SizeCapError):
            cone_v_to_h(gens, 3)


def test_lp_stops_past_the_budget(monkeypatch):
    # min x1 + x2 over x >= 0, x1 + x2 >= 1: the tableau has 3 rows of
    # 2 * 2 + 2 * 3 + 1 = 11 entries; its build charges all 33, and its
    # 3 pivots update 0, 1 and 2 other rows besides the pivot row and the
    # cost row, at LP_ENTRY_UNITS units an entry
    a = ((-1, 0), (0, -1), (-1, -1))
    args = (mat(a), vec((0, 0, -1)), vec((1, 1)))
    work = (33 + (2 + 3 + 4) * 11) * polyhedra.LP_ENTRY_UNITS
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work)
    assert lp_solve(*args).value == 1
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work - 1)
    with pytest.raises(SizeCapError):
        lp_solve(*args)


@pytest.mark.parametrize(
    "rows, d",
    [
        ([(-1, 0), (0, -1)], 2),
        ([(-2, 0), (0, -3), (-1, -1)], 2),
        ([(1, 1, 0)], 3),
        ([(1, 0, -1), (0, 1, -1), (-1, -1, 0)], 3),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], 2),
    ],
    ids=["orthant", "redundant", "half-space", "pointed", "zero"],
)
def test_a_cone_equals_the_cone_of_its_generators(rows, d):
    # a cone compares by its generators alone, so the H-form that
    # from_halfspaces keeps does not tell it from the same generators
    cone = PolyCone.from_halfspaces(rows, d)
    twin = PolyCone.from_generators(cone.generators, d)
    assert cone == twin and hash(cone) == hash(twin)
    assert cone.halfspaces == tuple(dict.fromkeys(primitive(vec(r)) for r in rows if any(r)))
    assert all(map(cone.contains, twin.generators)) and all(map(twin.contains, cone.generators))
    segment = PolytopeK([(0,) * d, (1,) * d])
    assert MotzkinSet(segment, cone) == MotzkinSet(segment, twin)
    assert hash(MotzkinSet(segment, cone)) == hash(MotzkinSet(segment, twin))


@pytest.mark.parametrize(
    "rows",
    [[(1, 2, 3)], [(1,)], [(1, 0), (0, 1, 1)], [(0, 0, 0)]],
    ids=["wide", "narrow", "ragged", "wide zero"],
)
def test_rows_of_another_width_are_refused(rows):
    # the conversions raise at entry instead of returning vectors of the
    # rows' width, raising IndexError or cutting a row short
    for convert in (cone_h_to_v, cone_v_to_h, int_cone_h_to_v):
        with pytest.raises(DimensionMismatchError):
            convert(rows, 2)
    with pytest.raises(DimensionMismatchError):
        PolyCone.from_halfspaces(rows, 2)
    a = tuple((F(1),) * len(r) for r in rows)
    with pytest.raises(DimensionMismatchError):
        lp_solve(a, tuple(F(1) for _ in rows), zeros(2))


def test_a_point_of_another_dimension_is_refused():
    v = dd_convert(hp([(1, 0), (0, 1), (-1, -1)], [1, 1, 0]))
    assert vpoly_contains(v, vec((0, 0)))
    for x in ((0, 0, 0), (0,), ()):
        with pytest.raises(DimensionMismatchError):
            vpoly_contains(v, vec(x))
    with pytest.raises(DimensionMismatchError):
        lp_solve(mat([(1, 0)]), vec((1, 1)), zeros(2))  # b longer than A


def test_sixty_five_facets_convert():
    # 65 tangents 2k x - y <= k^2 of the parabola y = x^2, every one a facet:
    # the count of rows is not capped, only the work
    p = hp([[2 * k, -1] for k in range(-32, 33)], [k * k for k in range(-32, 33)])
    v = dd_convert(p)
    assert len(v.vertices) == 64 and as_set(v.rays) == {(-1, 64), (1, 64)}
    assert len(dd_convert(v).a) == 65


def twelve_gon_product():
    """The product of three 12-gons in R^6, each tangent to the unit circle
    at (+-1, 0), (0, +-1), (+-3/5, +-4/5) and (+-4/5, +-3/5): 36 rows, every
    one a facet, and 12^3 vertices."""
    points = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    points += [(sa * F(a, 5), sb * F(b, 5)) for a, b in ((3, 4), (4, 3)) for sa in (1, -1)
               for sb in (1, -1)]
    rows = [(0,) * 2 * i + u + (0,) * (4 - 2 * i) for i in range(3) for u in points]
    return hp(rows, [1] * len(rows))


def test_conversions_near_the_budget_finish_in_bounded_time():
    # seeded inputs on both sides of the double description budget: each
    # one converts or raises SizeCapError within 20 s (0.2-5 s on a 2-CPU
    # box), whatever its row or generator count
    def moment(count, d):
        ts = range(-(count // 2), count - count // 2)
        return [(1,) + tuple(t**k for k in range(1, d)) for t in ts]

    rng = random.Random(1)
    random_cone = [tuple(rng.randint(-9, 9) for _ in range(5)) + (10,) for _ in range(128)]
    cases = (
        # 24 points on the moment curve in R^7: the cyclic 6-polytope's facets
        (lambda: len(cone_v_to_h(moment(24, 7), 7)), 1520),
        # 40 of them, whose 8,400 facets need more work than the budget
        (lambda: len(cone_v_to_h(moment(40, 7), 7)), None),
        # 128 random points at one height in R^6
        (lambda: len(cone_v_to_h(random_cone, 6)), 1444),
        # the product of three 12-gons, from its 36 rows
        (lambda: len(dd_convert(twelve_gon_product()).vertices), 12**3),
    )
    for convert, size in cases:
        start = time.perf_counter()
        if size is None:
            with pytest.raises(SizeCapError):
                convert()
        else:
            assert convert() == size
        assert time.perf_counter() - start < 20


# ---------------------------------------------------------------------------
# the seed of double description against its earlier form
# ---------------------------------------------------------------------------


def _reference_double_description(rows, d, work):
    """double_description with its seed written as it was before the seed
    ran on int lists: every moved line and ray a tuple made primitive by
    ``linalg.int_primitive``."""
    rows = [int_primitive(r) for r in rows]
    lines = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    rays = []
    seed = []
    for t, a in enumerate(rows):
        vals = [sum(map(mul, a, x)) for x in lines]
        k = next((i for i, v in enumerate(vals) if v), None)
        if k is None:
            continue
        l0, v0 = lines.pop(k), vals.pop(k)
        s = 1 if v0 > 0 else -1
        lines = [_reference_along(x, s * v, l0, abs(v0)) for x, v in zip(lines, vals)]
        rays = [_reference_along(x, s * sum(map(mul, a, x)), l0, abs(v0)) for x in rays]
        rays.append(tuple(-s * y for y in l0))
        seed.append(t)
        if not lines:
            break
    lin = []
    if lines:
        ech = [list(r) for r in rows if any(r)]
        lin = int_kernel_basis(ech, int_rref(ech), d)
        basis = [list(v) for v in lin]
        for p, b in zip(int_rref(basis), basis):
            if b[p] < 0:
                b = [-y for y in b]
            rays = [_reference_along(x, x[p], b, b[p]) for x in rays]

    rank = len(rays)
    all_seed = sum(1 << i for i in seed)
    zero_sets = [all_seed & ~(1 << i) for i in seed]
    for t, row in enumerate(rows):
        bit = 1 << t
        if all_seed & bit or not any(row):
            continue
        vals = [sum(map(mul, row, r)) for r in rays]
        pos_idx = [i for i, v in enumerate(vals) if v > 0]
        neg_idx = [i for i, v in enumerate(vals) if v < 0]
        work.charge(rank * len(vals) + len(pos_idx) * len(neg_idx), "double description")
        if not pos_idx:
            for i, v in enumerate(vals):
                if v == 0:
                    zero_sets[i] |= bit
            continue
        new_rays, new_zsets = [], []
        for i, v in enumerate(vals):
            if v <= 0:
                new_rays.append(rays[i])
                new_zsets.append(zero_sets[i] | bit if v == 0 else zero_sets[i])
        for p in pos_idx:
            for q in neg_idx:
                common = zero_sets[p] & zero_sets[q]
                if common.bit_count() < rank - 2:
                    continue
                work.charge(len(zero_sets), "double description")
                for k, zs in enumerate(zero_sets):
                    if common & zs == common and k != p and k != q:
                        break
                else:
                    vp, vq, rp, rq = vals[p], vals[q], rays[p], rays[q]
                    combo = [vp * y - vq * x for x, y in zip(rp, rq)]
                    g = gcd(*combo)
                    if g:
                        new_rays.append(tuple(x // g for x in combo))
                        new_zsets.append(common | bit)
        rays, zero_sets = new_rays, new_zsets
    return rays, lin, zero_sets


def _reference_along(x, f, l, c):
    return x if not f else int_primitive([c * y - f * z for y, z in zip(x, l)])


def _dd_row_sets(rng, count):
    """Seeded integer row sets of widths 1-6: random rows, some confined to
    a subspace (so the cone has lines), with zero, repeated and rescaled
    rows mixed in, and some rows of 40-digit entries."""
    cases = []
    for _ in range(count):
        d = rng.randint(1, 6)
        m = rng.randint(0, 2 * d + 3)
        if rng.random() < 0.3:  # rows in a subspace of dimension < d: lines
            span = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, max(1, d - 1)))]
            rows = [[sum(rng.randint(-2, 2) * v[j] for v in span) for j in range(d)] for _ in range(m)]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
        if rows and rng.random() < 0.3:  # a repeated row and a rescaled one
            rows.append(list(rng.choice(rows)))
            rows.append([rng.choice((2, 3, -1, -5)) * x for x in rng.choice(rows)])
        if rows and rng.random() < 0.15:  # 40-digit entries
            big = rng.randrange(10**39, 10**40)
            rows[rng.randrange(len(rows))] = [x * big + rng.randint(-1, 1) for x in rows[0]]
        for _ in range(rng.choice((0, 0, 1, 2))):
            rows.insert(rng.randint(0, len(rows)), [0] * d)
        rng.shuffle(rows)
        cases.append(([tuple(r) if rng.random() < 0.5 else r for r in rows], d))
    return cases


def test_double_description_matches_its_earlier_seed():
    # rays in order, the lineality basis, the zero sets and the work charged
    # are those of the seed written on tuples, so that no refusal moves
    seen = {"lines": 0, "lines and rays": 0, "zero rows": 0, "40 digits": 0, "many rays": 0}
    for rows, d in _dd_row_sets(random.Random(20261022), 2400):
        work, ref_work = polyhedra.Work(), polyhedra.Work()
        got = polyhedra.double_description(rows, d, work)
        ref = _reference_double_description(rows, d, ref_work)
        assert got == ref, (rows, d)
        assert work.units == ref_work.units, (rows, d)
        assert all(type(r) is tuple for r in got[0] + got[1]), (rows, d)
        seen["lines"] += bool(got[1])
        seen["lines and rays"] += bool(got[1]) and len(got[0]) > 1
        seen["zero rows"] += any(not any(r) for r in rows)
        seen["40 digits"] += any(abs(x) >= 10**39 for r in rows for x in r)
        seen["many rays"] += len(got[0]) > d
    assert min(seen.values()) >= 100, seen
