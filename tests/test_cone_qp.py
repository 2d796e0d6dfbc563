"""Tests for cone quadratic programs: domains, pieces, exact minimization."""

import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from fwsets import cone_qp, polyhedra
from fwsets.cone_qp import (
    ConeProgram,
    dom_f,
    is_bounded_below_on_cone,
    minimize_on_polyhedral_cone,
    minimize_over_hpolyhedron,
    nonneg_form_on_cone,
    value_function_eval,
    zero_set_pieces,
)
from fwsets.errors import DimensionMismatchError, FwsetsError, NotInDomainError, SizeCapError
from fwsets.linalg import (
    LinearSystem,
    basis_of_span,
    dot,
    identity,
    matvec,
    primitive,
    primitive_ints,
    unit,
    vadd,
    vec,
    vscale,
    zeros,
)
from fwsets.polyhedra import (
    HPolyhedron,
    PolyCone,
    Work,
    cone_h_to_v,
    int_cone_h_to_v,
    lp_solve,
    same_cone,
)
from fwsets.quadratics import Quadratic, is_psd

F = Fraction


def orthant(n):
    return PolyCone.from_generators([tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])


def zero_matrix(n):
    return tuple(zeros(n) for _ in range(n))


def _nonneg_rows(k, width):
    """``-z_i <= 0`` for the first k of ``width`` coordinates."""
    return tuple(vscale(F(-1), unit(width, i)) for i in range(k)), zeros(k)


def _face_of(z0, kernel, g, h):
    """The face solver's set ``z0 + span(kernel)`` with rows ``g z <= h``,
    given in Fractions, on ints: the point over one denominator, each
    direction as its primitive integers and the rows at one common scale."""
    den = lcm(*(x.denominator for x in z0))
    num = [x.numerator * (den // x.denominator) for x in z0]
    scale = lcm(*(x.denominator for row in g for x in row), *(x.denominator for x in h))
    ints = [[x.numerator * (scale // x.denominator) for x in (*row, hi)] for row, hi in zip(g, h)]
    rows = tuple((row[:-1], row[-1]) for row in ints)
    return cone_qp._Face(num, den, [primitive_ints(kv) for kv in kernel], rows)


def _feasible_point(z0, kernel, g, h, work):
    """A point of ``z0 + span(kernel)`` with ``g z <= h``, or None: the
    face ladder on a set given in Fractions."""
    return _face_of(z0, kernel, g, h).feasible_point(work)


# ---------------------------------------------------------------------------
# boundedness and dom(f)
# ---------------------------------------------------------------------------


def test_linear_bounded_on_orthant():
    res = is_bounded_below_on_cone(vec((1, 1)), zero_matrix(2), orthant(2))
    assert res.bounded


def test_linear_unbounded_on_orthant_with_certificate():
    res = is_bounded_below_on_cone(vec((-1, 0)), zero_matrix(2), orthant(2))
    assert not res.bounded
    x = res.certificate
    assert dot(vec((-1, 0)), x) < 0
    assert dot(x, matvec(zero_matrix(2), x)) == 0
    assert res.kind == "negative_slope"


def test_negative_form_empties_domain():
    g = ((F(-2), F(0)), (F(0), F(0)))  # x -> -x1^2 on the orthant
    dom = dom_f(g, orthant(2))
    assert dom.is_empty
    ray = dom.negative_ray
    assert dot(ray, matvec(g, ray)) < 0
    # any linear term is unbounded below
    for c in [(0, 0), (1, 1), (-3, 5)]:
        res = is_bounded_below_on_cone(vec(c), g, orthant(2))
        assert not res.bounded and res.kind == "negative_curvature"


def test_identity_form_gives_full_domain():
    g = ((F(2), F(0)), (F(0), F(2)))
    dom = dom_f(g, orthant(2))
    assert not dom.is_empty
    # zero set is trivial, so every linear term is admissible
    for c in [(5, -7), (-1, -1), (0, 0)]:
        assert dom.contains(vec(c))
        assert is_bounded_below_on_cone(vec(c), g, orthant(2)).bounded


def test_empty_cone_domain_reads_no_form(monkeypatch):
    # D = {0} has no negative ray and no zero-set ray, so dom(f) is the
    # whole space for any form, an indefinite one included, without testing
    # the form or listing a face
    def refused(*args):
        raise AssertionError("the form was tested or a face listed")

    monkeypatch.setattr(cone_qp, "_face_pairs", refused)
    monkeypatch.setattr(cone_qp, "int_is_pd", refused)
    g = ((F(1), F(0), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(0)))
    dom = dom_f(g, PolyCone((), 3))
    assert dom == cone_qp.DomF((), 3)
    assert dom.contains(vec((5, -7, 1)))


def test_zero_form_domain_is_polar():
    dom = dom_f(zero_matrix(2), orthant(2))
    assert dom.contains(vec((1, 2)))
    assert not dom.contains(vec((-1, 2)))
    assert not dom.contains(vec((0, -1)))


def test_rank_one_form_domain_halfplane():
    # G = diag(1, 0): zero set of the form on the orthant is the u2 axis,
    # so dom(f) = {c : c2 >= 0}; brute-force ray sampling agrees
    g = ((F(1), F(0)), (F(0), F(0)))
    dom = dom_f(g, orthant(2))
    rng = random.Random(0)
    for _ in range(100):
        c = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        member = dom.contains(c)
        assert member == (c[1] >= 0)
        # ray sampling: the axis direction decides boundedness
        res = is_bounded_below_on_cone(c, g, orthant(2), dom=dom)
        assert res.bounded == member


def test_zero_set_pieces_cover_and_satisfy_equations():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = rng.randint(1, 4)
        gens = []
        for _ in range(p):
            g = tuple(F(rng.randint(-2, 3)) for _ in range(n))
            if any(x != 0 for x in g):
                gens.append(g)
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g_mat = Quadratic.build(raw).a
        ok, _ = nonneg_form_on_cone(g_mat, d)
        if not ok:
            continue
        pieces = zero_set_pieces(g_mat, d)
        z_cols = d.generators
        h = tuple(
            tuple(dot(gi, matvec(g_mat, gj)) for gj in z_cols) for gi in z_cols
        )
        pp = len(z_cols)
        for piece in pieces:
            for u in piece.generators:
                assert all(x >= 0 for x in u)
                hu = matvec(h, u)
                assert dot(u, hu) == 0
                for i in piece.index_set:
                    assert u[i] == 0
                for j in range(pp):
                    if j not in piece.index_set:
                        assert hu[j] == 0
        # coverage: sampled zero-set points fall into some piece
        for _ in range(50):
            u = tuple(F(rng.randint(0, 3)) for _ in range(pp))
            hu = matvec(h, u)
            if dot(u, hu) != 0:
                continue
            assert any(
                PolyCone(piece.generators, pp).with_halfspaces().contains(u) for piece in pieces
            ) or all(x == 0 for x in u)


def _definition_rays(h, idx):
    """The rays of P_I by its definition: one double description on the 3p
    rows ``u >= 0, H u >= 0, u_I <= 0, (H u)_F <= 0``."""
    p = len(h)
    rows = [vscale(F(-1), unit(p, j)) for j in range(p)]
    rows += [vscale(F(-1), h[j]) for j in range(p)]
    rows += [unit(p, i) for i in idx]
    rows += [h[j] for j in range(p) if j not in idx]
    rays, lin = cone_h_to_v(rows, p)
    assert not lin
    return set(rays)


def _form_matrix(g_mat, d):
    """``H = Z^T G Z`` for the cone's generators."""
    return tuple(tuple(dot(gi, matvec(g_mat, gj)) for gj in d.generators) for gi in d.generators)


def _reference_pieces(g_mat, d):
    """The pieces by their definition, one per index set I over all subsets,
    pieces with an earlier ray set dropped, as ``(index_set, set of rays)``."""
    h = _form_matrix(g_mat, d)
    pieces, seen = [], set()
    for size in range(len(h) + 1):
        for idx in itertools.combinations(range(len(h)), size):
            rays = _definition_rays(h, idx)
            if rays and frozenset(rays) not in seen:
                seen.add(frozenset(rays))
                pieces.append((frozenset(idx), rays))
    return pieces


def _lifted_independent(d):
    """Whether the vectors ``(z_j, 1)`` are independent: conv(Z) is then a
    simplex, and every index set is a face."""
    return len(basis_of_span([g + (F(1),) for g in d.generators], d.dim + 1)) == len(d.generators)


def _walk_rows(pieces, d):
    """dom(f)'s rows read off the walk's pieces: ``-Z u`` over their rays u,
    made primitive, with zero rows and repeats dropped."""
    z = tuple(zip(*d.generators))
    rows = (primitive(vscale(F(-1), matvec(z, u))) for pc in pieces for u in pc.generators)
    return tuple(dict.fromkeys(h for h in rows if any(h)))


def _check_pieces_and_domain(dom, pieces, ref_cone, g_mat, d):
    """Each piece of the zero-set walk is the one its index set defines, and
    dom(f) is the reference cone."""
    h = _form_matrix(g_mat, d)
    for pc in pieces:
        assert set(pc.generators) == _definition_rays(h, pc.index_set), (g_mat, d, pc.index_set)
    assert same_cone(PolyCone.from_halfspaces(dom.rows, dom.dim), ref_cone), (g_mat, d)


def test_zero_set_pieces_match_their_definition():
    # G = diag(1, 0) on the orthant: P_{} and P_{0} are both the u_2 axis,
    # so the repeat is dropped
    g_mat = ((F(1), F(0)), (F(0), F(0)))
    pieces = zero_set_pieces(g_mat, orthant(2))
    expected = [(frozenset(), {(F(0), F(1))})]
    assert _reference_pieces(g_mat, orthant(2)) == expected
    assert [(pc.index_set, set(pc.generators)) for pc in pieces] == expected

    rng = random.Random(31)
    counts = {"gram": 0, "zero_diagonal": 0, "strictly_copositive": 0}
    singular_with_pieces = multi_ray_pieces = simplices = 0
    for trial in range(60):
        kind = list(counts)[trial % 3]
        n = rng.randint(1, 3)
        p = rng.randint(1, 5)
        if kind == "gram":
            # PSD (Gram) form on an arbitrary cone
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
            raw = [[2 * sum(r[i] * r[j] for r in m) for j in range(n)] for i in range(n)]
            gens = [tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(p)]
        elif kind == "zero_diagonal":
            # nonnegative off-diagonal form on the orthant, with the
            # coordinate axes among the generators: each has u.H u = 0
            raw = [[0 if i == j else rng.randint(0, 2) for j in range(n)] for i in range(n)]
            gens = [unit(n, i) for i in range(n)]
            gens += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(p - n)]
        else:
            # positive definite form on a pointed cone (x_0 > 0 on every generator)
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            raw = [
                [2 * sum(r[i] * r[j] for r in m) + 2 * (i == j) for j in range(n)]
                for i in range(n)
            ]
            gens = [(rng.randint(1, 3),) + tuple(rng.randint(-2, 2) for _ in range(n - 1))
                    for _ in range(p)]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        g_mat = Quadratic.build(raw).a
        assert nonneg_form_on_cone(g_mat, d)[0]
        counts[kind] += 1
        pieces = zero_set_pieces(g_mat, d)
        reference = _reference_pieces(g_mat, d)
        dom = dom_f(g_mat, d)
        assert dom.rows == _walk_rows(pieces, d)
        if _lifted_independent(d):
            assert [(pc.index_set, set(pc.generators)) for pc in pieces] == reference
            simplices += 1
        else:
            z = tuple(zip(*d.generators))
            rows = [vscale(F(-1), matvec(z, u)) for _, rays in reference for u in rays]
            _check_pieces_and_domain(dom, pieces, PolyCone.from_halfspaces(rows, n), g_mat, d)
        if kind == "strictly_copositive":
            assert not pieces and not dom.rows
            for _ in range(20):
                assert dom.contains(tuple(F(rng.randint(-5, 5)) for _ in range(n)))
        else:
            singular_with_pieces += bool(pieces)
            multi_ray_pieces += sum(len(pc.generators) > 1 for pc in pieces)
    assert min(counts.values()) >= 10
    assert singular_with_pieces >= 20
    # pieces whose kernel double description runs in two or more coordinates
    assert multi_ray_pieces >= 10
    # both comparisons run: list equality on simplices, piece by piece otherwise
    assert simplices >= 10 and sum(counts.values()) - simplices >= 10


def _pieces_walk(c, g_mat, d):
    """Reference boundedness test: walk the zero-set pieces and return the
    first ray ``x = Z u`` with ``c . x < 0``."""
    nonneg, ray = nonneg_form_on_cone(g_mat, d)
    if not nonneg:
        return False, ray, "negative_curvature"
    z = tuple(zip(*d.generators))
    for piece in zero_set_pieces(g_mat, d):
        for u in piece.generators:
            x = matvec(z, u)
            if dot(c, x) < 0:
                return False, primitive(x), "negative_slope"
    return True, None, None


def test_boundedness_from_domain_rows_matches_pieces_walk():
    rng = random.Random(20261018)
    kinds = ("gram", "indefinite", "copositive", "zero")
    outcomes = {"bounded": 0, "negative_slope": 0, "negative_curvature": 0}
    with_lines = 0
    for trial in range(80):
        n = rng.randint(1, 4)
        kind = kinds[trial % 4]
        if kind == "gram":
            # rank below n: PSD and singular
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
            raw = [[2 * sum(r[i] * r[j] for r in m) for j in range(n)] for i in range(n)]
        elif kind == "indefinite":
            raw = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    raw[i][j] = raw[j][i] = rng.randint(-2, 2)
        elif kind == "copositive":
            raw = [[0 if i == j else rng.randint(0, 2) for j in range(n)] for i in range(n)]
        else:
            raw = [[0] * n for _ in range(n)]
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        if trial % 3 == 0:
            gens.append(tuple(-x for x in gens[0]))
            with_lines += 1
        d = PolyCone.from_generators(gens, n)
        g_mat = Quadratic.build(raw).a
        dom = dom_f(g_mat, d)
        for _ in range(6):
            c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            ref = _pieces_walk(c, g_mat, d)
            for got in (is_bounded_below_on_cone(c, g_mat, d),
                        is_bounded_below_on_cone(c, g_mat, d, dom=dom)):
                assert (got.bounded, got.certificate, got.kind) == ref, (raw, gens, c)
            outcomes[ref[2] or "bounded"] += 1
    assert min(outcomes.values()) >= 40
    assert with_lines >= 20


def _first_axis_free(n):
    """diag(0, 1, ..., 1): PSD and singular, so dom(f) lists the faces."""
    return tuple(tuple(F(int(i == j > 0)) for j in range(n)) for i in range(n))


def test_face_budget_precedes_elimination(monkeypatch):
    # a hull whose faces cost more to list than the work budget is refused
    # before any block H_FF is eliminated; a positive definite form needs
    # no faces for dom(f), and answers with no rows
    def no_elimination(m, ncols):
        raise AssertionError("a block was eliminated before the budget check")

    # 22 affinely independent generators in R^21: a simplex, whose 2^22
    # faces at 22 units each pass the budget on their count alone
    simplex = PolyCone.from_generators([unit(21, i) for i in range(21)] + [(-1,) * 21])
    rng = random.Random(5)
    # 24 random points at height 10 in R^9: closing their facets' incidence
    # sets under intersection passes the budget
    hull = PolyCone.from_generators(
        [tuple(rng.randint(-9, 9) for _ in range(8)) + (10,) for _ in range(24)]
    )
    # 64 points (1, t, ..., t^9) on the moment curve in R^10: their hull,
    # a cyclic 9-polytope, has 910,252 facets, so the conversion stops at
    # its work budget instead of listing them
    moment = PolyCone.from_generators(
        [(1,) + tuple(t**k for k in range(1, 10)) for t in range(-32, 32)]
    )
    with monkeypatch.context() as patch:
        patch.setattr(cone_qp, "LinearSystem", no_elimination)
        g = _first_axis_free(21)
        for call in (
            lambda: dom_f(g, simplex),
            lambda: is_bounded_below_on_cone(zeros(21), g, simplex),
            lambda: nonneg_form_on_cone(g, simplex),
            lambda: zero_set_pieces(g, simplex),
            lambda: ConeProgram(g, simplex).minimize(zeros(21)),
        ):
            with pytest.raises(SizeCapError):
                call()
        for d in (simplex, hull, moment):
            start = time.perf_counter()
            with pytest.raises(SizeCapError):
                dom_f(_first_axis_free(d.dim), d)
            assert time.perf_counter() - start < 20
            for dom in (dom_f(identity(d.dim), d), ConeProgram(identity(d.dim), d).dom):
                assert not dom.is_empty and dom.rows == ()
            # a negative diagonal entry of H empties dom(f) before any face
            # is listed
            neg = tuple(vscale(F(-1), row) for row in identity(d.dim))
            for dom in (dom_f(neg, d), ConeProgram(neg, d).dom):
                assert dom.negative_ray == d.generators[0] and dom.rows == ()
    # 11 affinely independent generators in R^10: a simplex, every one of
    # whose 2^11 generator subsets is a face
    simplex = PolyCone.from_generators([unit(10, i) for i in range(10)] + [(-1,) * 10])
    assert len(ConeProgram(identity(10), simplex).faces(Work())) == 2**11
    # 13 generators on a segment: only the 4 faces of conv are walked, the
    # empty one, two ends and the segment, not 2^13 subsets, in
    # lexicographic order of the active set
    d = PolyCone.from_generators([(1, k, 0) for k in range(13)], 3)
    assert [free for _, free in ConeProgram(identity(3), d).faces(Work())] == [
        tuple(range(13)), (12,), (), (0,)
    ]
    dom = dom_f(identity(3), d)
    assert not dom.is_empty and not zero_set_pieces(identity(3), d) and dom.rows == ()


def test_positive_definite_form_signs_without_faces(monkeypatch):
    # x.x > 0 off the origin, so the sign test of the identity on the
    # simplex cone of 22 generators in R^21 lists none of its 2^22 faces and
    # eliminates no block
    def no_elimination(m, ncols):
        raise AssertionError("a block was eliminated")

    simplex = PolyCone.from_generators([unit(21, i) for i in range(21)] + [(-1,) * 21])
    monkeypatch.setattr(cone_qp, "LinearSystem", no_elimination)
    start = time.perf_counter()
    assert nonneg_form_on_cone(identity(21), simplex) == (True, None)
    assert time.perf_counter() - start < 2


def test_convex_program_meets_the_apex_early(monkeypatch):
    # the orthant in R^14 under |x|^2/2 + 1.x: c.z > 0 for every generator,
    # so the minimum is the apex x = 0, value 0, with every generator active.
    # The lexicographic walk meets it as its 15th face, (), (0,), (0, 1), ...;
    # a walk by active-set size would meet it last of 2^14 and be refused
    eliminated = []

    def counted(m, ncols):
        eliminated.append(len(m))
        return real(m, ncols)

    real = cone_qp.LinearSystem
    monkeypatch.setattr(cone_qp, "LinearSystem", counted)
    orthant = PolyCone.from_generators([unit(14, i) for i in range(14)])
    start = time.perf_counter()
    verdict = ConeProgram(identity(14), orthant).minimize(vec((1,) * 14))
    assert time.perf_counter() - start < 2
    assert verdict.kind == "attained" and verdict.value == 0
    assert verdict.point == zeros(14) and verdict.active_set == tuple(range(14))
    assert eliminated == list(range(14, -1, -1))


def test_dom_f_stops_past_the_budget(monkeypatch):
    # x1^2 on the orthant in R^2, units counted by hand: listing the 4 faces
    # of the simplex conv(e1, e2) costs 2 units each (8); H is PSD, and its
    # test is charged as one elimination of the 2 x 2 matrix H at 4 r^2 c
    # (32); the block [H | I] of the zero set's one piece P_0 costs
    # 4 k^2 (2k) (64); its kernel N and the rows -N are 2 k (dim ker) = 4
    # Fractions (120), its one ray 2 k (dim ker) = 4 more (120), and that
    # ray's row 2 n p = 8 Fractions to map through Z (240), 30 units a
    # Fraction; the conversion is one-dimensional and costs nothing
    d = orthant(2)
    g = ((F(1), F(0)), (F(0), F(0)))
    work = 8 + 32 + 64 + 120 + 120 + 240
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work)
    assert dom_f(g, d).rows == ((F(0), F(-1)),)
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work - 1)
    with pytest.raises(SizeCapError):
        dom_f(g, d)


def test_dom_f_walk_stops_past_the_budget(monkeypatch):
    # 2 x1 x2 on the orthant in R^2 is copositive but not PSD, so dom(f)
    # takes the sign test and the zero-set walk; units counted by hand: the
    # 4 faces (8) and the PSD test (32) as above; the sign test eliminates
    # [H_FF | I] at 4 k^2 (2k) units (64, 8, 8, 0) and solves at k^2
    # (4, 1, 1, 0) (86 in all), and finds s = 2 > 0 on the one consistent
    # face; the walk reads the kernels of the free sets {2} and {1}, at
    # 2 k (dim ker) = 2 Fractions for N and -N and 2 for the one ray of each
    # (240); the two rays cost 2 n p = 8 Fractions each to map through Z
    # (480), 30 units a Fraction; the conversions are one-dimensional
    d = orthant(2)
    g = ((F(0), F(1)), (F(1), F(0)))
    assert not is_psd(g) and nonneg_form_on_cone(g, d) == (True, None)
    work = 8 + 32 + 86 + 240 + 480
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work)
    assert dom_f(g, d).rows == ((F(0), F(-1)), (F(-1), F(0)))
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work - 1)
    with pytest.raises(SizeCapError):
        dom_f(g, d)


def test_each_cone_query_has_its_own_budget(monkeypatch):
    # the first query of a program also pays for dom(f) and the blocks, the
    # later ones only for their walk; under a budget equal to the costliest
    # query one program answers 50 queries, which together cost far more
    units = []

    class Recording(Work):
        def __init__(self):
            super().__init__()
            units.append(self)

    rng = random.Random(16)
    d = PolyCone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 2), (-1, 1, 3)], 3)
    g = Quadratic.build([[2, 1, 0], [1, 2, 0], [0, 0, 0]]).a
    cs = [vec([rng.randint(-3, 3) for _ in range(3)]) for _ in range(50)]
    with monkeypatch.context() as patch:
        patch.setattr(cone_qp, "Work", Recording)
        prog = ConeProgram(g, d)
        expected = [prog.minimize(c) for c in cs]
    costs = [w.units for w in units]
    assert len(costs) == 50 and sum(costs) > 5 * max(costs)
    monkeypatch.setattr(polyhedra, "DD_BUDGET", max(costs))
    prog = ConeProgram(g, d)
    assert [prog.minimize(c) for c in cs] == expected
    assert {v.kind for v in expected} == {"attained", "unbounded"}


def _reference_simplex_min(h):
    """``min {u.H u : u >= 0, sum u = 1}`` by bordered systems, independent
    of the sign test: on each support F, ``2 H_FF u_F = nu e, e.u_F = 1``
    in ``(u_F, nu)`` pins the value at nu/2; the least ``(value, (|F|, F))``
    with a nonnegative solution wins.  Returns the value, F, u_F and whether
    some singular block also carries a point of negative value."""
    p = len(h)
    faces = []
    for size in range(1, p + 1):
        g, zero = _nonneg_rows(size, size + 1)
        rhs = zeros(size) + (F(1),)
        for support in itertools.combinations(range(p), size):
            rows = tuple(
                tuple(2 * h[a][b] for b in support) + (F(-1),) for a in support
            ) + ((F(1),) * size + (F(0),),)
            system = LinearSystem(rows, size + 1)
            z0 = system.solve(rhs)
            if z0 is not None:
                faces.append(((size, support), z0[size] / 2, z0, system.kernel, g, zero))
    value, (size, support), z = cone_qp._least_face(
        ((key, v, lambda face=face: _face_of(*face)) for key, v, *face in faces), Work()
    )
    singular = any(
        v < 0 and kernel and _feasible_point(z0, kernel, g, zero, Work()) is not None
        for _, v, z0, kernel, g, zero in faces
    )
    return value, support, z[:size], singular


def _reference_form_sign(g, d):
    """(sign, negative ray, how the sign was found) by the bordered walk."""
    gens = d.generators
    gz = [matvec(g, gen) for gen in gens]
    h = tuple(tuple(dot(gi, gzj) for gzj in gz) for gi in gens)
    if not gens:
        return 1, None, "strict"
    for i, gen in enumerate(gens):
        if h[i][i] < 0:
            return -1, gen, "diagonal"
    value, support, u_f, singular = _reference_simplex_min(h)
    if value >= 0:
        return (1, None, "strict") if value > 0 else (0, None, "pieces")
    x = tuple(sum((gens[j][i] * u for j, u in zip(support, u_f)), F(0)) for i in range(d.dim))
    return -1, primitive(x), "singular" if singular else "walk"


def test_sign_test_matches_bordered_simplex_reference():
    # negative forms found on the diagonal, by the walk, and by the walk with
    # a singular block among the negative candidates; nonnegative forms with
    # and without zero-set pieces
    rng = random.Random(9)
    kinds = ("gram", "shifted_gram", "indefinite", "zero_diagonal", "zero")
    outcomes = dict.fromkeys(("diagonal", "walk", "singular", "pieces", "strict"), 0)
    with_lines = 0
    for trial in range(320):
        n = rng.randint(2 if trial % 3 == 1 else 1, 3)
        kind = kinds[trial % 5]
        raw = [[0] * n for _ in range(n)]
        if kind in ("gram", "shifted_gram"):
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
            shift = rng.randint(-2, 0) if kind == "shifted_gram" else 0
            raw = [[2 * sum(r[i] * r[j] for r in m) + 2 * shift * (i == j) for j in range(n)]
                   for i in range(n)]
        elif kind == "indefinite":
            for i in range(n):
                for j in range(i, n):
                    raw[i][j] = raw[j][i] = rng.randint(-2, 2)
        elif kind == "zero_diagonal":
            for i in range(n):
                for j in range(i + 1, n):
                    raw[i][j] = raw[j][i] = rng.randint(-2, 2)
        if trial % 3 == 1:
            # generators on the hyperplane x_0 = 1, away from the axis: their
            # dependencies have coefficient sum 0, so e can meet the range of
            # a singular H_FF; a saddle -a x_0^2 + |x|^2 is then nonnegative on
            # every generator and negative between them
            gens = [(1,) + tuple(rng.choice((-3, -2, 2, 3)) for _ in range(n - 1))
                    for _ in range(rng.randint(2, 6))]
            if kind in ("shifted_gram", "indefinite", "zero_diagonal"):
                raw = [[2 * (i == j) for j in range(n)] for i in range(n)]
                raw[0][0] = -2 * rng.randint(1, 4)
        else:
            gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        if trial % 4 == 0:
            gens.append(tuple(-x for x in gens[0]))
            with_lines += 1
        d = PolyCone.from_generators(gens, n)
        g_mat = Quadratic.build(raw).a
        sign, ray, how = _reference_form_sign(g_mat, d)
        outcomes[how] += 1
        dom = dom_f(g_mat, d)
        assert dom.is_empty == (sign < 0), (raw, gens)
        assert dom.negative_ray == ray, (raw, gens)
        assert nonneg_form_on_cone(g_mat, d) == (sign >= 0, ray)
        if sign >= 0:
            pieces = zero_set_pieces(g_mat, d)
            assert (not pieces) == (sign > 0), (raw, gens)
            assert dom.rows == _walk_rows(pieces, d)
    assert min(outcomes.values()) >= 25, outcomes
    assert with_lines >= 60


def _subset_walk(blocks):
    """Blocks that walk every split of the generator indices, active sets by
    size and then lexicographically, as the cone layer did before it walked
    only the faces of conv(generators)."""
    p = blocks.p
    blocks.pairs = tuple(
        (active, tuple(j for j in range(p) if j not in active))
        for size in range(p + 1)
        for active in itertools.combinations(range(p), size)
    )
    return blocks


def _face_walk_case(rng, trial):
    """A seeded cone (up to 7 generators in R^1..R^4) and form; the shapes
    cover pointed, positively dependent and non-pointed cones, repeated
    directions and generators inside the hull of the others."""
    n = rng.randint(1, 4)
    shape = ("pointed", "spanning", "lines", "repeated", "inside")[trial % 5]
    form = ("zero", "rank_one", "indefinite", "gram", "definite")[trial // 5 % 5]
    if shape == "pointed":
        gens = [(F(rng.randint(1, 3)),) + tuple(F(rng.randint(-2, 2)) for _ in range(n - 1))
                for _ in range(rng.randint(1, 6))]
    else:
        gens = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(n, 5))]
    gens = [g for g in gens if any(g)] or [unit(n, 0)]
    if shape == "lines":
        gens.append(vscale(F(-1), gens[0]))
    elif shape == "repeated":
        gens += [vscale(F(2), gens[0]), gens[-1]]
    elif shape == "inside" and len(gens) > 1:
        gens += [vscale(F(1, 2), vadd(gens[0], gens[1])),
                 vscale(F(1, 3), vadd(vadd(gens[0], gens[1]), gens[-1]))]
        gens = [g for g in gens if any(g)]
    rows = {"zero": 0, "rank_one": 1, "indefinite": 0, "gram": max(1, n - 1), "definite": n}[form]
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
    raw = [[sum(r[i] * r[j] for r in m) + (form == "definite") * (i == j) for j in range(n)]
           for i in range(n)]
    if form == "indefinite":
        for i in range(n):
            for j in range(i, n):
                raw[i][j] = raw[j][i] = rng.randint(-2, 2)
    return Quadratic.build(raw).a, PolyCone(tuple(gens[:7]), n)


def test_face_walk_matches_the_subset_walk():
    # the faces of conv(generators) against all 2^p splits: the same sign,
    # pieces the definition gives for their index sets, the same dom(f) and
    # the same minimum values
    rng = random.Random(20261019)
    outcomes = dict.fromkeys(("negative", "pieces", "strict", "attained", "unbounded"), 0)
    fewer = 0
    for trial in range(300):
        g, d = _face_walk_case(rng, trial)
        prog, ref_prog = ConeProgram(g, d), ConeProgram(g, d)
        _subset_walk(ref_prog)
        fewer += len(prog.faces(Work())) < len(ref_prog.faces(Work()))
        dom, ref = prog.dom, ref_prog.dom
        assert dom.is_empty == ref.is_empty, (g, d)
        if dom.is_empty:
            x = dom.negative_ray
            assert d.with_halfspaces().contains(x) and dot(x, matvec(g, x)) < 0, (g, d)
            outcomes["negative"] += 1
        else:
            pieces = zero_set_pieces(g, d)
            ref_cone = PolyCone.from_halfspaces(ref.rows, ref.dim)
            _check_pieces_and_domain(dom, pieces, ref_cone, g, d)
            outcomes["pieces" if pieces else "strict"] += 1
        for _ in range(3):
            c = tuple(F(rng.randint(-3, 3)) for _ in range(d.dim))
            v, w = prog.minimize(c), ref_prog.minimize(c)
            assert (v.kind, v.value) == (w.kind, w.value), (g, d, c)
            outcomes[v.kind] += 1
    assert min(outcomes.values()) >= 40 and fewer >= 150, (outcomes, fewer)


def _reference_face_listing(zi):
    """The faces of ``conv(zi)`` by dot products: each facet's generators are
    those on which a ray of the polar ``{c : (z, 1) . c <= 0}``, or either
    sign of one of its lines, is zero, and the faces are the facets closed
    under intersection; active sets in lexicographic order."""
    p = len(zi)
    lifted = [list(z) + [1] for z in zi]
    rays, lines = int_cone_h_to_v(lifted, len(lifted[0]))
    masks = {(1 << p) - 1}
    for h in rays + lines + [tuple(-x for x in v) for v in lines]:
        facet = sum(1 << j for j, v in enumerate(lifted) if sum(map(int.__mul__, h, v)) == 0)
        masks |= {m & facet for m in masks}
    return sorted(tuple(j for j in range(p) if not m >> j & 1) for m in masks)


def test_face_listing_reads_the_conversion_zero_sets(monkeypatch):
    # seeded hulls against the dot-product reference: general points, points
    # at one common height (the lifted vectors span less than the space, so
    # the polar has a line), repeated points and points inside the hull.
    # The listing forms no dot product and is sorted by active set
    def no_dot(*args):
        raise AssertionError("the listing formed a dot product")

    rng = random.Random(20261021)
    seen = dict.fromkeys(("non_simplex", "polar_line", "repeated", "inside"), 0)
    for trial in range(400):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(3, 8))]
        shape = trial % 4
        if shape == 1:
            for z in gens:
                z[0] = 2
        elif shape == 2:
            gens.append(gens[0][:])
            seen["repeated"] += 1
        elif shape == 3:
            gens = [[2 * x for x in z] for z in gens]
            gens.append([(a + b) // 2 for a, b in zip(gens[0], gens[1])])
            seen["inside"] += 1
        ref = _reference_face_listing(gens)
        with monkeypatch.context() as patch:
            patch.setattr(cone_qp, "idot", no_dot)
            pairs = cone_qp._face_pairs([z[:] for z in gens], Work())
        assert [active for active, _ in pairs] == ref, gens
        assert list(pairs) == sorted(pairs)
        assert all(sorted(active + free) == list(range(len(gens))) for active, free in pairs)
        seen["non_simplex"] += len(pairs) < 2 ** len(gens)
        seen["polar_line"] += bool(int_cone_h_to_v([z + [1] for z in gens], n + 1)[1])
    assert min(seen.values()) >= 60, seen


def test_zero_set_pieces_come_by_size():
    # the zero form on the orthant of R^3: every face but the apex is a
    # piece, reported by the size of its index set, which is not the
    # lexicographic order the faces are listed in
    pieces = zero_set_pieces(zero_matrix(3), orthant(3))
    index_sets = [tuple(sorted(pc.index_set)) for pc in pieces]
    assert index_sets == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert index_sets != sorted(index_sets)


def test_redundant_domain_rows_past_sixty_four_convert():
    # two seeded p = 12 cones in R^4 that span the space, under a rank-2
    # Gram form M^T M: the zero set is ker M, so dom(f) is the row space of
    # M, yet the zero-set rays give 66 and 65 rows: the redundant ones cost
    # the conversion only their evaluations
    for seed, rows in ((12, 66), (41, 65)):
        rng = random.Random(seed)
        gens = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(12)]
        m = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        g = tuple(tuple(F(sum(r[i] * r[j] for r in m)) for j in range(4)) for i in range(4))
        d = PolyCone.from_generators(gens, 4)
        assert d.with_halfspaces().halfspaces == ()
        dom = dom_f(g, d)
        assert len(dom.rows) == rows
        row_space = PolyCone.from_generators(
            [vec(r) for r in m] + [vscale(F(-1), vec(r)) for r in m], 4
        )
        assert same_cone(PolyCone.from_halfspaces(dom.rows, 4), row_space)


def test_definite_form_on_a_wide_pointed_cone():
    # 24 points (1, t, ..., t^4) on the moment curve span a pointed cone in
    # R^5, so x.x > 0 on it and dom(f) is the whole space; the kernel of H's
    # own block has dimension 19, and the conversion is limited by its work,
    # not by that dimension
    d = PolyCone.from_generators([(1, t, t**2, t**3, t**4) for t in range(-12, 12)])
    dom = dom_f(identity(5), d)
    assert not dom.is_empty and not zero_set_pieces(identity(5), d) and dom.rows == ()


def test_each_block_is_eliminated_once(monkeypatch):
    # dom (sign test and zero set), three minimize and three value queries
    # on one program build at most one system per free set: 2^p in all
    built = []

    def counting_system(m, ncols):
        built.append(m)
        return LinearSystem(m, ncols)

    monkeypatch.setattr(cone_qp, "LinearSystem", counting_system)
    d = PolyCone.from_generators([(1, 0), (0, 1), (1, 1), (1, 2)], 2)
    g = ((F(1), F(0)), (F(0), F(0)))  # x_1^2: nonnegative, zero set the x_2 axis
    prog = ConeProgram(g, d)
    assert not prog.dom.is_empty and prog.dom.rows
    for c in ((1, 1), (-1, 2), (0, 3)):
        assert prog.minimize(vec(c)).kind == "attained"
    for c in ((2, 1), (-3, 1), (1, 5)):
        assert prog.value(vec(c)) == prog.minimize(vec(c)).value
    assert 0 < len(built) <= 2 ** 4


def test_cone_layer_rejects_a_form_of_another_dimension():
    # the blocks take integer dot products, which would truncate silently:
    # the shape of G is checked before anything is built
    d = PolyCone.from_generators([(1, 0, 0), (0, 1, 1), (1, -1, 2)], 3)
    for n in (2, 4):
        g = identity(n)
        for call in (dom_f, nonneg_form_on_cone, zero_set_pieces, ConeProgram):
            with pytest.raises(DimensionMismatchError):
                call(g, d)


def test_a_quadratic_of_another_dimension_is_one_error_everywhere():
    # a 3 x 3 identity on the orthant of R^2: the cone entry point, the
    # program and the polyhedron solver raise the same error type
    q = Quadratic.build(identity(3))
    orthant = PolyCone.from_generators([(1, 0), (0, 1)])
    calls = (
        lambda: minimize_on_polyhedral_cone(q, orthant),
        lambda: ConeProgram(q.a, orthant).minimize(q.b),
        lambda: minimize_over_hpolyhedron(q, HPolyhedron([(-1, 0), (0, -1)], (0, 0))),
    )
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()


def test_integer_blocks_match_rational_data():
    # generators with denominators 2, 3, 5, 6 and forms with half-integer
    # entries: the blocks run on lam H with lam > 1, and every answer is the
    # one of H itself and of the primitive cone
    rng = random.Random(20261102)
    cones = (
        ((F(1, 2), F(1, 3)), (F(-2, 5), F(1))),
        ((F(1, 2), F(1, 3)), (F(-2, 5), F(1)), (F(3, 2), F(-1, 6))),
        ((F(1, 2), F(1, 3), F(0)), (F(-2, 5), F(1), F(1, 6)), (F(0), F(-1, 3), F(1, 2)),
         (F(-1, 2), F(-1, 3), F(0))),
    )
    outcomes = dict.fromkeys(("negative", "pieces", "strict", "attained", "unbounded"), 0)
    for trial in range(90):
        gens = cones[trial % 3]
        n = len(gens[0])
        d = PolyCone(gens, n)
        if trial % 2:
            w = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, n))]
            g = tuple(tuple(sum((r[i] * r[j] for r in w), F(0)) / 2 for j in range(n))
                      for i in range(n))
        else:
            half = [[F(rng.randint(-3, 3), 2) for _ in range(n)] for _ in range(n)]
            g = tuple(tuple(half[i][j] + half[j][i] for j in range(n)) for i in range(n))
        blocks = ConeProgram(g, d)
        assert blocks.lam > 1
        assert blocks.h == tuple(tuple(dot(gi, matvec(g, gj)) for gj in gens) for gi in gens)
        prim = PolyCone.from_generators(gens, n)
        dom = dom_f(g, d)
        sign, ray, _ = _reference_form_sign(g, d)
        assert dom.negative_ray == ray, (g, gens)
        outcomes["negative" if sign < 0 else "pieces" if sign == 0 else "strict"] += 1
        if sign >= 0:
            assert dom.rows == dom_f(g, prim).rows, (g, gens)
        prog, ref_prog = ConeProgram(g, d), ConeProgram(g, prim)
        for _ in range(4):
            c = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))
            got = is_bounded_below_on_cone(c, g, d, dom=dom)
            assert (got.bounded, got.certificate, got.kind) == _pieces_walk(c, g, d), (g, gens, c)
            v, ref = prog.minimize(c), ref_prog.minimize(c)
            assert v.kind == ref.kind, (g, gens, c)
            outcomes[v.kind] += 1
            if v.kind == "attained":
                assert v.value == ref.value == prog.value(c) == ConeProgram(g, d).value(c)
                z = tuple(zip(*gens))
                assert matvec(z, v.parameter_point) == v.point
                assert v.value == dot(c, v.point) + dot(v.point, matvec(g, v.point)) / 2
    assert min(outcomes.values()) >= 15, outcomes


# ---------------------------------------------------------------------------
# minimization on cones
# ---------------------------------------------------------------------------


def test_shifted_parabola_on_orthant():
    # (x1 - 1)^2 on the plane orthant: min 0 at (1, 0)
    q = Quadratic.build([[2, 0], [0, 0]], [-2, 0], 1)
    v = minimize_on_polyhedral_cone(q, orthant(2))
    assert v.kind == "attained"
    assert v.value == 0
    assert q.evaluate(v.point) == 0
    assert v.point[0] == 1


def test_linear_unbounded_on_halfline():
    q = Quadratic.build([[0]], [-1], 0)
    d = PolyCone.from_generators([(1,)])
    v = minimize_on_polyhedral_cone(q, d)
    assert v.kind == "unbounded"
    vals = [q.evaluate(tuple(t * x for x in v.direction)) for t in (F(1), F(10), F(100))]
    assert vals[0] > vals[1] > vals[2]


def test_bilinear_attained_at_origin():
    # x1 x2 on the orthant: form is nonnegative there, min 0 at 0
    q = Quadratic.build([[0, 1], [1, 0]])
    v = minimize_on_polyhedral_cone(q, orthant(2))
    assert v.kind == "attained"
    assert v.value == 0
    assert v.point == (0, 0)


def test_negative_curvature_descent_is_monotone():
    q = Quadratic.build([[-2, 0], [0, 0]], [5, 0], 3)
    v = minimize_on_polyhedral_cone(q, orthant(2))
    assert v.kind == "unbounded"
    vals = [q.evaluate(tuple(t * x for x in v.direction)) for t in (F(1), F(10), F(100))]
    assert vals[0] > vals[1] > vals[2]


def test_value_function_examples():
    # c = 0 gives 0; c in the polar of D with G = 0 gives 0
    assert value_function_eval((0, 0), zero_matrix(2), orthant(2)) == 0
    assert value_function_eval((2, 3), zero_matrix(2), orthant(2)) == 0
    # c = (-1, 0), G = I: one-dimensional calculus on the active face
    g = identity(2)
    assert value_function_eval((-1, 0), g, orthant(2)) == F(-1, 2)
    with pytest.raises(NotInDomainError):
        value_function_eval((-1, 0), zero_matrix(2), orthant(2))


def test_attained_verdict_kkt_residuals_are_exactly_zero():
    rng = random.Random(3)
    checked = 0
    while checked < 15:
        n = rng.randint(1, 3)
        gens = [tuple(F(rng.randint(-2, 3)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(raw, [rng.randint(-3, 3) for _ in range(n)], 0)
        v = minimize_on_polyhedral_cone(q, d)
        if v.kind != "attained":
            continue
        checked += 1
        # stationarity on the free block and complementary multipliers, exact
        u = v.parameter_point
        z_cols = d.generators
        h = tuple(tuple(dot(gi, matvec(q.a, gj)) for gj in z_cols) for gi in z_cols)
        r = tuple(dot(g, q.b) for g in z_cols)
        grad = tuple(hv + rv for hv, rv in zip(matvec(h, u), r))
        for j in range(len(u)):
            if j in v.active_set:
                assert u[j] == 0
            else:
                assert grad[j] == 0
        assert all(m >= 0 for m in v.multipliers)
        assert sum(u[j] * grad[j] for j in range(len(u))) == 0


def test_attained_verdict_beats_feasible_samples():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 3)
        p = rng.randint(1, 4)
        gens = [
            tuple(F(rng.randint(-2, 3)) for _ in range(n)) for _ in range(p)
        ]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(raw, [rng.randint(-3, 3) for _ in range(n)], 0)
        v = minimize_on_polyhedral_cone(q, d)
        if v.kind != "attained":
            continue
        checked += 1
        assert d.with_halfspaces().contains(v.point)
        for _ in range(500):
            u = tuple(F(rng.randint(0, 6), rng.randint(1, 2)) for _ in d.generators)
            x = zeros(n)
            for coeff, gen in zip(u, d.generators):
                x = tuple(xi + coeff * gi for xi, gi in zip(x, gen))
            assert q.evaluate(x) >= v.value


def test_value_function_continuity_along_domain():
    # |f(c + eps d) - f(c)| shrinks with eps inside dom(f)
    g = identity(2)
    prog = ConeProgram(g, orthant(2))
    c = vec((-1, -1))
    d = vec((1, 2))
    base = prog.minimize(c).value
    diffs = []
    for eps in (F(1, 100), F(1, 10_000), F(1, 1_000_000)):
        shifted = tuple(ci + eps * di for ci, di in zip(c, d))
        diffs.append(abs(prog.minimize(shifted).value - base))
    assert diffs[0] > diffs[1] > diffs[2]


def test_value_function_scaling_against_grid_oracle():
    # f(lambda c) <= lambda f(c) when f(c) <= 0, checked against brute force
    g = identity(2)
    d = orthant(2)
    prog = ConeProgram(g, d)
    rng = random.Random(5)
    for _ in range(20):
        c = (F(rng.randint(-3, 0)), F(rng.randint(-3, 0)))
        f1 = prog.minimize(c).value
        f2 = prog.minimize(tuple(2 * ci for ci in c)).value
        if f1 <= 0:
            assert f2 <= 2 * f1
        # brute-force grid corroboration
        grid_best = min(
            dot(c, (x1, x2)) + (x1 * x1 + x2 * x2) / 2
            for x1 in (F(k, 4) for k in range(0, 33))
            for x2 in (F(k, 4) for k in range(0, 33))
        )
        assert f1 <= grid_best


# ---------------------------------------------------------------------------
# exact QP over inequality systems
# ---------------------------------------------------------------------------


def test_hpoly_qp_on_box():
    box = HPolyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    q = Quadratic.build([[2, 0], [0, 2]], [-4, 0], 0)  # (x1-2)^2 + x2^2 - 4
    value, x = minimize_over_hpolyhedron(q, box)
    assert x == (1, 0)
    assert value == q.evaluate((F(1), F(0)))


def test_hpoly_qp_nonconvex_on_box():
    # maximize-like saddle: q = -x1^2 + x2 on [-1,1]^2 attains min at corners
    box = HPolyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    q = Quadratic.build([[-2, 0], [0, 0]], [0, 1], 0)
    value, x = minimize_over_hpolyhedron(q, box)
    assert value == -2
    assert abs(x[0]) == 1 and x[1] == -1


def test_hpoly_qp_answers_the_cube_in_r8():
    # +-|x|^2/2 plus a linear term on [-1, 1]^8 (16 rows, 39,203 subsets),
    # whose exhaustive walk passes the work budget: the convex program stops
    # at its KKT vertex, and the concave one skips every subset that holds a
    # row and its reverse
    rows = [unit(8, i) for i in range(8)] + [vscale(F(-1), unit(8, i)) for i in range(8)]
    cube = HPolyhedron(rows, [1] * 16)
    b = [1, -2, 3, -4, 4, -3, 2, -5]
    corner = vec([-1, 1, -1, 1, -1, 1, -1, 1])
    for sign, value in ((1, -20), (-1, -28)):
        q = Quadratic.build([vscale(F(sign), row) for row in identity(8)], b)
        start = time.perf_counter()
        assert minimize_over_hpolyhedron(q, cube) == (value, corner)
        assert time.perf_counter() - start < 10


def _size_order_walk(faces, work):
    """The least ``(value, key, z)`` over every face, walked by key size and
    then lexicographically, with no early stop."""
    best = None
    for key, value, build in sorted(faces, key=lambda face: (len(face[0]), face[0])):
        if best is not None and (value, key) >= best[:2]:
            continue
        z = build().feasible_point(work)
        if z is not None:
            best = (value, key, z)
    return best


def test_face_walks_match_the_size_order_walk(monkeypatch):
    # seeded QPs over {A x <= b} and cone programs, convex and not: the
    # lexicographic walks that stop at a KKT point give the values, points
    # and verdicts of the exhaustive walk by size; the convex ones often
    # stop before their last face
    least_face = cone_qp._least_face

    def both(call):
        """``call()`` with the library walk and with the size-order walk,
        and whether the library walk pulled fewer faces than there are."""
        pulled, total = [], []

        def lazy(faces, work):
            def counted():
                for face in faces:
                    pulled.append(face)
                    yield face

            return least_face(counted(), work)

        def exhaustive(faces, work):
            faces = list(faces)
            total.extend(faces)
            return _size_order_walk(faces, work)

        with monkeypatch.context() as patch:
            patch.setattr(cone_qp, "_least_face", lazy)
            got = call()
        with monkeypatch.context() as patch:
            patch.setattr(cone_qp, "_least_face", exhaustive)
            ref = call()
        return got, ref, len(pulled) < len(total)

    rng = random.Random(20261020)
    seen = dict.fromkeys(("qp", "qp_stopped", "cone", "cone_stopped", "convex", "nonconvex"), 0)
    for trial in range(300):
        n = rng.randint(1, 4)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        form = [[sum(r[i] * r[j] for r in raw) for j in range(n)] for i in range(n)]
        if trial % 3 == 2:  # indefinite
            form[0][0] -= rng.randint(1, 3)
        q = Quadratic.build(form, [rng.randint(-3, 3) for _ in range(n)])
        center = [rng.randint(-1, 1) for _ in range(n)]
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        rows += [unit(n, i) for i in range(n)] + [vscale(F(-1), unit(n, i)) for i in range(n)]
        rhs = [dot(vec(row), vec(center)) + rng.randint(0, 2) for row in rows]
        h = HPolyhedron(rows, rhs)
        got, ref, stopped = both(lambda: minimize_over_hpolyhedron(q, h))
        assert got == ref, (q, h)
        seen["qp"] += 1
        seen["qp_stopped"] += stopped
        seen["convex" if is_psd(q.a) else "nonconvex"] += 1

        g, d = _face_walk_case(rng, trial)
        c = tuple(F(rng.randint(-3, 3)) for _ in range(d.dim))
        got, ref, stopped = both(lambda: ConeProgram(g, d).minimize(c, F(1, 2)))
        assert got == ref, (g, d, c)
        seen["cone"] += got.kind == "attained"
        seen["cone_stopped"] += stopped
    assert min(seen.values()) >= 60, seen


def test_hpoly_qp_rejects_a_dimension_mismatch():
    q = Quadratic.build(identity(3), [1, 0, -1], 0)
    for n in (2, 4):
        box = HPolyhedron([unit(n, 0), vscale(F(-1), unit(n, 0))], [1, 1])
        with pytest.raises(DimensionMismatchError):
            minimize_over_hpolyhedron(q, box)


def test_face_subset_cap_precedes_enumeration(monkeypatch):
    # 40 rows in R^10 give 1,221,246,132 row subsets of size <= 10, at one
    # unit each past the work budget: a nonconvex face walk counts them
    # before any face is eliminated
    def no_elimination(rows):
        raise AssertionError("a face was eliminated before the cap check")

    rows = [unit(10, i % 10) if i < 20 else vscale(F(-1), unit(10, i % 10)) for i in range(40)]
    h = HPolyhedron(rows, [1] * 40)
    # -x1^2 + x2^2 + ... + x10^2
    saddle = Quadratic.build([[(i == j) * (2 - 4 * (i == 0)) for j in range(10)] for i in range(10)])
    with monkeypatch.context() as patch:
        patch.setattr(cone_qp, "int_rref", no_elimination)
        with pytest.raises(SizeCapError):
            cone_qp._face_walk(saddle, h)
    # the identity form is positive definite, so the public call takes the
    # dual method, which lists no subsets and answers at the origin
    assert minimize_over_hpolyhedron(Quadratic.build(identity(10)), h) == (0, zeros(10))


def test_convex_face_walk_pays_for_the_subsets_it_walks():
    # x1^2 on the same 40 rows is convex but not positive definite, so the
    # face walk answers it; it charges each subset as it pops it, and the
    # empty subset is already a KKT point, so the walk stops there
    rows = [unit(10, i % 10) if i < 20 else vscale(F(-1), unit(10, i % 10)) for i in range(40)]
    h = HPolyhedron(rows, [1] * 40)
    q = Quadratic.build([[2 * (i == j == 0) for j in range(10)] for i in range(10)])
    value, x = minimize_over_hpolyhedron(q, h)
    assert value == 0 and x[0] == 0
    assert all(dot(a, x) <= b for a, b in zip(h.a, h.b))


def test_hpoly_qp_stops_past_the_budget(monkeypatch):
    # x^2 - x on [-1, 1], units counted by hand: the form is convex, so the
    # walk charges each row subset as it pops it, and pops the empty subset
    # (1); it has no rows to eliminate, its hull has one direction, and
    # forming and eliminating the 1 x 2 reduced system costs
    # (1 + 2) n^2 + n + 4 * 2 = 12; its point 1/2 is built and tested
    # against the 2 rows at 2 n (1 + 2) = 6 Fractions (180); the empty
    # subset has no multipliers to check, so the walk stops there, and the
    # one-row subsets are never popped
    q = Quadratic.build([[2]], [-1])
    h = HPolyhedron([[1], [-1]], [1, 1])
    work = 1 + 12 + 180
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work)
    assert cone_qp._face_walk(q, h) == (F(-1, 4), (F(1, 2),))
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work - 1)
    with pytest.raises(SizeCapError):
        cone_qp._face_walk(q, h)
    # the public call takes the dual method: eliminating [Q | I] = [2 | 1]
    # costs 4 n^2 (2 n) = 8 and solving it for -c costs n^2 = 1, the scan
    # of the 2 rows at 1/2 finds none violated at m n = 2, and verifying
    # stationarity with no active row costs n (n + 0) = 1
    work = 8 + 1 + 2 + 1
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work)
    assert minimize_over_hpolyhedron(q, h) == (F(-1, 4), (F(1, 2),))
    monkeypatch.setattr(polyhedra, "DD_BUDGET", work - 1)
    with pytest.raises(SizeCapError):
        minimize_over_hpolyhedron(q, h)


def _pd_programs(rng, count):
    """``count`` seeded programs with a positive definite form, n 1-5 and up
    to 10 rows, as ``(q, h, kinds)``.  Rows pass through a center point or
    just off it, so several are often tight at one vertex, and the later
    rows may repeat, rescale or reverse an earlier one, or combine two of
    them: a combination is dependent on rows that can be active together,
    and a reversed row with a smaller right-hand side empties the system.
    ``kinds`` names the kinds of row the program has."""
    programs = []
    while len(programs) < count:
        n = rng.randint(1, 5)
        raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        form = [[sum(r[i] * r[j] for r in raw) + (i == j) for j in range(n)] for i in range(n)]
        c = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        q = Quadratic.build(form, c, rng.randint(-2, 2))
        center = [rng.randint(-2, 2) for _ in range(n)]
        rows, rhs, kinds = [], [], set()
        for _ in range(rng.randint(0, 10)):
            kind = rng.choice(("new", "new", "new", "repeat", "rescale", "reverse", "combine"))
            if kind != "new" and len(rows) < 2:
                kind = "new"
            i, j = rng.sample(range(len(rows)), 2) if kind != "new" else (0, 0)
            if kind == "new":
                row = [rng.randint(-3, 3) for _ in range(n)]
                bound = dot(vec(row), vec(center)) + rng.choice((0, 0, 1, 2, -1))
            elif kind in ("repeat", "rescale"):
                k = 1 if kind == "repeat" else rng.choice((2, 3, F(1, 2)))
                row, bound = [k * x for x in rows[i]], k * rhs[i] + rng.choice((0, 0, 1))
            elif kind == "reverse":
                row, bound = [-x for x in rows[i]], -rhs[i] + rng.choice((0, 1, -1))
            else:
                s, t = rng.randint(1, 2), rng.randint(1, 2)
                row = [s * x + t * y for x, y in zip(rows[i], rows[j])]
                bound = s * rhs[i] + t * rhs[j] + rng.choice((0, 0, -1))
            rows.append(row)
            rhs.append(bound)
            kinds.add(kind)
        programs.append((q, HPolyhedron(rows, rhs, n), kinds))
    return programs


def test_dual_method_matches_the_face_walk(monkeypatch):
    # 2,400 seeded programs with a positive definite form: the dual method
    # gives the face walk's value and point exactly, or None with it when
    # the system is empty (a positive definite form is never unbounded
    # below); the mix reaches every kind of row, empty systems, and a row
    # dependent on the active ones (z = 0)
    range_step = cone_qp._range_step
    zero_steps = []

    def recording(start, den, rows, w_p):
        sols, d = range_step(start, den, rows, w_p)
        zero_steps.append(not any(sols[1][: len(start)]))
        return sols, d

    monkeypatch.setattr(cone_qp, "_range_step", recording)
    seen = {"answered": 0, "empty": 0, "repeat": 0, "rescale": 0, "reverse": 0, "combine": 0}
    for q, h, kinds in _pd_programs(random.Random(20261020), 2400):
        got = minimize_over_hpolyhedron(q, h)
        assert got == cone_qp._face_walk(q, h), (q, h)
        seen["answered" if got is not None else "empty"] += 1
        for kind in kinds - {"new"}:
            seen[kind] += 1
    assert min(seen.values()) >= 300, seen
    assert sum(zero_steps) >= 100, sum(zero_steps)


def test_dual_method_answers_eighteen_rows_in_r10():
    # |x|^2 plus a linear term on 18 random rows in R^10, which the face
    # walk refuses after listing its 199,140 subsets: the dual method
    # answers within 2 s (about 0.01 s on a 2-CPU box), at a point that
    # satisfies every row
    rng = random.Random(1)
    rows = [[rng.randint(-3, 3) for _ in range(10)] for _ in range(18)]
    h = HPolyhedron(rows, [rng.randint(1, 9) for _ in range(18)])
    q = Quadratic.build(identity(10), [rng.randint(-5, 5) for _ in range(10)])
    start = time.perf_counter()
    value, x = minimize_over_hpolyhedron(q, h)
    assert time.perf_counter() - start < 2
    assert value == q.evaluate(x)
    assert all(dot(a, x) <= b for a, b in zip(h.a, h.b))
    assert any(dot(a, x) == b for a, b in zip(h.a, h.b))


@pytest.mark.parametrize(
    ("shift", "failed"), [(1, "stationarity"), (-10**6, "multiplier")]
)
def test_dual_method_verifies_its_answer(monkeypatch, shift, failed):
    # (x1 - 2)^2 + (x2 - 2)^2 on [-1, 1]^2: the dual method adds x1 <= 1,
    # then x2 <= 1 on a solve that also gives the multiplier of x1 <= 1;
    # shifting that multiplier breaks stationarity, or makes it negative,
    # and the exact check before the answer refuses it
    range_step = cone_qp._range_step

    def corrupted(start, den, rows, w_p):
        sols, d = range_step(start, den, rows, w_p)
        for i in range(len(start), len(sols[0])):
            sols[0][i] += shift * d
        return sols, d

    box = HPolyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    q = Quadratic.build([[2, 0], [0, 2]], [-4, -4], 8)
    assert minimize_over_hpolyhedron(q, box) == (2, (1, 1))
    monkeypatch.setattr(cone_qp, "_range_step", corrupted)
    with pytest.raises(FwsetsError, match=f"{failed} verification"):
        minimize_over_hpolyhedron(q, box)


def test_face_walks_past_the_budget_stop_in_bounded_time():
    # inputs that once ran for a minute or more: each is answered or refused
    # within 20 s (2.5-5.5 s on a 2-CPU box)
    rng = random.Random(1)
    # 12 generators in general position in R^10 under a rank-1 form: their
    # hull has 3,938 faces, and each singular block adds zero-set rays
    gens = [tuple(rng.randint(-9, 9) for _ in range(10)) for _ in range(12)]
    w = [rng.randint(-3, 3) for _ in range(10)]
    g = tuple(tuple(F(a * b) for b in w) for a in w)
    # |x|^2 plus a linear term on 18 random rows in R^10: 199,140 subsets
    rows = [[rng.randint(-3, 3) for _ in range(10)] for _ in range(18)]
    h = HPolyhedron(rows, [rng.randint(1, 9) for _ in range(18)])
    q = Quadratic.build(identity(10), [rng.randint(-5, 5) for _ in range(10)])
    for call in (
        lambda: dom_f(g, PolyCone.from_generators(gens)),
        lambda: minimize_over_hpolyhedron(q, h),
    ):
        start = time.perf_counter()
        try:
            call()
        except SizeCapError:
            pass
        assert time.perf_counter() - start < 20


def test_hpoly_qp_matches_cone_solver_on_random_cones():
    rng = random.Random(23)
    done = 0
    singular_queries = 0
    while done < 15:
        n = rng.randint(1, 3)
        # more generators than dimensions make H = Z^T G Z singular
        gens = [
            tuple(F(rng.randint(-2, 3)) for _ in range(n))
            for _ in range(rng.randint(1, 4 if n <= 2 else 3))
        ]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(raw, [rng.randint(-2, 2) for _ in range(n)], F(1, 3))
        v = minimize_on_polyhedral_cone(q, d)
        if v.kind != "attained":
            continue
        dh = d.with_halfspaces()
        h = HPolyhedron(tuple(dh.halfspaces), zeros(len(dh.halfspaces)), n)
        res = minimize_over_hpolyhedron(q, h)
        assert res is not None
        assert res[0] == v.value
        # one program for several linear terms: later queries reuse its
        # cached face systems, singular ones included
        prog = ConeProgram(q.a, d)
        for _ in range(4):
            c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            w = prog.minimize(c)
            if w.kind != "attained":
                continue
            qc = Quadratic(q.a, c, F(0))
            assert qc.evaluate(w.point) == w.value
            res = minimize_over_hpolyhedron(qc, h)
            assert res is not None
            assert res[0] == w.value
            singular_queries += len(d.generators) > n
        done += 1
    assert singular_queries >= 5


def test_cone_value_does_not_depend_on_history():
    # whatever was asked before, value(c) must equal the minimum a fresh
    # program gives, and minimize(c) its witness
    rng = random.Random(53)
    queries = {True: 0, False: 0}
    for trial in range(16):
        n = rng.randint(2, 3)
        if trial % 2 == 0:
            # Gram form on a cone of up to 4 generators: convex, singular
            # faces once p > n
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
            raw = [[2 * sum(r[i] * r[j] for r in m) for j in range(n)] for i in range(n)]
            gens = [tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        else:
            # zero diagonal, nonnegative off-diagonal on the orthant plus a
            # ray: copositive but indefinite
            raw = [[0 if i == j else rng.randint(1, 2) for j in range(n)] for i in range(n)]
            gens = [unit(n, i) for i in range(n)] + [tuple(rng.randint(0, 2) for _ in range(n))]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        g_mat = Quadratic.build(raw).a
        convex = is_psd(ConeProgram(g_mat, d).h)
        assert convex == (trial % 2 == 0)
        cs = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(8)]
        fresh = {c: ConeProgram(g_mat, d).minimize(c) for c in cs}
        orders = [cs, cs[::-1], rng.sample(cs, len(cs))]
        for k, order in enumerate(orders):
            prog = ConeProgram(g_mat, d)
            for c in order:
                ref = fresh[c]
                if ref.kind != "attained":
                    with pytest.raises(NotInDomainError):
                        prog.value(c)
                    continue
                assert prog.value(c) == ref.value
                queries[convex] += 1
                if k == 2:
                    # interleave full answers
                    w = prog.minimize(c)
                    assert (w.value, w.active_set, w.parameter_point) == (
                        ref.value, ref.active_set, ref.parameter_point
                    )
            for c in order:
                w = prog.minimize(c)
                assert (w.kind, w.value, w.active_set, w.parameter_point) == (
                    fresh[c].kind, fresh[c].value, fresh[c].active_set, fresh[c].parameter_point
                )
    assert queries[True] >= 100 and queries[False] >= 30


def test_line_orthant_interval_matches_lp():
    """The face solver's interval test on a 1-dimensional kernel must agree
    with an exact LP in t, on the orthant rows ``value`` checks and on
    general rows, and the point it returns must lie on the line and satisfy
    every row."""
    rng = random.Random(20260911)
    rows_rng = random.Random(20261018)
    answers = {True: 0, False: 0}
    general = {True: 0, False: 0}
    ties = zero_blocks = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        k = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        if not any(k):
            continue
        z0 = tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n))
        m = rows_rng.randint(1, 6)
        g_rows = tuple(tuple(F(rows_rng.randint(-2, 2)) for _ in range(n)) for _ in range(m))
        h_rows = tuple(F(rows_rng.randint(-3, 3)) for _ in range(m))
        for (g, h), counts in (
            (_nonneg_rows(n, n), answers),
            ((g_rows, h_rows), general),
        ):
            z = _feasible_point(z0, [k], g, h, Work())
            lp = lp_solve(
                tuple((dot(row, k),) for row in g),
                tuple(hi - dot(row, z0) for row, hi in zip(g, h)),
                (F(0),),
            )
            assert (z is not None) == (lp.status == "optimal"), (z0, k, g, h)
            counts[z is not None] += 1
            if z is not None:
                assert all(dot(row, z) <= hi for row, hi in zip(g, h))
                j = next(i for i, c in enumerate(k) if c)
                t = (z[j] - z0[j]) / k[j]
                assert z == tuple(a + t * c for a, c in zip(z0, k))
        lo = [-z / c for z, c in zip(z0, k) if c > 0]
        hi = [-z / c for z, c in zip(z0, k) if c < 0]
        ties += bool(lo and hi and max(lo) == min(hi))
        zero_blocks += any(c == 0 and z < 0 for z, c in zip(z0, k))
    assert min(answers.values()) >= 150 and min(general.values()) >= 150
    assert ties >= 8 and zero_blocks >= 80


# ---------------------------------------------------------------------------
# dom(f) from one block when H = Z^T G Z is positive semidefinite
# ---------------------------------------------------------------------------


def _psd_on_span_case(rng, trial):
    """A seeded cone (1 to 8 generators in R^1..R^4) and a form that is
    positive semidefinite on its span: Gram forms of every rank on R^n, or
    forms indefinite on R^n that are Gram forms on a proper subspace V
    holding the cone, in coordinates mixed by a unimodular map."""
    n = rng.randint(1, 4)
    kind = ("gram", "span")[trial % 2] if n > 1 else "gram"
    shape = ("any", "lines", "pointed")[trial // 2 % 3]
    k = n if kind == "gram" else rng.randint(1, n - 1)  # V = first k coordinates
    gens = []
    for _ in range(rng.randint(1, 8)):
        head = (F(rng.randint(1, 3)),) if shape == "pointed" else (F(rng.randint(-2, 2)),)
        gens.append(head + tuple(F(rng.randint(-2, 2)) for _ in range(k - 1)) + zeros(n - k))
    gens = [g for g in gens if any(g)] or [unit(n, 0)]
    if shape == "lines":
        gens.append(vscale(F(-1), gens[-1]))
    rank = rng.randint(0, k)
    m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rank)]
    raw = [[F(sum(r[i] * r[j] for r in m)) if i < k and j < k else F(0) for j in range(n)]
           for i in range(n)]
    if kind == "span":
        # entries off V x V: the form is indefinite on R^n, but not on V
        for i in range(n):
            for j in range(max(i, k), n):
                raw[i][j] = raw[j][i] = F(rng.randint(-2, 2))
        raw[n - 1][n - 1] = F(-rng.randint(1, 2))
    # x -> T x with T unit lower triangular: generators T v, form T^-T G T^-1
    t = [[F(1) if i == j else F(rng.randint(-1, 1)) if j < i else F(0) for j in range(n)]
         for i in range(n)]
    t_inv = [list(unit(n, i)) for i in range(n)]
    for i in range(n):  # forward substitution: T t_inv = I, column by column
        for j in range(n):
            t_inv[i][j] = (F(i == j) - sum((t[i][l] * t_inv[l][j] for l in range(i)), F(0)))
    g = tuple(
        tuple(sum((t_inv[a][i] * raw[a][b] * t_inv[b][j] for a in range(n) for b in range(n)), F(0))
              for j in range(n))
        for i in range(n)
    )
    gens = [tuple(dot(row, v) for row in t) for v in gens]
    return g, PolyCone(tuple(gens), n), kind


def test_convex_domain_from_one_block_matches_the_walk():
    # on forms PSD on the cone's span, dom(f), read from the kernel of H's
    # one block, has the rows of the walk's pieces in the walk's order; the
    # walk's first piece is P_0, or there is none when P_0 is {0}, and every
    # other piece's rays are rays of P_0
    rng = random.Random(20261020)
    seen = {"span": 0, "gram": 0, "lines": 0, "non_simplex": 0, "rows": 0, "no_piece": 0}
    ranks = set()
    for trial in range(1000):
        g, d, kind = _psd_on_span_case(rng, trial)
        prog = ConeProgram(g, d)
        assert is_psd(prog.h), (g, d)
        pieces = zero_set_pieces(g, d)
        got = prog.dom
        assert got.negative_ray is None and dom_f(g, d) == got, (g, d)
        assert got.rows == _walk_rows(pieces, d), (g, d)
        assert [pc.index_set for pc in pieces[:1]] in ([], [frozenset()]), (g, d)
        assert all(set(pc.generators) <= set(pieces[0].generators) for pc in pieces), (g, d)
        p, n = len(d.generators), d.dim
        seen[kind] += 1
        seen["lines"] += any(vscale(F(-1), v) in d.generators for v in d.generators)
        seen["non_simplex"] += len(prog.faces(Work())) < 2**p
        seen["rows"] += bool(got.rows)
        seen["no_piece"] += not pieces
        if kind == "span":
            assert not is_psd(g), (g, d)
        else:
            ranks.add((n, sum(1 for _ in basis_of_span(g, n))))
    assert min(seen.values()) >= 100, seen
    assert all((n, r) in ranks for n in range(1, 5) for r in range(n + 1)), ranks


def test_convex_program_builds_one_block_after_the_faces(monkeypatch):
    # a bounded program with PSD H answers boundedness from the kernel of
    # its one block, eliminated after the faces are listed
    events = []

    def counting_system(m, ncols):
        events.append("block")
        return LinearSystem(m, ncols)

    def listing(zi, work):
        events.append("faces")
        return face_pairs(zi, work)

    face_pairs = cone_qp._face_pairs
    monkeypatch.setattr(cone_qp, "LinearSystem", counting_system)
    monkeypatch.setattr(cone_qp, "_face_pairs", listing)
    # x_1^2 on a cone of 4 generators in R^2: zero set the ray (0, 1)
    d = PolyCone.from_generators([(1, 0), (0, 1), (1, 1), (1, 2)], 2)
    g = ((F(1), F(0)), (F(0), F(0)))
    prog = ConeProgram(g, d)
    assert prog.boundedness(vec((1, 1))).bounded
    assert events == ["faces", "block"]
    assert prog.dom.rows == ((F(0), F(-1)),)
    assert not prog.boundedness(vec((1, -1))).bounded
    assert events == ["faces", "block"]


def _rank_one_hull():
    """12 generators in general position in R^10 under a rank-1 form
    ``w w^T``, with the rng that drew them."""
    rng = random.Random(1)
    gens = [tuple(rng.randint(-9, 9) for _ in range(10)) for _ in range(12)]
    w = [rng.randint(-3, 3) for _ in range(10)]
    g = tuple(tuple(F(a * b) for b in w) for a in w)
    return g, PolyCone.from_generators(gens), w, rng


def test_convex_program_answers_a_hull_the_walk_refuses():
    # the walk over the 3,938 faces of the rank-1 hull passes the work
    # budget, but the form is PSD, so the program reads dom(f) from one
    # block; its rows are the negated extreme rays of D & w^perp, computed
    # apart
    g, d, w, rng = _rank_one_hull()
    start = time.perf_counter()
    prog = ConeProgram(g, d)
    c = tuple(F(rng.randint(-3, 3)) for _ in range(10))
    res = prog.boundedness(c)
    assert time.perf_counter() - start < 2
    assert len(prog.faces(Work())) == 3938
    cut = list(d.with_halfspaces().halfspaces) + [vec(w), vec(-x for x in w)]
    rays, lines = cone_h_to_v(cut, 10)
    assert not lines
    rows = prog.dom.rows
    assert {primitive(vscale(F(-1), h)) for h in rows} == {primitive(r) for r in rays}
    violated = [h for h in rows if dot(h, c) > 0]
    assert res.bounded == (not violated)
    if violated:
        assert res.certificate == vscale(F(-1), violated[0])


def test_dom_f_answers_the_rank_one_hull():
    # the public dom_f reads the rank-1 hull's dom(f) from one block too,
    # with the program's rows
    g, d, _, _ = _rank_one_hull()
    start = time.perf_counter()
    dom = dom_f(g, d)
    assert time.perf_counter() - start < 2
    assert not dom.is_empty and dom.rows and dom.rows == ConeProgram(g, d).dom.rows


def test_convex_domain_converts_no_rows(monkeypatch):
    # dom(f) of a PSD program keeps its rows as they are: the one
    # conversion left is the one that gives P_0's rays
    calls = []

    def counting(rows, dim, work=None):
        calls.append(len(rows))
        return int_cone_h_to_v(rows, dim, work)

    monkeypatch.setattr(cone_qp, "int_cone_h_to_v", counting)
    monkeypatch.setattr(polyhedra, "int_cone_h_to_v", counting)
    d = PolyCone.from_generators([(1, 0), (0, 1)], 2)  # a simplex: no facet conversion
    g = ((F(1), F(0)), (F(0), F(0)))
    assert ConeProgram(g, d).dom.rows == ((F(0), F(-1)),)
    assert calls == [2]  # {t : N t >= 0} for the 2 x 1 kernel basis N


def test_a_linear_term_of_another_length_is_refused():
    # c is checked against dom(f)'s dimension even where no row reads it
    d = orthant(2)
    forms = {
        "empty": ((F(-1), F(0)), (F(0), F(1))),
        "no rows": identity(2),
        "rows": ((F(1), F(0)), (F(0), F(0))),
    }
    for kind, g in forms.items():
        dom = dom_f(g, d)
        assert (dom.is_empty, bool(dom.rows)) == {
            "empty": (True, False), "no rows": (False, False), "rows": (False, True)
        }[kind]
        for c in ((F(1),), (F(1), F(1), F(1))):
            for call in (
                lambda: is_bounded_below_on_cone(c, g, d),
                lambda: ConeProgram(g, d).boundedness(c),
                lambda: dom.contains(c),
            ):
                with pytest.raises(DimensionMismatchError):
                    call()
        assert dom.contains((F(1), F(1))) == (kind != "empty")
