"""Tests for Motzkin sets: classification, recession cones, minimization."""

import json
import random
from fractions import Fraction

import pytest

from fwsets import gallery, motzkin, polyhedra
from fwsets.cli import main
from fwsets.documents import serialize
from fwsets.asymptotes import QuadSublevel
from fwsets.cone_qp import ConeProgram, value_function_eval
from fwsets.errors import InvalidParameterError, UnsupportedKindError
from fwsets.linalg import dot, matvec, primitive_ints, rank, solve, vadd, vec
from fwsets.motzkin import (
    FEASIBILITY_TOL,
    Attained,
    Ball,
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    SecondOrderCone,
    Unknown,
    UnboundedBelow,
    classify_fw,
    decompose,
    inner_linear_term,
    minimize_on_motzkin,
    motzkin_to_vpoly,
    polyhedral_forms,
    recession_cone_of,
    vpoly_to_motzkin,
)
from fwsets.polyhedra import HPolyhedron, PolyCone, dd_convert, recession_cone, same_cone
from fwsets.quadratics import Quadratic
from fwsets.setops import minimize_on_descriptor, union_set

F = Fraction


def whole_space(n):
    return HPolyhedron((), (), n)


def cross_check_recession(f):
    """For polyhedral data: the declared cone equals the recession cone of
    the converted H-form, by mutual generator membership."""
    if not f.is_polyhedral_cone or isinstance(f.compact, Ball):
        raise UnsupportedKindError("cross-check requires polyhedral data")
    return same_cone(recession_cone(dd_convert(motzkin_to_vpoly(f))), f.cone)


def orthant(n):
    return PolyCone.from_generators(
        [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    )


def unit_square():
    return PolytopeK([(0, 0), (1, 0), (0, 1), (1, 1)])


def ice_cream(dim=3):
    axis = tuple(1 if i == dim - 1 else 0 for i in range(dim))
    return SecondOrderCone(dim, axis, F(1, 2))


# ---------------------------------------------------------------------------
# classification and recession cones
# ---------------------------------------------------------------------------


def test_square_plus_orthant_is_fw():
    f = MotzkinSet(unit_square(), orthant(2))
    v = classify_fw(f)
    assert v.label == "FW"
    assert "polyhedral" in v.justification


def test_point_plus_second_order_cone_is_not_fw():
    f = MotzkinSet(PolytopeK([(0, 0, 0)]), ice_cream())
    v = classify_fw(f)
    assert v.label == "NotFW"
    assert "Mirkil" in v.justification


def test_compact_set_with_trivial_cone_is_fw():
    f = MotzkinSet(unit_square(), PolyCone((), 2))
    assert classify_fw(f).label == "FW"


def test_recession_cone_of_returns_cone_and_cross_checks():
    f = MotzkinSet(unit_square(), orthant(2))
    assert recession_cone_of(f) is f.cone
    assert cross_check_recession(f)

    ray = PolyCone.from_generators([(1, 0)])
    g = MotzkinSet(PolytopeK([(2, 3)]), ray)
    assert recession_cone_of(g) is ray
    assert cross_check_recession(g)

    h = MotzkinSet(unit_square(), PolyCone((), 2))
    assert cross_check_recession(h)


def test_second_order_cone_membership():
    soc = ice_cream()
    assert soc.contains(vec((0, 0, 1)))
    assert soc.contains(vec((1, 0, 1)))  # boundary at 45 degrees
    assert not soc.contains(vec((2, 0, 1)))
    assert not soc.contains(vec((0, 0, -1)))


def test_second_order_cone_rejects_low_dimension():
    with pytest.raises(UnsupportedKindError):
        SecondOrderCone(2, (0, 1), F(1, 2))


# ---------------------------------------------------------------------------
# minimization, polyhedral data
# ---------------------------------------------------------------------------


def test_norm_squared_on_square_plus_orthant():
    q = Quadratic.build([[2, 0], [0, 2]])
    f = MotzkinSet(unit_square(), orthant(2))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert v.value == 0
    assert v.point == (0, 0)


def test_linear_unbounded_on_point_plus_orthant():
    q = Quadratic.build([[0, 0], [0, 0]], [-1, 0])
    f = MotzkinSet(PolytopeK([(0, 0)]), orthant(2))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, UnboundedBelow)
    vals = [
        q.evaluate(tuple(b + t * d for b, d in zip(v.base, v.direction)))
        for t in (F(0), F(1), F(10), F(100))
    ]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_finite_points_with_no_cone_attain_at_the_least_point():
    # x^2 + y^2 - 2x is 3 at (1, 2) and 4 at (3, -1); the cone has no
    # generators, so its program's generator matrix has no columns
    q = Quadratic.build([[2, 0], [0, 2]], [-2, 0])
    f = MotzkinSet(FinitePointSet([(1, 2), (3, -1)]), PolyCone((), 2))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert v.value == 3
    assert v.point == (1, 2)


def test_linear_on_wedge_attains_zero_at_origin():
    q = Quadratic.build([[0, 0], [0, 0]], [1, 0])
    cone = PolyCone.from_generators([(1, 1), (1, 0)])
    f = MotzkinSet(PolytopeK([(0, 0)]), cone)
    # x1 >= 0 on the wedge, so inf = 0 at the apex... x1 is 0 only at origin
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert v.value == 0
    assert v.point == (0, 0)


def test_two_level_reduction_matches_direct_solve():
    # finite compact part: min over members of q(y) + f(A y + b) equals the
    # per-member direct polyhedral solve, exactly
    rng = random.Random(31)
    done = 0
    while done < 20:
        n = rng.randint(1, 3)
        gens = [
            tuple(F(rng.randint(-2, 3)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        cone = PolyCone.from_generators(gens, n)
        pts = tuple(
            tuple(F(rng.randint(-3, 3)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        )
        k = FinitePointSet(pts)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(raw, [rng.randint(-2, 2) for _ in range(n)], 1)
        f = MotzkinSet(k, cone)
        v = minimize_on_motzkin(q, f)
        if not isinstance(v, Attained):
            continue
        done += 1
        prog = ConeProgram(q.a, cone)
        two_level = min(
            q.evaluate(y) + prog.minimize(inner_linear_term(q, y)).value for y in pts
        )
        assert two_level == v.value


def test_attained_point_is_member_and_optimal_over_samples():
    rng = random.Random(12)
    q = Quadratic.build([[2, 0], [0, 2]], [-2, -4], 0)
    f = MotzkinSet(unit_square(), orthant(2))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    for _ in range(500):
        y = (F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4))
        z = (F(rng.randint(0, 8), 2), F(rng.randint(0, 8), 2))
        x = (y[0] + z[0], y[1] + z[1])
        assert q.evaluate(x) >= v.value


# ---------------------------------------------------------------------------
# minimization, ball compact part
# ---------------------------------------------------------------------------


def test_ball_grid_matches_exact_disk_minimum():
    # q(x) = (x1 - 3)^2 + x2^2 over disk(center 0, radius 1) + ray(0, 1):
    # the cone never helps, the disk minimum is at (1, 0) with value 4, and
    # the bracket closes at width 0, which proves it
    q = Quadratic.build([[2, 0], [0, 2]], [-6, 0], 9)
    f = MotzkinSet(Ball((0, 0), 1), PolyCone.from_generators([(0, 1)]))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert v.exact and v.value == v.lower_bound == 4 and v.point == (1, 0)


def _ball_cases():
    """Seeded bounded ball programs, two each for n = 2 with p = 1..4
    generators (p >= 3 makes H singular) and n = 3 with p = 1, 2, under
    positive definite objectives; then one whose H is not positive
    semidefinite."""
    rng = random.Random(19)
    cases = []
    for n, p in 2 * ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)):
        gens = set()
        while len(gens) < p:
            g = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(g):
                gens.add(g)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        a = [[sum(r[i] * r[j] for r in m) + (i == j) for j in range(n)] for i in range(n)]
        q = Quadratic.build(a, [rng.randint(-4, 4) for _ in range(n)])
        ball = Ball([rng.randint(-2, 2) for _ in range(n)], F(rng.randint(1, 4), 2))
        cases.append((q, MotzkinSet(ball, PolyCone.from_generators(sorted(gens), n))))
    # x1 x2 + 5 x1 + 5 x2 on the unit disk plus the orthant: the inner linear
    # term stays positive, so the program is bounded, but H = [[0, 1], [1, 0]]
    q = Quadratic.build([[0, 1], [1, 0]], [5, 5])
    cases.append((q, MotzkinSet(Ball((0, 0), 1), orthant(2))))
    return cases


def _in_ball_plus_cone(x, f):
    # x - c lies within r of D iff min over z in D of |x - c - z|^2 <= r^2,
    # an exact cone program: min z.z/2 - (x - c).z
    shift = tuple(a - b for a, b in zip(x, f.compact.center))
    ident = tuple(tuple(F(int(i == j)) for j in range(len(x))) for i in range(len(x)))
    best = ConeProgram(ident, f.cone).minimize(tuple(-v for v in shift)).value
    return 2 * best + dot(shift, shift) <= f.compact.radius ** 2


def _ball_members(rng, f, count):
    """Seeded rational members of ball + D: points of the ball (inside it,
    and on its sphere by inverse stereographic projection) plus nonnegative
    combinations of the generators."""
    n, c, r = f.dim, f.compact.center, f.compact.radius
    members = []
    while len(members) < count:
        if len(members) % 2:
            ts = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
            d = 1 + sum(t * t for t in ts)
            y = tuple(r * 2 * t / d for t in ts) + (r * (d - 2) / d,)
        else:
            y = tuple(F(rng.randint(-8, 8), 8) * r for _ in range(n))
            if dot(y, y) > r * r:
                continue
        y = vadd(c, y)
        for g in f.cone.generators:
            t = F(rng.randint(0, 4), rng.randint(1, 4))
            y = vadd(y, tuple(t * x for x in g))
        members.append(y)
    return members


def test_ball_verdicts_match_exact_inner_path():
    # every positive definite case closes its bracket: the value is q at a
    # member, and the lower bound holds at 1,000 seeded members; a bracket
    # is exact iff it has width 0, as 5 of the 12 have
    rng = random.Random(23)
    cases = _ball_cases()
    widths = []
    for q, f in cases[:-1]:
        v = minimize_on_motzkin(q, f)
        assert isinstance(v, Attained) and v.exact is (v.value == v.lower_bound)
        widths.append(v.value - v.lower_bound)
        assert 0 <= v.value - v.lower_bound <= FEASIBILITY_TOL
        assert v.value == q.evaluate(v.point)
        assert _in_ball_plus_cone(v.point, f)
        assert all(v.lower_bound <= q.evaluate(y) for y in _ball_members(rng, f, 1000))
    assert widths.count(0) == 5


def test_ball_brackets_take_few_probes(monkeypatch):
    # the count repeats exactly: over the twelve convex cases the secant
    # steps on the probes' face models take 20 probes (42 with secant steps
    # on the probes themselves, 95 with regula falsi on the raw slack)
    count = 0
    real = motzkin._ball_probe

    def counting(*args):
        probe = real(*args)

        def counted(mu):
            nonlocal count
            count += 1
            return probe(mu)

        return counted

    monkeypatch.setattr(motzkin, "_ball_probe", counting)
    for q, f in _ball_cases()[:-1]:
        v = minimize_on_motzkin(q, f)
        assert isinstance(v, Attained) and v.value - v.lower_bound <= FEASIBILITY_TOL
    assert count <= 20


def _recording_faces(monkeypatch):
    # the winning active set of every cone program the ball probe solves
    faces = []

    class Recording(ConeProgram):
        def minimize(self, c, constant=F(0)):
            verdict = super().minimize(c, constant)
            faces.append(verdict.active_set)
            return verdict

    monkeypatch.setattr(motzkin, "ConeProgram", Recording)
    return faces


def test_a_face_model_is_the_probe_slack_wherever_its_face_wins(monkeypatch):
    # seeded dyadic multipliers in (0, 1024] on the convex ball cases: the
    # model a probe returns for its winning face gives the exact slack of
    # every probe that face wins, at the probe's own mu and at the others
    faces = _recording_faces(monkeypatch)
    rng = random.Random(37)
    pairs, winners = 0, set()
    for index, (q, f) in enumerate(_ball_cases()[:-1]):
        ball = f.compact
        c, r2 = ball.center, ball.radius * ball.radius
        ident = [[int(i == j) for j in range(f.dim)] for i in range(f.dim)]
        g = Quadratic.build(ident, [-x for x in c], (dot(c, c) - r2) / 2)
        probe = motzkin._ball_probe(q, ball, g, f.cone)
        seen = []
        for _ in range(16):
            mu = F(rng.randint(1, 2**10), 2 ** rng.randint(0, 10))
            slack, _, _, _, model = probe(mu)
            seen.append((faces[-1], mu, slack, model))
            winners.add((index, faces[-1]))
        for face, own, _, model in seen:
            for other, mu, slack, _ in seen:
                if other == face:
                    assert model(mu) == slack
                    pairs += mu != own
    # two cases change faces within the range, and most pairs of probes
    # share one
    assert len(winners) == 14 and pairs > 2000


def _face_slack_reference(a, g0, scale, face, r2, mu):
    """The face model's slack by one Fraction elimination of the whole
    system ``K(mu) [s; t] = -[g0; Z^T g0]``, A = a / scale and g0 over the
    same scale, read at the solution with zero free coordinates; and
    whether K(mu) is singular on a basis of the face, where s need not be
    unique."""
    n = len(a)
    am = [[F(x, scale) for x in row] for row in a]
    g = [F(x, scale) for x in g0]
    az = [[dot(row, z) for z in face] for row in am]
    top = [
        tuple(x + mu * (i == j) for j, x in enumerate(row)) + tuple(azrow)
        for i, (row, azrow) in enumerate(zip(am, az))
    ]
    bottom = [tuple(col) + tuple(dot(z, c) for c in zip(*az)) for z, col in zip(face, zip(*az))]
    k = top + bottom
    rhs = tuple(-x for x in g) + tuple(-dot(z, g) for z in face)
    singular = rank(k) < n + rank(face)
    sol = solve(tuple(k), rhs)
    if sol is None:
        return None, singular
    s = sol[:n]
    return r2 - dot(s, s), singular


def _random_face_model(rng):
    # a form (indefinite, PSD and singular, diagonal, or positive definite),
    # a linear term and a face: empty, coordinate axes, random, or random
    # with a dependent generator
    n = rng.randint(1, 3)
    kind = rng.randrange(4)
    if kind == 0:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
    elif kind == 2:
        a = [[rng.randint(-4, 4) if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        k = rng.randint(0, n - 1) if kind == 1 else n  # fewer rows than n: singular
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        a = [[sum(r[i] * r[j] for r in rows) + (kind == 3 and i == j) for j in range(n)] for i in range(n)]
    g0 = [rng.randint(-6, 6) for _ in range(n)]
    k = rng.randint(0, 3)
    if rng.random() < 0.3:
        face = [[int(i == j) for j in range(n)] for i in rng.sample(range(n), min(k, n))]
    else:
        face = [z for z in ([rng.randint(-2, 2) for _ in range(n)] for _ in range(k)) if any(z)]
        if face and rng.random() < 0.3:
            face.append([-2 * x for x in face[0]])
    return a, g0, rng.choice((1, 2, 3, 6)), face, F(rng.randint(1, 20), rng.randint(1, 5))


def test_face_models_equal_the_elimination_of_their_kkt_system():
    # 3,000 seeded models, each at a dyadic and a non-dyadic mu and at the
    # roots -a_ii / scale of a diagonal form, where the model's denominator
    # vanishes on a face of coordinate axes or an empty one; s need not be
    # unique there, and the model's value is still the elimination's
    rng = random.Random(43)
    calls = singular = inconsistent = 0
    for _ in range(3000):
        a, g0, scale, face, r2 = _random_face_model(rng)
        model = motzkin._FaceSlack(a, g0, scale, face, r2)
        mus = [F(rng.randint(1, 2**10), 2 ** rng.randint(0, 10)), F(rng.randint(1, 50), rng.randint(1, 9))]
        mus += [F(-a[i][i], scale) for i in range(len(a)) if a[i][i] < 0]
        for mu in mus:
            expected, at_root = _face_slack_reference(a, g0, scale, face, r2, mu)
            assert model(mu) == expected
            calls += 1
            singular += at_root
            inconsistent += expected is None
    assert calls > 7000 and singular > 1000 and inconsistent > 1000


def test_a_ball_whose_winning_face_changes_still_closes(monkeypatch):
    # x.A x/2 + 4 x1 - 3 x2, A = [[2, 1], [1, 3]], on the disk of radius 3/2 about
    # (1, 2) plus the ray (0, 1): at mu = 0 the point sits at the apex with a
    # zero multiplier, and the walk names the face with the ray free; for
    # mu > 0 the ray would run backwards, and the apex wins.  The first
    # face's model aims the search, its probe hands over the apex's model,
    # and the next probe closes the bracket
    faces = _recording_faces(monkeypatch)
    q = Quadratic.build([[2, 1], [1, 3]], [4, -3])
    f = MotzkinSet(Ball((1, 2), F(3, 2)), PolyCone.from_generators([(0, 1)]))
    v = minimize_on_motzkin(q, f)
    assert faces == [(), (0,), (0,)]
    assert isinstance(v, Attained) and not v.exact
    assert 0 <= v.value - v.lower_bound <= FEASIBILITY_TOL
    assert v.value == q.evaluate(v.point)
    assert _in_ball_plus_cone(v.point, f)
    rng = random.Random(41)
    assert all(v.lower_bound <= q.evaluate(y) for y in _ball_members(rng, f, 1000))


def test_seeded_ball_minimum_is_not_the_early_stop_value():
    # the first n = 3, p = 1 case: a ball point of value 5.5 exists, so the
    # verdict lies below it; the minimum is 4.2347953...
    q, f = _ball_cases()[4]
    assert f.dim == 3 and len(f.cone.generators) == 1
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert v.value < F(11, 2)
    assert v.value - v.lower_bound <= FEASIBILITY_TOL


def test_union_bracket_keeps_the_least_member_bound():
    # a one-point member whose exact value lies inside the ball's bracket
    # [L, U]: the union's value and point come from it, but its lower bound
    # is L, so the verdict is not exact
    q, f = _ball_cases()[4]
    ball = minimize_on_motzkin(q, f)
    low, high = ball.lower_bound, ball.value
    assert low < high
    # bisect on the segment from the ball's witness to the free minimizer
    free = solve(q.a, tuple(-b for b in q.b))
    assert q.evaluate(free) < low
    lo, hi = F(0), F(1)
    while True:
        t = (lo + hi) / 2
        y = vadd(ball.point, tuple(t * (a - b) for a, b in zip(free, ball.point)))
        value = q.evaluate(y)
        if low < value < high:
            break
        lo, hi = (t, hi) if value >= high else (lo, t)
    point = MotzkinSet(PolytopeK([y]), PolyCone((), f.dim))
    v = minimize_on_descriptor(q, union_set([f, point]))
    assert isinstance(v, Attained) and not v.exact
    assert (v.point, v.value, v.lower_bound) == (y, value, low)
    assert v.value - v.lower_bound <= FEASIBILITY_TOL
    # a union of exact members stays exact
    v = minimize_on_descriptor(q, union_set([point, point]))
    assert v.exact and v.value == value and v.lower_bound is None


def test_saddle_on_disk_plus_orthant_is_not_attained_at_minus_five():
    # x1 x2 + 5 x1 + 5 x2 on the unit disk plus the orthant: (-7/10, -7/10)
    # gives -651/100, below the -5 at (-1, 0) that axis-only polishing kept;
    # the dual bound is -oo here, so no bracket can close
    q, f = _ball_cases()[-1]
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Unknown) or v.value <= F(-651, 100)
    assert q.evaluate((F(-7, 10), F(-7, 10))) == F(-651, 100)


def test_ball_in_five_dimensions_closes_its_bracket():
    # the grid refused balls above dimension 4 with a size cap
    q = Quadratic.build(
        [[3, 1, 0, 0, 0], [1, 2, 0, 0, 1], [0, 0, 2, 1, 0], [0, 0, 1, 4, 0], [0, 1, 0, 0, 2]],
        [-6, 1, -3, 2, -1],
    )
    cone = PolyCone.from_generators([(1, 0, 1, 0, 0), (0, 1, 0, -1, 1)])
    f = MotzkinSet(Ball((1, 0, -1, 0, 1), F(3, 2)), cone)
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert 0 <= v.value - v.lower_bound <= FEASIBILITY_TOL
    assert v.value == q.evaluate(v.point)
    assert _in_ball_plus_cone(v.point, f)
    rng = random.Random(5)
    assert all(v.lower_bound <= q.evaluate(y) for y in _ball_members(rng, f, 1000))


def test_ball_hard_case_follows_the_stationary_line():
    # -x1^2 + x2 on the unit disk: A + 2I is singular at the optimal
    # multiplier 2, whose minimizers form the line x2 = -1/2; the minimum
    # -5/4 is taken at (+-sqrt(3)/2, -1/2)
    q = Quadratic.build([[-2, 0], [0, 0]], [0, 1])
    f = MotzkinSet(Ball((0, 0), 1), PolyCone((), 2))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert v.lower_bound <= F(-5, 4) <= v.value
    assert v.value - v.lower_bound <= F(1, 10**9)
    assert v.value == q.evaluate(v.point) and f.compact.contains(v.point)


def test_ball_hard_case_with_a_plane_of_minimizers():
    # 2(x1 x2 + x1 x3 + x2 x3) + 3(x1 + x2 + x3) on the unit ball: at the
    # optimal multiplier 2, A + 2I = 2 v v^T (v = (1, 1, 1)), and the
    # minimizers form the plane v.x = -3/2.  Its least-norm point -v/2 lies
    # inside the ball, but a line through another of its points can miss the
    # ball; the minimum -13/4 is taken where the plane meets the sphere
    q = Quadratic.build([[0, 2, 2], [2, 0, 2], [2, 2, 0]], [3, 3, 3])
    f = MotzkinSet(Ball((0, 0, 0), 1), PolyCone((), 3))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Attained)
    assert v.lower_bound <= F(-13, 4) <= v.value
    assert v.value - v.lower_bound <= F(1, 10**9)
    assert v.value == q.evaluate(v.point) and f.compact.contains(v.point)


def test_ball_alone_and_the_gallery_disk_share_one_bracket():
    # a ball alone and the same disk as a quadratic sublevel set both go
    # through numeric.one_constraint_bracket: over seeded indefinite
    # objectives and the two hard cases above, the lower bound, value and
    # point agree exactly
    rng = random.Random(21)
    cases = []
    for idx in range(20):
        n = 2 + idx % 2
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(a, [rng.randint(-4, 4) for _ in range(n)], rng.randint(-3, 3))
        cases.append((q, Ball([rng.randint(-2, 2) for _ in range(n)], F(rng.randint(1, 4), 2))))
    cases.append((Quadratic.build([[-2, 0], [0, 0]], [0, 1]), Ball((0, 0), 1)))
    cases.append((Quadratic.build([[0, 2, 2], [2, 0, 2], [2, 2, 0]], [3, 3, 3]), Ball((0, 0, 0), 1)))
    for q, ball in cases:
        n, c, r = ball.dim, ball.center, ball.radius
        v = minimize_on_motzkin(q, MotzkinSet(ball, PolyCone((), n)))
        assert isinstance(v, Attained)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        g = Quadratic.build(ident, [-x for x in c], (dot(c, c) - r * r) / 2)
        disk = QuadSublevel(whole_space(n), (g,), sample_point=c)
        bracket = gallery._lagrangian_bracket(disk, q, FEASIBILITY_TOL)
        assert (v.lower_bound, v.value, v.point) == bracket


@pytest.mark.parametrize("tol", [F(0), F(-1), -1e-9, float("nan"), float("inf")])
def test_nonpositive_tolerance_is_rejected(tol):
    q = Quadratic.build([[2, 0], [0, 2]], [-6, 0], 9)
    f = MotzkinSet(Ball((0, 0), 1), PolyCone.from_generators([(0, 1)]))
    with pytest.raises(InvalidParameterError):
        minimize_on_motzkin(q, f, tol=tol)


def test_ball_escape_gives_exact_unbounded_certificate():
    # q = -x1 is unbounded on ball + ray(1, 0); the certificate is exact
    q = Quadratic.build([[0, 0], [0, 0]], [-1, 0])
    f = MotzkinSet(Ball((0, 0), 1), PolyCone.from_generators([(1, 0)]))
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, UnboundedBelow)
    assert f.compact.contains(v.base)
    assert dot(vec((-1, 0)), v.direction) < 0


# ---------------------------------------------------------------------------
# second-order recession cones
# ---------------------------------------------------------------------------


def test_second_order_descent_found():
    # q = -x3 decreases along the axis of the ice-cream cone
    q = Quadratic.build([[0] * 3] * 3, [0, 0, -1])
    f = MotzkinSet(PolytopeK([(0, 0, 0)]), ice_cream())
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, UnboundedBelow)
    assert f.cone.contains(v.direction)


def test_second_order_unknown_when_no_ray_found():
    # |x|^2 is bounded below on any cone, but the solver does not promise
    # attainment analysis for second-order recession cones
    q = Quadratic.build([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    f = MotzkinSet(PolytopeK([(0, 0, 0)]), ice_cream())
    v = minimize_on_motzkin(q, f)
    assert isinstance(v, Unknown)


# ---------------------------------------------------------------------------
# the attainment property itself (random instances)
# ---------------------------------------------------------------------------


def test_bounded_below_always_attains_on_polyhedral_motzkin():
    # whenever the inner precheck passes, the verdict must be Attained:
    # NotAttained must never occur for polyhedral recession cones
    rng = random.Random(77)
    attained = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        gens = [
            tuple(F(rng.randint(-2, 3)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        cone = PolyCone.from_generators(gens, n)
        pts = tuple(
            tuple(F(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        )
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(raw, [rng.randint(-2, 2) for _ in range(n)], 0)
        f = MotzkinSet(FinitePointSet(pts), cone)
        v = minimize_on_motzkin(q, f)
        assert v.kind in ("attained", "unbounded")
        if v.kind == "attained":
            attained += 1
    assert attained > 10  # the filter keeps a healthy share of bounded cases


def _escape_reference(q, f):
    """The verdict kind, base and direction of the two-level reduction read
    point by point: the first listed point whose inner cone program is
    unbounded, or "attained" when there is none."""
    prog = ConeProgram(q.a, f.cone)
    k = f.compact
    for y in k.points if isinstance(k, FinitePointSet) else k.vertices:
        verdict = prog.minimize(vadd(matvec(q.a, y), q.b))
        if verdict.kind == "unbounded":
            return "unbounded", y, verdict.direction
    return "attained", None, None


def test_the_first_listed_point_outside_dom_f_is_the_escape():
    # point sets and polytopes, n 1-3 and 1-4 generators, under general and
    # Gram (A = R^T R, convex) objectives: the solver's kind, base and
    # direction are the point-by-point reference's
    rng = random.Random(49)
    kinds = {"attained": 0, "unbounded": 0}
    for case in range(640):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)] or [(1,) + (0,) * (n - 1)]
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        k = FinitePointSet(pts) if case % 2 else PolytopeK(pts)
        raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            raw = [[sum(x * y for x, y in zip(ra, rb)) for rb in zip(*raw)] for ra in zip(*raw)]
        q = Quadratic.build(raw, [rng.randint(-3, 3) for _ in range(n)])
        f = MotzkinSet(k, PolyCone.from_generators(gens, n))
        v = minimize_on_motzkin(q, f)
        kind, base, direction = _escape_reference(q, f)
        assert v.kind == kind
        if kind == "unbounded":
            assert (v.base, v.direction) == (base, direction)
        kinds[kind] += 1
    assert min(kinds.values()) >= 100, kinds


# ---------------------------------------------------------------------------
# a ball whose inner linear term leaves dom(f)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a, gens, base",
    [
        # x1 x2 on cone(e1): dom(f) is {c : c1 >= 0}; the centre's inner
        # term (1, 0) lies in it, and the first point tried past the
        # crossing, (0, -1) on the rim, has inner term (-1, 0)
        ([[0, 1], [1, 0]], [(1, 0)], (0, -1)),
        # -x1^2/2 curves down along e1, so dom(f) is empty: the centre escapes
        ([[-1, 0], [0, 0]], [(1, 0), (0, 1)], (0, 1)),
    ],
    ids=["row_crossing", "empty_domain"],
)
def test_a_ball_escapes_dom_f_along_a_descent_ray(a, gens, base):
    ball = Ball((0, 1), 2)
    q = Quadratic.build(a)
    verdict = minimize_on_motzkin(q, MotzkinSet(ball, PolyCone.from_generators(gens)))
    assert isinstance(verdict, UnboundedBelow)
    assert verdict.base == vec(base)
    offset = tuple(x - c for x, c in zip(verdict.base, ball.center))
    assert dot(offset, offset) <= ball.radius * ball.radius
    # q(base + t d) = q(base) + t g.d + t^2 d.Ad / 2 decreases strictly in t > 0
    d = verdict.direction
    slope, curvature = dot(q.gradient(verdict.base), d), dot(d, matvec(q.a, d))
    assert curvature <= 0 and slope <= 0 and (slope < 0 or curvature < 0)


@pytest.mark.parametrize("k", [401, 500, 2000])
def test_a_ball_escapes_in_one_step_however_near_the_crossing_its_rim_is(k):
    # x1 x2 on the unit ball at (0, 1 - 2^-k) plus cone(e1): dom(f) is
    # {c : c1 >= 0}, the centre's term is 1 - 2^-k, and the ball reaches
    # only 2^-k past the crossing, so a point halving the step from 1 needs
    # about k halvings
    ball = Ball((0, 1 - F(1, 2**k)), 1)
    q = Quadratic.build([[0, 1], [1, 0]])
    verdict = minimize_on_motzkin(q, MotzkinSet(ball, PolyCone.from_generators([(1, 0)])))
    assert isinstance(verdict, UnboundedBelow)
    assert ball.contains(verdict.base) and inner_linear_term(q, verdict.base)[0] < 0
    d = verdict.direction
    slope, curvature = dot(q.gradient(verdict.base), d), dot(d, matvec(q.a, d))
    assert curvature <= 0 and slope <= 0 and (slope < 0 or curvature < 0)


# ---------------------------------------------------------------------------
# decompose keeps the input rows that describe the set
# ---------------------------------------------------------------------------


def _kept_row_cases(rng, count):
    """``count`` seeded nonempty inequality systems, n 1-4 and up to 8 rows,
    as ``(h, kinds)``.  Every row holds at a center point, tight or off by a
    little; the later rows may be an equality pair, a zero row, a rescaled
    repeat, a looser parallel copy or a positive combination of two earlier
    rows.  Few rows in R^4 leave lines and unbounded sets."""
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 4)
        center = [rng.randint(-2, 2) for _ in range(n)]
        rows, rhs, kinds = [], [], set()

        def add(row, bound):
            rows.append(tuple(F(x) for x in row))
            rhs.append(F(bound))

        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(("new", "new", "new", "equality", "zero", "rescale", "looser", "combine"))
            if kind in ("rescale", "looser", "combine") and len(rows) < 2:
                kind = "new"
            i, j = rng.sample(range(len(rows)), 2) if len(rows) >= 2 else (0, 0)
            if kind in ("new", "equality"):
                row = [rng.randint(-3, 3) for _ in range(n)]
                bound = sum(map(lambda x, y: x * y, row, center))
                if kind == "equality":
                    add([-x for x in row], -bound)
                else:
                    bound += rng.choice((0, 0, 1, 2))
            elif kind == "zero":
                row, bound = [0] * n, rng.choice((0, 1))
            elif kind == "rescale":
                k = rng.choice((2, 3, F(1, 2)))
                row, bound = [k * x for x in rows[i]], k * rhs[i]
            elif kind == "looser":
                row, bound = rows[i], rhs[i] + rng.choice((1, F(1, 2)))
            else:
                s, t = rng.randint(1, 2), rng.randint(1, 2)
                row = [s * x + t * y for x, y in zip(rows[i], rows[j])]
                bound = s * rhs[i] + t * rhs[j] + rng.choice((0, 1))
            add(row, bound)
            kinds.add(kind)
        cases.append((HPolyhedron(tuple(rows), tuple(rhs), n), kinds))
    return cases


def _full_dimensional(v):
    vs = v.vertices
    spread = [tuple(x - y for x, y in zip(w, vs[0])) for w in vs[1:]]
    return rank(spread + list(v.rays) + list(v.lineality)) == v.dim


def _generator_sets(v):
    return set(v.vertices), set(v.rays), set(v.lineality)


def _is_equality(a, b, v):
    """Whether ``a.x <= b`` holds with equality on the whole V-form v."""
    return all(dot(a, x) == b for x in v.vertices) and not any(dot(a, d) for d in v.rays + v.lineality)


def _primitive_rows(h):
    return {tuple(primitive_ints(a + (b,))) for a, b in zip(h.a, h.b)}


def test_decompose_keeps_input_rows_that_describe_the_set():
    # 1,500 seeded systems with equality pairs, zero rows, rescaled repeats,
    # looser copies, combinations, lines and unbounded sets: the rows that
    # decompose keeps are input rows, convert to the input's V-form, and on
    # a full-dimensional set are its facets, the rows converted back from
    # the V-form; no kept inequality can go without changing the set; the
    # set itself is the one decompose built before it kept rows, and hashes
    # as it
    seen = {"equality": 0, "zero": 0, "rescale": 0, "looser": 0, "combine": 0,
            "lines": 0, "rays": 0, "full": 0, "dropped": 0}
    for h, kinds in _kept_row_cases(random.Random(20261020), 1500):
        f = decompose(h)
        kept = f.hform
        assert polyhedral_forms(f) == (kept,)
        assert set(zip(kept.a, kept.b)) <= set(zip(h.a, h.b)), h
        v = dd_convert(h)
        assert _generator_sets(dd_convert(kept)) == _generator_sets(v), h
        for i, (a, b) in enumerate(zip(kept.a, kept.b)):
            if not _is_equality(a, b, v):
                rest = HPolyhedron(kept.a[:i] + kept.a[i + 1 :], kept.b[:i] + kept.b[i + 1 :], h.dim)
                assert _generator_sets(dd_convert(rest)) != _generator_sets(v), (h, i)
        if _full_dimensional(v):
            assert _primitive_rows(kept) == _primitive_rows(dd_convert(v)), h
            seen["full"] += 1
        g = vpoly_to_motzkin(v, "empty")
        assert f == g and hash(f) == hash(g), h
        assert (f.compact, f.cone) == (g.compact, g.cone)
        seen["lines"] += bool(v.lineality)
        seen["rays"] += bool(v.rays)
        seen["dropped"] += len(kept.a) < len(h.a)
        for kind in kinds - {"new"}:
            seen[kind] += 1
    assert min(seen.values()) >= 100, seen


def test_a_built_set_converts_its_h_form_on_first_read():
    # a Motzkin set built by hand has no rows to keep: its H-form is the
    # conversion of its V-form, kept once read and outside == and the hash
    f = MotzkinSet(unit_square(), orthant(2))
    g = MotzkinSet(unit_square(), orthant(2))
    assert f.hform == dd_convert(motzkin_to_vpoly(f))
    assert f.hform is f.hform and f == g and hash(f) == hash(g)
    # decompose keeps h's own rows, less the rescaled repeat
    h = HPolyhedron([[-1, 0], [0, -1], [-2, 0]], [0, 0, 0])
    assert decompose(h).hform == HPolyhedron([[-1, 0], [0, -1]], [0, 0])
    assert decompose(h) == MotzkinSet(PolytopeK([(0, 0)]), orthant(2))


def test_polyhedra_are_solved_on_their_own_rows(monkeypatch, tmp_path, capsys):
    # a polyhedron's quadratic program, through decompose, the descriptor
    # and the CLI, converts no V-form back to an H-form: x3 = 1 as an
    # equality pair, x1 <= 1 twice in two scales, -1 <= x1, -1 <= x2 and
    # the redundant x1 + x2 >= -5; (x1 - 2)^2 + (x2 + 3)^2 + x3^2 is least
    # at 6 at (1, -1, 1), and the nonconvex x2^2 + x3^2 - x1^2 - x1 (the
    # face walk) at -1 at (1, 0, 1)
    def refused(p, work):
        raise AssertionError("a V-form was converted to an H-form")

    monkeypatch.setattr(polyhedra, "_v_to_h", refused)
    rows = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [2, 0, 0], [-1, 0, 0], [0, -1, 0], [-1, -1, 0]]
    rhs = [1, -1, 1, 2, 1, 1, 5]
    h = HPolyhedron(rows, rhs)
    convex = Quadratic.build([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [-4, 6, 0], 13)
    saddle = Quadratic.build([[-2, 0, 0], [0, 2, 0], [0, 0, 2]], [-1, 0, 0])
    for q, value, point in ((convex, 6, (1, -1, 1)), (saddle, -1, (1, 0, 1))):
        for verdict in (minimize_on_motzkin(q, decompose(h)), minimize_on_descriptor(q, h)):
            assert (verdict.kind, verdict.value, verdict.point) == ("attained", value, point)
    set_path = tmp_path / "h.json"
    set_path.write_text(serialize("hpolyhedron", h))
    q_path = tmp_path / "q.json"
    q_path.write_text(serialize("quadratic", convex))
    assert main(["--format", "json", "solve", str(set_path), str(q_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["value"], out["point"]) == ("attained", "6", ["1", "-1", "1"])
