"""Motzkin sets ``F = K + D``: construction, classification, minimization.

``K`` is a compact part of one of three kinds (polytope, ball, finite point
set) and ``D`` a closed convex cone, either polyhedral or a second-order
cone.  The cone is always exactly the recession cone of the sum, so the
Frank-and-Wolfe property of F is decided entirely by polyhedrality of D:
polyhedral recession cone means every quadratic bounded below on F attains
its infimum (Kummer's theorem, constructively via the cone value function),
and a genuinely second-order recession cone rules the property out (by the
order cancellation law plus Mirkil's theorem some planar projection of D,
hence of F, fails to be closed).

Minimization rests on the two-level reduction

    inf_F q = inf_{y in K} [ q(y) + f(A y + b) ] ,

with the inner value f supplied exactly by the cone program.  q is bounded
below on F exactly when every inner linear term ``A y + b``, y in K, lies in
dom(f), and one escape test decides it for every compact part: the first
listed point (a point set's points, or a polytope's vertices, which decide
it for all of K because the term is affine in y and dom(f) is convex) whose
term leaves dom(f), or, for a ball, a point past the crossing of a row of
dom(f), is the base of the unbounded verdict.  A bounded point set is
minimized point by point, both levels exact.  A bounded polytope part is not
reduced: its exact minimum is the quadratic program on F's own inequality
form.  On a ball the minimum is bracketed between two exact rationals: each
multiplier mu of the ball constraint g gives a weak-duality lower bound
(:func:`numeric.lagrangian_value` of q + mu g plus one cone program over D),
and the point of that program gives a member whose objective value is an
upper bound.
:func:`numeric.bracket_multiplier` searches mu, by secant steps on the
secular function ``1/|s| - 1/r`` of the ball point ``c + s``, until the
bracket is at most the tolerance wide; for a convex objective the dual is
tight (Slater, then the S-lemma), so the bracket closes.  Each probe also
returns the slack on its winning face of D as an exact function of mu
(:class:`_FaceSlack`: the face's own KKT system, its mu-free face rows
eliminated once on ints, evaluated as two integer polynomials in mu), and
the steps read that model: a probe runs only where the model's slack
closes the bracket, so a ball that mu = 0 leaves open mostly takes one more
probe.  The probe itself runs on ints, from the columns of ``(A + mu I)^-1``
that the Lagrangian bound's elimination gives.  A ball alone is bracketed
as the gallery's disks are, by :func:`numeric.one_constraint_bracket`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cone_qp import ConeProgram, DomF, minimize_over_hpolyhedron, scaled_descent_ray
from .errors import (
    DimensionMismatchError,
    EmptySetError,
    FwsetsError,
    InvalidParameterError,
    UnsupportedKindError,
    require_kind,
)
from .linalg import (
    ONE,
    Vec,
    dim_of,
    dot,
    hash_once,
    identity,
    idot,
    independent_rows,
    int_faddeev,
    int_rref,
    int_solution,
    is_zero,
    mat,
    matvec,
    primitive_ints,
    rat,
    set_fields,
    unit,
    vadd,
    vec,
    vscale,
    vsub,
)
from .polyhedra import (
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    dd_convert,
    h_to_v_with_facets,
)
from .numeric import bracket_multiplier, lagrangian_value, one_constraint_bracket
from .quadratics import Quadratic

#: default width of the exact bracket around a minimum over a ball;
#: polyhedral verdicts are exact
FEASIBILITY_TOL = Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# compact parts and cone representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeK:
    """Convex hull of one or more points; ``dim`` defaults to their width."""

    vertices: tuple[Vec, ...]
    dim: int | None = None

    def __post_init__(self):
        vertices = mat(self.vertices)
        set_fields(self, vertices=vertices, dim=dim_of(self.dim, vertices))
        if not vertices:
            raise EmptySetError("a polytope needs at least one vertex")
        if len(vertices[0]) != self.dim:
            raise DimensionMismatchError("vertex dimension mismatch")


PolytopeK.build = PolytopeK  # the spelling bench/workloads.py calls


@dataclass(frozen=True)
class Ball:
    center: Vec
    radius: Fraction

    def __post_init__(self):
        set_fields(self, center=vec(self.center), radius=rat(self.radius))
        if self.radius <= 0:
            raise DimensionMismatchError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, x: Vec) -> bool:
        return vsub_sq(x, self.center) <= self.radius * self.radius


def vsub_sq(x: Vec, y: Vec) -> Fraction:
    d = vsub(x, y)
    return dot(d, d)


@dataclass(frozen=True)
class FinitePointSet:
    """One or more points; ``dim`` defaults to their width."""

    points: tuple[Vec, ...]
    dim: int | None = None

    def __post_init__(self):
        points = mat(self.points)
        set_fields(self, points=points, dim=dim_of(self.dim, points))
        if not points:
            raise EmptySetError("a point set needs at least one point")
        if len(points[0]) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")


@dataclass(frozen=True)
class SecondOrderCone:
    """``{x : axis.x >= 0, (axis.x)^2 >= (1 - aperture) |axis|^2 |x|^2}``.

    ``aperture`` in (0, 1) widens the cone toward a halfspace as it grows;
    aperture 1/2 is the right-circular 45-degree cone.  Membership tests are
    exact on rational points because only squared norms appear.  Dimension
    must be at least 3: the planar case is polyhedral and would falsify the
    classification.
    """

    dim: int
    axis: Vec
    aperture: Fraction

    def __post_init__(self):
        set_fields(self, axis=vec(self.axis), aperture=rat(self.aperture))
        if self.dim < 3:
            raise UnsupportedKindError("second-order cones require dimension >= 3")
        if len(self.axis) != self.dim or is_zero(self.axis):
            raise DimensionMismatchError("axis must be a nonzero vector of the right size")
        if not (0 < self.aperture < 1):
            raise DimensionMismatchError("aperture must lie strictly between 0 and 1")

    @property
    def gamma(self) -> Fraction:
        return 1 - self.aperture

    def contains(self, x: Vec) -> bool:
        ax = dot(self.axis, x)
        if ax < 0:
            return False
        return ax * ax >= self.gamma * dot(self.axis, self.axis) * dot(x, x)


SecondOrderCone.build = SecondOrderCone  # the spelling bench/workloads.py calls


CompactPart = PolytopeK | Ball | FinitePointSet
ConeRep = PolyCone | SecondOrderCone


@dataclass(frozen=True)
class MotzkinSet:
    """``compact + cone``; the cone is exactly the recession cone of the sum.

    A set compares and hashes by its two parts.  Its H-form ``hform``, the
    inequality system of ``conv(compact) + cone`` for polyhedral data, is
    derived on first read: the rows that :func:`decompose` keeps, selected
    then from its conversion's zero sets, or else converted from the
    V-form.
    """

    compact: CompactPart
    cone: ConeRep

    __hash__ = hash_once

    def __post_init__(self):
        if self.compact.dim != self.cone.dim:
            raise DimensionMismatchError("compact part and cone dimensions differ")

    @property
    def dim(self) -> int:
        return self.cone.dim

    @cached_property
    def hform(self) -> HPolyhedron:
        kept = self.__dict__.pop("_kept_rows", None)
        return kept() if kept else dd_convert(motzkin_to_vpoly(self))

    @property
    def is_polyhedral_cone(self) -> bool:
        return isinstance(self.cone, PolyCone)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Attained:
    """The minimum is attained at ``point``.  For ball data ``value`` is q
    at the member ``point`` and ``lower_bound`` a certified bound at most
    the tolerance below it; ``exact`` is False there unless the two are
    equal, a bracket of width 0."""

    point: Vec
    value: Fraction
    exact: bool = True
    lower_bound: Fraction | None = None

    kind = "attained"


@dataclass(frozen=True)
class NotAttained:
    infimum: Fraction
    evidence: tuple[tuple[Vec, Fraction], ...]
    lower_bound: Fraction | None = None

    kind = "not_attained"


@dataclass(frozen=True)
class UnboundedBelow:
    base: Vec
    direction: Vec
    note: str = ""

    kind = "unbounded"


@dataclass(frozen=True)
class Unknown:
    reason: str
    lower_bound: Fraction | None = None

    kind = "unknown"


AttainmentVerdict = Attained | NotAttained | UnboundedBelow | Unknown


@dataclass(frozen=True)
class Classification:
    label: str
    justification: str


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify_fw(f: MotzkinSet) -> Classification:
    """Frank-and-Wolfe status of a Motzkin set, from its recession cone."""
    require_kind(f, MotzkinSet, "classify_fw takes a MotzkinSet")
    if f.is_polyhedral_cone:
        return Classification(
            "FW",
            "recession cone is polyhedral, so bounded-below quadratics attain "
            "their infima (Kummer's theorem for compact-plus-cone sums)",
        )
    return Classification(
        "NotFW",
        "recession cone is a non-polyhedral second-order cone; by the order "
        "cancellation law and Mirkil's theorem some planar projection is not "
        "closed, so the attainment property fails",
    )


def recession_cone_of(f: MotzkinSet) -> ConeRep:
    """The recession cone of ``compact + cone`` is the cone itself."""
    require_kind(f, MotzkinSet, "recession_cone_of takes a MotzkinSet")
    return f.cone


def motzkin_to_vpoly(f: MotzkinSet) -> VPolyhedron:
    """V-form of ``conv(K) + D`` for polyhedral data."""
    if not f.is_polyhedral_cone:
        raise UnsupportedKindError("only polyhedral cones convert to V-form")
    return VPolyhedron(tuple(compact_points(f.compact)), f.cone.generators, (), f.dim)


def compact_points(k: CompactPart) -> tuple[Vec, ...]:
    """The points whose convex hull is a polytope or finite compact part."""
    if isinstance(k, PolytopeK):
        return k.vertices
    if isinstance(k, FinitePointSet):
        return k.points
    raise UnsupportedKindError("ball compact parts are not supported here")


def polyhedral_forms(s) -> tuple[HPolyhedron, ...] | None:
    """The inequality systems whose union is s, for polyhedral data; None
    for any other set.

    An inequality system is its own form, and a polytope plus a polyhedral
    cone has one, its ``hform`` (the rows :func:`decompose` kept, or else
    converted from its V-form).  A finite point set plus a cone has one
    form per point: the cone's halfspaces shifted to that point.
    """
    if isinstance(s, HPolyhedron):
        return (s,)
    if not isinstance(s, MotzkinSet) or not s.is_polyhedral_cone or isinstance(s.compact, Ball):
        return None
    if isinstance(s.compact, PolytopeK):
        return (s.hform,)
    rows = s.cone.halfspaces
    return tuple(HPolyhedron(rows, tuple(dot(h, y) for h in rows), s.dim) for y in s.compact.points)


def vpoly_to_motzkin(v: VPolyhedron, empty_message: str) -> MotzkinSet:
    """The Motzkin set of a V-form: the polytope of its vertices plus the
    cone of its rays and lines, each line followed by its negative.

    A V-form without a vertex is empty and raises EmptySetError with the
    message ``empty_message`` and the V-form's certificate.
    """
    if v.is_empty:
        raise EmptySetError(empty_message, certificate=v.empty_certificate)
    cone = PolyCone.from_generators(_cone_generators(v), v.dim)
    return MotzkinSet(PolytopeK(v.vertices, v.dim), cone)


def _cone_generators(v: VPolyhedron) -> tuple[Vec, ...]:
    """The rays of a V-form, then each line followed by its negative."""
    gens = list(v.rays)
    for line in v.lineality:
        gens += [line, vscale(-ONE, line)]
    return tuple(gens)


def decompose(h: HPolyhedron) -> MotzkinSet:
    """Split a nonempty inequality system into a polytope plus a cone.

    This is the classical compact-plus-recession-cone decomposition of a
    polyhedron, computed by one double description
    (:func:`polyhedra.h_to_v_with_facets`); lines of the recession cone
    appear as opposite generator pairs.  The value is
    ``vpoly_to_motzkin(dd_convert(h), ...)``, built straight from the
    conversion's primitive, distinct rays.  Its ``hform`` is h's own rows
    less the redundant ones, so the polytope's quadratic program is solved
    without converting back to an H-form.  An empty h raises EmptySetError
    with its Farkas certificate.
    """
    require_kind(h, HPolyhedron, "decompose takes an HPolyhedron")
    v, kept = h_to_v_with_facets(h)
    if v.is_empty:
        raise EmptySetError("the polyhedron is empty", certificate=v.empty_certificate)
    f = MotzkinSet(PolytopeK(v.vertices, v.dim), PolyCone(_cone_generators(v), v.dim))
    f.__dict__["_kept_rows"] = kept
    return f


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def minimize_on_motzkin(q: Quadratic, f: MotzkinSet, tol: Fraction | None = None) -> AttainmentVerdict:
    """Minimize a quadratic over ``K + D``.

    With a polyhedral cone, boundedness is decided first, by one escape test
    for every compact part (:func:`_escape_point`): a point y of K whose
    inner linear term leaves dom(f) gives UnboundedBelow, based at y along
    the inner cone program's descent ray.  Bounded polytope and finite
    compact parts are then solved exactly.  On a ball compact part the minimum is bracketed exactly: the
    verdict is Attained, with a member point, its value and a certified
    lower bound at most ``tol`` below it, once the bracket is that narrow,
    and Unknown, carrying the lower bound found, when it stays wider (a
    nonconvex objective whose dual bound is infinite, or the hard case of
    the trust-region problem).  ``tol`` must be positive.  A second-order
    cone may yield Unknown.
    """
    require_kind(q, Quadratic, "minimize_on_motzkin takes a Quadratic")
    require_kind(f, MotzkinSet, "minimize_on_motzkin takes a MotzkinSet")
    if q.dim != f.dim:
        raise DimensionMismatchError("quadratic and set dimensions differ")
    if tol is None:
        tol = FEASIBILITY_TOL
    if isinstance(tol, bool) or not 0 < tol < math.inf:  # also rejects NaN
        raise InvalidParameterError(f"tolerance must be positive and finite, got {tol}")
    tol = Fraction(tol)
    if not f.is_polyhedral_cone:
        return _probe_second_order(q, f)
    prog = ConeProgram(q.a, f.cone)
    y = _escape_point(q, f.compact, prog)
    if y is not None:
        verdict = prog.minimize(inner_linear_term(q, y))
        if verdict.kind != "unbounded":
            raise FwsetsError("an escape point produced a bounded inner program")
        return UnboundedBelow(
            base=y,
            direction=verdict.direction,
            note=f"inner cone program unbounded ({verdict.curvature})",
        )
    if isinstance(f.compact, FinitePointSet):
        return _minimize_over_points(q, f.compact.points, prog)
    if isinstance(f.compact, PolytopeK):
        solved = minimize_over_hpolyhedron(q, f.hform)
        if solved is None:
            raise FwsetsError("bounded polyhedral program produced no candidates")
        return Attained(point=solved[1], value=solved[0])
    return _minimize_over_ball(q, f, prog, tol)


def inner_linear_term(q: Quadratic, y: Vec) -> Vec:
    """The linear term of ``z -> q(y + z) - q(y)``: A y + b."""
    return vadd(matvec(q.a, y), q.b)


def _escape_point(q, k: CompactPart, prog: ConeProgram) -> Vec | None:
    """A point y of K whose inner linear term ``A y + b`` leaves dom(f), or
    None when q is bounded below on ``K + D``.

    Listed points (a finite point set, or a polytope's vertices) are tested
    in order, and the first outside dom(f) is the answer: the term is affine
    in y and dom(f) is convex, so the vertices decide it for all of a
    polytope.  A dom(f) without rows that is not empty holds every term, and
    no point is read.  A ball is tested by rows
    (:func:`_ball_escapes_domain`).
    """
    dom = prog.dom
    if isinstance(k, Ball):
        return _ball_escapes_domain(q, k, dom)
    if not dom.is_empty and not dom.rows:
        return None
    return next((y for y in compact_points(k) if not dom.contains(inner_linear_term(q, y))), None)


def _minimize_over_points(q, points, prog: ConeProgram) -> Attained:
    best = None
    for y in points:
        verdict = prog.minimize(inner_linear_term(q, y))
        total = q.evaluate(y) + verdict.value
        if best is None or total < best[0]:
            best = (total, vadd(y, verdict.point))
    return Attained(point=best[1], value=best[0])


def _minimize_over_ball(q, f: MotzkinSet, prog: ConeProgram, tol: Fraction) -> AttainmentVerdict:
    ball: Ball = f.compact
    c, r2 = ball.center, ball.radius * ball.radius
    g = Quadratic(identity(ball.dim), vscale(-ONE, c), (dot(c, c) - r2) / 2)  # (|y - c|^2 - r^2)/2
    if f.cone.generators:
        lower, upper, point = bracket_multiplier(_ball_probe(q, ball, g, f.cone), tol, r2)
    else:
        lower, upper, point = one_constraint_bracket(q, g, tol, lambda y: True)
    if upper is not None and upper - lower <= tol:
        # a bracket of width 0 proves the minimum: q at a member equals a
        # weak-duality lower bound
        return Attained(point=point, value=upper, exact=upper == lower, lower_bound=lower)
    return Unknown(
        f"the multiplier search closed no bracket of width {tol} (lower bound "
        f"{lower}, least member value {upper}; None where there was none)",
        lower_bound=lower,
    )


def _ball_probe(q, ball: Ball, g: Quadratic, cone: PolyCone):
    """The probe of :func:`numeric.bracket_multiplier` for q on ``ball + cone``.

    g is the ball's constraint ``(|y - c|^2 - r^2)/2``.  For rational
    mu >= 0 with ``A + mu I`` positive definite, put ``g0 = A c + b``,
    ``M = (A + mu I)^-1`` and ``y = c + s``.  The minimum over s of
    ``q(y + x) + mu g(y)`` is taken at ``s = -M (A x + g0)``, and what is
    left is ``mu`` times the cone program ``1/2 x.(A M) x + (M g0).x`` over
    D plus the bound :func:`numeric.lagrangian_value` of q + mu g (``A M =
    I - mu M``).  The sum is a lower bound on q over the set (weak duality);
    at the program's point x, ``(c + s) + x`` is a member when ``|s| <= r``,
    and q there is an upper bound.  The slack is ``r^2 - |s|^2``, measured
    from the level r^2, and the model of it is the :class:`_FaceSlack` of
    the program's winning face.  At mu = 0 this is the projection of the
    unconstrained minimizer of q onto ``c + D``.  None when ``A + mu I`` is
    singular or not PSD, or the cone program is unbounded.

    It runs on ints: the columns of M are read off the bound's own
    :class:`linalg.LinearSystem` over one denominator, ``I - mu M``, ``M
    g0``, s and the slack are formed from them and from A and g0 over their
    lcm L, and Fractions are built for the program's data and the member.
    """
    n = ball.dim
    c, r2 = ball.center, ball.radius * ball.radius
    g0 = q.gradient(c)
    gens = [primitive_ints(gen) for gen in cone.generators]
    scale = math.lcm(*(x.denominator for row in q.a for x in row), *(x.denominator for x in g0))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in q.a]
    g0_ints = [x.numerator * (scale // x.denominator) for x in g0]
    cden = math.lcm(*(x.denominator for x in c))
    c_ints = [x.numerator * (cden // x.denominator) for x in c]
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    rn, rd = r2.numerator, r2.denominator

    def probe(mu):
        res = lagrangian_value(q, (g,), (mu,))
        if res is None or res[2].rank < n:
            return None
        bound, _, system = res
        # M = m / dm, m symmetric; I - mu M = (e I - p m) / e for e = d dm
        cols = [system.solve_ints(u) for u in units]
        m, dm = [col for col, _ in cols], cols[0][1]
        p, e = mu.numerator, mu.denominator * dm
        gm = tuple(
            tuple(Fraction(e - p * x if i == j else -p * x, e) for j, x in enumerate(row))
            for i, row in enumerate(m)
        )
        mg0 = tuple(Fraction(idot(row, g0_ints), dm * scale) for row in m)
        verdict = ConeProgram(gm, cone).minimize(mg0)
        if verdict.kind != "attained":
            return None
        # x = xi / xd, L xd (A x + g0) = v, and s = -M (A x + g0) = -sv / sd
        xd = math.lcm(*(v.denominator for v in verdict.point))
        xi = [v.numerator * (xd // v.denominator) for v in verdict.point]
        v = [idot(row, xi) + xd * h for row, h in zip(a, g0_ints)]
        sv = [idot(row, v) for row in m]
        sd = dm * scale * xd
        slack = Fraction(rn * sd * sd - rd * idot(sv, sv), rd * sd * sd)
        lower = mu * verdict.value + bound
        face = [z for j, z in enumerate(gens) if j not in verdict.active_set]
        model = _FaceSlack(a, g0_ints, scale, face, r2)
        if slack < 0:
            return slack, lower, None, None, model
        # c + s + x over one denominator, which xd divides
        den = math.lcm(cden, sd)
        fc, fs, fx = den // cden, den // sd, den // xd
        point = tuple(
            Fraction(ci * fc - si * fs + x * fx, den) for ci, si, x in zip(c_ints, sv, xi)
        )
        return slack, lower, q.evaluate(point), point, model

    return probe


class _FaceSlack:
    """The ball probe's slack ``r^2 - |s|^2`` on one face of D, as an exact
    function of mu > 0.

    On the face with generators Z_F (the free ones of the probe's active
    set), ``y = c + s`` and ``x = Z_F t`` solve the stationarity system
    ``K(mu) [s; t] = -[g0; Z_F^T g0]`` with ``K(mu) = [[A + mu I, A Z_F],
    [Z_F^T A, Z_F^T A Z_F]]``: the first block is ``A (y + x) + b + mu (y -
    c) = 0``, the second the face's own rows of the cone program.  The face
    rows do not depend on mu, so the first call eliminates them once, on
    ints: with B an independent basis of Z_F and ``S = B^T A B``
    nonsingular, ``s = -(P + mu I)^-1 g'`` for the Schur complement ``P = A
    - A B S^-1 B^T A`` and ``g' = g0 - A B S^-1 B^T g0``, both scaled to
    integers, and one Faddeev-LeVerrier pass (:func:`linalg.int_faddeev`)
    gives ``det(P + nu I)`` and ``adj(P + nu I) g'`` as integer
    polynomials.  Each call evaluates the two at mu = p / d, homogenized by
    powers of d, and builds one Fraction, ``r^2 - |adj g'|^2 / det^2``.
    Where ``K(mu)`` is nonsingular on B, s is unique and this is its slack.
    A singular S, or a det that vanishes at mu, is answered by eliminating
    ``K(mu)`` itself, the ints ``[d L A + p L I | d L A Z_F | -d L g0]`` and
    ``[(L A Z_F)^T | Z_F^T L A Z_F | -Z_F^T L g0]`` for L the lcm of the
    denominators of A and g0, and reading the solution with zero free
    coordinates (None when the system is inconsistent).  So every value is
    the elimination's, and it equals the probe's slack at every mu > 0 where
    the face wins the probe; the probe at 0 is a projection instead.
    """

    def __init__(self, a, g0, scale, face, r2):
        self._a, self._g0, self._scale, self._face, self._r2 = a, g0, scale, face, r2

    def __call__(self, mu: Fraction) -> Fraction | None:
        p, d = mu.numerator, mu.denominator
        polynomials = self._polynomials
        if polynomials is not None:
            kappa, c, u = polynomials
            # det(P~ + nu I) d^n and adj(P~ + nu I) g~ d^(n-1) at nu = t / d
            n, t = len(u), kappa * p
            det, w, dk = t + c[n - 1] * d, u[n - 1], 1
            for j in reversed(range(n - 1)):
                dk *= d
                det = det * t + c[j] * dk * d
                w = [x * t + y * dk for x, y in zip(w, u[j])]
            if det:
                rn, rd = self._r2.numerator, self._r2.denominator
                return Fraction(rn * det * det - rd * d * d * idot(w, w), rd * det * det)
        rows = [[d * x for x in row] for row in self._kkt[0]]
        for i, row in enumerate(rows):
            row[i] += p * self._scale
        rows += [row[:] for row in self._kkt[1]]
        sol = int_solution(rows, int_rref(rows), len(rows))
        if sol is None:
            return None
        s, den = sol[0][: len(self._a)], sol[1]
        return self._r2 - Fraction(idot(s, s), den * den)

    @cached_property
    def _polynomials(self) -> tuple[int, list[int], list[list[int]]] | None:
        """``(kappa, c, u)`` with ``s = -(P~ + kappa mu I)^-1 g~`` for integer
        P~ and g~ (``kappa > 0``), ``det(P~ + nu I) = sum(c[j] nu^j)`` and
        ``adj(P~ + nu I) g~ = sum(u[j] nu^j)``; None when S is singular.
        With ``S^-1 = adj / sigma`` on ints, ``P~, g~, kappa`` are ``sigma
        (L P, L g', L)`` over their gcd, the sign making kappa positive."""
        a, h, n = self._a, self._g0, len(self._a)
        basis = [self._face[i] for i in independent_rows(self._face, n)]
        sigma = 1
        if basis:
            ab = [[idot(row, z) for z in basis] for row in a]  # L A B
            c, mats = int_faddeev([[idot(z, col) for col in zip(*ab)] for z in basis])
            sigma, adj = -c[0], mats[-1]  # S^-1 = adj / sigma
            if not sigma:
                return None
            t = [[idot(row, col) for col in zip(*adj)] for row in ab]  # L A B adj
            bh = [idot(z, h) for z in basis]
            a = [[sigma * x - idot(trow, brow) for x, brow in zip(row, ab)] for row, trow in zip(a, t)]
            h = [sigma * x - idot(trow, bh) for x, trow in zip(h, t)]
        kappa = sigma * self._scale
        g = math.gcd(kappa, *h, *(x for row in a for x in row))
        g = g if kappa > 0 else -g
        a = [[-x // g for x in row] for row in a]  # -P~
        h = [x // g for x in h]
        c, mats = int_faddeev(a)
        return kappa // g, c, [[idot(row, h) for row in mats[n - 1 - j]] for j in range(n)]

    @cached_property
    def _kkt(self) -> tuple[list[list[int]], list[list[int]]]:
        """The rows of K(mu) without mu: ``[L A | L A Z_F | -L g0]`` and the
        face's ``[(L A Z_F)^T | Z_F^T L A Z_F | -Z_F^T L g0]``."""
        w = [[idot(row, z) for z in self._face] for row in self._a]  # L A Z_F
        cols = [list(col) for col in zip(*w)]
        top = [row + wrow + [-x] for row, wrow, x in zip(self._a, w, self._g0)]
        bottom = [
            col + [idot(z, c) for c in cols] + [-idot(z, self._g0)] for z, col in zip(self._face, cols)
        ]
        return top, bottom


def _ball_escapes_domain(q, ball: Ball, dom: DomF) -> Vec | None:
    """A rational ball point whose inner linear term leaves dom(f), if any.

    Row test: ``w.(A y + b) <= 0`` on the whole ball iff it holds at the
    center with slack at least ``radius |A^T w|``, an exact squared
    comparison.  Where a row fails it, its value along ``y(t) = center + t
    A^T w`` is ``center_val + t N``, ``N = |A^T w|^2 > 0``, zero at ``t_req
    = -center_val / N`` with ``t_req^2 N < r^2``.  The point at ``t = t_req
    + delta``, ``delta = min(1, (r^2 - t_req^2 N) / ((2 t_req + 1) N))``,
    has a positive value and lies in the ball: ``delta^2 <= delta`` gives
    ``t^2 N <= t_req^2 N + (2 t_req + 1) delta N <= r^2``.
    """
    if dom.is_empty:
        return ball.center
    r2 = ball.radius * ball.radius
    center_term = inner_linear_term(q, ball.center)
    for w in dom.rows:
        # dom rows are "w . c <= 0"; c(y) = A y + b
        center_val = dot(w, center_term)
        if center_val > 0:
            return ball.center
        atw = matvec(q.a, w)  # A^T w = A w (A symmetric)
        norm_sq = dot(atw, atw)
        if center_val * center_val >= r2 * norm_sq:
            continue  # row holds on the whole ball
        t_req = -center_val / norm_sq
        delta = min(ONE, (r2 - t_req * t_req * norm_sq) / ((2 * t_req + 1) * norm_sq))
        return vadd(ball.center, vscale(t_req + delta, atw))
    return None


def _probe_second_order(q, f: MotzkinSet) -> AttainmentVerdict:
    """Search a rational direction battery of the second-order cone for a
    provable descent ray; otherwise report Unknown."""
    soc: SecondOrderCone = f.cone
    k = f.compact
    base = k.center if isinstance(k, Ball) else compact_points(k)[0]
    candidates = [soc.axis]
    for i in range(soc.dim):
        for delta in (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)):
            cand = vadd(soc.axis, vscale(delta, unit(soc.dim, i)))
            if soc.contains(cand):
                candidates.append(cand)
    for d in candidates:
        curvature = dot(d, matvec(q.a, d))
        slope = dot(q.gradient(base), d)
        if curvature < 0 or (curvature == 0 and slope < 0):
            return UnboundedBelow(
                base=base,
                direction=scaled_descent_ray(d, slope, curvature),
                note="descent ray found inside the second-order cone",
            )
    return Unknown(
        "recession cone is second-order; no closed form applies and the "
        "direction battery found no certified descent ray"
    )

