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

Minimization over F uses the two-level reduction

    inf_F q = inf_{y in K} [ q(y) + f(A y + b) ] ,

with the inner value f supplied exactly by the cone program.  For polytope
and finite compact parts both levels are exact; ball compact parts use a
refining grid with local polishing and a single documented feasibility
tolerance.  On a ball each inner value is still exact: it comes from
:meth:`ConeProgram.value`, which, when the inner program is convex, reuses
a face that won at an earlier point once its KKT conditions certify it.
The grid evaluates each point once (a memo keyed by point; each level
revisits the points of earlier levels) and tests membership on the integer
offsets ``k`` of a point, ``|k|^2 <= span^2``, which is exact because
``y - center = (r / span) k``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cone_qp import ConeMinVerdict, ConeProgram, minimize_over_hpolyhedron, scaled_descent_ray
from .errors import (
    DimensionMismatchError,
    FwsetsError,
    InvalidParameterError,
    SizeCapError,
    UnsupportedKindError,
)
from .linalg import (
    ONE,
    Vec,
    ZERO,
    dot,
    is_zero,
    matvec,
    rat,
    unit,
    vadd,
    vec,
    vscale,
)
from .polyhedra import (
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    dd_convert,
    recession_cone,
    same_cone,
)
from .quadratics import Quadratic

#: feasibility tolerance for verdicts on non-polyhedral data (balls,
#: second-order cones); polyhedral verdicts are exact
FEASIBILITY_TOL = Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# compact parts and cone representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeK:
    """Convex hull of finitely many points."""

    vertices: tuple[Vec, ...]
    dim: int

    @staticmethod
    def build(points) -> "PolytopeK":
        pts = tuple(vec(p) for p in points)
        if not pts:
            raise DimensionMismatchError("a polytope needs at least one point")
        return PolytopeK(pts, len(pts[0]))


@dataclass(frozen=True)
class Ball:
    center: Vec
    radius: Fraction

    def __post_init__(self):
        if self.radius <= 0:
            raise DimensionMismatchError("ball radius must be positive")

    @staticmethod
    def build(center, radius) -> "Ball":
        return Ball(vec(center), rat(radius))

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, x: Vec) -> bool:
        return vsub_sq(x, self.center) <= self.radius * self.radius


def vsub_sq(x: Vec, y: Vec) -> Fraction:
    return sum(((a - b) * (a - b) for a, b in zip(x, y)), ZERO)


@dataclass(frozen=True)
class FinitePointSet:
    points: tuple[Vec, ...]
    dim: int

    @staticmethod
    def build(points) -> "FinitePointSet":
        pts = tuple(vec(p) for p in points)
        if not pts:
            raise DimensionMismatchError("a point set needs at least one point")
        return FinitePointSet(pts, len(pts[0]))


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
        if self.dim < 3:
            raise UnsupportedKindError("second-order cones require dimension >= 3")
        if len(self.axis) != self.dim or is_zero(self.axis):
            raise DimensionMismatchError("axis must be a nonzero vector of the right size")
        if not (0 < self.aperture < 1):
            raise DimensionMismatchError("aperture must lie strictly between 0 and 1")

    @staticmethod
    def build(dim, axis, aperture) -> "SecondOrderCone":
        return SecondOrderCone(dim, vec(axis), rat(aperture))

    @property
    def gamma(self) -> Fraction:
        return 1 - self.aperture

    def contains(self, x: Vec) -> bool:
        ax = dot(self.axis, x)
        if ax < 0:
            return False
        return ax * ax >= self.gamma * dot(self.axis, self.axis) * dot(x, x)

    def strictly_contains(self, x: Vec) -> bool:
        ax = dot(self.axis, x)
        if ax <= 0:
            return False
        return ax * ax > self.gamma * dot(self.axis, self.axis) * dot(x, x)


CompactPart = PolytopeK | Ball | FinitePointSet
ConeRep = PolyCone | SecondOrderCone


@dataclass(frozen=True)
class MotzkinSet:
    """``compact + cone``; the cone is exactly the recession cone of the sum."""

    compact: CompactPart
    cone: ConeRep

    def __post_init__(self):
        if self.compact.dim != self.cone.dim:
            raise DimensionMismatchError("compact part and cone dimensions differ")

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def is_polyhedral_cone(self) -> bool:
        return isinstance(self.cone, PolyCone)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Attained:
    point: Vec
    value: Fraction
    exact: bool = True

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
    return f.cone


def motzkin_to_vpoly(f: MotzkinSet) -> VPolyhedron:
    """V-form of ``conv(K) + D`` for polyhedral data."""
    if not f.is_polyhedral_cone:
        raise UnsupportedKindError("only polyhedral cones convert to V-form")
    if isinstance(f.compact, Ball):
        raise UnsupportedKindError("ball compact parts have no exact V-form")
    pts = f.compact.vertices if isinstance(f.compact, PolytopeK) else f.compact.points
    return VPolyhedron(tuple(pts), f.cone.generators, (), f.dim)


def decompose(h: HPolyhedron) -> MotzkinSet:
    """Split a nonempty inequality system into a polytope plus a cone.

    This is the classical compact-plus-recession-cone decomposition of a
    polyhedron, computed by double description; lines of the recession cone
    appear as opposite generator pairs.
    """
    v = dd_convert(h)
    if v.is_empty:
        from .errors import EmptySetError

        raise EmptySetError("the polyhedron is empty", certificate=v.empty_certificate)
    gens = list(v.rays)
    for l in v.lineality:
        gens.append(l)
        gens.append(vscale(-ONE, l))
    cone = PolyCone.from_generators(gens, h.dim) if gens else PolyCone((), h.dim)
    return MotzkinSet(PolytopeK(v.vertices, h.dim), cone)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def minimize_on_motzkin(q: Quadratic, f: MotzkinSet, tol: Fraction | None = None) -> AttainmentVerdict:
    """Minimize a quadratic over ``K + D``.

    Polytope and finite compact parts with polyhedral cones are solved
    exactly; ball compact parts run a refining grid over the ball with the
    exact inner cone value, stopping when two successive refinements agree
    within the tolerance, which must be positive.  A second-order cone may
    yield Unknown.
    """
    if q.dim != f.dim:
        raise DimensionMismatchError("quadratic and set dimensions differ")
    if tol is None:
        tol = FEASIBILITY_TOL
    if not tol > 0:  # also rejects NaN
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    if not f.is_polyhedral_cone:
        return _probe_second_order(q, f)
    prog = ConeProgram(q.a, f.cone)
    if isinstance(f.compact, FinitePointSet):
        return _minimize_over_points(q, f.compact.points, prog)
    if isinstance(f.compact, PolytopeK):
        return _minimize_over_polytope(q, f, prog)
    return _minimize_over_ball(q, f, prog, tol)


def inner_linear_term(q: Quadratic, y: Vec) -> Vec:
    """The linear term of ``z -> q(y + z) - q(y)``: A y + b."""
    return vadd(matvec(q.a, y), q.b)


def _unbounded_at(y: Vec, verdict: ConeMinVerdict) -> UnboundedBelow:
    """The verdict for base point y, whose inner cone program gave ``verdict``."""
    if verdict.kind != "unbounded":
        raise FwsetsError("an escape point produced a bounded inner program")
    return UnboundedBelow(
        base=y,
        direction=verdict.direction,
        note=f"inner cone program unbounded ({verdict.curvature})",
    )


def _minimize_over_points(q, points, prog: ConeProgram) -> AttainmentVerdict:
    best = None
    for y in points:
        c = inner_linear_term(q, y)
        verdict = prog.minimize(c)
        if verdict.kind == "unbounded":
            return _unbounded_at(y, verdict)
        total = q.evaluate(y) + verdict.value
        point = vadd(y, verdict.point)
        if best is None or total < best[0]:
            best = (total, point)
    return Attained(point=best[1], value=best[0])


def _minimize_over_polytope(q, f: MotzkinSet, prog: ConeProgram) -> AttainmentVerdict:
    # boundedness via the vertices: the inner linear term is affine in y and
    # dom(f) is convex, so vertex membership decides membership for all of K
    for y in f.compact.vertices:
        c = inner_linear_term(q, y)
        res = prog.boundedness(c)
        if not res.bounded:
            return _unbounded_at(y, prog.minimize(c))
    hform = dd_convert(motzkin_to_vpoly(f))
    solved = minimize_over_hpolyhedron(q, hform)
    if solved is None:
        raise FwsetsError("bounded polyhedral program produced no candidates")
    value, point = solved
    return Attained(point=point, value=value)


def _minimize_over_ball(q, f: MotzkinSet, prog: ConeProgram, tol: Fraction) -> AttainmentVerdict:
    ball: Ball = f.compact
    n = ball.dim
    if n > 4:
        raise SizeCapError("ball compact parts are supported up to dimension 4")
    escape = _ball_escapes_domain(q, ball, prog)
    if escape is not None:
        return _unbounded_at(escape, prog.minimize(inner_linear_term(q, escape)))

    def phi(y: Vec) -> Fraction:
        return q.evaluate(y) + prog.value(inner_linear_term(q, y))

    best_y, best_val = _grid_with_polish(phi, ball, tol)
    if best_y is None:
        return Unknown("ball grid refinement did not stabilize within budget")
    inner = prog.minimize(inner_linear_term(q, best_y))
    return Attained(point=vadd(best_y, inner.point), value=best_val, exact=False)


def _ball_escapes_domain(q, ball: Ball, prog: ConeProgram) -> Vec | None:
    """A rational ball point whose inner linear term leaves dom(f), if any.

    Row test: w.(A y + b) <= 0 on the whole ball iff it holds at the center
    with slack at least radius * |A^T w|, an exact squared comparison.
    """
    dom = prog.dom
    if dom.is_empty:
        return ball.center
    for w in dom.cone.halfspaces or ():
        # dom rows are "h . c <= 0"; c(y) = A y + b
        center_val = dot(w, inner_linear_term(q, ball.center))
        atw = matvec(q.a, w)  # A^T w = A w (A symmetric)
        norm_sq = dot(atw, atw)
        if center_val <= 0 and center_val * center_val >= ball.radius * ball.radius * norm_sq:
            continue  # row holds on the whole ball
        point = _ball_point_violating(ball, center_val, atw, norm_sq)
        if point is not None:
            return point
    return None


def _ball_point_violating(ball, center_val, atw, norm_sq) -> Vec | None:
    """Rational ball point where the row value turns positive.

    Along ``y(t) = center + t A^T w`` the row value is
    ``center_val + t norm_sq``; any rational t past the zero crossing that
    still satisfies ``t^2 norm_sq <= radius^2`` works, and one exists exactly
    when the slab test failed, so halving the overshoot terminates.
    """
    if center_val > 0:
        return ball.center
    if norm_sq == 0:
        return None
    t_req = -center_val / norm_sq
    delta = ONE
    for _ in range(400):
        t = t_req + delta
        if t * t * norm_sq <= ball.radius * ball.radius:
            return vadd(ball.center, vscale(t, atw))
        delta /= 2
    return None


def _grid_with_polish(phi, ball: Ball, tol: Fraction):
    """Refining grid over the ball, then pattern-search polishing.

    Deterministic: grid points are enumerated in lexicographic order, ties
    keep the first minimizer.  Refinement halves the grid step; the run
    counts as stabilized when two successive levels move the best value by
    less than tol, and returns (None, None) otherwise.

    phi is evaluated once per point: a memo keyed by point answers the
    revisits (every level repeats the points of the earlier levels and the
    center, and polishing steps back onto earlier points).  A grid point
    ``center + (r / span) k`` lies in the ball iff ``k.k <= span^2``.
    """
    memo: dict[Vec, Fraction] = {}

    def phi_once(y: Vec) -> Fraction:
        val = memo.get(y)
        if val is None:
            val = memo[y] = phi(y)
        return val

    n = ball.dim
    center = ball.center
    r = ball.radius
    best_y = center
    best_val = phi_once(center)
    levels = {1: 5, 2: 4, 3: 3, 4: 2}[n]
    prev_val = None
    stabilized = False
    for level in range(levels):
        step = r / (2**level)
        span = 2**level
        for offsets in itertools.product(range(-span, span + 1), repeat=n):
            if sum(k * k for k in offsets) > span * span:
                continue
            y = tuple(c + step * k for c, k in zip(center, offsets))
            val = phi_once(y)
            if val < best_val:
                best_val, best_y = val, y
        if prev_val is not None and abs(prev_val - best_val) < tol:
            stabilized = True
            break
        prev_val = best_val
    # local polish: shrinking coordinate steps around the incumbent
    step = r / (2**levels)
    while step > tol / 4:
        improved = False
        for i in range(n):
            for sign in (ONE, -ONE):
                y = tuple(
                    c + (sign * step if j == i else ZERO) for j, c in enumerate(best_y)
                )
                if not ball.contains(y):
                    continue
                val = phi_once(y)
                if val < best_val:
                    best_val, best_y = val, y
                    improved = True
        if not improved:
            step /= 2
    if not stabilized:
        # accept the polished point only if polishing itself converged to a
        # value the last grid level already agreed with
        if prev_val is None or abs(prev_val - best_val) >= tol:
            return None, None
    return best_y, best_val


def _probe_second_order(q, f: MotzkinSet) -> AttainmentVerdict:
    """Search a rational direction battery of the second-order cone for a
    provable descent ray; otherwise report Unknown."""
    soc: SecondOrderCone = f.cone
    base = _some_compact_point(f.compact)
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


def _some_compact_point(k: CompactPart) -> Vec:
    if isinstance(k, PolytopeK):
        return k.vertices[0]
    if isinstance(k, FinitePointSet):
        return k.points[0]
    return k.center


def cross_check_recession(f: MotzkinSet) -> bool:
    """For polyhedral data: the declared cone equals the recession cone of
    the converted H-form, by mutual generator membership."""
    if not f.is_polyhedral_cone or isinstance(f.compact, Ball):
        raise UnsupportedKindError("cross-check requires polyhedral data")
    return same_cone(recession_cone(dd_convert(motzkin_to_vpoly(f))), f.cone)
