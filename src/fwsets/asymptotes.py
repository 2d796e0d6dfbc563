"""Flat asymptotes, projection closedness, and quasi-attainment classification.

A flat asymptote of a set F is an affine manifold M with ``F ∩ M`` empty but
``dist(F, M) = 0``.  For convex F the absence of flat asymptotes is
equivalent to the quasi-attainment property (every quadratic that is
quasi-convex and bounded below on F attains its infimum) and to closedness
of all orthogonal projections of F, so the three analyses live together
here.

Set descriptors
---------------
Sets enter as a small algebra of descriptor nodes: Motzkin sums and
inequality systems (exact analysis), quadratic sublevel sets over a
polyhedral base, the built-in epigraph of ``x^2 + exp(-x^2)``, and products,
affine images, intersections and unions of these.  Exactness degrades
gracefully: polyhedral data gets exact verdicts with certificates,
quadratic sublevel sets get exact line-section emptiness tests plus
certified one-sided bounds, and everything else may answer Unknown, which
is a first-class verdict throughout.

Known counterexample sets carry their asymptote candidates and
non-attainment witnesses in the gallery's case files, read on first use
through :func:`fwsets.gallery.evidence`, so classification reproduces the
published verdicts with the evidence attached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from .affine import AffineManifold, AffineMap
from .cone_qp import minimize_over_hpolyhedron
from .errors import DimensionMismatchError, UnsupportedKindError
from .linalg import (
    ONE,
    LinearSystem,
    Mat,
    Vec,
    ZERO,
    dot,
    hash_once,
    int_kernel_basis,
    int_rref,
    kernel_basis,
    matvec,
    primitive_ints,
    rank,
    set_fields,
    transpose,
    unit,
    vadd,
    vec,
    vscale,
    vsub,
    zeros,
)
from .motzkin import (
    Ball,
    Classification,
    FinitePointSet,
    MotzkinSet,
    SecondOrderCone,
    classify_fw as classify_fw_motzkin,
    compact_points,
    polyhedral_forms,
)
from .numeric import exp_series, lagrangian_value, sqrt_bounds, surd, surd_cmp
from .polyhedra import HPolyhedron, dd_convert, lp_solve
from .quadratics import Quadratic, is_psd

# ---------------------------------------------------------------------------
# descriptor nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadSublevel:
    """``{x in base : q(x) <= 0 for every constraint q}``.

    Facts of the set that do not depend on a query are derived on first
    read and kept: :attr:`psd_forms` and :attr:`psd_supports`.
    """

    base: "SetDescriptor"
    constraints: tuple[Quadratic, ...]
    sample_point: Vec | None = field(default=None, compare=False)

    __hash__ = hash_once

    def __post_init__(self):
        sample = self.sample_point
        set_fields(self, constraints=tuple(self.constraints), sample_point=sample if sample is None else vec(sample))
        n = ambient_dim(self.base)
        for q in self.constraints:
            if q.dim != n:
                raise DimensionMismatchError("constraint dimension differs from base")
        if self.sample_point is not None and contains(self, self.sample_point) is False:
            raise DimensionMismatchError("sample point is not a member")

    @cached_property
    def psd_forms(self) -> tuple[bool, ...]:
        """Whether each constraint's form is positive semidefinite."""
        return tuple(is_psd(g.a) for g in self.constraints)

    @cached_property
    def psd_supports(self) -> dict[tuple[int, ...], tuple[list[tuple[int, ...]], Mat, LinearSystem]]:
        """For each support S (increasing constraint indices) whose forms
        are all PSD: the common kernel K of those forms, as primitive
        integer vectors, the matrix ``(k . b_i)``, a row for each k in K and
        a column for each i in S, and its :class:`LinearSystem`.

        For multipliers lam_i > 0 on S, the combined form is PSD with kernel
        K, so ``w.x + sum(lam_i g_i(x))`` is bounded below iff ``sum(lam_i
        (k . b_i)) = -k . w`` for every k in K: a linear system in lam.
        """
        n = ambient_dim(self)
        out = {}
        for size in range(1, len(self.constraints) + 1):
            for support in itertools.combinations(range(len(self.constraints)), size):
                if not all(self.psd_forms[i] for i in support):
                    continue
                rows = [primitive_ints(row) for i in support for row in self.constraints[i].a]
                kernel = int_kernel_basis(rows, int_rref(rows), n)
                kb = tuple(tuple(dot(k, self.constraints[i].b) for i in support) for k in kernel)
                out[support] = kernel, kb, LinearSystem(kb, size)
        return out


@dataclass(frozen=True)
class Epigraph1D:
    """Epigraph of a built-in scalar function; only ``parabola_exp`` exists,
    the epigraph of ``x^2 + exp(-x^2)`` in the plane."""

    function: str = "parabola_exp"

    def __post_init__(self):
        if self.function not in ("parabola_exp",):
            raise UnsupportedKindError(f"unknown epigraph function {self.function!r}")


@dataclass(frozen=True)
class ProductSet:
    factors: tuple["SetDescriptor", ...]

    def __post_init__(self):
        set_fields(self, factors=tuple(self.factors))
        if not self.factors:
            raise DimensionMismatchError("a product needs at least one factor")


@dataclass(frozen=True)
class AffineImageSet:
    map: AffineMap
    inner: "SetDescriptor"

    def __post_init__(self):
        if self.map.source_dim != ambient_dim(self.inner):
            raise DimensionMismatchError("map source dimension differs from the inner set's")


@dataclass(frozen=True)
class IntersectionSet:
    members: tuple["SetDescriptor", ...]

    def __post_init__(self):
        set_fields(self, members=tuple(self.members))
        _check_members(self.members, "an intersection")


@dataclass(frozen=True)
class UnionSet:
    members: tuple["SetDescriptor", ...]

    def __post_init__(self):
        set_fields(self, members=tuple(self.members))
        _check_members(self.members, "a union")


def _check_members(members: tuple, what: str) -> None:
    """Refuse an empty member list, or members of different dimensions."""
    if not members:
        raise DimensionMismatchError(f"{what} needs at least one member")
    if len({ambient_dim(m) for m in members}) > 1:
        raise DimensionMismatchError(f"the members of {what} live in different dimensions")


SetDescriptor = (
    MotzkinSet
    | HPolyhedron
    | QuadSublevel
    | Epigraph1D
    | ProductSet
    | AffineImageSet
    | IntersectionSet
    | UnionSet
)


def ambient_dim(s: SetDescriptor) -> int:
    if isinstance(s, (MotzkinSet, HPolyhedron)):
        return s.dim
    if isinstance(s, QuadSublevel):
        return ambient_dim(s.base)
    if isinstance(s, Epigraph1D):
        return 2
    if isinstance(s, ProductSet):
        return sum(ambient_dim(f) for f in s.factors)
    if isinstance(s, AffineImageSet):
        return s.map.target_dim
    if isinstance(s, (IntersectionSet, UnionSet)):
        return ambient_dim(s.members[0])
    raise UnsupportedKindError(f"unknown descriptor {type(s).__name__}")


def contains(s: SetDescriptor, x: Vec) -> bool | None:
    """Exact membership where decidable; None when genuinely ambiguous
    (only the transcendental epigraph boundary can be)."""
    x = vec(x)
    forms = polyhedral_forms(s)
    if forms is not None:
        return any(h.contains(x) for h in forms)
    if isinstance(s, MotzkinSet):
        return True if _soc_point_check(s, x) else None
    if isinstance(s, QuadSublevel):
        base = contains(s.base, x)
        if base is not True:
            return base
        return all(q.evaluate(x) <= 0 for q in s.constraints)
    if isinstance(s, Epigraph1D):
        return _epigraph_contains(x)
    if isinstance(s, ProductSet):
        offset = 0
        results = []
        for f in s.factors:
            d = ambient_dim(f)
            results.append(contains(f, x[offset : offset + d]))
            offset += d
        if any(r is False for r in results):
            return False
        if any(r is None for r in results):
            return None
        return True
    if isinstance(s, IntersectionSet):
        results = [contains(m, x) for m in s.members]
        if any(r is False for r in results):
            return False
        return None if any(r is None for r in results) else True
    if isinstance(s, UnionSet):
        results = [contains(m, x) for m in s.members]
        if any(r is True for r in results):
            return True
        return None if any(r is None for r in results) else False
    if isinstance(s, AffineImageSet):
        return None  # membership in an image needs a preimage search
    raise UnsupportedKindError(f"unknown descriptor {type(s).__name__}")


def _soc_point_check(s: MotzkinSet, x: Vec) -> bool:
    # sound only one way; exact membership of sums with balls or second-order
    # cones is not available, so callers treat non-True as None
    if isinstance(s.compact, Ball):
        return False
    return any(s.cone.contains(tuple(a - b for a, b in zip(x, y))) for y in compact_points(s.compact))


def _epigraph_contains(x: Vec) -> bool | None:
    if len(x) != 2:
        raise DimensionMismatchError("the epigraph lives in the plane")
    t, y = x
    s = t * t
    # f(t) = s + exp(-s) and 0 < exp(-s) <= 1: outside the band
    # s < y < s + 1 no enclosure is needed
    if y <= s:
        return False
    if y >= s + 1:
        return True
    # y - s = a/b and s = p/q on ints: every test below cross-multiplies
    gap = y - s
    a, b = gap.numerator, gap.denominator
    p, q = s.numerator, s.denominator
    # exp(-s) <= 1/sum_{j<=k} s^j/j! for s >= 0: k = 1 leaves only a band
    # of width below 1/(1 + s), and k = 2, 4, 8, 16 narrow it at large t
    # without the long sums of the enclosure below; the sum is num/den with
    # den = j! q^j
    num = den = power = 1
    for j in range(1, 17):
        power *= p
        num, den = num * j * q + power, den * j * q
        if j in (1, 2, 4, 8, 16) and a * num >= b * den:
            return True
    # certify with the enclosure L <= exp(s) <= U, widening on demand: a
    # point is a member when (y - s) L >= 1 and not one when (y - s) U < 1;
    # exp_series sums at least 3 floor(s) + 8 terms, so a pass below that
    # count repeats it
    least = 3 * (p // q) + 8
    for terms in sorted({max(k, least) for k in (16, 48, 120)}):
        num, den, tail, tail_den = exp_series(p, q, terms)
        if a * num >= b * den:
            return True
        if a * (num * (tail_den // den) + tail) < b * tail_den:
            return False
    return None


# ---------------------------------------------------------------------------
# distance verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositiveDistance:
    lower_bound_sq: Fraction
    exact: bool = False
    note: str = ""

    kind = "positive"


@dataclass(frozen=True)
class ZeroEvidence:
    pairs: tuple[tuple[Vec, Vec, Fraction], ...]  # (point of F, point of M, dist^2)

    kind = "zero_evidence"


@dataclass(frozen=True)
class Intersects:
    point: Vec | None

    kind = "intersects"


@dataclass(frozen=True)
class DistanceUnknown:
    reason: str

    kind = "unknown"


DistanceVerdict = PositiveDistance | ZeroEvidence | Intersects | DistanceUnknown

#: evidence sequences must pass below these squared-distance thresholds
EVIDENCE_THRESHOLDS_SQ = (Fraction(1, 10**4), Fraction(1, 10**8), Fraction(1, 10**12))


def manifold_projection(m: AffineManifold, x: Vec) -> Vec:
    """Orthogonal projection of x onto the flat, exact:
    ``x - A^T (A A^T)^-1 (A x - b)`` over its equations ``A x = b``."""
    y = _equation_gram(m).solve(vsub(matvec(m.a, x), m.b))
    return vsub(x, matvec(transpose(m.a), y))


def _equation_gram(m: AffineManifold) -> LinearSystem:
    """``A A^T`` of the flat's equations, eliminated once.  Its rows are
    independent, except for the whole space's one zero row, whose particular
    solutions are 0: the projector below is then 0, as it should be."""
    return LinearSystem(tuple(tuple(dot(u, v) for v in m.a) for u in m.a), len(m.a))


def distance_to_manifold(f: SetDescriptor, m: AffineManifold) -> DistanceVerdict:
    """Trichotomy of dist(F, M): exact for polyhedral data, and otherwise an
    intersection point, a certified positive bound from a separating slab,
    a zero-evidence sequence, or Unknown.

    The verdict of a pair with gallery evidence is computed once per
    process; any other pair is computed on every call and never kept.
    """
    if ambient_dim(f) != m.dim:
        raise DimensionMismatchError("set and manifold dimensions differ")
    forms = polyhedral_forms(f)
    if forms is not None:
        return _distance_exact(forms, m)
    if (f, m) in _evidence().points:
        return _evidenced_distance(f, m)
    return _distance_bound(f, m)


@cache
def _evidenced_distance(f: SetDescriptor, m: AffineManifold) -> DistanceVerdict:
    """:func:`_distance_bound` of a pair with gallery evidence, kept."""
    return _distance_bound(f, m)


def _distance_bound(f: SetDescriptor, m: AffineManifold) -> DistanceVerdict:
    """The non-polyhedral leg of :func:`distance_to_manifold`."""
    inter = intersects_manifold(f, m)
    if inter is True:
        return Intersects(_find_manifold_member(f, m))
    slab = _separating_slab(f, m)
    if slab is not None:
        return slab
    points = _evidence().points.get((f, m))
    if points is not None and inter is False:
        pairs = []
        for x in points:
            if contains(f, x) is not True:
                raise DimensionMismatchError("evidence point is not a member of the set")
            y = manifold_projection(m, x)
            d = vsub(x, y)
            pairs.append((tuple(x), tuple(y), dot(d, d)))
        dists = [p[2] for p in pairs]
        if all(a > b for a, b in zip(dists, dists[1:])) and all(
            any(d < thr for d in dists) for thr in EVIDENCE_THRESHOLDS_SQ
        ):
            return ZeroEvidence(tuple(pairs))
    if inter is None:
        return DistanceUnknown("intersection with the manifold is undecided")
    return DistanceUnknown("no separating slab and no zero-distance evidence")


def _distance_exact(forms: tuple[HPolyhedron, ...], m: AffineManifold) -> DistanceVerdict:
    """Exact squared distance from a union of inequality systems to M.

    With ``A x = b`` the flat's equations and ``N = A^T (A A^T)^-1 A`` the
    projector onto its normal space, ``x.N x - 2 x.A^T (A A^T)^-1 b +
    b.(A A^T)^-1 b`` is the squared distance from x to M; its least value
    over the systems is attained (a convex quadratic bounded below on a
    polyhedron).
    """
    gram, cols = _equation_gram(m), tuple(zip(*m.a))
    w = [gram.solve(c) for c in cols]  # the columns of (A A^T)^-1 A
    y = gram.solve(m.b)
    q = Quadratic(
        tuple(tuple(2 * dot(ci, wj) for wj in w) for ci in cols),
        vscale(-2, matvec(cols, y)),
        dot(m.b, y),
    )
    solved = [s for s in (minimize_over_hpolyhedron(q, h) for h in forms) if s is not None]
    if not solved:
        return DistanceUnknown("distance program returned no candidates")
    value, x = min(solved, key=lambda s: s[0])
    if value == 0:
        return Intersects(x)
    return PositiveDistance(value, exact=True, note="attained squared distance")


def _find_manifold_member(f, m) -> Vec | None:
    if m.flat_dim == 0:
        return m.point
    if m.flat_dim == 1 and isinstance(f, QuadSublevel):
        return _line_section_point(f, m.point, m.basis[0])
    return None


def intersects_manifold(f: SetDescriptor, m: AffineManifold) -> bool | None:
    """Exact emptiness/nonemptiness of F ∩ M where decidable."""
    forms = polyhedral_forms(f)
    if forms is not None:
        rows, rhs = m.inequalities()
        return any(
            lp_solve(h.a + rows, h.b + rhs, zeros(f.dim)).status == "optimal" for h in forms
        )
    if isinstance(f, QuadSublevel):
        if m.flat_dim == 0:
            return contains(f, m.point)
        if m.flat_dim == 1:
            return _line_section_feasible(f, m.point, m.basis[0])
        return None
    if isinstance(f, Epigraph1D):
        return _epigraph_line_intersects(m)
    return None


# ---------------------------------------------------------------------------
# exact line sections of quadratic sublevel sets
# ---------------------------------------------------------------------------

_NINF = ("ninf",)
_PINF = ("pinf",)


def _ep_cmp(x, y) -> int:
    if x == y:
        return 0
    if x is _NINF or y is _PINF:
        return -1
    if x is _PINF or y is _NINF:
        return 1
    return surd_cmp(x, y)


def _interval_intersect(a, b):
    lo = a[0] if _ep_cmp(a[0], b[0]) >= 0 else b[0]
    hi = a[1] if _ep_cmp(a[1], b[1]) <= 0 else b[1]
    if _ep_cmp(lo, hi) > 0:
        return None
    return (lo, hi)


def _quadratic_on_line(q: Quadratic, point: Vec, direction: Vec):
    ad = matvec(q.a, direction)
    alpha = dot(direction, ad) / 2
    beta = dot(point, ad) + dot(q.b, direction)
    gamma = q.evaluate(point)
    return alpha, beta, gamma


def _solution_intervals(alpha, beta, gamma):
    """Closed solution set of ``alpha t^2 + beta t + gamma <= 0`` as a union
    of at most two intervals with surd endpoints."""
    if alpha == 0:
        if beta == 0:
            return [(_NINF, _PINF)] if gamma <= 0 else []
        t0 = surd(-gamma / beta)
        return [(_NINF, t0)] if beta > 0 else [(t0, _PINF)]
    disc = beta * beta - 4 * alpha * gamma
    center = -beta / (2 * alpha)
    spread = ONE / (2 * alpha)
    if alpha > 0:
        if disc < 0:
            return []
        lo = surd(center, -abs(spread), disc)
        hi = surd(center, abs(spread), disc)
        return [(lo, hi)]
    if disc <= 0:
        return [(_NINF, _PINF)]
    lo = surd(center, -abs(spread), disc)
    hi = surd(center, abs(spread), disc)
    return [(_NINF, lo), (hi, _PINF)]


def _line_section_intervals(f: QuadSublevel, point: Vec, direction: Vec):
    base = f.base
    if not isinstance(base, HPolyhedron):
        return None
    systems = []
    for row, rhs in zip(base.a, base.b):
        a = ZERO
        b = dot(row, direction)
        g = dot(row, point) - rhs
        systems.append(_solution_intervals(a, b, g))
    for q in f.constraints:
        systems.append(_solution_intervals(*_quadratic_on_line(q, point, direction)))
    current = [(_NINF, _PINF)]
    for sys_intervals in systems:
        nxt = []
        for cur in current:
            for piece in sys_intervals:
                inter = _interval_intersect(cur, piece)
                if inter is not None:
                    nxt.append(inter)
        if not nxt:
            return []
        current = nxt
    return current


def _line_section_feasible(f: QuadSublevel, point: Vec, direction: Vec) -> bool | None:
    intervals = _line_section_intervals(f, point, direction)
    if intervals is None:
        return None
    return bool(intervals)


def _line_section_point(f: QuadSublevel, point: Vec, direction: Vec) -> Vec | None:
    """A rational point of F on the line, when one is easy to pin down.

    Each interval offers its rational endpoints; a half-line also offers the
    floor (or ceiling) of a rational bound of its endpoint, and a bounded
    interval a rational between its endpoints, whose square-root enclosures
    are refined until they separate.
    """
    intervals = _line_section_intervals(f, point, direction)
    if not intervals:
        return None
    candidates: list[Fraction] = []
    for lo, hi in intervals:
        if lo is not _NINF and lo[1] == 0:
            candidates.append(lo[0])
        if hi is not _PINF and hi[1] == 0:
            candidates.append(hi[0])
        if lo is _NINF and hi is _PINF:
            candidates.append(ZERO)
        elif lo is _NINF:
            candidates.append(Fraction(math.floor(_surd_bounds(hi)[0])))
        elif hi is _PINF:
            candidates.append(Fraction(math.ceil(_surd_bounds(lo)[1])))
        elif _ep_cmp(lo, hi) < 0:
            scale = 10**12
            while (left := _surd_bounds(lo, scale)[1]) >= (right := _surd_bounds(hi, scale)[0]):
                scale *= scale
            candidates.append((left + right) / 2)
    for t in candidates:
        x = vadd(point, vscale(t, direction))
        if contains(f, x) is True:
            return x
    return None


def _surd_bounds(s, scale: int = 10**12) -> tuple[Fraction, Fraction]:
    """Rational ``(lo, hi)`` around the surd ``a + b sqrt(m)``, about
    ``|b| / scale`` wide."""
    a, b, m = s
    ends = [a + b * r for r in sqrt_bounds(m, scale)]
    return min(ends), max(ends)


def _epigraph_line_intersects(m: AffineManifold) -> bool | None:
    """Does a line meet the epigraph of x^2 + exp(-x^2)?  Decided via the
    bound ``exp(-s) >= 1 - s`` (so f >= 1 everywhere, f >= x^2 always)."""
    if m.dim != 2:
        raise DimensionMismatchError("the epigraph lives in the plane")
    if m.flat_dim == 0:
        return _epigraph_contains(m.point)
    d = m.basis[0]
    if d[0] == 0:
        return True  # vertical line: (x0, y) enters the epigraph for large y
    # y = slope * x + icept along the line
    slope = d[1] / d[0]
    icept = m.point[1] - slope * m.point[0]
    # membership on the line needs g(x) + exp(-x^2) <= 0, g = x^2 - slope x - icept;
    # exp(-x^2) > 0 everywhere and exp(-x^2) >= 1 - x^2, so either bound can refute
    quad_min = -icept - slope * slope / 4  # min of g over the whole line
    if quad_min > 0:
        return False
    lin_bound = 1 - abs(slope) - icept  # minorant of g + exp on |x| <= 1
    if lin_bound > 0 and _quad_min_outside_unit(slope, icept) >= 0:
        return False
    # certified hit at x = t/2: with slope = sp/sn and icept = cp/cd,
    # -g(x) = a/b for b = 4 sn cd, and the line's point is a member when
    # (a/b) L >= 1 for the 32-term lower sum L = num/den <= exp(x^2)
    sp, sn, cp, cd = slope.numerator, slope.denominator, icept.numerator, icept.denominator
    b = 4 * sn * cd
    for t, num, den in _hit_grid():
        a = 2 * t * sp * cd + 4 * cp * sn - t * t * sn * cd
        if a * num >= b * den:
            return True
    return None


@cache
def _hit_grid() -> tuple[tuple[int, int, int], ...]:
    """``(t, num, den)`` for the points x = t/2, t = -12 ... 12, of the line
    test: num/den is the 32-term lower sum of exp(x^2) (:func:`exp_series`),
    the same for every line."""
    return tuple((t, *exp_series(t * t, 4, 32)[:2]) for t in range(-12, 13))


def _quad_min_outside_unit(slope, icept) -> Fraction:
    g = lambda x: x * x - slope * x - icept
    vertex = slope / 2
    vals = [g(ONE), g(-ONE)]
    if abs(vertex) >= 1:
        vals.append(g(vertex))
    return min(vals)


# ---------------------------------------------------------------------------
# separating slabs via certified one-sided bounds of linear functionals
# ---------------------------------------------------------------------------


def linear_lower_bound(f: SetDescriptor, w: Vec) -> Fraction | None:
    """A certified lower bound of ``inf {w.x : x in F}``, or None.

    Polyhedral data is exact; quadratic sublevel sets combine the base
    relaxation with the weak-duality bounds ``inf_x w.x + sum(lam q(x))``
    of :func:`_lagrangian_bounds` (any feasible value is a bound); the
    epigraph uses its minorant ``y >= max(1, x^2)``.
    """
    forms = polyhedral_forms(f)
    if forms is not None:
        results = [lp_solve(h.a, h.b, w) for h in forms]
        if all(res.status == "optimal" for res in results):
            return min(res.value for res in results)
        return None
    if isinstance(f, QuadSublevel):
        best = None
        if isinstance(f.base, HPolyhedron):
            res = lp_solve(f.base.a, f.base.b, w)
            if res.status == "optimal":
                best = res.value
        if len(f.constraints) <= 3:
            for value in _lagrangian_bounds(f, w):
                if best is None or value > best:
                    best = value
        return best
    if isinstance(f, Epigraph1D):
        alpha, beta = w
        if beta > 0:
            # y >= x^2 + exp(-x^2) >= max(1, x^2), so w.(x, y) >= alpha x +
            # beta max(1, x^2); that minorant is least at x = -sign(alpha)
            # while the vertex -alpha/(2 beta) lies in [-1, 1], else there
            if abs(alpha) <= 2 * beta:
                return beta - abs(alpha)
            return -alpha * alpha / (4 * beta)
        if beta == 0 and alpha == 0:
            return ZERO
        return None
    return None


# the positive multipliers tried on a support whose multipliers stay free
_LAM_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))


def _lagrangian_bounds(f: QuadSublevel, w: Vec):
    """The finite values ``inf_x w.x + sum(lam_i g_i(x))`` that each support
    S = {i : lam_i > 0} offers.

    When every form in S is PSD, the stationarity system is consistent iff
    lam solves the system of :attr:`QuadSublevel.psd_supports`, which is
    solved once.  When it fixes lam, that lam is the only consistent one:
    if it is positive, its bound is the best on S, and otherwise S gives
    none, as it does when the system is inconsistent.  While lam stays
    free, the consistent combinations of ``_LAM_GRID`` are tried.  A
    positive multiple of one non-PSD form is never PSD, so such a support
    is skipped; a mixed support of several forms tries the whole grid, and
    :func:`lagrangian_value` decides each combination.
    """
    n, k = len(w), len(f.constraints)
    linear = Quadratic(tuple((ZERO,) * n for _ in range(n)), tuple(w), ZERO)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            facts = f.psd_supports.get(support)
            if facts is None:
                if size == 1:
                    continue
                choices = itertools.product(_LAM_GRID, repeat=size)
            else:
                kernel, kb, system = facts
                rhs = tuple(-dot(v, w) for v in kernel)
                lam = system.solve(rhs)
                if lam is None:
                    continue
                if system.rank == size:
                    if not all(x > 0 for x in lam):
                        continue
                    choices = (lam,)
                else:
                    choices = (
                        lams
                        for lams in itertools.product(_LAM_GRID, repeat=size)
                        if all(dot(row, lams) == r for row, r in zip(kb, rhs))
                    )
            for lams in choices:
                full = [ZERO] * k
                for i, x in zip(support, lams):
                    full[i] = x
                lag = lagrangian_value(linear, f.constraints, full)
                if lag is not None:
                    yield lag[0]


def _separating_slab(f: SetDescriptor, m: AffineManifold) -> PositiveDistance | None:
    """Search the manifold's normals for a functional separating F from M."""
    for row, rhs in zip(m.a, m.b):
        norm_sq = dot(row, row)
        if norm_sq == 0:
            continue
        lo = linear_lower_bound(f, row)
        if lo is not None and lo > rhs:
            gap = lo - rhs
            return PositiveDistance(gap * gap / norm_sq, note="separating slab")
        hi = linear_lower_bound(f, vscale(-ONE, row))
        if hi is not None and -hi < rhs:
            gap = rhs + hi
            return PositiveDistance(gap * gap / norm_sq, note="separating slab")
    return None


# ---------------------------------------------------------------------------
# f-asymptotes
# ---------------------------------------------------------------------------


def is_f_asymptote(f: SetDescriptor, m: AffineManifold) -> bool | None:
    """True when F misses M but approaches it arbitrarily closely.

    The emptiness leg must be certified (exactly); the zero-distance leg is
    exact for polyhedral data and evidence-based otherwise.  None means one
    leg is undecided.
    """
    return asymptote_verdict(distance_to_manifold(f, m).kind)


def asymptote_verdict(kind: str) -> bool | None:
    """The verdict of :func:`is_f_asymptote` for a distance of this kind."""
    if kind in ("intersects", "positive"):
        return False
    # zero evidence is only given once the intersection is certified empty
    return True if kind == "zero_evidence" else None


# ---------------------------------------------------------------------------
# projection closedness
# ---------------------------------------------------------------------------


def projection_closed(f: SetDescriptor, coords) -> tuple[bool | None, str]:
    """Is the image of F under the projection onto ``coords`` closed?

    Coordinates are 1-based ints.  Second-order recession cones are decided
    by the exact spectral test on the dropped coordinates (sound for any
    kernel that meets the cone only at 0, contains an interior ray, or has
    dimension one).  Otherwise the projection onto one coordinate j is
    ``image_closed_1d(f, e_j)``; onto several, sets that :func:`classify`
    calls qFW (polyhedral data among them, as it is FW) and compact sets
    are closed, and the verdict is None for any other set.
    """
    n = ambient_dim(f)
    if any(isinstance(c, bool) or not isinstance(c, int) for c in coords):
        raise DimensionMismatchError("coords must be ints")
    coords = sorted(set(coords))
    if not coords or coords[0] < 1 or coords[-1] > n:
        raise DimensionMismatchError("coords must be a nonempty subset of {1..n}")
    if isinstance(f, MotzkinSet) and not f.is_polyhedral_cone:
        verdict = _soc_projection_closed(f.cone, coords)
        if verdict is None:
            return None, "kernel meets the cone boundary in dimension above one"
        why = (
            "projection of the compact part is compact; closedness is decided "
            "by the second-order cone kernel test"
        )
        return verdict, why
    if len(coords) == 1:
        return image_closed_1d(f, unit(n, coords[0] - 1))
    closed = _closed_as_qfw(f) or _closed_as_compact(f)
    return closed or (None, "no closed-form analysis applies to this set kind")


def _closed_as_qfw(f: SetDescriptor) -> tuple[bool, str] | None:
    """True for a set that :func:`classify` calls qFW: a missing limit point
    of an image would leave the squared distance to it, a convex quadratic
    bounded below by 0, unattained.  The evidence only refutes, so the
    labels of f's kind decide qFW without reading it."""
    if _lattice(*_kind_rules(f))[1].label != "qFW":
        return None
    return True, "the set is qFW, so its linear images are closed"


def _closed_as_compact(f: SetDescriptor) -> tuple[bool, str] | None:
    if isinstance(f, QuadSublevel) and bounded_base(f):
        return True, "the set is compact (bounded base), so every image is closed"
    return None


def bounded_base(f: QuadSublevel) -> bool:
    """True when f's base is a nonempty bounded inequality system, which
    makes f (closed constraints on a compact base) compact."""
    if not isinstance(f.base, HPolyhedron):
        return False
    base_v = dd_convert(f.base)
    return not base_v.is_empty and not base_v.rays and not base_v.lineality


def _soc_projection_closed(cone: SecondOrderCone, coords) -> bool | None:
    dropped = [j for j in range(cone.dim) if (j + 1) not in coords]
    k = len(dropped)
    if k == 0:
        return True
    a = cone.axis
    gamma = cone.gamma
    norm_a = dot(a, a)
    mk = tuple(
        tuple(a[dropped[r]] * a[dropped[s]] - (gamma * norm_a if r == s else ZERO) for s in range(k))
        for r in range(k)
    )
    neg_mk = tuple(tuple(-x for x in row) for row in mk)
    if not is_psd(neg_mk):
        return True  # kernel contains an interior ray: the image is everything
    boundary = kernel_basis(mk, ncols=k)
    if not boundary:
        return True  # kernel meets the cone only at the origin
    if k == 1:
        return False  # projecting along a boundary ray loses closedness
    return None


def image_closed_1d(f: SetDescriptor, functional: Vec) -> tuple[bool | None, str]:
    """Closedness of ``{w.x : x in F}`` for a linear functional w.

    The image fails to be closed exactly when some level set ``{w.x = beta}``
    is a flat asymptote of F.  The rules, in the order they are tried:

    1. w = 0 (the image is one value): closed;
    2. a quadratic sublevel set over an inequality system in the plane: the
       kernel of w is span(k), k = (-w2, w1), and the asymptotic cone of F
       lies in ``C = {d : a.d <= 0 for every base row, d.A d <= 0 for every
       constraint form}``.  If neither k nor -k is in C, the image is closed,
       since a closed set whose asymptotic cone meets the kernel only at 0
       has a closed linear image (Auslender and Teboulle, *Asymptotic Cones
       and Functions*, 2003).  If k or -k is strictly negative on every row
       and every form, each fibre line eventually lies in F, so the image is
       the whole line;
    3. sets that :func:`classify` calls qFW: closed, since a missing limit
       point beta would leave ``(w.x - beta)^2``, a convex quadratic bounded
       below by 0, unattained.  Polyhedral data is FW, hence qFW.  No case
       file is read for this rule;
    4. a gallery asymptote candidate with its normal parallel to w that
       :func:`is_f_asymptote` confirms: not closed, on evidence.  The
       candidate's distance verdict is computed once per process (see
       :func:`distance_to_manifold`);
    5. compact sets: closed.

    For consistent data rule 4 and rules 3 and 5 cannot both fire.
    Otherwise the verdict is None; no rule guesses.  A functional of another
    length than the ambient dimension raises DimensionMismatchError.
    """
    n = ambient_dim(f)
    if len(functional) != n:
        raise DimensionMismatchError("the functional's length differs from the ambient dimension")
    w = vec(functional)
    if not any(w):
        return True, "the zero functional takes a single value"
    if isinstance(f, QuadSublevel) and isinstance(f.base, HPolyhedron) and n == 2:
        verdict = _kernel_test(f, (-w[1], w[0]))
        if verdict is not None:
            return verdict
    closed = _closed_as_qfw(f)
    if closed is not None:
        return closed
    for m in _evidence().candidates.get(f, ()):
        if rank((w, *m.a)) == 1 and is_f_asymptote(f, m) is True:
            return False, (
                "evidence of a flat asymptote {w.x = beta} (a certified miss and "
                "sampled zero-distance points): beta is approached but not attained"
            )
    return _closed_as_compact(f) or (None, "no closed-form analysis applies to this functional")


def _kernel_test(f: QuadSublevel, k: Vec) -> tuple[bool, str] | None:
    """Rule 2 of :func:`image_closed_1d`: the signs of the base rows and the
    constraint forms along k and -k, the kernel directions of w."""
    forms = [dot(k, matvec(q.a, k)) for q in f.constraints]
    rows = [dot(a, k) for a in f.base.a]
    signs = (rows + forms, [-v for v in rows] + forms)
    if all(any(v > 0 for v in s) for s in signs):
        return True, "the asymptotic cone meets the kernel only at 0, so the image is closed"
    if any(all(v < 0 for v in s) for s in signs):
        return True, "every fibre line eventually lies in the set, so the image is the whole line"
    return None


# ---------------------------------------------------------------------------
# evidence for the counterexample sets, read from the gallery's case files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonAttainmentWitness:
    """A quadratic bounded below on the set whose infimum is not attained,
    with a member curve driving the values toward the infimum."""

    objective: Quadratic
    infimum: Fraction
    curve_points: tuple[Vec, ...]
    note: str


def _evidence():
    """The gallery's witnesses, asymptote candidates and evidence points
    (:func:`fwsets.gallery.evidence`); the gallery imports this module, so
    it is imported here on first use."""
    from .gallery import evidence

    return evidence()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify(f: SetDescriptor) -> tuple[Classification, Classification]:
    """The attainment and quasi-attainment labels of a set descriptor.

    F is FW when every quadratic bounded below on F attains its infimum
    there, and qFW when every quasi-convex one does.  Each descriptor kind
    is visited once, and each rule is stated once:

    * a polyhedron is FW (the classical theorem); a Motzkin sum is decided
      by its recession cone (:func:`fwsets.motzkin.classify_fw`), and a
      second-order cone also makes it NotQFW (Mirkil) unless a finite
      compact part may make the sum nonconvex;
    * convex quadratic constraints on a nonempty set: one over a polyhedron
      is FW (Luo-Zhang), and any number over a qFW base is qFW;
    * the epigraph of ``x^2 + exp(-x^2)`` is qFW;
    * a product is NotFW, or NotQFW, when a factor is, qFW when every
      factor is, and FW when every factor is FW and all but one are whole
      spaces; an affine image and a finite union are FW, or qFW, when
      every inner set is (the least member minimum is attained); an
      intersection gets no label;
    * the gallery's evidence decides what is left: a confirmed flat
      asymptote makes F NotQFW, and a witness whose curve points check out
      makes it NotFW.

    Then FW implies qFW, and NotQFW implies NotFW.  The implications are
    applied before the evidence is read, so a set that its kind decides
    reads no case file.  Unknown is returned where no rule applies.
    """
    fw, qfw = _lattice(*_kind_rules(f))
    if fw.label != "Unknown" and qfw.label != "Unknown":
        return fw, qfw
    found = _evidence()
    if qfw.label == "Unknown" and any(is_f_asymptote(f, m) is True for m in found.candidates.get(f, ())):
        return _lattice(fw, Classification(
            "NotQFW",
            "evidence of a flat asymptote (a certified miss and sampled "
            "zero-distance points), so quasi-convex attainment fails",
        ))
    witness = found.witnesses.get(f) if fw.label == "Unknown" else None
    if witness is not None and _witness_validates(f):
        fw = Classification("NotFW", f"witness evidence at sampled curve points: {witness.note}")
    return fw, qfw


def classify_fw_set(f: SetDescriptor) -> Classification:
    """The attainment label of :func:`classify`."""
    return classify(f)[0]


def classify_qfw(f: SetDescriptor) -> Classification:
    """The quasi-attainment label of :func:`classify`."""
    return classify(f)[1]


def _lattice(fw: Classification, qfw: Classification) -> tuple[Classification, Classification]:
    """FW implies qFW, and NotQFW implies NotFW."""
    if fw.label == "FW" and qfw.label == "Unknown":
        qfw = Classification("qFW", f"FW implies qFW: {fw.justification}")
    elif qfw.label == "NotQFW" and fw.label == "Unknown":
        fw = Classification("NotFW", f"NotQFW implies NotFW: {qfw.justification}")
    return fw, qfw


_NO_RULE = Classification("Unknown", "no structural rule applies")


def _kind_rules(f: SetDescriptor) -> tuple[Classification, Classification]:
    """The labels that f's kind decides, before the lattice and the evidence."""
    if isinstance(f, HPolyhedron):
        return Classification("FW", "the classical attainment theorem for quadratics on polyhedra"), _NO_RULE
    if isinstance(f, MotzkinSet):
        fw = classify_fw_motzkin(f)
        if fw.label == "FW":
            return fw, _NO_RULE
        if isinstance(f.compact, FinitePointSet) and len(f.compact.points) > 1:
            return fw, Classification("Unknown", "a finite compact part may make the sum nonconvex")
        return fw, Classification(
            "NotQFW",
            "second-order recession cone: some planar projection is not "
            "closed (Mirkil), so a flat asymptote exists",
        )
    if isinstance(f, QuadSublevel):
        if not all(f.psd_forms):
            return _NO_RULE, _NO_RULE
        if _nonempty_witness(f) is None:
            return _NO_RULE, Classification("Unknown", "nonemptiness not established")
        if isinstance(f.base, HPolyhedron) and len(f.constraints) == 1:
            return Classification(
                "FW",
                "a polyhedron with one convex quadratic constraint attains "
                "bounded-below quadratics (Luo-Zhang)",
            ), _NO_RULE
        if classify(f.base)[1].label == "qFW":
            return _NO_RULE, Classification(
                "qFW",
                "nonempty intersection of a quasi-attainment set with "
                "convex quadratic sublevel sets stays quasi-attainment",
            )
        return _NO_RULE, _NO_RULE
    if isinstance(f, Epigraph1D):
        return _NO_RULE, Classification(
            "qFW",
            "convex epigraph with no flat asymptotes (the boundary grows "
            "like x^2, faster than every line)",
        )
    if isinstance(f, ProductSet):
        fws, qfws = zip(*(classify(fac) for fac in f.factors))
        if any(c.label == "NotFW" for c in fws):
            fw = Classification("NotFW", "a coordinate projection onto a factor fails attainment")
        elif all(c.label == "FW" for c in fws) and sum(not _is_whole_space(fac) for fac in f.factors) <= 1:
            fw = Classification("FW", "product of an attainment set with full coordinate spaces")
        else:
            fw = Classification("Unknown", "products of attainment sets do not attain in general")
        if all(c.label == "qFW" for c in qfws):
            qfw = Classification("qFW", "finite products of quasi-attainment sets are quasi-attainment")
        elif any(c.label == "NotQFW" for c in qfws):
            qfw = Classification(
                "NotQFW",
                "a coordinate projection of the product is a factor that "
                "fails quasi-attainment",
            )
        else:
            qfw = Classification("Unknown", "a factor resisted classification")
        return fw, qfw
    if isinstance(f, (AffineImageSet, UnionSet)):
        image = isinstance(f, AffineImageSet)
        fws, qfws = zip(*map(classify, (f.inner,) if image else f.members))
        what = "affine images" if image else "finite unions"
        fw = qfw = Classification("Unknown", "an inner set resisted classification")
        if all(c.label == "FW" for c in fws):
            fw = Classification("FW", f"{what} of attainment sets attain")
        if all(c.label == "qFW" for c in qfws):
            qfw = Classification("qFW", f"{what} of quasi-attainment sets are quasi-attainment")
        return fw, qfw
    if isinstance(f, IntersectionSet):
        return (
            Classification("Unknown", "intersections of attainment sets do not attain in general"),
            Classification("Unknown", "no rule classifies an intersection"),
        )
    raise UnsupportedKindError(f"unknown descriptor {type(f).__name__}")


def _nonempty_witness(f: QuadSublevel) -> Vec | None:
    if f.sample_point is not None:
        return f.sample_point
    origin = zeros(ambient_dim(f))
    return origin if contains(f, origin) is True else None


def _is_whole_space(f) -> bool:
    return isinstance(f, HPolyhedron) and len(f.a) == 0


@cache
def _witness_validates(f) -> bool:
    """Check the gallery witness of f, once per process: curve points are
    members, values strictly decrease toward the claimed infimum, and stay
    above it."""
    witness = _evidence().witnesses[f]
    vals = []
    for x in witness.curve_points:
        if contains(f, x) is not True:
            return False
        vals.append(witness.objective.evaluate(x))
    if not vals:
        return False
    if any(v <= witness.infimum for v in vals):
        return False
    if any(a <= b for a, b in zip(vals, vals[1:])):
        return False
    return vals[-1] - witness.infimum < Fraction(1, 1000)
