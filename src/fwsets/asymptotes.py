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

Known counterexample sets register their asymptote candidates and
non-attainment witnesses in module-level registries (the gallery does this
on import), so classification reproduces the published verdicts with the
evidence attached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .affine import AffineManifold, AffineMap
from .cone_qp import minimize_over_hpolyhedron
from .errors import DimensionMismatchError, UnsupportedKindError
from .linalg import (
    ONE,
    Vec,
    ZERO,
    dot,
    kernel_basis,
    matvec,
    rank,
    solve,
    unit,
    vadd,
    vec,
    vscale,
    vsub,
    zeros,
)
from .motzkin import (
    Classification,
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    SecondOrderCone,
    classify_fw as classify_fw_motzkin,
    polyhedral_forms,
)
from .numeric import exp_bounds, lagrangian_value, sqrt_bounds, surd, surd_cmp
from .polyhedra import HPolyhedron, dd_convert, lp_solve
from .quadratics import Quadratic, is_convex, is_psd

# ---------------------------------------------------------------------------
# descriptor nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadSublevel:
    """``{x in base : q(x) <= 0 for every constraint q}``."""

    base: "SetDescriptor"
    constraints: tuple[Quadratic, ...]
    sample_point: Vec | None = field(default=None, compare=False)

    def __post_init__(self):
        n = ambient_dim(self.base)
        for q in self.constraints:
            if q.dim != n:
                raise DimensionMismatchError("constraint dimension differs from base")
        if self.sample_point is not None and contains(self, self.sample_point) is False:
            raise DimensionMismatchError("sample point is not a member")


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


@dataclass(frozen=True)
class AffineImageSet:
    map: AffineMap
    inner: "SetDescriptor"


@dataclass(frozen=True)
class IntersectionSet:
    members: tuple["SetDescriptor", ...]


@dataclass(frozen=True)
class UnionSet:
    members: tuple["SetDescriptor", ...]


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


def whole_space(n: int) -> HPolyhedron:
    return HPolyhedron((), (), n)


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
    if isinstance(s.compact, (PolytopeK, FinitePointSet)):
        pts = s.compact.vertices if isinstance(s.compact, PolytopeK) else s.compact.points
        return any(s.cone.contains(tuple(a - b for a, b in zip(x, y))) for y in pts)
    return False


def _epigraph_contains(x: Vec) -> bool | None:
    if len(x) != 2:
        raise DimensionMismatchError("the epigraph lives in the plane")
    t, y = x
    # f(t) = t^2 + exp(-t^2) and 0 < exp(-t^2) <= 1: outside the band
    # t^2 < y < t^2 + 1 no enclosure is needed
    if y <= t * t:
        return False
    if y >= t * t + 1:
        return True
    # certify with rational bounds, widening on demand
    for terms in (16, 48, 120):
        lo, hi = exp_bounds(-t * t, terms)
        if y >= t * t + hi:
            return True
        if y < t * t + lo:
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
    """Orthogonal projection of x onto the flat, exact.

    Solves the normal equations over the flat's direction basis; rational
    because the basis is rational.
    """
    if not m.basis:
        return m.point
    diff = tuple(a - b for a, b in zip(x, m.point))
    gram = tuple(tuple(dot(u, v) for v in m.basis) for u in m.basis)
    rhs = tuple(dot(u, diff) for u in m.basis)
    coeffs = solve(gram, rhs)
    out = m.point
    for c, v in zip(coeffs, m.basis):
        out = vadd(out, vscale(c, v))
    return out


def distance_to_manifold(f: SetDescriptor, m: AffineManifold) -> DistanceVerdict:
    """Trichotomy of dist(F, M): exact for polyhedral data, and otherwise an
    intersection point, a certified positive bound from a separating slab,
    a zero-evidence sequence, or Unknown.

    The verdict of a registered pair (one with asymptote evidence) is
    computed once per process and then returned as stored, until the next
    registration empties the store; any other pair is computed on every
    call and never stored.
    """
    if ambient_dim(f) != m.dim:
        raise DimensionMismatchError("set and manifold dimensions differ")
    forms = polyhedral_forms(f)
    if forms is not None:
        return _distance_exact(forms, m)
    _ensure_builtin_registrations()
    key = (f, m)
    verdict = _VERDICTS.get(key)
    if verdict is None:
        verdict = _distance_bound(f, m)
        if key in _EVIDENCE:
            _VERDICTS[key] = verdict
    return verdict


def _distance_bound(f: SetDescriptor, m: AffineManifold) -> DistanceVerdict:
    """The non-polyhedral leg of :func:`distance_to_manifold`."""
    inter = intersects_manifold(f, m)
    if inter is True:
        return Intersects(_find_manifold_member(f, m))
    slab = _separating_slab(f, m)
    if slab is not None:
        return slab
    points = _EVIDENCE.get((f, m))
    if points is not None and inter is False:
        pairs = []
        for x in points:
            if contains(f, x) is not True:
                raise DimensionMismatchError("evidence point is not a member of the set")
            y = manifold_projection(m, x)
            d2 = sum((a - b) * (a - b) for a, b in zip(x, y))
            pairs.append((tuple(x), tuple(y), d2))
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

    With p the flat's point, B its basis and ``N = I - B (B^T B)^-1 B^T``
    the projector onto the flat's normal space, ``(x - p).N(x - p)`` is the
    squared distance from x to M; its least value over the systems is
    attained (a convex quadratic bounded below on a polyhedron).
    """
    basis = m.basis
    gram = tuple(tuple(dot(u, v) for v in basis) for u in basis)
    normal = []
    for i in range(m.dim):
        # e_i less its orthogonal projection onto span(B)
        row = unit(m.dim, i)
        for c, u in zip(solve(gram, tuple(u[i] for u in basis)), basis):
            row = vsub(row, vscale(c, u))
        normal.append(row)
    shift = matvec(normal, m.point)
    q = Quadratic(
        tuple(vscale(2, row) for row in normal),
        vscale(-2, shift),
        dot(m.point, shift),
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
        rows = tuple(r for row in m.a for r in (row, vscale(-ONE, row)))
        rhs = tuple(v for b in m.b for v in (b, -b))
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
    # certified hit: evaluate with upper bounds at a few rationals
    for t in range(-12, 13):
        x = Fraction(t, 2)
        _, hi = exp_bounds(-x * x, 32)
        if x * x - slope * x - icept + hi <= 0:
            return True
    return None


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
    relaxation with a weak-duality sweep ``inf_x w.x + sum(lam q(x))`` over a
    small grid of nonnegative multipliers (any feasible value is a bound);
    the epigraph uses its minorant ``y >= max(1, x^2)``.
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
            for value in _multiplier_grid_values(f.constraints, w):
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


_LAM_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))


def _multiplier_grid_values(constraints, w: Vec):
    """The finite values ``inf_x w.x + sum(lam_i g_i(x))`` over the grid.

    Consistency is decided once per support S = {i : lam_i > 0}.  When every
    form in S is PSD, the combined form is PSD with kernel the common kernel
    K of those forms, whatever the positive multipliers, so the stationarity
    system is consistent iff ``(w + sum(lam_i b_i)).k = 0`` for each k in K;
    only those combinations reach :func:`lagrangian_value`.  A positive
    multiple of one non-PSD form is never PSD, so such a support is skipped;
    a mixed support of several forms goes to :func:`lagrangian_value` as is.
    """
    n = len(w)
    linear = Quadratic(tuple((ZERO,) * n for _ in range(n)), tuple(w), ZERO)
    psd = [is_psd(g.a) for g in constraints]
    # per all-PSD support: (k.w, (k.b_i for i in S)) for each k in K
    tests = {}
    for lams in itertools.product(_LAM_GRID, repeat=len(constraints)):
        support = tuple(i for i, lam in enumerate(lams) if lam)
        if not support:
            continue
        if all(psd[i] for i in support):
            if support not in tests:
                rows = [row for i in support for row in constraints[i].a]
                tests[support] = [
                    (dot(k, w), [dot(k, constraints[i].b) for i in support])
                    for k in kernel_basis(rows, n)
                ]
            if any(kw + sum(lams[i] * kb for i, kb in zip(support, kbs)) for kw, kbs in tests[support]):
                continue
        elif len(support) == 1:
            continue
        lag = lagrangian_value(linear, constraints, lams)
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
    ``image_closed_1d(f, e_j)``; onto several, polyhedral data, compact sets
    and sets that :func:`classify_qfw` calls qFW (for a convex set, no flat
    asymptote means every projection is closed) are closed, and the verdict
    is None for any other set.
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
    if _polyhedral(f):
        return True, _POLYHEDRAL_NOTE
    return _compact_or_qfw(f) or (None, "no closed-form analysis applies to this set kind")


_POLYHEDRAL_NOTE = "linear images of polyhedral sets are closed"


def _polyhedral(f: SetDescriptor) -> bool:
    return isinstance(f, HPolyhedron) or (isinstance(f, MotzkinSet) and f.is_polyhedral_cone)


def _compact_or_qfw(f: SetDescriptor) -> tuple[bool, str] | None:
    if classify_qfw(f).label == "qFW":
        return True, "the set is qFW: a convex set without flat asymptotes has closed images"
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
    is a flat asymptote of F.  The rules, cheapest first:

    1. polyhedral data, or w = 0 (the image is one value): closed;
    2. a quadratic sublevel set over an inequality system in the plane: the
       kernel of w is span(k), k = (-w2, w1), and the asymptotic cone of F
       lies in ``C = {d : a.d <= 0 for every base row, d.A d <= 0 for every
       constraint form}``.  If neither k nor -k is in C, the image is closed,
       since a closed set whose asymptotic cone meets the kernel only at 0
       has a closed linear image (Auslender and Teboulle, *Asymptotic Cones
       and Functions*, 2003).  If k or -k is strictly negative on every row
       and every form, each fibre line eventually lies in F, so the image is
       the whole line;
    3. a registered asymptote candidate with its normal parallel to w that
       :func:`is_f_asymptote` confirms: not closed, on evidence.  The
       candidate's distance verdict is computed once per process and
       stored (see :func:`distance_to_manifold`);
    4. compact sets, or sets that :func:`classify_qfw` calls qFW (for convex
       sets, no flat asymptote means closed images): closed.

    Otherwise the verdict is None; no rule guesses.  A functional of another
    length than the ambient dimension raises DimensionMismatchError.
    """
    n = ambient_dim(f)
    if len(functional) != n:
        raise DimensionMismatchError("the functional's length differs from the ambient dimension")
    w = vec(functional)
    if _polyhedral(f):
        return True, _POLYHEDRAL_NOTE
    if not any(w):
        return True, "the zero functional takes a single value"
    if isinstance(f, QuadSublevel) and isinstance(f.base, HPolyhedron) and n == 2:
        verdict = _kernel_test(f, (-w[1], w[0]))
        if verdict is not None:
            return verdict
    _ensure_builtin_registrations()
    for m in _ASYMPTOTE_CANDIDATES.get(f, ()):
        if rank((w, *m.a)) == 1 and is_f_asymptote(f, m) is True:
            return False, (
                "evidence of a flat asymptote {w.x = beta} (a certified miss and "
                "sampled zero-distance points): beta is approached but not attained"
            )
    return _compact_or_qfw(f) or (None, "no closed-form analysis applies to this functional")


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
# registries for the counterexample sets (populated by the gallery module)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonAttainmentWitness:
    """A quadratic bounded below on the set whose infimum is not attained,
    with a member curve driving the values toward the infimum."""

    objective: Quadratic
    infimum: Fraction
    curve_points: tuple[Vec, ...]
    note: str


_EVIDENCE: dict[tuple, tuple[Vec, ...]] = {}
_ASYMPTOTE_CANDIDATES: dict[SetDescriptor, tuple[AffineManifold, ...]] = {}
_FW_WITNESSES: dict[SetDescriptor, NonAttainmentWitness] = {}
# verdicts of registered pairs: (set, manifold) -> its distance verdict and
# (set, witness) -> whether the witness validates; every registration empties it
_VERDICTS: dict[tuple, DistanceVerdict | bool] = {}
_registrations_loaded = False


def register_asymptote_evidence(f, m, points):
    """Register zero-distance evidence for (f, m) and m as an asymptote
    candidate of f; registering a pair again replaces its evidence."""
    _EVIDENCE[(f, m)] = tuple(tuple(vec(p)) for p in points)
    candidates = _ASYMPTOTE_CANDIDATES.get(f, ())
    if m not in candidates:
        _ASYMPTOTE_CANDIDATES[f] = candidates + (m,)
    _VERDICTS.clear()


def register_fw_witness(f, witness: NonAttainmentWitness):
    _FW_WITNESSES[f] = witness
    _VERDICTS.clear()


def _ensure_builtin_registrations():
    global _registrations_loaded
    if _registrations_loaded:
        return
    _registrations_loaded = True
    from . import gallery  # noqa: F401  (import populates the registries)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify_qfw(f: SetDescriptor) -> Classification:
    """Quasi-attainment classification of a convex set descriptor.

    Rules: polyhedral sets and Motzkin sums with polyhedral recession cones
    qualify; a second-order recession cone disqualifies (Mirkil); nonempty
    intersections with convex quadratic sublevels, finite products, and
    affine images preserve the property; evidence of a flat asymptote
    disqualifies.  Unknown is returned when no rule applies.
    """
    _ensure_builtin_registrations()
    if isinstance(f, HPolyhedron):
        return Classification(
            "qFW", "closed convex polyhedra attain all bounded-below quadratics"
        )
    if isinstance(f, MotzkinSet):
        if isinstance(f.compact, FinitePointSet) and len(f.compact.points) > 1:
            return Classification(
                "Unknown", "a finite compact part may make the sum nonconvex"
            )
        if f.is_polyhedral_cone:
            return Classification(
                "qFW",
                "polyhedral recession cone: the sum attains bounded-below "
                "quadratics (Kummer), and convex attainment sets are qFW",
            )
        return Classification(
            "NotQFW",
            "second-order recession cone: some planar projection is not "
            "closed (Mirkil), so a flat asymptote exists",
        )
    if isinstance(f, QuadSublevel):
        asym = _find_registered_asymptote(f)
        if asym is not None:
            return Classification(
                "NotQFW",
                "evidence of a flat asymptote (a certified miss and sampled "
                "zero-distance points), so quasi-convex attainment fails",
            )
        base_cls = classify_qfw(f.base)
        if base_cls.label == "qFW" and all(is_convex(q) for q in f.constraints):
            if _nonempty_witness(f) is not None:
                return Classification(
                    "qFW",
                    "nonempty intersection of a quasi-attainment set with "
                    "convex quadratic sublevel sets stays quasi-attainment",
                )
            return Classification("Unknown", "nonemptiness not established")
        return Classification("Unknown", "no structural rule applies")
    if isinstance(f, Epigraph1D):
        return Classification(
            "qFW",
            "convex epigraph with no flat asymptotes (the boundary grows "
            "like x^2, faster than every line)",
        )
    if isinstance(f, ProductSet):
        labels = [classify_qfw(fac) for fac in f.factors]
        if all(c.label == "qFW" for c in labels):
            return Classification(
                "qFW", "finite products of quasi-attainment sets are quasi-attainment"
            )
        if any(c.label == "NotQFW" for c in labels):
            return Classification(
                "NotQFW",
                "a coordinate projection of the product is a factor that "
                "fails quasi-attainment",
            )
        return Classification("Unknown", "a factor resisted classification")
    if isinstance(f, IntersectionSet):
        labels = [classify_qfw(m) for m in f.members]
        if all(c.label == "qFW" for c in labels):
            return Classification(
                "Unknown",
                "members are quasi-attainment but nonemptiness of the "
                "intersection was not established",
            )
        return Classification("Unknown", "a member resisted classification")
    if isinstance(f, AffineImageSet):
        inner = classify_qfw(f.inner)
        if inner.label == "qFW":
            return Classification(
                "qFW", "affine images of quasi-attainment sets are quasi-attainment"
            )
        return Classification("Unknown", "inner set resisted classification")
    if isinstance(f, UnionSet):
        return Classification("Unknown", "unions of convex sets need not be convex")
    raise UnsupportedKindError(f"unknown descriptor {type(f).__name__}")


def _find_registered_asymptote(f) -> AffineManifold | None:
    for m in _ASYMPTOTE_CANDIDATES.get(f, ()):
        if is_f_asymptote(f, m) is True:
            return m
    return None


def _nonempty_witness(f: QuadSublevel) -> Vec | None:
    if f.sample_point is not None:
        return f.sample_point
    origin = zeros(ambient_dim(f))
    return origin if contains(f, origin) is True else None


def classify_fw_set(f: SetDescriptor) -> Classification:
    """Attainment classification of a set descriptor.

    Sound rules only: polyhedra and single convex quadratic sublevel sets
    over a polyhedral base attain (the latter is the Luo-Zhang theorem);
    Motzkin sums are decided by their recession cone; evidence refutes: a
    registered non-attainment witness whose curve points check out, or a
    flat asymptote; finite unions and affine images preserve the property.
    """
    _ensure_builtin_registrations()
    if isinstance(f, HPolyhedron):
        return Classification(
            "FW", "the classical attainment theorem for quadratics on polyhedra"
        )
    if isinstance(f, MotzkinSet):
        return classify_fw_motzkin(f)
    witness = _FW_WITNESSES.get(f)
    if witness is not None:
        key = (f, witness)
        if key not in _VERDICTS:
            _VERDICTS[key] = _witness_validates(f, witness)
        if _VERDICTS[key]:
            return Classification(
                "NotFW",
                f"witness evidence at sampled curve points: {witness.note}",
            )
    if isinstance(f, QuadSublevel):
        if (
            isinstance(f.base, HPolyhedron)
            and len(f.constraints) == 1
            and is_convex(f.constraints[0])
            and _nonempty_witness(f) is not None
        ):
            return Classification(
                "FW",
                "a polyhedron with one convex quadratic constraint attains "
                "bounded-below quadratics (Luo-Zhang)",
            )
        asym = _find_registered_asymptote(f)
        if asym is not None:
            return Classification(
                "NotFW",
                "evidence of a flat asymptote, to which the squared "
                "distance is bounded below but unattained",
            )
        return Classification("Unknown", "no structural rule applies")
    if isinstance(f, Epigraph1D):
        return Classification("Unknown", "no structural rule applies")
    if isinstance(f, UnionSet):
        labels = [classify_fw_set(m) for m in f.members]
        if all(c.label == "FW" for c in labels):
            return Classification("FW", "finite unions of attainment sets attain")
        return Classification(
            "Unknown", "the union rule needs every member to attain"
        )
    if isinstance(f, AffineImageSet):
        inner = classify_fw_set(f.inner)
        if inner.label == "FW":
            return Classification("FW", "affine images of attainment sets attain")
        return Classification("Unknown", "inner set resisted classification")
    if isinstance(f, ProductSet):
        labels = [classify_fw_set(fac) for fac in f.factors]
        if any(c.label == "NotFW" for c in labels):
            return Classification(
                "NotFW", "a coordinate projection onto a factor fails attainment"
            )
        flat = [fac for fac in f.factors if _is_whole_space(fac)]
        if all(c.label == "FW" for c in labels) and len(flat) >= len(f.factors) - 1:
            return Classification(
                "FW", "product of an attainment set with full coordinate spaces"
            )
        return Classification(
            "Unknown", "products of attainment sets do not attain in general"
        )
    if isinstance(f, IntersectionSet):
        return Classification(
            "Unknown", "intersections of attainment sets do not attain in general"
        )
    raise UnsupportedKindError(f"unknown descriptor {type(f).__name__}")


def _is_whole_space(f) -> bool:
    return isinstance(f, HPolyhedron) and len(f.a) == 0


def _witness_validates(f, witness: NonAttainmentWitness) -> bool:
    """Check the witness evidence: curve points are members, values strictly
    decrease toward the claimed infimum, and stay above it."""
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
