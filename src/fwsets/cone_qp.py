"""Quadratics on polyhedral cones: boundedness, value function, exact minima.

For a cone ``D = {Z u : u >= 0}`` (columns of Z are the generators) and a
symmetric G, the value function is

    f(c) = inf_{x in D} c.x + 1/2 x.G x .

Its domain is cut out by the zero set of the form on the cone:
``dom(f) = {c : c.x >= 0 for every x in D with x.G x = 0}``.  Writing
``H = Z^T G Z``, every question here reads the principal blocks ``H_FF``
over the free sets F that are faces of the polytope ``Q = conv(Z)``, each
face given by the generators on it, and each block is eliminated once and
shared.  Faces are enough: the simplex ``{u >= 0, sum u = 1}`` maps onto
Q, and the minimum of ``x.G x`` over Q is taken in the relative interior
of a face; a zero of the form or a minimizer in the relative interior of a
face of D combines that face's generators only, and a face of D exposed by
h has the generators of the face ``Q & {h.x = 0}`` of Q.
The sign of the form on D comes first.  It is negative somewhere iff some
F has a solution v of ``H_FF v = e`` with ``s = e.v < 0`` whose set
``(v + ker H_FF)/s`` meets ``u >= 0``: such a point lies on the simplex
with ``u.H u = 1/s``, and dom(f) is empty.
Otherwise the zero set is assembled from the pieces

    P_I = {u >= 0 : u_i = 0 (i in I), H_FF u_F = 0},   F = complement(I),

over the faces F; a strictly copositive H has none, and dom(f) is the
whole space.  ``(H u)_I >= 0`` needs no row of its own: a zero of a
copositive form minimizes it over ``u >= 0``, so ``H u >= 0`` there.  A
piece is empty unless ``H_FF`` is singular; otherwise double description
runs in the coordinates t of ``u_F = N t`` for a kernel basis N, on the
rows ``N t >= 0`` alone.  dom(f) is the intersection of the halfspaces
``c . (Z u) >= 0`` over all piece generators, kept as these rows and never
converted to generators, and boundedness below is read from them: a row
that c violates is, negated, a zero-set ray along which the objective
decreases.  Everything here is exact.

A convex form needs no walk.  When H is positive semidefinite (G is PSD on
the span of D), the sign test has nothing to find, and the zero set is the
one piece ``P_0 = {u >= 0 : H u = 0}``: for PSD H the form ``x.H x`` is
nonnegative on all of R^p, so a zero u minimizes it there and its gradient
``2 H u`` vanishes.  Every other piece ``P_I = P_0 & {u_I = 0}`` is a face
of ``P_0``, so its rays are rays of ``P_0``, and the walk's rows, which
start with ``P_0``'s, are ``P_0``'s alone.  So dom(f) tests H once on ints
and, for PSD H, reads the rows from that one block's kernel;
``zero_set_pieces`` keeps the walk and all its pieces.  A positive definite
G needs not even the faces: ``x.G x`` vanishes only at x = 0, so the form is
nonnegative on D, every zero-set ray u has ``Z u = 0``, and dom(f) is the
whole space, with no rows.

One object per (G, D), a :class:`ConeProgram`, holds everything the layer
knows about the pair: the ints of H, its eliminated blocks, the faces,
whether H is PSD, and dom(f).  ``nonneg_form_on_cone``, ``zero_set_pieces``,
``dom_f``, ``minimize_on_polyhedral_cone`` and ``value_function_eval`` each
read one fresh program, and ``is_bounded_below_on_cone`` reads ``dom_f``'s
unless it is given dom(f).

The cone layer runs on Python ints.  H is formed once as the integer matrix
``lam H`` (the generators and G scaled by the lcms of their denominators),
each block is eliminated fraction-free, and the sign test and the
stationary systems are solved over one common denominator; the sign of
``s`` is decided on ints.  The zero-set walk reads each block's kernel on
ints, and the rays and the rows of dom(f) are formed on ints, from the
integer generators.  Fractions are built only for the values, points, rays
and rows that are returned, and they are the Fractions that elimination of
H itself gives.

Every minimum here (the form on the simplex, the cone program, the QP over
``{A x <= b}`` for a Q that is not positive definite) is found by one face
solver: a quadratic bounded below on a polyhedron attains its minimum at a
stationary point of some face (Frank & Wolfe).  Each caller solves the
stationarity system of a face by elimination on ints: the cone layer reads
the cached blocks ``H_FF``, and the QP over ``{A x <= b}`` runs two
fraction-free eliminations per face.  A positive definite Q has one
minimizer, and the QP over ``{A x <= b}`` finds it with no face walk, by
the exact dual active-set method of Goldfarb and Idnani: it starts at the
unconstrained minimizer, adds one violated row at a time, drops a row whose
multiplier reaches zero, and steps in Q's range space on ints.  A face
comes with its value, a single Fraction, and a thunk that builds its
solution set, which carries that constant objective, on ints: an integer
point and integer directions over one denominator, and integer rows
``a.z <= b`` that all share one positive scale.  One feasibility ladder
picks a point of it, deciding on these integers: a direct check for an
empty kernel (in the cone layer, the signs of the point's integers against
``u >= 0``, before the face is offered), an interval test on a line by
cross-multiplication, an exact LP in the coordinates along the directions
on a larger set.  The LP's phase 1 weighs each row's artificial variable by
the row's scale, so one common scale (not each row made primitive) keeps
the pivots, and so the point, of the LP in Fractions.  The Fraction point
is built only for a face that passes.  The enumeration keeps the least
``(value, face key)``, and a face that cannot beat the incumbent is never
built.

A convex objective stops the enumeration early.  The cone program and the
QP walk their faces in lexicographic order of the key (the active set, the
row subset), and for a convex objective (H, or Q, positive semidefinite)
each face carries a KKT check: the incumbent's multipliers, the active
gradient entries ``(H u + r)_I`` or the solution of
``A_J^T lam = -grad q(z)``, are nonnegative.  A KKT point of a convex
objective is a global minimum, and every later face has a larger key, so
the walk stops at the first incumbent that passes, with the answer of the
whole walk.  A nonconvex objective walks every face.  The lexicographic
order matters: it reaches both the empty active set and, along
``(0,)``, ``(0, 1)``, ..., the apex u = 0 (every generator active) within
p + 1 faces, where an order by size meets the apex last.  Only the
zero-set walk sorts the faces by size, and reports its pieces so.

One work budget, ``polyhedra.DD_BUDGET``, bounds each public call here: a
``dom_f``, a sign test, a zero-set walk, one ``ConeProgram.minimize``
query or one ``minimize_over_hpolyhedron``.  The call makes one
``polyhedra.Work`` counter, and every step charges it before it runs:
listing the faces (p units a face, which a simplex knows from its count,
and one unit a mask for each facet's pass of the closure; the QP's face
walk charges one unit a row subset), each elimination
(:func:`_elimination_units`; the PSD test of H is charged as one
elimination of H; the dual method charges one a step, and its row scans),
each solve, ``FRACTION_UNITS`` for each entry a face or the zero set forms
(a product and a sum a term of a dot product; the rate was set when these
entries were Fractions), each KKT check its integer products and
elimination, and the conversions and LPs inside, which charge the same
counter.  Like the forming of H and of ``Quadratic.ints``, the tests of the
input form itself (G positive definite, Q positive definite or positive
semidefinite), one n x n elimination each, are not charged.  A program
keeps its blocks and dom(f) across queries, but the counter lives for one
query, which pays for what it builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import comb, lcm

from .errors import DimensionMismatchError, FwsetsError, NotInDomainError, require_kind
from .linalg import (
    LinearSystem,
    Mat,
    ONE,
    Vec,
    ZERO,
    dot,
    idot,
    int_rref,
    int_solution,
    matvec,
    primitive,
    vadd,
    vec,
    vscale,
    zeros,
)
from .polyhedra import (
    HPolyhedron,
    PolyCone,
    Work,
    double_description,
    int_cone_h_to_v,
    lp_solve,
)
from .quadratics import Quadratic, int_is_pd, int_is_psd

# the step a face walk's charges name in SizeCapError
_WALK = "the face walk"
# and the dual active-set method's
_DUAL = "the dual active-set method"
# units charged for each Fraction built
FRACTION_UNITS = 30


def _elimination_units(rows: int, cols: int) -> int:
    """Units of a fraction-free elimination of a ``rows x cols`` integer
    matrix: at most ``rows`` pivots, each updating every row, at two
    products, a gcd step and a division an entry."""
    return 4 * rows * rows * cols


@dataclass(frozen=True)
class ZeroSetPiece:
    """One polyhedral piece of ``{u >= 0 : u.H u = 0}`` in parameter space."""

    index_set: frozenset[int]
    generators: tuple[Vec, ...]


@dataclass(frozen=True)
class DomF:
    """The domain of the cone value function: the linear terms c with
    ``h.c <= 0`` for every row h.  It is empty when the form is negative
    somewhere on D, witnessed by ``negative_ray``, and then has no rows."""

    rows: tuple[Vec, ...]
    dim: int
    negative_ray: Vec | None = None

    @property
    def is_empty(self) -> bool:
        return self.negative_ray is not None

    def contains(self, c: Vec) -> bool:
        return self._violated_row(c) is None and not self.is_empty

    def _violated_row(self, c: Vec) -> Vec | None:
        """The first row h with ``h.c > 0``, or None; c must have the
        domain's dimension, even where no row reads it."""
        if len(c) != self.dim:
            raise DimensionMismatchError(f"a linear term of length {len(c)} in R^{self.dim}")
        return next((h for h in self.rows if dot(h, c) > 0), None)


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    certificate: Vec | None = None
    kind: str | None = None  # "negative_curvature" | "negative_slope"


@dataclass(frozen=True)
class ConeMinVerdict:
    """Outcome of minimizing a quadratic over a polyhedral cone.

    kind "attained": ``point`` lies in the cone exactly, ``value`` is the
    exact minimum, ``multipliers`` are the KKT multipliers of the active
    ``u_i >= 0`` bounds at the parameter-space witness.

    kind "unbounded": values strictly decrease along ``direction`` from the
    origin (already scaled so they decrease from t = 1 on).
    """

    kind: str
    value: Fraction | None = None
    point: Vec | None = None
    parameter_point: Vec | None = None
    active_set: tuple[int, ...] | None = None
    multipliers: tuple[Fraction, ...] | None = None
    direction: Vec | None = None
    curvature: str | None = None


class _Face:
    """The solution set of a face's stationarity system, to be met with
    ``rows``, all on ints: the points ``(num + sum_j s_j k_j) / den`` (den !=
    0) for the integer directions k_j of ``kernel``, each a positive multiple
    of a stationary direction, and the pairs ``(a, b)`` of the rows
    ``a.z <= b``, scaled by one common positive integer.  ``optimal``, when
    given, tells whether a feasible point of the set is a global minimum
    (a KKT point of a convex objective)."""

    __slots__ = ("num", "den", "kernel", "rows", "optimal")

    def __init__(self, num: list[int], den: int, kernel, rows, optimal=None):
        if den < 0:
            num, den = [-x for x in num], -den
        self.num, self.den, self.kernel, self.rows = num, den, kernel, rows
        self.optimal = optimal

    def point(self, s: tuple[int, ...] = (), y: int = 1) -> Vec:
        """The point ``(num + sum_j s_j k_j / y) / den`` for the integers
        ``s`` (none, or one per direction) and y > 0."""
        cols = zip(*self.kernel) if s else itertools.repeat(())
        return tuple(
            Fraction(x, self.den * y) if (x := ni * y + idot(col, s)) else ZERO
            for ni, col in zip(self.num, cols)
        )

    def feasible_point(self, work: Work) -> Vec | None:
        """A point of the set that satisfies every row, or None.

        The ladder decides on ints, and the Fraction point is built only
        when one is found.  With an empty kernel, row (a, b) holds at the
        point iff ``a.num <= b den``.  On a line ``(num + s k) / den``, row
        (a, b) reads ``(a.k) s <= r`` with ``r = b den - a.num``; the
        endpoints ``r / (a.k)`` of s are compared by cross-multiplication,
        and the point is the one at s = 0 clamped into the interval.  A
        larger kernel runs the exact LP in s on the rows ``(a.k_1, ...)``
        with right-hand sides r, charged to ``work``; as the rows share one
        scale, it takes the pivots, and ends at the point, of the LP on the
        rows in Fractions.
        """
        num, den, kernel, rows = self.num, self.den, self.kernel, self.rows
        if not kernel:
            return self.point() if all(idot(a, num) <= b * den for a, b in rows) else None
        if len(kernel) > 1:
            res = lp_solve(
                tuple(tuple(idot(a, k) for k in kernel) for a, _ in rows),
                tuple(b * den - idot(a, num) for a, b in rows),
                zeros(len(kernel)),
                work,
            )
            if res.status != "optimal":
                return None
            y = lcm(*(x.denominator for x in res.x))
            return self.point(tuple(x.numerator * (y // x.denominator) for x in res.x), y)
        k = kernel[0]
        lo = hi = None  # endpoints (x, y), y > 0, of s = x / y
        for a, b in rows:
            ak, r = idot(a, k), b * den - idot(a, num)
            if ak > 0:
                if hi is None or r * hi[1] < hi[0] * ak:
                    hi = (r, ak)
            elif ak < 0:
                if lo is None or -r * lo[1] > lo[0] * -ak:
                    lo = (-r, -ak)
            elif r < 0:
                return None
        if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
            return None
        t = lo if lo is not None and lo[0] > 0 else (0, 1)
        if hi is not None and t[0] * hi[1] > hi[0] * t[1]:
            t = hi
        return self.point((t[0],), t[1])


def _least_face(faces, work: Work):
    """The least ``(value, key, z)`` over faces with a feasible stationary point.

    ``faces`` yields ``(key, value, build)`` for each face whose stationarity
    system is consistent, and ``build()`` returns its :class:`_Face`: the
    solution set on which the objective equals ``value``, and the rows that
    a candidate must satisfy.  A face that cannot beat the incumbent is
    never built and skips the feasibility step.  A built face charges
    ``work`` for its point, its directions and their dot products with each
    row, ``FRACTION_UNITS`` for a product and a sum a term.  Returns None
    when no face has a feasible stationary point.

    The walk stops once an incumbent passes its face's ``optimal`` check.
    Its value is then the minimum, and when the faces come in increasing
    key order every later face has a larger key, so the least
    ``(value, key)`` is the one an exhaustive walk keeps.
    """
    best = None
    for key, value, build in faces:
        if best is not None and (value, key) >= best[:2]:
            continue
        face = build()
        m = len(face.rows)
        work.charge(2 * len(face.num) * (1 + len(face.kernel)) * (1 + m) * FRACTION_UNITS, _WALK)
        z = face.feasible_point(work)
        if z is not None:
            best = (value, key, z)
            if face.optimal is not None and face.optimal(z):
                break
    return best


def _orthant_face(num: list[int], den: int, system: LinearSystem, optimal=None):
    """The face solver's thunk for ``num/den + span(kernel)`` inside
    ``u >= 0``, or None when the kernel is empty and the point has a
    negative entry.  With an empty kernel the signs of the integers decide
    ``u >= 0`` and the thunk carries no rows to check.  ``optimal`` is the
    face's check (see :class:`_Face`)."""
    k = len(num)
    if system.rank < k:
        return lambda: _Face(num, den, system.int_kernel, _orthant_rows(k), optimal)
    if any(x and (x < 0) != (den < 0) for x in num):
        return None
    return partial(_Face, num, den, (), (), optimal)


@cache
def _orthant_rows(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``u >= 0`` in k coordinates, as the rows ``-u_i <= 0``."""
    return tuple((tuple(-1 if j == i else 0 for j in range(k)), 0) for i in range(k))


def _scatter(idx: tuple[int, ...], values: Vec, p: int) -> Vec:
    """The p-vector with ``values`` at positions ``idx`` and zeros elsewhere."""
    full = [ZERO] * p
    for pos, j in enumerate(idx):
        full[j] = values[pos]
    return tuple(full)


def _face_pairs(
    zi: list[list[int]], work: Work
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The faces of ``Q = conv(z_1, ..., z_p)`` as splits ``(active, free)``.

    ``free`` holds the generators on the face and ``active`` the others; the
    empty face and Q itself are included, active sets in lexicographic
    order.  When the lifted vectors ``(z_j, 1)`` are independent, Q is a
    simplex and every subset is a face (taken as given for p <= 2).
    Otherwise the facets are the zero sets that the conversion of the polar
    ``{c : v . c <= 0}`` returns for its rays (a line is zero on every v),
    closed under intersection; a set of generators is a bitmask.  The
    listing is charged to ``work`` before it is made, p units a face, and so
    is each facet's pass over the masks found so far, one unit a mask, and
    the conversion; so a large hull is refused after bounded work, a
    simplex on its count alone.
    """
    p = len(zi)
    lifted = [z + [1] for z in zi]
    if p <= 2 or (p <= len(lifted[0]) and len(int_rref([v[:] for v in lifted])) == p):
        work.charge(p << p, _WALK)
        masks = range(1 << p)
    else:
        masks = {(1 << p) - 1}
        for facet in double_description(lifted, len(lifted[0]), work)[2]:
            work.charge(len(masks), _WALK)
            masks |= {m & facet for m in masks}
        work.charge(p * len(masks), _WALK)
    actives = sorted(tuple(j for j in range(p) if not m >> j & 1) for m in masks)
    return tuple((active, tuple(j for j in range(p) if j not in active)) for active in actives)


class ConeProgram:
    """One form G on one cone D: everything the cone layer knows about the
    pair, and the reusable minimizer of ``c.x + 1/2 x.G x`` over D.

    A program holds the ints of ``H = Z^T G Z``, its principal blocks
    ``H_FF``, each eliminated once, the faces, whether H is PSD, and
    dom(f).  The sign test, the zero-set walk, dom(f), whose rows decide
    boundedness, and every query read them, so a family of linear terms
    (as in the two-level Motzkin reduction) is minimized without rework;
    each public function of the layer reads one fresh program.

    It runs on ints: with dz the lcm of the generators' denominators and L
    that of G's, ``hi = (dz Z)^T (L G) (dz Z)`` is the integer matrix
    ``lam H``, ``lam = dz^2 L``, and :meth:`system` eliminates ``hi_FF`` for
    a free set F on first use and keeps it, so ``H_FF x = b`` is solved as
    ``hi_FF x = lam b``.  ``h`` (H in Fractions) and ``z`` (the generators
    as columns) are built on first read.  :meth:`faces` lists, on first
    use, the faces of ``conv(dz Z)`` as splits ``(active, free)`` (see
    :func:`_face_pairs`), in lexicographic order of the active set, and
    keeps them in ``pairs``.  Every walk reads them before it eliminates a
    block, so the listing is charged first, and an answer read off the
    diagonal of H, or from a positive definite G, needs no faces.
    :meth:`is_psd` tests H once.  What a program builds lives as long as it
    does, but each query has its own work budget, which pays for what that
    query is the first to build.  The kind of D and the shape of G are
    checked before anything is built: a D that is not a PolyCone raises
    UnsupportedKindError, and integer dot products of unequal lengths would
    truncate silently.
    """

    def __init__(self, g: Mat, d: PolyCone):
        require_kind(d, PolyCone, "the cone layer takes a PolyCone")
        n = d.dim
        if len(g) != n or any(len(row) != n for row in g):
            raise DimensionMismatchError(f"the form is not {n} x {n} on a cone in R^{n}")
        self.g, self.d, self.p = g, d, len(d.generators)
        dz = lcm(*(x.denominator for gen in d.generators for x in gen))
        scale = lcm(*(x.denominator for row in g for x in row))
        self._zi = [[x.numerator * (dz // x.denominator) for x in gen] for gen in d.generators]
        self._gi = [[x.numerator * (scale // x.denominator) for x in row] for row in g]
        gz = [[idot(row, z) for row in self._gi] for z in self._zi]
        self.hi = [[idot(za, gzb) for gzb in gz] for za in self._zi]
        self.lam = dz * dz * scale
        self._systems: dict[tuple[int, ...], LinearSystem] = {}
        self.pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None = None
        self.psd: bool | None = None
        self._dom: DomF | None = None

    def system(self, free: tuple[int, ...], work: Work) -> LinearSystem:
        system = self._systems.get(free)
        if system is None:
            k = len(free)
            work.charge(_elimination_units(k, 2 * k), _WALK)  # [hi_FF | I]
            hi_ff = tuple(tuple(self.hi[a][b] for b in free) for a in free)
            system = self._systems[free] = LinearSystem(hi_ff, k)
        return system

    def faces(self, work: Work) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        if self.pairs is None:
            self.pairs = _face_pairs(self._zi, work)
        return self.pairs

    @cached_property
    def pd(self) -> bool:
        """Whether G is positive definite: one strict integer elimination of
        its ints (:func:`quadratics.int_is_pd`), not charged, like the
        forming of H.  Then ``x.G x > 0`` for every x != 0."""
        return int_is_pd([row[:] for row in self._gi])

    def is_psd(self, work: Work) -> bool:
        """Whether H is positive semidefinite, decided on first use: it is
        when G is positive definite, and otherwise one integer elimination
        of a copy of H's rows (:func:`quadratics.int_is_psd`), charged as
        one elimination of H, decides."""
        if self.psd is None:
            if not self.pd:
                work.charge(_elimination_units(self.p, self.p), _WALK)
            self.psd = self.pd or int_is_psd([row[:] for row in self.hi])
        return self.psd

    @cached_property
    def h(self) -> Mat:
        """``H = Z^T G Z`` in Fractions."""
        return tuple(tuple(Fraction(x, self.lam) for x in row) for row in self.hi)

    @cached_property
    def z(self) -> Mat:
        """Z with the cone's generators as columns (n x p)."""
        if not self.d.generators:
            return tuple(() for _ in range(self.d.dim))
        return tuple(zip(*self.d.generators))

    def _negative_ray(self, work: Work) -> Vec | None:
        """A ray x of the cone with ``x.G x < 0``, or None when the form is
        nonnegative on it.

        A negative diagonal entry of H gives its generator at once, and a
        positive definite G gives None; neither lists a face.  Otherwise
        the form is negative on D iff ``min {u.H u : u >= 0, sum u = 1}`` is.
        On a face F, a solution v of ``H_FF v = e`` with ``s = e.v < 0``
        gives the points ``u_F = (v + k)/s``, k in ker H_FF; e = H_FF v is
        orthogonal to the kernel, so each has ``e.u_F = 1`` and
        ``u.H u = 1/s``.  These are the stationary points of negative value
        on the simplex, and the minimum is one of them, so the least
        ``(1/s, (|F|, F))`` over faces whose set meets ``u >= 0`` is the
        minimum; its point u gives the ray ``Z u``, made primitive.  On
        ints, ``hi_FF w = e`` gives ``w = x/den`` and ``v = lam w``, so s has
        the sign of ``sum(x)``, ``1/s = den/(lam sum(x))`` and
        ``u_F = (x + k)/sum(x)``; Fractions are built only for a support with
        s < 0.  Each solve charges ``work`` k^2 units.
        """
        for i, gen in enumerate(self.d.generators):
            if self.hi[i][i] < 0:
                return gen
        if self.pd:
            return None

        def faces():
            for _, free in self.faces(work):
                k = len(free)
                system = self.system(free, work)
                work.charge(k * k, _WALK)
                sol = system.solve_ints((1,) * k)
                if sol is None:
                    continue
                x, den = sol
                s = sum(x)
                build = _orthant_face(x, s, system) if s < 0 else None
                if build is not None:
                    yield (k, free), Fraction(den, self.lam * s), build

        best = _least_face(faces(), work)
        if best is None:
            return None
        _, (_, free), u_f = best
        return primitive(matvec(self.z, _scatter(free, u_f, self.p)))

    def _zero_set_pieces(self, work: Work) -> list[ZeroSetPiece]:
        """:func:`zero_set_pieces`, charged to ``work``, over the faces by size."""
        pieces: list[ZeroSetPiece] = []
        seen: set[frozenset] = set()
        for active, free in sorted(self.faces(work), key=lambda pair: len(pair[0])):
            piece = self._piece(active, free, work)
            if piece is None:
                continue
            key = frozenset(piece.generators)
            if key in seen:
                continue
            seen.add(key)
            pieces.append(piece)
        return pieces

    def _piece(
        self, active: tuple[int, ...], free: tuple[int, ...], work: Work
    ) -> ZeroSetPiece | None:
        """The piece ``P_I`` of the face with the generators ``free`` on it
        and ``active`` off it, or None when it is ``{0}``.  The integer
        kernel N of the block gives the rows ``-N`` of the conversion and
        each ray, the primitive of ``N t`` on ints.  It charges ``work`` for
        the kernel and the rows, and for each ray, ``FRACTION_UNITS`` for a
        product and a sum a term; the conversion charges its own."""
        system = self.system(free, work)
        k = len(free)
        if system.rank == k:
            return None
        kernel = system.int_kernel
        work.charge(2 * k * len(kernel) * FRACTION_UNITS, _WALK)
        n_rows = tuple(zip(*kernel))  # u_F = N t
        # N has full column rank, so {t : N t >= 0} is pointed
        rays_t, _ = int_cone_h_to_v([[-x for x in row] for row in n_rows], len(kernel), work)
        if not rays_t:
            return None
        work.charge(2 * len(rays_t) * k * len(kernel) * FRACTION_UNITS, _WALK)
        rays = []
        for t in rays_t:
            rays.append(primitive(_scatter(free, [idot(row, t) for row in n_rows], self.p)))
        return ZeroSetPiece(frozenset(active), tuple(rays))

    @property
    def dom(self) -> DomF:
        return self._domain(Work())

    def _domain(self, work: Work) -> DomF:
        """dom(f), built on first use and charged to ``work``.

        A cone with no generators, D = {0}, has no negative ray and no
        zero-set ray, so dom(f) is the whole space, read before G is tested.
        A negative diagonal entry of H empties it before any face is listed.
        A positive definite G gives the whole space before any face is listed
        too: ``x.G x = 0`` only at x = 0, so every ray u of the zero set has
        ``Z u = 0`` and its row ``-Z u`` would be dropped; H is then PSD.
        Otherwise the faces are listed first, so the face budget refuses
        before any block is eliminated, and H is tested (:meth:`is_psd`).
        For PSD H the zero set is the one piece ``P_0`` (see the module
        docstring); otherwise the sign test runs, and then the zero-set walk.
        The rows are ``-Z u`` over the pieces' rays u, in piece order, made
        primitive, with zero rows and repeats dropped.  They are formed on
        ints from the integer generators, ``-dz Z u`` (dz > 0), and cost
        ``work`` n p products and sums each.
        """
        if self._dom is not None:
            return self._dom
        n, p = self.d.dim, self.p
        if not p:
            self._dom = DomF((), n)
            return self._dom
        if any(self.hi[i][i] < 0 for i in range(p)) or self.pd:
            self._dom = DomF((), n, self._negative_ray(work))
            return self._dom
        self.faces(work)
        if self.is_psd(work):
            piece = self._piece((), tuple(range(p)), work)
            pieces = [piece] if piece is not None else []
        else:
            ray = self._negative_ray(work)
            if ray is not None:
                self._dom = DomF((), n, ray)
                return self._dom
            pieces = self._zero_set_pieces(work)
        us = [[x.numerator for x in u] for piece in pieces for u in piece.generators]
        work.charge(2 * len(us) * n * p * FRACTION_UNITS, _WALK)
        cols = tuple(zip(*self._zi))
        rows = (primitive([-idot(col, u) for col in cols]) for u in us)
        self._dom = DomF(tuple(dict.fromkeys(h for h in rows if any(h))), n)
        return self._dom

    def boundedness(self, c: Vec) -> BoundednessResult:
        return is_bounded_below_on_cone(c, self.g, self.d, dom=self.dom)

    def _linear_term(self, c: Vec) -> tuple[Vec, list[int], int]:
        """``r = Z^T c`` and the integers ``rr = rho r``, rho the lcm of r's
        denominators."""
        r = tuple(dot(gen, c) for gen in self.d.generators)
        rho = lcm(*(x.denominator for x in r))
        return r, [x.numerator * (rho // x.denominator) for x in r], rho

    def _stationary_sets(self, rr: list[int], rho: int, constant: Fraction, work: Work):
        """Stationary sets ``H_FF u_F = -r_F`` keyed by active set, in the
        order of :meth:`faces`, for ``r = rr / rho``.  Each is solved on
        ints as ``hi_FF x = -den rr_F``, so ``u_F = lam x / (rho den)`` is its
        point with zero free coordinates, and on it the objective is
        ``r_F.u_F / 2 + constant = lam rr_F.x / (2 rho^2 den) + constant``.
        A solve and its value charge ``work`` k (k + 1) units.  When H is
        PSD each face carries the KKT check of :meth:`_is_kkt`."""
        lam = self.lam
        convex = self.is_psd(work)
        for active, free in self.faces(work):
            k = len(free)
            system = self.system(free, work)
            work.charge(k * (k + 1), _WALK)
            sol = system.solve_ints([-rr[j] for j in free])
            if sol is None:
                continue
            x, den = sol
            check = partial(self._is_kkt, rr, rho, active, free, work) if convex else None
            build = _orthant_face([lam * xi for xi in x], rho * den, system, check)
            if build is not None:
                value = Fraction(lam * idot([rr[j] for j in free], x), 2 * rho * rho * den)
                yield active, value + constant, build

    def _is_kkt(self, rr, rho, active, free, work: Work, u_f: Vec) -> bool:
        """Whether the gradient ``H u + r`` of the stationary point u (``u_F``
        on ``free``, zero on ``active``) is nonnegative on ``active``: then u
        is a KKT point, the minimum when H is PSD.  On ints, with
        ``u_F = U / s``, ``lam rho s (H u + r)_i = rho hi_iF.U + lam s rr_i``;
        the products charge ``work`` |active| (k + 1) units."""
        work.charge(len(active) * (len(free) + 1), _WALK)
        s = lcm(*(x.denominator for x in u_f))
        us = [x.numerator * (s // x.denominator) for x in u_f]
        hi, lam = self.hi, self.lam
        return all(
            rho * idot([hi[i][j] for j in free], us) + lam * s * rr[i] >= 0 for i in active
        )

    def minimize(self, c: Vec, constant: Fraction = ZERO) -> ConeMinVerdict:
        work = Work()
        dom = self._domain(work)
        # the dot products of c with the rows of dom(f) and the generators
        work.charge(2 * (len(dom.rows) + self.p) * self.d.dim * FRACTION_UNITS, _WALK)
        bound = is_bounded_below_on_cone(c, self.g, self.d, dom=dom)
        if not bound.bounded:
            d = bound.certificate
            direction = scaled_descent_ray(d, dot(c, d), dot(d, matvec(self.g, d)))
            return ConeMinVerdict(
                "unbounded", direction=direction, curvature=bound.kind
            )
        r, rr, rho = self._linear_term(c)
        best = _least_face(self._stationary_sets(rr, rho, constant, work), work)
        if best is None:
            raise FwsetsError("bounded program produced no stationary candidates")
        value, active, u_f = best
        free = tuple(j for j in range(self.p) if j not in active)
        u = _scatter(free, u_f, self.p)
        grad = vadd(matvec(self.h, u), r)
        multipliers = tuple(grad[i] for i in active)
        if any(m < 0 for m in multipliers):
            raise FwsetsError("minimizer failed KKT multiplier verification")
        if any(grad[j] != 0 for j in range(self.p) if j not in active and u[j] != 0):
            raise FwsetsError("minimizer failed stationarity verification")
        point = matvec(self.z, u)
        return ConeMinVerdict(
            "attained",
            value=value,
            point=point,
            parameter_point=u,
            active_set=active,
            multipliers=multipliers,
        )

    def value(self, c: Vec) -> Fraction:
        """``f(c)``, the exact infimum; raises NotInDomainError outside dom(f)."""
        verdict = self.minimize(c)
        if verdict.kind != "attained":
            raise NotInDomainError(
                "linear term lies outside dom(f)", certificate=verdict.direction
            )
        return verdict.value


def nonneg_form_on_cone(g: Mat, d: PolyCone) -> tuple[bool, Vec | None]:
    """Decide ``x.G x >= 0`` on the cone; on failure return a witness ray."""
    ray = ConeProgram(g, d)._negative_ray(Work())
    return ray is None, ray


def zero_set_pieces(g: Mat, d: PolyCone) -> list[ZeroSetPiece]:
    """The pieces P_I covering ``{u >= 0 : u.(Z^T G Z).u = 0}``.

    Precondition: the form is nonnegative on the cone (run
    :func:`nonneg_form_on_cone` first).  For each face F of ``conv(Z)``,
    with I the generators off it, the kernel of ``H_FF`` is read; an empty
    kernel means ``P_I = {0}`` and no piece.  Otherwise the extreme rays of
    ``{t : N t >= 0}`` (N a kernel basis) map to the rays ``u_F = N t``,
    ``u_I = 0`` of ``P_I``; ``H_FF u_F = 0`` holds by construction and
    ``(H u)_I >= 0`` by the precondition.  The pieces cover the zero set: a
    zero u with ``Z u`` in the relative interior of a face of D uses only
    that face's generators, which are those of a face F of ``conv(Z)``, and
    ``G Z u`` is orthogonal to them, so ``H_FF u_F = 0``.  A strictly copositive
    form has no pieces.  Pieces come in the order of I (by size, then
    lexicographically), and a piece whose ray set repeats an earlier one is
    dropped.
    """
    return ConeProgram(g, d)._zero_set_pieces(Work())


def dom_f(g: Mat, d: PolyCone) -> DomF:
    """The polyhedral domain of ``f(c) = inf_{x in D} c.x + 1/2 x.G x``.

    Its rows are ``-Z u`` for the zero-set rays u (see
    :meth:`ConeProgram._domain`); every step shares one work budget.
    """
    return ConeProgram(g, d).dom


def is_bounded_below_on_cone(
    c: Vec, g: Mat, d: PolyCone, dom: DomF | None = None
) -> BoundednessResult:
    """Decide whether ``c.x + 1/2 x.G x`` is bounded below on the cone.

    The certificate on failure is exact: either a ray with negative form
    value, or a ray in the zero set of the form with ``c . ray < 0`` (values
    decrease linearly along it).  The second is ``-h`` for the first row h of
    dom(f) with ``h . c > 0``; ``dom``, when given, is dom(f) already computed.
    A c of another length raises DimensionMismatchError.
    """
    if dom is None:
        dom = dom_f(g, d)
    h = dom._violated_row(c)
    if dom.is_empty:
        return BoundednessResult(False, dom.negative_ray, "negative_curvature")
    if h is not None:
        return BoundednessResult(False, vscale(-ONE, h), "negative_slope")
    return BoundednessResult(True)


def scaled_descent_ray(d: Vec, slope: Fraction, curvature: Fraction) -> Vec:
    """A ray along which ``t -> slope t + curvature t^2 / 2`` strictly
    decreases from t = 1 on: d scaled by ``max(1, (|slope| + 1) / -curvature)``
    when the curvature is negative, d itself otherwise."""
    if curvature >= 0:
        return d
    return vscale(max(ONE, (abs(slope) + 1) / (-curvature)), d)


def minimize_on_polyhedral_cone(q: Quadratic, d: PolyCone) -> ConeMinVerdict:
    """Exact minimization of a quadratic over a polyhedral cone.

    Returns an attained verdict with a KKT-verified witness whenever the
    quadratic is bounded below (the classical attainment fact for quadratics
    on polyhedra guarantees one exists), and a decreasing ray otherwise.
    """
    return ConeProgram(q.a, d).minimize(q.b, q.c)


def value_function_eval(c: Vec, g: Mat, d: PolyCone) -> Fraction:
    """``f(c)``, the exact infimum; raises NotInDomainError outside dom(f)."""
    return ConeProgram(g, d).value(vec(c))


# ---------------------------------------------------------------------------
# exact QP over an inequality system (used for compact Motzkin parts and
# for squared-distance programs)
# ---------------------------------------------------------------------------


def minimize_over_hpolyhedron(q: Quadratic, p: HPolyhedron) -> tuple[Fraction, Vec] | None:
    """Exact min of q over ``{A x <= b}`` assuming the infimum is attained,
    as ``(value, point)``, or None when the system is empty or q is
    unbounded below on it.

    A positive definite Q (tested once on ints by
    :func:`quadratics.int_is_pd`) is answered by the dual active-set method
    (:func:`_dual_active_set`), and every other Q by the face walk
    (:func:`_face_walk`).  A positive definite Q has exactly one minimizer,
    so both give the same answer there.  Like ``Quadratic.ints``, the test
    is not charged; the method that answers charges one work budget.  A p
    that is not an HPolyhedron raises UnsupportedKindError.
    """
    require_kind(p, HPolyhedron, "the QP takes an HPolyhedron")
    if q.dim != p.dim:
        raise DimensionMismatchError("quadratic and polyhedron dimensions differ")
    if int_is_pd([list(row) for row in q.ints[0]]):
        return _dual_active_set(q, p)
    return _face_walk(q, p)


def _int_rows(p: HPolyhedron) -> list[list[int]]:
    """The rows ``[a | b]`` of ``{A x <= b}`` on ints, all scaled by the lcm
    of every denominator of A and b."""
    ab = lcm(*(x.denominator for row in p.a for x in row), *(x.denominator for x in p.b))
    return [[x.numerator * (ab // x.denominator) for x in (*a, b)] for a, b in zip(p.a, p.b)]


def _range_step(
    start: list[int], den: int, rows: list[tuple[list[int], int, list[int]]], w_p: list[int]
) -> tuple[list[list[int]], int]:
    """One step of :func:`_dual_active_set` on k rows J, in Q's range space.
    ``start / den`` is ``x_s = -Q^-1 c``, ``rows`` holds ``(a_j, b_j, w_j)``
    for each row of J and ``w_p`` is ``Q^-1 a_p``, each w over den.  One
    fraction-free elimination of ``S [lam0 | r] = [A_J x_s - b_J | -A_J w_p]``,
    ``S = A_J W_J``, gives ``x0 = x_s - W_J lam0`` and ``z = -w_p - W_J r``
    (x_s and -w_p for J empty), returned as ``([x0 + lam0, z + r], e)`` over
    one denominator e > 0.  A singular S (dependent rows) raises FwsetsError."""
    k = len(rows)
    system = [
        [*(idot(a, w) for _, _, w in rows), idot(a, start) - bj * den, -idot(a, w_p)]
        for a, bj, _ in rows
    ]
    if int_rref(system) != list(range(k)):
        raise FwsetsError("the active rows of the dual method are dependent")
    e = lcm(*(system[i][i] for i in range(k)))
    lam0, r = ([system[i][c] * (e // system[i][i]) for i in range(k)] for c in (k, k + 1))
    cols = [[w[i] for _, _, w in rows] for i in range(len(start))]
    x0 = [e * si - idot(col, lam0) for si, col in zip(start, cols)]
    z = [-e * wi - idot(col, r) for wi, col in zip(w_p, cols)]
    return [x0 + [den * v for v in lam0], z + [den * v for v in r]], den * e


def _dual_active_set(q: Quadratic, p: HPolyhedron) -> tuple[Fraction, Vec] | None:
    """:func:`minimize_over_hpolyhedron` for a positive definite Q, by the
    dual active-set method of Goldfarb and Idnani (Math. Programming 27,
    1983), exactly on ints.

    It runs on the ints of q (Q and c stand for ``q.ints``' A and b, over
    its denominator) and on the rows ``a.x <= b`` scaled by one lcm
    (:func:`_int_rows`).  It starts at the unconstrained minimizer
    ``x_s = -Q^-1 c`` with no active rows, solved on one elimination of
    ``[Q | I]`` (a :class:`linalg.LinearSystem`), and keeps x and the
    multipliers lam of its active rows J over one common denominator, with
    ``Q x + c + A_J^T lam = 0``, ``A_J x = b_J`` and ``lam >= 0``.  Each
    outer step scans the rows; when none is violated, x is the minimum.
    Otherwise it takes the most violated row p (the largest ``a.x - b``,
    the least index on ties) and raises p's multiplier t from 0.  On the
    current J the stationary points are ``x0 + t z`` with multipliers
    ``lam0 + t r``, from one range-space step (:func:`_range_step`) on the
    columns ``w_j = Q^-1 a_j``, each solved on the start's elimination the
    first time row j is used, so Q is eliminated once.
    ``a_p.z = -z.Q z``, so the violation falls as t grows, and p is tight
    at ``t2 = (a_p.x0 - b_p) / -a_p.z`` when z != 0.
    A multiplier with ``r_j < 0`` reaches zero at ``lam0_j / -r_j``; the
    least of these, t1 (the least row index on ties), drops its row j from
    J when ``t1 < t2``, and the step is taken again on the smaller J.
    Otherwise the full step to t2 adds p to J.  When z = 0 and no
    ``r_j < 0``, ``a_p = -A_J^T r`` with ``r >= 0``, so every y with
    ``A_J y <= b_J`` has ``a_p.y >= -r.b_J = a_p.x > b_p``: the system is
    empty and the answer is None.  Each full step raises q(x) and gives a
    new J, so the method ends.

    Before x is returned it is verified exactly: the last scan found every
    row satisfied, every multiplier is nonnegative, and
    ``Q x + c + A_J^T lam = 0``; a failed check raises FwsetsError.  One
    work budget bounds the call: the start charges its elimination of
    ``[Q | I]`` (:func:`_elimination_units`) and n^2 units a solve on it (x_s
    and each new w_j), each step on k rows its elimination and k (k + 4) n
    products, each scan m n units, and the verification n (n + |J|) units.
    """
    n = p.dim
    rows = _int_rows(p)
    a, b = [row[:n] for row in rows], [row[n] for row in rows]
    qm, qb, qc, scale = q.ints
    work = Work()
    work.charge(_elimination_units(n, 2 * n) + n * n, _DUAL)
    inverse = LinearSystem(qm, n, 1)
    start, den = inverse.solve_ints([-v for v in qb])
    w: dict[int, list[int]] = {}  # Q^-1 a_j over den, for each row j used
    x, d = start, den
    active: list[int] = []
    lam: list[int] = []  # x and lam are over d
    while True:
        work.charge(len(a) * n, _DUAL)
        worst, add = 0, None
        for i, (ai, bi) in enumerate(zip(a, b)):
            violation = idot(ai, x) - bi * d
            if violation > worst:
                worst, add = violation, i
        if add is None:
            break
        a_p, b_p = a[add], b[add]
        if add not in w:
            work.charge(n * n, _DUAL)
            w[add] = inverse.solve_ints(a_p)[0]
        while True:
            k = len(active)
            work.charge(_elimination_units(k, k + 2) + k * (k + 4) * n, _DUAL)
            (y0, y1), e = _range_step(start, den, [(a[j], b[j], w[j]) for j in active], w[add])
            x0, lam0, z, r = y0[:n], y0[n:], y1[:n], y1[n:]
            # (t1, row, position in J) of the first multiplier to reach zero
            drop = min(
                (
                    (Fraction(lj, -rj), active[pos], pos)
                    for pos, (lj, rj) in enumerate(zip(lam0, r))
                    if rj < 0
                ),
                default=None,
            )
            curvature = -idot(a_p, z)  # e z.Q z, zero iff z = 0
            full = Fraction(idot(a_p, x0) - b_p * e, curvature) if curvature else None
            if full is None and drop is None:
                return None
            if drop is None or (full is not None and full <= drop[0]):
                tn, td = full.numerator, full.denominator
                x = [td * xi + tn * zi for xi, zi in zip(x0, z)]
                lam = [td * li + tn * ri for li, ri in zip(lam0, r)] + [tn * e]
                d = td * e
                active.append(add)
                break
            del active[drop[2]]
    work.charge(n * (n + len(active)), _DUAL)
    if any(li < 0 for li in lam):
        raise FwsetsError("minimizer failed KKT multiplier verification")
    for i, row in enumerate(qm):
        if idot(row, x) + d * qb[i] + sum(li * a[j][i] for li, j in zip(lam, active)):
            raise FwsetsError("minimizer failed stationarity verification")
    value = Fraction(
        idot(x, [idot(row, x) for row in qm]) + 2 * d * idot(qb, x) + 2 * qc * d * d,
        2 * scale * d * d,
    )
    return value, tuple(Fraction(xi, d) if xi else ZERO for xi in x)


def _face_walk(q: Quadratic, p: HPolyhedron) -> tuple[Fraction, Vec] | None:
    """:func:`minimize_over_hpolyhedron` by walking the faces, for any Q.

    The faces are the row subsets J of size at most n with independent rows.
    On the affine hull ``A_J x = b_J`` of one, written ``x0 + N t``, the
    stationarity system ``N^T Q N t = -N^T grad q(x0)`` fixes the value, and
    the face solver looks for a point of its solution set inside ``A x <= b``.
    Each face is solved on Python ints: ``(A, b)`` is scaled to integers by
    the lcm of all its denominators (:func:`_int_rows`), and q is read on
    its ints (``Quadratic.ints``, over the lcm L of its own denominators);
    one fraction-free elimination of ``[A_J | b_J]`` gives ``x0 = X0/d`` and
    ``N' = d N``, and one of ``[N'^T Q N' | -N'^T G]``, with
    ``G = Q X0 + d b = d L grad q(x0)``, gives the stationary point and the
    integer stationary directions over a common denominator, so the value is
    a single Fraction, and the face solver meets the face with the same
    integer rows.  The attained minimum is the least value over faces with a
    feasible point; ties go to the lexicographically least subset.  Returns
    None when no face carries a feasible stationary point: the system is
    empty, or q is unbounded below on it.

    The subsets are walked depth first in lexicographic order, ``()``,
    ``(0,)``, ``(0, 1)``, ..., and a subset whose rows are dependent or
    inconsistent is skipped with every subset that extends it.  A convex q
    (Q positive semidefinite, tested once on ints by
    :func:`quadratics.int_is_psd`) stops the walk at the first incumbent z
    with KKT multipliers on its own rows, ``A_J^T lam = -grad q(z)`` with
    ``lam >= 0`` (none for J empty): z is then a global minimum, and every
    later subset is lexicographically larger, so the answer is the
    exhaustive walk's.  A nonconvex q walks every subset.

    One work budget bounds the walk.  A nonconvex walk charges its subsets
    first, one unit each, so a walk that cannot finish is refused before
    any face is eliminated; a convex walk stops at its first KKT point, so
    it charges one unit for each subset as it pops it.  Then each face
    charges its two eliminations and the integer products that form the
    reduced system and the value, each face built charges its point and
    directions (see :func:`_least_face`) and its LP, and each KKT check its
    gradient and its elimination of ``[A_J^T | -grad]``.  The convexity
    test, like ``Quadratic.ints``, is not charged.
    """
    n = p.dim
    m = len(p.a)
    top = min(m, n)
    qm, qb, qc, scale = q.ints
    convex = int_is_psd([list(row) for row in qm])
    work = Work()
    if not convex:
        work.charge(sum(comb(m, rr) for rr in range(top + 1)), _WALK)
    rows_ab = _int_rows(p)
    face_rows = tuple((row[:n], row[n]) for row in rows_ab)

    def is_kkt(subset: tuple[int, ...], z: Vec) -> bool:
        """Whether ``A_J^T lam = -grad q(z)`` has a solution lam >= 0, on
        ints: with z = Z / s, ``s L grad q(z) = Q Z + s b``."""
        if not subset:
            return True
        size = len(subset)
        work.charge(n * n + _elimination_units(n, size + 1), _WALK)
        s = lcm(*(x.denominator for x in z))
        zs = [x.numerator * (s // x.denominator) for x in z]
        grad = [idot(row, zs) + s * bi for row, bi in zip(qm, qb)]
        rows = [[rows_ab[i][k] for i in subset] + [-gk] for k, gk in enumerate(grad)]
        sol = int_solution(rows, int_rref(rows), size)
        return sol is not None and all(x >= 0 for x in sol[0])

    def faces():
        stack = [()]
        while stack:
            subset = stack.pop()
            size = len(subset)
            # a convex walk pays for each subset here, as it pops it
            work.charge(_elimination_units(size, n + 1) + (1 if convex else 0), _WALK)
            rows = [rows_ab[i][:] for i in subset]
            pivots = int_rref(rows)
            hull = int_solution(rows, pivots, n)
            if hull is None or len(pivots) < size:
                continue  # its extensions are never pushed
            if size < top:  # its extensions by one row, the least on top
                first = subset[-1] + 1 if subset else 0
                stack.extend(subset + (j,) for j in reversed(range(first, m)))
            x0, d, nbasis = hull
            nb = len(nbasis)
            # Q x0, Q N', N'^T Q N' and Q num, then [N'^T Q N' | -N'^T G]
            work.charge((nb + 2) * n * n + nb * nb * n + _elimination_units(nb, nb + 1), _WALK)
            grad = [idot(row, x0) + d * bi for row, bi in zip(qm, qb)]
            if nbasis:
                qn = [[idot(row, v) for row in qm] for v in nbasis]
                red = [[idot(v, w) for w in qn] + [-idot(v, grad)] for v in nbasis]
                stationary = int_solution(red, int_rref(red), len(nbasis))
                if stationary is None:
                    continue
                s, e, kernel = stationary
                den = d * e
                cols = tuple(zip(*nbasis))
                num = [e * xi + idot(col, s) for xi, col in zip(x0, cols)]
                dirs = [[idot(col, kv) for col in cols] for kv in kernel]
            else:
                den, num, dirs = d, x0, ()
            qnum = [idot(row, num) for row in qm]
            value = Fraction(
                idot(num, qnum) + 2 * den * idot(qb, num) + 2 * qc * den * den,
                2 * scale * den * den,
            )
            check = partial(is_kkt, subset) if convex else None
            yield subset, value, partial(_Face, num, den, dirs, face_rows, check)

    best = _least_face(faces(), work)
    if best is None:
        return None
    return best[0], best[2]
