"""Exact polyhedral calculus: representations, conversion, projection, polarity.

Conventions
-----------
* ``HPolyhedron(A, b)`` is ``{x : A x <= b}``.
* ``VPolyhedron`` is ``conv(vertices) + cone(rays) + span(lineality)``;
  an empty vertex list encodes the empty set.
* ``PolyCone`` is generated by finitely many rays (lines appear as opposite
  ray pairs); its H-form ``{x : h . x <= 0}`` for each halfspace normal
  ``h`` is derived from the generators and kept once computed.

All arithmetic is rational.  Conversion between the two polyhedron forms is
the double description method on the homogenized cone, after Fukuda &
Prodon ("Double description method revisited", 1996): it starts from the
whole space, the unit vectors as lines, and one pass over the rows
eliminates the lines, which gives the rank, the seed rows and the rays of
the simplicial seed cone at once.  The rays are kept on a complement of
the lineality, where the cone is pointed, so the classical combinatorial
adjacency test applies to the rows inserted after the seed.  Every
conversion runs on primitive integer vectors from its input rows to its
output: rows and rays are coprime ints, a new ray is an integer combination
divided by its gcd, and when lines are left the lineality basis is read off
the fraction-free elimination of the rows.  :func:`double_description` is
that core on integer rows, and it returns the zero set of each ray too;
:func:`int_cone_h_to_v` wraps it without them.  :func:`h_to_v_with_facets`
reads the zero sets to name the input rows that are facets or implicit
equalities, and the cone layer reads them as the facets of a hull.  The
public conversions merge repeats on int tuples and build each Fraction
once, on the way out: a vertex ``(x, t)`` as ``x / t``, and each entry of
a row or ray as an integer, one shared Fraction for each small integer.
A V-polyhedron enters the integer layer as its :class:`IntVForm`, the
primitive homogenized generators that its conversion to an H-form hands
double description; :func:`minkowski_sum` adds two such forms on ints
and builds Fractions only for the distinct vertex sums and the rays, and
:func:`int_v_subset` tests one form against the integer normals of
another, with no Fraction.  The seed of double description works on int
lists and builds its tuples once, when the seed ends.
A row, generator or point of another width is refused at entry.
Projection onto a subset of coordinates is one conversion each way: the
image is generated by the kept coordinates of the homogenized integer
generators.  The exact simplex (two phases, Bland's rule) pivots on a
fraction-free tableau: each row is a list of ints over one positive row
denominator, divided by its gcd after every update, and its ratio tests
compare by cross-multiplication.  Its pivots are those of the Fraction
tableau, and its results are the same Fractions, built once at the end.

Input polyhedra live in dimension at most ``MAX_INPUT_DIM``, and one
public call does at most ``DD_BUDGET`` units of work: the call makes one
:class:`Work` counter and hands it to every conversion, LP and face walk it
runs, and each step is charged before it runs, so SizeCapError comes
before the step that would pass the budget.  For each row inserted after
the seed, double description charges r units (r the rank of the rows) per
evaluation over the current rays, one per candidate pair across its
hyperplane and one per ray the adjacency test of a pair scans; the input
and the seed are not counted, so redundant rows and points cost only their
evaluations.  An exact LP charges ``LP_ENTRY_UNITS`` per integer
tableau entry it builds and per entry of each row a pivot updates (the pivot
row, the rows it hits and the cost row).  A conversion (with the
certificate LP of an empty system) is one call, and a projection and an
order cancellation check are each one call of two conversions.  The face
walks and the dual active-set method of :mod:`fwsets.cone_qp` charge the
same counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .errors import DimensionMismatchError, SizeCapError, require_kind
from .linalg import (
    Mat,
    ONE,
    Vec,
    ZERO,
    basis_of_span,
    dim_of,
    dot,
    hash_once,
    int_fraction,
    int_kernel_basis,
    int_primitive,
    int_rref,
    is_zero,
    mat,
    primitive,
    primitive_ints,
    set_fields,
    vec,
    vscale,
    zeros,
)

# user-facing polyhedra live in dimension <= 10
MAX_INPUT_DIM = 10
# work one public call may do, in units of about an integer multiply-add or
# a bitmask test; a unit took 0.08-0.17 us on a 2-CPU box, so a refusal
# costs at most about 8 s
DD_BUDGET = 5 * 10**7
# units charged for each integer tableau entry an LP builds or updates; an
# entry took 0.14-0.28 us on a 2-CPU box, so a unit costs 0.05-0.09 us
LP_ENTRY_UNITS = 3


class Work:
    """The units of work one public call has done, against ``DD_BUDGET``.

    The call makes one and passes it to every step it runs; a step charges
    its units before it runs, and SizeCapError names the step that would
    pass the budget.  The budget is read at each charge.
    """

    __slots__ = ("units",)

    def __init__(self):
        self.units = 0

    def charge(self, units: int, step: str) -> None:
        self.units += units
        if self.units > DD_BUDGET:
            raise SizeCapError(f"{step} needs over {DD_BUDGET} units of work")


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HPolyhedron:
    """Inequality system ``{x in R^dim : A x <= b}``; ``dim`` defaults to the
    width of A's rows."""

    a: Mat
    b: Vec
    dim: int | None = None

    __hash__ = hash_once

    def __post_init__(self):
        a = mat(self.a)
        set_fields(self, a=a, b=vec(self.b), dim=dim_of(self.dim, a))
        if len(a) != len(self.b):
            raise DimensionMismatchError("row count of A differs from length of b")
        if a and len(a[0]) != self.dim:
            raise DimensionMismatchError("row width differs from ambient dimension")
        if self.dim < 1:
            raise DimensionMismatchError("ambient dimension must be at least 1")

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        return all(dot(row, x) <= rhs for row, rhs in zip(self.a, self.b))


@dataclass(frozen=True)
class VPolyhedron:
    """Generator form; empty ``vertices`` means the empty set.  ``dim``
    defaults to the width of the first generator.

    ``empty_certificate`` carries a Farkas witness when this value was
    produced by converting an infeasible inequality system.
    """

    vertices: tuple[Vec, ...]
    rays: tuple[Vec, ...] = ()
    lineality: tuple[Vec, ...] = ()
    dim: int | None = None
    empty_certificate: Vec | None = field(default=None, compare=False)

    def __post_init__(self):
        groups = vertices, rays, lineality = mat(self.vertices), mat(self.rays), mat(self.lineality)
        cert = self.empty_certificate
        set_fields(self, vertices=vertices, rays=rays, lineality=lineality, dim=dim_of(self.dim, *groups))
        set_fields(self, empty_certificate=cert if cert is None else vec(cert))
        if any(group and len(group[0]) != self.dim for group in groups):
            raise DimensionMismatchError("generator dimension mismatch")
        if any(map(is_zero, rays)):
            raise DimensionMismatchError("zero vector is not a valid ray")

    @property
    def is_empty(self) -> bool:
        return not self.vertices


VPolyhedron.from_points = VPolyhedron  # the spelling bench/workloads.py calls


@dataclass(frozen=True)
class PolyCone:
    """Polyhedral convex cone spanned by ``generators`` (V-form).

    A cone stores only its generators and dimension, and compares and hashes
    by them.  Its H-form ``halfspaces``, ``{x : h . x <= 0 for every h}``, is
    derived: :func:`cone_v_to_h` computes it on first read, and
    :meth:`from_halfspaces` keeps the rows it was given.
    """

    generators: tuple[Vec, ...]
    dim: int

    __hash__ = hash_once

    def __post_init__(self):
        generators = mat(self.generators)
        set_fields(self, generators=generators)
        if generators and len(generators[0]) != self.dim:
            raise DimensionMismatchError("generator dimension mismatch")
        if any(map(is_zero, generators)):
            raise DimensionMismatchError("zero vector is not a valid generator")

    @staticmethod
    def from_generators(generators, dim=None) -> "PolyCone":
        """The cone of ``generators`` made primitive, with zeros and repeats
        dropped; ``dim`` defaults to the generators' width."""
        gs = mat(generators)
        return PolyCone(tuple(dict.fromkeys(primitive(g) for g in gs if not is_zero(g))), dim_of(dim, gs))

    @staticmethod
    def from_halfspaces(rows, dim) -> "PolyCone":
        hs = list(dict.fromkeys(tuple(primitive_ints(vec(r))) for r in rows))
        rays, lin = int_cone_h_to_v(hs, dim)
        cone = PolyCone(_fractions(rays + lin + [_neg(v) for v in lin]), dim)
        cone.__dict__["halfspaces"] = _fractions(h for h in hs if any(h))
        return cone

    @cached_property
    def halfspaces(self) -> tuple[Vec, ...]:
        return cone_v_to_h(self.generators, self.dim)

    def with_halfspaces(self) -> "PolyCone":
        """The cone itself, whose ``halfspaces`` are derived on first read."""
        return self

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        return all(dot(h, x) <= 0 for h in self.halfspaces)


def same_cone(a: PolyCone, b: PolyCone) -> bool:
    """Whether two cones are equal, by mutual generator membership."""
    return all(map(b.contains, a.generators)) and all(map(a.contains, b.generators))


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------


def int_cone_h_to_v(
    rows, d: int, work: Work | None = None
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Generators of ``{x : r . x <= 0}`` for integer rows r of width d:
    (extreme rays, lineality basis), both as primitive integer vectors, by
    :func:`double_description`."""
    return double_description(rows, d, work)[:2]


def double_description(
    rows, d: int, work: Work | None
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """:func:`int_cone_h_to_v`'s rays and lineality basis, and the zero set
    of each ray: a bitmask over the indices of ``rows``, bit i set iff
    ray . rows[i] = 0.  A zero row is skipped and in no zero set.

    Double description after Fukuda & Prodon: the cone starts as the whole
    space, the d unit vectors as lines, and one pass over the primitive
    nonzero rows eliminates them.  A row a that is nonzero on some line is
    the next seed row: its first such line l0 (``v0 = a . l0``, s the sign
    of v0) becomes the ray ``-s l0``, and every other line and earlier seed
    ray x becomes ``s (v0 x - (a . x) l0)``, which a is zero on; a row that
    is zero on every line is left for later.  So the seed rows are the
    greedy first independent rows, their number is the rank, and each seed
    ray is zero on the other seed rows and negative on its own: the
    simplicial cone of the classical seed.  When lines are left, the lineality basis is the
    one :func:`linalg.kernel_basis` gives, each vector made primitive, and
    each seed ray is moved along it to zero at the pivot columns of its
    reduced form, a complement of the lineality on which the cone is
    pointed.

    Every other row is then inserted one at a time in index order, pairing
    adjacent rays across the new hyperplane: two rays whose common zero set
    has fewer than rank - 2 rows are not adjacent, which is tested before
    the combinatorial adjacency test.  Each new ray ``v_p r_q - v_q r_p``
    is divided by its gcd, and zero sets are bitmasks over the row indices.
    They are exact at every step: a seed ray is zero on exactly the other
    seed rows, moving a ray along the lineality changes no row value, a kept
    ray gains the new row's bit iff it is zero there, and a new ray is zero
    on exactly ``common | bit``, since an earlier row negative on rp or rq
    is negative on their positive combination.  The work (see the module
    docstring) is charged to ``work``, the counter of a calling public
    call, a new one if None.  A row of another width raises
    DimensionMismatchError.
    """
    if any(len(r) != d for r in rows):
        raise DimensionMismatchError("row width differs from the cone's dimension")
    prim = []
    for r in rows:
        g = gcd(*r)
        prim.append([x // g for x in r] if g > 1 else r)
    rows = prim
    lines = list(_units(d))
    rays: list[list[int]] = []
    seed: list[int] = []
    for t, a in enumerate(rows):
        # the lines are the unit vectors until the first seed row
        vals = [sum(map(mul, a, x)) for x in lines] if seed else list(a)
        k = next((i for i, v in enumerate(vals) if v), None)
        if k is None:
            continue
        l0, v0 = lines.pop(k), vals.pop(k)
        if v0 < 0:
            l0, v0 = [-y for y in l0], -v0
        lines = _moved(lines, vals, l0, v0)
        rays = _moved(rays, [sum(map(mul, a, x)) for x in rays], l0, v0)
        rays.append([-y for y in l0])
        seed.append(t)
        if not lines:
            break
    lin: list[tuple[int, ...]] = []
    if lines:
        ech = [list(r) for r in rows if any(r)]
        lin = int_kernel_basis(ech, int_rref(ech), d)
        basis = [list(v) for v in lin]
        for p, b in zip(int_rref(basis), basis):
            if b[p] < 0:
                b = [-y for y in b]
            rays = _moved(rays, [x[p] for x in rays], b, b[p])
    rays = [tuple(x) for x in rays]

    rank = len(rays)
    all_seed = sum(1 << i for i in seed)
    zero_sets = [all_seed & ~(1 << i) for i in seed]
    if work is None:
        work = Work()
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
        new_rays: list[tuple[int, ...]] = []
        new_zsets: list[int] = []
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
        # no new ray repeats another: each lies inside the 2-face its
        # adjacent pair spans, so it is neither a kept ray nor another
        # pair's ray
        rays, zero_sets = new_rays, new_zsets
    return rays, lin, zero_sets


@cache
def _units(d: int) -> tuple[tuple[int, ...], ...]:
    """The d unit vectors of width d."""
    return tuple(tuple(int(j == i) for j in range(d)) for i in range(d))


def _moved(xs: list, vals: list[int], l: Sequence[int], c: int) -> list:
    """Each primitive integer vector x of xs moved along l, for its value v
    in ``vals`` and c > 0: ``c x - v l`` made primitive, x itself when v is
    0."""
    out = []
    for x, v in zip(xs, vals):
        if v:
            x = [c * y - v * z for y, z in zip(x, l)]
            g = gcd(*x)
            if g > 1:
                x = [y // g for y in x]
        out.append(x)
    return out


def cone_h_to_v(rows, d: int, work: Work | None = None) -> tuple[tuple[Vec, ...], list[Vec]]:
    """:func:`int_cone_h_to_v` on rational rows, in Fractions: the rays, and
    the lineality basis :func:`linalg.kernel_basis` gives, each primitive
    vector over its last nonzero entry (its free column's)."""
    rays, lin = int_cone_h_to_v([primitive_ints(vec(r)) for r in rows], d, work)
    return _fractions(rays), [_over_last(v) for v in lin]


def cone_v_to_h(generators, d: int, work: Work | None = None) -> tuple[Vec, ...]:
    """Halfspace normals of the cone spanned by ``generators``, made
    primitive; ``work`` as in :func:`cone_h_to_v`."""
    return _fractions(_int_cone_v_to_h([primitive_ints(vec(g)) for g in generators], d, work))


def _int_cone_v_to_h(gens, d: int, work: Work | None) -> list[tuple[int, ...]]:
    """Halfspace normals of the cone spanned by the integer ``gens``.

    Bipolar construction: the negative polar ``{c : g . c <= 0}`` is an
    H-cone whose generators are exactly the halfspace normals of the input:
    its rays, and an opposite pair for each line.  They are distinct, since
    the rays are zero at the lineality basis's pivot columns.
    """
    rays, lin = int_cone_h_to_v(gens, d, work)
    for v in lin:
        rays.append(v)
        rays.append(_neg(v))
    return rays


def _neg(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in v)


def _fractions(vs) -> tuple[Vec, ...]:
    """The integer vectors ``vs`` as Fraction vectors."""
    return tuple(tuple(map(int_fraction, v)) for v in vs)


def _over_last(v: tuple[int, ...]) -> Vec:
    """The Fraction vector ``v`` over its last nonzero entry."""
    t = next(x for x in reversed(v) if x)
    return tuple(Fraction(x, t) if x else ZERO for x in v)


# ---------------------------------------------------------------------------
# conversions between H and V polyhedron forms
# ---------------------------------------------------------------------------


def dd_convert(p, work: Work | None = None):
    """Convert between the two polyhedron representations, exactly.
    ``work`` as in :func:`cone_h_to_v`; the certificate LP of an empty
    system charges the same counter."""
    require_kind(p, (HPolyhedron, VPolyhedron), "dd_convert takes an HPolyhedron or a VPolyhedron")
    _refuse_dim(p.dim)
    if work is None:
        work = Work()
    if isinstance(p, HPolyhedron):
        return _v_form(p, *_homogenized_v(p, work), work)
    return _v_to_h(p, work)


def _refuse_dim(dim: int) -> None:
    if dim > MAX_INPUT_DIM:
        raise SizeCapError(f"ambient dimension {dim} exceeds cap {MAX_INPUT_DIM}")


def h_to_v_with_facets(p: HPolyhedron) -> tuple[VPolyhedron, Callable[[], HPolyhedron]]:
    """``dd_convert(p)``, and a function of no argument that gives the rows
    of p that describe the same set when p is nonempty (p itself when it is
    empty), read off the one conversion when it is called.

    The zero sets of double description (:func:`double_description`) give
    each row r of the homogenized cone C its tight rays T(r).  Kept, in
    input order:

    * each implicit equality, a row with T(r) all of the rays, once (rows
      equal up to a positive scale are one);
    * of the other rows, the first of each maximal T(r): a row goes when
      its T(r) lies strictly inside another such row's, or inside the T of
      the homogenizing row ``t >= 0``.

    A row with a = 0 goes.  This is exact: every facet of C is the face of
    one of its rows, a face that is no facet has rays strictly inside some
    facet's, and C is cut out by its facets within the linear hull that
    its implicit equalities span (they have a positive combination 0 = 0,
    so as inequalities they force equality).  ``t >= 0`` holds on p, so a
    facet only it names needs no row.  The dimension cap, the work and the
    empty V-form's certificate are :func:`dd_convert`'s.
    """
    _refuse_dim(p.dim)
    rows = _homogenized_rows(p)
    work = Work()
    rays, lin, zero_sets = double_description(rows, p.dim + 1, work)
    v = _v_form(p, rays, lin, work)
    if v.is_empty:
        return v, lambda: p
    return v, partial(_kept_rows, p, rows, zero_sets)


def _kept_rows(p: HPolyhedron, rows: list[list[int]], zero_sets: list[int]) -> HPolyhedron:
    """The rows of a nonempty p that :func:`h_to_v_with_facets` keeps, from
    its homogenized ``rows`` and the zero sets of their conversion."""
    n, m = p.dim, len(p.a)
    tight = [0] * (m + 1)
    for j, z in enumerate(zero_sets):
        bit = 1 << j
        while z:
            low = z & -z
            tight[low.bit_length() - 1] |= bit
            z ^= low
    every, t_set = (1 << len(zero_sets)) - 1, tight[m]
    others = [t for t in tight[:m] if t != every]
    kept, seen = [], set()
    for i, t in enumerate(tight[:m]):
        if not any(rows[i][:n]):
            continue
        if t == every:
            key = tuple(rows[i])  # primitive, so one key for every scale
        elif t | t_set == t_set or any(t | u == u != t for u in others):
            continue
        else:
            key = t
        if key not in seen:
            seen.add(key)
            kept.append(i)
    if len(kept) == m:
        return p
    return HPolyhedron(tuple(p.a[i] for i in kept), tuple(p.b[i] for i in kept), n)


def _homogenized_v(
    p: HPolyhedron, work: Work
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The integer rays and lineality basis of ``{(x, t) : A x <= b t,
    t >= 0}``: a ray ``(x, t)`` with t > 0 is the vertex ``x / t`` of p, one
    with t = 0 is a ray, and every line has t = 0."""
    return int_cone_h_to_v(_homogenized_rows(p), p.dim + 1, work)


def _homogenized_rows(p: HPolyhedron) -> list[list[int]]:
    """The primitive integer rows ``(a, -b)`` of p, then ``(0, -1)`` for
    ``t >= 0``."""
    n = p.dim
    rows = [primitive_ints(row + (-rhs,)) for row, rhs in zip(p.a, p.b)]
    rows.append([0] * n + [-1])
    return rows


def _v_form(p: HPolyhedron, rays, lin, work: Work) -> VPolyhedron:
    """The V-form of p from the rays and lines of its homogenized cone; an
    empty p carries the Farkas certificate of its certificate LP."""
    n = p.dim
    vertices = tuple(_point(r, n) for r in rays if r[n])
    if not vertices:
        cert = lp_solve(p.a, p.b, zeros(n), work).farkas
        return VPolyhedron((), (), (), n, empty_certificate=cert)
    vrays = _fractions(r[:n] for r in rays if not r[n])
    return VPolyhedron(vertices, vrays, _fractions(v[:n] for v in lin), n)


def _point(g: tuple[int, ...], n: int) -> Vec:
    """The vertex ``x / t`` of the homogenized integer generator ``(x, t)``,
    t > 0, as Fractions."""
    t = g[n]
    if t == 1:
        return tuple(map(int_fraction, g[:n]))
    return tuple(Fraction(x, t) if x else ZERO for x in g[:n])


class IntVForm(NamedTuple):
    """A V-polyhedron in R^dim by its primitive homogenized integer
    generators: ``(x, t)`` with t > 0 for each vertex ``x / t``, ``(r, 0)``
    for each ray and ``(l, 0)`` for each line.  No points is the empty
    set."""

    points: list[tuple[int, ...]]
    rays: list[tuple[int, ...]]
    lines: list[tuple[int, ...]]
    dim: int

    def cone(self) -> list[tuple[int, ...]]:
        """The generators of the homogenized cone: the points, the rays, and
        each line followed by its negative."""
        gens = self.points + self.rays
        for l in self.lines:
            gens += [l, _neg(l)]
        return gens


def int_v_form(p: VPolyhedron) -> IntVForm:
    """The :class:`IntVForm` of p, in the order of its vertices, rays and
    lines."""
    def ints(vs, t: Fraction) -> list[tuple[int, ...]]:
        return [tuple(primitive_ints(v + (t,))) for v in vs]

    return IntVForm(ints(p.vertices, ONE), ints(p.rays, ZERO), ints(p.lineality, ZERO), p.dim)


def _v_to_h(p: VPolyhedron, work: Work) -> HPolyhedron:
    n = p.dim
    if p.is_empty:
        return HPolyhedron((zeros(n),), (-ONE,), n)
    return _homogenized_h(int_v_form(p).cone(), n, work)


def _homogenized_h(gens, n: int, work: Work) -> HPolyhedron:
    """The H-form of the polyhedron whose homogenized generators ``(x, t)``
    are the integer ``gens``: each normal ``(a, beta)`` of their cone is the
    row ``a . x <= -beta``, and a normal with a = 0 (which bounds only t) is
    dropped."""
    a_rows = []
    rhs = []
    for row in _int_cone_v_to_h(gens, n + 1, work):
        if any(row[:n]):
            a_rows.append(tuple(map(int_fraction, row[:n])))
            rhs.append(int_fraction(-row[n]))
    return HPolyhedron(tuple(a_rows), tuple(rhs), n)


# ---------------------------------------------------------------------------
# projection through the V-form
# ---------------------------------------------------------------------------


def project_fm(p: HPolyhedron, coords) -> HPolyhedron:
    """Exact image of ``p`` under the projection onto ``coords`` (1-based).

    The name is historical (it once ran Fourier-Motzkin elimination).  The
    image is computed through the V-form, on ints: convert ``p`` to its
    homogenized generators ``(x, t)``, keep the chosen coordinates of x and
    t, made primitive (rays and lines that vanish are dropped, duplicates
    merged) and convert back, so the rows are irredundant, and one budget
    bounds both conversions.  An empty ``p`` projects to the single row
    ``0 <= -1``.
    """
    require_kind(p, HPolyhedron, "project_fm takes an HPolyhedron")
    coords = sorted(set(coords))
    if not coords or coords[0] < 1 or coords[-1] > p.dim:
        raise DimensionMismatchError("coords must be a nonempty subset of {1..n}")
    _refuse_dim(p.dim)
    n, k = p.dim, len(coords)
    work = Work()
    rays, lin = _homogenized_v(p, work)
    if not any(r[n] for r in rays):
        return HPolyhedron((zeros(k),), (-ONE,), k)
    keep = [c - 1 for c in coords] + [n]
    points, directions = {}, {}
    for r in rays:
        g = int_primitive([r[j] for j in keep])
        if r[n]:
            points[g] = None
        elif any(g):
            directions[g] = None
    lines = dict.fromkeys(g for g in (int_primitive([v[j] for j in keep]) for v in lin) if any(g))
    gens = [*points, *directions]
    for g in lines:
        gens += [g, _neg(g)]
    return _homogenized_h(gens, k, work)


# ---------------------------------------------------------------------------
# cone and polyhedron operations
# ---------------------------------------------------------------------------


def polar_cone(d: PolyCone) -> PolyCone:
    """Positive polar ``{c : c . x >= 0 for every x in the cone}``."""
    require_kind(d, PolyCone, "polar_cone takes a PolyCone")
    # {c : -g . c <= 0}  ==  {c : g . c >= 0}
    rows = tuple(vscale(-ONE, g) for g in d.generators)
    return PolyCone.from_halfspaces(rows, d.dim)


def intersect(p: HPolyhedron, q: HPolyhedron) -> HPolyhedron:
    require_kind(p, HPolyhedron, "intersect takes HPolyhedra")
    require_kind(q, HPolyhedron, "intersect takes HPolyhedra")
    if p.dim != q.dim:
        raise DimensionMismatchError("intersection of different ambient dimensions")
    return HPolyhedron(p.a + q.a, p.b + q.b, p.dim)


def minkowski_sum(p: VPolyhedron, q: VPolyhedron) -> VPolyhedron:
    """``p + q``: the vertices and rays are added on ints
    (:func:`int_minkowski_sum`), and each distinct vertex sum is built as
    Fractions once; the lineality is the greedy first independent lines of
    p and q."""
    require_kind(p, VPolyhedron, "minkowski_sum takes VPolyhedra")
    require_kind(q, VPolyhedron, "minkowski_sum takes VPolyhedra")
    if p.dim != q.dim:
        raise DimensionMismatchError("sum of different ambient dimensions")
    n = p.dim
    if p.is_empty or q.is_empty:
        return VPolyhedron((), (), (), n)
    s = int_minkowski_sum(int_v_form(p), int_v_form(q))
    vertices = tuple(_point(g, n) for g in s.points)
    rays = _fractions(r[:n] for r in s.rays)
    return VPolyhedron(vertices, rays, tuple(basis_of_span(p.lineality + q.lineality, n)), n)


def int_minkowski_sum(f: IntVForm, g: IntVForm) -> IntVForm:
    """The :class:`IntVForm` of the sum of two polyhedra in one R^n: each
    pair of points ``(x, t) + (y, u)`` is ``(u x + t y, t u)`` made
    primitive, and the rays and lines are those of both, repeats of a point
    or a ray merged in order."""
    n = f.dim
    if not f.points or not g.points:
        return IntVForm([], [], [], n)
    points = []
    for x in f.points:
        t = x[n]
        for y in g.points:
            u = y[n]
            z = [u * a + t * b for a, b in zip(x, y)]
            z[n] = t * u
            points.append(int_primitive(z))
    rays = list(dict.fromkeys(f.rays + g.rays))
    return IntVForm(list(dict.fromkeys(points)), rays, f.lines + g.lines, n)


def int_v_subset(inner: IntVForm, outer: IntVForm, work: Work) -> bool:
    """Whether one polyhedron lies in another of its dimension, on ints:
    whether each normal h of the outer's homogenized cone
    (:func:`_int_cone_v_to_h`) has ``h . g <= 0`` at every point and ray g
    of the inner and ``h . l = 0`` at every line l.  A normal ``(0, beta)``,
    which the H-form drops, has beta <= 0 when the outer has a point, so
    every point and ray meets it.  Only an empty inner lies in an empty
    outer.  The dimension cap is :func:`dd_convert`'s, and the conversion
    is charged to ``work``."""
    _refuse_dim(outer.dim)
    if not outer.points:
        return not inner.points
    normals = _int_cone_v_to_h(outer.cone(), outer.dim + 1, work)
    gens = inner.points + inner.rays
    return all(sum(map(mul, h, g)) <= 0 for h in normals for g in gens) and all(
        not sum(map(mul, h, l)) for h in normals for l in inner.lines
    )


def recession_cone(p: HPolyhedron) -> PolyCone:
    """``{d : A d <= 0}`` with generators computed by double description."""
    require_kind(p, HPolyhedron, "recession_cone takes an HPolyhedron")
    return PolyCone.from_halfspaces(p.a, p.dim)


def vpoly_contains(p: VPolyhedron, x: Vec) -> bool:
    """Exact membership in a V-polyhedron via LP feasibility."""
    if len(x) != p.dim:
        raise DimensionMismatchError("point dimension mismatch")
    if p.is_empty:
        return False
    nv, nr, nl = len(p.vertices), len(p.rays), len(p.lineality)
    cols = list(p.vertices) + list(p.rays) + list(p.lineality)
    nvars = nv + nr + nl
    rows = []
    rhs = []
    for sign in (ONE, -ONE):
        for i in range(p.dim):
            rows.append(tuple(sign * c[i] for c in cols))
            rhs.append(sign * x[i])
    conv_row = tuple(ONE if k < nv else ZERO for k in range(nvars))
    rows.append(conv_row)
    rhs.append(ONE)
    rows.append(vscale(-ONE, conv_row))
    rhs.append(-ONE)
    for k in range(nv + nr):
        rows.append(tuple(-ONE if j == k else ZERO for j in range(nvars)))
        rhs.append(ZERO)
    res = lp_solve(mat(rows), vec(rhs), zeros(nvars))
    return res.status == "optimal"


# ---------------------------------------------------------------------------
# exact linear programming (two-phase simplex, Bland's rule)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPResult:
    """Outcome of ``min c.x  s.t.  A x <= b`` in exact rationals.

    status: "optimal" (x, value set), "unbounded" (x feasible, ray improves),
    or "infeasible" (farkas is a certificate: farkas >= 0, farkas A = 0,
    farkas . b < 0).
    """

    status: str
    x: Vec | None = None
    value: Fraction | None = None
    ray: Vec | None = None
    farkas: Vec | None = None


def lp_solve(a: Mat, b: Vec, c: Vec, work: Work | None = None) -> LPResult:
    """Exact two-phase simplex; its work is charged to ``work``, the counter
    of a calling public call, or to a new one if None.

    The tableau is fraction-free: row i is a list of ints ``rows[i]`` over
    one positive denominator ``dens[i]``, kept primitive, and the cost row
    is one such pair.  Signs, ratio tests (by cross-multiplication, where
    the row denominators cancel) and so every pivot are those of the
    Fraction tableau, and the results are built as Fractions at the end.
    """
    m = len(a)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in a):
        raise DimensionMismatchError("LP rows must match the cost's width and b's length")
    if m == 0:
        if is_zero(c):
            return LPResult("optimal", zeros(n), ZERO)
        ray = tuple(-ci for ci in c)
        return LPResult("unbounded", zeros(n), None, ray)
    if n == 0:
        bad = next((i for i in range(m) if b[i] < 0), None)
        if bad is None:
            return LPResult("optimal", (), ZERO)
        lam = tuple(ONE if i == bad else ZERO for i in range(m))
        return LPResult("infeasible", farkas=lam)

    # standard form: columns are u (n), w (n), s (m), then the m artificials
    # and the right-hand side; x = u - w, and row i is multiplied by the sign
    # of b_i so that its right-hand side is >= 0
    ncols = 2 * n + m
    width = ncols + m + 1
    if work is None:
        work = Work()
    work.charge(m * width * LP_ENTRY_UNITS, "exact LP")
    signs = []
    rows = []
    dens = []
    for i in range(m):
        den = lcm(b[i].denominator, *(x.denominator for x in a[i]))
        s = 1 if b[i] >= 0 else -1
        ai = [s * x.numerator * (den // x.denominator) for x in a[i]]
        row = ai + [-x for x in ai] + [0] * (2 * m) + [s * b[i].numerator * (den // b[i].denominator)]
        row[2 * n + i] = s * den
        row[ncols + i] = den
        row, den = _primitive_row(row, den)
        signs.append(s)
        rows.append(row)
        dens.append(den)
    basis = list(range(ncols, ncols + m))  # artificial indices

    # phase 1 objective row: reduced costs of min sum(artificials), which are
    # minus the column sums off the artificial columns
    cost = _row_sum([(-1, i) for i in range(m)], rows, dens, [0] * width, 1)
    for i in range(m):
        cost[0][ncols + i] = 0
    _simplex(rows, dens, cost, basis, ncols + m, work)
    if cost[0][-1] < 0:
        # optimal dual of phase 1, read off the artificial reduced costs:
        # y_i = 1 - redcost(a_i); then lambda = -sigma*y is the Farkas witness
        den = cost[1]
        lam = tuple(Fraction(-s * (den - cost[0][ncols + i]), den) for i, s in enumerate(signs))
        return LPResult("infeasible", farkas=lam)

    # drive artificials out of the basis
    for i in range(m):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if rows[i][j]), None)
            if pivot_col is None:
                continue  # redundant row; artificial stays basic at zero
            _pivot(rows, dens, None, i, pivot_col, basis, work)

    # phase 2: the costs of c over the lcm of their denominators, minus the
    # basic rows times their costs
    den = lcm(*(ci.denominator for ci in c))
    cs = [ci.numerator * (den // ci.denominator) for ci in c]
    full = cs + [-x for x in cs] + [0] * m
    basic = [(-full[basis[i]], i) for i in range(m) if basis[i] < ncols and full[basis[i]]]
    cost = _row_sum(basic, rows, dens, full + [0] * (m + 1), den)
    for i in range(m):
        cost[0][ncols + i] = cost[1]  # block artificial columns from re-entering
    status, ray_col = _simplex(rows, dens, cost, basis, ncols, work)

    z = [ZERO] * ncols
    for i in range(m):
        if basis[i] < ncols:
            z[basis[i]] = Fraction(rows[i][-1], dens[i])
    x = tuple(z[j] - z[n + j] for j in range(n))
    if status == "unbounded":
        direction = [ZERO] * ncols
        direction[ray_col] = ONE
        for i in range(m):
            if basis[i] < ncols:
                direction[basis[i]] = Fraction(-rows[i][ray_col], dens[i])
        ray = tuple(direction[j] - direction[n + j] for j in range(n))
        return LPResult("unbounded", x, None, ray)
    return LPResult("optimal", x, dot(c, x))


def _primitive_row(row: list[int], den: int) -> tuple[list[int], int]:
    """``(row, den)`` divided by the gcd of its entries and den."""
    g = gcd(den, *row)
    return ([x // g for x in row], den // g) if g > 1 else (row, den)


def _row_sum(terms, rows, dens, base: list[int], base_den: int) -> list:
    """The pair ``[ints, den]`` of ``(base + sum_k f_k rows[i_k] / dens[i_k])
    / base_den`` for the int factors ``(f_k, i_k)`` of ``terms``."""
    scale = lcm(*(dens[i] for _, i in terms))
    out = [x * scale for x in base]
    for f, i in terms:
        k = f * (scale // dens[i])
        out = [x + k * y if y else x for x, y in zip(out, rows[i])]
    return list(_primitive_row(out, base_den * scale))


def _simplex(rows, dens, cost, basis, limit, work):
    """Bland-rule simplex on the integer tableau; mutates it in place.  The
    entering column is the first of the first ``limit`` with a negative
    reduced cost, and the leaving row has the least ratio ``rhs / entry``
    over the positive entries, ties broken by the least basis index."""
    while True:
        enter = next((j for j in range(limit) if cost[0][j] < 0), None)
        if enter is None:
            return "optimal", None
        leave = None
        for i, row in enumerate(rows):
            t = row[enter]
            if t > 0:
                # row[-1] / t against num / den: the row denominator cancels
                if leave is None:
                    leave, num, den = i, row[-1], t
                else:
                    lhs, rhs = row[-1] * den, num * t
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, den = i, row[-1], t
        if leave is None:
            return "unbounded", enter
        _pivot(rows, dens, cost, leave, enter, basis, work)


def _pivot(rows, dens, cost, row, col, basis, work):
    hit = [i for i in range(len(rows)) if i != row and rows[i][col]]
    # the pivot row, the rows it updates and the cost row
    work.charge((len(hit) + 2) * len(rows[row]) * LP_ENTRY_UNITS, "exact LP")
    # the pivot row over its pivot entry is the row's ints over that entry
    prow = rows[row]
    if prow[col] < 0:
        prow = [-x for x in prow]
    prow, pd = _primitive_row(prow, prow[col])
    rows[row], dens[row] = prow, pd
    for i in hit:
        rows[i], dens[i] = _eliminate(rows[i], dens[i], prow, pd, col)
    if cost is not None and cost[0][col]:
        cost[0], cost[1] = _eliminate(cost[0], cost[1], prow, pd, col)
    basis[row] = col


def _eliminate(row: list[int], den: int, prow: list[int], pd: int, col: int):
    """``row / den - (row[col] / den) prow / pd``, primitive, for a pivot row
    with ``prow[col] == pd``: zero at col."""
    f = row[col]
    out = [pd * x - f * y if y else pd * x for x, y in zip(row, prow)]
    return _primitive_row(out, den * pd)
