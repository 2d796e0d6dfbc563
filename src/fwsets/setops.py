"""Class-invariance operations on Motzkin sums.

The class of compact-plus-polyhedral-cone sets is closed under affine
images, sums with subspaces, finite products, subspace intersections, finite
intersections, and affine preimages, with each closure constructive.  The
sections and the preimage work on the set's inequality form
(:func:`motzkin.polyhedral_forms`):

* ``(K + D) ∩ L = K0 + (D ∩ L)`` for a subspace L, where K0 comes from the
  vertex part of the double-description conversion and the cone part is
  verified against D ∩ L by mutual generator membership;
* the binary intersection stacks the two inequality systems and decomposes
  the result;
* the affine preimage substitutes the map into the inequalities, solved in
  the coordinates of the map's row space, and adds the map's kernel.

The order cancellation law (``A + K ⊆ B + K`` with compact K forces
``A ⊆ B``) is exposed as a checker over V-polyhedra so the property can be
exercised directly.
"""

from __future__ import annotations

from fractions import Fraction

from .affine import AffineManifold, AffineMap
from .asymptotes import SetDescriptor, UnionSet
from .errors import (
    DimensionMismatchError,
    EmptySetError,
    FwsetsError,
    UnsupportedKindError,
    require_kind,
)
from .linalg import (
    ONE,
    basis_of_span,
    dot,
    identity,
    is_zero,
    kernel_basis,
    matmul,
    matvec,
    transpose,
    vec,
    vscale,
    vsub,
    zeros,
)
from .motzkin import (
    Attained,
    AttainmentVerdict,
    Ball,
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    Unknown,
    compact_points,
    decompose,
    minimize_on_motzkin,
    polyhedral_forms,
)
from .polyhedra import (
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    dd_convert,
    intersect as intersect_h,
    minkowski_sum,
    same_cone,
)
from .quadratics import Quadratic


def _require_polyhedral(f: MotzkinSet, op: str) -> None:
    require_kind(f, MotzkinSet, f"{op} takes Motzkin sets")
    if not f.is_polyhedral_cone:
        raise UnsupportedKindError(f"{op} requires a polyhedral recession cone")


def affine_image(f: MotzkinSet, t: AffineMap) -> MotzkinSet:
    """``T(K) + T_linear(D)``, computed generator-wise, exactly.

    Balls survive only isometric linear parts (anything else would make an
    ellipsoid, which is not a representable compact kind).
    """
    _require_polyhedral(f, "affine_image")
    if t.source_dim != f.dim:
        raise DimensionMismatchError("map source dimension differs from the set's")
    gens = []
    for g in f.cone.generators:
        img = t.apply_linear(g)
        if not is_zero(img):
            gens.append(img)
    cone = PolyCone.from_generators(gens, t.target_dim)
    if isinstance(f.compact, Ball):
        m = t.matrix
        mt_m = tuple(
            tuple(sum(m[r][i] * m[r][j] for r in range(len(m))) for j in range(t.source_dim))
            for i in range(t.source_dim)
        )
        if mt_m != identity(t.source_dim):
            raise UnsupportedKindError(
                "a ball maps to an ellipsoid under a non-isometric map"
            )
        return MotzkinSet(Ball(t.apply(f.compact.center), f.compact.radius), cone)
    pts = tuple(t.apply(p) for p in compact_points(f.compact))
    if isinstance(f.compact, PolytopeK):
        return MotzkinSet(PolytopeK(tuple(dict.fromkeys(pts)), t.target_dim), cone)
    return MotzkinSet(FinitePointSet(tuple(dict.fromkeys(pts)), t.target_dim), cone)


def sum_with_subspace(f: MotzkinSet, basis) -> MotzkinSet:
    """``K + (D + L)``: the subspace folds into the cone as opposite pairs."""
    _require_polyhedral(f, "sum_with_subspace")
    gens = list(f.cone.generators)
    for v in basis:
        v = vec(v)
        if len(v) != f.dim:
            raise DimensionMismatchError("subspace vector dimension mismatch")
        if is_zero(v):
            continue
        gens.append(v)
        gens.append(vscale(-ONE, v))
    cone = PolyCone.from_generators(gens, f.dim)
    return MotzkinSet(f.compact, cone)


def product(f1: MotzkinSet, f2: MotzkinSet) -> MotzkinSet:
    """Block combination ``(K1 x K2) + (D1 x D2)``."""
    _require_polyhedral(f1, "product")
    _require_polyhedral(f2, "product")
    n1, n2 = f1.dim, f2.dim
    gens = [g + zeros(n2) for g in f1.cone.generators]
    gens += [zeros(n1) + g for g in f2.cone.generators]
    cone = PolyCone.from_generators(gens, n1 + n2)
    k1, k2 = f1.compact, f2.compact
    if isinstance(k1, PolytopeK) and isinstance(k2, PolytopeK):
        pts = tuple(a + b for a in k1.vertices for b in k2.vertices)
        return MotzkinSet(PolytopeK(pts, n1 + n2), cone)
    if isinstance(k1, FinitePointSet) and isinstance(k2, FinitePointSet):
        pts = tuple(a + b for a in k1.points for b in k2.points)
        return MotzkinSet(FinitePointSet(pts, n1 + n2), cone)
    raise UnsupportedKindError(
        "products need matching polytope or finite compact parts"
    )


def cone_intersect_subspace(d: PolyCone, l: AffineManifold) -> PolyCone:
    """Generators of ``D ∩ L`` from the stacked halfspace system."""
    rows, _ = l.inequalities()
    return PolyCone.from_halfspaces(d.halfspaces + rows, d.dim)


def _inequality_form(f: MotzkinSet, op: str) -> HPolyhedron:
    """The one inequality system of a polytope (or a point) plus a
    polyhedral cone."""
    forms = polyhedral_forms(f)
    if forms is None or len(forms) != 1:
        raise UnsupportedKindError(
            f"{op} needs a polytope or a single point plus a polyhedral cone"
        )
    return forms[0]


def intersect_subspace_motzkin(f: MotzkinSet, l: AffineManifold) -> MotzkinSet:
    """``(K + D) ∩ L`` recomposed as ``K0 + (D ∩ L)``.

    The stacked system is decomposed (:func:`motzkin.decompose`); its
    polytope becomes K0, its cone is checked, by mutual generator
    membership, to equal D ∩ L exactly, and its kept rows are the H-form of
    the section.  Raises EmptySetError with a Farkas certificate when the
    intersection is empty.
    """
    require_kind(f, MotzkinSet, "intersect_subspace_motzkin takes a MotzkinSet")
    if l.dim != f.dim:
        raise DimensionMismatchError("subspace dimension differs from the set's")
    h = _inequality_form(f, "intersect_subspace_motzkin")
    if not l.contains(zeros(l.dim)):
        raise UnsupportedKindError("expected a linear subspace through the origin")
    eq_rows, eq_rhs = l.inequalities()
    stacked = HPolyhedron(h.a + eq_rows, h.b + eq_rhs, f.dim)
    try:
        section = decompose(stacked)
    except EmptySetError as exc:
        raise EmptySetError("the set does not meet the subspace", exc.certificate) from None
    expected = cone_intersect_subspace(f.cone, l)
    if not same_cone(section.cone, expected):
        raise FwsetsError("recomposed cone differs from the intersected cone")
    result = MotzkinSet(section.compact, expected)
    result.__dict__["hform"] = section.hform
    return result


def intersect_fwm(f1: MotzkinSet, f2: MotzkinSet) -> MotzkinSet:
    """``F1 ∩ F2``: the two inequality systems stacked and decomposed.

    Raises EmptySetError with a Farkas certificate when the sets are
    disjoint.
    """
    for f in (f1, f2):
        require_kind(f, (HPolyhedron, MotzkinSet), "intersect_fwm takes HPolyhedra or MotzkinSets")
    if f1.dim != f2.dim:
        raise DimensionMismatchError("intersecting sets of different dimensions")
    h1 = _inequality_form(f1, "intersect_fwm")
    h2 = _inequality_form(f2, "intersect_fwm")
    return decompose(intersect_h(h1, h2))


def affine_preimage(f: MotzkinSet, t: AffineMap) -> MotzkinSet:
    """``T^{-1}(K + D)`` by substituting ``T(x) = M x + t0`` into ``A y <= b``.

    The preimage is its part in the row space of M plus ker(M).  With R a
    basis of the row space, that part is ``R^T z`` over the solutions z of
    ``A M R^T z <= b - A t0``, a system in rank(M) unknowns, so the source
    space may exceed the dimension cap of double description.  Empty
    preimages raise EmptySetError with a Farkas certificate.
    """
    require_kind(f, (HPolyhedron, MotzkinSet), "affine_preimage takes HPolyhedra or MotzkinSets")
    if t.target_dim != f.dim:
        raise DimensionMismatchError("map target dimension differs from the set's")
    h = _inequality_form(f, "affine_preimage")
    n = t.source_dim
    # a constant map keeps one (zero) unknown: a system needs a dimension
    row_basis = basis_of_span(t.matrix, n) or [zeros(n)]
    lift = transpose(row_basis)
    rows = matmul(h.a, matmul(t.matrix, lift))
    rhs = vsub(h.b, matvec(h.a, t.offset))
    part = decompose(HPolyhedron(rows, rhs, len(row_basis)))
    image = affine_image(part, AffineMap(lift))
    return sum_with_subspace(image, kernel_basis(t.matrix, ncols=n))


def order_cancellation_check(
    a: VPolyhedron, b: VPolyhedron, k: VPolyhedron
) -> tuple[bool, bool]:
    """Evaluate both sides of the cancellation law on concrete data.

    Returns ``(A + K ⊆ B + K, A ⊆ B)``; the law asserts the first forces
    the second when K is compact (here: a polytope).
    """
    for v in (a, b, k):
        require_kind(v, VPolyhedron, "order_cancellation_check takes VPolyhedra")
    if k.rays or k.lineality:
        raise UnsupportedKindError("the cancellation summand must be a polytope")
    sum_a = minkowski_sum(a, k)
    sum_b = minkowski_sum(b, k)
    return _vpoly_subset(sum_a, sum_b), _vpoly_subset(a, b)


def _vpoly_subset(inner: VPolyhedron, outer: VPolyhedron) -> bool:
    h = dd_convert(outer)
    for v in inner.vertices:
        if not h.contains(v):
            return False
    for r in inner.rays:
        if any(dot(row, r) > 0 for row in h.a):
            return False
    for l in inner.lineality:
        if any(dot(row, l) != 0 for row in h.a):
            return False
    return True


def union_set(members) -> UnionSet:
    """``UnionSet(members)``, kept as a public name: minimization and
    classification distribute over the members, which the constructor
    checks."""
    return UnionSet(members)


def minimize_on_descriptor(
    q: Quadratic, s: SetDescriptor, tol: Fraction | None = None
) -> AttainmentVerdict:
    """Minimize over a descriptor: Motzkin sums and inequality systems are
    solved exactly (a ball member is bracketed to within ``tol``), anything
    else but a union is Unknown.

    A union takes its value and point from the member of least value, and
    its lower bound from the least member bound, an exact member's bound
    being its value; the verdict is exact only when that bound is the value.
    """
    if isinstance(s, MotzkinSet):
        return minimize_on_motzkin(q, s, tol)
    if isinstance(s, HPolyhedron):
        return minimize_on_motzkin(q, decompose(s), tol)
    if isinstance(s, UnionSet):
        verdicts = [minimize_on_descriptor(q, m, tol) for m in s.members]
        for v in verdicts:
            if v.kind == "unbounded":
                return v
        if any(v.kind == "unknown" for v in verdicts):
            return Unknown("a union member resisted minimization")
        best = min(verdicts, key=lambda v: v.value)
        bound = min(v.value if v.exact else v.lower_bound for v in verdicts)
        if bound < best.value:
            return Attained(best.point, best.value, exact=False, lower_bound=bound)
        return best
    return Unknown(f"no exact solver for {type(s).__name__} sets")
