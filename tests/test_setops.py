"""Tests for the Motzkin-sum invariance operations."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from fwsets import polyhedra
from fwsets.affine import AffineManifold, AffineMap, subspace
from fwsets import cone_qp
from fwsets.asymptotes import Epigraph1D, QuadSublevel, classify_fw_set
from fwsets.errors import DimensionMismatchError, EmptySetError, FwsetsError, UnsupportedKindError
from fwsets.linalg import (
    ONE,
    basis_of_span,
    dot,
    identity,
    kernel_basis,
    matvec,
    primitive,
    solve,
    unit,
    vadd,
    vec,
    vscale,
    vsub,
    zeros,
)
from fwsets.motzkin import (
    Ball,
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    SecondOrderCone,
    classify_fw,
    decompose,
    minimize_on_motzkin,
    motzkin_to_vpoly,
    polyhedral_forms,
    recession_cone_of,
)
from fwsets.polyhedra import (
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    dd_convert,
    intersect,
    minkowski_sum,
    polar_cone,
    project_fm,
    recession_cone,
)
from fwsets.setops import (
    affine_image,
    affine_preimage,
    cone_intersect_subspace,
    intersect_fwm,
    intersect_subspace_motzkin,
    minimize_on_descriptor,
    order_cancellation_check,
    product,
    sum_with_subspace,
    union_set,
)
from fwsets.quadratics import (
    Quadratic,
    compose_affine,
    invariant_directions,
    is_convex,
    restrict_to_affine,
)

F = Fraction


def orthant(n=2):
    return PolyCone.from_generators([unit(n, i) for i in range(n)], n)


def unit_square():
    return PolytopeK([(0, 0), (1, 0), (0, 1), (1, 1)])


def members(f: MotzkinSet):
    return dd_convert(motzkin_to_vpoly(f))


# ---------------------------------------------------------------------------
# affine_image / sum_with_subspace / product
# ---------------------------------------------------------------------------


def test_affine_image_identity():
    f = MotzkinSet(unit_square(), orthant())
    g = affine_image(f, AffineMap.identity(2))
    assert set(g.compact.vertices) == set(f.compact.vertices)
    assert set(g.cone.generators) == set(f.cone.generators)


def test_affine_image_projection_to_first_coordinate():
    f = MotzkinSet(unit_square(), orthant())
    t = AffineMap([[1, 0]])
    g = affine_image(f, t)
    assert g.dim == 1
    assert set(g.compact.vertices) == {(0,), (1,)}
    assert set(g.cone.generators) == {(1,)}


def test_affine_image_sums_cone_generators():
    f = MotzkinSet(PolytopeK([(0, 0)]), orthant())
    t = AffineMap([[1, 1]])
    g = affine_image(f, t)
    assert set(g.cone.generators) == {(1,)}


def test_affine_image_rejects_squashed_ball():
    f = MotzkinSet(Ball((0, 0), 1), orthant())
    with pytest.raises(UnsupportedKindError):
        affine_image(f, AffineMap([[2, 0], [0, 1]]))
    rotated = affine_image(f, AffineMap([[0, -1], [1, 0]]))
    assert isinstance(rotated.compact, Ball)


def test_sum_with_subspace_folds_lineality():
    f = MotzkinSet(unit_square(), PolyCone((), 2))
    g = sum_with_subspace(f, [(1, 0)])
    assert set(g.cone.generators) == {(1, 0), (-1, 0)}
    h = sum_with_subspace(f, [])
    assert not h.cone.generators


def test_sum_point_ray_with_orthogonal_line():
    f = MotzkinSet(PolytopeK([(0, 0)]), PolyCone.from_generators([(1, 0)]))
    g = sum_with_subspace(f, [(0, 1)])
    hm = dd_convert(motzkin_to_vpoly(g))
    assert hm.contains(vec((5, -7)))
    assert hm.contains(vec((0, 3)))
    assert not hm.contains(vec((-1, 0)))


def test_product_dimensions_and_membership():
    f1 = MotzkinSet(unit_square(), orthant())
    f2 = MotzkinSet(PolytopeK([(3,)]), PolyCone((), 1))
    p = product(f1, f2)
    assert p.dim == 3
    assert len(p.compact.vertices) == 4
    rng = random.Random(2)
    h1 = members(f1)
    hp = members(p)
    for _ in range(50):
        x = tuple(F(rng.randint(-2, 6), 2) for _ in range(2))
        joint = x + (F(3),)
        assert hp.contains(joint) == h1.contains(x)
    # direct factorization check on the H-forms
    hp_h = dd_convert(motzkin_to_vpoly(p))
    h1_h = dd_convert(motzkin_to_vpoly(f1))
    for _ in range(100):
        x = tuple(F(rng.randint(-2, 6), 2) for _ in range(2))
        y = F(rng.randint(0, 6), 2)
        assert hp_h.contains(x + (y,)) == (h1_h.contains(x) and y == 3)


def test_product_of_rays_is_quarter_plane():
    r1 = MotzkinSet(PolytopeK([(0,)]), PolyCone.from_generators([(1,)]))
    p = product(r1, r1)
    assert set(p.cone.generators) == {(1, 0), (0, 1)}


_SET_KINDS = {
    "hpolyhedron": HPolyhedron(((F(-1), F(0), F(0)),), (F(0),), 3),
    "ball": MotzkinSet(Ball((0, 0, 0), F(1)), PolyCone.from_generators([(0, 0, 1)])),
    "second_order": MotzkinSet(
        PolytopeK([(0, 0, 0)]), SecondOrderCone(3, vec((0, 0, 1)), F(1, 2))
    ),
    "polytope": MotzkinSet(PolytopeK([(0, 0, 0), (1, 0, 0)]), orthant(3)),
    "points": MotzkinSet(FinitePointSet([(0, 0, 0), (0, 2, 0)]), orthant(3)),
}


@pytest.mark.parametrize("second", sorted(_SET_KINDS))
@pytest.mark.parametrize("first", sorted(_SET_KINDS))
def test_product_of_any_set_kinds_is_a_set_or_a_typed_refusal(first, second):
    # an HPolyhedron once raised a bare AttributeError here; only two
    # polytope parts or two point-set parts, with polyhedral cones, multiply
    multiplies = first == second and first in ("points", "polytope")
    try:
        p = product(_SET_KINDS[first], _SET_KINDS[second])
    except FwsetsError:
        assert not multiplies
        return
    assert multiplies and isinstance(p, MotzkinSet) and p.dim == 6


# every set kind above, a bare cone, a quadratic sublevel set, the V-form of
# the half-space and the planar epigraph of x^2 + exp(-x^2)
_QP_KINDS = {
    **_SET_KINDS,
    "cone": orthant(3),
    "quad_sublevel": QuadSublevel(_SET_KINDS["hpolyhedron"], (Quadratic.build(identity(3), zeros(3), -1),)),
    "vpolyhedron": dd_convert(_SET_KINDS["hpolyhedron"]),
    "epigraph": Epigraph1D(),
}
_Q3 = Quadratic.build(identity(3), (0, 0, 1))
# each QP and cone entry: the kind it takes, and a call on a set
_QP_ENTRIES = {
    "minimize_over_hpolyhedron": ("hpolyhedron", partial(cone_qp.minimize_over_hpolyhedron, _Q3)),
    "nonneg_form_on_cone": ("cone", partial(cone_qp.nonneg_form_on_cone, _Q3.a)),
    "zero_set_pieces": ("cone", partial(cone_qp.zero_set_pieces, _Q3.a)),
    "dom_f": ("cone", partial(cone_qp.dom_f, _Q3.a)),
    "minimize_on_polyhedral_cone": ("cone", partial(cone_qp.minimize_on_polyhedral_cone, _Q3)),
    "value_function_eval": ("cone", partial(cone_qp.value_function_eval, _Q3.b, _Q3.a)),
    "is_bounded_below_on_cone": ("cone", partial(cone_qp.is_bounded_below_on_cone, _Q3.b, _Q3.a)),
}


@pytest.mark.parametrize("kind", sorted(_QP_KINDS))
@pytest.mark.parametrize("entry", sorted(_QP_ENTRIES))
def test_qp_and_cone_entries_answer_or_refuse_any_set_kind(entry, kind):
    # a set of another kind once raised a bare AttributeError here: the QP
    # takes an HPolyhedron and the cone layer a PolyCone, and every other
    # kind is refused by its kind
    takes, call = _QP_ENTRIES[entry]
    try:
        call(_QP_KINDS[kind])
    except FwsetsError as refusal:
        assert kind != takes and isinstance(refusal, UnsupportedKindError), refusal


_MOTZKIN_KINDS = ("ball", "points", "polytope", "second_order")
# each public set operation: the kinds it answers, and a call on a set; the
# functions of a Quadratic answer no set kind
_PUBLIC_ENTRIES = {
    "classify_fw": (_MOTZKIN_KINDS, classify_fw),
    "decompose": (("hpolyhedron",), decompose),
    "minimize_on_motzkin": (_MOTZKIN_KINDS, partial(minimize_on_motzkin, _Q3)),
    "recession_cone_of": (_MOTZKIN_KINDS, recession_cone_of),
    "polar_cone": (("cone",), polar_cone),
    "project_fm": (("hpolyhedron",), lambda s: project_fm(s, [1])),
    "recession_cone": (("hpolyhedron",), recession_cone),
    "intersect_subspace_motzkin": (
        ("polytope",), lambda s: intersect_subspace_motzkin(s, subspace([(1, 0, 0)], 3))
    ),
    "intersect_fwm": (("hpolyhedron", "polytope"), lambda s: intersect_fwm(s, s)),
    "minkowski_sum": (("vpolyhedron",), lambda s: minkowski_sum(s, s)),
    "intersect": (("hpolyhedron",), lambda s: intersect(s, s)),
    "dd_convert": (("hpolyhedron", "vpolyhedron"), dd_convert),
    "affine_preimage": (
        ("hpolyhedron", "polytope"), lambda s: affine_preimage(s, AffineMap.identity(3))
    ),
    "order_cancellation_check": (
        ("vpolyhedron",),
        lambda s: order_cancellation_check(s, s, VPolyhedron([(0, 0, 0)], (), (), 3)),
    ),
    "invariant_directions": ((), invariant_directions),
    "is_convex": ((), is_convex),
    "compose_affine": ((), lambda s: compose_affine(s, AffineMap.identity(3))),
    "restrict_to_affine": ((), lambda s: restrict_to_affine(s, subspace([(1, 0, 0)], 3))),
}


@pytest.mark.parametrize("kind", sorted(_QP_KINDS))
@pytest.mark.parametrize("entry", sorted(_PUBLIC_ENTRIES))
def test_public_set_operations_answer_or_refuse_any_set_kind(entry, kind):
    # each of these raised a bare AttributeError (dd_convert a TypeError) on
    # some set of another kind: it answers the kinds it takes and refuses
    # every other kind by its kind
    takes, call = _PUBLIC_ENTRIES[entry]
    if kind in takes:
        call(_QP_KINDS[kind])
    else:
        with pytest.raises(UnsupportedKindError):
            call(_QP_KINDS[kind])


# each public minimizer, called with a set of the kind it takes where its
# quadratic goes
_QUADRATIC_SLOTS = {
    "minimize_on_motzkin": lambda s: minimize_on_motzkin(s, _SET_KINDS["polytope"]),
    "minimize_on_descriptor": lambda s: minimize_on_descriptor(s, _SET_KINDS["hpolyhedron"]),
    "minimize_over_hpolyhedron": lambda s: cone_qp.minimize_over_hpolyhedron(s, _SET_KINDS["hpolyhedron"]),
    "minimize_on_polyhedral_cone": lambda s: cone_qp.minimize_on_polyhedral_cone(s, orthant(3)),
}


@pytest.mark.parametrize("kind", sorted(_QP_KINDS))
@pytest.mark.parametrize("entry", sorted(_QUADRATIC_SLOTS))
def test_minimizers_refuse_a_set_where_the_quadratic_goes(entry, kind):
    # each raised a bare AttributeError on a set in its first argument
    with pytest.raises(UnsupportedKindError, match="takes a Quadratic"):
        _QUADRATIC_SLOTS[entry](_QP_KINDS[kind])
    _QUADRATIC_SLOTS[entry](_Q3)


# ---------------------------------------------------------------------------
# intersect_subspace_motzkin
# ---------------------------------------------------------------------------


def test_intersect_orthant_with_diagonal():
    f = MotzkinSet(PolytopeK([(0, 0)]), orthant())
    l = subspace([(1, 1)], 2)
    g = intersect_subspace_motzkin(f, l)
    assert set(g.cone.generators) == {(1, 1)}
    assert set(g.compact.vertices) == {(0, 0)}


def test_intersect_segment_ray_with_axis():
    k = PolytopeK([(0, 0), (0, 1)])
    f = MotzkinSet(k, PolyCone.from_generators([(1, 0)]))
    l = subspace([(1, 0)], 2)
    g = intersect_subspace_motzkin(f, l)
    assert set(g.cone.generators) == {(1, 0)}
    assert set(g.compact.vertices) == {(0, 0)}


def test_intersect_square_orthant_with_diagonal():
    k = PolytopeK([(1, 1), (2, 1), (1, 2), (2, 2)])
    f = MotzkinSet(k, orthant())
    l = subspace([(1, 1)], 2)
    g = intersect_subspace_motzkin(f, l)
    assert set(g.cone.generators) == {(1, 1)}
    # the recomposed set contains exactly the diagonal points of K + D
    h = dd_convert(motzkin_to_vpoly(g))
    assert h.contains(vec((1, 1))) and h.contains(vec((7, 7)))
    assert not h.contains(vec((F(1, 2), F(1, 2))))


def test_intersect_empty_raises_with_certificate():
    f = MotzkinSet(PolytopeK([(3, 3), (4, 3)]), PolyCone((), 2))
    l = subspace([(1, 0)], 2)
    with pytest.raises(EmptySetError) as exc:
        intersect_subspace_motzkin(f, l)
    assert exc.value.certificate is not None


def test_a_section_keeps_the_rows_it_decomposed(monkeypatch):
    # the simplex {x >= 0, x1 + x2 + x3 <= 3} cut by the plane x1 = x2: the
    # section's H-form is the stacked system's kept rows, so reading it
    # converts no V-form back to an H-form; a plane that misses the simplex
    # raises the section's message with a Farkas certificate of the stack
    def refused(p, work):
        raise AssertionError("a V-form was converted to an H-form")

    monkeypatch.setattr(polyhedra, "_v_to_h", refused)
    rows = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]]
    f = decompose(HPolyhedron(rows, [0, 0, 0, 3]))
    g = intersect_subspace_motzkin(f, subspace([(1, 1, 0), (0, 0, 1)], 3))
    (form,) = polyhedral_forms(g)
    assert set(g.compact.vertices) == {(0, 0, 0), (F(3, 2), F(3, 2), 0), (0, 0, 3)}
    for x, inside in (((1, 1, 1), True), ((1, 1, 2), False), ((1, 0, 1), False)):
        assert form.contains(vec(x)) == inside
    shifted = decompose(HPolyhedron(rows, [-1, 0, 0, 3]))  # x1 >= 1
    plane = subspace([(0, 1, 0), (0, 0, 1)], 3)  # x1 = 0
    with pytest.raises(EmptySetError, match="the set does not meet the subspace") as exc:
        intersect_subspace_motzkin(shifted, plane)
    eq_rows, eq_rhs = plane.inequalities()
    a, b = shifted.hform.a + eq_rows, shifted.hform.b + eq_rhs
    lam = exc.value.certificate
    assert all(x >= 0 for x in lam) and dot(lam, b) < 0
    assert all(dot(lam, col) == 0 for col in zip(*a))


def test_random_subspace_intersections_recompose_exactly():
    rng = random.Random(19)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        pts = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens = [tuple(F(rng.randint(-1, 2)) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if any(x != 0 for x in g)]
        f = MotzkinSet(
            PolytopeK(pts),
            PolyCone.from_generators(gens, n) if gens else PolyCone((), n),
        )
        l = subspace([tuple(F(rng.randint(-1, 1)) for _ in range(n))], n) if rng.random() < 0.7 else subspace(
            [unit(n, 0), unit(n, 1)], n
        )
        if not l.basis:
            continue
        try:
            g = intersect_subspace_motzkin(f, l)
        except EmptySetError:
            continue
        done += 1
        # cone part equals D ∩ L by construction; verify by membership again
        expected = cone_intersect_subspace(f.cone, l)
        for gen in g.cone.generators:
            assert expected.contains(gen)
        # membership equivalence between the recomposition and the stacked form
        stacked = dd_convert(motzkin_to_vpoly(f))
        recomposed = dd_convert(motzkin_to_vpoly(g))
        for _ in range(40):
            x = tuple(F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
            in_stack = stacked.contains(x) and l.contains(x)
            assert recomposed.contains(x) == in_stack


# ---------------------------------------------------------------------------
# intersect_fwm / affine_preimage
# ---------------------------------------------------------------------------


def test_intersect_set_with_itself():
    f = MotzkinSet(unit_square(), orthant())
    g = intersect_fwm(f, f)
    hf = dd_convert(motzkin_to_vpoly(f))
    hg = dd_convert(motzkin_to_vpoly(g))
    rng = random.Random(3)
    for _ in range(100):
        x = tuple(F(rng.randint(-2, 8), 2) for _ in range(2))
        assert hf.contains(x) == hg.contains(x)


def test_intersect_orthant_with_strip():
    f1 = MotzkinSet(PolytopeK([(0, 0)]), orthant())
    f2 = MotzkinSet(unit_square(), PolyCone.from_generators([(0, 1)]))
    g = intersect_fwm(f1, f2)
    h = dd_convert(motzkin_to_vpoly(g))
    rng = random.Random(8)
    for _ in range(200):
        x = (F(rng.randint(-2, 4), 2), F(rng.randint(-2, 8), 2))
        expected = 0 <= x[0] <= 1 and x[1] >= 0
        assert h.contains(x) == expected


def test_intersect_disjoint_translates_raises():
    f1 = MotzkinSet(PolytopeK([(0, 0)]), PolyCone((), 2))
    f2 = MotzkinSet(PolytopeK([(5, 5)]), PolyCone((), 2))
    with pytest.raises(EmptySetError):
        intersect_fwm(f1, f2)


def test_manifold_equations_reject_rhs_of_wrong_length():
    rows = ((1, 0), (0, 1))
    assert AffineManifold.from_equations(rows, (1, 2)).point == (F(1), F(2))
    for rhs in ((1,), (1, 2, 3), ()):
        with pytest.raises(DimensionMismatchError):
            AffineManifold.from_equations(rows, rhs)


def test_preimage_under_identity():
    f = MotzkinSet(unit_square(), orthant())
    g = affine_preimage(f, AffineMap.identity(2))
    hf = dd_convert(motzkin_to_vpoly(f))
    hg = dd_convert(motzkin_to_vpoly(g))
    rng = random.Random(5)
    for _ in range(100):
        x = tuple(F(rng.randint(-2, 6), 2) for _ in range(2))
        assert hf.contains(x) == hg.contains(x)


def test_preimage_of_halfline_under_projection():
    # T: R^2 -> R, T(x) = x1; preimage of [0, oo) is the halfplane x1 >= 0
    f = MotzkinSet(PolytopeK([(0,)]), PolyCone.from_generators([(1,)]))
    t = AffineMap([[1, 0]])
    g = affine_preimage(f, t)
    h = dd_convert(motzkin_to_vpoly(g))
    assert h.contains(vec((3, -17)))
    assert h.contains(vec((0, 5)))
    assert not h.contains(vec((-1, 0)))


def test_preimage_of_interval_under_sum_map():
    # T(x) = x1 + x2, F = [0, 1]: the preimage is the slab 0 <= x1 + x2 <= 1
    f = MotzkinSet(PolytopeK([(0,), (1,)]), PolyCone((), 1))
    t = AffineMap([[1, 1]])
    g = affine_preimage(f, t)
    h = dd_convert(motzkin_to_vpoly(g))
    rng = random.Random(11)
    for _ in range(200):
        x = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
        assert h.contains(x) == (0 <= x[0] + x[1] <= 1)
    # the slab decomposes as a segment plus the line x1 + x2 = 0
    assert any(dot(g1, vec((1, 1))) == 0 for g1 in g.cone.generators)


def test_preimage_classification_preserved():
    f = MotzkinSet(unit_square(), orthant())
    t = AffineMap([[1, 0, 0], [0, 1, 1]])
    g = affine_preimage(f, t)
    assert classify_fw(f).label == "FW"
    assert classify_fw(g).label == "FW"


def test_image_classification_preserved():
    f = MotzkinSet(unit_square(), orthant())
    t = AffineMap([[1, 1]])
    g = affine_image(f, t)
    assert classify_fw(g).label == "FW"


def test_empty_preimage_raises():
    # T maps into the x-axis; a set living strictly above it has no preimage
    f = MotzkinSet(PolytopeK([(0, 2)]), PolyCone((), 2))
    t = AffineMap([[1], [0]])
    with pytest.raises(EmptySetError):
        affine_preimage(f, t)


def diagonal_intersection(f1, f2):
    """F1 ∩ F2 as the projection of (F1 x F2) ∩ {(x, x)}: the reference."""
    n = f1.dim
    diag = subspace([unit(n, i) + unit(n, i) for i in range(n)], 2 * n)
    inter = intersect_subspace_motzkin(product(f1, f2), diag)
    return affine_image(inter, AffineMap([unit(2 * n, i) for i in range(n)]))


def section_preimage(f, t):
    """T^{-1}(F) as the restricted inverse of (F - t0) ∩ range(M) on the
    complement of ker(M), plus ker(M): the reference."""
    shifted = MotzkinSet(
        PolytopeK(tuple(vsub(p, t.offset) for p in f.compact.vertices), f.dim), f.cone
    )
    restricted = intersect_subspace_motzkin(shifted, subspace(zip(*t.matrix), f.dim))
    ker = kernel_basis(t.matrix, ncols=t.source_dim)

    def lift(y):
        return solve(t.matrix + tuple(ker), tuple(y) + zeros(len(ker)))

    gens = [g for g in map(lift, restricted.cone.generators) if any(g)]
    cone = PolyCone.from_generators(gens, t.source_dim) if gens else PolyCone((), t.source_dim)
    pre = MotzkinSet(PolytopeK(tuple(map(lift, restricted.compact.vertices)), t.source_dim), cone)
    return sum_with_subspace(pre, ker)


def seeded_motzkin(rng, n):
    pts = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    gens = [tuple(F(rng.randint(-1, 1)) for _ in range(n)) for _ in range(rng.randint(0, 2))]
    gens = [g for g in gens if any(g)]
    cone = PolyCone.from_generators(gens, n) if gens else PolyCone((), n)
    return MotzkinSet(PolytopeK(pts), cone)


def agree_or_both_empty(new, old, rng, n):
    """Both calls raise EmptySetError, or their results agree on 30 seeded
    points of R^n; True when they answered."""
    try:
        expected = old()
    except EmptySetError:
        with pytest.raises(EmptySetError):
            new()
        return False
    got = new()
    h_got, h_expected = members(got), members(expected)
    for _ in range(30):
        x = tuple(F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
        assert h_got.contains(x) == h_expected.contains(x)
    return True


def test_inequality_paths_match_the_section_constructions():
    rng = random.Random(41)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(1, 3)
        f1, f2 = seeded_motzkin(rng, n), seeded_motzkin(rng, n)
        answered = agree_or_both_empty(
            lambda: intersect_fwm(f1, f2), lambda: diagonal_intersection(f1, f2), rng, n
        )
        outcomes.add(("intersect", answered))
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = seeded_motzkin(rng, m)
        t = AffineMap(
            [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)],
            [rng.randint(-1, 1) for _ in range(m)],
        )
        answered = agree_or_both_empty(
            lambda: affine_preimage(f, t), lambda: section_preimage(f, t), rng, n
        )
        outcomes.add(("preimage", answered))
    # the seed reaches both outcomes of both operations
    assert len(outcomes) == 4


def test_intersection_in_r6_and_preimage_into_r12_answer():
    n = 6
    corners = itertools.product((0, 2), repeat=n)
    box = MotzkinSet(PolytopeK(corners), PolyCone((), n))
    g = intersect_fwm(box, MotzkinSet(PolytopeK([(1,) * n]), orthant(n)))
    assert set(g.compact.vertices) == set(vec(v) for v in itertools.product((1, 2), repeat=n))
    assert not g.cone.generators

    # T^{-1}(F) is the set P when P maps into F, T(P) covers F, and P
    # contains every line of ker(M)
    f = MotzkinSet(unit_square(), orthant())
    rng = random.Random(7)
    t = AffineMap([[rng.randint(-2, 2) for _ in range(12)] for _ in range(2)], [1, -1])
    pre = affine_preimage(f, t)
    hf = members(f)
    assert all(hf.contains(t.apply(v)) for v in pre.compact.vertices)
    assert all(f.cone.contains(matvec(t.matrix, g)) for g in pre.cone.generators)
    image = members(affine_image(pre, t))
    for _ in range(50):
        y = (F(rng.randint(-2, 8), 2), F(rng.randint(-2, 8), 2))
        assert image.contains(y) == hf.contains(y)
    gens = set(pre.cone.generators)
    for k in kernel_basis(t.matrix, ncols=12):
        assert {primitive(k), primitive(vscale(-1, k))} <= gens


# ---------------------------------------------------------------------------
# order cancellation
# ---------------------------------------------------------------------------


def test_cancellation_equal_sets():
    a = VPolyhedron([(0, 0), (1, 0)])
    k = VPolyhedron([(0, 0), (0, 1)])
    both = order_cancellation_check(a, a, k)
    assert both == (True, True)


def test_cancellation_interval_example():
    a = VPolyhedron([(0,), (2,)])
    b = VPolyhedron([(0,), (1,)])
    k = VPolyhedron([(0,), (1,)])
    sums, bases = order_cancellation_check(a, b, k)
    assert sums is False and bases is False


def test_cancellation_law_has_no_violations():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = VPolyhedron(
            [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        )
        b = VPolyhedron(
            [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        )
        k = VPolyhedron(
            [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        )
        sums, bases = order_cancellation_check(a, b, k)
        if sums:
            assert bases


# The sums, inclusions and sections as they were written in Fractions,
# before they ran on the integer generators.


def _reference_minkowski_sum(p, q):
    if p.is_empty or q.is_empty:
        return VPolyhedron((), (), (), p.dim)
    vertices = tuple(dict.fromkeys(vadd(v, w) for v in p.vertices for w in q.vertices))
    rays = tuple(dict.fromkeys(tuple(primitive(r) for r in p.rays + q.rays)))
    lin = tuple(basis_of_span(p.lineality + q.lineality, p.dim))
    return VPolyhedron(vertices, rays, lin, p.dim)


def _reference_subset(inner, outer):
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


def _reference_cancellation(a, b, k):
    if k.rays or k.lineality:
        raise UnsupportedKindError("the cancellation summand must be a polytope")
    sum_a = _reference_minkowski_sum(a, k)
    sum_b = _reference_minkowski_sum(b, k)
    return _reference_subset(sum_a, sum_b), _reference_subset(a, b)


def _reference_section(f, l):
    """The section and its kept rows."""
    (h,) = polyhedral_forms(f)
    eq_rows = tuple(r for row in l.a for r in (row, vscale(-ONE, row)))
    eq_rhs = tuple(v for rhs in l.b for v in (rhs, -rhs))
    section = decompose(HPolyhedron(h.a + eq_rows, h.b + eq_rhs, f.dim))
    expected = PolyCone.from_halfspaces(f.cone.halfspaces + eq_rows, f.dim)
    assert all(map(expected.contains, section.cone.generators))
    assert all(map(section.cone.contains, expected.generators))
    return MotzkinSet(section.compact, expected), section.hform


def _outcome(call, *args):
    """What a call returns, or the type and certificate of what it raises."""
    try:
        return call(*args)
    except (EmptySetError, UnsupportedKindError) as exc:
        return type(exc), getattr(exc, "certificate", None)


def _rational(rng, lo, hi):
    return F(rng.randint(lo * 6, hi * 6), rng.choice((1, 1, 2, 3, 6)))


def _seeded_vpolyhedron(rng, n, vertices=True):
    """Rational vertices (none: the empty V-form), and now and then rays
    and lines."""
    def vectors(count, lo, hi, den):
        return [tuple(F(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)) for _ in range(count)]

    pts = [tuple(_rational(rng, -2, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    rays = vectors(rng.randint(0, 2), -2, 2, 3)
    lin = vectors(rng.randint(0, 1), -1, 1, 2)
    rays = [r for r in rays if any(r)] if rng.random() < 0.4 else []
    lin = [v for v in lin if any(v)] if rng.random() < 0.25 else []
    return VPolyhedron(pts if vertices else (), rays, lin, n)


def _wider(rng, v):
    """v with a point, a ray or a line more, or v itself."""
    n, pts, rays, lin = v.dim, list(v.vertices), list(v.rays), list(v.lineality)
    extra = tuple(_rational(rng, -2, 2) for _ in range(n))
    choice = rng.randrange(4)
    if choice == 0 or (pts and choice == 3):
        pts.append(extra)
    elif any(extra) and choice == 1:
        rays.append(extra)
    elif any(extra) and choice == 2:
        lin.append(extra)
    return VPolyhedron(pts, rays, lin, n)


def test_integer_sums_and_sections_match_the_fraction_forms():
    # order_cancellation_check, minkowski_sum and intersect_subspace_motzkin
    # give the values, refusals and kept rows of the forms written in
    # Fractions, on rational vertices, rays, lines and empty V-forms
    rng = random.Random(20261022)
    seen = {"sums in": 0, "bases in": 0, "empty": 0, "lines": 0,
            "refused": 0, "sections": 0, "sections empty": 0}
    for _ in range(700):
        n = rng.randint(1, 4)
        a = _seeded_vpolyhedron(rng, n, rng.random() > 0.08)
        b = _wider(rng, a) if rng.random() < 0.4 else _seeded_vpolyhedron(rng, n, rng.random() > 0.08)
        k = _seeded_vpolyhedron(rng, n, rng.random() > 0.05)
        if rng.random() < 0.9:
            k = VPolyhedron(k.vertices, (), (), n)
        for p, q in ((a, k), (b, k), (a, b)):
            got = minkowski_sum(p, q)
            assert got == _reference_minkowski_sum(p, q), (p, q)
            assert all(type(x) is F for v in got.vertices + got.rays + got.lineality for x in v)
        got = _outcome(order_cancellation_check, a, b, k)
        assert got == _outcome(_reference_cancellation, a, b, k), (a, b, k)
        if got[0] is UnsupportedKindError:
            seen["refused"] += 1
            continue
        sums, bases = got
        seen["sums in"] += sums
        seen["bases in"] += bases
        # the law: A + K in B + K forces A in B when A and K are nonempty
        assert bases or not sums or a.is_empty or k.is_empty
        seen["empty"] += a.is_empty or b.is_empty or k.is_empty
        seen["lines"] += bool(a.lineality or b.lineality)
    for _ in range(300):
        n = rng.randint(1, 4)
        v = _seeded_vpolyhedron(rng, n)
        f = MotzkinSet(PolytopeK(v.vertices), PolyCone.from_generators(v.rays + v.lineality, n))
        basis = [
            tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
            for _ in range(rng.randint(1, n))
        ]
        if rng.random() < 0.5:
            basis[0] = v.vertices[0] if any(v.vertices[0]) else basis[0]
        l = subspace(basis, n)
        got = _outcome(intersect_subspace_motzkin, f, l)
        ref = _outcome(_reference_section, f, l)
        if isinstance(got, MotzkinSet):
            assert (got, got.hform) == ref, (f, l)
            seen["sections"] += 1
        else:
            assert got == ref, (f, l)
            seen["sections empty"] += 1
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# unions
# ---------------------------------------------------------------------------


def test_union_minimization_takes_best_member():
    sq1 = MotzkinSet(unit_square(), PolyCone((), 2))
    shifted = MotzkinSet(
        PolytopeK([(3, 0), (4, 0), (3, 1), (4, 1)]), PolyCone((), 2)
    )
    u = union_set([sq1, shifted])
    q = Quadratic.build([[0, 0], [0, 0]], [-1, 0])  # minimize -x1
    v = minimize_on_descriptor(q, u)
    assert v.kind == "attained"
    assert v.value == -4


def test_union_classification():
    sq = MotzkinSet(unit_square(), PolyCone((), 2))
    u = union_set([sq, sq])
    assert classify_fw_set(u).label == "FW"
    from fwsets.motzkin import SecondOrderCone

    bad = MotzkinSet(
        PolytopeK([(0, 0, 0)]), SecondOrderCone(3, (0, 0, 1), F(1, 2))
    )
    sq3 = MotzkinSet(PolytopeK([(0, 0, 0)]), PolyCone((), 3))
    u2 = union_set([sq3, bad])
    assert classify_fw_set(u2).label == "Unknown"


def test_singleton_union_matches_member():
    sq = MotzkinSet(unit_square(), PolyCone((), 2))
    u = union_set([sq])
    q = Quadratic.build([[2, 0], [0, 2]], [0, 0], 0)
    direct = minimize_on_descriptor(q, sq)
    through_union = minimize_on_descriptor(q, u)
    assert direct.value == through_union.value
