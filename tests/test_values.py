"""Every public value is canonical at construction.

Each value kind is built twice: from tuples of Fractions, and from lists
whose rationals are written, in turn, as ints, strings like ``"3/4"`` and
Fractions.  The two builds are equal, hash alike and get the same verdicts.
An entry that is not a rational, a float included, is refused with a
FwsetsError.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from fwsets.affine import AffineManifold, AffineMap
from fwsets.asymptotes import (
    AffineImageSet,
    IntersectionSet,
    ProductSet,
    QuadSublevel,
    UnionSet,
    ambient_dim,
    classify,
)
from fwsets.errors import DimensionMismatchError, EmptySetError, FwsetsError
from fwsets.linalg import identity, mat, vec
from fwsets.motzkin import (
    Ball,
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    SecondOrderCone,
    decompose,
    minimize_on_motzkin,
    vpoly_to_motzkin,
)
from fwsets.polyhedra import HPolyhedron, PolyCone, VPolyhedron
from fwsets.quadratics import Quadratic
from fwsets.setops import minimize_on_descriptor

F = Fraction


def tuples(x):
    """``x`` with every int a Fraction: the canonical spelling."""
    if isinstance(x, tuple):
        return tuple(tuples(v) for v in x)
    return F(x) if isinstance(x, int) else x


def lists(x, turn=None):
    """``x`` with every tuple a list and its rationals written, in turn, as
    an int (when whole), a string like ``"3/4"`` and a Fraction."""
    turn = [0] if turn is None else turn
    if isinstance(x, tuple):
        return [lists(v, turn) for v in x]
    if not isinstance(x, (int, Fraction)):
        return x
    x = F(x)
    turn[0] += 1
    if turn[0] % 3 == 1:
        return x.numerator if x.denominator == 1 else str(x)
    return str(x) if turn[0] % 3 == 2 else x


def spoiled(bad):
    """The list spelling, with the first rational entry replaced by ``bad``."""
    left = [True]

    def spell(x):
        if isinstance(x, tuple):
            return [spell(v) for v in x]
        if isinstance(x, (int, Fraction)) and left:
            left.clear()
            return bad
        return lists(x)

    return spell


TRIANGLE = ((-1, 0), (0, -1), (1, 1)), (0, 0, F(3, 2))


def triangle(s):
    return HPolyhedron(s(TRIANGLE[0]), s(TRIANGLE[1]))


def polytope(s):
    return PolytopeK(s(((0, 0), (1, 0), (0, F(1, 2)))))


def quad_sublevel(s):
    # y >= x^2 over the upper half plane, with a member as its sample point
    parabola = Quadratic(s(((2, 0), (0, 0))), s((0, -1)), s(0))
    return QuadSublevel(HPolyhedron(s(((0, -1),)), s((0,))), s((parabola,)), s((F(1, 2), 1)))


# kind: the value built with a spelling s of its data
BUILDERS = {
    "hpolyhedron": triangle,
    "vpolyhedron": lambda s: VPolyhedron(s(((0, 0), (1, F(1, 2)))), s(((1, 0),)), s(())),
    "polycone": lambda s: PolyCone(s(((1, 0), (1, 1))), 2),
    "quadratic": lambda s: Quadratic(s(((2, 1), (1, 2))), s((-1, F(3, 4))), s(F(1, 2))),
    "affine_map": lambda s: AffineMap(s(((1, 0), (1, 1))), s((F(1, 2), 0))),
    "affine_map_no_offset": lambda s: AffineMap(s(((1, 0), (1, 1)))),
    "affine_manifold": lambda s: AffineManifold(s((1, 0)), s(((1, -1),))),
    "polytope": polytope,
    "points": lambda s: FinitePointSet(s(((0, 0), (F(3, 4), 1)))),
    "ball": lambda s: Ball(s((1, 0)), s(F(3, 2))),
    "second_order": lambda s: SecondOrderCone(3, s((0, 0, 1)), s(F(1, 2))),
    "motzkin": lambda s: MotzkinSet(polytope(s), PolyCone(s(((1, 0),)), 2)),
    "quad_sublevel": quad_sublevel,
    "product": lambda s: ProductSet(s((triangle(s), MotzkinSet(Ball(s((0,)), s(1)), PolyCone(s(((1,),)), 1))))),
    "intersection": lambda s: IntersectionSet(s((triangle(s), HPolyhedron(s(((1, -1),)), s((0,)))))),
    "union": lambda s: UnionSet(s((triangle(s), MotzkinSet(polytope(s), PolyCone(s(((0, 1),)), 2))))),
}

RAY = PolyCone(((F(1), F(0)),), 2)


def as_set(value):
    """A set descriptor the value is, or takes part in."""
    if isinstance(value, VPolyhedron):
        return vpoly_to_motzkin(value, "no vertex")
    if isinstance(value, PolyCone):
        return MotzkinSet(PolytopeK(((F(0), F(0)),)), value)
    if isinstance(value, SecondOrderCone):
        return MotzkinSet(PolytopeK((tuples((0, 0, 0)),)), value)
    if isinstance(value, (PolytopeK, FinitePointSet, Ball)):
        return MotzkinSet(value, RAY)
    if isinstance(value, AffineMap):
        return AffineImageSet(value, triangle(tuples))
    if isinstance(value, AffineManifold):
        return HPolyhedron(*value.inequalities())
    if isinstance(value, Quadratic):
        return triangle(tuples)
    return value


def verdicts(value):
    """The labels of the value's set and the minimum of a quadratic on it:
    the value itself when it is one, else ``|x|^2 - x_1``."""
    f = as_set(value)
    n = ambient_dim(f)
    q = value if isinstance(value, Quadratic) else Quadratic.build(identity(n), (-1,) + (0,) * (n - 1))
    return classify(f), minimize_on_descriptor(q, f)


def is_canonical(value) -> bool:
    """Whether every field but ``dim`` holds Fractions, values or None, in
    tuples at any depth."""

    def ok(x):
        if isinstance(x, tuple):
            return all(map(ok, x))
        if dataclasses.is_dataclass(x):
            return is_canonical(x)
        return x is None or type(x) is Fraction

    return all(f.name == "dim" or ok(getattr(value, f.name)) for f in dataclasses.fields(value))


@pytest.mark.parametrize("kind", BUILDERS)
def test_a_value_built_from_lists_is_the_value_built_from_tuples(kind):
    from_tuples, from_lists = BUILDERS[kind](tuples), BUILDERS[kind](lists)
    assert is_canonical(from_lists) and is_canonical(from_tuples)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert verdicts(from_lists) == verdicts(from_tuples)


@pytest.mark.parametrize("bad", [None, "x", True, [1], 0.1], ids=["none", "word", "bool", "nested", "float"])
@pytest.mark.parametrize("kind", BUILDERS)
def test_an_entry_that_is_not_a_rational_is_refused(kind, bad):
    with pytest.raises(FwsetsError):
        BUILDERS[kind](spoiled(bad))


def test_list_built_values_decompose_hash_and_keep_exact_fields():
    h = HPolyhedron([[-1, 0], [0, -1]], [0, 0], 2)
    orthant = HPolyhedron(tuples(((-1, 0), (0, -1))), tuples((0, 0)), 2)
    assert decompose(h) == decompose(orthant) and hash(h) == hash(orthant)
    q = Quadratic([[1, 0], [0, 1]], [0, 0], 0)
    assert q == Quadratic.build([[1, 0], [0, 1]]) and hash(q) == hash(Quadratic.build([[1, 0], [0, 1]]))
    ball = Ball((0, 0), "3/2")
    assert type(ball.radius) is Fraction and ball.radius == F(3, 2)


def test_a_canonical_field_is_kept_as_it_is():
    rows = tuples(((-1, 0), (0, -1)))
    rhs = tuples((0, 0))
    assert vec(rhs) is rhs and mat(rows) is rows
    h = HPolyhedron(rows, rhs)
    assert h.a is rows and h.b is rhs and h.dim == 2


def test_a_hyperplane_has_the_fields_its_equation_gives():
    # seeded normals, zero entries and a zero normal included: the hyperplane
    # has all five fields of from_equations
    rng = random.Random(20261020)
    zero_entries = 0
    for _ in range(1500):
        n = rng.randint(1, 5)
        normal = [F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) if rng.random() < 0.7 else 0
                  for _ in range(n)]
        value = F(rng.randint(-5, 5), rng.choice((1, 2, 7))) if any(normal) else 0
        got = AffineManifold.hyperplane(normal, value)
        ref = AffineManifold.from_equations((normal,), (value,))
        assert (got.a, got.b, got.point, got.basis, got.dim) == (
            ref.a, ref.b, ref.point, ref.basis, ref.dim
        ), (normal, value)
        assert is_canonical(got)
        zero_entries += 0 in normal
    assert zero_entries >= 500


@pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]]], ids=["wide", "tall"])
def test_a_quadratic_of_a_non_square_matrix_is_refused(matrix):
    # neither read as its leading square block nor indexed past a row's end
    with pytest.raises(DimensionMismatchError):
        Quadratic.build(matrix)


def test_a_compound_set_checks_its_members_at_construction():
    # no members at all, or a union or an intersection of a plane and a
    # space, is refused; a product of the two lives in R^5
    plane = HPolyhedron(((-1, 0),), (0,))
    space = HPolyhedron(((-1, 0, 0),), (0,))
    for build in (
        lambda: UnionSet(()),
        lambda: IntersectionSet([]),
        lambda: ProductSet(()),
        lambda: UnionSet((plane, space)),
        lambda: IntersectionSet([plane, space]),
    ):
        with pytest.raises(DimensionMismatchError):
            build()
    assert ambient_dim(ProductSet((plane, space))) == 5


def test_an_empty_compact_part_is_refused_at_construction():
    # a polytope or a point set with no point, given its dimension, is an
    # empty set, refused before a verdict is asked of it; without the
    # dimension there is nothing to measure it by
    for kind in (PolytopeK, FinitePointSet):
        with pytest.raises(EmptySetError):
            kind((), 2)
        with pytest.raises(DimensionMismatchError):
            kind(())
    q = Quadratic.build(identity(2))
    point = MotzkinSet(FinitePointSet([(1, 2)]), PolyCone((), 2))
    assert minimize_on_motzkin(q, point).value == Fraction(5, 2)
