"""Versioned JSON documents for sets, quadratics, maps, and manifolds: the
one checker that reads them, and the writer that reads the same table.

A document is ``{"version": "1", "kind": <kind>, "payload": {...}}`` with
rationals serialized as strings like ``"3/4"`` (plain integers are accepted
on input), matrices as row-major arrays, and nested set nodes carrying their
own ``kind`` tag.  Unknown fields are rejected so stale or misspelled
documents fail loudly; parse errors carry line/column (JSON level) or a
dotted field path (semantic level).  A ``vpolyhedron`` set node is read as
its Motzkin set (:func:`motzkin.vpoly_to_motzkin`); one without a vertex
raises EmptySetError.

The checker is two tables.  ``FIELDS`` maps every field name to its parser,
and an object's fields are parsed in that table's order.  ``KINDS`` maps
every kind (top-level documents, set nodes, compact parts and cones) to its
builder and its required and optional fields.  The gallery's case files are
read by the same combinators: :mod:`fwsets.gallery` adds its fields to
``FIELDS``.

``KINDS`` works both ways: :func:`serialize` writes a value of a kind as the
fields ``KINDS`` lists for it, each from the value's attribute of that name,
so every kind that :func:`parse` reads is also written.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache, partial

from .affine import AffineManifold, AffineMap, subspace
from .asymptotes import (
    AffineImageSet,
    Epigraph1D,
    IntersectionSet,
    ProductSet,
    QuadSublevel,
    UnionSet,
    ambient_dim,
)
from .errors import DocumentError
from .motzkin import (
    Ball,
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    SecondOrderCone,
    vpoly_to_motzkin,
)
from .polyhedra import HPolyhedron, PolyCone, VPolyhedron
from .quadratics import Quadratic

SET_KINDS = (
    "hpolyhedron",
    "vpolyhedron",
    "motzkin",
    "quad_sublevel",
    "epigraph",
    "product",
    "union",
    "intersection",
    "affine_image",
)
DOCUMENT_KINDS = (*SET_KINDS, "quadratic", "cone", "second_order_cone", "affine_map", "manifold", "subspace")


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_vector(v) -> list:
    return [format_rational(x) for x in v]


# ---------------------------------------------------------------------------
# combinators: a parser ``(raw, path, ctx) -> value`` raises DocumentError at
# ``path``; ``ctx`` is the outermost record, for fields that name its parts
# ---------------------------------------------------------------------------


def _expect(raw, kind, path, what):
    if type(raw) is not kind:
        raise DocumentError(f"expected {what}", path=path)
    return raw


def typed(kind, what):
    return lambda raw, path, ctx: _expect(raw, kind, path, what)


def rational(raw, path, ctx=None) -> Fraction:
    """A rational: an integer, or a string of an optional sign, ASCII digits
    and an optional ``/`` with ASCII digits, such as ``"-3/4"``, each part
    read by ``int()``.  Anything else (spaces, underscores, decimals,
    exponents, other digits) is refused the same way on every Python."""
    if type(raw) is str:
        match = _RATIONAL.fullmatch(raw)
        if match is None:
            raise DocumentError(
                f"bad rational {raw!r}: expected an optional sign, ASCII digits and an optional /digits",
                path=path,
            )
        num, den = match.groups()
        try:  # int() refuses more digits than its limit, Fraction a zero denominator
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational {raw!r}: {exc}", path=path) from None
    if type(raw) is int:
        return Fraction(raw)
    got = "a boolean" if type(raw) is bool else type(raw).__name__
    raise DocumentError(f"expected a rational, got {got}", path=path)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def array(item):
    def parse(raw, path, ctx):
        return tuple([item(v, f"{path}[{i}]", ctx) for i, v in enumerate(_expect(raw, list, path, "an array"))])

    return parse


def mapping(item):
    return lambda raw, path, ctx: {
        k: item(v, f"{path}.{k}", ctx) for k, v in _expect(raw, dict, path, "an object").items()
    }


def choice(table):
    def parse(raw, path, ctx):
        if isinstance(raw, (bool, list, dict)) or raw not in table:
            raise DocumentError(f"expected one of {sorted(table)}", path=path)
        return table[raw]

    return parse


@cache
def _shape(required, optional):
    names = (*required, *optional)
    return tuple(sorted(names, key=list(FIELDS).index)), frozenset(names)


def parse_record(raw, path, ctx, required, optional=()) -> dict:
    """An object's fields, each parsed by its name in ``FIELDS``, in that
    table's order.  The parsers see ``ctx``, or else the record itself."""
    _expect(raw, dict, path, "an object")
    order, allowed = _shape(required, optional)
    if missing := sorted(k for k in required if k not in raw):
        raise DocumentError(f"missing fields {missing}", path=path)
    if not allowed.issuperset(raw):
        raise DocumentError(f"unknown fields {sorted(set(raw) - allowed)}", path=path)
    out = {}
    for key in order:
        if key in raw:
            out[key] = FIELDS[key](raw[key], f"{path}.{key}", out if ctx is None else ctx)
    return out


def record(required, optional=()):
    return lambda raw, path, ctx: parse_record(raw, path, ctx, required, optional)


def build(kind, raw, path, ctx=None, tag=()):
    """The value of ``kind`` read from the object ``raw``: its fields
    checked and parsed, then its builder in ``KINDS``, whose errors are
    reported at ``path``.  ``tag`` is ``("kind",)`` for a node that names
    its own kind."""
    builder, required, optional = KINDS[kind]
    fields = parse_record(raw, path, ctx, required, (*optional, *tag))
    fields.pop("kind", None)
    try:
        value = builder(**fields)
    except Exception as exc:  # the data is outside input: what it breaks is its defect
        raise DocumentError(str(exc), path=path) from None
    # outside the relabelling: a V-form without a vertex is empty, not malformed
    return vpoly_to_motzkin(value, "the V-form has no vertex") if isinstance(value, VPolyhedron) else value


def tagged(*kinds):
    """A node ``{"kind": <one of kinds>, ...}``, built by its kind."""

    def parse(raw, path, ctx):
        kind = raw.get("kind") if type(raw) is dict else None
        if type(kind) is not str or kind not in kinds:
            raise DocumentError(f"expected an object whose kind is one of {sorted(kinds)}", path=path)
        return build(kind, raw, path, ctx, ("kind",))

    return parse


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------


def _dim(raw, path, ctx):
    """A dimension: an integer of at least 1 (null stands for none)."""
    if raw is not None and (type(raw) is not int or raw < 1):
        raise DocumentError(f"expected an integer dimension >= 1, got {raw!r}", path=path)
    return raw


def _sets(raw, path, ctx):
    sets = array(_set_node)(raw, path, ctx)
    if not sets:
        raise DocumentError("expected a nonempty array of sets", path=path)
    return sets


def _members(raw, path, ctx):
    members = _sets(raw, path, ctx)
    if len({ambient_dim(m) for m in members}) > 1:
        raise DocumentError("members live in different dimensions", path=path)
    return members


rationals = array(rational)
_matrix = array(rationals)
_set_node = tagged(*SET_KINDS)
# every field and its parser; a record parses its fields in this order, so
# an error in a row is reported before one in the dim that follows it
FIELDS = {
    "version": choice({"1": "1"}),
    "payload": typed(dict, "an object"),
    "kind": typed(str, "a string"),
    **dict.fromkeys(("matrix", "rows", "vertices", "rays", "lineality", "generators", "points"), _matrix),
    **dict.fromkeys(("linear", "rhs", "point", "center", "offset"), rationals),
    "basis": _matrix,
    "dim": _dim,
    "axis": rationals,
    **dict.fromkeys(("constant", "aperture", "radius"), rational),
    "compact": tagged("polytope", "points", "ball"),
    "cone": tagged("polyhedral", "second_order"),
    "base": _set_node,
    "constraints": array(partial(build, "quadratic")),
    "sample_point": rationals,
    "function": lambda raw, path, ctx: raw,
    "factors": _sets,
    "members": _members,
    "map": partial(build, "affine_map"),
    "inner": _set_node,
}
# kind: (builder, required fields, optional fields)
KINDS = {
    "quadratic": (
        lambda matrix, linear=None, constant=0: Quadratic.build(matrix, linear, constant),
        ("matrix",),
        ("linear", "constant"),
    ),
    "hpolyhedron": (lambda rows, rhs, dim=None: HPolyhedron(rows, rhs, dim), ("rows", "rhs"), ("dim",)),
    "vpolyhedron": (VPolyhedron, ("vertices",), ("rays", "lineality", "dim")),
    "motzkin": (MotzkinSet, ("compact", "cone"), ()),
    "quad_sublevel": (QuadSublevel, ("base", "constraints"), ("sample_point",)),
    "epigraph": (Epigraph1D, ("function",), ()),
    "product": (ProductSet, ("factors",), ()),
    "union": (UnionSet, ("members",), ()),
    "intersection": (IntersectionSet, ("members",), ()),
    "affine_image": (AffineImageSet, ("map", "inner"), ()),
    "polytope": (PolytopeK, ("vertices",), ()),
    "points": (FinitePointSet, ("points",), ()),
    "ball": (Ball, ("center", "radius"), ()),
    "polyhedral": (PolyCone.from_generators, ("generators",), ("dim",)),
    "second_order": (SecondOrderCone, ("dim", "axis", "aperture"), ()),
    "affine_map": (AffineMap, ("matrix",), ("offset",)),
    "manifold": (lambda rows, rhs: AffineManifold.from_equations(rows, rhs), ("rows", "rhs"), ()),
    "manifold_basis": (AffineManifold, ("point", "basis"), ()),
    "subspace": (subspace, ("basis",), ("dim",)),
}
KINDS["cone"], KINDS["second_order_cone"] = KINDS["polyhedral"], KINDS["second_order"]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def parse(text: str, kinds=DOCUMENT_KINDS):
    """Parse a document whose kind is one of ``kinds``; returns (kind, value)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, line=exc.lineno, column=exc.colno) from None
    return parse_document(raw, kinds=kinds)


def parse_document(raw, path: str = "$", kinds=DOCUMENT_KINDS):
    """Parse an already decoded document found at ``path`` whose kind is one
    of ``kinds``; returns (kind, value).  Semantic errors carry paths below
    ``path``."""
    doc = parse_record(raw, path, None, ("version", "kind", "payload"))
    kind, payload = doc["kind"], doc["payload"]
    if kind not in kinds:
        raise DocumentError(f"expected one of {sorted(kinds)}, got {kind!r}", path=f"{path}.kind")
    # a manifold is given by its equations, or else by a point and a basis
    form = "manifold_basis" if kind == "manifold" and "rows" not in payload else kind
    return kind, build(form, payload, f"{path}.payload")


def serialize(kind: str, value) -> str:
    """Canonical text of a document, which :func:`parse` reads back: a
    vpolyhedron as its Motzkin set, a manifold by its equations."""
    if kind not in DOCUMENT_KINDS:
        raise DocumentError(f"cannot serialize kind {kind!r}")
    doc = {"version": "1", "kind": kind, "payload": payload_of(kind, value)}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


# the attribute a field is written from, where it is not the field's name
_ATTRIBUTES = {
    "quadratic": {"matrix": "a", "linear": "b", "constant": "c"},
    **dict.fromkeys(("hpolyhedron", "manifold"), {"rows": "a", "rhs": "b"}),
}
# the kind a value in a field is written as: a node names it, a quadratic or
# a map does not, as "constraints" and "map" are read
_NODE_KINDS = {
    HPolyhedron: "hpolyhedron", MotzkinSet: "motzkin", QuadSublevel: "quad_sublevel", Epigraph1D: "epigraph",
    ProductSet: "product", UnionSet: "union", IntersectionSet: "intersection", AffineImageSet: "affine_image",
    PolytopeK: "polytope", FinitePointSet: "points", Ball: "ball",
    PolyCone: "polyhedral", SecondOrderCone: "second_order",
}
_UNTAGGED_KINDS = {Quadratic: "quadratic", AffineMap: "affine_map"}


def payload_of(kind, value) -> dict:
    """The JSON-ready ``payload`` of ``value`` as a document of ``kind``:
    every field ``KINDS`` lists for the kind, from the value's attribute of
    that name (or the one ``_ATTRIBUTES`` names), except a field whose value
    is None."""
    _, required, optional = KINDS[kind]
    attribute = _ATTRIBUTES.get(kind, {})
    fields = {name: getattr(value, attribute.get(name, name)) for name in (*required, *optional)}
    return {name: _json(v) for name, v in fields.items() if v is not None}


def _json(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if kind := _UNTAGGED_KINDS.get(type(value)):
        return payload_of(kind, value)
    if kind := _NODE_KINDS.get(type(value)):
        return {"kind": kind, **payload_of(kind, value)}
    return value
