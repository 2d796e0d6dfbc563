"""Versioned JSON documents for sets, quadratics, maps, and manifolds.

A document is ``{"version": "1", "kind": <kind>, "payload": {...}}`` with
rationals serialized as strings like ``"3/4"`` (plain integers are accepted
on input), matrices as row-major arrays, and nested set nodes carrying their
own ``kind`` tag.  Unknown fields are rejected so stale or misspelled
documents fail loudly; parse errors carry line/column (JSON level) or a
dotted field path (semantic level).  A ``vpolyhedron`` set node is read as
its Motzkin set (:func:`motzkin.vpoly_to_motzkin`); one without a vertex
raises EmptySetError.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

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
from .linalg import Vec, vec
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


def parse_rational(raw, path: str) -> Fraction:
    if isinstance(raw, bool):
        raise DocumentError(f"expected a rational, got a boolean", path=path)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational {raw!r}: {exc}", path=path) from None
        return value
    raise DocumentError(f"expected a rational, got {type(raw).__name__}", path=path)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _parse_vector(raw, path) -> Vec:
    if not isinstance(raw, list):
        raise DocumentError("expected an array of rationals", path=path)
    return tuple(parse_rational(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _parse_matrix(raw, path):
    if not isinstance(raw, list):
        raise DocumentError("expected an array of rows", path=path)
    return tuple(_parse_vector(row, f"{path}[{i}]") for i, row in enumerate(raw))


def format_vector(v) -> list:
    return [format_rational(x) for x in v]


def _format_matrix(m) -> list:
    return [format_vector(row) for row in m]


@contextmanager
def _located(path):
    """Report an error raised while building a value as a DocumentError at
    ``path``; a DocumentError passes through unchanged."""
    try:
        yield
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(str(exc), path=path) from None


def _parse_dim(payload, path) -> int | None:
    """The optional ``dim`` field: an int of at least 1 (not a bool)."""
    dim = payload.get("dim")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int) or dim < 1):
        raise DocumentError(
            f"expected an integer dimension >= 1, got {dim!r}", path=f"{path}.dim"
        )
    return dim


def _require_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", path=path)
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise DocumentError(f"missing fields {sorted(missing)}", path=path)
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise DocumentError(f"unknown fields {sorted(unknown)}", path=path)


# ---------------------------------------------------------------------------
# per-kind constructors
# ---------------------------------------------------------------------------


def _parse_quadratic(payload, path) -> Quadratic:
    _require_keys(payload, path, ("matrix",), ("linear", "constant"))
    a = _parse_matrix(payload["matrix"], f"{path}.matrix")
    b = (
        _parse_vector(payload["linear"], f"{path}.linear")
        if "linear" in payload
        else None
    )
    c = (
        parse_rational(payload["constant"], f"{path}.constant")
        if "constant" in payload
        else Fraction(0)
    )
    with _located(path):
        return Quadratic.build(a, b, c)


def _parse_hpoly(payload, path) -> HPolyhedron:
    _require_keys(payload, path, ("rows", "rhs"), ("dim",))
    rows = _parse_matrix(payload["rows"], f"{path}.rows")
    rhs = _parse_vector(payload["rhs"], f"{path}.rhs")
    dim = _parse_dim(payload, path)
    with _located(path):
        if rows:
            return HPolyhedron(rows, rhs, dim if dim is not None else len(rows[0]))
        if dim is None:
            raise DocumentError("dim required when rows are empty", path=path)
        return HPolyhedron((), (), dim)


def _parse_vpoly(payload, path) -> VPolyhedron:
    _require_keys(payload, path, ("vertices",), ("rays", "lineality", "dim"))
    vertices = _parse_matrix(payload["vertices"], f"{path}.vertices")
    rays = _parse_matrix(payload.get("rays", []), f"{path}.rays")
    lineality = _parse_matrix(payload.get("lineality", []), f"{path}.lineality")
    dim = _parse_dim(payload, path)
    if dim is None:
        groups = vertices or rays or lineality
        if not groups:
            raise DocumentError("dim required for an empty generator list", path=path)
        dim = len(groups[0])
    with _located(path):
        return VPolyhedron(vertices, rays, lineality, dim)


def _parse_cone(payload, path) -> PolyCone:
    _require_keys(payload, path, ("generators",), ("dim",))
    gens = _parse_matrix(payload["generators"], f"{path}.generators")
    dim = _parse_dim(payload, path)
    if dim is None:
        if not gens:
            raise DocumentError("dim required for the zero cone", path=path)
        dim = len(gens[0])
    with _located(path):
        return PolyCone.from_generators(gens, dim)


def _parse_soc(payload, path) -> SecondOrderCone:
    _require_keys(payload, path, ("dim", "axis", "aperture"))
    with _located(path):
        return SecondOrderCone.build(
            _parse_dim(payload, path),
            _parse_vector(payload["axis"], f"{path}.axis"),
            parse_rational(payload["aperture"], f"{path}.aperture"),
        )


def _parse_compact(payload, path):
    _require_keys(
        payload, path, ("kind",), ("vertices", "points", "center", "radius")
    )
    kind = payload["kind"]
    with _located(path):
        if kind == "polytope":
            _require_keys(payload, path, ("kind", "vertices"))
            return PolytopeK.build(_parse_matrix(payload["vertices"], f"{path}.vertices"))
        if kind == "points":
            _require_keys(payload, path, ("kind", "points"))
            return FinitePointSet.build(_parse_matrix(payload["points"], f"{path}.points"))
        if kind == "ball":
            _require_keys(payload, path, ("kind", "center", "radius"))
            return Ball.build(
                _parse_vector(payload["center"], f"{path}.center"),
                parse_rational(payload["radius"], f"{path}.radius"),
            )
    raise DocumentError(f"unknown compact kind {kind!r}", path=path)


def _parse_cone_rep(payload, path):
    _require_keys(
        payload, path, ("kind",), ("generators", "dim", "axis", "aperture")
    )
    kind = payload["kind"]
    if kind == "polyhedral":
        inner = {k: v for k, v in payload.items() if k != "kind"}
        return _parse_cone(inner, path)
    if kind == "second_order":
        inner = {k: v for k, v in payload.items() if k != "kind"}
        return _parse_soc(inner, path)
    raise DocumentError(f"unknown cone kind {kind!r}", path=path)


def _parse_motzkin(payload, path) -> MotzkinSet:
    _require_keys(payload, path, ("compact", "cone"))
    compact = _parse_compact(payload["compact"], f"{path}.compact")
    cone = _parse_cone_rep(payload["cone"], f"{path}.cone")
    with _located(path):
        return MotzkinSet(compact, cone)


def _parse_set(node, path):
    _require_keys_any(node, path)
    kind = node["kind"]
    payload = {k: v for k, v in node.items() if k != "kind"}
    if kind == "hpolyhedron":
        return _parse_hpoly(payload, path)
    if kind == "vpolyhedron":
        return vpoly_to_motzkin(_parse_vpoly(payload, path), "the V-form has no vertex")
    if kind == "motzkin":
        return _parse_motzkin(payload, path)
    if kind == "quad_sublevel":
        _require_keys(payload, path, ("base", "constraints"), ("sample_point",))
        base = _parse_set(payload["base"], f"{path}.base")
        if not isinstance(payload["constraints"], list):
            raise DocumentError("expected an array of quadratics", path=f"{path}.constraints")
        constraints = tuple(
            _parse_quadratic(c, f"{path}.constraints[{i}]")
            for i, c in enumerate(payload["constraints"])
        )
        sample = (
            vec(_parse_vector(payload["sample_point"], f"{path}.sample_point"))
            if "sample_point" in payload
            else None
        )
        with _located(path):
            return QuadSublevel(base, constraints, sample_point=sample)
    if kind == "epigraph":
        _require_keys(payload, path, ("function",))
        with _located(path):
            return Epigraph1D(payload["function"])
    if kind == "product":
        _require_keys(payload, path, ("factors",))
        return ProductSet(_parse_sets(payload["factors"], f"{path}.factors"))
    if kind in ("union", "intersection"):
        _require_keys(payload, path, ("members",))
        members = _parse_sets(payload["members"], f"{path}.members")
        if len({ambient_dim(m) for m in members}) > 1:
            raise DocumentError("members live in different dimensions", path=f"{path}.members")
        return (UnionSet if kind == "union" else IntersectionSet)(members)
    if kind == "affine_image":
        _require_keys(payload, path, ("map", "inner"))
        return AffineImageSet(
            _parse_affine_map(payload["map"], f"{path}.map"),
            _parse_set(payload["inner"], f"{path}.inner"),
        )
    raise DocumentError(f"unknown set kind {kind!r}", path=path)


def _parse_sets(raw, path) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise DocumentError("expected a nonempty array of sets", path=path)
    return tuple(_parse_set(node, f"{path}[{i}]") for i, node in enumerate(raw))


def _require_keys_any(node, path):
    if not isinstance(node, dict) or "kind" not in node:
        raise DocumentError("expected an object with a 'kind' field", path=path)


def _parse_affine_map(payload, path) -> AffineMap:
    _require_keys(payload, path, ("matrix",), ("offset",))
    m = _parse_matrix(payload["matrix"], f"{path}.matrix")
    offset = (
        _parse_vector(payload["offset"], f"{path}.offset")
        if "offset" in payload
        else None
    )
    with _located(path):
        return AffineMap.build(m, offset)


def _parse_manifold(payload, path) -> AffineManifold:
    _require_keys(payload, path, (), ("rows", "rhs", "point", "basis"))
    with _located(path):
        if "rows" in payload:
            _require_keys(payload, path, ("rows", "rhs"))
            return AffineManifold.from_equations(
                _parse_matrix(payload["rows"], f"{path}.rows"),
                _parse_vector(payload["rhs"], f"{path}.rhs"),
            )
        _require_keys(payload, path, ("point", "basis"))
        return AffineManifold.from_point_basis(
            _parse_vector(payload["point"], f"{path}.point"),
            _parse_matrix(payload["basis"], f"{path}.basis"),
        )


def _parse_subspace(payload, path) -> AffineManifold:
    _require_keys(payload, path, ("basis",), ("dim",))
    basis = _parse_matrix(payload["basis"], f"{path}.basis")
    dim = _parse_dim(payload, path)
    if dim is None:
        if not basis:
            raise DocumentError("dim required for the zero subspace", path=path)
        dim = len(basis[0])
    with _located(path):
        return subspace(basis, dim)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def parse(text: str):
    """Parse a document; returns (kind, value)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, line=exc.lineno, column=exc.colno) from None
    return parse_document(raw)


def parse_document(raw, path: str = "$"):
    """Parse an already decoded document found at ``path``; returns (kind,
    value).  Semantic errors carry paths below ``path``."""
    _require_keys(raw, path, ("version", "kind", "payload"))
    if raw["version"] != "1":
        raise DocumentError(f"unsupported version {raw['version']!r}", path=f"{path}.version")
    kind = raw["kind"]
    payload = raw["payload"]
    at = f"{path}.payload"
    if not isinstance(payload, dict):
        raise DocumentError("expected an object", path=at)
    if kind in SET_KINDS:
        return kind, _parse_set({**payload, "kind": kind}, at)
    if kind == "quadratic":
        return kind, _parse_quadratic(payload, at)
    if kind == "cone":
        return kind, _parse_cone(payload, at)
    if kind == "second_order_cone":
        return kind, _parse_soc(payload, at)
    if kind == "affine_map":
        return kind, _parse_affine_map(payload, at)
    if kind == "manifold":
        return kind, _parse_manifold(payload, at)
    if kind == "subspace":
        return kind, _parse_subspace(payload, at)
    raise DocumentError(f"unknown document kind {kind!r}", path=f"{path}.kind")


def serialize(kind: str, value) -> str:
    """Canonical text of a document, which :func:`parse` reads back (a
    vpolyhedron as its Motzkin set).

    Only the kinds :func:`payload_of` handles are written: quadratic,
    hpolyhedron, vpolyhedron, cone, second_order_cone, motzkin, manifold and
    affine_map.  The compound set kinds (quad_sublevel, epigraph, product,
    union, intersection, affine_image) and subspace raise DocumentError.
    """
    doc = {"version": "1", "kind": kind, "payload": payload_of(kind, value)}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def payload_of(kind, value):
    """The JSON-ready ``payload`` object of a document of ``kind``."""
    if kind == "quadratic":
        return {
            "matrix": _format_matrix(value.a),
            "linear": format_vector(value.b),
            "constant": format_rational(value.c),
        }
    if kind == "hpolyhedron":
        return {
            "rows": _format_matrix(value.a),
            "rhs": format_vector(value.b),
            "dim": value.dim,
        }
    if kind == "vpolyhedron":
        return {
            "vertices": _format_matrix(value.vertices),
            "rays": _format_matrix(value.rays),
            "lineality": _format_matrix(value.lineality),
            "dim": value.dim,
        }
    if kind == "cone":
        return {"generators": _format_matrix(value.generators), "dim": value.dim}
    if kind == "second_order_cone":
        return {
            "dim": value.dim,
            "axis": format_vector(value.axis),
            "aperture": format_rational(value.aperture),
        }
    if kind == "motzkin":
        return {
            "compact": _compact_payload(value.compact),
            "cone": _cone_rep_payload(value.cone),
        }
    if kind == "manifold":
        return {"rows": _format_matrix(value.a), "rhs": format_vector(value.b)}
    if kind == "affine_map":
        return {
            "matrix": _format_matrix(value.matrix),
            "offset": format_vector(value.offset),
        }
    raise DocumentError(f"cannot serialize kind {kind!r}")


def _compact_payload(k):
    if isinstance(k, PolytopeK):
        return {"kind": "polytope", "vertices": _format_matrix(k.vertices)}
    if isinstance(k, FinitePointSet):
        return {"kind": "points", "points": _format_matrix(k.points)}
    return {
        "kind": "ball",
        "center": format_vector(k.center),
        "radius": format_rational(k.radius),
    }


def _cone_rep_payload(c):
    if isinstance(c, PolyCone):
        return {
            "kind": "polyhedral",
            "generators": _format_matrix(c.generators),
            "dim": c.dim,
        }
    return {
        "kind": "second_order",
        "dim": c.dim,
        "axis": format_vector(c.axis),
        "aperture": format_rational(c.aperture),
    }
