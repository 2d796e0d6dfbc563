"""Executable gallery of attainment counterexamples and theorem instances.

Every case couples a set (and usually objectives) with the published verdict
and the checks that reproduce it: exact rational checks wherever the data is
algebraic (curve membership, section emptiness, separating slabs, truncation
lower bounds, weak-duality brackets of minima on compact sets).
Non-attainment itself cannot be certified by finite sampling, so those
verdicts pair a decreasing evidence curve with exact positive lower bounds
over growing compact truncations; the expected verdict encodes the published
claim and the checks test everything checkable.

Each case is a data file ``gallery_data/<case>.json`` (README, "Gallery"),
read, checked and parsed once per process by the documents' checker: the
case-file fields below extend :data:`fwsets.documents.FIELDS`, the one field
table.  Only non-algebraic data is built in (``BUILTIN_*``).  The
classification layer reads the cases' witnesses and asymptote evidence
through :func:`evidence` when it first needs them; importing this module
parses no case file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from importlib import resources
from types import SimpleNamespace

from .asymptotes import (
    NonAttainmentWitness,
    QuadSublevel,
    ambient_dim,
    bounded_base,
    classify,
    contains,
    image_closed_1d,
    is_f_asymptote,
    projection_closed,
)
from .documents import (
    FIELDS,
    SET_KINDS,
    array,
    choice,
    mapping,
    parse_document,
    parse_record,
    rational,
    rationals,
    record,
    typed,
)
from .errors import DocumentError, FwsetsError
from .linalg import Vec, dot
from .motzkin import minimize_on_motzkin
from .numeric import exp_bounds, one_constraint_bracket, sqrt_upper
from .polyhedra import recession_cone
from .quadratics import Quadratic

_DATA = resources.files("fwsets") / "gallery_data"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    claimed: str
    computed: str
    detail: str = ""


@dataclass(frozen=True)
class CaseReport:
    name: str
    passed: bool
    checks: tuple[CheckResult, ...]
    references: tuple[str, ...]

    def lines(self):
        mark = "PASS" if self.passed else "FAIL"
        out = [f"[{mark}] {self.name}"]
        for c in self.checks:
            m = "ok " if c.passed else "FAIL"
            out.append(f"    {m} {c.name}: expected {c.claimed}, got {c.computed}")
        return out


def _check(name, passed, claimed, computed, detail="") -> CheckResult:
    return CheckResult(name, bool(passed), str(claimed), str(computed), detail)


# built-in (non-algebraic) case data, selected by name
@dataclass(frozen=True)
class ReducedCylinderObjective:
    """The cubic ``x3^2 x1 - 2 x2 x3 + 2`` (not a quadratic; exact on rationals)."""

    def evaluate(self, x) -> Fraction:
        x1, x2, x3 = x
        return x3 * x3 * x1 - 2 * x2 * x3 + 2


BUILTIN_OBJECTIVES = {"reduced_cylinder": ReducedCylinderObjective()}
BUILTIN_CURVES = {
    # the epigraph's boundary (t, t^2 + exp(-t^2)), lifted to exp's upper bound
    "exp_bounds": lambda t: (t, t * t + exp_bounds(-t * t, 40)[1]),
    # the cone section's boundary z^2 = t^2 + 1, z rounded up
    "sqrt_upper": lambda t: (t, sqrt_upper(t * t + 1)),
}
# the epigraph's truncation bound exp(-r), from below
BUILTIN_BOUNDS = {"exp_truncation": lambda r: exp_bounds(-r, 40)[0]}


def _horner(coeffs, t) -> Fraction:
    return reduce(lambda value, c: value * t + c, reversed(coeffs), Fraction(0))


def _sample(curve, ts, path="$") -> tuple[Vec, ...]:
    try:
        return tuple(curve(Fraction(t)) for t in ts)
    except ZeroDivisionError:
        raise DocumentError("the curve has a pole at one of its ts", path=path) from None


# ---------------------------------------------------------------------------
# check fragments: one per check kind, each yielding its checks
# ---------------------------------------------------------------------------


def _point_text(p) -> str:
    return f"({', '.join(map(str, p))})"


def _classification(case, set=None, prefix="", fw=None, qfw=None):
    fset = case.set if set is None else set
    want_fw, want_qfw = fw or case.expected["classify_fw"], qfw or case.expected["classify_qfw"]
    got_fw, got_qfw = (c.label for c in classify(fset))
    yield _check(f"{prefix}attainment class", got_fw == want_fw, want_fw, got_fw)
    yield _check(f"{prefix}quasi-attainment class", got_qfw == want_qfw, want_qfw, got_qfw)


def _asymptote_battery(case):
    for name, entry in case.battery.items():
        verdict, want = is_f_asymptote(case.set, entry["manifold"]), entry["asymptote"]
        yield _check(f"asymptote battery: {name}", verdict is want, want, verdict)


def _projections(case, closed, coords=(), coordinates=()):
    targets = [(f"coords {c}", list(c)) for c in coords]
    targets += [(f"coordinate {k}", [k]) for k in coordinates]
    for label, cs in targets:
        verdict, note = projection_closed(case.set, cs)
        yield _check(f"projection onto {label} closed", verdict is closed, closed, verdict, note)


def _curve_evidence(case, points, infimum, threshold, equals_coordinate=None):
    count = sum(1 for p in points if contains(case.set, p) is True)
    vals = [case.objectives[0].evaluate(p) for p in points]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    above = all(v > infimum for v in vals)
    yield _check("evidence memberships exact", count == len(points), "all member", f"{count}/{len(points)}")
    yield _check(
        "evidence decreases strictly toward the infimum",
        decreasing and above,
        "strictly decreasing, above infimum",
        f"decreasing={decreasing}, above={above}",
    )
    yield _check(
        f"evidence value within {threshold} of the infimum",
        vals[-1] - infimum < threshold,
        f"< {infimum + threshold}",
        vals[-1],
    )
    if equals_coordinate is not None:
        k = equals_coordinate
        same = all(v == p[k - 1] for v, p in zip(vals, points))
        yield _check(
            f"curve values equal the {('first', 'second', 'third', 'fourth')[k - 1]} coordinate",
            same,
            f"q(curve(t)) == x{k}(t)",
            "verified" if same else "mismatch",
        )


def _truncated_bound(case, radii, bound, argument=""):
    """``bound(r)`` is a positive lower bound of the objective on the set
    within radius r, for each radius; a long bound is shown to 3 digits."""
    for r in radii:
        value = bound(r)
        text = str(value) if len(str(value)) <= 20 else f"{float(value):.3g}"
        yield _check(
            f"truncated minimum over radius {r} stays positive",
            value > 0,
            "> 0",
            f"certified lower bound {text}",
            argument,
        )


def _members(case, points, name, words=False, member=True):
    """Each point is a member (a non-member); ``name`` may show the point as
    ``{point}`` and its coordinates as ``{p[i]}``."""
    for p in points:
        verdict = contains(case.set, p)
        shown = ("member" if verdict else "not member") if words else verdict
        claimed = "member" if member else False
        yield _check(name.format(p=p, point=_point_text(p)), verdict is member, claimed, shown)


def _recession_cone(case, generators, points, steps):
    cone = recession_cone(case.set.base).generators
    moved = all(
        contains(case.set, tuple(a + t * b for a, b in zip(x, d))) is True
        for x in points
        for d in generators
        for t in steps
    )
    yield _check(
        "recession cone of the base equals the claimed cone",
        set(cone) == set(generators),
        sorted(generators),
        sorted(cone),
    )
    yield _check("claimed generators are recession directions", moved, True, moved)


def _open_image(case, points, functional, label, within):
    """The image of the set under ``functional`` misses its boundary value 0,
    which the values along the curve approach from below."""
    verdict, note = image_closed_1d(case.set, functional)
    yield _check(f"image under {label} is not closed", verdict is False, False, verdict, note)
    vals = [dot(functional, p) for p in points]
    rising = all(a < b for a, b in zip(vals, vals[1:]))
    yield _check(
        "functional values approach the missing boundary value",
        rising and all(v < 0 for v in vals) and vals[-1] > -within,
        "monotone, negative, approaching 0",
        f"last value {float(vals[-1]):.3g}",
    )


def _bracket(case, width):
    """The base is bounded, so the set is compact and, holding a member,
    every objective attains its minimum on it; :func:`_lagrangian_bracket`
    pins it between a weak-duality bound and the objective at a member."""
    fset = case.set
    attains = bounded_base(fset) and contains(fset, fset.sample_point) is True
    for idx, q in enumerate(case.objectives):
        lower, upper, witness = _lagrangian_bracket(fset, q, width)
        member = contains(fset, witness)
        yield _check(f"objective {idx} attains (compact set)", attains is True, True, attains)
        yield _check(
            f"objective {idx} exact bracket",
            upper - lower <= width and member is True,
            f"width <= {width}, member witness",
            f"width {upper - lower}, witness {member}",
            f"minimum in [{lower}, {upper}], witness {_point_text(witness)}",
        )


def _attains(case, set, value):
    """The objective attains ``value`` on a Motzkin set, exactly."""
    verdict = minimize_on_motzkin(case.objectives[0], set)
    yield _check(
        "baseline objective attains its infimum exactly",
        verdict.kind == "attained" and verdict.value == value,
        value,
        f"{verdict.kind}, value {getattr(verdict, 'value', None)}",
    )


def _add_witness(found, case, points, infimum, note):
    found.witnesses[case.set] = NonAttainmentWitness(case.objectives[0], infimum, points, note)


def _add_evidence(found, case, candidate, points):
    m = candidate["manifold"]
    found.candidates[case.set] = found.candidates.get(case.set, ()) + (m,)
    found.points[(case.set, m)] = points


def _lagrangian_bracket(fset: QuadSublevel, q: Quadratic, width: Fraction):
    """Exact ``(lower, upper, witness)`` around the minimum of q on fset.

    fset has one constraint with a positive definite form, such as a disk:
    :func:`numeric.one_constraint_bracket`, with the sample point as the
    fallback witness.
    """
    (g,) = fset.constraints
    lower, upper, witness = one_constraint_bracket(q, g, width, lambda x: contains(fset, x) is True)
    fallback = q.evaluate(fset.sample_point)
    if upper is None or fallback < upper:
        upper, witness = fallback, fset.sample_point
    return lower, upper, witness


# kind: (fragment, required fields, optional fields)
_CHECKS = {
    "classification": (_classification, (), ("set", "prefix", "fw", "qfw")),
    "asymptote_battery": (_asymptote_battery, (), ()),
    "projections": (_projections, ("closed",), ("coords", "coordinates")),
    "curve_evidence": (_curve_evidence, ("points", "infimum", "threshold"), ("equals_coordinate",)),
    "truncated_bound": (_truncated_bound, ("radii", "bound"), ("argument",)),
    "members": (_members, ("points", "name"), ("words",)),
    "non_members": (partial(_members, member=False), ("points", "name"), ()),
    "recession_cone": (_recession_cone, ("generators", "points", "steps"), ()),
    "open_image": (_open_image, ("points", "functional", "label", "within"), ()),
    "bracket": (_bracket, ("width",), ()),
    "attains": (_attains, ("set", "value"), ()),
}
_REGISTRATIONS = {
    "fw_witness": (_add_witness, ("points", "infimum", "note"), ()),
    "asymptote_evidence": (_add_evidence, ("candidate", "points"), ()),
}


# ---------------------------------------------------------------------------
# case files: every field checked, then parsed by its name in the documents'
# field table, which these fields extend
# ---------------------------------------------------------------------------


def _named(part):
    """A name of one of the case's curves or battery manifolds."""
    return lambda raw, path, ctx: choice(ctx.get(part, {}))(raw, path, ctx)


def _or_builtin(table, item):
    """``{"builtin": name}`` from ``table``, or what ``item`` parses."""

    def parse(raw, path, ctx):
        if isinstance(raw, dict) and "builtin" in raw:
            name = parse_record(raw, path, ctx, ("builtin",))["builtin"]
            return choice(table)(name, f"{path}.builtin", ctx)
        return item(raw, path, ctx)

    return parse


def _document(*kinds):
    return lambda raw, path, ctx: parse_document(raw, path, kinds)[1]


def _rational_curve(raw, path, ctx):
    """``t -> (num_i(t) / den_i(t))_i``, coefficients by ascending power."""
    coords = [(c["num"], c.get("den", (1,))) for c in array(record(("num",), ("den",)))(raw, path, ctx)]
    return lambda t: tuple(_horner(num, t) / _horner(den, t) for num, den in coords)


def _power_bound(raw, path, ctx):
    """The truncation bound ``r -> scale / r^power``."""
    fields = parse_record(raw, path, ctx, ("scale", "power"))
    return lambda r: fields["scale"] / r ** fields["power"]


def _entry(kinds):
    """One ``{"kind": ..., fields}`` as an (action, fields) pair.  A ``curve``
    of the case sampled at ``ts`` may stand for the ``points``."""

    def parse(raw, path, ctx):
        kind = raw.get("kind") if isinstance(raw, dict) else None
        action, required, optional = choice(kinds)(kind, f"{path}.kind", ctx)
        if "curve" in raw and "points" in required:
            required = tuple(k for k in required if k != "points") + ("curve", "ts")
        values = parse_record(raw, path, ctx, ("kind", *required), optional)
        del values["kind"]
        if "curve" in values:
            values["points"] = _sample(values.pop("curve"), values.pop("ts"), f"{path}.ts")
        dim = ambient_dim(ctx["set"])
        if any(len(p) != dim for p in values.get("points", ())):
            raise DocumentError(f"expected points with {dim} coordinates", path=path)
        return action, values

    return parse


_string, _flag, _integer = typed(str, "a string"), typed(bool, "true or false"), typed(int, "an integer")
# a record parses its fields in the table's order, so a case's set, battery
# and curves come before the checks and registrations that use them
FIELDS.update({
    "set": _document(*SET_KINDS),
    "objectives": array(_or_builtin(BUILTIN_OBJECTIVES, _document("quadratic"))),
    "battery": mapping(record(("manifold", "asymptote"))),
    "curves": mapping(_or_builtin(BUILTIN_CURVES, _rational_curve)),
    "expected": record(("classify_fw", "classify_qfw")),
    "references": array(record(("fact", "source"))),
    "checks": array(_entry(_CHECKS)),
    "registrations": array(_entry(_REGISTRATIONS)),
    "manifold": _document("manifold"),
    "curve": _named("curves"),
    "candidate": _named("battery"),
    "bound": _or_builtin(BUILTIN_BOUNDS, _power_bound),
    "equals_coordinate": choice({1: 1, 2: 2, 3: 3, 4: 4}),
    "coords": array(array(_integer)),
    "coordinates": array(_integer),
    "power": _integer,
    **dict.fromkeys(("asymptote", "closed", "words"), _flag),
    **dict.fromkeys(("name", "summary", "classify_fw", "classify_qfw", "fact", "source"), _string),
    **dict.fromkeys(("prefix", "fw", "qfw", "label", "note", "argument", "builtin"), _string),
    **dict.fromkeys(("infimum", "threshold", "within", "width", "value", "scale"), rational),
    **dict.fromkeys(("ts", "radii", "steps", "functional", "num", "den"), rationals),
})
_CASE = (
    ("version", "name", "summary", "expected", "set", "checks", "references"),
    ("objectives", "battery", "curves", "registrations"),
)


def parse_case(data) -> SimpleNamespace:
    """Check and parse one decoded case file into a namespace of its parsed
    fields.  A defect raises DocumentError naming the case and the field
    path."""
    try:
        fields = parse_record(data, "$", None, *_CASE)
    except DocumentError as exc:
        name = data.get("name") if isinstance(data, dict) else None
        raise DocumentError(f"gallery case {name!r}, {exc.path}: {exc}", path=exc.path) from None
    return SimpleNamespace(**{"objectives": (), "battery": {}, "curves": {}, "registrations": (), **fields})


def replay(case) -> CaseReport:
    """Run a parsed case's checks in order."""
    checks = tuple(c for fragment, values in case.checks for c in fragment(case, **values))
    sources = tuple(r["source"] for r in case.references)
    return CaseReport(case.name, all(c.passed for c in checks), checks, sources)


@cache
def _case(name: str):
    if name not in list_cases():
        raise FwsetsError(f"no gallery case named {name!r}")
    case = parse_case(json.loads((_DATA / f"{name}.json").read_text(encoding="utf-8")))
    if case.name != name:
        raise DocumentError(f"gallery case file {name}.json names the case {case.name!r}", path="$.name")
    return case


# ---------------------------------------------------------------------------
# the public API
# ---------------------------------------------------------------------------


def list_cases() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _DATA.iterdir() if p.name.endswith(".json"))


def case_sets() -> dict[str, object]:
    """The gallery's set descriptors, keyed by case name."""
    return {name: _case(name).set for name in list_cases()}


def run_case(name: str) -> CaseReport:
    return replay(_case(name))


def run_all() -> list[CaseReport]:
    return [run_case(name) for name in list_cases()]


def _case_part(name, part, index=None):
    value = getattr(_case(name), part)
    return value if index is None else value[index]


def _case_curve(name, curve, ts):
    return _sample(_case(name).curves[curve], ts)


# the builders, objectives and curves that callers import by name
luo_zhang_set = partial(_case_part, "luo_zhang_ex1", "set")
luo_zhang_objective = partial(_case_part, "luo_zhang_ex1", "objectives", 0)
luo_zhang_curve = partial(_case_curve, "luo_zhang_ex1", "witness")
epigraph_set = partial(_case_part, "epigraph_exp", "set")
hyperbola_set = partial(_case_part, "hyperbola_set", "set")
ice_cream_cut_set = partial(_case_part, "ice_cream_cut", "set")
cylinder_parabolic_set = partial(_case_part, "cylinder_parabolic", "set")
cylinder_parabolic_objective = partial(_case_part, "cylinder_parabolic", "objectives", 0)
cylinder_parabolic_curve = partial(_case_curve, "cylinder_parabolic", "witness")
luo_zhang_theorem_set = partial(_case_part, "luo_zhang_theorem", "set")
luo_zhang_theorem_battery = partial(_case_part, "luo_zhang_theorem", "objectives")
program_p_set = partial(_case_part, "program_p", "set")
program_p_curve = partial(_case_curve, "program_p", "witness")
parabola_set = partial(_case_part, "parabola", "set")


@cache
def evidence() -> SimpleNamespace:
    """The cases' ``registrations``, read once: ``witnesses`` (set -> its
    NonAttainmentWitness), ``candidates`` (set -> its asymptote manifolds, in
    case-file order) and ``points`` ((set, manifold) -> evidence points)."""
    found = SimpleNamespace(witnesses={}, candidates={}, points={})
    for name in list_cases():
        case = _case(name)
        for add, values in case.registrations:
            add(found, case, **values)
    return found
