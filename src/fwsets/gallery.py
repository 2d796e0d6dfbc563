"""Executable gallery of attainment counterexamples and theorem instances.

Every case couples a set (and usually an objective) with the published
verdict and a verifier that reproduces the verdict: exact rational checks
wherever the data is algebraic (curve membership, section emptiness,
separating slabs, truncation lower bounds, weak-duality brackets of minima
on compact sets).  Non-attainment itself cannot be
certified by finite sampling, so those verdicts pair a decreasing evidence
curve with exact positive lower bounds over growing compact truncations;
the expected verdict encodes the published claim and the verifier checks
everything checkable.

Case data (claims, tolerances, citations) ships in ``gallery_data/*.json``;
importing this module registers the sets' asymptote candidates and
witnesses with the classification layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .affine import AffineManifold
from .asymptotes import (
    Epigraph1D,
    NonAttainmentWitness,
    QuadSublevel,
    bounded_base,
    classify_fw_set,
    classify_qfw,
    contains,
    image_closed_1d,
    is_f_asymptote,
    projection_closed,
    register_asymptote_evidence,
    register_fw_witness,
    whole_space,
)
from .errors import FwsetsError
from .linalg import Vec, dot, vec, zeros
from .motzkin import MotzkinSet, PolytopeK, SecondOrderCone, classify_fw, minimize_on_motzkin
from .numeric import exp_bounds, one_constraint_bracket, sqrt_upper
from .polyhedra import HPolyhedron, PolyCone, recession_cone
from .quadratics import Quadratic

F = Fraction


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


def _load_data(name: str) -> dict:
    path = resources.files("fwsets").joinpath("gallery_data", f"{name}.json")
    data = json.loads(path.read_text())
    if data.get("version") != "1":
        raise FwsetsError(f"unsupported gallery data version in {name}")
    return data


def _check(name, passed, claimed, computed, detail="") -> CheckResult:
    return CheckResult(name, bool(passed), str(claimed), str(computed), detail)


# ---------------------------------------------------------------------------
# set and objective builders
# ---------------------------------------------------------------------------


def luo_zhang_set() -> QuadSublevel:
    c1 = Quadratic.build(
        [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [0, 0, -1, 0]
    )
    c2 = Quadratic.build(
        [[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [0, 0, 0, -1]
    )
    return QuadSublevel(whole_space(4), (c1, c2), sample_point=zeros(4))


def luo_zhang_objective() -> Quadratic:
    a = [[2, -2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    return Quadratic.build(a, zeros(4), 1)


def luo_zhang_curve(ts) -> tuple[Vec, ...]:
    return tuple(vec((t, 1 / t, t * t, 1 / (t * t))) for t in ts)


def epigraph_set() -> Epigraph1D:
    return Epigraph1D("parabola_exp")


def epigraph_objective() -> Quadratic:
    return Quadratic.build([[-2, 0], [0, 0]], [0, 1])


def epigraph_curve(ks) -> tuple[Vec, ...]:
    pts = []
    for k in ks:
        k = F(k)
        _, hi = exp_bounds(-k * k, 40)
        pts.append((k, k * k + hi))
    return tuple(pts)


def hyperbola_set() -> QuadSublevel:
    base = HPolyhedron.from_rows([[-1, 0], [0, -1]], [0, 0])
    q = Quadratic.build([[0, -1], [-1, 0]], [0, 0], 1)  # 1 - x y <= 0
    return QuadSublevel(base, (q,), sample_point=vec((1, 1)))


def ice_cream_cut_set() -> QuadSublevel:
    base = HPolyhedron.from_rows([[0, -1]], [-1])  # z >= 1
    q = Quadratic.build([[2, 0], [0, -2]], [0, 0], 1)  # x^2 + 1 - z^2 <= 0
    return QuadSublevel(base, (q,), sample_point=vec((0, 1)))


def ice_cream_cone() -> MotzkinSet:
    soc = SecondOrderCone.build(3, (0, 0, 1), F(1, 2))
    return MotzkinSet(PolytopeK.build([(0, 0, 0)]), soc)


def cylinder_parabolic_set() -> QuadSublevel:
    disk = Quadratic.build(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [-2, 0, 0, 0]
    )  # (x1-1)^2 + x2^2 - 1 <= 0
    par = Quadratic.build(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]], [0, 0, 0, -1]
    )  # x3^2 - x4 <= 0
    return QuadSublevel(whole_space(4), (disk, par), sample_point=vec((1, 0, 0, 0)))


def cylinder_parabolic_objective() -> Quadratic:
    a = [[0, 0, 0, 1], [0, 0, -2, 0], [0, -2, 0, 0], [1, 0, 0, 0]]
    return Quadratic.build(a, zeros(4), 2)


def circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rational parametrization of (x1-1)^2 + x2^2 = 1 with x1 -> 0 as t -> 0."""
    den = 1 + t * t
    return 2 * t * t / den, 2 * t / den


def cylinder_parabolic_curve(ts) -> tuple[Vec, ...]:
    pts = []
    for t in ts:
        t = F(t)
        x1, x2 = circle_point(t)
        x3 = 1 / t
        pts.append(vec((x1, x2, x3, x3 * x3)))
    return tuple(pts)


def luo_zhang_theorem_set() -> QuadSublevel:
    box = HPolyhedron.from_rows(
        [[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 2, 2, 2]
    )
    disk = Quadratic.build([[2, 0], [0, 2]], [0, 0], -2)  # x1^2 + x2^2 <= 2
    return QuadSublevel(box, (disk,), sample_point=zeros(2))


def luo_zhang_theorem_battery() -> tuple[Quadratic, ...]:
    return (
        Quadratic.build([[2, 0], [0, 2]], [-6, 0], 9),  # (x1-3)^2 + x2^2
        Quadratic.build([[0, 1], [1, 0]], [0, 0], 0),  # x1 x2
        Quadratic.build([[-2, 0], [0, 0]], [0, 1], 0),  # -x1^2 + x2
    )


@dataclass(frozen=True)
class ReducedCylinderObjective:
    """The cubic ``x3^2 x1 - 2 x2 x3 + 2`` (not a quadratic; exact on rationals)."""

    def evaluate(self, x) -> Fraction:
        x1, x2, x3 = x
        return x3 * x3 * x1 - 2 * x2 * x3 + 2


def program_p_set() -> QuadSublevel:
    disk = Quadratic.build(
        [[2, 0, 0], [0, 2, 0], [0, 0, 0]], [-2, 0, 0]
    )  # (x1-1)^2 + x2^2 - 1 <= 0
    return QuadSublevel(whole_space(3), (disk,), sample_point=vec((1, 0, 0)))


def program_p_curve(ts) -> tuple[Vec, ...]:
    pts = []
    for t in ts:
        t = F(t)
        x1, x2 = circle_point(t)
        pts.append(vec((x1, x2, 1 / t)))
    return tuple(pts)


def parabola_set() -> QuadSublevel:
    q = Quadratic.build([[2, 0], [0, 0]], [0, -1])  # x^2 - y <= 0
    return QuadSublevel(whole_space(2), (q,), sample_point=zeros(2))


def orthant_set() -> HPolyhedron:
    return HPolyhedron.from_rows([[-1, 0], [0, -1]], [0, 0])


# ---------------------------------------------------------------------------
# shared check fragments
# ---------------------------------------------------------------------------


def _checks_curve_evidence(fset, objective, points, infimum, threshold, checks):
    memberships = [contains(fset, p) for p in points]
    checks.append(
        _check(
            "evidence memberships exact",
            all(m is True for m in memberships),
            "all member",
            f"{sum(1 for m in memberships if m is True)}/{len(points)}",
        )
    )
    vals = [objective.evaluate(p) for p in points]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    above = all(v > infimum for v in vals)
    reached = vals[-1] - infimum < threshold
    checks.append(
        _check(
            "evidence decreases strictly toward the infimum",
            decreasing and above,
            "strictly decreasing, above infimum",
            f"decreasing={decreasing}, above={above}",
        )
    )
    checks.append(
        _check(
            f"evidence value within {threshold} of the infimum",
            reached,
            f"< {infimum + threshold}",
            str(vals[-1]),
        )
    )
    return vals


def _checks_truncated_positive(radii, exact_bound, checks):
    for r in radii:
        bound = exact_bound(r)
        checks.append(
            _check(
                f"truncated minimum over radius {r} stays positive",
                bound > 0,
                "> 0",
                f"certified lower bound {bound}",
            )
        )


def _checks_classification(fset, expected, checks, fw=None, qfw=None):
    fw_label = (fw or classify_fw_set(fset)).label
    qfw_label = (qfw or classify_qfw(fset)).label
    checks.append(
        _check("attainment class", fw_label == expected["classify_fw"], expected["classify_fw"], fw_label)
    )
    checks.append(
        _check(
            "quasi-attainment class",
            qfw_label == expected["classify_qfw"],
            expected["classify_qfw"],
            qfw_label,
        )
    )


def _checks_asymptote_battery(fset, battery, expected_map, checks):
    for name, manifold in battery.items():
        verdict = is_f_asymptote(fset, manifold)
        want = expected_map[name]
        checks.append(
            _check(
                f"asymptote battery: {name}",
                verdict is want,
                str(want),
                str(verdict),
            )
        )


def _checks_projections_closed(fset, coord_lists, checks, expected=True):
    for coords in coord_lists:
        verdict, note = projection_closed(fset, coords)
        checks.append(
            _check(
                f"projection onto coords {tuple(coords)} closed",
                verdict is expected,
                str(expected),
                str(verdict),
                note,
            )
        )


# ---------------------------------------------------------------------------
# case verifiers
# ---------------------------------------------------------------------------


def _verify_luo_zhang_ex1(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = luo_zhang_set()
    q = luo_zhang_objective()
    expected = data["expected"]
    threshold = F(expected["evidence_threshold"])
    infimum = F(expected["infimum"])
    ts = [F(1, 2**k) for k in range(7)]
    _checks_curve_evidence(fset, q, luo_zhang_curve(ts), infimum, threshold, checks)

    # two-branch bound on |xi| <= r boxes: either |x1| < 1/(2r), which forces
    # |x1 x2| < 1/2 and (x1 x2 - 1)^2 > 1/4, or q >= x1^2 >= 1/(4 r^2)
    _checks_truncated_positive(expected["truncation_radii"], lambda r: F(1, 4 * r * r), checks)
    _checks_classification(fset, expected, checks)
    battery = {"x3_floor": AffineManifold.hyperplane((0, 0, 1, 0), -1)}
    _checks_asymptote_battery(fset, battery, expected["asymptote_battery_verdicts"], checks)
    _checks_projections_closed(fset, expected["projections_closed"], checks)
    # members on the section curve x3 = x1^2, sampled exactly
    for t in (F(-3), F(0), F(5, 2)):
        checks.append(
            _check(
                f"first-coordinate section witness at {t}",
                contains(fset, vec((t, 0, t * t, 0))) is True,
                "member",
                "member" if contains(fset, vec((t, 0, t * t, 0))) else "not member",
            )
        )
    return checks


def _verify_epigraph_exp(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = epigraph_set()
    q = epigraph_objective()
    expected = data["expected"]
    threshold = F(expected["evidence_threshold"])
    infimum = F(expected["infimum"])
    pts = epigraph_curve(range(1, 7))
    _checks_curve_evidence(fset, q, pts, infimum, threshold, checks)
    # q = y - x^2 >= exp(-x^2) > 0 on the whole set, so every truncation stays
    # positive; certify with the exp lower bound at the truncation radius
    for r in expected["truncation_radii"]:
        lo, _ = exp_bounds(-F(r), 40)
        checks.append(
            _check(
                f"truncated minimum over radius {r} stays positive",
                lo > 0,
                "> 0",
                f"certified lower bound {float(lo):.3g}",
            )
        )
    _checks_classification(fset, expected, checks)
    battery = {"x_axis": AffineManifold.hyperplane((0, 1), 0)}
    _checks_asymptote_battery(fset, battery, expected["asymptote_battery_verdicts"], checks)
    _checks_projections_closed(fset, expected["projections_closed"], checks)
    checks.append(
        _check(
            "boundary point (0, 1) belongs to the set",
            contains(fset, vec((0, 1))) is True,
            "member",
            str(contains(fset, vec((0, 1)))),
        )
    )
    return checks


def _verify_hyperbola_set(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = hyperbola_set()
    expected = data["expected"]
    battery = {
        "x_axis": AffineManifold.hyperplane((0, 1), 0),
        "y_axis": AffineManifold.hyperplane((1, 0), 0),
        "y_floor": AffineManifold.hyperplane((0, 1), -1),
    }
    _checks_asymptote_battery(fset, battery, expected["asymptote_battery_verdicts"], checks)
    _checks_classification(fset, expected, checks)

    claimed_gens = tuple(vec(g) for g in expected["recession_cone_generators"])
    base_cone = recession_cone(fset.base)
    checks.append(
        _check(
            "recession cone of the base equals the claimed cone",
            set(base_cone.generators) == set(claimed_gens),
            str(sorted(claimed_gens)),
            str(sorted(base_cone.generators)),
        )
    )
    # claimed generators are genuine recession directions of the set itself
    samples = [vec((1, 1)), vec((2, 1)), vec((F(1, 2), 2))]
    ok = True
    for x in samples:
        for d in claimed_gens:
            for t in (F(1), F(10), F(100)):
                moved = tuple(a + t * b for a, b in zip(x, d))
                ok = ok and (contains(fset, moved) is True)
    checks.append(
        _check("claimed generators are recession directions", ok, "True", str(ok))
    )
    escape = tuple(a - 100 * b for a, b in zip(samples[0], claimed_gens[0]))
    checks.append(
        _check(
            "directions outside the orthant eventually leave",
            contains(fset, escape) is False,
            "False",
            str(contains(fset, escape)),
        )
    )
    for coords, want in expected["projections_closed_verdicts"].items():
        verdict, note = projection_closed(fset, [int(coords)])
        checks.append(
            _check(
                f"projection onto coordinate {coords} closed",
                verdict is want,
                str(want),
                str(verdict),
                note,
            )
        )
    return checks


def _verify_ice_cream_cut(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = ice_cream_cut_set()
    expected = data["expected"]
    battery = {
        "diagonal": AffineManifold.hyperplane((1, -1), 0),
        "z_floor": AffineManifold.hyperplane((0, 1), 0),
    }
    _checks_asymptote_battery(fset, battery, expected["asymptote_battery_verdicts"], checks)
    _checks_classification(fset, expected, checks)

    cone = ice_cream_cone()
    cone_fw = classify_fw(cone)
    cone_qfw = classify_qfw(cone)
    checks.append(
        _check(
            "cone attainment class",
            cone_fw.label == expected["cone_classify_fw"],
            expected["cone_classify_fw"],
            cone_fw.label,
        )
    )
    checks.append(
        _check(
            "cone quasi-attainment class",
            cone_qfw.label == expected["cone_classify_qfw"],
            expected["cone_classify_qfw"],
            cone_qfw.label,
        )
    )
    for coords, want in expected["projections_closed_verdicts"].items():
        verdict, note = projection_closed(fset, [int(coords)])
        checks.append(
            _check(
                f"projection onto coordinate {coords} closed",
                verdict is want,
                str(want),
                str(verdict),
                note,
            )
        )
    functional = vec(expected["nonclosed_functional"])
    verdict, note = image_closed_1d(fset, functional)
    checks.append(
        _check(
            "image under x - z is not closed",
            verdict is False,
            "False",
            str(verdict),
            note,
        )
    )
    # the functional's values approach 0 on the set but never reach it
    pts = _ice_curve_points()
    vals = [dot(functional, p) for p in pts]
    approach = all(v < 0 for v in vals) and all(
        a < b for a, b in zip(vals, vals[1:])
    ) and vals[-1] > -F(1, 10**6)
    checks.append(
        _check(
            "functional values approach the missing boundary value",
            approach,
            "monotone, negative, approaching 0",
            f"last value {float(vals[-1]):.3g}",
        )
    )
    return checks


def _ice_curve_points() -> tuple[Vec, ...]:
    pts = []
    for k in range(0, 23, 2):
        t = F(2) ** k
        z = sqrt_upper(t * t + 1)
        pts.append(vec((t, z)))
    return tuple(pts)


def _verify_cylinder_parabolic(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = cylinder_parabolic_set()
    q = cylinder_parabolic_objective()
    expected = data["expected"]
    threshold = F(expected["evidence_threshold"])
    infimum = F(expected["infimum"])
    ts = [F(1, 2**k) for k in range(7)]
    pts = cylinder_parabolic_curve(ts)
    vals = _checks_curve_evidence(fset, q, pts, infimum, threshold, checks)
    # along the curve the value equals the first coordinate exactly
    checks.append(
        _check(
            "curve values equal the first coordinate",
            all(v == p[0] for v, p in zip(vals, pts)),
            "q(curve(t)) == x1(t)",
            "verified" if all(v == p[0] for v, p in zip(vals, pts)) else "mismatch",
        )
    )
    # two-branch bound: x1 <= 1/(8r) forces |x2 x3| <= 1/2 hence q >= 1;
    # otherwise q >= x1 > 1/(8r)
    _checks_truncated_positive(expected["truncation_radii"], lambda r: F(1, 8 * r), checks)
    _checks_classification(fset, expected, checks)
    battery = {
        "x4_floor": AffineManifold.hyperplane((0, 0, 0, 1), -1),
        "x1_wall": AffineManifold.hyperplane((1, 0, 0, 0), 3),
    }
    _checks_asymptote_battery(fset, battery, expected["asymptote_battery_verdicts"], checks)
    _checks_projections_closed(fset, expected["projections_closed"], checks)
    for c in (F(0), F(1, 7), F(2)):
        member = contains(fset, vec((c, 0, 0, 0)))
        checks.append(
            _check(
                f"first-coordinate witness at {c}",
                member is True,
                "member",
                str(member),
            )
        )
    return checks


def _verify_luo_zhang_theorem(data) -> list[CheckResult]:
    """Certify attainment and bracket each battery minimum exactly.

    The base box is bounded, so the set is compact and, holding a member,
    every objective attains its minimum on it.  The value is pinned by
    :func:`_lagrangian_bracket` between a weak-duality lower bound and the
    objective at an exact member.
    """
    checks: list[CheckResult] = []
    fset = luo_zhang_theorem_set()
    expected = data["expected"]
    width = F(expected["bracket_width_max"])
    _checks_classification(fset, expected, checks)
    attains = bounded_base(fset) and contains(fset, fset.sample_point) is True
    for idx, q in enumerate(luo_zhang_theorem_battery()):
        lower, upper, witness = _lagrangian_bracket(fset, q, width)
        checks.append(
            _check(
                f"objective {idx} attains (compact set)",
                attains == expected["all_attain"],
                expected["all_attain"],
                attains,
            )
        )
        member = contains(fset, witness)
        checks.append(
            _check(
                f"objective {idx} exact bracket",
                upper - lower <= width and member is True,
                f"width <= {width}, member witness",
                f"width {upper - lower}, witness {member}",
                f"minimum in [{lower}, {upper}], witness ({', '.join(map(str, witness))})",
            )
        )
    return checks


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


def _verify_program_p(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = program_p_set()
    obj = ReducedCylinderObjective()
    expected = data["expected"]
    threshold = F(expected["evidence_threshold"])
    infimum = F(expected["infimum"])
    ts = [F(1, 2**k) for k in range(7)]
    pts = program_p_curve(ts)
    _checks_curve_evidence(fset, obj, pts, infimum, threshold, checks)
    _checks_truncated_positive(expected["truncation_radii"], lambda r: F(1, 8 * r * r), checks)
    _checks_classification(fset, expected, checks)
    return checks


def _verify_parabola(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = parabola_set()
    expected = data["expected"]
    battery = {
        "y_floor": AffineManifold.hyperplane((0, 1), -1),
        "tilted_missing_line": AffineManifold.hyperplane((-1, 1), -5),
        "diagonal": AffineManifold.hyperplane((-1, 1), 0),
    }
    _checks_asymptote_battery(fset, battery, expected["asymptote_battery_verdicts"], checks)
    _checks_classification(fset, expected, checks)
    _checks_projections_closed(fset, expected["projections_closed"], checks)
    return checks


def _verify_orthant(data) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fset = orthant_set()
    expected = data["expected"]
    battery = {
        "y_floor": AffineManifold.hyperplane((0, 1), -1),
        "shifted_diagonal": AffineManifold.hyperplane((1, -1), 5),
        "diagonal": AffineManifold.hyperplane((1, -1), 0),
    }
    _checks_asymptote_battery(fset, battery, expected["asymptote_battery_verdicts"], checks)
    _checks_classification(fset, expected, checks)
    _checks_projections_closed(fset, expected["projections_closed"], checks)
    # exact attainment of (x1 - 1)^2 with the polyhedral solver
    q = Quadratic.build([[2, 0], [0, 0]], [-2, 0], 1)
    mot = MotzkinSet(
        PolytopeK.build([(0, 0)]),
        PolyCone.from_generators([(1, 0), (0, 1)]),
    )
    verdict = minimize_on_motzkin(q, mot)
    checks.append(
        _check(
            "baseline objective attains its infimum exactly",
            verdict.kind == "attained" and verdict.value == F(expected["objective_value"]),
            expected["objective_value"],
            f"{verdict.kind}, value {getattr(verdict, 'value', None)}",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# registry population and the public API
# ---------------------------------------------------------------------------

_VERIFIERS = {
    "luo_zhang_ex1": _verify_luo_zhang_ex1,
    "epigraph_exp": _verify_epigraph_exp,
    "hyperbola_set": _verify_hyperbola_set,
    "ice_cream_cut": _verify_ice_cream_cut,
    "cylinder_parabolic": _verify_cylinder_parabolic,
    "luo_zhang_theorem": _verify_luo_zhang_theorem,
    "program_p": _verify_program_p,
    "parabola": _verify_parabola,
    "orthant": _verify_orthant,
}


def list_cases() -> list[str]:
    return sorted(_VERIFIERS)


def case_sets() -> dict[str, object]:
    """The gallery's set descriptors, keyed by case name."""
    return {
        "luo_zhang_ex1": luo_zhang_set(),
        "epigraph_exp": epigraph_set(),
        "hyperbola_set": hyperbola_set(),
        "ice_cream_cut": ice_cream_cut_set(),
        "cylinder_parabolic": cylinder_parabolic_set(),
        "luo_zhang_theorem": luo_zhang_theorem_set(),
        "program_p": program_p_set(),
        "parabola": parabola_set(),
        "orthant": orthant_set(),
    }


def run_case(name: str) -> CaseReport:
    if name not in _VERIFIERS:
        raise FwsetsError(f"no gallery case named {name!r}")
    data = _load_data(name)
    checks = tuple(_VERIFIERS[name](data))
    refs = tuple(r["source"] for r in data.get("references", ()))
    return CaseReport(name, all(c.passed for c in checks), checks, refs)


def run_all() -> list[CaseReport]:
    return [run_case(name) for name in list_cases()]


def _register_all():
    lz = luo_zhang_set()
    register_fw_witness(
        lz,
        NonAttainmentWitness(
            objective=luo_zhang_objective(),
            infimum=F(0),
            curve_points=luo_zhang_curve([F(1, 2**k) for k in range(8)]),
            note=(
                "objective with infimum 0 approached along (t, 1/t, t^2, 1/t^2) "
                "but never attained (Luo and Zhang, 1999)"
            ),
        ),
    )

    epi = epigraph_set()
    register_fw_witness(
        epi,
        NonAttainmentWitness(
            objective=epigraph_objective(),
            infimum=F(0),
            curve_points=epigraph_curve(range(1, 7)),
            note=(
                "the vertical gap y - x^2 equals exp(-x^2) on the boundary: "
                "positive everywhere, vanishing at infinity"
            ),
        ),
    )

    hyp = hyperbola_set()
    register_asymptote_evidence(
        hyp,
        AffineManifold.hyperplane((0, 1), 0),
        [(F(2) ** k, F(1) / F(2) ** k) for k in range(0, 23, 2)],
    )
    register_asymptote_evidence(
        hyp,
        AffineManifold.hyperplane((1, 0), 0),
        [(F(1) / F(2) ** k, F(2) ** k) for k in range(0, 23, 2)],
    )

    ice = ice_cream_cut_set()
    register_asymptote_evidence(
        ice, AffineManifold.hyperplane((1, -1), 0), _ice_curve_points()
    )

    cyl = cylinder_parabolic_set()
    register_fw_witness(
        cyl,
        NonAttainmentWitness(
            objective=cylinder_parabolic_objective(),
            infimum=F(0),
            curve_points=cylinder_parabolic_curve([F(1, 2**k) for k in range(8)]),
            note=(
                "values equal the first coordinate along the circle curve "
                "with x3 = x2/x1, which tends to 0 without reaching it"
            ),
        ),
    )


_register_all()
