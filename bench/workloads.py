"""The four benchmark workloads: seeded inputs, one verdict per item, checks.

Each workload is a closed loop driven by :mod:`run`: one caller, and the
next item is sent when the previous verdict returns.  A workload object

* ``generate(lib, seed, workdir)`` builds the item pool from the seed alone
  (the library only ever sees the generated inputs);
* ``run(lib, item)`` is the timed part: it calls the library's public
  functions and returns a verdict record;
* ``check(lib, item, rec)`` returns the list of problems with a verdict,
  using the independent arithmetic of :mod:`exact` wherever one exists;
* ``key(rec)`` is the verdict's canonical text, fed to the run's digest;
* ``decided(rec)`` is False for Unknown-type verdicts and size caps.

``lib`` is a namespace of ``fwsets`` submodules.  Workloads look library
functions up through it at call time, so the traced run sees its wrappers.

Pools are stratified: items come in fixed blocks whose slots fix the input
properties that set an item's cost (cone generator count, objective form,
compact kind), and only the contents of a slot are random.  Every prefix of
a pool therefore has nearly the same mix, which keeps a time-bounded run's
figures steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import gcd

import exact

F = Fraction


def _spread(quota: dict) -> list:
    """The keys of ``quota``, each repeated quota times, spread evenly."""
    slots = []
    for key, count in quota.items():
        for j in range(count):
            slots.append(((j + 0.5) / count, repr(key), key))
    return [key for _, _, key in sorted(slots)]


def _ints(rng, n, lo, hi):
    return tuple(F(rng.randint(lo, hi)) for _ in range(n))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return tuple(F(int(x) // g) for x in v) if g else None


def _distinct_generators(rng, n, p):
    """p distinct nonzero primitive integer vectors with entries in -2..2."""
    gens = []
    while len(gens) < p:
        g = _primitive(_ints(rng, n, -2, 2))
        if g is not None and g not in gens:
            gens.append(g)
    return tuple(gens)


def _random_quadratic(rng, n, gram):
    """Entries as in the package's acceptance criteria: a random integer
    matrix, or its Gram form R R^T (positive semidefinite)."""
    raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    if gram:
        raw = [
            [sum(raw[i][k] * raw[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    # symmetrize exactly as Quadratic.build does, so the checks see the
    # same form the library stores
    a = tuple(
        tuple(F(raw[i][j] + raw[j][i], 2) for j in range(n)) for i in range(n)
    )
    b = _ints(rng, n, -3, 3)
    c = F(rng.randint(-2, 2))
    return a, b, c


def _random_feasible_rows(rng, n, m):
    """m random rows with a right-hand side that keeps an integer point
    x0 feasible; returns (rows, rhs, x0)."""
    x0 = _ints(rng, n, -2, 2)
    rows, rhs = [], []
    for _ in range(m):
        row = _ints(rng, n, -3, 3)
        if not any(row):
            row = (F(1),) + row[1:]
        rows.append(row)
        rhs.append(exact.dot(row, x0) + rng.randint(0, 3))
    return tuple(rows), tuple(rhs), x0


def _vec_text(v):
    return "(" + ",".join(str(x) for x in v) + ")"


# ---------------------------------------------------------------------------
# attain_desk
# ---------------------------------------------------------------------------


class AttainDesk:
    """Criterion-1 programs ``min q`` over ``{A x <= b}``, solved through
    ``minimize_on_motzkin(q, decompose(h))``; unbounded ones are items too.

    Strata are (cone generators p of the recession cone, Gram objective).
    The quotas per 100-item block are the criterion-1 stream's own
    frequencies, measured on 893 programs; programs whose recession cone has
    more than 6 generators are left out (p = 8 alone takes 12-34 s a
    program, see DESIGN.md).
    """

    name = "attain_desk"
    pool_size = 300
    trace_items = 200
    samples = 200
    max_generators = 6
    block = _spread({
        (0, False): 16, (0, True): 17, (1, False): 3, (1, True): 4,
        (2, False): 8, (2, True): 8, (3, False): 6, (3, True): 6,
        (4, False): 8, (4, True): 9, (5, False): 3, (5, True): 3,
        (6, False): 5, (6, True): 4,
    })

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        blocks = self.pool_size // len(self.block)
        need = {}
        for key in self.block:
            need[key] = need.get(key, 0) + blocks
        buckets = {key: [] for key in need}
        self.drawn = self.excluded = 0
        while any(len(buckets[k]) < need[k] for k in need):
            n = rng.randint(1, 4)
            m = rng.randint(2, 6)
            rows, rhs, _ = _random_feasible_rows(rng, n, m)
            gram = rng.random() < 0.5
            a, b, c = _random_quadratic(rng, n, gram)
            h = lib.polyhedra.HPolyhedron(rows, rhs, n)
            p = len(lib.motzkin.decompose(h).cone.generators)
            self.drawn += 1
            if p > self.max_generators:
                self.excluded += 1
                continue
            key = (p, gram)
            if len(buckets[key]) < need[key]:
                buckets[key].append({
                    "h": h, "rows": rows, "rhs": rhs,
                    "q": lib.quadratics.Quadratic(a, b, c), "abc": (a, b, c),
                })
        taken = {key: iter(items) for key, items in buckets.items()}
        return [next(taken[key]) for _ in range(blocks) for key in self.block]

    def run(self, lib, item):
        mot = lib.motzkin.decompose(item["h"])
        v = lib.motzkin.minimize_on_motzkin(item["q"], mot)
        rec = {"kind": v.kind, "mot": mot}
        if v.kind == "attained":
            rec.update(value=v.value, point=v.point)
        elif v.kind == "unbounded":
            rec.update(base=v.base, direction=v.direction)
        return rec

    def key(self, rec):
        if rec["kind"] == "attained":
            return f"attained {rec['value']} {_vec_text(rec['point'])}"
        if rec["kind"] == "unbounded":
            return f"unbounded {_vec_text(rec['base'])} {_vec_text(rec['direction'])}"
        return rec["kind"]

    def decided(self, rec):
        return rec["kind"] in ("attained", "unbounded")

    def check(self, lib, item, rec):
        a, b, c = item["abc"]
        rows, rhs = item["rows"], item["rhs"]
        problems = []
        if rec["kind"] == "attained":
            x, value = rec["point"], rec["value"]
            if not exact.satisfies(rows, rhs, x):
                problems.append("witness violates A x <= b")
            if exact.q_value(a, b, c, x) != value:
                problems.append("q(point) differs from the value")
            gens = rec["mot"].cone.generators
            if any(exact.is_descent_ray(a, b, x, g) for g in gens):
                problems.append("a recession generator descends from the witness")
            rng = random.Random(_vec_text(x))
            verts = rec["mot"].compact.vertices
            if not exact.beats_samples(rng, a, b, c, value, verts, gens, self.samples):
                problems.append("a feasible sample beats the witness")
        elif rec["kind"] == "unbounded":
            base, d = rec["base"], rec["direction"]
            if not exact.satisfies(rows, rhs, base):
                problems.append("ray base violates A x <= b")
            if not all(exact.dot(r, d) <= 0 for r in rows):
                problems.append("ray direction leaves the recession cone")
            if not exact.is_descent_ray(a, b, base, d):
                problems.append("q does not decrease along the ray")
        else:
            problems.append(f"unexpected verdict {rec['kind']} on a polyhedral program")
        return problems


# ---------------------------------------------------------------------------
# two_level
# ---------------------------------------------------------------------------


def _motzkin_doc(kind, compact, gens, n):
    if kind == "ball":
        center, radius = compact
        comp = {"kind": "ball", "center": [str(x) for x in center], "radius": str(radius)}
    else:
        comp = {"kind": "points", "points": [[str(x) for x in p] for p in compact]}
    cone = {"kind": "polyhedral", "generators": [[str(x) for x in g] for g in gens], "dim": n}
    return {"version": "1", "kind": "motzkin", "payload": {"compact": comp, "cone": cone}}


def _quadratic_doc(a, b, c):
    return {
        "version": "1",
        "kind": "quadratic",
        "payload": {
            "matrix": [[str(x) for x in row] for row in a],
            "linear": [str(x) for x in b],
            "constant": str(c),
        },
    }


def _two_level_block():
    """Slots (kind, n, p, Gram): each ball slot twice, each followed by four
    point slots, so the 48 point slots hold each of the 16 kinds 3 times."""
    balls = [("ball", n, p, True) for n, p in ((2, 1), (2, 3), (3, 1), (2, 4), (2, 2), (3, 2))]
    points = [("points", n, p, gram)
              for n, ps in ((1, (1, 2)), (2, (1, 2, 3, 4)), (3, (1, 2)))
              for p in ps for gram in (False, True)]
    return [s for i in range(12) for s in [balls[i % 6]] + [points[(4 * i + j) % 16] for j in range(4)]]


class TwoLevel:
    """Motzkin set and quadratic documents solved in process through
    ``fwsets.cli.main(["--format", "json", "solve", set, quad])``.

    A 60-item block holds 12 ball slots and 48 finite-point slots, four
    after each ball.  Balls: n = 2 with p = 1..4 cone generators, n = 3 with
    p = 1, 2, and a Gram objective plus the identity, so every ball item is
    bounded and runs the grid.  Point sets: n = 1..3, 1-3 points, p = 1..4,
    a general or a Gram objective.  n = 3 balls with p = 3, 4 are left out:
    their solves range over 0.06-1.5 s, and a few of them per run made the
    run's figures depend on the seed.  The slowest ball solves (n = 2,
    p = 4) are 3% of items, so p95 falls among the many ball solves of
    100-300 ms rather than on the edge of that group.
    """

    name = "two_level"
    pool_size = 480
    trace_items = 96
    block = _two_level_block()

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        items = []
        for i in range(self.pool_size):
            kind, n, p, gram = self.block[i % len(self.block)]
            gens = _distinct_generators(rng, n, p)
            if kind == "ball":
                compact = (_ints(rng, n, -2, 2), F(rng.randint(1, 4), 2))
            else:
                compact = tuple(_ints(rng, n, -2, 2) for _ in range(rng.randint(1, 3)))
            a, b, c = _random_quadratic(rng, n, gram)
            if kind == "ball":
                # positive definite, so every ball item is bounded and runs the grid
                a = tuple(tuple(v + (r == k) for k, v in enumerate(row)) for r, row in enumerate(a))
            set_path = os.path.join(workdir, f"set{i:04d}.json")
            quad_path = os.path.join(workdir, f"quad{i:04d}.json")
            with open(set_path, "w", encoding="utf-8") as fh:
                json.dump(_motzkin_doc(kind, compact, gens, n), fh)
            with open(quad_path, "w", encoding="utf-8") as fh:
                json.dump(_quadratic_doc(a, b, c), fh)
            items.append({
                "kind": kind, "n": n, "gens": gens, "compact": compact,
                "abc": (a, b, c), "paths": (set_path, quad_path),
            })
        return items

    def run(self, lib, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(["--format", "json", "solve", *item["paths"]])
        text = out.getvalue()
        report = json.loads(text) if code in (0, 3) else {"verdict": f"exit {code}"}
        return {"code": code, "text": text, "report": report}

    def key(self, rec):
        return f"{rec['code']} {rec['text']}"

    def decided(self, rec):
        return rec["report"]["verdict"] in ("attained", "unbounded_below")

    def check(self, lib, item, rec):
        a, b, c = item["abc"]
        report = rec["report"]
        verdict = report["verdict"]
        if rec["code"] == 4:
            return []  # size cap: undecided, not failed
        if verdict == "unknown":
            return [] if rec["code"] == 3 else ["unknown verdict without exit code 3"]
        if rec["code"] != 0:
            return [f"exit code {rec['code']} for verdict {verdict}"]
        problems = []
        if verdict == "attained":
            value = F(report["value"])
            x = tuple(F(s) for s in report["point"])
            if exact.q_value(a, b, c, x) != value:
                problems.append("q(point) differs from the value")
            if item["kind"] == "ball":
                center, _ = item["compact"]
                if value > exact.q_value(a, b, c, center):
                    problems.append("value exceeds q(center)")
            else:
                if not any(
                    exact.in_cone(item["gens"], tuple(xi - yi for xi, yi in zip(x, y)))
                    for y in item["compact"]
                ):
                    problems.append("witness is not in any point + cone")
                if value != self._direct_value(lib, item):
                    problems.append("value differs from the per-member direct solve")
        elif verdict == "unbounded_below":
            base = tuple(F(s) for s in report["base"])
            d = tuple(F(s) for s in report["direction"])
            if item["kind"] == "ball":
                center, radius = item["compact"]
                dist2 = sum((u - v) * (u - v) for u, v in zip(base, center))
                if dist2 > radius * radius:
                    problems.append("ray base lies outside the ball")
            elif base not in item["compact"]:
                problems.append("ray base is not one of the points")
            if not exact.in_cone(item["gens"], d):
                problems.append("ray direction is not in the cone")
            if not exact.is_descent_ray(a, b, base, d):
                problems.append("q does not decrease along the ray")
        else:
            problems.append(f"unexpected verdict {verdict}")
        return problems

    @staticmethod
    def _direct_value(lib, item):
        """Criterion 3's path: min over the points y of the polyhedral
        program over ``y + D`` in halfspace form."""
        n = item["n"]
        a, b, c = item["abc"]
        q = lib.quadratics.Quadratic(a, b, c)
        cone_h = lib.polyhedra.PolyCone.from_generators(item["gens"], n).with_halfspaces()
        rows = tuple(cone_h.halfspaces)
        best = None
        for y in item["compact"]:
            member = lib.polyhedra.HPolyhedron(rows, tuple(exact.dot(r, y) for r in rows), n)
            solved = lib.cone_qp.minimize_over_hpolyhedron(q, member)
            if solved is None:
                return None
            best = solved[0] if best is None else min(best, solved[0])
        return best


# ---------------------------------------------------------------------------
# poly_calculus
# ---------------------------------------------------------------------------


class PolyCalculus:
    """Exact polyhedral calculus with no cone QP: H-polyhedra (n = 3, 4;
    m = n+2 .. 2n+3 rows) through ``dd_convert`` both ways and
    ``project_fm``; polytope triples (n = 1..3) through
    ``order_cancellation_check``; subspace sections (n = 2, 3) through
    ``intersect_subspace_motzkin``.  The three kinds alternate."""

    name = "poly_calculus"
    pool_size = 600
    trace_items = 360
    block = [("hpoly", 3), ("cancel", 1), ("section", 2),
             ("hpoly", 4), ("cancel", 2), ("section", 3),
             ("hpoly", 3), ("cancel", 3), ("section", 2),
             ("hpoly", 4), ("cancel", 3), ("section", 3)]
    section_samples = 10

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        P = lib.polyhedra
        items = []
        for i in range(self.pool_size):
            kind, n = self.block[i % len(self.block)]
            if kind == "hpoly":
                m = rng.randint(n + 2, 2 * n + 3)
                rows, rhs, x0 = _random_feasible_rows(rng, n, m)
                size = rng.randint(1, n - 1)
                coords = sorted(rng.sample(range(1, n + 1), size))
                items.append({"kind": kind, "h": P.HPolyhedron(rows, rhs, n),
                              "x0": x0, "coords": coords})
            elif kind == "cancel":
                a, b, k = (
                    tuple(_ints(rng, n, -3, 3) for _ in range(rng.randint(lo, hi)))
                    for lo, hi in ((1, 4), (1, 4), (1, 3))
                )
                items.append({"kind": kind, "abk": tuple(
                    P.VPolyhedron.from_points(pts) for pts in (a, b, k))})
            else:
                pts = tuple(_ints(rng, n, -2, 2) for _ in range(rng.randint(1, 3)))
                gens = []
                while not gens:
                    gens = [g for g in (_ints(rng, n, -1, 2) for _ in range(rng.randint(1, 2))) if any(g)]
                # the section always meets K: L contains the first point
                basis = [pts[0] if any(pts[0]) else (F(1),) + (F(0),) * (n - 1)]
                if rng.random() < 0.3:
                    axis = rng.randrange(n)
                    basis.append(tuple(F(int(j == axis)) for j in range(n)))
                f = lib.motzkin.MotzkinSet(
                    lib.motzkin.PolytopeK.build(pts), P.PolyCone.from_generators(gens, n))
                samples = [
                    tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in basis)
                    for _ in range(self.section_samples)
                ]
                items.append({"kind": kind, "f": f, "basis": tuple(basis),
                              "l": lib.affine.subspace(basis, n), "samples": samples})
        return items

    def run(self, lib, item):
        P = lib.polyhedra
        kind = item["kind"]
        if kind == "hpoly":
            v = P.dd_convert(item["h"])
            h2 = P.dd_convert(v)
            proj = P.project_fm(item["h"], item["coords"])
            return {"kind": kind, "v": v, "h2": h2, "proj": proj}
        if kind == "cancel":
            sums, bases = lib.setops.order_cancellation_check(*item["abk"])
            return {"kind": kind, "sums": sums, "bases": bases}
        g = lib.setops.intersect_subspace_motzkin(item["f"], item["l"])
        return {"kind": kind, "g": g}

    def key(self, rec):
        kind = rec["kind"]
        if kind == "hpoly":
            v, h2, proj = rec["v"], rec["h2"], rec["proj"]
            return " ".join(
                [kind] + [_vec_text(x) for x in v.vertices + v.rays + v.lineality]
                + [_vec_text(r) + str(beta) for r, beta in zip(h2.a + proj.a, h2.b + proj.b)]
            )
        if kind == "cancel":
            return f"{kind} {rec['sums']} {rec['bases']}"
        g = rec["g"]
        return " ".join([kind] + [_vec_text(x) for x in g.compact.vertices + g.cone.generators])

    def decided(self, rec):
        return True

    def check(self, lib, item, rec):
        kind = item["kind"]
        problems = []
        if kind == "hpoly":
            h, v, h2, proj = item["h"], rec["v"], rec["h2"], rec["proj"]
            v3 = lib.polyhedra.dd_convert(h2)
            if set(v3.vertices) != set(v.vertices) or set(v3.rays) != set(v.rays):
                problems.append("H -> V -> H -> V changed the generators")
            for form in (h, h2):
                if not all(exact.satisfies(form.a, form.b, x) for x in v.vertices):
                    problems.append("a vertex violates an H-form")
                if not all(exact.dot(r, d) <= 0 for r in form.a for d in v.rays):
                    problems.append("a ray leaves a recession cone")
                if not all(exact.dot(r, d) == 0 for r in form.a for d in v.lineality):
                    problems.append("a lineality vector is not a line of an H-form")
            if not exact.satisfies(h2.a, h2.b, item["x0"]):
                problems.append("the round trip lost a feasible point")
            idx = [cidx - 1 for cidx in item["coords"]]
            image = [tuple(x[j] for j in idx) for x in (item["x0"],) + v.vertices]
            if not all(exact.satisfies(proj.a, proj.b, y) for y in image):
                problems.append("a projected point violates the projection")
        elif kind == "cancel":
            # A, B convex and K compact: A + K <= B + K iff A <= B
            if rec["sums"] != rec["bases"]:
                problems.append("cancellation law violated")
        else:
            f, basis, g = item["f"], item["basis"], rec["g"]
            l = item["l"]
            for x in g.compact.vertices + g.cone.generators:
                if any(exact.dot(row, x) != beta for row, beta in zip(l.a, l.b)):
                    problems.append("a generator of the section leaves the subspace")
                    break
            stacked = lib.polyhedra.dd_convert(lib.motzkin.motzkin_to_vpoly(f))
            recomposed = lib.polyhedra.dd_convert(lib.motzkin.motzkin_to_vpoly(g))
            for t in item["samples"]:
                x = tuple(sum((ti * bj[k] for ti, bj in zip(t, basis)), F(0)) for k in range(len(basis[0])))
                if exact.satisfies(stacked.a, stacked.b, x) != exact.satisfies(recomposed.a, recomposed.b, x):
                    problems.append("section membership disagrees on a sampled point")
                    break
        return problems


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

# criterion 9's table: (attainment label, quasi-attainment label)
CLASSIFICATION = {
    "luo_zhang_ex1": ("NotFW", "qFW"),
    "epigraph_exp": ("NotFW", "qFW"),
    "hyperbola_set": ("NotFW", "NotQFW"),
    "ice_cream_cut": ("NotFW", "NotQFW"),
    "cylinder_parabolic": ("NotFW", "qFW"),
    "luo_zhang_theorem": ("FW", "qFW"),
    "program_p": ("FW", "qFW"),
    "parabola": ("FW", "qFW"),
    "orthant": ("FW", "qFW"),
}

# criterion 8's batteries: hyperplanes (normal, value) and projections
COHERENCE = {
    "hyperbola_set": ([((0, 1), 0), ((1, 0), 0)], [[1], [2]]),
    "ice_cream_cut": ([((1, -1), 0)], [[1], [2], ("functional", (1, -1))]),
    "epigraph_exp": ([((0, 1), 0)], [[1], [2]]),
    "luo_zhang_ex1": ([((0, 0, 1, 0), -1)], [[1], [2], [3], [4]]),
    "cylinder_parabolic": ([((0, 0, 0, 1), -1)], [[1], [2], [3], [4]]),
    "parabola": ([((0, 1), -1), ((-1, 1), -5)], [[1], [2]]),
    "orthant": ([((0, 1), -1), ((1, -1), 5)], [[1], [2]]),
}
MUST_HAVE_ASYMPTOTE = {"hyperbola_set", "ice_cream_cut"}
NO_ASYMPTOTE = {"parabola", "orthant", "epigraph_exp", "luo_zhang_ex1", "cylinder_parabolic"}
# sets on which is_f_asymptote must never answer True
NEVER_ASYMPTOTE = {"parabola", "orthant"}
PLANE_SETS = ("hyperbola_set", "ice_cream_cut", "parabola", "orthant", "epigraph_exp")


class Diagnostics:
    """Gallery replays, the criterion-9 classification table, criterion-8
    coherence of asymptotes and projections, and seeded batteries of
    rational lines for ``is_f_asymptote`` on the planar gallery sets and on
    random planar polyhedra.  A 47-item block holds 9 replays, 11
    classifications, 7 coherence items and 20 asymptote items, shuffled."""

    name = "diagnostics"
    pool_size = 470
    trace_items = 282

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        sets = lib.gallery.case_sets()
        items = []
        for _ in range(self.pool_size // 47):
            block = [("replay", name) for name in sorted(CLASSIFICATION)]
            block += [("classify", name) for name in sorted(CLASSIFICATION)]
            block += [("classify_motzkin", "polyhedral"), ("classify_motzkin", "second_order")]
            block += [("coherence", name) for name in sorted(COHERENCE)]
            for j in range(20):
                normal = (0, 0)
                while not any(normal):
                    normal = tuple(rng.randint(-3, 3) for _ in range(2))
                plane = (normal, rng.randint(-4, 4))
                if j % 2:
                    rows, rhs, _ = _random_feasible_rows(rng, 2, rng.randint(2, 4))
                    block.append(("asymptote", ("polyhedron", rows, rhs), plane))
                else:
                    block.append(("asymptote", rng.choice(PLANE_SETS), plane))
            rng.shuffle(block)
            for task in block:
                name = task[1]
                if isinstance(name, tuple):
                    fset = lib.polyhedra.HPolyhedron(name[1], name[2], 2)
                else:
                    fset = sets.get(name)
                items.append({"task": task, "set": fset})
        return items

    def run(self, lib, item):
        task = item["task"]
        A = lib.asymptotes
        kind = task[0]
        if kind == "replay":
            report = lib.gallery.run_case(task[1])
            return {"kind": kind, "passed": report.passed, "checks": len(report.checks)}
        if kind == "classify":
            fset = item["set"]
            return {"kind": kind, "labels": (A.classify_fw_set(fset).label, A.classify_qfw(fset).label)}
        if kind == "classify_motzkin":
            M = lib.motzkin
            if task[1] == "polyhedral":
                square = M.PolytopeK.build([(0, 0), (1, 0), (0, 1), (1, 1)])
                fset = M.MotzkinSet(square, lib.polyhedra.PolyCone.from_generators([(1, 0), (0, 1)]))
            else:
                soc = M.SecondOrderCone.build(3, (0, 0, 1), F(1, 2))
                fset = M.MotzkinSet(M.PolytopeK.build([(0, 0, 0)]), soc)
            return {"kind": kind, "labels": (M.classify_fw(fset).label, A.classify_qfw(fset).label)}
        if kind == "coherence":
            fset = item["set"]
            planes, projections = COHERENCE[task[1]]
            hyper = lib.affine.AffineManifold.hyperplane
            asym = [A.is_f_asymptote(fset, hyper(nv, beta)) for nv, beta in planes]
            flags = []
            for proj in projections:
                if isinstance(proj, tuple):
                    flags.append(A.image_closed_1d(fset, proj[1])[0])
                else:
                    flags.append(A.projection_closed(fset, proj)[0])
            return {"kind": kind, "asym": asym, "closed": flags}
        normal, beta = task[2]
        m = lib.affine.AffineManifold.hyperplane(normal, beta)
        return {"kind": kind, "asym": A.is_f_asymptote(item["set"], m)}

    def key(self, rec):
        return " ".join(f"{k}={rec[k]}" for k in sorted(rec))

    def decided(self, rec):
        kind = rec["kind"]
        if kind == "replay":
            return True
        if kind in ("classify", "classify_motzkin"):
            return "Unknown" not in rec["labels"]
        if kind == "coherence":
            return None not in rec["asym"] and None not in rec["closed"]
        return rec["asym"] is not None

    def check(self, lib, item, rec):
        task = item["task"]
        kind = task[0]
        if kind == "replay":
            return [] if rec["passed"] else [f"gallery case {task[1]} failed"]
        if kind == "classify":
            want = CLASSIFICATION[task[1]]
            return [] if rec["labels"] == want else [f"classification {rec['labels']} != {want}"]
        if kind == "classify_motzkin":
            want = ("FW", "qFW") if task[1] == "polyhedral" else ("NotFW", "NotQFW")
            return [] if rec["labels"] == want else [f"classification {rec['labels']} != {want}"]
        if kind == "coherence":
            name = task[1]
            has_asym = any(v is True for v in rec["asym"])
            problems = []
            if None in rec["closed"]:
                problems.append("a projection verdict is undecided")
            elif has_asym == all(rec["closed"]):
                problems.append("asymptote and projection verdicts disagree")
            if name in MUST_HAVE_ASYMPTOTE and not has_asym:
                problems.append("a required asymptote was not found")
            if name in NO_ASYMPTOTE and has_asym:
                problems.append("an asymptote was reported where none exists")
            return problems
        name = task[1]
        if rec["asym"] is True and (isinstance(name, tuple) or name in NEVER_ASYMPTOTE):
            return ["is_f_asymptote answered True on a set without flat asymptotes"]
        return []


# classes, so that each run builds its own workload object
WORKLOADS = {w.name: w for w in (AttainDesk, TwoLevel, PolyCalculus, Diagnostics)}
