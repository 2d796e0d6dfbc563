"""Projection through the V-form against the Fourier-Motzkin elimination it
replaced.

``polyhedra.project_fm`` converts to the V-form, keeps the chosen
coordinates of the generators and converts back.  It must give the same set
as eliminating the dropped variables from the inequality system, and its
rows must be irredundant.  The reference below is that elimination, written
out here in Fractions.
"""

import random
from fractions import Fraction

from fwsets.linalg import zeros
from fwsets.polyhedra import HPolyhedron, dd_convert, lp_solve, project_fm

F = Fraction
ZERO = F(0)


# ---------------------------------------------------------------------------
# Fourier-Motzkin reference
# ---------------------------------------------------------------------------


def ref_project(p, coords):
    """Eliminate every column outside ``coords`` (1-based) from ``A x <= b``."""
    keep = [c - 1 for c in sorted(set(coords))]
    rows = [tuple(row) + (rhs,) for row, rhs in zip(p.a, p.b)]
    width = p.dim
    for j in sorted((j for j in range(p.dim) if j not in keep), reverse=True):
        pos = [r for r in rows if r[j] > 0]
        neg = [r for r in rows if r[j] < 0]
        out = [r[:j] + r[j + 1 :] for r in rows if r[j] == 0]
        for rp in pos:
            for rn in neg:
                out.append(tuple(
                    rp[k] * -rn[j] + rn[k] * rp[j] for k in range(width + 1) if k != j
                ))
        rows = ref_prune(out)
        width -= 1
    return HPolyhedron(
        tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows), len(keep)
    )


def ref_prune(rows):
    """Scale each row so its first nonzero coefficient is +-1, keep the
    tightest right-hand side per direction, drop rows 0 <= beta >= 0."""
    best = {}
    for row in rows:
        coeffs, beta = row[:-1], row[-1]
        lead = next((abs(c) for c in coeffs if c != 0), None)
        if lead is None:
            if beta < 0:
                best[coeffs] = min(beta, best.get(coeffs, beta))
            continue
        key = tuple(c / lead for c in coeffs)
        best[key] = min(beta / lead, best.get(key, beta / lead))
    return [key + (beta,) for key, beta in best.items()]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def _projection_cases():
    """Seeded H-polyhedra in R^2..R^5 with kept coordinates.

    Every fourth input has a line: along a dropped axis (it vanishes in the
    image), or along a small integer direction (it usually survives).
    Every seventh is made infeasible by a pair of opposite rows.
    """
    rng = random.Random(20261018)
    cases = []
    for i in range(160):
        n = 2 + i % 4
        m = rng.randint(n, n + 3 if n < 5 else n + 2)
        coords = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        if i % 4 == 1:
            dropped = [c for c in range(n) if c + 1 not in coords]
            line = [F(int(k == rng.choice(dropped))) for k in range(n)]
        elif i % 4 == 3:
            line = [F(rng.randint(-1, 2)) for _ in range(n)]
        else:
            line = None
        if line is not None and any(line):
            ll = _dot(line, line)
            rows = [[ll * x - _dot(r, line) * y for x, y in zip(r, line)] for r in rows]
        rhs = [F(rng.randint(-1, 4)) for _ in rows]
        if i % 7 == 5:
            a = [F(rng.randint(-2, 2)) for _ in range(n)]
            rows += [a, [-x for x in a]]
            rhs += [F(-1), F(-1)]
        cases.append((HPolyhedron(rows, rhs, n), coords))
    return cases


def generators_inside(v, h):
    """Whether the V-form ``v`` lies in the H-form ``h``: its vertices
    satisfy every row, its rays point inward and its lines are parallel."""
    return (
        all(_dot(a, x) <= beta for x in v.vertices for a, beta in zip(h.a, h.b))
        and all(_dot(a, r) <= 0 for r in v.rays for a in h.a)
        and all(_dot(a, d) == 0 for d in v.lineality for a in h.a)
    )


def feasible_point(p):
    """A point of p, or None when p is empty: the LP with zero cost."""
    res = lp_solve(p.a, p.b, zeros(p.dim))
    return res.x if res.status == "optimal" else None


def rows_implied(inner, outer):
    """Whether the set of ``inner`` lies in the set of ``outer``, by one LP
    per row of ``outer``: max a.x over ``inner`` stays <= beta."""
    for row, beta in zip(outer.a, outer.b):
        res = lp_solve(inner.a, inner.b, tuple(-x for x in row))
        if res.status == "infeasible":
            return True
        if res.status == "unbounded" or -res.value > beta:
            return False
    return True


# ---------------------------------------------------------------------------
# the test
# ---------------------------------------------------------------------------


def test_projection_matches_fourier_motzkin_with_irredundant_rows():
    shapes = {"empty": 0, "unbounded": 0, "line kept": 0, "line dropped": 0,
              "ray vanishes": 0}
    rows_ref = rows_new = 0
    for p, coords in _projection_cases():
        v = dd_convert(p)
        idx = [c - 1 for c in coords]
        kept = [[d[j] for j in idx] for d in v.lineality]
        shapes["empty"] += v.is_empty
        shapes["unbounded"] += bool(v.rays or v.lineality)
        shapes["line kept"] += any(any(d) for d in kept)
        shapes["line dropped"] += any(not any(d) for d in kept)
        shapes["ray vanishes"] += any(not any(r[j] for j in idx) for r in v.rays)

        q = project_fm(p, coords)
        ref = ref_project(p, coords)
        assert q.dim == ref.dim == len(coords)
        qv = dd_convert(q)
        assert generators_inside(qv, ref) and rows_implied(ref, q), (p, coords)
        assert len(dd_convert(qv).a) == len(q.a)
        assert len(set(zip(q.a, q.b))) == len(q.a)
        if v.is_empty:
            assert q.a == ((ZERO,) * len(coords),) and q.b == (F(-1),)
        rows_ref += len(ref.a)
        rows_new += len(q.a)
    assert all(count >= 5 for count in shapes.values()), shapes
    assert rows_new < rows_ref


def test_projection_of_a_wide_v_form():
    # a seeded input in R^7, 11 random rows around a feasible integer point,
    # projected onto 5 coordinates: its V-form has 92 generators, and the
    # conversion is limited by its work, not by that count.  The image holds
    # every point the kept coordinates of those generators span, and a
    # point x lies in it iff its fiber, the dropped coordinates y with
    # (x, y) in p, is nonempty.
    rng = random.Random(1007)
    x0 = [rng.randint(-3, 3) for _ in range(7)]
    m = rng.randint(9, 17)
    rows = [[rng.randint(-4, 4) for _ in range(7)] for _ in range(m)]
    rhs = [_dot(r, x0) + rng.randint(0, 5) for r in rows]
    coords = sorted(rng.sample(range(1, 8), rng.randint(1, 6)))
    p = HPolyhedron(rows, rhs)
    v = dd_convert(p)
    assert (len(v.vertices), len(v.rays), v.lineality) == (49, 43, ())
    q = project_fm(p, coords)
    idx = [c - 1 for c in coords]
    dropped = [j for j in range(7) if j not in idx]
    vertices = [tuple(x[j] for j in idx) for x in v.vertices]
    rays = [tuple(r[j] for j in idx) for r in v.rays]
    inside = 0
    for _ in range(40):
        a, b = rng.sample(vertices, 2)
        t = F(rng.randint(0, 4), 4)
        point = [x + t * (y - x) for x, y in zip(a, b)]
        for r in rng.sample(rays, 3):
            c = rng.randint(0, 2)
            point = [x + c * y for x, y in zip(point, r)]
        assert q.contains(tuple(point))
        x = tuple(round(xi) + rng.randint(-2, 2) for xi in point)
        fiber = HPolyhedron(
            [[r[j] for j in dropped] for r in rows],
            [beta - sum(r[j] * xi for j, xi in zip(idx, x)) for r, beta in zip(rows, rhs)],
        )
        assert q.contains(x) == (feasible_point(fiber) is not None), x
        inside += q.contains(x)
    assert 5 <= inside <= 35, inside
