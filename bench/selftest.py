"""Self-test of the benchmark: live output checks and determinism.

    python3 bench/selftest.py

1. Every output checker accepts a real verdict and rejects corrupted copies
   of it: a value off by +1, a point moved off the set, a flipped label.
2. Two set-ups from the same seed give identical verdict digests (for
   ``two_level`` the digest covers the CLI JSON byte for byte) and identical
   per-layer counts; a different seed gives different inputs.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
from fractions import Fraction

import exact
import run
from layers import Tracer

F = Fraction
SEED = 7
# items per determinism pass; prefixes of the pools, so they stay cheap
DETERMINISM_ITEMS = {"attain_desk": 60, "two_level": 48, "poly_calculus": 48, "diagnostics": 47}
COUNTS = ("calls", "subsets", "pieces", "pieces_per_subset", "empty_share", "face_subsets",
          "rows_in", "rays_out", "optimal_share", "phi_evals", "trace.spans")

failures: list[str] = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def first(wl, lib, pool, want, limit=200):
    """The first (item, record) among the pool's first ``limit`` items whose
    record satisfies ``want``."""
    for item in pool[:limit]:
        rec = wl.run(lib, item)
        if want(rec):
            return item, rec
    raise LookupError(f"{wl.name}: no item of the wanted kind")


def rejected(wl, lib, item, rec, what):
    expect(bool(wl.check(lib, item, rec)), f"{wl.name}: {what} is rejected")


def off_rows(x, rows, rhs):
    """x moved just outside the first row of ``rows . x <= rhs``."""
    row, beta = rows[0], rhs[0]
    t = (beta - exact.dot(row, x) + 1) / exact.dot(row, row)
    return tuple(xi + t * ri for xi, ri in zip(x, row))


def live_attain(wl, lib, pool):
    item, rec = first(wl, lib, pool, lambda r: r["kind"] == "attained")
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real attained verdict passes")
    rejected(wl, lib, item, {**rec, "value": rec["value"] + 1}, "value + 1")
    rejected(wl, lib, item, {**rec, "point": off_rows(rec["point"], item["rows"], item["rhs"])},
             "witness moved off the set")
    zero = tuple(F(0) for _ in rec["point"])
    rejected(wl, lib, item, {"kind": "unbounded", "mot": rec["mot"], "base": rec["point"],
                             "direction": zero}, "attained flipped to unbounded")

    item, rec = first(wl, lib, pool, lambda r: r["kind"] == "unbounded")
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real unbounded verdict passes")
    rejected(wl, lib, item, {**rec, "base": off_rows(rec["base"], item["rows"], item["rhs"])},
             "ray base moved off the set")
    a, b, c = item["abc"]
    rejected(wl, lib, item, {"kind": "attained", "mot": rec["mot"], "point": rec["base"],
                             "value": exact.q_value(a, b, c, rec["base"])},
             "unbounded flipped to attained")


def live_two_level(wl, lib, pool):
    for kind in ("points", "ball"):
        item, rec = _two_level_first(wl, lib, pool, kind)
        expect(not wl.check(lib, item, rec), f"{wl.name}: a real {kind} verdict passes")
        report = rec["report"]
        value = F(report["value"])
        plus = {**report, "value": str(value + 1)}
        rejected(wl, lib, item, {**rec, "report": plus}, f"{kind} value + 1")
        moved = [str(F(s) + 1) for s in report["point"]]
        rejected(wl, lib, item, {**rec, "report": {**report, "point": moved}},
                 f"{kind} witness moved")
        flipped = {"verdict": "unbounded_below", "base": report["point"],
                   "direction": ["0"] * len(report["point"])}
        rejected(wl, lib, item, {**rec, "report": flipped}, f"{kind} attained flipped to unbounded")


def _two_level_first(wl, lib, pool, kind):
    for item in pool[:96]:
        if item["kind"] != kind:
            continue
        rec = wl.run(lib, item)
        if rec["report"]["verdict"] == "attained":
            return item, rec
    raise LookupError(f"two_level: no attained {kind} verdict")


def live_poly(wl, lib, pool):
    P = lib.polyhedra
    item, rec = first(wl, lib, pool, lambda r: r["kind"] == "hpoly" and len(r["v"].vertices) > 1)
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real round trip passes")
    v = rec["v"]
    dropped = P.VPolyhedron(v.vertices[1:], v.rays, v.lineality, v.dim)
    rejected(wl, lib, item, {**rec, "v": dropped}, "round trip with a vertex dropped")
    h = item["h"]
    moved = P.VPolyhedron((off_rows(v.vertices[0], h.a, h.b),) + v.vertices[1:],
                          v.rays, v.lineality, v.dim)
    rejected(wl, lib, item, {**rec, "v": moved}, "vertex moved off the set")

    item, rec = first(wl, lib, pool, lambda r: r["kind"] == "cancel")
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real cancellation verdict passes")
    rejected(wl, lib, item, {**rec, "bases": not rec["bases"]}, "cancellation label flipped")

    # a proper subspace, so that a normal of L moves a vertex off it
    item = next(it for it in pool if it["kind"] == "section" and it["l"].a)
    rec = wl.run(lib, item)
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real section passes")
    g = rec["g"]
    shift = item["l"].a[0]
    verts = (tuple(x + s for x, s in zip(g.compact.vertices[0], shift)),) + g.compact.vertices[1:]
    bad = lib.motzkin.MotzkinSet(lib.motzkin.PolytopeK(verts, g.dim), g.cone)
    rejected(wl, lib, item, {**rec, "g": bad}, "section vertex moved off the subspace")


def live_diagnostics(wl, lib, pool):
    def find(kind, name=None):
        for item in pool:
            task = item["task"]
            if task[0] == kind and (name is None or task[1] == name):
                return item, wl.run(lib, item)
        raise LookupError(kind)

    item, rec = find("replay")
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real replay passes")
    rejected(wl, lib, item, {**rec, "passed": False}, "replay flipped to failed")
    item, rec = find("classify")
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real classification passes")
    fw, qfw = rec["labels"]
    flip = {"FW": "NotFW", "NotFW": "FW"}[fw]
    rejected(wl, lib, item, {**rec, "labels": (flip, qfw)}, "classification label flipped")
    item, rec = find("coherence", "hyperbola_set")
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real coherence verdict passes")
    rejected(wl, lib, item, {**rec, "closed": [True] * len(rec["closed"])},
             "projection verdicts flipped to closed")
    item, rec = find("asymptote", "parabola")
    expect(not wl.check(lib, item, rec), f"{wl.name}: a real asymptote verdict passes")
    rejected(wl, lib, item, {**rec, "asym": True}, "asymptote on the parabola")


LIVENESS = {"attain_desk": live_attain, "two_level": live_two_level,
            "poly_calculus": live_poly, "diagnostics": live_diagnostics}


def traced_pass(wl, seed, workdir, count):
    _, lib, pool = run.set_up(wl, seed, workdir)
    tracer = Tracer()
    tracer.install()
    recs = []
    try:
        for idx, item in enumerate(pool[:count]):
            _, rec, err = run.run_item(wl, lib, item)
            recs.append(run.record(wl, idx, rec, err))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1.0)
    counts = {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTS or k in COUNTS}
    return run.digest(recs), counts, input_digest(wl, pool)


def input_digest(wl, pool):
    h = hashlib.sha256()
    for item in pool:
        for key in sorted(item):
            if key == "paths":
                for path in item[key]:
                    with open(path, "rb") as fh:
                        h.update(fh.read())
            else:
                h.update(f"{key}={item[key]!r}\n".encode())
    return h.hexdigest()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workroot = run.ROOT / ".bench_run" / f"selftest-{os.getpid()}"
    try:
        for name, cls in run.WORKLOADS.items():
            wl = cls()
            _, lib, pool = run.set_up(wl, SEED, str(workroot / f"{name}-live"))
            LIVENESS[name](wl, lib, pool)
        for name, cls in run.WORKLOADS.items():
            wl = cls()
            count = DETERMINISM_ITEMS[name]
            d1, c1, i1 = traced_pass(wl, SEED, str(workroot / f"{name}-a"), count)
            d2, c2, i2 = traced_pass(wl, SEED, str(workroot / f"{name}-b"), count)
            _, lib, pool = run.set_up(wl, SEED + 1, str(workroot / f"{name}-c"))
            i3 = input_digest(wl, pool)
            expect(i1 == i2, f"{name}: same seed, same inputs")
            expect(d1 == d2, f"{name}: same seed, same verdict digest over {count} items")
            expect(c1 == c2, f"{name}: same seed, same per-layer counts ({len(c1)} metrics)")
            expect(i3 != i1, f"{name}: another seed changes the inputs")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
