"""fwsets benchmark: one seeded workload, closed loop, checked verdicts.

    python3 bench/run.py --workload attain_desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics: set-up (repeated, median),
then items sent one at a time, each after the previous verdict returned,
until ``--seconds`` of item time at the reference speed have passed (or
``WALL_CAP`` times that in wall time) and at least ``MIN_ITEMS`` verdicts
are in.
Times are reported at a reference machine speed (see :mod:`speed`), with
the wall-clock values beside them.  Verdicts are checked after the timed
loop.  ``--trace 1`` measures the
per-layer metrics instead: one untraced and one traced pass over the same
fixed prefix of the pool, so every count repeats exactly for a seed; a
second untraced pass follows, and the tracing overhead is the traced pass
minus the median untraced pass, both at the reference speed.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a
traced run are written to ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from layers import SPLIT, Tracer, metric_specs
from speed import REF_PROBE_S, SpeedLog
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("affine", "errors", "linalg", "numeric", "polyhedra", "quadratics",
           "cone_qp", "motzkin", "asymptotes", "setops", "documents", "gallery", "cli")
SETUP_REPS = 3
WARM_ITEMS = 2
# enough items that ten lie beyond p95
MIN_ITEMS = 200
# a run stops here even short of MIN_ITEMS, to end well inside 180 s
MAX_LOOP_S = 120.0
# on a slow machine a run stops at this many times --seconds of wall time,
# short of its scaled time, so that a full set of runs keeps its time budget
WALL_CAP = 1.2


def load_library() -> SimpleNamespace:
    """Import ``fwsets`` afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "fwsets" or m.startswith("fwsets.")]:
        del sys.modules[name]
    lib = SimpleNamespace(fwsets=importlib.import_module("fwsets"))
    origin = Path(lib.fwsets.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"fwsets was imported from {origin}, not from {SRC}")
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"fwsets.{name}"))
    return lib


def set_up(wl, seed, workdir):
    """Import, generate the pool (documents included) and warm up."""
    t0 = time.perf_counter()
    lib = load_library()
    pool = wl.generate(lib, seed, workdir)
    for item in pool[:WARM_ITEMS]:
        wl.run(lib, item)
    return time.perf_counter() - t0, lib, pool


def run_item(wl, lib, item):
    """One timed item: (seconds, verdict record or None, error text)."""
    t0 = time.perf_counter()
    try:
        rec, err = wl.run(lib, item), None
    except lib.errors.SizeCapError as exc:
        rec, err = {"kind": "size_cap", "detail": str(exc)}, None
    except Exception as exc:  # the loop must go on; the item counts as failed
        rec, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rec, err


def timed_loop(wl, lib, pool, seconds, speed):
    """Items one after another until ``seconds`` of item time at the
    reference speed are in, so that a seed sees about the same items
    whatever the machine's speed.  Returns the wall latency and
    speed-reading index of each item, its record and the elapsed time."""
    lat, ks, recs = [], [], []
    seen = set()
    start = time.perf_counter()
    ref_s = 0.0
    i = 0
    while True:
        k = speed.sample_if_due()
        idx = i % len(pool)
        dt, rec, err = run_item(wl, lib, pool[idx])
        lat.append(dt)
        ks.append(k)
        # a repeated item keeps only its verdict text, so memory stays flat
        recs.append(record(wl, idx, rec, err, keep=idx not in seen))
        seen.add(idx)
        i += 1
        ref_s += dt * speed.latest_scale()
        elapsed = time.perf_counter() - start
        enough = ref_s >= seconds or elapsed >= WALL_CAP * seconds
        if (enough and i >= MIN_ITEMS) or elapsed >= MAX_LOOP_S:
            return lat, ks, recs, elapsed


def verdict_key(wl, rec, err):
    if err is not None:
        return f"error {err}"
    if rec.get("kind") == "size_cap":
        return "size_cap"
    return wl.key(rec)


def record(wl, idx, rec, err, keep=True):
    return idx, verdict_key(wl, rec, err), rec if keep else None, err


def check_records(wl, lib, pool, recs):
    """(failed, decided, first problems) over every processed item; an item
    met again in a later pass must repeat its first verdict."""
    seen = {}
    failed = decided = 0
    examples = []
    for idx, key, rec, err in recs:
        if err is not None:
            problems, ok = [err], False
        elif idx in seen:
            first_key, problems, ok = seen[idx]
            if first_key != key:
                problems = ["verdict changed between passes"]
        else:
            ok = rec.get("kind") != "size_cap" and wl.decided(rec)
            if rec.get("kind") == "size_cap":
                problems = []
            else:
                try:
                    problems = wl.check(lib, pool[idx], rec)
                except Exception as exc:  # a crashing check fails the item
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            seen[idx] = (key, problems, ok)
        if problems:
            failed += 1
            if len(examples) < 5:
                examples.append(f"item {idx}: {'; '.join(problems)}")
        elif ok:
            decided += 1
    return failed, decided, examples


def digest(recs):
    h = hashlib.sha256()
    for idx, key, _, _ in recs:
        h.update(f"{idx} {key}\n".encode())
    return h.hexdigest()[:16]


def nearest_rank(sorted_values, q):
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def end_to_end(wl, seed, seconds, workroot):
    speed = SpeedLog()
    setups, setups_wall = [], []
    for _ in range(SETUP_REPS):
        # every set-up starts from the same state: the previous one's
        # objects and documents gone
        lib = pool = None
        gc.collect()
        shutil.rmtree(workroot, ignore_errors=True)
        k = speed.sample()
        dt, lib, pool = set_up(wl, seed, str(workroot / "setup"))
        speed.sample()
        setups_wall.append(dt)
        setups.append(dt * speed.scale(k))
    wall_lat, ks, recs, wall = timed_loop(wl, lib, pool, seconds, speed)
    speed.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, decided, examples = check_records(wl, lib, pool, recs)
    lat = [dt * speed.scale(k) for dt, k in zip(wall_lat, ks)]
    n = len(lat)
    ranked = sorted(lat)
    metrics = {
        "verdicts_per_s": n / sum(lat),
        "verdict_p50_ms": statistics.median(lat) * 1000,
        "verdict_p95_ms": nearest_rank(ranked, 0.95) * 1000,
        "decided_share": decided / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    units = {"verdicts_per_s": "1/s", "verdict_p50_ms": "ms", "verdict_p95_ms": "ms",
             "decided_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
    p95 = nearest_rank(ranked, 0.95)
    beyond = sum(1 for x in lat if x > p95)
    wall_ranked = sorted(wall_lat)
    readings = sorted(speed.readings)
    print(f"workload {wl.name}, seed {seed}: closed loop, 1 caller, "
          f"{n} items in {wall:.2f} s (pool {len(pool)})")
    if hasattr(wl, "excluded"):
        print(f"inputs: {wl.drawn} programs drawn, {wl.excluded} left out for more than "
              f"{wl.max_generators} cone generators")
    print(f"speed probe: {len(readings)} readings, {readings[0] * 1e3:.3f} / "
          f"{statistics.median(readings) * 1e3:.3f} / {readings[-1] * 1e3:.3f} ms "
          f"(min / median / max; reference {REF_PROBE_S * 1e3:.3f} ms)")
    print("times below are at the reference speed; wall-clock values in brackets")
    print(f"verdicts_per_s = {metrics['verdicts_per_s']:.4f} 1/s [{n / wall:.4f}]")
    print(f"verdict_p50_ms = {metrics['verdict_p50_ms']:.4f} ms (samples {n}) "
          f"[{statistics.median(wall_lat) * 1e3:.4f}]")
    print(f"verdict_p95_ms = {metrics['verdict_p95_ms']:.4f} ms (samples {n}, {beyond} beyond) "
          f"[{nearest_rank(wall_ranked, 0.95) * 1e3:.4f}]")
    print(f"decided_share = {metrics['decided_share']:.4f} ratio ({decided}/{n})")
    print(f"failed_share = {failed / n:.4f} ratio ({failed}/{n})")
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {', '.join(f'{s:.3f}' for s in setups)}) "
          f"[{statistics.median(setups_wall):.4f}]")
    print(f"peak_rss_mb = {rss_mb:.1f} MB")
    # every run holds MIN_ITEMS items, so this digest compares across runs
    print(f"verdict digest (first {MIN_ITEMS} items): {digest(recs[:MIN_ITEMS])}")
    for line in examples:
        print(f"FAILED {line}")
    emit(failed == 0, n, failed, metrics, units)


def per_layer(wl, seed, workroot):
    _, lib, pool = set_up(wl, seed, str(workroot / "setup"))
    prefix = pool[:wl.trace_items]
    speed = SpeedLog()

    def untraced_pass():
        k = speed.sample()
        t0 = time.perf_counter()
        for item in prefix:
            run_item(wl, lib, item)
        dt = time.perf_counter() - t0
        speed.sample()
        return dt * speed.scale(k)

    before = untraced_pass()
    tracer = Tracer()
    tracer.install()
    recs, item_s = [], 0.0
    k = speed.sample()
    t0 = time.perf_counter()
    try:
        for idx, item in enumerate(prefix):
            dt, rec, err = run_item(wl, lib, item)
            item_s += dt
            recs.append(record(wl, idx, rec, err))
    finally:
        traced = time.perf_counter() - t0
        tracer.uninstall()
    speed.sample()
    traced *= speed.scale(k)
    # the traced pass is bracketed by two untraced ones, all at the
    # reference speed: the machine's speed drifts
    untraced = statistics.median([before, untraced_pass()])
    failed, decided, examples = check_records(wl, lib, pool, recs)

    metrics = tracer.layer_metrics(item_s)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{wl.name}-{seed}"))

    specs = metric_specs()
    print(f"workload {wl.name}, seed {seed}: traced pass over {len(prefix)} items, "
          f"{traced:.2f} s traced vs {untraced:.2f} s untraced (reference speed; "
          f"span times are wall-clock)")
    for name, unit, _ in specs:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    shares = {name.split(".")[-1]: metrics[f"{name}.item_share"] for name in SPLIT}
    print("profile split: " + " / ".join(
        f"{name} {share * item_s:.2f} s ({share:.0%})" for name, share in shares.items())
        + f" of {item_s:.2f} s item time; zero_set_pieces.empty_share "
        f"{metrics['cone_qp.zero_set_pieces.empty_share']:.3f}")
    print(f"verdict digest (all {len(recs)} traced items): {digest(recs)}")
    print(f"decided {decided}/{len(recs)}, failed {failed}/{len(recs)}")
    for line in examples:
        print(f"FAILED {line}")
    emit(failed == 0, len(recs), failed, {name: metrics[name] for name, _, _ in specs},
         {name: unit for name, unit, _ in specs})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fwsets" / "__init__.py").is_file():
        print(f"no fwsets sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()
    workroot = ROOT / ".bench_run" / f"{wl.name}-{os.getpid()}"
    try:
        if args.trace:
            per_layer(wl, args.seed, workroot)
        else:
            end_to_end(wl, args.seed, args.seconds, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
