"""Layer spans recorded from outside the library.

:func:`install` replaces each listed library function with a wrapper that
records a span (name, start, end, parent) in memory.  ``from .linalg import
rref`` binds the function object into the importing module, so the wrapper
replaces the name in every ``fwsets`` module namespace that holds the
original object; methods are replaced on their class.  :func:`uninstall`
puts the originals back.  Fine-grained helpers (``dot``, ``matvec``,
``Fraction``) are never wrapped: the cost of a span would swamp them.

Self time is a span's duration minus the durations of its direct child
spans.  Quantities such as ``zero_set_pieces.subsets`` are computed from
arguments and return values only, so they repeat exactly for a seed.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from math import comb

# (module, function) for every traced layer; "calls" and "self_s" are
# reported for each.  Quadratic.evaluate is counted, not timed.
LAYERS = (
    ("cone_qp", "dom_f"),
    ("cone_qp", "zero_set_pieces"),
    ("cone_qp", "ConeProgram.minimize"),
    ("cone_qp", "minimize_over_hpolyhedron"),
    ("motzkin", "decompose"),
    ("motzkin", "minimize_on_motzkin"),
    ("polyhedra", "cone_h_to_v"),
    ("polyhedra", "dd_convert"),
    ("polyhedra", "project_fm"),
    ("polyhedra", "minkowski_sum"),
    ("polyhedra", "lp_solve"),
    ("setops", "order_cancellation_check"),
    ("setops", "intersect_subspace_motzkin"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "kernel_basis"),
    ("documents", "parse"),
    ("cli", "main"),
    ("asymptotes", "is_f_asymptote"),
    ("asymptotes", "classify_fw_set"),
    ("asymptotes", "classify_qfw"),
    ("asymptotes", "projection_closed"),
    ("asymptotes", "image_closed_1d"),
    ("numeric", "sqrt_bounds"),
    ("numeric", "exp_bounds"),
    ("gallery", "run_case"),
)
COUNTED = (("quadratics", "Quadratic.evaluate"),)

COMPACT_KIND = {"Ball": "ball", "FinitePointSet": "points", "PolytopeK": "polytope"}

# inclusive times that make up the profile split of attain_desk
SPLIT = ("cone_qp.dom_f", "cone_qp.minimize_over_hpolyhedron", "motzkin.decompose")

# quantity metrics beyond calls and self_s: name -> (unit, better)
QUANTITIES = {
    "cone_qp.zero_set_pieces.subsets": ("count", "lower"),
    "cone_qp.zero_set_pieces.pieces": ("count", "lower"),
    "cone_qp.zero_set_pieces.pieces_per_subset": ("ratio", "higher"),
    "cone_qp.zero_set_pieces.empty_share": ("ratio", "higher"),
    "cone_qp.minimize_over_hpolyhedron.face_subsets": ("count", "lower"),
    "polyhedra.cone_h_to_v.rows_in": ("count", "lower"),
    "polyhedra.cone_h_to_v.rays_out": ("count", "lower"),
    "polyhedra.lp_solve.optimal_share": ("ratio", "higher"),
    "quadratics.Quadratic.evaluate.calls": ("count", "lower"),
    "motzkin.ball.phi_evals": ("count", "lower"),
    "motzkin.minimize_on_motzkin.ball_s": ("s", "lower"),
    "motzkin.minimize_on_motzkin.points_s": ("s", "lower"),
    "motzkin.minimize_on_motzkin.polytope_s": ("s", "lower"),
    "cone_qp.dom_f.item_share": ("ratio", "lower"),
    "cone_qp.minimize_over_hpolyhedron.item_share": ("ratio", "lower"),
    "motzkin.decompose.item_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, func in LAYERS:
        specs.append((f"{module}.{func}.calls", "count", "lower"))
        specs.append((f"{module}.{func}.self_s", "s", "lower"))
    specs.extend((name, unit, better) for name, (unit, better) in QUANTITIES.items())
    return specs


class Tracer:
    """Spans in flat arrays, parents by index; one active stack."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.tags: dict[int, str] = {}
        self.counts = {"zsp_subsets": 0, "zsp_pieces": 0, "zsp_empty": 0,
                       "face_subsets": 0, "rows_in": 0, "rays_out": 0,
                       "lp_optimal": 0, "evaluate": 0}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, label, fn, after=None, tag=None):
        nid = len(self.names)
        self.names.append(label)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack, clock = self.span_parent, self._stack, time.perf_counter
        tags = self.tags

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if tag is not None:
                tags[idx] = tag(args)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["evaluate"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- quantity hooks -----------------------------------------------------

    def _after_zero_set(self, args, result):
        self.counts["zsp_subsets"] += 2 ** len(args[1].generators)
        self.counts["zsp_pieces"] += len(result)
        self.counts["zsp_empty"] += not result

    def _after_face_qp(self, args, result):
        p = args[1]
        self.counts["face_subsets"] += sum(comb(len(p.a), r) for r in range(min(len(p.a), p.dim) + 1))

    def _after_dd(self, args, result):
        self.counts["rows_in"] += len(args[0])
        self.counts["rays_out"] += len(result[0])

    def _after_lp(self, args, result):
        self.counts["lp_optimal"] += result.status == "optimal"

    # -- install / uninstall ------------------------------------------------

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if name == "fwsets" or name.startswith("fwsets.")]
        hooks = {
            "cone_qp.zero_set_pieces": {"after": self._after_zero_set},
            "cone_qp.minimize_over_hpolyhedron": {"after": self._after_face_qp},
            "polyhedra.cone_h_to_v": {"after": self._after_dd},
            "polyhedra.lp_solve": {"after": self._after_lp},
            "motzkin.minimize_on_motzkin": {"tag": lambda args: COMPACT_KIND.get(
                type(args[1].compact).__name__, "other")},
        }
        for module, func in LAYERS + COUNTED:
            owner = sys.modules[f"fwsets.{module}"]
            label = f"{module}.{func}"
            cls_name, _, attr = func.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                if (module, func) in COUNTED:
                    wrapper = self._counter(orig)
                else:
                    wrapper = self._span(label, orig, **hooks.get(label, {}))
                setattr(cls, attr, wrapper)
                self._patches.append((cls, attr, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._span(label, orig, **hooks.get(label, {}))
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- read-out -------------------------------------------------------------

    def layer_metrics(self, item_s: float) -> dict:
        """Per-layer metrics over every recorded span."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        total_s = [0.0] * n_names
        child = [0.0] * len(self.span_start)
        nid_of = {name: i for i, name in enumerate(self.names)}
        split_ids = {nid_of[name] for name in SPLIT}
        mom = nid_of["motzkin.minimize_on_motzkin"]
        minimize = nid_of["cone_qp.ConeProgram.minimize"]
        ball_bit = 1 << n_names
        # spans are stored in start order, so a parent precedes its children
        masks = [0] * len(self.span_start)
        kind_s = {"ball": 0.0, "points": 0.0, "polytope": 0.0, "other": 0.0}
        ball_solves = phi = 0
        for idx in range(len(self.span_start)):
            nid = self.span_name[idx]
            parent = self.span_parent[idx]
            dur = self.span_end[idx] - self.span_start[idx]
            mask = 0
            if parent >= 0:
                child[parent] += dur
                mask = masks[parent] | (1 << self.span_name[parent])
                if self.tags.get(parent) == "ball":
                    mask |= ball_bit
            masks[idx] = mask
            calls[nid] += 1
            outermost = not mask & (1 << nid)
            if outermost and nid in split_ids:
                total_s[nid] += dur
            if nid == mom and outermost:
                kind_s[self.tags[idx]] += dur
                ball_solves += self.tags[idx] == "ball"
            if nid == minimize and mask & ball_bit:
                phi += 1
        for idx in range(len(self.span_start)):
            dur = self.span_end[idx] - self.span_start[idx]
            self_s[self.span_name[idx]] += dur - child[idx]

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        c = self.counts
        zsp_calls = calls[nid_of["cone_qp.zero_set_pieces"]]
        lp_calls = calls[nid_of["polyhedra.lp_solve"]]
        out["cone_qp.zero_set_pieces.subsets"] = c["zsp_subsets"]
        out["cone_qp.zero_set_pieces.pieces"] = c["zsp_pieces"]
        out["cone_qp.zero_set_pieces.pieces_per_subset"] = (
            c["zsp_pieces"] / c["zsp_subsets"] if c["zsp_subsets"] else 0.0)
        out["cone_qp.zero_set_pieces.empty_share"] = c["zsp_empty"] / zsp_calls if zsp_calls else 0.0
        out["cone_qp.minimize_over_hpolyhedron.face_subsets"] = c["face_subsets"]
        out["polyhedra.cone_h_to_v.rows_in"] = c["rows_in"]
        out["polyhedra.cone_h_to_v.rays_out"] = c["rays_out"]
        out["polyhedra.lp_solve.optimal_share"] = c["lp_optimal"] / lp_calls if lp_calls else 0.0
        out["quadratics.Quadratic.evaluate.calls"] = c["evaluate"]
        out["motzkin.ball.phi_evals"] = phi / ball_solves if ball_solves else 0.0
        for kind in ("ball", "points", "polytope"):
            out[f"motzkin.minimize_on_motzkin.{kind}_s"] = kind_s[kind]
        for name in SPLIT:
            out[f"{name}.item_share"] = total_s[nid_of[name]] / item_s if item_s else 0.0
        out["trace.spans"] = len(self.span_start)
        return out

    def write(self, path_stem: str) -> None:
        """Spans as a JSON header plus the four raw arrays, in that order."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:i", "start:d", "end:d", "parent:i"]}
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)
