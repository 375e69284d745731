"""Span tracing of the clab layers from outside the program.

`Tracer.install` wraps every public function of every clab module and
patches it under every name it is looked up by: the modules import each
other's functions (`from .linprog import project`), so `clab.quiver.project`
and `clab.junior.solve_feasibility` are patched as well as
`clab.linprog.project`.  Each call records a span (name, start, end, parent
span, request id); self time is a span's duration minus the time its child
spans cover.  Spans stay in memory and are written out when the run ends.

A few hooks read counts off arguments and results at the same boundaries,
so ratios are measured where the work happens.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = ("lattice", "surface", "linprog", "junior", "quiver", "thetaspace",
          "cli", "draw")

# Arithmetic leaves called inside every geometric predicate.  They are not
# layer boundaries; their time is self time of the function calling them.
LEAVES = {
    "lattice": {"vec", "vadd", "vsub", "vscale", "dot", "cross2", "cross3",
                "det3", "rat_str", "parse_rat"},
    "junior": {"project_p12"},
    "quiver": {"is_stable"},
    "thetaspace": {"derive_seed"},
}

MAX_SPANS = 200_000


def _modules():
    return {layer: sys.modules[f"clab.{layer}"] for layer in LAYERS}


class Tracer:
    def __init__(self):
        self.names = []        # "layer.function"
        self.index = {}
        self.calls = []
        self.incl = []         # outermost-call duration, recursion counted once
        self.self_time = []
        self.depth = []
        self.stack = []        # frames [child_time, span_id, name_idx]
        self.next_id = 0
        self.request = -1
        self.counts = {}
        self.spans = {k: array(t) for k, t in (
            ("id", "q"), ("parent", "q"), ("name", "H"), ("request", "q"),
            ("start", "d"), ("end", "d"))}
        self.dropped = 0
        self.patches = []
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_start = None
        self._candidates = {}

    # -- installation ------------------------------------------------------

    def install(self):
        mods = _modules()
        wrapped = {}
        for layer, mod in mods.items():
            skip = LEAVES.get(layer, set())
            for name, obj in vars(mod).items():
                if (name.startswith("_") or name in skip or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        targets = list(mods.values()) + [sys.modules["clab"]]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, name, wrapped[id(obj)][1])
                    self.patches.append((mod, name, obj))
        self.originals = {w.__trace_name__: o for o, w in wrapped.values()}
        stable = self.originals["quiver.enumerate_fixed_stable"]
        self._cache_start = stable.cache_info()

    def uninstall(self):
        for mod, name, obj in reversed(self.patches):
            setattr(mod, name, obj)
        self.patches = []
        info = self.originals["quiver.enumerate_fixed_stable"].cache_info()
        self.cache_hits += info.hits - self._cache_start.hits
        self.cache_misses += info.misses - self._cache_start.misses

    def _wrap(self, fn, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            for lst in (self.calls, self.incl, self.self_time, self.depth):
                lst.append(0)
        idx = self.index[name]
        hook = _HOOKS.get(name)
        perf = time.perf_counter
        stack, calls, incl = self.stack, self.calls, self.incl
        self_time, depth = self.self_time, self.depth

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, self.next_id, idx]
            self.next_id += 1
            stack.append(frame)
            depth[idx] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[idx] -= 1
                d = t1 - t0
                calls[idx] += 1
                self_time[idx] += d - frame[0]
                if depth[idx] == 0:
                    incl[idx] += d
                if stack:
                    stack[-1][0] += d
                self._record(frame[1], parent, idx, t0, t1)
            if hook is not None:
                hook(self, args, result, parent)
            return result

        wrapper.__trace_name__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, span_id, parent, idx, t0, t1):
        if len(self.spans["id"]) >= MAX_SPANS:
            self.dropped += 1
            return
        s = self.spans
        s["id"].append(span_id)
        s["parent"].append(-1 if parent is None else parent[1])
        s["name"].append(idx)
        s["request"].append(self.request)
        s["start"].append(t0)
        s["end"].append(t1)

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def candidates_of(self, Q):
        if Q not in self._candidates:
            self._candidates[Q] = len(self.originals["quiver.fixed_candidates"](Q))
        return self._candidates[Q]

    # -- results -----------------------------------------------------------

    def stat(self, name, kind):
        i = self.index.get(name)
        if i is None:
            return 0
        return {"calls": self.calls, "s": self.incl,
                "self_s": self.self_time}[kind][i]

    def layer_self(self, layer):
        return sum(t for n, t in zip(self.names, self.self_time)
                   if n.split(".")[0] == layer)

    def write_spans(self, path):
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(s["id"])):
                fh.write(json.dumps({
                    "id": s["id"][k], "parent": s["parent"][k],
                    "name": self.names[s["name"][k]],
                    "request": s["request"][k],
                    "start": s["start"][k], "end": s["end"][k],
                }) + "\n")
        return len(s["id"])


def _parent_name(tracer, parent):
    return None if parent is None else tracer.names[parent[2]]


def _simplex(tr, args, res, parent):
    n, eqs, ges = args[:3]
    m = len(eqs) + len(ges)
    tr.count("simplex.cells", m * (2 * n + len(ges) + m + 1))
    tr.count("simplex.infeasible", 0 if res.feasible else 1)


def _fm(tr, args, res, parent):
    tr.count("fm.rows_out", len(res[0]) + len(res[1]))
    if _parent_name(tr, parent) == "quiver.moduli_fan_cones":
        tr.count("cones.projected")


def _admissible(tr, args, res, parent):
    tr.count("admissible.found", len(res))
    tr.count("admissible.tried", 2 ** (len(res[-1].rays) - len(res[0].rays)))


def _triangulation(tr, args, res, parent):
    tr.count("triangles", len(res.triangles))


def _candidates(tr, args, res, parent):
    tr.count("candidates", len(res))


def _stable(tr, args, res, parent):
    tr.count("stable", len(res))
    tr.count("stable.candidates", tr.candidates_of(args[0]))


def _cones(tr, args, res, parent):
    tr.count("cones.full_dim", len(res))


def _realize(tr, args, res, parent):
    tr.count("realize.samples_tried", res.samples_tried)
    tr.count("realize.realized", 1 if res.realized else 0)


_HOOKS = {
    "linprog.solve_feasibility": _simplex,
    "linprog.project": _fm,
    "surface.enumerate_admissible_resolutions": _admissible,
    "junior.build_containing_triangulation": _triangulation,
    "quiver.fixed_candidates": _candidates,
    "quiver.enumerate_fixed_stable": _stable,
    "quiver.moduli_fan_cones": _cones,
    "thetaspace.realize_resolution": _realize,
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr, requests, overhead_ratio, setup_fixed_candidates_s):
    """Per-layer metrics.  Times and call counts are per traced request;
    `.cells`, `.rows_out` and `.count` are means per call; ratios are
    ratios of totals (0 when nothing was attempted)."""
    c = tr.counts.get
    per = 1 / requests
    simplex_calls = tr.stat("linprog.solve_feasibility", "calls")
    fm_calls = tr.stat("linprog.project", "calls")
    fc_calls = tr.stat("quiver.fixed_candidates", "calls")
    samples = c("realize.samples_tried", 0)
    m = {
        "lattice.points_in_triangle.s":
            (tr.stat("lattice.lattice_points_in_triangle", "s") * per, "s"),
        "lattice.points_in_triangle.calls":
            (tr.stat("lattice.lattice_points_in_triangle", "calls") * per, "count"),
        "lattice.is_member.calls": (tr.stat("lattice.is_member", "calls") * per, "count"),
        "lattice.primitive.calls":
            (tr.stat("lattice.primitive_in_lattice", "calls") * per, "count"),
        "lattice.self_s": (tr.layer_self("lattice") * per, "s"),
        "surface.admissible.s":
            (tr.stat("surface.enumerate_admissible_resolutions", "s") * per, "s"),
        "surface.admissible.yield":
            (_ratio(c("admissible.found", 0), c("admissible.tried", 0)), "ratio"),
        "surface.make_resolution.calls":
            (tr.stat("surface.make_resolution", "calls") * per, "count"),
        "linprog.simplex.calls": (simplex_calls * per, "count"),
        "linprog.simplex.s": (tr.stat("linprog.solve_feasibility", "s") * per, "s"),
        "linprog.simplex.cells":
            (_ratio(c("simplex.cells", 0), simplex_calls), "cells_computed"),
        "linprog.simplex.infeasible_ratio":
            (_ratio(c("simplex.infeasible", 0), simplex_calls), "ratio"),
        "linprog.fm.calls": (fm_calls * per, "count"),
        "linprog.fm.s": (tr.stat("linprog.project", "s") * per, "s"),
        "linprog.fm.rows_out": (_ratio(c("fm.rows_out", 0), fm_calls), "count"),
        "junior.build_junior.s": (tr.stat("junior.build_junior", "s") * per, "s"),
        "junior.triangulation.s":
            (tr.stat("junior.build_containing_triangulation", "s") * per, "s"),
        "junior.regularity.self_s":
            (tr.stat("junior.regularity_certificate", "self_s") * per, "s"),
        "junior.amp.self_s":
            (tr.stat("junior.amp_restriction_surjective", "self_s") * per, "s"),
        "junior.triangles": (c("triangles", 0) * per, "count"),
        "quiver.fixed_candidates.s":
            (tr.stat("quiver.fixed_candidates", "s") * per, "s"),
        "quiver.fixed_candidates.count":
            (_ratio(c("candidates", 0), fc_calls), "count"),
        "quiver.fixed_candidates.setup_s": (setup_fixed_candidates_s, "s"),
        "quiver.stable.self_s":
            (tr.stat("quiver.enumerate_fixed_stable", "self_s") * per, "s"),
        "quiver.stable_per_candidate":
            (_ratio(c("stable", 0), c("stable.candidates", 0)), "ratio"),
        "quiver.cones.self_s":
            (tr.stat("quiver.moduli_fan_cones", "self_s") * per, "s"),
        "quiver.full_dim_ratio":
            (_ratio(c("cones.full_dim", 0), c("cones.projected", 0)), "ratio"),
        "quiver.stable_cache.hit_ratio":
            (_ratio(tr.cache_hits, tr.cache_hits + tr.cache_misses), "ratio"),
        "thetaspace.sample_generic.s":
            (tr.stat("thetaspace.sample_generic", "s") * per, "s"),
        "thetaspace.sample_generic.calls":
            (tr.stat("thetaspace.sample_generic", "calls") * per, "count"),
        "thetaspace.realize.samples_tried": (samples * per, "count"),
        "thetaspace.realize.yield":
            (_ratio(c("realize.realized", 0), samples), "ratio"),
        "cli.self_s": (tr.stat("cli.run", "self_s") * per, "s"),
        "draw.s": ((tr.stat("draw.svg_triangulation", "s")
                    + tr.stat("draw.dot_triangulation", "s")) * per, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
