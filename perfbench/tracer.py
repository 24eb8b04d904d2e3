"""Span tracer for the layers of carpetcurl, installed from outside the package.

``Tracer.install()`` wraps every public function of the layer modules at
every module binding inside ``carpetcurl`` (``clip_convex`` is bound in
``geometry``, ``fields``, ``forms`` and ``witness``; wrapping only the
defining module would miss the calls made through the other names), plus the
public methods of ``Prefractal``.  Each call records one span (name, start,
end, parent) in flat in-memory arrays; ``write`` saves them once the run is
over and ``metrics`` turns them into per-layer metrics.

A few boundaries also record what passed through them: the region given to
``Prefractal.integrate``, the sizes seen by ``refine_pairs``, the polygon
``clip_convex`` returned and the sizes of each built stage.  Only references
and lengths are kept during the run; anything that costs arithmetic is
computed afterwards, so the counting does not inflate the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("carpet", "fields", "geometry", "witness", "forms", "report")
METHOD_CLASSES = {"carpet": ("Prefractal",)}

# metric prefix -> span name; each gets _calls, _s (inclusive) and _self_s
FUNCTIONS = {
    "carpet.integrate": "carpet.Prefractal.integrate",
    "carpet.column_obstacles": "carpet.column_obstacles",
    "fields.refine_pairs": "fields.refine_pairs",
    "fields.product_with_gradient": "fields.product_with_gradient",
    "fields.dirichlet_energy": "fields.dirichlet_energy",
    "fields.l2_norm_sq": "fields.l2_norm_sq",
    "geometry.clip_convex": "geometry.clip_convex",
    "witness.build_stage": "witness.build_stage",
    "witness.build_tents": "witness.build_tents",
    "witness.build_flattened": "witness.build_flattened",
    "witness.build_cell_field": "witness.build_cell_field",
    "witness.check_local_constancy": "witness.check_local_constancy",
    "witness.curl_defect_sq": "witness.curl_defect_sq",
    "witness.vertical_defect_sq": "witness.vertical_defect_sq",
    "forms.verify_wedge": "forms.verify_wedge_approximation",
    "forms.build_cutoff_form": "forms.build_cutoff_form",
    "forms.norm_sq_one": "forms.norm_sq_one",
    "forms.norm_sq_two": "forms.norm_sq_two",
    "forms.inner_one": "forms.inner_one",
    "forms.inner_two": "forms.inner_two",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.regions = []        # region argument of each Prefractal.integrate call
        self.refine_sizes = []   # (len a, len b, len result) of each refine_pairs call
        self.clips = []          # result of each clip_convex call
        self.stage_sizes = []    # (n, tents, flattened patches, witness pieces)

    def wrap(self, name, fn, observe=None):
        code = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observers(self):
        regions, refine, clips, stages = (self.regions, self.refine_sizes,
                                          self.clips, self.stage_sizes)

        def integrate(args, kwargs, result):
            regions.append(args[1] if len(args) > 1 else kwargs["region"])

        def refine_pairs(args, kwargs, result):
            refine.append((len(args[0]), len(args[1]), len(result)))

        def clip_convex(args, kwargs, result):
            clips.append(result)

        def build_stage(args, kwargs, result):
            stages.append((result.n, len(result.tents), len(result.flattened.patches),
                           len(result.witness.pieces)))

        return {"carpet.Prefractal.integrate": integrate,
                "fields.refine_pairs": refine_pairs,
                "geometry.clip_convex": clip_convex,
                "witness.build_stage": build_stage}

    def install(self):
        """Wrap the layer functions in every loaded ``carpetcurl`` module."""
        observers = self._observers()
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"carpetcurl.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self.wrap(name, obj, observers.get(name))
            for cls_name in METHOD_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    setattr(cls, attr, self.wrap(name, obj, observers.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "carpetcurl" and not mod_name.startswith("carpetcurl."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        return self

    def write(self, path):
        """Save the spans as JSON: span i is (names[name[i]], start[i], end[i], parent[i])."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.span_name.tolist(),
                       "start": self.span_start.tolist(), "end": self.span_end.tolist(),
                       "parent": self.span_parent.tolist()}, fh, separators=(",", ":"))

    def span_times(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; in one thread the children are disjoint and inside the parent.
        """
        starts, ends = self.span_start, self.span_end
        child_time = [0.0] * len(starts)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, code in enumerate(self.span_name):
            d = ends[i] - starts[i]
            calls[code] += 1
            total[code] += d
            self_s[code] += d - child_time[i]
        return {name: (calls[code], total[code], self_s[code])
                for code, name in enumerate(self.names)}

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        from carpetcurl import geometry

        polygon_area = inspect.unwrap(geometry.polygon_area)
        times = self.span_times()
        out = {}
        for prefix, span in FUNCTIONS.items():
            calls, total, self_s = times.get(span, (0, 0.0, 0.0))
            out[f"{prefix}_calls"] = (calls, "count")
            out[f"{prefix}_s"] = (total, "s")
            out[f"{prefix}_self_s"] = (self_s, "s")
        for layer in LAYERS:
            rows = [v for k, v in times.items() if k.startswith(layer + ".")]
            out[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
            out[f"{layer}.self_s"] = (sum(r[2] for r in rows), "s")
        out["report.emit_s"] = (sum(times.get(f"report.{f}", (0, 0.0, 0.0))[1]
                                    for f in ("report_to_csv", "report_to_json")), "s")

        calls = len(self.regions)
        unique = len({tuple(map(tuple, r)) for r in self.regions})
        out["carpet.integrate_unique_regions"] = (unique, "count")
        out["carpet.integrate_reuse_ratio"] = (unique / calls if calls else 0.0, "ratio")
        out["fields.refine_pairs_input_pairs"] = (sum(a * b for a, b, _ in self.refine_sizes),
                                                  "count")
        out["fields.refine_pairs_pieces"] = (sum(p for _, _, p in self.refine_sizes), "count")
        useful = sum(1 for c in self.clips if c and polygon_area(c) > 0)
        out["geometry.clip_useful_ratio"] = (useful / len(self.clips) if self.clips else 0.0,
                                             "ratio")
        # construction sizes of the largest stage built
        last = max(self.stage_sizes, default=(0, 0, 0, 0))
        out["witness.tents"] = (last[1], "count")
        out["witness.flattened_patches"] = (last[2], "count")
        out["witness.witness_pieces"] = (last[3], "count")
        return out
