"""Run-time span tracer for the carousel package.

The tracer replaces, for the duration of a traced run, public functions of
the package with timing wrappers.  A function is replaced in every
``carousel`` module namespace that binds it, so a call is seen the way the
calling module sees it (``carousel.rule.contained_in_hull``,
``carousel.sectors.support``, ...).  Each call becomes a span with a name,
a start, an end, the span that was open when it started, and the benchmark
operation it belongs to.  Spans are kept in flat arrays in memory and are
written out once, when the run ends.

Span times leave out the benchmark's speed samples, and each op's spans are
scaled to the reference kernel by the same factor as the op's end-to-end
time (harness.SpeedMeter).  Self time of a span is its duration minus the
durations of its direct children; a module's self time is the sum over the
spans it owns.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PAIRS = ("poly_poly", "poly_smooth", "smooth_smooth")
MODULES = ("constructions", "tangency", "bodies", "sectors", "kernel", "rule",
           "sceneio", "render", "cli")

# (span name, defining module, attribute, also wrap calls inside the
# defining module).  A span name starts with the module that owns the time.
# support_dir is only wrapped at cross-module call sites: inside bodies every
# support() call goes through it, and the bodies.support span covers that.
PROBES = (
    ("constructions.generate", "constructions", "generate_fuzz_scene", True),
    ("constructions.generate", "constructions", "generate_integer_scene", True),
    ("constructions.generate", "constructions", "generate_corollary_scene", True),
    ("constructions.generate", "constructions", "sharpness_construct", True),
    ("constructions.scene_as_float", "constructions", "scene_as_float", True),
    ("rule.verify_scene", "rule", "verify_scene", True),
    ("rule.scene_csl", "rule", "scene_csl", True),
    ("rule.bruteforce", "rule", "check_carousel_bruteforce", True),
    ("rule.constructive", "rule", "check_carousel_constructive", True),
    ("rule.cross_validate", "rule", "cross_validate", True),
    ("rule.dichotomy", "rule", "dichotomy_holds", True),
    ("rule.sweep_partition", "rule", "sweep_partition_ok", True),
    ("tangency.csl", "tangency", "common_supporting_lines", True),
    ("tangency.mixed_sign_gaps", "tangency", "mixed_sign_gaps", True),
    ("tangency.slide_turn", "tangency", "slide_turn", True),
    ("bodies.contained_in_hull", "bodies", "contained_in_hull", True),
    ("bodies.bodies_overlap", "bodies", "bodies_overlap", True),
    ("bodies.body_in_polygon", "bodies", "body_in_polygon", True),
    ("bodies.body_contains_point", "bodies", "body_contains_point", True),
    ("bodies.support", "bodies", "support", True),
    ("bodies.support_batch", "bodies", "support_batch", True),
    ("bodies.support_dir", "bodies", "support_dir", False),
    ("sectors.vertex_hit_events", "sectors", "vertex_hit_events", True),
    ("sectors.sector_from_arc", "sectors", "sector_from_arc", True),
    ("sectors.expand_sector", "sectors", "expand_sector", True),
    ("sectors.sweep", "sectors", "sweep", True),
    ("sectors.vertices_between", "sectors", "vertices_between", True),
    ("sectors.boundary_exit", "sectors", "boundary_exit", True),
    ("sectors.clipped", "sectors", "SectorRegion.clipped", True),
    ("sectors.contains_body", "sectors", "SectorRegion.contains_body", True),
    ("kernel.clip", "kernel", "clip", True),
    ("kernel.convex_hull", "kernel", "convex_hull", True),
    ("kernel.intersect_halfplanes", "kernel", "intersect_halfplanes", True),
    ("kernel.point_in_polygon", "kernel", "point_in_polygon", True),
    ("sceneio.load", "sceneio", "load_document", True),
    ("sceneio.load", "sceneio", "scene_from_doc", True),
    ("sceneio.dump", "sceneio", "scene_to_doc", True),
    ("sceneio.dump", "sceneio", "csl_to_doc", True),
    ("sceneio.dump", "sceneio", "certificate_to_doc", True),
    ("sceneio.dump", "sceneio", "trace_to_doc", True),
    ("sceneio.dump", "sceneio", "canonical_dumps", True),
    ("sceneio.dump", "sceneio", "save_document", True),
    ("render.svg", "render", "render_scene_doc", True),
    ("cli.main", "cli", "main", True),
    ("cli.compute_annotations", "cli", "compute_annotations", True),
)

# support evaluations requested by the tangency layer, per wrapped call
_SUPPORT_EVALS = {
    "support": lambda args: 1,
    "support_dir": lambda args: 1,
    "support_batch": lambda args: len(args[1]),
}

_CASE_COUNTERS = {0: "rule.constructive.case0", 1: "rule.constructive.case1",
                  -2: "rule.constructive.fallback"}


def pair_kind(a0, a1) -> str:
    """Body-kind pair of a scene: poly_poly, poly_smooth or smooth_smooth."""
    from carousel.bodies import is_polygonal

    polys = int(is_polygonal(a0)) + int(is_polygonal(a1))
    return PAIRS[2 - polys]


class Tracer:
    """Spans and counters of one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")  # no enclosing span of the same name
        self._stack: list = []
        self._depth: list = []
        self.op_pairs: list = []
        self.op_windows: list = []  # perf_counter at the start and end of each op
        self._op = -1
        self.counters: dict = {}  # (counter name, op) -> value
        self._patches: list = []

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self._op = len(self.op_pairs)
        self.op_pairs.append(PAIRS[0])
        self.op_windows.append([time.perf_counter(), 0.0])

    def set_pair(self, pair: str) -> None:
        """Body-kind pair of the current op, once its scene is known."""
        self.op_pairs[self._op] = pair

    def end_op(self) -> None:
        self.op_windows[self._op][1] = time.perf_counter()
        self._op = -1

    def count(self, name: str, value: int = 1) -> None:
        if self._op >= 0:
            key = (name, self._op)
            self.counters[key] = self.counters.get(key, 0) + value

    # -- patching -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _wrap(self, fn, span_name: str, hook=None):
        nid = self._name_id(span_name)
        stack, depth = self._stack, self._depth
        name, parent, op = self.name, self.parent, self.op
        start, end, outer = self.start, self.end, self.outer
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer._op)
            outer.append(depth[nid] == 0)
            start.append(0)
            end.append(0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook_for(self, span_name: str, site: str, attr: str):
        if span_name == "rule.constructive":
            def on_case(args, result):
                counter = _CASE_COUNTERS.get(result[1].case)
                if counter:
                    self.count(counter)
            return on_case
        if attr == "canonical_dumps":
            return lambda args, result: self.count("sceneio.bytes_out", len(result))
        if site == "tangency" and attr in _SUPPORT_EVALS:
            evals = _SUPPORT_EVALS[attr]
            return lambda args, result: self.count("tangency.support_evals", evals(args))
        return None

    def install(self) -> None:
        import carousel.cli  # noqa: F401  (loads every submodule)

        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("carousel.") and mod is not None}
        for span_name, home, attr, intra in PROBES:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[home], cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name))
                continue
            original = getattr(modules[home], attr)
            for site, mod in modules.items():
                if site == home and not intra:
                    continue
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(original, span_name,
                                                  self._hook_for(span_name, site, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def layers_seen(self) -> set:
        return {self.names[i].split(".")[0] for i in set(self.name)}

    def _times(self, meter) -> tuple:
        """(start, end) of every span in ns, less the meter's sample time."""
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        return start - meter.busy_ns_before(start), end - meter.busy_ns_before(end)

    def op_scale(self, meter) -> np.ndarray:
        """Each op's factor to the reference kernel, as Run._loop scales it."""
        return np.array([meter.factor(w0, w1) for w0, w1 in self.op_windows])

    def per_op_metrics(self, meter) -> dict:
        """Per-op averages, overall and per body-kind pair.

        Keys: '<span>.ms' (time inside outermost spans of that name),
        '<span>.calls', 'self.<module>.ms' and each counter, each mapped to
        {'all': v, 'poly_poly': v, ...}.  Times are scaled per op by
        meter.factor over the op's window.  Spans outside an operation are
        left out.
        """
        n_ops = len(self.op_pairs)
        pair_ids = {p: k for k, p in enumerate(PAIRS)}
        op_pair = np.array([pair_ids[p] for p in self.op_pairs], dtype=np.int64)
        ops_per_pair = np.bincount(op_pair, minlength=len(PAIRS)).astype(float)

        names = np.asarray(self.name, dtype=np.int64)
        parents = np.asarray(self.parent, dtype=np.int64)
        ops = np.asarray(self.op, dtype=np.int64)
        outer = np.asarray(self.outer, dtype=bool)
        start, end = self._times(meter)
        scale = np.append(self.op_scale(meter), 1.0)
        dur = (end - start) / 1e6 * scale[ops]  # op -1 (no op) takes the last entry
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ms = dur - child

        keep = ops >= 0
        sp_pair = op_pair[ops[keep]] if n_ops else np.zeros(0, dtype=np.int64)
        names, outer, dur, self_ms = names[keep], outer[keep], dur[keep], self_ms[keep]
        n_names = len(self.names)
        layer_of_name = np.array([MODULES.index(n.split(".")[0]) for n in self.names],
                                 dtype=np.int64)

        def table(index, pair, weights, width):
            out = np.zeros(width * len(PAIRS))
            np.add.at(out, index * len(PAIRS) + pair, weights)
            return out.reshape(width, len(PAIRS))

        incl = table(names[outer], sp_pair[outer], dur[outer], n_names)
        calls = table(names, sp_pair, np.ones(len(names)), n_names)
        self_by_layer = table(layer_of_name[names], sp_pair, self_ms, len(MODULES))

        def averaged(sums) -> dict:
            out = {"all": float(sums.sum() / n_ops) if n_ops else 0.0}
            for k, pair in enumerate(PAIRS):
                out[pair] = float(sums[k] / ops_per_pair[k]) if ops_per_pair[k] else 0.0
            return out

        result = {}
        for nid, span_name in enumerate(self.names):
            result[f"{span_name}.ms"] = averaged(incl[nid])
            result[f"{span_name}.calls"] = averaged(calls[nid])
        for k, module in enumerate(MODULES):
            result[f"self.{module}.ms"] = averaged(self_by_layer[k])
        counter_sums: dict = {}
        for (counter, op_index), value in self.counters.items():
            sums = counter_sums.setdefault(counter, np.zeros(len(PAIRS)))
            sums[op_pair[op_index]] += value
        for counter, sums in counter_sums.items():
            result[counter] = averaged(sums)
        return result

    def write(self, path: str, meter) -> None:
        """All spans as flat arrays: times in ns from perf_counter_ns less
        the meter's sample time, unscaled; op_scale is each op's factor."""
        start, end = self._times(meter)
        np.savez(path,
                 names=np.array(self.names),
                 name=np.asarray(self.name, dtype=np.uint16),
                 parent=np.asarray(self.parent, dtype=np.int32),
                 op=np.asarray(self.op, dtype=np.int32),
                 start=start,
                 end=end,
                 op_pair=np.array(self.op_pairs),
                 op_scale=self.op_scale(meter))
