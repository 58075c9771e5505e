"""Benchmark of the carousel package.

    python3 perfbench/run.py --workload fuzz_campaign --seed 2026 --seconds 30 --trace 0

Runs one workload against the sources in ``src/`` of the checkout this file
sits in, checks the outputs, and prints JSON lines: machine information, the
workload's named metrics with units and sample counts, digests of its
decision records, and last the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans are written to
``.perfbench_out/trace_<workload>.npz``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

from harness import REF_NOMINAL_S, ROOT, SRC, Run, Sizes, machine_info, peak_rss_mb

# end-to-end metrics: slot -> unit; each workload fills every slot with one
# of its named metrics (Run.slots), and setup_s / peak_rss_mb / ok_share
# are measured the same way for all workloads
SLOT_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "aux_ms_p50": "ms",
    "cold_ms_p50": "ms",
}

# per-layer metrics, per op; SPLIT ones also per body-kind pair
SPLIT = (
    "tangency.csl.ms", "tangency.csl.calls", "tangency.mixed_sign_gaps.ms",
    "tangency.support_evals",
    "bodies.contained_in_hull.ms", "bodies.contained_in_hull.calls",
    "bodies.bodies_overlap.ms", "bodies.support.calls", "bodies.support_batch.calls",
    "rule.bruteforce.calls", "rule.bruteforce.ms", "rule.constructive.ms",
    "rule.constructive.case0", "rule.constructive.case1", "rule.constructive.fallback",
    "rule.dichotomy.ms", "rule.sweep_partition.ms",
    "sectors.vertex_hit_events.ms", "sectors.sector_from_arc.ms", "sectors.sweep.ms",
    "sectors.vertices_between.ms",
    "constructions.generate.ms",
)
UNSPLIT = (
    "sectors.clipped.ms", "kernel.clip.calls", "kernel.convex_hull.calls",
    "kernel.intersect_halfplanes.ms", "sceneio.load.ms", "sceneio.dump.ms",
    "sceneio.bytes_out", "render.svg.ms", "cli.compute_annotations.ms",
)


def layer_unit(name: str) -> str:
    from tracer import PAIRS

    base, _, last = name.rpartition(".")
    if last in PAIRS:
        name = base
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith("_pct"):
        return "%"
    return "count"


def per_layer_names() -> list:
    from tracer import MODULES, PAIRS

    names = []
    for base in SPLIT:
        names.append(base)
        names.extend(f"{base}.{pair}" for pair in PAIRS)
    names.extend(UNSPLIT)
    names.extend(f"self.{module}.ms" for module in MODULES)
    names.extend(("cli.import_ms", "trace.overhead_pct", "trace.spans_per_op"))
    return names


def _value(x) -> float:
    return float(x) if x is not None and not math.isnan(x) else 0.0


def end_to_end_metrics(run: Run) -> dict:
    out = {}
    for slot, unit in SLOT_UNITS.items():
        entry = run.report[run.slots[slot]]
        out[slot] = {"value": entry["value"], "unit": unit}
    out["setup_s"] = {"value": run.report["setup_s"]["value"], "unit": "s"}
    out["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    share = run.failed / run.attempted if run.attempted else 1.0
    out["ok_share"] = {"value": 1.0 - share, "unit": "share"}
    run.metric("failed_share", share, "share", run.attempted)
    run.metric("peak_rss_mb", out["peak_rss_mb"]["value"], "MB", 1)
    return out


def per_layer_metrics(run: Run) -> dict:
    from tracer import PAIRS

    tracer = run.tracer
    table = tracer.per_op_metrics(run.meter)
    out = {}
    for name in per_layer_names():
        if name == "cli.import_ms":
            value = statistics.median(run.import_ms)
        elif name == "trace.overhead_pct":
            base = sum(b for b, _ in run.overhead)
            traced = sum(t for _, t in run.overhead)
            value = (traced / base - 1.0) * 100.0 if base else 0.0
        elif name == "trace.spans_per_op":
            value = tracer.span_count / max(len(tracer.op_pairs), 1)
        else:
            base, _, pair = name.rpartition(".")
            if pair in PAIRS:
                value = table.get(base, {}).get(pair, 0.0)
            else:
                value = table.get(name, {}).get("all", 0.0)
        out[name] = {"value": _value(value), "unit": layer_unit(name)}
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = Sizes()) -> tuple:
    """Run one workload; returns (result object, other JSON lines)."""
    from tracer import Tracer
    from workloads import WORKLOADS

    base = ROOT / ".perfbench_out"
    run = Run(workload, seed, seconds, trace, sizes, base / f"{workload}-{os.getpid()}")
    run.out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        run.tracer = Tracer()
    # the run and the processes it starts stay on one core, where the speed
    # samples run, except for work that Run.scaled spreads over all cores
    os.sched_setaffinity(0, {run.cores[0]})
    run.meter.start()
    try:
        WORKLOADS[workload](run)
    finally:
        run.meter.stop()
        os.sched_setaffinity(0, set(run.cores))
        shutil.rmtree(run.out_dir, ignore_errors=True)
    if trace:
        metrics = per_layer_metrics(run)
        run.tracer.write(str(base / f"trace_{workload}.npz"), run.meter)
        layers = sorted(run.tracer.layers_seen())
    else:
        metrics = end_to_end_metrics(run)
        layers = None
    lines = [
        {"machine": machine_info(seed)},
        {"speed": {"ref_us_p50": statistics.median(run.meter.took) * 1e6,
                   "ref_nominal_us": REF_NOMINAL_S * 1e6, "samples": len(run.meter.took)}},
        {"report": {"workload": workload, "trace": trace, "metrics": run.report,
                    "slots": run.slots, "layers_traced": layers}},
        {"digest": run.digests},
    ]
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, lines, run.failures


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "carousel" / "__init__.py").is_file():
        print(f"error: no carousel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import carousel

    if Path(carousel.__file__).resolve().parent != (SRC / "carousel").resolve():
        print(f"error: imported carousel from {carousel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result, lines, failures = execute(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    for what in failures:
        print(f"failed: {what}", file=sys.stderr)
    for line in lines:
        print(json.dumps(line, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
