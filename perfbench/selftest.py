"""Quick self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py prints, that
every untraced run prints each end-to-end metric and each named workload
metric with its unit, that all correctness gates pass, and that the traced
runs emit spans for every layer of the package.  Exits 1 on a problem.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import SRC, TINY  # noqa: E402

sys.path.insert(0, str(SRC))

from run import execute, layer_unit, per_layer_names  # noqa: E402
from tracer import MODULES  # noqa: E402

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share"}
NAMED = {
    "fuzz_campaign": {"scenes_per_s": "1/s", "scenes_per_s_parallel": "1/s",
                      "scene_ms_p50": "ms", "scene_ms_p99": "ms"},
    "polygon_pairs": {"exact_scenes_per_s": "1/s", "sharpness_family_s": "s"},
    "cli_documents": {"check_ms_p50": "ms", "check_ms_p95": "ms",
                      "render_ms_p50": "ms", "check_cold_ms_p50": "ms"},
}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if layer != {name: layer_unit(name) for name in per_layer_names()}:
        problems.append("per_layer in BENCHMARK.json differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(NAMED):
        problems.append("workloads in BENCHMARK.json differ from the self-test")

    traced_layers = set()
    for workload in NAMED:
        for trace in (False, True):
            result, lines, failures = execute(workload, 2026, 0.5, trace, TINY)
            tag = f"{workload} trace={int(trace)}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = layer if trace else e2e
            if got != want:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing or extra, or units differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: gates failed: {failures}")
            report = lines[2]["report"]
            if trace:
                traced_layers |= set(report["layers_traced"])
            else:
                named = {k: v["unit"] for k, v in report["metrics"].items()}
                for name, unit in {**NAMED[workload], **COMMON}.items():
                    if named.get(name) != unit:
                        problems.append(f"{tag}: {name} [{unit}] not printed")
            print(f"{tag}: attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    missing = set(MODULES) - traced_layers
    if missing:
        problems.append(f"no spans for layers {sorted(missing)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
