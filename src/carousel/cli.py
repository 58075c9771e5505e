"""Command-line front end.

Subcommands: gen (scene generators), csl (common supporting lines),
check (carousel rule deciders), fuzz (seeded campaign), render (SVG).

Exit codes: 0 ok/holds, 2 fails, 3 degenerate scene, 4 precondition
violation, 64 malformed input or usage, 65 scene invariant violation, 66
missing annotation layer with --no-compute.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import cache

from .constructions import (
    FuzzConfig,
    generate_corollary_scene,
    generate_fuzz_scene,
    generate_integer_scene,
    sharpness_construct,
)
from .bodies import PolygonBody
from .errors import CommonLineCountTooLarge, GeometryError
from .kernel import as_float_point
from .rule import (
    Scene,
    check_carousel_bruteforce,
    check_carousel_constructive,
    cross_validate,
    scene_csl,
    verify_scene,
)
from .render import DEFAULT_LAYERS, RenderSpec, render_scene_doc
from .sceneio import (
    DocumentError,
    canonical_dumps,
    certificate_to_doc,
    csl_to_doc,
    load_document,
    save_document,
    scene_from_doc,
    scene_to_doc,
    trace_to_doc,
)
from .sectors import NormalArc, sector_from_arc, sweep
from .tangency import CslLines, adjacent_pairs

EXIT_OK = 0
EXIT_FAILS = 2
EXIT_DEGENERATE = 3
EXIT_PRECONDITION = 4
EXIT_BAD_INPUT = 64
EXIT_INVARIANT = 65
EXIT_MISSING_LAYER = 66

_ERROR_EXITS = ((DocumentError, EXIT_BAD_INPUT),
                (CommonLineCountTooLarge, EXIT_PRECONDITION),
                (GeometryError, EXIT_INVARIANT))  # scene invariants, mode mixes


def _load_scene(path: str):
    doc = load_document(path)
    scene, annotations = scene_from_doc(doc)
    scene.validate()
    return scene, doc, annotations


def _emit(doc, out_path=None):
    text = canonical_dumps(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "fuzz":
        scene = generate_fuzz_scene(FuzzConfig(seed=args.seed), args.index)
    elif kind == "sharpness":
        inst = sharpness_construct(args.n)
        scene = Scene(PolygonBody(inst.a0), PolygonBody(inst.a1), inst.container)
    elif kind == "integer":
        scene = generate_integer_scene(args.seed)
    else:  # a corollary kind; argparse choices reject the rest
        scene = generate_corollary_scene(kind, args.seed)
    _emit(scene_to_doc(scene), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# csl

def cmd_csl(args) -> int:
    scene, _, _ = _load_scene(args.scene)
    csl = scene_csl(scene)
    _emit(csl_to_doc(csl), args.out)
    if isinstance(csl, CslLines):
        return EXIT_OK
    return EXIT_DEGENERATE


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    scene, _, _ = _load_scene(args.scene)
    csl = scene_csl(scene)
    if args.method == "brute":
        cert = check_carousel_bruteforce(scene, csl)
        out = {"certificate": certificate_to_doc(cert)}
    elif args.method == "constructive":
        cert, trace = check_carousel_constructive(scene, csl)
        out = {"certificate": certificate_to_doc(cert), "trace": trace_to_doc(trace)}
    else:
        report = cross_validate(scene, csl)
        cert = report.brute
        out = {
            "certificate": certificate_to_doc(report.brute),
            "constructive": certificate_to_doc(report.constructive),
            "trace": trace_to_doc(report.trace),
            "agree": report.agree,
        }
    _emit(out, args.out)
    if cert.degenerate_reason:
        return EXIT_DEGENERATE
    if cert.verdict == "holds":
        return EXIT_OK
    if cert.verdict == "fails":
        return EXIT_FAILS
    return EXIT_DEGENERATE


# ---------------------------------------------------------------------------
# fuzz

def _fuzz_worker(payload):
    cfg_dict, index = payload
    cfg = FuzzConfig(**cfg_dict)
    scene = generate_fuzz_scene(cfg, index)
    rec = verify_scene(scene)
    rec["index"] = index
    rec["n"] = scene.n
    return rec


def _worker_count() -> int:
    env = os.environ.get("CAROUSEL_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DocumentError(f"CAROUSEL_WORKERS is not an integer: {env!r}") from None
    return max(1, os.cpu_count() or 1)


def run_campaign(cfg: FuzzConfig, count: int, workers: int | None = None):
    """Verify `count` seeded scenes; deterministic regardless of workers."""
    if workers is None:
        workers = _worker_count()
    payloads = [(asdict(cfg), i) for i in range(count)]
    if workers <= 1:
        records = [_fuzz_worker(p) for p in payloads]
    else:
        # imported here: it loads multiprocessing, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_fuzz_worker, payloads, chunksize=32))
    records.sort(key=lambda r: r["index"])
    return records


def summarize_campaign(records) -> dict:
    counts = {"holds": 0, "fails": 0, "degenerate": 0, "fragile": 0, "errors": 0}
    violations = []
    disagreements = []
    # tight scenes (as many common supporting lines as container vertices)
    # are the boundary where the rule can fail; s is even on every
    # non-degenerate scene, so they all have even n
    tight = {"holds": 0, "fails": 0}
    for rec in records:
        if rec["error"]:
            counts["errors"] += 1
            continue
        if rec["degenerate"]:
            counts["degenerate"] += 1
        if rec["fragile"]:
            counts["fragile"] += 1
        if rec["s"] is not None and rec["s"] == rec["n"] and not rec["degenerate"] \
                and rec["verdict"] in tight:
            tight[rec["verdict"]] += 1
        if rec["verdict"] == "holds":
            counts["holds"] += 1
        elif rec["verdict"] == "fails":
            counts["fails"] += 1
            if not rec["degenerate"] and rec["s"] is not None and rec["s"] < rec["n"]:
                violations.append(rec["index"])
        if rec["cross_agree"] is False or rec["constructive_ok"] is False:
            disagreements.append(rec["index"])
    total = len(records)
    return {
        "scenes": total,
        "counts": counts,
        "degeneracy_rate": counts["degenerate"] / total if total else 0.0,
        "theorem_violations": violations,
        "constructive_disagreements": disagreements,
        "tight_scenes": tight,
    }


# the smallest usable value of a numeric field, or of a range's lower end: a
# container has 3 vertices, a polygon draw takes a point (draws whose hull
# has fewer than 3 vertices are retried), and generation makes a try
FUZZ_CONFIG_MINIMUM = {"n_range": 3, "poly_points": 1, "rejection_limit": 1}


def _fuzz_config(doc, seed: int) -> FuzzConfig:
    """FuzzConfig from a --config document: its fields override the
    defaults and seed, each must be shaped like its default, and numbers
    must reach FUZZ_CONFIG_MINIMUM."""
    if not isinstance(doc, dict):
        raise DocumentError("fuzz config must be an object")
    kwargs = asdict(FuzzConfig(seed=seed))
    for key, value in doc.items():
        if key == "mode":  # older config files name the one mode fuzz scenes have
            if value != "float":
                raise DocumentError(f"bad fuzz config field {key!r}: {value!r}")
            continue
        if key not in kwargs:
            raise DocumentError(f"unknown fuzz config field {key!r}")
        default = kwargs[key]
        if isinstance(default, tuple):
            # kinds: a non-empty subset of the default; ranges: int pairs lo <= hi
            ok = isinstance(value, list) and bool(value) and (
                all(x in default for x in value) if key == "kinds" else
                len(value) == 2 and all(type(x) is int for x in value)
                and value[0] <= value[1])
        else:
            ok = type(value) is type(default)
        if ok and key in FUZZ_CONFIG_MINIMUM:
            ok = (value[0] if isinstance(value, list) else value) >= FUZZ_CONFIG_MINIMUM[key]
        if not ok:
            raise DocumentError(f"bad fuzz config field {key!r}: {value!r}")
        kwargs[key] = tuple(value) if isinstance(default, tuple) else value
    if "polygon" in kwargs["kinds"] and kwargs["poly_points"][1] < 3:
        # a polygon draw needs a hull of 3 or more of its at most poly_points[1] points
        raise DocumentError(f"bad fuzz config field 'poly_points': "
                            f"{list(kwargs['poly_points'])} cannot give a polygon")
    return FuzzConfig(**kwargs)


def cmd_fuzz(args) -> int:
    if args.seeds < 0:
        raise DocumentError(f"--seeds must be non-negative, got {args.seeds}")
    cfg = _fuzz_config(load_document(args.config) if args.config else {}, args.seed)
    records = run_campaign(cfg, args.seeds)
    report = summarize_campaign(records)
    report["seed"] = cfg.seed
    if args.dump_dir and report["theorem_violations"]:
        os.makedirs(args.dump_dir, exist_ok=True)
        for idx in report["theorem_violations"]:
            scene = generate_fuzz_scene(cfg, idx)
            save_document(os.path.join(args.dump_dir, f"violation-{idx}.json"),
                          scene_to_doc(scene))
    _emit(report, args.out)
    if report["theorem_violations"] or report["constructive_disagreements"]:
        return EXIT_FAILS
    return EXIT_OK


# ---------------------------------------------------------------------------
# render

def _sweep_points(sw, container) -> list:
    pts = [as_float_point(sw.start.location)]
    for v in sw.covered:
        pts.append(as_float_point(container.vertices[v]))
    pts.append(as_float_point(sw.end.location))
    return [[p.x, p.y] for p in pts]


def compute_annotations(scene: Scene, layers) -> dict:
    """Annotation layers derived from the scene with its own defaults."""
    ann = {}
    csl = scene_csl(scene)
    ann["csl"] = csl_to_doc(csl)
    if not isinstance(csl, CslLines) or csl.count == 0:
        return ann
    pairs = adjacent_pairs(csl)
    if "sweeps" in layers:
        exits = {}
        sweeps = []
        for pair in pairs:
            try:
                sw = sweep(pair.line, pair.cw_next, scene.container, scene.tol.eps, exits)
            except GeometryError:
                continue
            sweeps.append({"side": "L", "pair_index": pair.index,
                           "covered": list(sw.covered),
                           "points": _sweep_points(sw, scene.container)})
        ann["sweeps"] = sweeps
    if "sectors" in layers and csl.count < scene.n:
        try:
            cert, trace = check_carousel_constructive(scene, csl)
        except GeometryError:
            return ann
        if cert.verdict == "holds" and trace.case == 0 and trace.pair_index >= 0:
            pair = next(p for p in pairs if p.index == trace.pair_index)
            sec = sector_from_arc(scene.body(trace.dominant),
                                  NormalArc(pair.line.normal, pair.delta))
            clipped = sec.clipped(scene.container, scene.tol.eps)
            ann["sectors"] = [] if clipped is None else [{
                "tone": "dark",
                "arc": {"start": sec.arc.start, "width": sec.arc.width},
                "clipped": [[float(p.x), float(p.y)] for p in clipped.vertices],
            }]
    return ann


def cmd_render(args) -> int:
    scene, doc, annotations = _load_scene(args.scene)
    layers = tuple(args.layers.split(",")) if args.layers else DEFAULT_LAYERS
    needed = {"csl", "sweeps", "sectors"} & set(layers)
    missing = needed - set(annotations)
    if missing and args.no_compute:
        print(f"missing annotation layers: {sorted(missing)}", file=sys.stderr)
        return EXIT_MISSING_LAYER
    if missing:
        computed = compute_annotations(scene, layers)
        merged = dict(computed)
        merged.update(annotations)
        annotations = merged
    doc = dict(doc)
    doc["annotations"] = annotations
    spec = RenderSpec(width=args.width, height=args.height, layers=layers)
    svg = render_scene_doc(doc, spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error exits EXIT_BAD_INPUT (sysexits EX_USAGE), not argparse's 2,
    which reads as "rule fails"; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    ap = _Parser(prog="carousel",
                 description="common supporting lines and the weak carousel rule")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a scene")
    g.add_argument("--kind", default="fuzz",
                   choices=["fuzz", "sharpness", "integer", "disks-in-triangle",
                            "ellipses-in-pentagon", "homothets-in-triangle"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--index", type=int, default=0)
    g.add_argument("--n", type=int, default=6, help="sharpness vertex count")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("csl", help="common supporting lines of a scene")
    c.add_argument("scene")
    c.add_argument("--out")
    c.set_defaults(func=cmd_csl)

    k = sub.add_parser("check", help="decide the weak carousel rule")
    k.add_argument("scene")
    k.add_argument("--method", default="brute",
                   choices=["brute", "constructive", "both"])
    k.add_argument("--out")
    k.set_defaults(func=cmd_check)

    f = sub.add_parser("fuzz", help="seeded verification campaign")
    f.add_argument("--seeds", type=int, default=100, help="number of scenes")
    f.add_argument("--seed", type=int, default=0, help="base seed")
    f.add_argument("--config", help="JSON file with FuzzConfig fields")
    f.add_argument("--dump-dir", help="directory for offending scenes")
    f.add_argument("--out")
    f.set_defaults(func=cmd_fuzz)

    r = sub.add_parser("render", help="render a scene to SVG")
    r.add_argument("scene")
    r.add_argument("--out", required=True)
    r.add_argument("--layers", help="comma-separated layer list")
    r.add_argument("--no-compute", action="store_true",
                   help="fail instead of computing missing layers")
    r.add_argument("--width", type=int, default=720)
    r.add_argument("--height", type=int, default=720)
    r.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the first match wins: specific geometry errors before their base
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
