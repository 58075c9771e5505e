"""Acceptance suite: one test per product criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them live).

The heavy fuzz campaign is shared by the criteria that consume it.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from carousel.bodies import (
    Disk,
    Ellipse,
    PointBody,
    PolygonBody,
    contained_in_hull,
    origin_radius,
    support,
)
from carousel.cli import main as cli_main
from carousel.cli import run_campaign, summarize_campaign
from carousel.constructions import (
    FuzzConfig,
    generate_corollary_scene,
    generate_fuzz_scene,
    generate_integer_scene,
    plucker_bound,
    scene_as_float,
    sharpness_construct,
    sharpness_validate,
)
from carousel.kernel import (
    ConvexPolygon,
    HalfPlane,
    Point,
    circ_dist,
    clip,
    convex_hull,
    point_in_polygon,
    unit,
)
from carousel.rule import check_carousel_bruteforce, scene_csl
from carousel.sceneio import save_document, scene_to_doc
from carousel.tangency import CslLines

CAMPAIGN_SEED = 2026
CAMPAIGN_SIZE = 10_000

F = Fraction


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def campaign():
    cfg = FuzzConfig(seed=CAMPAIGN_SEED)
    t0 = time.time()
    records = run_campaign(cfg, CAMPAIGN_SIZE)
    elapsed = time.time() - t0
    return records, summarize_campaign(records), elapsed


def test_criterion_1_theorem_campaign(campaign):
    records, summary, elapsed = campaign
    errors = [r for r in records if r["error"]]
    ok = (summary["scenes"] == CAMPAIGN_SIZE
          and not summary["theorem_violations"]
          and not errors
          and summary["degeneracy_rate"] <= 0.05)
    _report(1, ok,
            f"{CAMPAIGN_SIZE} scenes, fails-on-small-s="
            f"{len(summary['theorem_violations'])}, errors={len(errors)}, "
            f"degeneracy={summary['degeneracy_rate']:.4f}, "
            f"runtime={elapsed:.1f}s (target 120s, scene-parallel)")


def test_criterion_2_sharpness_family():
    details = []
    ok = True
    for n in (4, 6, 8, 10, 12):
        report = sharpness_validate(sharpness_construct(n))
        want_lhs = -math.sin(2 * math.pi / n) / 3.0
        good = report.ok and abs(report.lhs - want_lhs) <= 1e-12 \
            and abs(report.rhs) <= 1e-12
        ok = ok and good
        details.append(f"n={n}:{'ok' if good else report.details}")
    _report(2, ok, "; ".join(details))


def test_criterion_3_disks_in_triangle():
    bad = []
    for seed in range(1000):
        scene = generate_corollary_scene("disks-in-triangle", seed)
        csl = scene_csl(scene)
        s = csl.count if isinstance(csl, CslLines) else None
        verdict = check_carousel_bruteforce(scene, csl if isinstance(csl, CslLines)
                                            else None).verdict
        if s is None or s > 2 or verdict != "holds":
            bad.append((seed, s, verdict))
    _report(3, not bad, f"1000 scenes, violations={bad[:5]}")


def test_criterion_4_ellipses_in_pentagon():
    bad = []
    for seed in range(1000):
        scene = generate_corollary_scene("ellipses-in-pentagon", seed)
        csl = scene_csl(scene)
        s = csl.count if isinstance(csl, CslLines) else None
        verdict = check_carousel_bruteforce(scene, csl if isinstance(csl, CslLines)
                                            else None).verdict
        if s is None or s > 4 or verdict != "holds":
            bad.append((seed, s, verdict))
    ok = not bad and plucker_bound(2, 2) == 4
    _report(4, ok, f"1000 scenes, violations={bad[:5]}, bound(2,2)={plucker_bound(2, 2)}")


def test_criterion_5_oracle_equivalence(campaign):
    records, _, _ = campaign
    applicable = [r for r in records
                  if r["s"] is not None and 1 <= r["s"] < r["n"]
                  and not r["degenerate"] and not r["error"]]
    not_validated = [r["index"] for r in applicable if r["constructive_ok"] is not True]
    disagreements = [r["index"] for r in applicable if r["cross_agree"] is not True]
    # the decider has two cases: a crowded gap (0) and a vertex in a body (1)
    off_path = [r["index"] for r in applicable if r["constructive_case"] not in (0, 1)]
    ok = not not_validated and not disagreements and not off_path and applicable
    _report(5, ok,
            f"{len(applicable)} applicable scenes, unvalidated={not_validated[:5]}, "
            f"disagreements={disagreements[:5]}, other-case={off_path[:5]}")


def test_criterion_6_dichotomy_and_sweep_partition(campaign):
    records, _, _ = campaign
    applicable = [r for r in records
                  if r["s"] is not None and 1 <= r["s"] < r["n"]
                  and not r["degenerate"] and not r["error"]]
    bad_dich = [r["index"] for r in applicable if r["dichotomy_ok"] is not True]
    bad_sweep = [r["index"] for r in applicable if r["sweeps_ok"] is not True]
    ok = not bad_dich and not bad_sweep and applicable
    _report(6, ok, f"{len(applicable)} scenes, dichotomy-fail={bad_dich[:5]}, "
                   f"sweep-fail={bad_sweep[:5]}")


def test_criterion_7_exact_float_agreement():
    mismatches = []
    for seed in range(500):
        exact = generate_integer_scene(seed)
        fl = scene_as_float(exact)
        ce = scene_csl(exact)
        cf = scene_csl(fl)
        se = ce.count if isinstance(ce, CslLines) else type(ce).__name__
        sf = cf.count if isinstance(cf, CslLines) else type(cf).__name__
        be = check_carousel_bruteforce(exact)
        bf = check_carousel_bruteforce(fl)
        if se != sf or (be.verdict, be.i, be.j) != (bf.verdict, bf.i, bf.j):
            mismatches.append((seed, se, sf, be.verdict, bf.verdict))
    _report(7, not mismatches, f"500 scenes, mismatches={mismatches[:5]}")


def _random_int_points(rng, k, lo=-1000, hi=1000):
    return [Point(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(k)]


def test_criterion_8_kernel_property_suite():
    rng = random.Random(99)
    cases = 10_000
    hull_bad = clip_bad = lip_bad = witness_bad = 0

    for _ in range(cases):
        pts = _random_int_points(rng, rng.randint(1, 10))
        h1 = convex_hull(pts)
        if convex_hull(list(h1.vertices)).vertices != h1.vertices:
            hull_bad += 1

    for _ in range(cases):
        pts = _random_int_points(rng, rng.randint(3, 8))
        poly = convex_hull(pts)
        hp = HalfPlane(rng.randint(-3, 3) or 1, rng.randint(-3, 3),
                       rng.randint(-1500, 1500))
        res = clip(poly, hp)
        if res is not None:
            if not all(point_in_polygon(v, poly) for v in res.vertices):
                clip_bad += 1

    bodies = [
        PolygonBody(convex_hull([Point(float(x), float(y)) for x, y in
                                 [(-3, -1), (2, -2), (3, 2), (-1, 3)]])),
        Disk(Point(1.0, -2.0), 1.5),
        Ellipse(Point(-2.0, 1.0), 2.5, 0.75, 0.6),
    ]
    for _ in range(cases):
        body = bodies[rng.randrange(3)]
        t1 = rng.uniform(0, 2 * math.pi)
        t2 = rng.uniform(0, 2 * math.pi)
        lhs = abs(support(body, t1).value - support(body, t2).value)
        if lhs > origin_radius(body) * circ_dist(t1, t2) + 1e-9:
            lip_bad += 1

    for _ in range(cases):
        smooth = rng.random() < 0.2
        if smooth:
            inner = Disk(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                         rng.uniform(0.1, 1.5))
            outer = Disk(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                         rng.uniform(0.5, 2.0))
        else:
            inner = PolygonBody(convex_hull(_random_int_points(rng, 4, -40, 40)))
            outer = PolygonBody(convex_hull(_random_int_points(rng, 5, -30, 30)))
        extra = _random_int_points(rng, rng.randint(0, 3), -50, 50)
        res = contained_in_hull(inner, outer, extra, eps=1e-9)
        if not res.contained:
            if res.witness_angle is None or res.escaping_point is None:
                witness_bad += 1
                continue
            n = unit(res.witness_angle)
            h_hull = support(outer, res.witness_angle).value
            for p in extra:
                h_hull = max(h_hull, float(p.x) * n.x + float(p.y) * n.y)
            esc = float(res.escaping_point.x) * n.x + float(res.escaping_point.y) * n.y
            # the escape must beat the hull support by the reported deficit
            if esc < h_hull + abs(res.margin) - 1e-6 * (1 + abs(h_hull)):
                witness_bad += 1

    ok = hull_bad == clip_bad == lip_bad == witness_bad == 0
    _report(8, ok, f"{cases} cases each: hull={hull_bad}, clip={clip_bad}, "
                   f"lipschitz={lip_bad}, witness={witness_bad}")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for run in (1, 2):
        d = tmp_path / f"run{run}"
        d.mkdir()
        scene = d / "scene.json"
        cert = d / "cert.json"
        svg = d / "fig.svg"
        cmds = [
            [sys.executable, "-m", "carousel", "gen", "--kind", "fuzz",
             "--seed", "1", "--out", str(scene)],
            [sys.executable, "-m", "carousel", "check", str(scene),
             "--method", "both", "--out", str(cert)],
            [sys.executable, "-m", "carousel", "render", str(scene),
             "--out", str(svg)],
        ]
        for cmd in cmds:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        outs.append((scene.read_bytes(), cert.read_bytes(), svg.read_bytes()))
    ok = outs[0] == outs[1]
    _report(9, ok, "scene JSON, certificate, SVG byte-identical across runs")
