"""Scene generators: sharpness family, corollary scenes, fuzzing.

The sharpness family shows the vertex-count bound is tight for even n:
inside the regular n-gon on the unit circle, the lines joining midpoints
of adjacent container edges are n common supporting lines of two thin
polygons whose vertices alternate between the trisection points of
those lines; the pair then defeats every single-vertex drop.

The corollary generators build scenes whose tangency counts are bounded
by curve degrees (two disks in a triangle, two ellipses in a pentagon,
homothetic or translated pairs in a triangle).  The fuzz generator
produces seeded random scenes for the main-theorem campaign.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bodies import (
    GRID_THETA,
    Disk,
    Ellipse,
    PolygonBody,
    body_in_polygon,
    support,
    support_grid,
)
from .errors import OddVertexCount, RejectionLimitExceeded
from .kernel import (
    TWO_PI,
    ConvexPolygon,
    Point,
    circ_dist,
    convex_hull,
    point_in_polygon,
    unit,
    wrap_angle,
)
from .rule import Scene, check_carousel_bruteforce, scene_csl
from .tangency import CslLines, make_line

# ---------------------------------------------------------------------------
# sharpness family


@dataclass(frozen=True)
class SharpnessInstance:
    n: int
    container: ConvexPolygon
    a0: ConvexPolygon
    a1: ConvexPolygon
    lines: Tuple


def sharpness_construct(n: int) -> SharpnessInstance:
    """Tight instance on the regular n-gon over the unit circle (even n).

    Line k has outward normal at the k-th container vertex direction and
    joins the midpoints of the two container edges at that vertex; its
    trisection points feed the two bodies alternately, which needs an
    even vertex count.
    """
    if n < 4 or n % 2 != 0:
        raise OddVertexCount("the alternating construction needs even n >= 4")
    g = ConvexPolygon(tuple(Point(math.cos(TWO_PI * k / n), math.sin(TWO_PI * k / n))
                            for k in range(n)))
    foot_dist = math.cos(math.pi / n) ** 2
    third = math.sin(TWO_PI / n) / 6.0
    pa: List[Point] = []
    pb: List[Point] = []
    normals: List[float] = []
    for k in range(n):
        theta = wrap_angle(-TWO_PI * k / n)  # clockwise enumeration
        normals.append(theta)
        foot = Point(foot_dist * math.cos(theta), foot_dist * math.sin(theta))
        u = unit(wrap_angle(theta - math.pi / 2))  # clockwise along the line
        pa.append(Point(foot.x - third * u.x, foot.y - third * u.y))
        pb.append(Point(foot.x + third * u.x, foot.y + third * u.y))
    verts0 = [pa[k] if k % 2 == 0 else pb[k] for k in range(n)]
    verts1 = [pb[k] if k % 2 == 0 else pa[k] for k in range(n)]
    a0 = ConvexPolygon(tuple(reversed(verts0)))  # generated clockwise
    a1 = ConvexPolygon(tuple(reversed(verts1)))
    body0, body1 = PolygonBody(a0), PolygonBody(a1)
    lines = tuple(make_line(body0, body1, t) for t in sorted(normals))
    return SharpnessInstance(n, g, a0, a1, lines)


@dataclass(frozen=True)
class SharpnessReport:
    ok: bool
    count: Optional[int]
    normals_ok: bool
    verdict: str
    refutation_count: int
    lhs: float
    rhs: float
    slope_ok: bool
    details: Tuple[str, ...]


SHARPNESS_NORMAL_TOL = 1e-9  # found vs constructed line normals
SHARPNESS_VALUE_TOL = 1e-12  # edge inequality terms vs their closed forms


def sharpness_validate(inst: SharpnessInstance) -> SharpnessReport:
    """Check the tangency count, the rule failure, and the edge inequality."""
    details = []
    body0, body1 = PolygonBody(inst.a0), PolygonBody(inst.a1)
    csl = scene_csl(Scene(body0, body1, inst.container))
    count = csl.count if isinstance(csl, CslLines) else None
    normals_ok = False
    if count == inst.n:
        got = sorted(l.normal for l in csl.lines)
        want = sorted(l.normal for l in inst.lines)
        normals_ok = all(circ_dist(a, b) <= SHARPNESS_NORMAL_TOL
                         for a, b in zip(got, want))
        if not normals_ok:
            details.append(f"normals differ: {got} vs {want}")
    else:
        details.append(f"expected {inst.n} common lines, found {count}")

    scene = Scene(body0, body1, inst.container)
    cert = check_carousel_bruteforce(scene, csl if isinstance(csl, CslLines) else None)
    refutation_count = len(cert.refutations or ())
    if cert.verdict != "fails":
        details.append(f"expected failing verdict, got {cert.verdict}")
    if refutation_count != 2 * inst.n:
        details.append(f"expected {2 * inst.n} refutations, got {refutation_count}")

    # edge inequality at the first line: the hull of one body with every
    # container vertex but the closest has its lower-right edge through the
    # first trisection point; substituting its sibling trisection point
    # violates the edge inequality by exactly sin(2*pi/n)/3
    s2 = math.sin(TWO_PI / inst.n)
    x1 = (1.0 + math.cos(TWO_PI / inst.n)) / 2.0
    p1a = Point(x1, s2 / 6.0)
    p1b = Point(x1, -s2 / 6.0)
    slope = (7.0 / 3.0) / math.tan(math.pi / inst.n)
    vtx = Point(math.cos(TWO_PI / inst.n), -s2)  # container vertex below the line
    slope_direct = (p1a.y - vtx.y) / (p1a.x - vtx.x)
    slope_ok = abs(slope_direct - slope) <= 1e-9 * max(1.0, abs(slope))
    if not slope_ok:
        details.append(f"edge slope {slope_direct} differs from {slope}")
    lhs = (p1b.y - s2 / 6.0)
    rhs = slope * (p1b.x - x1)
    lhs_ok = abs(lhs - (-s2 / 3.0)) <= SHARPNESS_VALUE_TOL
    rhs_ok = abs(rhs) <= SHARPNESS_VALUE_TOL
    if not lhs_ok:
        details.append(f"lhs {lhs} differs from {-s2 / 3.0}")
    if not rhs_ok:
        details.append(f"rhs {rhs} not zero")
    if not lhs < rhs:
        details.append("inequality not violated")

    ok = (count == inst.n and normals_ok and cert.verdict == "fails"
          and refutation_count == 2 * inst.n and slope_ok and lhs_ok and rhs_ok
          and lhs < rhs)
    return SharpnessReport(ok, count, normals_ok, cert.verdict, refutation_count,
                           lhs, rhs, slope_ok, tuple(details))


# ---------------------------------------------------------------------------
# degree bound

def plucker_bound(d1: int, d2: int) -> int:
    """Upper bound on common supporting lines of two smooth curve boundaries
    of the given degrees (dual-curve degree times intersection count)."""
    if d1 < 2 or d2 < 2:
        raise ValueError("degrees below 2 have no smooth closed curve")
    return d1 * (d1 - 1) * d2 * (d2 - 1)


# ---------------------------------------------------------------------------
# random scenes

@dataclass(frozen=True)
class FuzzConfig:
    n_range: Tuple[int, int] = (3, 10)
    kinds: Tuple[str, ...] = ("polygon", "disk", "ellipse")
    poly_points: Tuple[int, int] = (3, 7)
    seed: int = 0
    rejection_limit: int = 500


def _rng_for(seed, index: Optional[int] = None) -> random.Random:
    key = f"{seed}" if index is None else f"{seed}:{index}"
    return random.Random(key)


def _random_container(rng: random.Random, n_lo: int, n_hi: int,
                      limit: int) -> ConvexPolygon:
    for _ in range(limit):
        n = rng.randint(n_lo, n_hi)
        angles = sorted(rng.uniform(0.0, TWO_PI) for _ in range(n))
        if min((b - a) for a, b in zip(angles, angles[1:] + [angles[0] + TWO_PI])) < 0.15:
            continue
        ax = rng.uniform(1.0, 3.0)
        by = rng.uniform(1.0, 3.0)
        rot = rng.uniform(0.0, math.pi)
        cr, sr = math.cos(rot), math.sin(rot)
        pts = []
        for t in angles:
            x, y = ax * math.cos(t), by * math.sin(t)
            pts.append(Point(cr * x - sr * y, sr * x + cr * y))
        hull = convex_hull(pts)
        if hull.n == n:
            return hull
    raise RejectionLimitExceeded("container generation")


def _uniform_point_in(rng: random.Random, poly: ConvexPolygon) -> Point:
    xs = [float(v.x) for v in poly.vertices]
    ys = [float(v.y) for v in poly.vertices]
    for _ in range(1000):
        p = Point(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
        if point_in_polygon(p, poly, 0.0):
            return p
    raise RejectionLimitExceeded("point sampling")


def _shrink(points: Sequence[Point], factor: float) -> List[Point]:
    cx = sum(p.x for p in points) / len(points)
    cy = sum(p.y for p in points) / len(points)
    return [Point(cx + factor * (p.x - cx), cy + factor * (p.y - cy))
            for p in points]


def _random_polygon_body(rng: random.Random, container: ConvexPolygon,
                         k_lo: int, k_hi: int, limit: int) -> PolygonBody:
    for _ in range(limit):
        k = rng.randint(k_lo, k_hi)
        pts = [_uniform_point_in(rng, container) for _ in range(k)]
        hull = convex_hull(_shrink(pts, 0.9))
        if hull.n >= 3:
            return PolygonBody(hull)
    raise RejectionLimitExceeded("polygon body generation")


def _edge_clearance(container: ConvexPolygon, p: Point) -> float:
    worst = math.inf
    for i in range(container.n):
        hp = container.edge_halfplane(i)
        nl = math.hypot(float(hp.nx), float(hp.ny))
        worst = min(worst, -float(hp.value(p)) / nl)
    return worst


def _centered_point(rng: random.Random, container: ConvexPolygon) -> Point:
    """Random interior point pulled toward the centroid, so its edge
    clearance stays positive even in very thin containers."""
    c = container.centroid()
    p = _uniform_point_in(rng, container)
    u = rng.uniform(0.1, 0.8)
    return Point(c.x + u * (p.x - c.x), c.y + u * (p.y - c.y))


def _random_disk_body(rng: random.Random, container: ConvexPolygon,
                      limit: int) -> Disk:
    for _ in range(limit):
        c = _centered_point(rng, container)
        room = _edge_clearance(container, c)
        if room <= 1e-6:
            continue
        r = room * rng.uniform(0.25, 0.9)
        return Disk(c, r)
    raise RejectionLimitExceeded("disk body generation")


def _random_ellipse_body(rng: random.Random, container: ConvexPolygon,
                         limit: int) -> Ellipse:
    for _ in range(limit):
        c = _centered_point(rng, container)
        room = _edge_clearance(container, c)
        if room <= 1e-6:
            continue
        a = room * rng.uniform(0.3, 0.9)
        b = max(a * rng.uniform(0.25, 1.0), a * 0.05)
        phi = rng.uniform(0.0, math.pi)
        body = Ellipse(c, a, b, phi)
        if body_in_polygon(body, container, 0.0):
            return body
    raise RejectionLimitExceeded("ellipse body generation")


def _random_body(rng: random.Random, kind: str, container: ConvexPolygon,
                 cfg: FuzzConfig):
    if kind == "polygon":
        return _random_polygon_body(rng, container, cfg.poly_points[0],
                                    cfg.poly_points[1], cfg.rejection_limit)
    if kind == "disk":
        return _random_disk_body(rng, container, cfg.rejection_limit)
    if kind == "ellipse":
        return _random_ellipse_body(rng, container, cfg.rejection_limit)
    raise ValueError(f"unknown body kind {kind!r}")


def generate_fuzz_scene(cfg: FuzzConfig, index: int = 0) -> Scene:
    """Deterministic random scene for (cfg.seed, index)."""
    rng = _rng_for(cfg.seed, index)
    container = _random_container(rng, cfg.n_range[0], cfg.n_range[1],
                                  cfg.rejection_limit)
    a0 = _random_body(rng, rng.choice(cfg.kinds), container, cfg)
    a1 = _random_body(rng, rng.choice(cfg.kinds), container, cfg)
    return Scene(a0, a1, container)


def generate_corollary_scene(kind: str, seed) -> Scene:
    """Seeded scene for one of the degree-bound corollaries."""
    rng = _rng_for(f"{kind}:{seed}")
    limit = 500
    if kind == "disks-in-triangle":
        container = _random_container(rng, 3, 3, limit)
        a0 = _random_disk_body(rng, container, limit)
        a1 = _random_disk_body(rng, container, limit)
        return Scene(a0, a1, container)
    if kind == "ellipses-in-pentagon":
        container = _random_container(rng, 5, 5, limit)
        a0 = _random_ellipse_body(rng, container, limit)
        a1 = _random_ellipse_body(rng, container, limit)
        return Scene(a0, a1, container)
    if kind == "homothets-in-triangle":
        container = _random_container(rng, 3, 3, limit)
        base = _random_polygon_body(rng, container, 3, 6, limit)
        for _ in range(limit):
            lam = rng.uniform(0.4, 1.6)
            t = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            verts = [Point(lam * v.x + t.x, lam * v.y + t.y)
                     for v in base.poly.vertices]
            if all(point_in_polygon(v, container, 0.0) for v in verts):
                other = PolygonBody(ConvexPolygon(tuple(verts)))
                return Scene(base, other, container)
        raise RejectionLimitExceeded("homothet placement")
    raise ValueError(f"unknown corollary kind {kind!r}")


# ---------------------------------------------------------------------------
# integer-coordinate scenes for the exact/float agreement checks

def _random_integer_polygon(rng: random.Random, lo: int, hi: int,
                            points: int, limit: int) -> ConvexPolygon:
    for _ in range(limit):
        pts = [Point(rng.randint(lo, hi), rng.randint(lo, hi))
               for _ in range(points)]
        hull = convex_hull(pts)
        if 3 <= hull.n <= 10:
            return hull
    raise RejectionLimitExceeded("integer container")


def _integer_points_inside(rng: random.Random, container: ConvexPolygon,
                           k: int, limit: int) -> List[Point]:
    xs = [int(v.x) for v in container.vertices]
    ys = [int(v.y) for v in container.vertices]
    out = []
    for _ in range(limit):
        p = Point(rng.randint(min(xs), max(xs)), rng.randint(min(ys), max(ys)))
        if point_in_polygon(p, container, 0.0):
            out.append(p)
            if len(out) == k:
                return out
    raise RejectionLimitExceeded("integer body points")


INTEGER_COORD_MAX = 500  # integer scenes live in [-max, max]^2


def generate_integer_scene(seed) -> Scene:
    """Exact-mode polygon scene with all-integer coordinates."""
    rng = _rng_for(f"int:{seed}")
    for _ in range(100):
        container = _random_integer_polygon(rng, -INTEGER_COORD_MAX, INTEGER_COORD_MAX,
                                            10, 500)
        try:
            v0 = _integer_points_inside(rng, container, rng.randint(3, 6), 2000)
            v1 = _integer_points_inside(rng, container, rng.randint(3, 6), 2000)
        except RejectionLimitExceeded:
            continue
        h0, h1 = convex_hull(v0), convex_hull(v1)
        if h0.n < 3 or h1.n < 3:
            continue
        return Scene(PolygonBody(h0), PolygonBody(h1), container, "exact")
    raise RejectionLimitExceeded("integer scene")


def scene_as_float(scene: Scene) -> Scene:
    """Float-mode twin of an exact scene (same numeric values)."""
    from .bodies import as_float_body

    return Scene(as_float_body(scene.a0), as_float_body(scene.a1),
                 scene.container.as_float(), "float", scene.tol)


# ---------------------------------------------------------------------------
# hull-of-three-ellipses fixture: the carousel rule generalized to shape
# corners fails even though the pair has only two common supporting lines

def ellipse_hull_counterexample():
    """Hand-tuned five-ellipse arrangement.

    Two wide flat translates hug the top and bottom of a tall corridor
    spanned by three upright ellipses; every corner ellipse is essential
    for covering both translates, so dropping any one lets each of them
    escape the hull of the rest.
    """
    a0 = Ellipse(Point(0.0, 0.85), 1.0, 0.5, 0.0)
    a1 = Ellipse(Point(0.0, -0.85), 1.0, 0.5, 0.0)
    xs = (Ellipse(Point(-0.8, 0.0), 1.3, 0.35, math.pi / 2),
          Ellipse(Point(0.0, 0.0), 1.45, 0.35, math.pi / 2),
          Ellipse(Point(0.8, 0.0), 1.3, 0.35, math.pi / 2))
    return a0, a1, xs


def hull_polygon_of_bodies(bodies, samples: int = 256) -> ConvexPolygon:
    """Inscribed polygonal approximation of the hull of several bodies,
    through the support contacts at equally spaced normals: at each, the
    first body of largest support value touches the hull."""
    pts = []
    for k in range(samples):
        t = TWO_PI * k / samples
        pts.append(max((support(b, t) for b in bodies), key=lambda ev: ev.value).contact)
    return convex_hull(pts)


@dataclass(frozen=True)
class EllipseHullReport:
    ok: bool
    count: Optional[int]
    shape_rule_fails: bool
    polygon_rule_holds: bool
    details: Tuple[str, ...]


def validate_ellipse_hull_counterexample() -> EllipseHullReport:
    """The pair has two common supporting lines; the three-shape rule fails
    for every (body, dropped shape) choice, each refuted by a GRID_THETA
    sample where the body's support exceeds the maximum of the other
    parts' by more than 1e-9; the polygonal scene still obeys the
    vertex-count theorem."""
    a0, a1, xs = ellipse_hull_counterexample()
    details = []
    scene = Scene(a0, a1, hull_polygon_of_bodies(xs))
    csl = scene_csl(scene)
    count = csl.count if isinstance(csl, CslLines) else None
    if count != 2:
        details.append(f"expected 2 common supporting lines, found {count}")

    shape_rule_fails = True
    for i, inner in enumerate((a0, a1)):
        other = (a0, a1)[1 - i]
        for j in range(3):
            parts = [other] + [x for k, x in enumerate(xs) if k != j]
            h_hull = np.maximum.reduce([support_grid(b, GRID_THETA) for b in parts])
            if not (support_grid(inner, GRID_THETA) - h_hull > 1e-9).any():
                shape_rule_fails = False
                details.append(f"body {i} stays inside with shape {j} dropped")

    try:
        scene.validate()
        cert = check_carousel_bruteforce(scene)
        polygon_rule_holds = cert.verdict == "holds"
        if not polygon_rule_holds:
            details.append("polygon scene unexpectedly fails the rule")
    except Exception as exc:
        polygon_rule_holds = False
        details.append(f"polygon scene invalid: {exc}")

    ok = count == 2 and shape_rule_fails and polygon_rule_holds
    return EllipseHullReport(ok, count, shape_rule_fails, polygon_rule_holds,
                             tuple(details))
