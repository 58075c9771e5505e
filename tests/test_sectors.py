import bisect
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from carousel.bodies import (
    Disk,
    Ellipse,
    PointBody,
    PolygonBody,
    is_polygonal,
    origin_radius,
    polygonal_vertices,
    support,
    support_batch,
    support_dir,
)
from carousel import sectors
from carousel.constructions import FuzzConfig, generate_fuzz_scene
from carousel.errors import ExpansionTooWide, InvalidPolygon
from carousel.kernel import (
    ConvexPolygon,
    Point,
    TWO_PI,
    angle_of,
    as_float_point,
    circ_dist,
    convex_hull,
    cw_gap,
    point_in_polygon,
    unit,
    wrap_angle,
)
from carousel.sectors import (
    NormalArc,
    _left_normal_polygonal,
    _left_normal_smooth,
    boundary_exit,
    expand_sector,
    sector_from_arc,
    sweep,
    vertex_hit_events,
    vertices_between,
)
from carousel.tangency import (
    CslLines,
    adjacent_pairs,
    common_supporting_lines,
    make_support_line,
    slide_turn,
)
from test_kernel import _oracle_intersect, listed_from

F = Fraction

BIG_SQUARE = ConvexPolygon((Point(-2.0, -2.0), Point(2.0, -2.0),
                            Point(2.0, 2.0), Point(-2.0, 2.0)))


def cw_arc(l1, l2):
    """Clockwise normal arc from line l1 to line l2."""
    return NormalArc(l1.normal, cw_gap(l1.normal, l2.normal))


def test_normal_arc_basics():
    arc = NormalArc(math.pi / 2, math.pi / 2)  # cw from north to east
    assert circ_dist(arc.end, 0.0) < 1e-12
    assert arc.contains(math.pi / 4)
    assert not arc.contains(math.pi)
    angles = arc.angles(3)
    assert circ_dist(angles[1], math.pi / 4) < 1e-12


def test_disk_quarter_sector_hugs_boundary():
    disk = Disk(Point(0.0, 0.0), 1.0)
    l1 = make_support_line(disk, math.pi / 2)
    l2 = make_support_line(disk, 0.0)
    sec = sector_from_arc(disk, cw_arc(l1, l2))
    # every boundary point of the disk with normal inside the arc lies on
    # the sector boundary within the sampling resolution
    for t in [k * (math.pi / 2) / 40 for k in range(41)]:
        p = Point(math.cos(t), math.sin(t))
        assert sec.contains_point(p, 1e-9)
        worst = max(float(hp.value(p)) for hp in sec.planes)
        assert abs(worst) <= 1e-4
    assert sec.contains_body(disk)


def test_polygon_sector_two_planes_when_no_edge_normals_inside():
    sq = PolygonBody(ConvexPolygon((Point(0.0, 0.0), Point(1.0, 0.0),
                                    Point(1.0, 1.0), Point(0.0, 1.0))))
    # arc from 80 to 10 degrees contains no edge normal of the square
    l1 = make_support_line(sq, math.radians(80))
    l2 = make_support_line(sq, math.radians(10))
    sec = sector_from_arc(sq, cw_arc(l1, l2))
    assert len(sec.planes) == 2


def test_minus_sector_contains_body():
    disk = Disk(Point(0.0, 0.0), 1.0)
    l1 = make_support_line(disk, math.pi / 2)
    l2 = make_support_line(disk, 0.0)
    plus = sector_from_arc(disk, cw_arc(l1, l2))
    minus = sector_from_arc(disk, cw_arc(l2, l1))
    rng = random.Random(0)
    for _ in range(1000):
        t = rng.uniform(0, TWO_PI)
        r = math.sqrt(rng.uniform(0, 1))
        p = Point(r * math.cos(t), r * math.sin(t))
        assert minus.contains_point(p, 1e-9)
        assert plus.contains_point(p, 1e-9)
    # the quarter-arc sector is unconstrained away from its arc and opens
    # south-west; the complementary-arc sector is bounded there
    assert plus.contains_point(Point(-50.0, -50.0), 1e-9)
    assert not minus.contains_point(Point(-50.0, -50.0), 1e-9)
    assert not plus.contains_point(Point(50.0, 50.0), 1e-9)


def test_expand_sector_identity_and_superset():
    disk = Disk(Point(0.0, 0.0), 1.0)
    l1 = make_support_line(disk, math.pi / 2)
    l2 = make_support_line(disk, 0.0)
    base = sector_from_arc(disk, cw_arc(l1, l2))
    same = expand_sector(l1, l2, disk, 0.0, 0.0)
    assert circ_dist(same.arc.start, base.arc.start) < 1e-12
    assert math.isclose(same.arc.width, base.arc.width, abs_tol=1e-12)

    grown = expand_sector(l1, l2, disk, math.pi / 8, math.pi / 8)
    base_clip = base.clipped(BIG_SQUARE, 1e-9)
    grown_clip = grown.clipped(BIG_SQUARE, 1e-9)
    assert base_clip is not None and grown_clip is not None
    # sampled tangent families differ between the two sectors; the sag of a
    # 512-sample quarter arc bounds the mismatch
    for v in base_clip.vertices:
        assert point_in_polygon(v, grown_clip, 1e-5)
    def area(poly):  # shoelace
        v = poly.vertices
        return float(sum(a.x * b.y - a.y * b.x for a, b in zip(v, v[1:] + v[:1]))) / 2.0

    assert area(grown_clip) > area(base_clip) - 1e-5


def test_smooth_sector_clip_builds_no_hull_per_plane(monkeypatch):
    # one pass over the 514 half-planes and the square's edges, then one hull
    hulls, polygons = [], []
    monkeypatch.setattr(sectors, "convex_hull",
                        lambda pts: hulls.append(pts) or convex_hull(pts))
    validate = ConvexPolygon.__post_init__
    monkeypatch.setattr(ConvexPolygon, "__post_init__",
                        lambda self: polygons.append(self) or validate(self))
    sec = sector_from_arc(Ellipse(Point(0.3, -0.2), 0.9, 0.4, 0.7), NormalArc(2.0, 4.5))
    clipped = sec.clipped(BIG_SQUARE, 1e-9)
    assert len(sec.planes) == 514 and clipped is not None and clipped.n > 300
    assert len(hulls) == 1 and len(polygons) == 1


def _printed(poly):
    """The vertex cycle as an SVG prints it, at six decimals."""
    return [(f"{float(p.x):.6f}", f"{float(p.y):.6f}") for p in poly.vertices]


def _fold(printed):
    """The cycle without each vertex that prints like its predecessor, kept
    from its first vertex."""
    out = [p for k, p in enumerate(printed) if k == 0 or p != printed[k - 1]]
    while len(out) > 1 and out[-1] == out[0]:
        out.pop()
    return out


def _sector_cases(rng):
    """(category, body, arc, container, eps) for sectors whose intersection
    with the container is bounded and has interior."""
    def container(exact):  # holds the disk of radius 1.6 about the origin, and every body
        k = rng.randint(4, 9)
        pts = [Point(*(rng.uniform(4.0, 5.0) * c for c in unit(TWO_PI * (j + rng.uniform(-0.2, 0.2)) / k)))
               for j in range(k)]
        if exact:
            pts = [Point(F(p.x).limit_denominator(16), F(p.y).limit_denominator(16)) for p in pts]
        return convex_hull(pts)

    def centre():
        return Point(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

    widths = (0.004, rng.uniform(0.1, math.pi), rng.uniform(math.pi, TWO_PI), TWO_PI)
    for j in range(8):  # each width for a disk and an ellipse; containers and eps alternate
        body = Disk(centre(), rng.uniform(0.2, 1.0)) if j % 2 == 0 else \
            Ellipse(centre(), 1.0, rng.uniform(0.05, 1.0), rng.uniform(0.0, math.pi))
        yield "smooth", body, NormalArc(rng.uniform(0.0, TWO_PI), widths[j // 2]), \
            container(j % 4 in (1, 2)), (0.0, 1e-9)[j % 4 >= 2]
    for k in range(160):  # points and segments get padding planes over these widths
        c = centre()
        kind, body, width = rng.choice((
            ("polygon", PolygonBody(convex_hull([c + Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                                 for _ in range(rng.randint(3, 7))])),
             rng.choice((rng.uniform(0.0, TWO_PI), TWO_PI))),
            ("point", PointBody(c), rng.uniform(0.55 * math.pi, 0.95 * math.pi)),
            ("segment", PolygonBody(ConvexPolygon((c, c + Point(rng.uniform(-1, 1), rng.uniform(-1, 1))))),
             rng.uniform(0.55 * math.pi, 0.95 * math.pi))))
        yield kind, body, NormalArc(rng.uniform(0.0, TWO_PI), width), container(k % 3 == 0), (0.0, 1e-9)[k % 2]
    # the arc's end or start plane lies on the container's bottom edge, or
    # on its left edge from the far end of the normal order: the start
    # normal one step past pi has angle -pi, the edge's pi.  The scalar
    # clip at eps = 0 cuts the latter box by a sliver as wide as a rounding
    # step, which the pass does not test for, so that case runs at 1e-9.
    for exact in (False, True):
        num = F if exact else float
        box = ConvexPolygon(tuple(Point(num(x), num(y)) for x, y in ((-3, -1), (3, -1), (3, 4), (-3, 4))))
        for k, arc in enumerate((NormalArc(2.5, 2.5 - 1.5 * math.pi + TWO_PI), NormalArc(1.5 * math.pi, 2.0))):
            if k == exact:
                yield "edge", Disk(Point(0.37, 0.0), 1.0), arc, box, (0.0, 1e-9)[k]
            for eps in (0.0, 1e-9):
                yield "edge", PolygonBody(ConvexPolygon(((-0.6, -1.0), (0.9, -1.0), (0.2, 0.7)))), arc, box, eps
        yield "edge", Disk(Point(-2.0, 1.5), 1.0), NormalArc(math.nextafter(math.pi, 4.0), 2.0), box, 1e-9


def test_clipped_matches_scalar_clip_oracle():
    # the one-pass sector against clipping the container by each plane in
    # turn: the same vertices at the SVG's six decimals.  Where three or
    # more lines meet at one point (a polygon's vertex that holds both arc
    # ends or sits inside a full turn, the apex of a point's or a segment's
    # padded sector) the scalar clip can leave corners within rounding of
    # each other that print alike, and the pass leaves one; or it raises,
    # when convex_hull gets such corners in an order whose hull fails the
    # strict left-turn check.
    rng = random.Random(2026)
    kinds, raised = Counter(), Counter()
    for kind, body, arc, container, eps in _sector_cases(rng):
        sec = sector_from_arc(body, arc)
        got = sec.clipped(container, eps)
        kinds[kind] += 1
        try:
            want = _printed(_oracle_intersect(container, sec.planes, eps))
        except InvalidPolygon:
            raised[kind] += 1
            continue
        meet = kind in ("polygon", "point", "segment")
        assert got is not None and _printed(got) == (_fold(want) if meet else want), \
            (kind, body, arc, container, eps)
    assert min(kinds.values()) >= 8 and len(kinds) == 5
    assert raised["smooth"] == raised["edge"] == 0
    assert sum(raised.values()) <= sum(kinds.values()) // 20


def test_expand_sector_full_gap_single_halfplane():
    disk = Disk(Point(0.0, 0.0), 1.0)
    l1 = make_support_line(disk, math.pi / 2)
    l2 = make_support_line(disk, 0.0)
    sec = expand_sector(l1, l2, disk, math.pi / 4, math.pi / 4)
    assert sec.arc.width <= 1e-12
    assert len(sec.planes) == 1
    assert circ_dist(sec.arc.start, math.pi / 4) < 1e-12


def test_expand_sector_too_wide():
    disk = Disk(Point(0.0, 0.0), 1.0)
    l1 = make_support_line(disk, math.pi / 2)
    l2 = make_support_line(disk, 0.0)
    with pytest.raises(ExpansionTooWide):
        expand_sector(l1, l2, disk, math.pi / 2, math.pi / 4)


def test_boundary_exit_axis_aligned():
    # travelled with the disk on its left, the top tangent runs west to the
    # left edge and the east tangent north to the top edge
    disk = Disk(Point(0.0, 0.0), 1.0)
    top = boundary_exit(make_support_line(disk, math.pi / 2), BIG_SQUARE)
    assert math.isclose(top.location.x, -2.0, abs_tol=1e-9)
    assert math.isclose(top.location.y, 1.0, abs_tol=1e-9)
    assert math.isclose(top.param, 13.0, abs_tol=1e-9)  # 1 along edge 3

    east = boundary_exit(make_support_line(disk, 0.0), BIG_SQUARE)
    assert math.isclose(east.location.x, 1.0, abs_tol=1e-9)
    assert math.isclose(east.location.y, 2.0, abs_tol=1e-9)
    assert math.isclose(east.param, 9.0, abs_tol=1e-9)  # 1 along edge 2


def test_boundary_exit_along_an_edge_lands_on_its_end_vertex():
    # a segment body lying on the bottom edge of the square: the edge it
    # runs along does not bind, and the exit snaps to vertex 1 at (2, -2)
    seg = PolygonBody(ConvexPolygon((Point(-0.5, -2.0), Point(0.5, -2.0))))
    line = make_support_line(seg, 3 * math.pi / 2)  # the bottom edge line
    ex = boundary_exit(line, BIG_SQUARE)
    assert ex.location == Point(2.0, -2.0)
    assert ex.param == BIG_SQUARE.as_float().cumulative_lengths()[1]


def test_sweep_two_disks_in_square_matches_alpha_sampling():
    a0 = Disk(Point(-0.5, 0.0), 0.25)
    a1 = Disk(Point(0.5, 0.0), 0.25)
    csl = common_supporting_lines(a0, a1)
    assert csl.count == 2
    pairs = adjacent_pairs(csl)
    assert all(math.isclose(p.delta, math.pi, abs_tol=1e-9) for p in pairs)
    top = max(csl.lines, key=lambda l: math.sin(l.normal))
    pair = next(p for p in pairs if p.line is top)
    # inside the gap the dominant body's support is the pair hull's
    dom = a0 if csl.signs[pair.index] > 0 else a1
    sw = sweep(pair.line, pair.cw_next, BIG_SQUARE)
    # brute-force alpha sampling oracle: walk the exit point and collect the
    # vertices crossed at carrier-edge changes; clockwise travel on a ccw
    # polygon leaves edge e across vertex e into edge e-1
    crossed = []
    offsets = []
    fc = BIG_SQUARE.as_float()
    perim = fc.perimeter
    cum = fc.cumulative_lengths()
    prev_edge = None
    start_param = None
    steps = 10 ** 4
    for k in range(steps + 1):
        alpha = pair.delta * k / steps
        turned = slide_turn(dom, pair.line, alpha)
        ex = boundary_exit(turned, BIG_SQUARE)
        if start_param is None:
            start_param = ex.param
        offsets.append((start_param - ex.param) % perim if k else 0.0)
        # an exit near a vertex snaps onto it, param and all
        at_vertex = ex.param in cum
        edge = bisect.bisect_right(cum, ex.param) - 1
        if prev_edge is not None and not at_vertex and edge != prev_edge:
            e = prev_edge
            while e != edge:
                crossed.append(e)
                e = (e - 1) % fc.n
        prev_edge = None if at_vertex else edge
    # monotone clockwise travel of the exit point
    assert all(b >= a - 1e-7 for a, b in zip(offsets, offsets[1:]))
    assert tuple(crossed) == sw.covered
    # the exit of the top tangent starts on the left edge, climbs over the
    # top corners and ends on the right edge
    assert sw.covered == (3, 2)


def test_sweep_single_line_covers_everything():
    a0 = Disk(Point(0.0, 0.0), 0.5)
    a1 = Disk(Point(0.25, 0.0), 0.25)  # internally tangent: s = 1
    csl = common_supporting_lines(a0, a1)
    assert csl.count == 1
    pair = adjacent_pairs(csl)[0]
    sw = sweep(pair.line, pair.cw_next, BIG_SQUARE)
    assert sorted(sw.covered) == [0, 1, 2, 3]
    assert sw.end == sw.start  # a full turn ends where it starts


def test_consecutive_sweeps_share_endpoint():
    a0 = Disk(Point(-0.5, 0.1), 0.3)
    a1 = Disk(Point(0.6, -0.2), 0.4)
    csl = common_supporting_lines(a0, a1)
    pairs = adjacent_pairs(csl)
    sweeps = {p.index: sweep(p.line, p.cw_next, BIG_SQUARE) for p in pairs}
    # line i's sweep ends where the sweep of its clockwise successor starts
    for p in pairs:
        nxt_idx = next(q.index for q in pairs if q.line is p.cw_next)
        s1 = sweeps[p.index]
        s2 = sweeps[nxt_idx]
        d = as_float_point(s1.end.location) - as_float_point(s2.start.location)
        assert math.hypot(d.x, d.y) <= 1e-7
    # the sweeps tile the boundary: their clockwise lengths add up to the
    # perimeter, and together they cover every vertex
    perim = BIG_SQUARE.perimeter
    total = sum((s.start.param - s.end.param) % perim for s in sweeps.values())
    assert math.isclose(total, perim, rel_tol=1e-6)
    assert set().union(*(s.covered for s in sweeps.values())) == set(range(BIG_SQUARE.n))


def test_vertex_events_polygonal_and_smooth_agree():
    body_poly = PolygonBody(ConvexPolygon((Point(-0.5, -0.3), Point(0.5, -0.3),
                                           Point(0.5, 0.3), Point(-0.5, 0.3))))
    ev, inside = vertex_hit_events(body_poly, BIG_SQUARE)
    assert not inside
    assert sorted(ev) == list(range(BIG_SQUARE.n))
    disk = Disk(Point(0.1, -0.2), 0.4)
    ev2, inside2 = vertex_hit_events(disk, BIG_SQUARE)
    assert not inside2
    assert sorted(ev2) == list(range(BIG_SQUARE.n))
    # at each left event normal the supporting line of either body passes
    # through the vertex
    for body, events in ((body_poly, ev), (disk, ev2)):
        for vertex, normal in events.items():
            v = BIG_SQUARE.vertices[vertex]
            n = unit(normal)
            h = support(body, normal).value
            assert abs(float(v.x) * n.x + float(v.y) * n.y - h) <= 1e-7


def _top_pair_witness_chain():
    """Two small disks near the bottom of the square: the top pair's gap
    turns clockwise through east, where a1 dominates, so its vertex events
    are a1's.  Returns a1, the pair, the turn angles set by the first left
    event and the last right tangent (from the grid bisection oracle), the
    first left event's vertex, and the chain."""
    a0 = Disk(Point(-0.4, -1.0), 0.3)
    a1 = Disk(Point(0.4, -1.0), 0.3)
    csl = common_supporting_lines(a0, a1)
    top = max(csl.lines, key=lambda l: math.sin(l.normal))
    pair = next(p for p in adjacent_pairs(csl) if p.line is top)
    arc = NormalArc(pair.line.normal, pair.delta)
    lefts, _ = vertex_hit_events(a1, BIG_SQUARE)
    rights = {v: t for v, g in enumerate(BIG_SQUARE.vertices)
              for t, side in _grid_bisection_tangents(a1, g) or () if side == "R"}
    first = min((v for v, t in lefts.items() if arc.contains(t)),
                key=lambda v: arc.clockwise_offset(lefts[v]))
    last = max((v for v, t in rights.items() if arc.contains(t)),
               key=lambda v: arc.clockwise_offset(rights[v]))
    alpha = arc.clockwise_offset(lefts[first])
    beta = pair.delta - arc.clockwise_offset(rights[last])
    start = wrap_angle(pair.line.normal - alpha)
    end = wrap_angle(pair.cw_next.normal + beta)
    assert csl.signs[pair.index] < 0  # a1 dominates the gap
    chain = vertices_between(first, last,
                             NormalArc(start, cw_gap(start, end)), a1, BIG_SQUARE)
    return a1, pair, alpha, beta, first, chain


def test_vertices_between_simple():
    dom, pair, alpha, _, first, chain = _top_pair_witness_chain()
    # the first line, turned to the first left event, exits at its vertex
    ex = boundary_exit(slide_turn(dom, pair.line, alpha), BIG_SQUARE)
    assert ex.location == BIG_SQUARE.vertices[first]
    # the chain runs clockwise from the last right tangent's vertex to the
    # first left event's: the square's left edge
    assert (first, chain) == (3, [0, 3])


def test_clipped_sector_inside_hull_of_body_and_between_vertices():
    # sample the expanded sector region; every point must lie in the hull of
    # the dominant body with the vertices between the turned lines
    from carousel.bodies import contained_in_hull, PointBody

    dom, pair, alpha, beta, _, vb = _top_pair_witness_chain()
    grown = expand_sector(pair.line, pair.cw_next, dom, alpha, beta)
    clipped = grown.clipped(BIG_SQUARE, 1e-9)
    assert clipped is not None
    extra = [BIG_SQUARE.vertices[i] for i in vb]
    rng = random.Random(12)
    verts = [as_float_point(v) for v in clipped.vertices]
    for _ in range(1000):
        ws = [rng.random() for _ in verts]
        tot = sum(ws)
        p = Point(sum(w * v.x for w, v in zip(ws, verts)) / tot,
                  sum(w * v.y for w, v in zip(ws, verts)) / tot)
        res = contained_in_hull(PointBody(p), dom, extra, eps=1e-6)
        assert res.contained, (p, res.margin)


def test_segment_sector_over_wide_arc_is_exact():
    # over the half-turn of normals facing east, the sector of a horizontal
    # segment is the leftward ray from its right endpoint, not a full line
    seg = PolygonBody(ConvexPolygon((Point(0.0, 0.0), Point(1.0, 0.0))))
    arc = NormalArc(math.pi / 2, math.pi)  # cw from north through east to south
    sec = sector_from_arc(seg, arc)
    assert sec.contains_point(Point(0.5, 0.0), 1e-9)
    assert sec.contains_point(Point(-3.0, 0.0), 1e-9)
    assert not sec.contains_point(Point(1.5, 0.0), 1e-9)
    assert not sec.contains_point(Point(0.5, 0.2), 1e-9)


def test_point_sector_over_arc_wider_than_halfturn():
    # normals spanning more than a half turn pin the sector to the point
    body = PointBody(Point(0.25, -0.5))
    sec = sector_from_arc(body, NormalArc(0.0, 4.0))
    assert sec.contains_point(Point(0.25, -0.5), 1e-9)
    for probe in (Point(0.3, -0.5), Point(0.25, -0.45), Point(0.2, -0.55)):
        assert not sec.contains_point(probe, 1e-9)


def _grid_bisection_tangents(parts, g, grid=1024):
    """Reference oracle: sign changes of g.n(t) - h(t) on a grid, bisected.
    h is the support of one body, or of the hull of a tuple of bodies: the
    maximum of theirs, with the first maximal body's contact."""
    parts = parts if isinstance(parts, tuple) else (parts,)
    fg = as_float_point(g)
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    ct, st = np.cos(thetas), np.sin(thetas)
    vals = fg.x * ct + fg.y * st - np.maximum.reduce([support_batch(b, ct, st) for b in parts])

    def hull_support(t):
        return max((support(b, t) for b in parts), key=lambda ev: ev.value)

    def f(t):
        n = unit(t)
        return fg.x * n.x + fg.y * n.y - hull_support(t).value

    roots = []
    step = TWO_PI / grid
    for i in range(grid):
        a, b = float(vals[i]), float(vals[(i + 1) % grid])
        if (a > 0) != (b > 0):
            lo, hi = thetas[i], thetas[i] + step
            fa = a
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if (fa > 0) != (fm > 0):
                    hi = mid
                else:
                    lo, fa = mid, fm
            roots.append(wrap_angle(0.5 * (lo + hi)))
    if len(roots) != 2:
        return None
    out = []
    for t in roots:
        contact = hull_support(t).contact
        dl = unit(wrap_angle(t + math.pi / 2))
        along = (fg.x - float(contact.x)) * dl.x + (fg.y - float(contact.y)) * dl.y
        out.append((t, "L" if along > 0 else "R"))
    return tuple(out)


def _random_tangent_cases(count, seed=2026):
    rng = random.Random(seed)

    def pt(s=1.0):
        return Point(rng.uniform(-s, s), rng.uniform(-s, s))

    def disk():
        return Disk(pt(), rng.uniform(0.05, 1.0))

    def thin_ellipse():
        a = rng.uniform(0.1, 1.2)
        return Ellipse(pt(), a, a * rng.uniform(0.01, 0.1), rng.uniform(0.0, TWO_PI))

    def ellipse():
        a = rng.uniform(0.1, 1.2)
        return Ellipse(pt(), a, a * rng.uniform(0.1, 1.0), rng.uniform(0.0, TWO_PI))

    makers = [disk, thin_ellipse, ellipse]
    return [(makers[k % len(makers)](), pt(3.0)) for k in range(count)]


def test_closed_form_tangents_match_grid_bisection_oracle():
    cases = _random_tangent_cases(600)
    kinds = set()
    for body, g in cases:
        ref = _grid_bisection_tangents(body, g)
        got = _left_normal_smooth(body, g)
        assert (got is None) == (ref is None), (body, g)
        kinds.add((type(body).__name__, got is None))
        if got is None:
            continue
        t_ref = next(t for t, side in ref if side == "L")
        assert circ_dist(got, t_ref) <= 1e-11
        n = unit(got)
        residual = g.x * n.x + g.y * n.y - support(body, got).value
        assert abs(residual) <= 1e-12 * (1.0 + math.hypot(g.x, g.y))
    # every body kind was met both outside (a left event) and inside (None)
    assert kinds == {(k, none) for k in ("Disk", "Ellipse")
                     for none in (False, True)}


def _hull_left_normal(body, g):
    """Reference left event of g at a polygonal body, and whether the hull
    is a segment: the outward normal of the edge arriving at g in the ccw
    hull of the body's vertices and g, turned from the segment when that
    hull is one; None when g is not a hull vertex outside the body."""
    verts = polygonal_vertices(body)
    hull = convex_hull(verts + [g])
    if g in verts or g not in hull.vertices:
        return None
    gi = hull.vertices.index(g)
    if hull.n == 2:
        d = as_float_point(g) - as_float_point(hull.vertices[1 - gi])
        return wrap_angle(angle_of(d) - math.pi / 2), True
    return hull.outward_normal_angle(gi - 1), False


def _random_point_bodies(count, seed=556):
    """(body, g) cases: 1 to 6 points on a small grid, so that repeated
    points, collinear triples, segments and points are common, with int,
    Fraction, float or jittered float coordinates.  Every third case puts
    the points on a line through g.  Even cases take the polygon of the
    points' hull; odd ones take each point alone, and that polygon listed
    from a random vertex."""
    rng = random.Random(seed)
    numbers = (int, lambda c: Fraction(c, 3), float,
               lambda c: c + rng.uniform(-0.5, 0.5))
    cases = []
    for k in range(count):
        num = numbers[k % len(numbers)]
        gx, gy = rng.randint(-6, 6), rng.randint(-6, 6)
        m = rng.randint(1, 6)
        if k % 3 == 0:
            dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (-1, 3)])
            ts = [rng.choice([-2, -1, 1, 2, 3, 4]) for _ in range(m)]
            raw = [(gx + t * dx, gy + t * dy) for t in ts]
        else:
            raw = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(m)]
        pts = [Point(num(x), num(y)) for x, y in raw]
        hull = convex_hull(pts)
        forms = ([PolygonBody(hull)] if k % 2 == 0 else
                 [*map(PointBody, pts), PolygonBody(listed_from(hull, rng.randrange(hull.n)))])
        cases += [(body, Point(num(gx), num(gy))) for body in forms]
    return cases


def test_scanned_polygonal_tangent_equals_hull_edge_normal():
    # the one-scan predecessor of g gives the hull edge's normal bit for bit,
    # also when every vertex lies on a line through g
    compared = flat = 0
    for body, g in _random_point_bodies(16000):
        ref = _hull_left_normal(body, g)
        if ref is None:
            continue
        assert _left_normal_polygonal(body, g) == ref[0], (body, g)
        compared += 1
        flat += ref[1]
    assert compared >= 10000 and flat >= 1000, (compared, flat)


def test_dominant_body_events_match_hull_tangent_oracle():
    # strictly inside a gap the pair hull's support is the dominant body's,
    # so the dominant body's left events there are the hull's left tangents
    cfg = FuzzConfig(seed=2026)
    margin = 1e-7
    matched = 0
    for k in range(300):
        scene = generate_fuzz_scene(cfg, k)
        if is_polygonal(scene.a0) and is_polygonal(scene.a1):
            continue
        csl = common_supporting_lines(scene.a0, scene.a1, scene.tol.eps)
        if not (isinstance(csl, CslLines) and 1 <= csl.count < scene.n):
            continue
        oracle = {v: t for v, g in enumerate(scene.container.vertices)
                  for t, side in _grid_bisection_tangents((scene.a0, scene.a1), g) or ()
                  if side == "L"}
        events = [vertex_hit_events(b, scene.container, scene.tol.eps)[0]
                  for b in (scene.a0, scene.a1)]
        for pair in adjacent_pairs(csl):
            arc = NormalArc(pair.line.normal, pair.delta)
            dom = events[0 if csl.signs[pair.index] > 0 else 1]
            for v, normal in dom.items():
                if margin < arc.clockwise_offset(normal) < pair.delta - margin:
                    t = oracle.get(v)
                    assert t is not None and circ_dist(t, normal) <= 1e-9, (k, v)
                    matched += 1
            # and each left hull tangent well inside the gap is a dominant event
            for v, t in oracle.items():
                if 2 * margin < arc.clockwise_offset(t) < pair.delta - 2 * margin:
                    assert v in dom and circ_dist(t, dom[v]) <= 1e-9, (k, v)
    assert matched >= 1000


def _plane_loop_contains_body(sec, other, eps):
    scale = 1.0 + max(origin_radius(other), max(abs(hp.c) for hp in sec.planes))
    return all(float(support_dir(other, Point(hp.nx, hp.ny))[0]) <= hp.c + eps * scale
               for hp in sec.planes)


def test_array_sector_membership_matches_halfplane_loop():
    rng = random.Random(7)
    bodies = [Disk(Point(0.2, -0.1), 0.6),
              Ellipse(Point(-0.3, 0.4), 0.9, 0.2, 1.1),
              PolygonBody(ConvexPolygon((Point(-0.5, -0.5), Point(0.6, -0.4),
                                         Point(0.3, 0.7)))),
              PointBody(Point(0.8, 0.5))]
    outcomes = set()
    for body in bodies:
        for _ in range(12):
            sec = sector_from_arc(body, NormalArc(rng.uniform(0.0, TWO_PI),
                                                  rng.uniform(0.0, TWO_PI)))
            for eps in (0.0, 1e-9, 1e-3):
                for _ in range(40):
                    p = Point(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                    ref = all(hp.contains(p, eps) for hp in sec.planes)
                    assert sec.contains_point(p, eps) == ref
                    outcomes.add(("point", ref))
                for _ in range(10):
                    other = Disk(Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                                 rng.uniform(0.05, 0.5))
                    ref = _plane_loop_contains_body(sec, other, eps)
                    assert sec.contains_body(other, eps) == ref
                    outcomes.add(("body", ref))
    assert outcomes == {(k, v) for k in ("point", "body") for v in (False, True)}
