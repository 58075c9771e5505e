import math
import random
from fractions import Fraction
from collections import Counter
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carousel import kernel
from carousel.bodies import Disk, Ellipse
from carousel.errors import EmptyInput, InvalidPolygon
from carousel.kernel import (
    ConvexPolygon,
    HalfPlane,
    Point,
    ccw_gap,
    clip,
    convex_hull,
    cross,
    cw_gap,
    dot,
    intersect_halfplanes,
    norm,
    point_in_polygon,
    unit,
    wrap_angle,
)
from carousel.sectors import NormalArc, sector_from_arc

F = Fraction


def shoelace2(poly):
    """Twice the signed area of a polygon."""
    v = poly.vertices
    return sum(a.x * b.y - a.y * b.x for a, b in zip(v, v[1:] + v[:1]))


def is_convex_combination(p, pts):
    """Brute-force: p lies in some triangle (or segment) spanned by pts."""
    for a, b in combinations(pts, 2):
        if cross(a, b, p) == 0 and min(a.x, b.x) <= p.x <= max(a.x, b.x) \
                and min(a.y, b.y) <= p.y <= max(a.y, b.y):
            return True
    for a, b, c in combinations(pts, 3):
        d = cross(a, b, c)
        if d == 0:
            continue
        s1, s2, s3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
        if d < 0:
            s1, s2, s3 = -s1, -s2, -s3
        if s1 >= 0 and s2 >= 0 and s3 >= 0:
            return True
    return False


def test_wrap_angle_range():
    for t in (-7.0, -math.pi, 0.0, 1.0, math.tau, 10.0):
        w = wrap_angle(t)
        assert 0.0 <= w < math.tau


def test_gaps_complementary():
    a, b = 1.0, 2.5
    assert math.isclose(ccw_gap(a, b) + cw_gap(a, b), math.tau)


def test_hull_singleton():
    h = convex_hull([Point(F(0), F(0))])
    assert h.vertices == (Point(F(0), F(0)),)


def test_hull_drops_interior_point():
    pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0), Point(0.25, 0.25)]
    h = convex_hull(pts)
    assert set(h.vertices) == {Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)}


def test_hull_drops_collinear_expected_square():
    pts = [Point(F(0), F(0)), Point(F(2), F(0)), Point(F(1), F(0)),
           Point(F(2), F(2)), Point(F(0), F(2))]
    h = convex_hull(pts)
    assert set(h.vertices) == {Point(F(0), F(0)), Point(F(2), F(0)),
                               Point(F(2), F(2)), Point(F(0), F(2))}
    retained = list(h.vertices)
    for p in pts:
        if p not in retained:
            assert is_convex_combination(p, retained)


def test_hull_collinear_input_gives_segment():
    pts = [Point(F(0), F(0)), Point(F(1), F(1)), Point(F(3), F(3))]
    h = convex_hull(pts)
    assert set(h.vertices) == {Point(F(0), F(0)), Point(F(3), F(3))}


def test_hull_empty_raises():
    with pytest.raises(EmptyInput):
        convex_hull([])


def test_polygon_rejects_clockwise():
    with pytest.raises(InvalidPolygon):
        ConvexPolygon((Point(0, 0), Point(0, 1), Point(1, 0)))


def test_polygon_rejects_collinear_triple():
    with pytest.raises(InvalidPolygon):
        ConvexPolygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 1)))


def test_polygon_rejects_a_cycle_that_winds_twice():
    # every corner of a star pentagon turns left, and its edges go around twice
    pentagon = [Point(10, 0), Point(3, 10), Point(-8, 6), Point(-8, -6), Point(3, -10)]
    ConvexPolygon(pentagon)
    for start in range(5):
        star = [pentagon[2 * k % 5] for k in range(start, start + 5)]
        with pytest.raises(InvalidPolygon, match="more than once"):
            ConvexPolygon(star)


UNIT_SQUARE = ConvexPolygon((Point(F(0), F(0)), Point(F(1), F(0)),
                             Point(F(1), F(1)), Point(F(0), F(1))))


def test_clip_square_half():
    res = clip(UNIT_SQUARE, HalfPlane(F(1), F(0), F(1, 2)))
    assert res is not None
    assert set(res.vertices) == {Point(F(0), F(0)), Point(F(1, 2), F(0)),
                                 Point(F(1, 2), F(1)), Point(F(0), F(1))}


def test_clip_redundant_constraint():
    res = clip(UNIT_SQUARE, HalfPlane(F(1), F(0), F(2)))
    assert res is not None
    assert set(res.vertices) == set(UNIT_SQUARE.vertices)


def test_clip_triangle_area_ratio():
    tri = ConvexPolygon((Point(F(0), F(0)), Point(F(2), F(0)), Point(F(0), F(2))))
    res = clip(tri, HalfPlane(F(1), F(1), F(1)))
    assert res is not None
    assert set(res.vertices) == {Point(F(0), F(0)), Point(F(1), F(0)), Point(F(0), F(1))}
    for p in res.vertices:
        assert p.x + p.y <= 1
    # similarity ratio 1/2 in each linear dimension
    assert shoelace2(res) == shoelace2(tri) * F(1, 4)


def test_clip_to_empty():
    res = clip(UNIT_SQUARE, HalfPlane(F(1), F(0), F(-1)))
    assert res is None


def test_clip_to_single_edge_point():
    res = clip(UNIT_SQUARE, HalfPlane(F(1), F(1), F(0)))
    assert res is not None
    assert res.vertices == (Point(F(0), F(0)),)


def test_clip_parallel_edge_with_split_tolerance():
    # the bottom edge is parallel to the line, so both ends have the same
    # value, but the far end's larger tolerance puts only it inside
    square = ConvexPolygon(((0., 0.), (10., 0.), (10., 10.), (0., 10.)))
    res = clip(square, HalfPlane(0.0, -1.0, -5e-9), 1e-9)
    assert res is not None
    t = (-10.0 + 5e-9) / -10.0
    assert res.vertices == (Point(0.0, 10.0 + t * (0.0 - 10.0)), Point(10.0, 0.0),
                            Point(10.0, 10.0), Point(0.0, 10.0))


def _oracle_clip(poly, hp, eps=0.0):
    """The scalar clip: a Point loop over the edges, then convex_hull of
    the kept points (an edge parallel to the line gets no crossing)."""
    verts = poly.vertices
    vals = [hp.value(p) for p in verts]
    if eps == 0.0:
        tols = [0.0] * len(verts)
    else:
        nl = norm(Point(hp.nx, hp.ny))
        tols = [eps * (1.0 + p.linf()) * nl for p in verts]
    out = []
    n = len(verts)
    if n == 1:
        return poly if float(vals[0]) <= tols[0] else None
    for i in range(n if n > 2 else 1):
        a, b = verts[i], verts[(i + 1) % n]
        va, vb = vals[i], vals[(i + 1) % n]
        ina = float(va) <= tols[i]
        inb = float(vb) <= tols[(i + 1) % n]
        if ina:
            out.append(a)
        if ina != inb and va - vb != 0:
            if isinstance(va, int) and isinstance(vb, int):
                t = Fraction(va, va - vb)
            else:
                t = va / (va - vb)
            out.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    if n == 2 and float(vals[1]) <= tols[1]:
        out.append(verts[1])
    if not out:
        return None
    return convex_hull(out)


def _oracle_intersect(seed, planes, eps=0.0):
    poly = seed
    for hp in planes:
        if poly is None:
            return None
        poly = _oracle_clip(poly, hp, eps)
    return poly


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as e:  # outcomes that raise compare by exception type
        return type(e)


def _plane_sequences(rng):
    """(category, seed polygon, planes, eps) cases for the clip oracle."""
    def fpoly(k, r=3.0):
        return convex_hull([Point(rng.uniform(-r, r), rng.uniform(-r, r)) for _ in range(k)])

    def qpoly(k, den=4):
        return convex_hull([Point(F(rng.randint(-12, 12), rng.randint(1, den)),
                                  F(rng.randint(-12, 12), rng.randint(1, den)))
                            for _ in range(k)])

    def qplane():
        return HalfPlane(F(rng.randint(-5, 5), rng.randint(1, 3)) or F(1),
                         F(rng.randint(-5, 5), rng.randint(1, 3)),
                         F(rng.randint(-20, 20), rng.randint(1, 4)))

    def fplane(r=2.0):
        t = rng.uniform(0.0, math.tau)
        return HalfPlane(math.cos(t), math.sin(t), rng.uniform(-0.5, r))

    def through(poly):
        v = rng.choice(poly.vertices)
        nx, ny = rng.choice(((1, 0), (0, -1), (1, 1), (-2, 1), (3, -1)))
        if isinstance(v.x, float):
            nx, ny = float(nx), float(ny)
        return HalfPlane(nx, ny, nx * v.x + ny * v.y)

    for k in range(6):
        body = Disk(Point(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), rng.uniform(0.2, 1.0)) \
            if k % 2 else Ellipse(Point(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                                  1.0, rng.uniform(0.05, 1.0), rng.uniform(0.0, math.pi))
        arc = NormalArc(rng.uniform(0.0, math.tau), rng.uniform(0.3, math.tau))
        container = convex_hull([Point(*(rng.uniform(2.0, 4.0) * c for c in unit(t)))
                                 for t in sorted(rng.uniform(0.0, math.tau) for _ in range(8))])
        yield "sector", container, sector_from_arc(body, arc).planes, (0.0, 1e-9)[k < 3]
    for _ in range(400):
        yield "rational", qpoly(rng.randint(3, 9)), [qplane() for _ in range(rng.randint(1, 6))], 0.0
    for _ in range(120):  # integer coordinates and planes keep crossings exact
        poly = convex_hull([Point(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(7)])
        planes = [HalfPlane(rng.randint(-3, 3) or 1, rng.randint(-3, 3), rng.randint(-9, 9))
                  for _ in range(rng.randint(1, 5))]
        yield "integer", poly, planes, 0.0
    for _ in range(300):
        yield "rational-float", qpoly(rng.randint(3, 9)), \
            [fplane(1.5) for _ in range(rng.randint(1, 8))], rng.choice((0.0, 1e-9))
    for _ in range(300):
        poly = rng.choice((fpoly, qpoly))(rng.randint(3, 9))
        planes = [through(poly) if rng.random() < 0.7 else fplane() for _ in range(rng.randint(1, 5))]
        yield "vertex", poly, planes, rng.choice((0.0, 1e-9))
    for _ in range(250):  # hulls of grid points have vertical edges; vertical lines too
        poly = convex_hull([Point(float(rng.randint(-4, 4)), rng.uniform(-3, 3)) for _ in range(8)])
        planes = [HalfPlane(rng.choice((1.0, -1.0)), 0.0, float(rng.randint(-3, 3)))
                  if rng.random() < 0.5 else fplane() for _ in range(rng.randint(1, 5))]
        yield "vertical", poly, planes, rng.choice((0.0, 1e-9, 1e-3))
    for _ in range(300):  # lines within a hair of a vertex, in sequence like a sector
        poly = fpoly(rng.randint(3, 12))
        planes = []
        for _ in range(rng.randint(5, 40)):
            t = rng.uniform(0.0, math.tau)
            h = max(p.x * math.cos(t) + p.y * math.sin(t) for p in poly.vertices)
            planes.append(HalfPlane(math.cos(t), math.sin(t), h + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-15, -7)))
        yield "tangent", poly, planes, rng.choice((0.0, 1e-9))
    for _ in range(300):  # a hair-thin sliver beyond one edge: nearly collinear cycles
        poly = fpoly(rng.randint(3, 6))
        hp = poly.edge_halfplane(rng.randrange(poly.n))
        shift = rng.choice((1e-16, 1e-15, 1e-14, 1e-13)) * rng.choice((1, -1))
        yield "sliver", poly, [HalfPlane(-hp.nx, -hp.ny, -hp.c + shift * norm(Point(hp.nx, hp.ny)))], \
            rng.choice((0.0, 1e-9))
    for _ in range(200):
        num = rng.choice((float, lambda v: F(v).limit_denominator(8)))
        pts = [Point(num(rng.uniform(-2, 2)), num(rng.uniform(-2, 2))) for _ in range(rng.randint(1, 2))]
        seed = ConvexPolygon(tuple(dict.fromkeys(pts)))
        planes = [through(seed) if rng.random() < 0.4 else fplane(1.0) for _ in range(rng.randint(1, 4))]
        yield "degenerate seed", seed, planes, rng.choice((0.0, 1e-9))
    for _ in range(150):
        poly = rng.choice((fpoly, qpoly))(rng.randint(3, 8))
        planes = [fplane() for _ in range(rng.randint(0, 3))] + [HalfPlane(1.0, 0.0, -100.0)]
        yield "empty", poly, planes, rng.choice((0.0, 1e-9))
    for ring in NEAR_COLLINEAR_RINGS:
        yield "near-collinear", ConvexPolygon(ring), [HalfPlane(1.0, 0.0, 5.0)], 0.0


# Nearly collinear rings that ConvexPolygon accepts (every corner a strict
# left turn in floats) but whose hull convex_hull's chains do not rebuild:
# the first raises InvalidPolygon, the second comes back with a vertex twice.
NEAR_COLLINEAR_RINGS = (
    ((0.5537164267218377, -0.38065116729387644), (0.3594202184854566, -0.24708265659642098),
     (-0.41352776942280833, 0.2842787761799608), (-0.822022043155471, 0.565097286567617)),
    ((-0.09604905281163031, 0.2246765703523066), (0.23543229741106772, -0.5507198622377036),
     (0.339234127683442, -0.7935316187224623), (0.17924189550655945, -0.4192800779081076),
     (-0.34345929492385946, 0.8034150694900992), (-0.3436014039034044, 0.8037474887821774),
     (-0.3762810390990609, 0.8801912239486691)),
)


def test_intersect_halfplanes_matches_scalar_clip_oracle(monkeypatch):
    fallbacks = []

    def counted_hull(points):
        fallbacks.append(len(points))
        return convex_hull(points)
    monkeypatch.setattr(kernel, "convex_hull", counted_hull)
    rng = random.Random(2026)
    kinds, outcomes = Counter(), Counter()
    for kind, seed, planes, eps in _plane_sequences(rng):
        want = _outcome(_oracle_intersect, seed, planes, eps)
        assert _outcome(intersect_halfplanes, seed, planes, eps) == want, (kind, seed, planes, eps)
        if planes:
            assert _outcome(clip, seed, planes[0], eps) == _outcome(_oracle_clip, seed, planes[0], eps)
        kinds[kind] += 1
        outcomes["empty" if want == "None" else "raised" if want is InvalidPolygon else "polygon"] += 1
    assert sum(kinds.values()) >= 2000 and len(kinds) == 11
    assert min(outcomes["empty"], outcomes["raised"], outcomes["polygon"]) >= 1
    assert any(k >= 3 for k in fallbacks)  # the fallback ran on a full cycle


def test_rational_clip_takes_the_array_path(monkeypatch):
    hulls = []
    monkeypatch.setattr(kernel, "convex_hull", lambda pts: hulls.append(pts) or convex_hull(pts))
    octagon = ConvexPolygon((Point(F(0), F(-2)), Point(F(2), F(-3)), Point(F(4), F(-1)),
                             Point(F(5), F(1)), Point(F(3), F(4)), Point(F(1), F(5)),
                             Point(F(-1), F(3)), Point(F(-2), F(1))))
    planes = [HalfPlane(F(1), F(1), F(15, 2)), HalfPlane(F(-1), F(2), F(19, 2)),
              HalfPlane(F(1, 3), F(-1), F(3))]
    got = intersect_halfplanes(octagon, planes)
    assert repr(got) == repr(_oracle_intersect(octagon, planes))
    assert hulls == []


def test_point_in_polygon_basics():
    assert point_in_polygon(Point(F(1, 2), F(1, 2)), UNIT_SQUARE)
    assert point_in_polygon(Point(F(1), F(1, 2)), UNIT_SQUARE)
    eps = F(1, 10 ** 6)
    assert not point_in_polygon(Point(F(1) + eps, F(1, 2)), UNIT_SQUARE)


def test_point_in_degenerate_polygons():
    seg = ConvexPolygon((Point(F(0), F(0)), Point(F(2), F(2))))
    assert point_in_polygon(Point(F(1), F(1)), seg)
    assert not point_in_polygon(Point(F(1), F(0)), seg)
    pt = ConvexPolygon((Point(F(3), F(4)),))
    assert point_in_polygon(Point(F(3), F(4)), pt)
    assert not point_in_polygon(Point(F(3), F(5)), pt)


coord = st.integers(min_value=-50, max_value=50)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
def test_hull_idempotent(raw):
    pts = [Point(F(x), F(y)) for x, y in raw]
    h1 = convex_hull(pts)
    h2 = convex_hull(list(h1.vertices))
    assert h1.vertices == h2.vertices


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=10),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-60, max_value=60))
def test_clip_subset_of_input(raw, nx, ny, c):
    if nx == 0 and ny == 0:
        nx = 1
    pts = [Point(F(x), F(y)) for x, y in raw]
    poly = convex_hull(pts)
    res = clip(poly, HalfPlane(F(nx), F(ny), F(c)))
    if res is not None:
        for p in res.vertices:
            assert point_in_polygon(p, poly)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=10))
def test_polygon_orientation_positive_area(raw):
    pts = [Point(F(x), F(y)) for x, y in raw]
    h = convex_hull(pts)
    if h.n >= 3:
        assert shoelace2(h) > 0


def _marked_chain(stack: list, seq, marks) -> dict:
    """Andrew's monotone chain, pushing seq onto stack in place, that also
    returns for each position k of seq in marks a copy of the stack as it
    was before seq[k]: the stack after a prefix depends on that prefix
    only, so a run resumed from such a copy does what a fresh run would."""
    saved = {}
    for k, p in enumerate(seq):
        if k in marks:
            saved[k] = stack[:]
        while len(stack) >= 2 and cross(stack[-2], stack[-1], p) <= 0:
            stack.pop()
        stack.append(p)
    return saved


def _hull_of_chains(pts, lower, upper):
    """The polygon of the sorted distinct points pts from their chains."""
    if not pts:
        raise EmptyInput("convex_hull of no points")
    if len(pts) == 1:
        return ConvexPolygon((pts[0],))
    hull = lower[:-1] + upper[:-1]
    return ConvexPolygon(tuple(hull) if len(hull) >= 2 else (pts[0], pts[-1]))


def listed_from(poly, k):
    """The same polygon with its vertex cycle listed from vertex k."""
    v = poly.vertices
    return ConvexPolygon(v[k:] + v[:k])


def drop_one_hulls(points, drops):
    """j -> convex_hull(points + drops without drops[j]), from one run: the
    hull oracle of the drop-one containment tests.

    The points are sorted and chained once, keeping the lower and upper
    stacks just before each drop; hull j resumes both from there and
    chains the rest without drops[j].  A drop that occurs twice in the
    input leaves the point set, and so the hull, unchanged.
    """
    drops = [Point(p[0], p[1]) for p in drops]
    listed = [Point(p[0], p[1]) for p in points] + drops
    pts = sorted(set(listed))
    at = {p: k for k, p in enumerate(pts)}
    counts = Counter(listed)
    single = {at[p] for p in drops if counts[p] == 1}
    lower, upper = [], []
    below = _marked_chain(lower, pts, single)
    above = _marked_chain(upper, pts[::-1], {len(pts) - 1 - k for k in single})

    def hull(j):
        k = at[drops[j]]
        if k not in single:
            return _hull_of_chains(pts, lower, upper)
        lo, up = below[k][:], above[len(pts) - 1 - k][:]
        _marked_chain(lo, pts[k + 1:], ())
        _marked_chain(up, pts[k - 1::-1] if k else (), ())
        return _hull_of_chains(pts[:k] + pts[k + 1:], lo, up)
    return hull


def _fresh_or_error(points):
    try:
        return convex_hull(points)
    except EmptyInput:
        return EmptyInput


def test_drop_one_hulls_equal_fresh_hulls():
    # a small grid gives duplicates, collinear triples, points on edges and
    # hulls of one to three points; drops may repeat a point or each other
    rng = random.Random(2026)
    seen = set()
    for trial in range(3000):
        num = (int, F, float)[trial % 3]

        def grid():
            return Point(num(rng.randint(0, 4)), num(rng.randint(0, 4)))
        points = [grid() for _ in range(rng.randint(0, 6))]
        drops = [grid() for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            drops.append(rng.choice(points or drops))
        hulls = drop_one_hulls(points, drops)
        for j in range(len(drops)):
            want = _fresh_or_error(points + drops[:j] + drops[j + 1:])
            if want is EmptyInput:
                with pytest.raises(EmptyInput):
                    hulls(j)
                seen.add("empty")
                continue
            got = hulls(j)
            assert repr(got.vertices) == repr(want.vertices)
            seen.add(got.n if got.n < 4 else "polygon")
    assert seen == {"empty", 1, 2, 3, "polygon"}


def test_exact_float_hull_agreement():
    rng = random.Random(7)
    for _ in range(300):
        pts = [(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
               for _ in range(rng.randint(1, 12))]
        he = convex_hull([Point(F(x), F(y)) for x, y in pts])
        hf = convex_hull([Point(float(x), float(y)) for x, y in pts])
        assert [(float(p.x), float(p.y)) for p in he.vertices] == \
               [(p.x, p.y) for p in hf.vertices]


def test_halfplane_geometry():
    hp = HalfPlane(*unit(math.pi / 2), 1.0)
    assert hp.contains(Point(0.0, 0.5))
    assert not hp.contains(Point(0.0, 1.5))
    assert math.isclose(hp.unit_offset, 1.0)


def test_boundary_param_roundtrip():
    sq = UNIT_SQUARE.as_float()
    cum = sq.cumulative_lengths()
    for param in (0.0, 0.5, 1.0, 2.25, 3.9):
        i = max(k for k in range(sq.n) if cum[k] <= param)
        a, b = sq.edge(i)
        frac = (param - cum[i]) / (cum[i + 1] - cum[i])
        p = Point(a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))
        assert point_in_polygon(p, sq, 1e-12)
        assert math.isclose(sq.boundary_param(p, i), param, abs_tol=1e-12)


def test_polygon_caches_equal_fresh_values():
    rng = random.Random(11)
    polys = [UNIT_SQUARE]
    for _ in range(40):
        pts = [Point(F(rng.randint(-90, 90), rng.randint(1, 7)), rng.randint(-50, 50))
               for _ in range(rng.randint(1, 9))]
        polys.append(convex_hull(pts))
        polys.append(convex_hull([Point(float(x), float(y)) for x, y in pts]))
    for poly in polys:
        v = poly.vertices
        n = len(v)
        twin = poly.as_float()
        assert twin is poly.as_float()
        assert twin.vertices == tuple(Point(float(p.x), float(p.y)) for p in v)
        assert all(isinstance(c, float) for p in twin.vertices for c in p)
        lengths = [math.hypot(float(v[(i + 1) % n].x - v[i].x),
                              float(v[(i + 1) % n].y - v[i].y)) for i in range(n)]
        assert list(poly.cumulative_lengths()) == list(accumulate(lengths, initial=0.0))
        assert poly.perimeter == (0.0 if n == 1 else sum(lengths))
        for i in range(-1, n + 1):
            a, b = v[i % n], v[(i + 1) % n]
            nrm = Point(b.y - a.y, a.x - b.x)
            assert poly.edge_halfplane(i) == HalfPlane(nrm.x, nrm.y, dot(nrm, a))


def test_unit_dot():
    u = unit(0.3)
    assert math.isclose(dot(u, u), 1.0)
