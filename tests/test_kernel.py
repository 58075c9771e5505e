import math
import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    drop_one_hulls,
    point_in_polygon,
    unit,
    wrap_angle,
)

F = Fraction


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
    assert res.signed_area2() == tri.signed_area2() * F(1, 4)


def test_clip_to_empty():
    res = clip(UNIT_SQUARE, HalfPlane(F(1), F(0), F(-1)))
    assert res is None


def test_clip_to_single_edge_point():
    res = clip(UNIT_SQUARE, HalfPlane(F(1), F(1), F(0)))
    assert res is not None
    assert res.vertices == (Point(F(0), F(0)),)


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
        assert h.signed_area2() > 0


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
