import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from carousel import bodies
from carousel.bodies import (
    ContainmentResult,
    Disk,
    Ellipse,
    PointBody,
    PolygonBody,
    bodies_overlap,
    body_contains_point,
    body_in_polygon,
    contained_in_hull,
    edge_normal_angles,
    grid_dirs,
    is_polygonal,
    origin_radius,
    polygonal_vertices,
    support,
    support_batch,
    support_cs,
    support_grid,
    supporting_line,
)
from carousel.constructions import (
    FuzzConfig,
    generate_fuzz_scene,
    generate_integer_scene,
    scene_as_float,
    sharpness_construct,
)
from carousel.errors import InvalidBody
from carousel.rule import verify_scene
from carousel.kernel import (
    EPS,
    ConvexPolygon,
    HalfPlane,
    Point,
    as_float_point,
    circ_dist,
    convex_hull,
    dot,
    norm,
    point_in_polygon,
    unit,
)
from test_kernel import drop_one_hulls, listed_from

F = Fraction


def square(lo=-1.0, hi=1.0):
    return PolygonBody(ConvexPolygon((Point(lo, lo), Point(hi, lo),
                                      Point(hi, hi), Point(lo, hi))))


def test_disk_support_axis():
    ev = support(Disk(Point(0.0, 0.0), 1.0), 0.0)
    assert math.isclose(ev.value, 1.0)
    assert math.isclose(ev.contact.x, 1.0) and abs(ev.contact.y) < 1e-15


def test_square_corner_support():
    ev = support(square(), math.pi / 4)
    assert math.isclose(ev.value, math.sqrt(2))
    assert ev.contact == Point(1.0, 1.0)  # the corner itself, not a midpoint


def test_segment_edge_interior_tie():
    seg = PolygonBody(ConvexPolygon((Point(F(0), F(0)), Point(F(2), F(0)))))
    # a tie of both ends touches at their midpoint, exactly; no tie at an end
    assert bodies.support_dir(seg, Point(F(0), F(1))) == (0, Point(F(1), F(0)))
    assert bodies.support_dir(seg, Point(F(1), F(1))) == (2, Point(F(2), F(0)))


def test_ellipse_axis_support():
    ev = support(Ellipse(Point(0.0, 0.0), 2.0, 1.0, 0.0), 0.0)
    assert math.isclose(ev.value, 2.0)
    assert math.isclose(ev.contact.x, 2.0, abs_tol=1e-12)


def test_ellipse_support_against_boundary_sampling():
    body = Ellipse(Point(0.3, -0.2), 2.0, 0.7, 0.5)
    u, v = body.axes
    ts = np.linspace(0.0, 2 * math.pi, 20000, endpoint=False)
    bx = float(body.center.x) + 2.0 * np.cos(ts) * u.x + 0.7 * np.sin(ts) * v.x
    by = float(body.center.y) + 2.0 * np.cos(ts) * u.y + 0.7 * np.sin(ts) * v.y
    rng = random.Random(3)
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        sampled = np.max(bx * math.cos(theta) + by * math.sin(theta))
        ev = support(body, theta)
        assert ev.value >= sampled - 1e-9
        assert abs(ev.value - sampled) <= 1e-6
        # contact attains the support value and lies on the boundary
        attained = ev.contact.x * math.cos(theta) + ev.contact.y * math.sin(theta)
        assert abs(attained - ev.value) <= 1e-9
        assert body_contains_point(body, ev.contact, 1e-9)


def test_supporting_line_examples():
    hp = supporting_line(Disk(Point(0.0, 0.0), 1.0), math.pi / 2)
    assert math.isclose(hp.unit_offset, 1.0)
    assert math.isclose(circ_dist(hp.normal_angle, math.pi / 2), 0.0, abs_tol=1e-12)

    hp = supporting_line(PointBody(Point(3.0, 4.0)), 0.0)
    assert math.isclose(hp.unit_offset, 3.0)

    sq01 = PolygonBody(ConvexPolygon((Point(0.0, 0.0), Point(1.0, 0.0),
                                      Point(1.0, 1.0), Point(0.0, 1.0))))
    hp = supporting_line(sq01, math.pi)
    assert abs(hp.unit_offset) <= 1e-12  # boundary is x = 0


def test_body_contains_point_cases():
    assert body_contains_point(Disk(Point(0.0, 0.0), 1.0), Point(0.0, 1.0), 1e-12)
    ell = Ellipse(Point(0.0, 0.0), 2.0, 1.0, math.pi / 2)
    assert not body_contains_point(ell, Point(1.5, 0.0))
    assert body_contains_point(ell, Point(0.9, 0.0))
    assert body_contains_point(PointBody(Point(1.0, 1.0)), Point(1.0, 1.0))


def test_invalid_bodies():
    with pytest.raises(InvalidBody):
        Disk(Point(0.0, 0.0), 0.0)
    with pytest.raises(InvalidBody):
        Ellipse(Point(0.0, 0.0), 1.0, 2.0)


def test_contained_identity():
    body = square()
    res = contained_in_hull(body, body)
    assert res.contained


def test_not_contained_reports_witness():
    res = contained_in_hull(Disk(Point(0.0, 0.0), 1.0), PointBody(Point(3.0, 0.0)))
    assert not res.contained
    assert math.isclose(res.margin, -4.0, abs_tol=1e-6)
    assert math.isclose(circ_dist(res.witness_angle, math.pi), 0.0, abs_tol=1e-6)
    assert math.isclose(res.escaping_point.x, -1.0, abs_tol=1e-6)


def test_point_between_disk_and_outpost():
    res = contained_in_hull(PointBody(Point(2.0, 0.0)), Disk(Point(0.0, 0.0), 1.0),
                            [Point(3.0, 0.0)])
    assert res.contained
    # independent dense-grid check of the support gap
    for theta in np.linspace(0, 2 * math.pi, 3000, endpoint=False):
        n = unit(theta)
        h_hull = max(support(Disk(Point(0.0, 0.0), 1.0), theta).value,
                     3.0 * n.x)
        assert h_hull - 2.0 * n.x >= -1e-9


def test_containment_monotone_support():
    rng = random.Random(11)
    inner = square(-0.5, 0.5)
    pts = [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
    outer = PolygonBody(convex_hull(list(inner.poly.vertices) + pts))
    for _ in range(200):
        theta = rng.uniform(0, 2 * math.pi)
        assert support(inner, theta).value <= support(outer, theta).value + 1e-12


def test_containment_reflexive_and_transitive():
    rng = random.Random(17)
    for _ in range(40):
        pts_a = [Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        a = PolygonBody(convex_hull(pts_a))
        assert contained_in_hull(a, a).contained
        pts_b = pts_a + [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        b = PolygonBody(convex_hull(pts_b))
        pts_c = pts_b + [Point(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(3)]
        c = PolygonBody(convex_hull(pts_c))
        assert contained_in_hull(a, b).contained
        assert contained_in_hull(b, c).contained
        assert contained_in_hull(a, c).contained


def test_support_monotone_under_inclusion_batch():
    rng = random.Random(23)
    inner = square(-0.5, 0.5)
    pts = [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
    outer = PolygonBody(convex_hull(list(inner.poly.vertices) + pts))
    ts = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
    hi = support_batch(inner, np.cos(ts), np.sin(ts))
    ho = support_batch(outer, np.cos(ts), np.sin(ts))
    assert np.all(hi <= ho + 1e-12)


def test_support_lipschitz():
    rng = random.Random(5)
    bodies = [square(), Disk(Point(1.0, 2.0), 0.5), Ellipse(Point(-1.0, 0.5), 2.0, 0.3, 1.1)]
    for body in bodies:
        R = origin_radius(body)
        for _ in range(300):
            t1 = rng.uniform(0, 2 * math.pi)
            t2 = rng.uniform(0, 2 * math.pi)
            lhs = abs(support(body, t1).value - support(body, t2).value)
            assert lhs <= R * circ_dist(t1, t2) + 1e-9


def test_hull_body_is_max():
    # a smooth hull's support is the maximum of its body's and its points'
    a = Disk(Point(-1.0, 0.0), 0.5)
    extra = [Point(1.0, 0.0), Point(0.0, 1.2)]
    ts = np.linspace(0, 2 * math.pi, 1 << 16, endpoint=False)
    ct, st = np.cos(ts), np.sin(ts)
    h_hull = np.maximum.reduce([support_batch(a, ct, st)] + [p.x * ct + p.y * st for p in extra])
    for inner, contained in ((Disk(Point(0.9, 0.0), 0.3), False),
                             (Disk(Point(-0.2, 0.3), 0.3), True)):
        res = contained_in_hull(inner, a, extra)
        gaps = h_hull - support_batch(inner, ct, st)
        assert res.contained == contained
        # the gap is 3-Lipschitz in the angle, so no minimum hides between samples
        assert gaps.min() - 3.0 * (ts[1] - ts[0]) <= res.margin <= gaps.min() + 1e-12
        if not contained:
            t = res.witness_angle
            at_t = max([support(a, t).value] + [p.x * math.cos(t) + p.y * math.sin(t)
                                                for p in extra]) - support(inner, t).value
            assert math.isclose(at_t, res.margin, abs_tol=1e-12)


def test_smooth_containment_grid():
    inner = Disk(Point(0.2, 0.0), 0.3)
    outer = Disk(Point(0.0, 0.0), 1.0)
    assert contained_in_hull(inner, outer).contained
    res = contained_in_hull(Disk(Point(0.9, 0.0), 0.3), outer)
    assert not res.contained
    assert res.margin < -0.1


def test_exact_containment_in_rational_mode():
    inner = PolygonBody(ConvexPolygon((Point(F(0), F(0)), Point(F(1), F(0)),
                                       Point(F(0), F(1)))))
    outer = PointBody(Point(F(0), F(0)))
    extra = [Point(F(2), F(0)), Point(F(0), F(2))]
    assert contained_in_hull(inner, outer, extra).contained
    eps = Point(F(2) + F(1, 10**9), F(0))
    res = contained_in_hull(PointBody(eps), outer, extra)
    assert not res.contained


def test_body_in_polygon_fast_path():
    tri = ConvexPolygon((Point(0.0, -1.0), Point(2.0, -1.0), Point(0.0, 2.0)))
    assert body_in_polygon(Disk(Point(0.4, 0.0), 0.3), tri, 1e-9)
    assert not body_in_polygon(Disk(Point(0.4, 0.0), 1.5), tri, 1e-9)


def test_bodies_overlap():
    assert bodies_overlap(Disk(Point(0.0, 0.0), 1.0), Disk(Point(1.0, 0.0), 0.5))
    assert not bodies_overlap(Disk(Point(0.0, 0.0), 1.0), Disk(Point(3.0, 0.0), 0.5))


def _mixed_bodies(rng):
    """Points, polygons, disks, ellipses, and polygons listed from a random
    vertex; int, Fraction and float coordinates."""
    def coord():
        return rng.choice((rng.randint(-9, 9), F(rng.randint(-90, 90), rng.randint(1, 9)),
                           rng.uniform(-9.0, 9.0)))

    pt = PointBody(Point(coord(), coord()))
    poly = PolygonBody(convex_hull([Point(coord(), coord())
                                    for _ in range(rng.randint(1, 8))]))
    disk = Disk(Point(coord(), coord()), rng.choice((rng.randint(1, 4), F(7, 3), 0.3)))
    b = rng.choice((1, F(1, 2), rng.uniform(0.01, 1.0)))
    ellipse = Ellipse(Point(coord(), coord()), b + rng.choice((0, 1, F(5, 2))),
                      b, rng.uniform(-4.0, 4.0))
    both = convex_hull([pt.poly.vertices[0], *poly.poly.vertices])
    return [pt, poly, disk, ellipse,
            *(PolygonBody(listed_from(h, rng.randrange(h.n))) for h in (poly.poly, both))]


def test_support_cs_is_bit_identical_to_support():
    rng = random.Random(2026)
    checked = 0
    for _ in range(40):
        for body in _mixed_bodies(rng):
            fn = support_cs(body)
            angles = [rng.uniform(-10.0, 10.0) for _ in range(8)]
            angles += [0.0, math.pi / 2, math.pi, -math.pi / 4]
            for t in angles:
                assert fn(math.cos(t), math.sin(t)) == support(body, t).value
                checked += 1
    assert checked >= 2000


def test_support_grids_are_memoized_and_equal_fresh_batches():
    rng = random.Random(7411)
    for _ in range(10):
        for body in _mixed_bodies(rng):
            for n in (1024, 4096):
                thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
                grid = support_grid(body, n)
                assert support_grid(body, n) is grid
                assert np.array_equal(grid_dirs(n)[0], thetas)
                assert np.array_equal(grid, support_batch(body, np.cos(thetas),
                                                          np.sin(thetas)))


def test_edge_normal_angles_are_memoized_and_equal_fresh_hulls():
    rng = random.Random(2026)
    polygonal = 0
    for _ in range(20):
        for body in _mixed_bodies(rng):
            angles = edge_normal_angles(body)
            assert edge_normal_angles(body) is angles
            want = []
            if is_polygonal(body) and len(polygonal_vertices(body)) >= 2:
                poly = convex_hull(polygonal_vertices(body))
                want = [poly.outward_normal_angle(i) for i in range(max(poly.n, 2))]
                polygonal += 1
            assert list(angles) == want
    assert polygonal >= 20


def test_edge_normal_angles_read_the_polygon_without_a_hull(monkeypatch):
    # a polygon body's vertices are its hull: listed from any vertex, a
    # segment in either order, or a point, its angles equal those of the
    # rebuilt hull, and no hull is built
    rng = random.Random(556)
    cases = []
    for _ in range(400):
        num = rng.choice((int, lambda c: F(c, 7), float, lambda c: c + rng.uniform(-0.5, 0.5)))
        hull = convex_hull([Point(num(rng.randint(-6, 6)), num(rng.randint(-6, 6)))
                            for _ in range(rng.choice((1, 2, 3, 5, 8)))])
        cases += [listed_from(hull, k) for k in range(hull.n)]
    want = []
    for poly in cases:
        hull = convex_hull(poly.vertices)
        want.append([hull.outward_normal_angle(i) for i in range(max(hull.n, 2))]
                    if hull.n >= 2 else [])
    built = []

    def spy(*args):
        built.append(args)
        return convex_hull(*args)

    monkeypatch.setattr(bodies, "convex_hull", spy)
    for poly, angles in zip(cases, want):
        assert list(edge_normal_angles(PolygonBody(poly))) == angles, poly
    assert not built
    assert min(Counter(min(p.n, 3) for p in cases).values()) > 50


# The scalar loops that the array passes of polygonal containment replaced,
# kept as the reference: outputs must agree to the bit, zero signs included.

def _oracle_first_escaped(verts, hull, tol):
    for v in verts:
        if not point_in_polygon(v, hull, tol):
            return v
    return None


def _oracle_hull_margin(verts, hull):
    if hull.n < 3:
        return 0.0
    margin = math.inf
    for v in verts:
        fv = as_float_point(v)
        for i in range(hull.n):
            hp = hull.edge_halfplane(i)
            nl = norm(Point(hp.nx, hp.ny))
            margin = min(margin, -float(hp.value(fv)) / nl)
    return margin


def _oracle_worst_edge_direction(p, hull, inner):
    fp = as_float_point(p)
    if hull.n >= 3:
        best = None
        for i in range(hull.n):
            hp = hull.edge_halfplane(i)
            nl = norm(Point(hp.nx, hp.ny))
            viol = float(hp.value(fp)) / nl
            if best is None or viol > best[1]:
                best = (hp.normal_angle, viol)
        theta = best[0]
    else:
        d = fp - as_float_point(hull.vertices[0])
        theta = math.atan2(d.y, d.x)
    n = unit(theta)
    h_hull = max(float(dot(v, n)) for v in hull.vertices)
    h_inner = support(inner, theta).value
    return theta, h_hull - h_inner


def _hull_case(rng):
    """(inner vertices, hull) over int, Fraction, float or mixed coordinates.

    Inner points fall inside, outside, at hull vertices and on hull edges, so
    zero slacks, zero margins and ties between edges all occur.
    """
    def coord(kind):
        if kind == "int":
            return rng.randint(-6, 6)
        if kind == "fraction":
            return F(rng.randint(-60, 60), rng.randint(1, 7))
        return rng.choice((rng.uniform(-6.0, 6.0), float(rng.randint(-6, 6))))

    kinds = ("int", "fraction", "float")
    hull_kind, inner_kind = rng.choice(kinds), rng.choice(kinds)
    if rng.random() < 0.6:
        inner_kind = hull_kind
    hull = convex_hull([Point(coord(hull_kind), coord(hull_kind))
                        for _ in range(rng.randint(1, 9))])
    verts = []
    for _ in range(rng.randint(1, 7)):
        r = rng.random()
        if r < 0.25:
            verts.append(rng.choice(hull.vertices))
        elif r < 0.55:
            a, b = hull.edge(rng.randrange(hull.n))
            t = rng.choice((F(1, 2), F(1, 3), F(3, 4)))
            if hull_kind == "float":
                t = float(t)
            verts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        elif r < 0.7 and hull.n >= 3:
            # just outside an edge, about as far as the 1e-3 tolerance reaches
            i = rng.randrange(hull.n)
            a, _ = hull.edge(i)
            hp = hull.edge_halfplane(i)
            push = rng.uniform(0.0, 2e-3) * (1.0 + hull.max_coord()) / norm(Point(hp.nx, hp.ny))
            verts.append(Point(float(a.x) + push * float(hp.nx), float(a.y) + push * float(hp.ny)))
        else:
            verts.append(Point(coord(inner_kind), coord(inner_kind)))
    return verts, hull


def _signed_zero_cases():
    """The origin lies on the edge from (-3, 6) to (1, -2), whose slack there
    is -0.0, so its margin +0.0 comes before the -0.0 margins of (1, -2).
    Listed after the hull vertex (3, -5), whose first zero margin is -0.0,
    the origin's +0.0 on an earlier edge comes first in edge order only."""
    for num in (int, float):
        hull = convex_hull([Point(num(x), num(y)) for x, y in ((-3, 6), (1, -2), (3, -5), (4, 5))])
        for verts in (((0, 0), (1, -2)), ((3, -5), (0, 0))):
            yield [Point(num(x), num(y)) for x, y in verts], hull


def _oracle_polygonal_containment(inner, hull, eps):
    """Polygonal inner body in a polygon hull by the scalar loops: the
    reference for the edge-column table, outputs equal to the bit."""
    verts = polygonal_vertices(inner)
    rational = not any(isinstance(c, float) for p in (*verts, *hull.vertices) for c in p)
    worst = _oracle_first_escaped(verts, hull, 0.0 if rational else eps)
    if worst is None:
        return ContainmentResult(True, _oracle_hull_margin(verts, hull))
    theta, m = _oracle_worst_edge_direction(worst, hull, inner)
    return ContainmentResult(False, m, theta, support(inner, theta).contact)


def _inner_forms(verts, rng):
    """Inner bodies of the points: each point alone, and the polygon of
    their hull listed from a random vertex."""
    hull = convex_hull(verts)
    return [*map(PointBody, verts), PolygonBody(listed_from(hull, rng.randrange(hull.n)))]


def test_polygonal_containment_kernels_match_scalar_oracles():
    rng = random.Random(2026)
    seen = Counter()
    cases = [*((verts, hull, [PolygonBody(ConvexPolygon(verts))])
               for verts, hull in _signed_zero_cases()),
             *((verts, hull, _inner_forms(verts, rng))
               for verts, hull in (_hull_case(rng) for _ in range(2000)))]
    for verts, hull, inners in cases:
        for inner in inners:
            for eps in (0.0, 1e-9, 1e-3):
                got = bodies._CapTable(inner, eps, hull)()
                want = _oracle_polygonal_containment(inner, hull, eps)
                assert repr(got) == repr(want)
                seen["inside" if got.contained else "escaped"] += 1
                seen["zero margin"] += got.margin == 0.0
                seen["negative zero margin"] += repr(got.margin) == "-0.0"
        if hull.n >= 3:
            planes = [hull.edge_halfplane(i) for i in range(hull.n)]
            for p in verts:
                slacks = [float(hp.value(as_float_point(p))) / norm(Point(hp.nx, hp.ny))
                          for hp in planes]
                seen["worst edge tie"] += slacks.count(max(slacks)) > 1
        seen["cases"] += 1
    assert seen["cases"] >= 2000
    assert min(seen.values()) > 50, seen


def test_polygonal_containment_shares_edge_columns_across_hulls():
    # one cap table serves a hull F and each hull of F's vertices less one;
    # each gives the scalar oracle's result on the fresh hull
    rng = random.Random(7411)
    for _ in range(300):
        verts, hull = _hull_case(rng)
        drops = [(v, convex_hull([u for u in hull.vertices if u != v]))
                 for v in hull.vertices if hull.n > 1]
        for inner in _inner_forms(verts, rng):
            for eps in (0.0, 1e-9):
                table = bodies._CapTable(inner, eps, hull, hull.vertices)
                assert repr(table()) == repr(_oracle_polygonal_containment(inner, hull, eps))
                for v, fresh in drops:
                    assert repr(table(v)) == repr(_oracle_polygonal_containment(inner, fresh, eps))


def _drop_one_cases():
    """(inner, outer, container vertices) for the drop-one scan."""
    for n in range(4, 66, 2):
        inst = sharpness_construct(n)
        yield PolygonBody(inst.a0), PolygonBody(inst.a1), inst.container.vertices
    for k in range(150):
        scene = generate_integer_scene(f"2026:{k}")
        for sc in (scene, scene_as_float(scene)):
            yield sc.a0, sc.a1, sc.container.vertices
    cfg = FuzzConfig(seed=2026, kinds=("polygon",))
    for k in range(60):
        sc = generate_fuzz_scene(cfg, k)
        yield sc.a0, sc.a1, sc.container.vertices
    cfg = FuzzConfig(seed=7411)  # smooth bodies in polygons' hulls
    for k in range(120):
        sc = generate_fuzz_scene(cfg, k)
        if is_polygonal(sc.a0) != is_polygonal(sc.a1):
            yield sc.a0, sc.a1, sc.container.vertices
    for num in (int, F, float):
        def poly(*xy):
            return PolygonBody(convex_hull([Point(num(x), num(y)) for x, y in xy]))
        box = [Point(num(x), num(y)) for x, y in ((0, 0), (4, 0), (4, 4), (0, 4))]
        # a vertex on a container vertex, on a container edge, collinear triples
        yield poly((1, 1), (2, 1), (1, 2)), poly((4, 4), (2, 0), (1, 3)), box
        yield poly((1, 1), (3, 3)), poly((2, 2), (3, 1), (1, 0)), box
        yield PointBody(Point(num(2), num(2))), poly((0, 0), (2, 2)), box
        # hulls of one to three points
        yield PointBody(Point(num(1), num(1))), PointBody(Point(num(1), num(1))), box[:1]
        yield PointBody(Point(num(1), num(1))), PointBody(Point(num(2), num(2))), box[:1]
        yield poly((1, 1), (2, 2)), PointBody(Point(num(1), num(1))), box[::2]
        yield poly((1, 1), (2, 1)), poly((3, 1), (0, 1)), box[:3]
        # an outer vertex stands out of G within eps, so it is a vertex of the
        # full hull: dropping (4, 0) or (4, 4) keeps it as a chain's end
        big = 10 ** 10 if num is int else 1
        out = {int: 1, F: F(1, 10 ** 10), float: 1e-10}[num]
        yield (poly(*((big * x, big * y) for x, y in ((1, 1), (3, 2), (2, 3)))),
               PolygonBody(convex_hull([Point(num(4 * big) + out, num(2 * big)),
                                        Point(num(big), num(big)), Point(num(2 * big), num(3 * big))])),
               [Point(num(big * x), num(big * y)) for x, y in ((0, 0), (4, 0), (4, 4), (0, 4))])
        # an outer vertex equal to a dropped vertex keeps that vertex
        yield poly((1, 2), (2, 1), (3, 3)), poly((4, 0), (1, 1), (2, 3)), box
        # outer and inner vertices on the chord of (4, 0)'s neighbours
        yield poly((2, 2), (3, 1), (3, 2)), poly((1, 1), (3, 3), (1, 2)), box
        yield poly((1, 1), (3, 3)), poly((2, 2), (2, 1)), box
        # an n = 3 container: the outer segment on the chord of (0, 0)'s
        # neighbours leaves a segment hull; inner on it, off it, or smooth
        tri = [Point(num(x), num(y)) for x, y in ((0, 0), (4, 0), (0, 4))]
        yield PointBody(Point(num(2), num(2))), poly((1, 3), (3, 1)), tri
        yield poly((1, 3), (2, 2)), poly((1, 3), (3, 1)), tri
        yield poly((1, 1), (2, 2)), poly((1, 3), (3, 1)), tri
        yield Disk(Point(num(2), num(2)), num(1) / 4), poly((1, 3), (3, 1)), tri
        # an inner body that stands out of the container escapes F's edges too
        yield poly((3, 3), (5, 3), (3, 5)), poly((1, 1), (2, 1), (1, 2)), box
        # smooth inner bodies in a polygonal outer body
        yield Disk(Point(num(2), num(2)), num(1)), poly((1, 1), (3, 1), (3, 3)), box
        yield (Ellipse(Point(num(2), num(1)), num(3) / 2, num(1) / 2, 0.25),
               poly((0, 2), (2, 4), (4, 2)), box)


def _oracle_smooth_containment(inner, hull, eps):
    """Smooth inner body in a polygon hull by the scalar loop over its
    edges: the reference for the support-gap column, outputs equal to the bit."""
    if hull.n < 3:
        return bodies._contained_in_smooth_hull(inner, PolygonBody(hull), (), eps, 2048)
    gaps = [hull.edge_halfplane(i).unit_offset - support(inner, hull.outward_normal_angle(i)).value
            for i in range(hull.n)]
    i = min(range(hull.n), key=gaps.__getitem__)
    if gaps[i] >= -eps * (1.0 + max(hull.max_coord(), origin_radius(inner))):
        return ContainmentResult(True, gaps[i])
    theta = hull.outward_normal_angle(i)
    return ContainmentResult(False, gaps[i], theta, support(inner, theta).contact)


def test_drop_one_containment_matches_per_test_oracle():
    # every (i, j) of the shared scan against a fresh hull and the scalar
    # loops; sharpness 26..62, whose loops take seconds, against the fresh
    # hull's own table
    seen = Counter()
    for a0, a1, drops in _drop_one_cases():
        drops = list(drops)
        scalar = len(drops) <= 24 or len(drops) == 64
        for inner, outer in ((a0, a1), (a1, a0)):
            if not is_polygonal(outer):
                continue
            hulls = drop_one_hulls(polygonal_vertices(outer), drops)
            scan = bodies.drop_one_containment(inner, outer, drops, EPS)
            for j in range(len(drops)):
                fresh = convex_hull(polygonal_vertices(outer) + drops[:j] + drops[j + 1:])
                hull = hulls(j)
                assert hull.vertices == fresh.vertices
                assert repr(hull.vertices) == repr(fresh.vertices)
                got = scan(j)
                if not scalar:
                    assert repr(got) == repr(bodies._CapTable(inner, EPS, fresh)())
                    seen["hull table"] += 1
                    continue
                if is_polygonal(inner):
                    assert repr(got) == repr(_oracle_polygonal_containment(inner, fresh, EPS))
                else:
                    assert repr(got) == repr(_oracle_smooth_containment(inner, fresh, EPS))
                    seen["smooth", min(fresh.n, 3), got.contained] += 1
                seen["holds" if got.contained else "fails"] += 1
                seen[min(fresh.n, 3)] += 1
    assert min(seen[key] for key in ("holds", "fails", 1, 2, 3)) > 0, seen
    assert min(seen[key] for key in (("smooth", 2, False), ("smooth", 3, True),
                                     ("smooth", 3, False), "hull table")) > 0, seen


def test_cap_table_reads_each_hull_edge_in_hull_order():
    # the rows a test reads are the directed edges of the fresh hull, from
    # its least vertex on, and its vertices are the fresh hull's
    seen = Counter()
    for a0, a1, drops in _drop_one_cases():
        for inner, outer in ((a0, a1), (a1, a0)):
            if not is_polygonal(outer):
                continue
            points = polygonal_vertices(outer) + list(drops)
            table = bodies._CapTable(inner, EPS, convex_hull(points), points)
            for j, g in enumerate(drops):
                k = table.at.get(g)
                fresh = convex_hull(points[:len(points) - len(drops) + j]
                                    + points[len(points) - len(drops) + j + 1:])
                if table.hull.n < 3 or fresh.n < 3:
                    continue
                vs, rows = table._hull_rows(k)
                v = fresh.vertices
                assert vs == list(v)
                assert [(table.pts[table.ia[r]], table.pts[table.ib[r]]) for r in rows] \
                    == list(zip(v, v[1:] + v[:1]))
                seen["first vertex" if k == 0 else "other vertex" if k else "kept"] += 1
    assert min(seen[key] for key in ("first vertex", "other vertex", "kept")) > 0, seen


def test_polygonal_containment_skips_scalar_kernels(monkeypatch):
    calls = Counter()
    real_pip, real_value = bodies.point_in_polygon, HalfPlane.value

    def counting_pip(*args, **kwargs):
        calls["point_in_polygon"] += 1
        return real_pip(*args, **kwargs)

    def counting_value(self, p):
        calls["HalfPlane.value"] += 1
        return real_value(self, p)

    monkeypatch.setattr(bodies, "point_in_polygon", counting_pip)
    monkeypatch.setattr(HalfPlane, "value", counting_value)
    outer = square(-1.0, 1.0)
    got = [contained_in_hull(square(-0.5, 0.5), outer).contained,
           contained_in_hull(square(0.5, 1.5), outer).contained,
           contained_in_hull(square(0.5, 1.5), outer, [Point(3.0, 3.0)]).contained,
           contained_in_hull(square(0.5, 1.5), None, [Point(-1.0, -1.0), Point(2.0, 0.0),
                                                      Point(0.0, 2.0)]).contained]
    assert got == [True, False, True, False]
    assert calls == Counter()


def test_deferred_containment_result_refines_once_on_first_read():
    calls = []

    def refine():
        calls.append(1)
        return -0.25, 1.5, Point(2.0, 3.0)

    res = ContainmentResult.deferred(False, -0.5, -0.1, refine)
    assert not res.contained and not res.near_zero(0.05) and calls == []
    assert res.near_zero(0.3) and calls == [1]  # the bounds straddle 0.3
    assert res.escaping_point == Point(2.0, 3.0) and res.margin == -0.25
    assert calls == [1]
    eager = ContainmentResult(False, -0.25, 1.5, Point(2.0, 3.0))
    assert res == eager and hash(res) == hash(eager) and repr(res) == repr(eager)
    assert repr(eager) == ("ContainmentResult(contained=False, margin=-0.25, "
                           "witness_angle=1.5, escaping_point=Point(x=2.0, y=3.0))")
    assert (eager.lo, eager.hi) == (-0.25, -0.25)


def _smooth_tests_of_verify_scene(monkeypatch, seeds, count):
    """Every smooth-hull containment result verify_scene makes, unread."""
    made = []
    real = bodies._contained_in_smooth_hull

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(bodies, "_contained_in_smooth_hull", spy)
    for seed in seeds:
        cfg = FuzzConfig(seed=seed)
        for k in range(count):
            verify_scene(generate_fuzz_scene(cfg, k))
    return made


def test_deferred_smooth_containment_matches_its_refinement(monkeypatch):
    # the decision from the grid bounds equals the refined one (a refuted
    # refinement names a witness angle), the bounds hold the refined margin,
    # and near_zero answers as abs(margin) <= at
    seen = Counter()
    for res in _smooth_tests_of_verify_scene(monkeypatch, (2026, 7411), 300):
        deferred = res.lo < res.hi  # an eager result has lo = hi = margin
        near = [res.near_zero(at) for at in (1e-6, 1e-3, 0.1)]
        assert res.contained == (res.witness_angle is None)
        assert res.lo <= res.margin <= res.hi
        assert near == [abs(res.margin) <= at for at in (1e-6, 1e-3, 0.1)]
        seen[("deferred" if deferred else "eager", res.contained)] += 1
    assert seen[("deferred", True)] > 300 and seen[("deferred", False)] > 200, seen
    assert seen[("eager", True)] + seen[("eager", False)] > 0, seen


def test_verify_scene_refines_few_smooth_margins(monkeypatch):
    # verify_scene reads no margin; refinement runs only where the grid
    # bounds leave the decision or a fragile check open
    calls = []
    real = bodies.golden_min

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(bodies, "golden_min", counting)
    cfg = FuzzConfig(seed=2026)
    for k in range(200):
        verify_scene(generate_fuzz_scene(cfg, k))
    assert len(calls) <= 20


def _scaled(body, s):
    if isinstance(body, PolygonBody):
        return PolygonBody(ConvexPolygon(tuple(Point(s * v.x, s * v.y)
                                               for v in body.poly.vertices)))
    c = Point(s * body.center.x, s * body.center.y)
    return Ellipse(c, s * body.a, s * body.b, body.angle)


def test_refined_smooth_margin_of_scaled_scene_is_at_most_fine_grid_gap():
    # past |coord| of about 4.8, 2 * scale no longer bounds the gap's slope;
    # pruned with the certified radius, the refinement keeps every local
    # minimum that could hold the margin
    s = 64.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 65536, endpoint=False)
    ct, st = np.cos(thetas), np.sin(thetas)
    cfg = FuzzConfig(seed=2026)
    checked = 0
    for k in range(30):
        scene = generate_fuzz_scene(cfg, k)
        pair = [_scaled(b, s) for b in (scene.a0, scene.a1)]
        g = [Point(s * v.x, s * v.y) for v in scene.container.vertices]
        for i in (0, 1):
            inner, outer = pair[i], pair[1 - i]
            if is_polygonal(outer):
                continue
            for j in range(len(g)):
                extra = g[:j] + g[j + 1:]
                h = support_batch(outer, ct, st)
                for p in extra:
                    h = np.maximum(h, p.x * ct + p.y * st)
                gap_min = float(np.min(h - support_batch(inner, ct, st)))
                res = contained_in_hull(inner, outer, extra, EPS)
                assert res.margin <= gap_min + 1e-9 * s, (k, i, j)
                checked += 1
    assert checked >= 100
