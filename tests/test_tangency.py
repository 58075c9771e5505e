import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from carousel import tangency
from carousel.bodies import (
    Disk,
    Ellipse,
    PointBody,
    PolygonBody,
    is_polygonal,
    origin_radius,
    support,
    support_batch,
    support_dir,
)
from carousel.constructions import (
    FuzzConfig,
    generate_corollary_scene,
    generate_fuzz_scene,
    generate_integer_scene,
    scene_as_float,
    sharpness_construct,
)
from carousel.rule import Scene
from carousel.kernel import ConvexPolygon, Point, TWO_PI, circ_dist, convex_hull, unit, wrap_angle
from carousel.tangency import (
    CslArcs,
    CslIdentical,
    CslLines,
    adjacent_pairs,
    common_supporting_lines,
    make_support_line,
    mixed_sign_gaps,
    slide_turn,
    support_difference,
)
from test_kernel import listed_from

F = Fraction


def fsquare(x0, y0, x1, y1):
    return PolygonBody(ConvexPolygon((Point(x0, y0), Point(x1, y0),
                                      Point(x1, y1), Point(x0, y1))))


def test_support_difference_examples():
    d0 = Disk(Point(0.0, 0.0), 1.0)
    d1 = Disk(Point(4.0, 0.0), 1.0)
    assert abs(support_difference(d0, d1, math.pi / 2)) < 1e-12
    assert math.isclose(support_difference(d0, d1, 0.0), -4.0)
    s0 = fsquare(0.0, 0.0, 1.0, 1.0)
    s1 = fsquare(2.0, 0.0, 3.0, 1.0)
    assert abs(support_difference(s0, s1, math.pi / 2)) < 1e-12


def normals_of(res):
    assert isinstance(res, CslLines)
    return [l.normal for l in res.lines]


def test_equal_disks_two_tangents():
    res = common_supporting_lines(Disk(Point(0.0, 0.0), 1.0), Disk(Point(4.0, 0.0), 1.0))
    ns = normals_of(res)
    assert len(ns) == 2
    assert circ_dist(ns[0], math.pi / 2) < 1e-9
    assert circ_dist(ns[1], 3 * math.pi / 2) < 1e-9
    # lines are y = 1 and y = -1
    offs = sorted(l.offset for l in res.lines)
    assert math.isclose(offs[0], 1.0, abs_tol=1e-9)
    assert math.isclose(offs[1], 1.0, abs_tol=1e-9)


def test_unequal_disks_closed_form():
    res = common_supporting_lines(Disk(Point(0.0, 0.0), 1.0), Disk(Point(6.0, 0.0), 2.0))
    ns = normals_of(res)
    assert len(ns) == 2
    want = math.acos(-1.0 / 6.0)
    assert circ_dist(ns[0], want) < 1e-9
    assert circ_dist(ns[1], TWO_PI - want) < 1e-9


def test_identical_bodies_detected():
    sq = fsquare(0.0, 0.0, 1.0, 1.0)
    assert isinstance(common_supporting_lines(sq, fsquare(0.0, 0.0, 1.0, 1.0)), CslIdentical)
    d = Disk(Point(0.5, 0.5), 0.25)
    assert isinstance(common_supporting_lines(d, Disk(Point(0.5, 0.5), 0.25)), CslIdentical)


def test_separated_squares_brute_force_agreement():
    s0 = fsquare(0.0, 0.0, 1.0, 1.0)
    s1 = fsquare(2.0, 0.0, 3.0, 1.0)
    res = common_supporting_lines(s0, s1)
    ns = normals_of(res)
    assert len(ns) == 2
    assert circ_dist(ns[0], math.pi / 2) < 1e-9
    assert circ_dist(ns[1], 3 * math.pi / 2) < 1e-9
    # brute force: dense sampling of the support difference finds 2 isolated zeros
    ts = np.linspace(0.0, TWO_PI, 10 ** 6, endpoint=False)
    dv = np.empty_like(ts)
    for body, sign in ((s0, 1.0), (s1, -1.0)):
        verts = np.array([(float(v.x), float(v.y)) for v in body.poly.vertices])
        dv += 0.0
    d0 = np.max(np.array([[float(v.x), float(v.y)] for v in s0.poly.vertices]) @
                np.vstack([np.cos(ts), np.sin(ts)]), axis=0)
    d1 = np.max(np.array([[float(v.x), float(v.y)] for v in s1.poly.vertices]) @
                np.vstack([np.cos(ts), np.sin(ts)]), axis=0)
    diff = d0 - d1
    flips = np.nonzero(np.sign(diff) != np.sign(np.roll(diff, -1)))[0]
    assert len(flips) == 2


def test_exact_mode_matches_float_mode():
    rng = random.Random(42)
    from carousel.kernel import convex_hull

    for _ in range(60):
        pts0 = [Point(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(5)]
        pts1 = [Point(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(5)]
        e0 = PolygonBody(convex_hull([Point(F(p.x), F(p.y)) for p in pts0]))
        e1 = PolygonBody(convex_hull([Point(F(p.x), F(p.y)) for p in pts1]))
        f0 = PolygonBody(convex_hull([Point(float(p.x), float(p.y)) for p in pts0]))
        f1 = PolygonBody(convex_hull([Point(float(p.x), float(p.y)) for p in pts1]))
        re = common_supporting_lines(e0, e1)
        rf = common_supporting_lines(f0, f1)
        assert type(re) is type(rf)
        if isinstance(re, CslLines):
            assert re.count == rf.count
            for a, b in zip(normals_of(re), normals_of(rf)):
                assert circ_dist(a, b) < 1e-8


def test_root_completeness_random_polygon_pairs():
    # exact candidate enumeration against a brute-force scan of the support
    # difference over a million angles followed by bisection refinement
    rng = random.Random(8)
    from carousel.kernel import convex_hull

    for _ in range(8):
        pts0 = [Point(F(rng.randint(-40, 40)), F(rng.randint(-40, 40))) for _ in range(5)]
        pts1 = [Point(F(rng.randint(-40, 40)), F(rng.randint(-40, 40))) for _ in range(5)]
        h0, h1 = convex_hull(pts0), convex_hull(pts1)
        if h0.n < 3 or h1.n < 3 or set(h0.vertices) == set(h1.vertices):
            continue
        a0, a1 = PolygonBody(h0), PolygonBody(h1)
        res = common_supporting_lines(a0, a1)
        if not isinstance(res, CslLines):
            continue
        ts = np.linspace(0.0, TWO_PI, 10 ** 6, endpoint=False)
        m0 = np.array([[float(v.x), float(v.y)] for v in h0.vertices])
        m1 = np.array([[float(v.x), float(v.y)] for v in h1.vertices])
        dirs = np.vstack([np.cos(ts), np.sin(ts)])
        diff = np.max(m0 @ dirs, axis=0) - np.max(m1 @ dirs, axis=0)
        sign = np.sign(diff)
        flips = np.nonzero(sign != np.roll(sign, -1))[0]
        step = TWO_PI / 10 ** 6

        def dfun(t):
            return support_difference(a0, a1, t)

        brute_roots = []
        for i in flips:
            lo, hi = ts[i], ts[i] + step
            flo = dfun(lo)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                fm = dfun(mid)
                if (flo > 0) != (fm > 0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            brute_roots.append(wrap_angle(0.5 * (lo + hi)))
        brute_roots.sort()
        got = sorted(l.normal for l in res.lines)
        assert len(got) == len(brute_roots)
        for a, b in zip(got, brute_roots):
            assert circ_dist(a, b) <= 1e-8


def test_point_pair_is_two_oriented_lines():
    res = common_supporting_lines(PointBody(Point(F(0), F(0))), PointBody(Point(F(2), F(0))))
    assert isinstance(res, CslLines) and res.count == 2
    gaps = [p.delta for p in adjacent_pairs(res)]
    assert all(math.isclose(g, math.pi, abs_tol=1e-12) for g in gaps)


def test_identical_point_pair():
    res = common_supporting_lines(PointBody(Point(F(1), F(1))), PointBody(Point(F(1), F(1))))
    assert isinstance(res, CslIdentical)


def test_shared_vertex_zero_arc():
    # two segments meeting at a common endpoint: the shared vertex supports
    # both bodies over a whole arc of normals
    s0 = PolygonBody(ConvexPolygon((Point(F(0), F(0)), Point(F(-1), F(-1)))))
    s1 = PolygonBody(ConvexPolygon((Point(F(0), F(0)), Point(F(1), F(-1)))))
    res = common_supporting_lines(s0, s1)
    assert isinstance(res, CslArcs)
    assert len(res.arcs) >= 1


def test_adjacency_gaps_sum_to_full_turn():
    res = common_supporting_lines(Disk(Point(0.0, 0.0), 1.0), Disk(Point(6.0, 0.0), 2.0))
    gaps = [p.delta for p in adjacent_pairs(res)]
    assert math.isclose(sum(gaps), TWO_PI, rel_tol=0, abs_tol=1e-9)
    assert all(g > 0 for g in gaps)


def test_single_line_gap_wraps():
    # internally tangent disks: exactly one common supporting line
    res = common_supporting_lines(Disk(Point(0.0, 0.0), 2.0), Disk(Point(1.0, 0.0), 1.0))
    assert isinstance(res, CslLines)
    assert res.count == 1
    assert math.isclose(adjacent_pairs(res)[0].delta, TWO_PI)


def test_slide_turn_disk_quarter():
    disk = Disk(Point(0.0, 0.0), 1.0)
    base = make_support_line(disk, 0.0)
    turned = slide_turn(disk, base, math.pi / 2)
    assert circ_dist(turned.normal, 3 * math.pi / 2) < 1e-12
    assert math.isclose(turned.contact0.y, -1.0, abs_tol=1e-12)

    same = slide_turn(disk, base, 0.0)
    assert same.normal == base.normal and same.offset == base.offset


def test_slide_turn_square_diagonal():
    sq = fsquare(0.0, 0.0, 1.0, 1.0)
    base = make_support_line(sq, math.pi / 2)
    turned = slide_turn(sq, base, math.pi / 4)
    assert circ_dist(turned.normal, math.pi / 4) < 1e-12
    assert math.isclose(turned.offset, math.sqrt(2), abs_tol=1e-12)
    assert turned.contact0 == Point(1.0, 1.0)


def test_normal_bijection_probe():
    rng = random.Random(1)
    bodies = [Disk(Point(0.5, -0.25), 2.0), fsquare(-1.0, -1.0, 1.0, 1.0),
              Ellipse(Point(0.0, 0.0), 3.0, 1.0, 0.7)]
    for body in bodies:
        seen = set()
        for _ in range(500):
            t = rng.uniform(0.0, TWO_PI)
            line = make_support_line(body, t)
            assert circ_dist(line.normal, t) < 1e-12
            key = (round(line.normal, 12), round(line.offset, 9))
            assert key not in seen
            seen.add(key)


def test_delta_vanishes_on_reported_normals():
    pairs = [
        (Disk(Point(0.0, 0.0), 1.0), Disk(Point(3.0, 1.0), 0.5)),
        (fsquare(0.0, 0.0, 1.0, 1.0), Disk(Point(3.0, 0.5), 0.7)),
        (Ellipse(Point(0.0, 0.0), 2.0, 1.0, 0.3), Ellipse(Point(4.0, 0.0), 1.5, 0.5, 1.2)),
    ]
    for a0, a1 in pairs:
        res = common_supporting_lines(a0, a1)
        assert isinstance(res, CslLines)
        for line in res.lines:
            assert abs(support_difference(a0, a1, line.normal)) <= 1e-7
            # contacts lie on the boundary line
            n = unit(line.normal)
            for c in (line.contact0, line.contact1):
                assert abs(float(c.x) * n.x + float(c.y) * n.y - line.offset) <= 1e-7


def test_gap_sign_profile_alternates_generic():
    a0 = Disk(Point(0.0, 0.0), 1.0)
    a1 = Disk(Point(3.0, 1.0), 0.5)
    res = common_supporting_lines(a0, a1)
    assert mixed_sign_gaps(a0, a1, res) == []
    mids = [support_difference(a0, a1, p.line.normal - p.delta / 2)
            for p in adjacent_pairs(res)]
    assert len(mids) == 2 and all(abs(d) > 1e-3 for d in mids)
    assert all((d > 0) != (prev > 0) for prev, d in zip(mids[-1:] + mids[:-1], mids))


def _oracle_gap_signs(a0, a1, csl, eps):
    """Strict majority sign of h0 - h1 over 512 uniform interior samples of
    each adjacency gap."""
    thr = eps * (1.0 + max(origin_radius(a0), origin_radius(a1)))
    out = []
    for pair in adjacent_pairs(csl):
        t = pair.line.normal - pair.delta * np.arange(1, 513) / 513
        d = support_batch(a0, np.cos(t), np.sin(t)) - support_batch(a1, np.cos(t), np.sin(t))
        pos, neg = np.count_nonzero(d > thr), np.count_nonzero(d < -thr)
        assert pos != neg, (pair.index, pos, neg)
        out.append(1 if pos > neg else -1)
    return tuple(out)


def _seeded_scenes():
    for seed in (2026, 7411):
        cfg = FuzzConfig(seed=seed)
        for k in range(700):  # seed 2026 #614 has a mixed-sign gap
            yield generate_fuzz_scene(cfg, k)
    for n in range(4, 33, 2):
        inst = sharpness_construct(n)
        yield Scene(PolygonBody(inst.a0), PolygonBody(inst.a1), inst.container)
    for kind in ("disks-in-triangle", "ellipses-in-pentagon", "homothets-in-triangle"):
        for seed in range(30):
            yield generate_corollary_scene(kind, seed)


def _pair_kind(scene):
    return "/".join(sorted("poly" if is_polygonal(b) else "smooth"
                           for b in (scene.a0, scene.a1)))


def test_gap_signs_match_sampled_majority():
    seen = Counter()
    for scene in _seeded_scenes():
        csl = common_supporting_lines(scene.a0, scene.a1, scene.tol.eps)
        if not isinstance(csl, CslLines):
            continue
        assert len(csl.signs) == csl.count
        assert csl.signs == _oracle_gap_signs(scene.a0, scene.a1, csl, scene.tol.eps)
        seen[_pair_kind(scene)] += csl.count
    for k in range(150):
        exact = generate_integer_scene(f"2026:{k}")
        twin = scene_as_float(exact)
        got = [common_supporting_lines(sc.a0, sc.a1, sc.tol.eps) for sc in (exact, twin)]
        if not isinstance(got[0], CslLines):
            continue
        assert isinstance(got[1], CslLines) and got[0].signs == got[1].signs
        assert got[0].signs == _oracle_gap_signs(exact.a0, exact.a1, got[0], exact.tol.eps)
        seen["exact"] += got[0].count
    assert min(seen.values()) > 100 and len(seen) == 4, seen


def _oracle_zero_pattern(a0, a1, dirs, rational, eps):
    """The scalar loops of _csl_polygonal that the array pass replaced."""
    scale = 1.0 + max(origin_radius(a0), origin_radius(a1))

    def is_zero(d, value):
        if rational:
            return value == 0
        n = math.hypot(float(d.x), float(d.y))
        return abs(float(value)) <= eps * scale * n

    def difference(d):
        return support_dir(a0, d)[0] - support_dir(a1, d)[0]

    m = len(dirs)
    zero_at = [is_zero(d, difference(d)) for d in dirs]
    gap_zero = []
    gap_sign = []
    for i in range(m):
        probe = tangency._gap_probe(dirs[i], dirs[(i + 1) % m]) if m > 1 \
            else Point(-dirs[0].y, dirs[0].x)
        dv = difference(probe)
        gz = is_zero(probe, dv)
        gap_zero.append(gz)
        gap_sign.append(0 if gz else (1 if dv > 0 else -1))
    return zero_at, gap_zero, gap_sign


def _polygonal_pair(rng):
    """Point and polygon bodies, some polygons listed from a random vertex,
    over int, Fraction, float or mixed coordinates.  The second body often
    takes vertices and edge midpoints of the first, so zero candidates,
    zero gaps and tangential zeros all occur."""
    def coord(kind):
        if kind == "int":
            return rng.randint(-5, 5)
        if kind == "fraction":
            return F(rng.randint(-50, 50), rng.randint(1, 6))
        return rng.choice((rng.uniform(-5.0, 5.0), float(rng.randint(-5, 5))))

    def body(kind, shared):
        pts = [Point(coord(kind), coord(kind)) for _ in range(rng.randint(1, 4))]
        pts += rng.sample(shared, min(len(shared), rng.randint(0, 3)))
        shape = rng.random()
        if shape < 0.15:
            return PointBody(pts[0])
        hull = convex_hull(pts)
        if shape < 0.3:
            return PolygonBody(listed_from(hull, rng.randrange(hull.n)))
        return PolygonBody(hull)

    kinds = ("int", "fraction", "float", "float")
    k0 = rng.choice(kinds)
    k1 = k0 if rng.random() < 0.7 else rng.choice(kinds)
    a0 = body(k0, [])
    v0 = tangency.polygonal_vertices(a0)
    half = F(1, 2) if k0 != "float" else 0.5
    shared = v0 + [Point(half * (p.x + q.x), half * (p.y + q.y)) for p, q in zip(v0, v0[1:])]
    if rng.random() < 0.3:  # near-zero differences, about as large as eps = 1e-3 admits
        shared = [Point(float(p.x) + rng.uniform(-0.02, 0.02), float(p.y)) for p in shared]
    a1 = a0 if rng.random() < 0.05 else body(k1, shared)
    return a0, a1


def test_polygonal_zero_pattern_matches_scalar_oracle():
    rng = random.Random(7411)
    seen = Counter()
    while seen["cases"] < 2000:
        a0, a1 = _polygonal_pair(rng)
        dirs, rational = tangency._candidate_directions(a0, a1)
        if not dirs:
            continue
        for eps in (1e-9,) if rational else (1e-9, 1e-3):
            got = tangency._zero_pattern(a0, a1, dirs, rational, eps)
            assert repr(got) == repr(_oracle_zero_pattern(a0, a1, dirs, rational, eps))
            zero_at, gap_zero, gap_sign = got
            seen["zero candidate"] += any(zero_at)
            seen["zero gap"] += any(gap_zero)
            seen["tangential"] += any(zero_at[i] and gap_sign[i - 1] == gap_sign[i] != 0
                                      for i in range(len(dirs)))
        seen["rational" if rational else "float"] += 1
        seen["cases"] += 1
    assert min(seen.values()) > 50, seen
