import math
from fractions import Fraction

import pytest

from carousel.constructions import (
    FuzzConfig,
    ellipse_hull_counterexample,
    generate_corollary_scene,
    generate_fuzz_scene,
    generate_integer_scene,
    hull_polygon_of_bodies,
    plucker_bound,
    scene_as_float,
    sharpness_construct,
    sharpness_validate,
    validate_ellipse_hull_counterexample,
)
from carousel.bodies import PolygonBody
from carousel.errors import OddVertexCount
from carousel.kernel import TWO_PI, ConvexPolygon, Point, circ_dist
from carousel.rule import Scene, check_carousel_bruteforce, scene_csl, verify_scene
from carousel.tangency import CslLines, adjacent_pairs


def test_sharpness_n4_coordinates():
    inst = sharpness_construct(4)
    # the first line is vertical at x = (1 + cos(pi/2)) / 2 = 1/2 and its
    # trisection points sit at heights +-1/6
    pts = set(inst.a0.vertices) | set(inst.a1.vertices)
    assert any(abs(p.x - 0.5) < 1e-12 and abs(p.y - 1.0 / 6.0) < 1e-12 for p in pts)
    assert any(abs(p.x - 0.5) < 1e-12 and abs(p.y + 1.0 / 6.0) < 1e-12 for p in pts)
    assert inst.container.n == 4


def test_sharpness_general_first_point_formula():
    for n in (4, 6, 8, 10):
        inst = sharpness_construct(n)
        want = (
            (1.0 + math.cos(TWO_PI / n)) / 2.0,
            math.sin(TWO_PI / n) / 6.0,
        )
        pts = list(inst.a0.vertices) + list(inst.a1.vertices)
        assert any(abs(p.x - want[0]) < 1e-12 and abs(p.y - want[1]) < 1e-12
                   for p in pts)


def test_sharpness_rejects_odd():
    with pytest.raises(OddVertexCount):
        sharpness_construct(5)
    with pytest.raises(OddVertexCount):
        sharpness_construct(2)


def test_sharpness_validate_n4():
    report = sharpness_validate(sharpness_construct(4))
    assert report.ok, report.details
    assert report.count == 4
    assert math.isclose(report.lhs, -1.0 / 3.0, abs_tol=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)


def test_sharpness_family_at_larger_n():
    for n in (16, 24, 32, 48, 64):
        report = sharpness_validate(sharpness_construct(n))
        assert report.ok, (n, report.details)


def _exact_scene(container, a0, a1):
    """Exact-mode scene on the same coordinates: Fraction(x) is a float's
    exact value."""
    def exact(poly):
        return ConvexPolygon(tuple(Point(Fraction(p.x), Fraction(p.y)) for p in poly.vertices))

    return Scene(PolygonBody(exact(a0)), PolygonBody(exact(a1)), exact(container),
                 "exact").validate()


def test_sharpness_fails_in_exact_mode():
    # no tolerance enters an exact decision: the tight family fails with
    # s = n, and a triangle fails with s = n + 1 = 4
    scenes = [(n, _exact_scene(inst.container, inst.a0, inst.a1))
              for n in (4, 6, 8, 10, 12) for inst in [sharpness_construct(n)]]
    odd = generate_fuzz_scene(FuzzConfig(seed=556, kinds=("polygon",)), 12)
    scenes.append((4, _exact_scene(odd.container, odd.a0.poly, odd.a1.poly)))
    for s, scene in scenes:
        rec = verify_scene(scene)
        assert (rec["error"], rec["degenerate"], rec["verdict"], rec["s"]) == \
            (None, False, "fails", s)
    assert scenes[-1][1].n == 3


def test_sharpness_validate_n6_value():
    report = sharpness_validate(sharpness_construct(6))
    assert report.ok, report.details
    assert math.isclose(report.lhs, -math.sin(math.pi / 3) / 3.0, abs_tol=1e-12)


def test_sharpness_gaps_uniform():
    inst = sharpness_construct(4)
    from carousel.bodies import PolygonBody
    from carousel.rule import Scene

    csl = scene_csl(Scene(PolygonBody(inst.a0), PolygonBody(inst.a1), inst.container))
    assert isinstance(csl, CslLines) and csl.count == 4
    for pair in adjacent_pairs(csl):
        assert math.isclose(pair.delta, math.pi / 2, abs_tol=1e-9)


def test_plucker_bound():
    assert plucker_bound(2, 2) == 4
    assert plucker_bound(2, 3) == 12
    assert plucker_bound(3, 3) == 36
    assert plucker_bound(3, 2) == plucker_bound(2, 3)
    with pytest.raises(ValueError):
        plucker_bound(1, 2)


def test_disks_in_triangle_scenes():
    for seed in range(25):
        scene = generate_corollary_scene("disks-in-triangle", seed)
        scene.validate()
        csl = scene_csl(scene)
        s = csl.count if isinstance(csl, CslLines) else None
        assert s is not None and s <= 2
        assert check_carousel_bruteforce(scene, csl).verdict == "holds"


def test_ellipses_in_pentagon_scenes():
    for seed in range(25):
        scene = generate_corollary_scene("ellipses-in-pentagon", seed)
        scene.validate()
        csl = scene_csl(scene)
        s = csl.count if isinstance(csl, CslLines) else None
        assert s is not None and s <= 4
        assert check_carousel_bruteforce(scene, csl).verdict == "holds"


def test_homothets_in_triangle_scenes():
    for seed in range(25):
        scene = generate_corollary_scene("homothets-in-triangle", seed)
        scene.validate()
        csl = scene_csl(scene)
        if isinstance(csl, CslLines):
            assert csl.count <= 2
            assert check_carousel_bruteforce(scene, csl).verdict == "holds"


def test_fuzz_scene_deterministic_and_valid():
    cfg = FuzzConfig(seed=1)
    s1 = generate_fuzz_scene(cfg, 7)
    s2 = generate_fuzz_scene(cfg, 7)
    assert s1 == s2
    for idx in range(30):
        scene = generate_fuzz_scene(cfg, idx)
        scene.validate()
        assert 3 <= scene.n <= 10


def test_fuzz_smoke_campaign():
    cfg = FuzzConfig(seed=3)
    fails = 0
    for idx in range(40):
        scene = generate_fuzz_scene(cfg, idx)
        rec = verify_scene(scene)
        assert rec["error"] is None, rec
        if rec["csl_kind"] == "lines" and not rec["degenerate"] \
                and rec["s"] < scene.n and rec["verdict"] == "fails":
            fails += 1
        if rec["constructive_ok"] is not None:
            assert rec["constructive_ok"], rec
            assert rec["dichotomy_ok"] in (True, None), rec
            assert rec["sweeps_ok"] in (True, None), rec
    assert fails == 0


def test_integer_scene_modes_agree():
    for seed in range(10):
        exact = generate_integer_scene(seed)
        exact.validate()
        fl = scene_as_float(exact)
        fl.validate()
        ce = check_carousel_bruteforce(exact)
        cf = check_carousel_bruteforce(fl)
        assert (ce.verdict, ce.i, ce.j) == (cf.verdict, cf.i, cf.j)
        re_, rf = scene_csl(exact), scene_csl(fl)
        assert type(re_) is type(rf)
        if isinstance(re_, CslLines):
            assert re_.count == rf.count


def test_adversarial_small_coordinate_scenes():
    # tiny integer ranges make collinear hulls, shared vertices, touching
    # bodies and whole tangency arcs common; every draw must either verify
    # cleanly or flag itself, and the float twin must agree structurally
    import random
    from fractions import Fraction

    from carousel.bodies import PolygonBody
    from carousel.kernel import Point, convex_hull, point_in_polygon
    from carousel.rule import Scene, check_carousel_bruteforce, verify_scene

    rng = random.Random(101)
    checked = 0
    for _ in range(300):
        pts = [Point(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(7)]
        g = convex_hull(pts)
        if g.n < 3:
            continue

        def body():
            k = rng.randint(1, 4)
            vs = []
            for _ in range(40):
                p = Point(rng.randint(-3, 3), rng.randint(-3, 3))
                if point_in_polygon(p, g):
                    vs.append(p)
                    if len(vs) == k:
                        break
            return PolygonBody(convex_hull(vs)) if vs else None

        b0, b1 = body(), body()
        if b0 is None or b1 is None:
            continue
        scene = Scene(b0, b1, g, "exact").validate()
        rec = verify_scene(scene)
        assert rec["error"] is None, rec
        fl = scene_as_float(scene)
        ce, cf = scene_csl(scene), scene_csl(fl)
        assert type(ce) is type(cf)
        if isinstance(ce, CslLines):
            assert ce.count == cf.count
        be = check_carousel_bruteforce(scene, ce if isinstance(ce, CslLines) else None)
        bf = check_carousel_bruteforce(fl, cf if isinstance(cf, CslLines) else None)
        assert (be.verdict, be.i, be.j) == (bf.verdict, bf.i, bf.j)
        checked += 1
    assert checked > 200


def test_ellipse_hull_counterexample_fixture():
    report = validate_ellipse_hull_counterexample()
    assert report.ok, report.details
    assert report.count == 2
    assert report.shape_rule_fails
    assert report.polygon_rule_holds


def test_hull_polygon_of_bodies_inscribed():
    a0, a1, xs = ellipse_hull_counterexample()
    poly = hull_polygon_of_bodies(xs, 128)
    from carousel.bodies import support

    # inscribed: every polygon vertex is a boundary contact of the hull,
    # whose support is the maximum of the bodies'
    for v in poly.vertices[::16]:
        t = math.atan2(float(v.y), float(v.x))
        h = max(support(x, t).value for x in xs)
        assert h >= float(v.x) * math.cos(t) + float(v.y) * math.sin(t) - 1e-9
    # each vertex is the contact, at a sample normal, of the first body
    # whose support is the largest there
    contacts = set()
    for k in range(128):
        evs = [support(x, 2 * math.pi * k / 128) for x in xs]
        top = max(ev.value for ev in evs)
        contacts.add(next(ev.contact for ev in evs if ev.value == top))
    assert set(poly.vertices) <= contacts
