import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from carousel import bodies, sectors, tangency
from carousel.bodies import (
    ContainmentResult,
    Disk,
    Ellipse,
    PointBody,
    PolygonBody,
    contained_in_hull,
    is_polygonal,
)
from carousel.errors import (
    CommonLineCountTooLarge,
    ConstructiveSearchFailed,
    ModeMixError,
    SceneInvariantError,
)
from carousel import rule
from carousel.constructions import FuzzConfig, generate_fuzz_scene
from carousel.kernel import ConvexPolygon, Point
from carousel.rule import (
    REVALIDATION_SLACK,
    Certificate,
    Scene,
    check_carousel_bruteforce,
    check_carousel_constructive,
    cross_validate,
    dichotomy_holds,
    gap_table,
    scene_csl,
    sweep_partition_ok,
    verify_scene,
)
from carousel.tangency import CslLines, mixed_sign_gaps

F = Fraction

TRIANGLE = ConvexPolygon((Point(-2.0, -1.0), Point(2.0, -1.0), Point(0.0, 2.0)))
BIG_SQUARE = ConvexPolygon((Point(-3.0, -3.0), Point(3.0, -3.0),
                            Point(3.0, 3.0), Point(-3.0, 3.0)))


def test_scene_validation():
    ok = Scene(Disk(Point(0.0, 0.0), 0.5), Disk(Point(0.5, 0.0), 0.3), TRIANGLE)
    ok.validate()
    with pytest.raises(SceneInvariantError):
        Scene(Disk(Point(0.0, 0.0), 5.0), Disk(Point(0.5, 0.0), 0.3), TRIANGLE).validate()
    with pytest.raises(ModeMixError):
        Scene(Disk(Point(0.0, 0.0), 0.5), Disk(Point(0.5, 0.0), 0.3), TRIANGLE,
              mode="exact").validate()


def test_nested_disks_hold_with_first_vertex():
    scene = Scene(Disk(Point(0.0, 0.0), 0.3), Disk(Point(0.0, 0.0), 1.0), TRIANGLE)
    cert = check_carousel_bruteforce(scene)
    assert cert.verdict == "holds"
    assert (cert.i, cert.j) == (0, 0)
    assert cert.proof.contained


def test_two_small_disks_in_triangle_hold():
    scene = Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1),
                  ConvexPolygon((Point(-2.0, -1.0), Point(2.0, -1.0), Point(0.0, 2.0))))
    scene.validate()
    cert = check_carousel_bruteforce(scene)
    assert cert.verdict == "holds"
    # the reported witness re-validates with fresh computation
    res = contained_in_hull(scene.body(cert.i), scene.body(1 - cert.i),
                            scene.vertices_except(cert.j), eps=1e-8)
    assert res.contained


def test_constructive_matches_bruteforce_on_disk_scene():
    scene = Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE)
    report = cross_validate(scene)
    assert report.brute.verdict == "holds"
    assert report.constructive.verdict == "holds"
    assert report.agree
    assert report.constructive.proof.contained
    assert report.trace.witness == (report.constructive.i, report.constructive.j)


def test_s_zero_shortcut():
    scene = Scene(Disk(Point(0.0, 0.0), 1.0), Disk(Point(0.0, 0.0), 0.3), BIG_SQUARE)
    csl = scene_csl(scene)
    assert csl.count == 0
    cert, trace = check_carousel_constructive(scene, csl)
    assert cert.verdict == "holds"
    assert cert.i == 1  # the smaller disk sits inside the bigger one
    assert trace.case == 0
    assert "no common supporting line" in trace.notes[0]


def test_precondition_s_not_less_than_n():
    # crossed thin ellipses share the center: four common supporting lines,
    # one more than the triangle has vertices
    a0 = Ellipse(Point(0.0, 0.0), 0.5, 0.1, 0.0)
    a1 = Ellipse(Point(0.0, 0.0), 0.5, 0.1, math.pi / 2)
    scene = Scene(a0, a1, TRIANGLE)
    csl = scene_csl(scene)
    assert csl.count == 4
    with pytest.raises(CommonLineCountTooLarge):
        check_carousel_constructive(scene, csl)


def test_degenerate_scene_annotated():
    scene = Scene(Disk(Point(0.0, 0.0), 0.5), Disk(Point(0.0, 0.0), 0.5), BIG_SQUARE)
    cert = check_carousel_bruteforce(scene)
    assert cert.degenerate_reason == "identical-bodies"
    assert cert.verdict == "holds"  # identical bodies contain one another
    cons, trace = check_carousel_constructive(scene)
    assert cons.verdict == "degenerate"


def test_edge_collinear_common_line():
    # a segment lying on the container's bottom edge and a disk tangent to
    # it share the edge line as a common supporting line; exits of that
    # line land on container vertices via the grazing-edge rule
    sq = ConvexPolygon((Point(-2.0, -2.0), Point(2.0, -2.0),
                        Point(2.0, 2.0), Point(-2.0, 2.0)))
    seg = PolygonBody(ConvexPolygon((Point(-0.5, -2.0), Point(0.5, -2.0))))
    disk = Disk(Point(0.8, -1.7), 0.3)
    scene = Scene(seg, disk, sq).validate()
    cert, trace = check_carousel_constructive(scene)
    assert cert.verdict == "holds"
    assert trace.case == 0
    assert trace.notes == ()
    rec = verify_scene(scene)
    assert rec["error"] is None
    assert rec["constructive_ok"] and rec["dichotomy_ok"] and rec["sweeps_ok"]


def test_vertex_in_body_case_witness():
    # A_0 touches the container vertex g_0, and no gap has left events at two
    # vertices: the crowded-gap drop alone raises on this scene, and case 1
    # drops g_0, since conv(A_0 u G minus g_0) = G holds A_1
    g = ConvexPolygon((Point(F(0), F(0)), Point(F(12), F(0)), Point(F(0), F(12))))
    a0 = PolygonBody(ConvexPolygon((Point(F(0), F(0)), Point(F(6), F(1)), Point(F(0), F(6)))))
    a1 = PolygonBody(ConvexPolygon((Point(F(2), F(2)), Point(F(4), F(5)), Point(F(3), F(8)))))
    scene = Scene(a0, a1, g, mode="exact").validate()
    assert scene_csl(scene).count == 2
    cert, trace = check_carousel_constructive(scene)
    assert (cert.verdict, cert.i, cert.j) == ("holds", 1, 0) and cert.proof.contained
    assert (trace.case, trace.witness, trace.dominant) == (1, (1, 0), 0)
    rec = verify_scene(scene)
    assert rec["error"] is None and rec["constructive_case"] == 1 and rec["cross_agree"]
    # g_0 is swept without a left event: the sweep check allows it because
    # it lies in a body
    assert rec["dichotomy_ok"] is True and rec["sweeps_ok"] is True
    csl = scene_csl(scene)
    table = gap_table(scene, csl)
    assert table.inside == (frozenset({0}), frozenset())
    empty = dataclasses.replace(table, inside=(frozenset(), frozenset()))
    with pytest.raises(ConstructiveSearchFailed):
        check_carousel_constructive(scene, csl, empty)


def _assert_crowded_gap_drop(scene, witness):
    cert, trace = check_carousel_constructive(scene.validate())
    assert cert.verdict == "holds" and cert.proof.contained
    assert (trace.case, trace.witness, trace.notes) == (0, witness, ())
    assert trace.witness == (cert.i, cert.j) and trace.dominant == 1 - cert.i
    assert cert.min_margin == cert.proof.margin
    assert cert.fragile == (abs(cert.proof.margin) <= rule.FRAGILE_FACTOR * scene.tol.eps)
    report = cross_validate(scene)
    assert report.agree and report.constructive.proof.contained
    rec = verify_scene(scene)
    assert rec["error"] is None and rec["constructive_case"] == 0 and rec["cross_agree"]


def test_half_plane_case_witness():
    # unequal disks low in a tall container, tangent cone opening toward the
    # long bottom edge: the crowded gap has no right event at all (this scene
    # once forced a half-plane cut), and the drop reads only its left events
    g = ConvexPolygon((Point(-10.0, 0.0), Point(10.0, 0.0), Point(12.0, 9.0),
                       Point(3.0, 12.0), Point(-1.0, 12.2), Point(-12.0, 8.0)))
    scene = Scene(Disk(Point(-0.1, 1.0), 0.231), Disk(Point(0.1, 1.0), 0.05), g)
    _assert_crowded_gap_drop(scene, (0, 3))


def test_sweep_toolkit_exhaustion_fallback():
    # regression: a polygon scene where, in every adjacent pair, all right
    # vertex hits precede all left hits (this scene once fell through to a
    # containment scan); the crowded-gap drop ignores the event order
    scene = generate_fuzz_scene(FuzzConfig(seed=556, kinds=("polygon",)), 2374)
    _assert_crowded_gap_drop(scene, (0, 3))


def test_crowded_gap_needs_no_right_event_or_event_order():
    # a second polygon pair whose gaps list their right events before their
    # left ones: the drop reads only the left events
    scene = generate_fuzz_scene(FuzzConfig(seed=556, kinds=("polygon",)), 3263)
    _assert_crowded_gap_drop(scene, (0, 4))


@pytest.mark.parametrize("seed, index, brute_ij, witness", [
    (2026, 614, (0, 0), (1, 4)),  # ellipse / polygon, n = 7
    (7411, 4, (0, 1), None),      # polygon / disk, n = 3 = s - 1
])
def test_thin_excursions_in_a_gap_are_two_more_lines(seed, index, brute_ij, witness):
    # a polygon vertex pokes past the smooth body over less than one step
    # of a 4096-angle grid, inside one gap of the two lines a grid finds.
    # The closed form finds both zeros of the excursion: four lines, every
    # gap passes the gap-sign test, and the verdict and brute force's
    # (i, j) are those the grid's mixed-sign-gap record had
    scene = generate_fuzz_scene(FuzzConfig(seed=seed), index)
    csl = scene_csl(scene)
    assert tangency._csl_sampled(scene.a0, scene.a1, scene.tol.eps).count == 2
    assert csl.count == 4 and not csl.degenerate
    assert mixed_sign_gaps(scene.a0, scene.a1, csl, eps=scene.tol.eps) == []
    rec = verify_scene(scene)
    assert (rec["degenerate"], rec["verdict"], rec["i"], rec["j"]) == (False, "holds", *brute_ij)
    if witness is not None:
        cert, trace = check_carousel_constructive(scene, csl)
        assert cert.verdict == "holds"
        assert (trace.witness, trace.case, trace.notes) == (witness, 0, ())


@pytest.mark.parametrize("seed, index, shape, brute_ij, witness", [
    (1, 2372, "Disk", (0, 2), (1, 1)),
    (5, 917, "Disk", (1, 1), (1, 1)),
    (19, 343, "Ellipse", (1, 1), (1, 1)),
])
def test_missed_excursion_at_no_line_is_two_lines(seed, index, shape, brute_ij, witness):
    # the smooth body pokes past one polygon edge over about 1e-3 rad, which
    # the 4096-angle grid steps over: it finds no line although there are
    # two.  The closed form finds both, and the constructive decider
    # agrees with brute force
    scene = generate_fuzz_scene(FuzzConfig(seed=seed), index)
    assert is_polygonal(scene.a0) != is_polygonal(scene.a1)
    smooth = scene.a1 if is_polygonal(scene.a0) else scene.a0
    assert ("Disk" if smooth.a == smooth.b else "Ellipse") == shape
    assert tangency._csl_sampled(scene.a0, scene.a1, scene.tol.eps).count == 0
    assert verify_scene(scene) == {
        "s": 2, "csl_kind": "lines", "degenerate": False,
        "degenerate_reason": None, "verdict": "holds",
        "i": brute_ij[0], "j": brute_ij[1], "fragile": False, "constructive_ok": True,
        "constructive_case": 0, "cross_agree": True, "dichotomy_ok": True,
        "sweeps_ok": True, "error": None,
    }
    assert check_carousel_constructive(scene)[1].witness == witness


@pytest.mark.parametrize("seed, index", [
    (2026, 614), (2026, 721), (2026, 4903), (7411, 4), (7411, 1903), (7411, 5150),
    (1, 2372), (5, 917), (19, 343),
])
def test_lines_the_grid_missed_are_real(seed, index):
    # each line the closed form finds beyond the grid's is a zero of
    # h0 - h1, checked by scalar support: within the band at its normal,
    # and strictly past the band with opposite signs 1e-6 rad to each side
    scene = generate_fuzz_scene(FuzzConfig(seed=seed), index)
    a0, a1 = scene.a0, scene.a1
    thr = scene.tol.eps * (1.0 + max(bodies.origin_radius(a0), bodies.origin_radius(a1)))
    grid = [l.normal for l in tangency._csl_sampled(a0, a1, scene.tol.eps).lines]
    gained = [l.normal for l in scene_csl(scene).lines
              if all(abs(math.remainder(l.normal - t, 2 * math.pi)) > 1e-9 for t in grid)]
    assert len(gained) == 2

    def delta(t):
        return bodies.support(a0, t).value - bodies.support(a1, t).value

    for t in gained:
        assert abs(delta(t)) <= thr
        before, after = delta(t - 1e-6), delta(t + 1e-6)
        assert min(abs(before), abs(after)) > thr and (before > 0) != (after > 0)


def test_a_wrong_sign_of_two_conics_is_a_mixed_sign_gap(monkeypatch):
    # two conics are the one pair kind whose lines come from a sampled
    # grid, so the gap-sign test still guards them: a negated sign fails
    # its gap's uniform probes, and the record is a mixed-sign-gap
    scene = Scene(Disk(Point(-0.5, 0.1), 0.3), Ellipse(Point(0.6, -0.2), 0.5, 0.3, 0.4),
                  BIG_SQUARE).validate()
    csl = scene_csl(scene)
    assert csl.count == 2 and mixed_sign_gaps(scene.a0, scene.a1, csl) == []
    for k in range(csl.count):
        signs = tuple(-g if i == k else g for i, g in enumerate(csl.signs))
        wrong = dataclasses.replace(csl, signs=signs)
        assert mixed_sign_gaps(scene.a0, scene.a1, wrong) == [k]
        monkeypatch.setattr(rule, "common_supporting_lines", lambda *args: wrong)
        rec = verify_scene(scene)
        assert (rec["degenerate_reason"], rec["verdict"]) == ("mixed-sign-gap", "holds")


def test_vertex_events_come_from_the_scene_bodies(monkeypatch):
    # each gap's events come off its dominant body; no hull of the two
    # bodies is ever handed to vertex_hit_events
    seen = []
    real = rule.vertex_hit_events

    def spy(body, *args, **kwargs):
        seen.append(body)
        return real(body, *args, **kwargs)

    monkeypatch.setattr(rule, "vertex_hit_events", spy)
    for a0, a1 in ((Disk(Point(-0.5, 0.1), 0.3), Ellipse(Point(0.6, -0.2), 0.5, 0.3, 0.4)),
                   (PolygonBody(ConvexPolygon((Point(-1.0, 0.0), Point(0.0, -1.0),
                                               Point(0.0, 1.0)))),
                    Disk(Point(1.2, 0.4), 0.6))):
        scene = Scene(a0, a1, BIG_SQUARE).validate()
        assert 1 <= scene_csl(scene).count < scene.n
        seen.clear()
        cert, _ = check_carousel_constructive(scene)
        assert cert.verdict == "holds"
        assert seen and all(body is a0 or body is a1 for body in seen)


def test_gap_signs_need_no_support_sampling(monkeypatch):
    # the decider takes each gap's sign from the common-line pass.  The
    # gap-sign test samples every pair kind: with the signs negated, every
    # gap of a polygonal and of a smooth pair fails it
    def no_sampling(*args):
        raise AssertionError("gap sampled")

    monkeypatch.setattr(tangency, "support_batch", no_sampling)
    tri0 = PolygonBody(ConvexPolygon((Point(-1.0, 0.0), Point(0.0, -1.0), Point(0.0, 1.0))))
    tri1 = PolygonBody(ConvexPolygon((Point(1.0, -1.0), Point(2.0, 0.0), Point(1.0, 1.0))))
    disks = (Disk(Point(-0.5, 0.1), 0.3), Disk(Point(0.6, -0.2), 0.4))
    for a0, a1 in ((tri0, tri1), (tri0, Disk(Point(1.2, 0.4), 0.6)), disks):
        scene = Scene(a0, a1, BIG_SQUARE).validate()
        csl = scene_csl(scene)
        assert csl.count == 2
        cert, trace = check_carousel_constructive(scene, csl)
        assert cert.verdict == "holds"
        assert (trace.pair_index, trace.case, trace.dominant) == (0, 0, 1)
    monkeypatch.undo()
    for a0, a1 in ((tri0, tri1), disks):
        csl = scene_csl(Scene(a0, a1, BIG_SQUARE))
        flipped = dataclasses.replace(csl, signs=tuple(-s for s in csl.signs))
        assert mixed_sign_gaps(a0, a1, csl) == []
        assert mixed_sign_gaps(a0, a1, flipped) == [0, 1]


def test_cross_validate_degenerate_is_vacuous():
    scene = Scene(Disk(Point(0.0, 0.0), 0.5), Disk(Point(0.0, 0.0), 0.5), BIG_SQUARE)
    report = cross_validate(scene)
    assert report.constructive.verdict == "degenerate"
    assert report.agree  # vacuous
    assert report.constructive.proof is None


def test_certificate_min_margin_reads_its_results():
    holds = check_carousel_bruteforce(
        Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE))
    assert holds.verdict == "holds" and holds.min_margin == holds.proof.margin
    fails = check_carousel_bruteforce(generate_fuzz_scene(FuzzConfig(seed=2026), 151))
    assert fails.verdict == "fails" and len(fails.refutations) == 6
    assert fails.min_margin == min(r.margin for _, r in fails.refutations)
    some = Certificate("fails", refutations=(((0, 0), ContainmentResult(False, math.nan)),
                                             ((0, 1), ContainmentResult(False, -0.5))))
    assert some.min_margin == -0.5
    scene = Scene(Disk(Point(0.0, 0.0), 0.5), Disk(Point(0.0, 0.0), 0.5), BIG_SQUARE)
    degenerate, _ = check_carousel_constructive(scene)
    assert degenerate.verdict == "degenerate" and math.isnan(degenerate.min_margin)


def test_certificates_deterministic():
    scene = Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE)
    c1 = check_carousel_bruteforce(scene)
    c2 = check_carousel_bruteforce(scene)
    assert c1 == c2


def test_dichotomy_and_sweeps_on_fixed_scene():
    scene = Scene(Disk(Point(-0.5, 0.1), 0.3), Disk(Point(0.6, -0.2), 0.4), BIG_SQUARE)
    csl = scene_csl(scene)
    assert csl.count == 2
    assert dichotomy_holds(scene, csl)
    assert sweep_partition_ok(scene, gap_table(scene, csl))


def test_dichotomy_reads_the_gap_signs():
    # with every gap's sign negated the dominated body is named dominant,
    # and it does not hold the other in its sector: the gap-sign test fails
    # every gap.  The sweep check still passes: each body's turning line
    # sweeps the boundary from the exit of the gap's first common line to
    # that of its second, so the left events of either body in a gap sit at
    # the same vertices
    scene = Scene(Disk(Point(-0.5, 0.1), 0.3), Disk(Point(0.6, -0.2), 0.4), BIG_SQUARE)
    csl = scene_csl(scene)
    flipped = dataclasses.replace(csl, signs=tuple(-s for s in csl.signs))
    table = gap_table(scene, flipped)
    assert [gap.dominant for gap in table.gaps] == [1 - gap.dominant
                                                    for gap in gap_table(scene, csl).gaps]
    assert mixed_sign_gaps(scene.a0, scene.a1, flipped, eps=scene.tol.eps) == [0, 1]
    assert sweep_partition_ok(scene, table)


def test_verify_scene_record():
    scene = Scene(Disk(Point(-0.5, 0.1), 0.3), Disk(Point(0.6, -0.2), 0.4), BIG_SQUARE)
    rec = verify_scene(scene)
    assert rec["error"] is None
    assert rec["s"] == 2
    assert rec["verdict"] == "holds"
    assert rec["constructive_ok"] is True
    assert rec["cross_agree"] is True
    assert rec["dichotomy_ok"] is True
    assert rec["sweeps_ok"] is True
    assert rec["constructive_case"] == 0


def test_exact_mode_scene():
    g = ConvexPolygon((Point(F(-4), F(-4)), Point(F(4), F(-4)),
                       Point(F(4), F(4)), Point(F(-4), F(4))))
    a0 = PolygonBody(ConvexPolygon((Point(F(-1), F(0)), Point(F(0), F(-1)),
                                    Point(F(0), F(1)))))
    a1 = PolygonBody(ConvexPolygon((Point(F(1), F(-1)), Point(F(2), F(0)),
                                    Point(F(1), F(1)))))
    scene = Scene(a0, a1, g, mode="exact").validate()
    cert = check_carousel_bruteforce(scene)
    assert cert.verdict == "holds"
    rec = verify_scene(scene)
    assert rec["error"] is None
    assert rec["cross_agree"] is True


def test_point_body_scene_end_to_end():
    scene = Scene(PointBody(Point(-0.4, 0.1)), PointBody(Point(0.5, -0.2)),
                  TRIANGLE).validate()
    csl = scene_csl(scene)
    assert csl.count == 2  # one geometric line, two orientations
    rec = verify_scene(scene)
    assert rec["error"] is None
    assert rec["verdict"] == "holds"
    assert rec["constructive_ok"] and rec["cross_agree"]
    assert rec["dichotomy_ok"] and rec["sweeps_ok"]


def test_verify_scene_runs_bruteforce_once(monkeypatch):
    calls = []
    real = rule.check_carousel_bruteforce

    def counting(scene, csl=None):
        calls.append(scene)
        return real(scene, csl)

    monkeypatch.setattr(rule, "check_carousel_bruteforce", counting)
    cfg = FuzzConfig(seed=2026)
    cross_checked = 0
    for k in range(20):
        calls.clear()
        rec = verify_scene(generate_fuzz_scene(cfg, k))
        assert rec["error"] is None
        assert len(calls) == 1
        cross_checked += rec["dichotomy_ok"] is not None  # 1 <= s < n
    assert cross_checked > 0


def test_cross_validate_revalidation_is_fresh_containment():
    cfg = FuzzConfig(seed=2026)
    checked = 0
    for k in range(100):
        scene = generate_fuzz_scene(cfg, k)
        csl = scene_csl(scene)
        if not (isinstance(csl, CslLines) and 1 <= csl.count < scene.n) \
                or csl.degenerate or mixed_sign_gaps(scene.a0, scene.a1, csl,
                                                     eps=scene.tol.eps):
            continue
        report = cross_validate(scene, csl)
        i, j = report.constructive.i, report.constructive.j
        fresh = contained_in_hull(scene.body(i), scene.body(1 - i),
                                  scene.vertices_except(j),
                                  eps=scene.tol.eps * REVALIDATION_SLACK)
        assert report.constructive.proof == fresh
        checked += 1
    assert checked >= 50


def test_verify_scene_evaluates_each_support_grid_once(monkeypatch):
    grid_cos = np.cos(np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
    calls = Counter()
    real = bodies.support_batch

    def counting(body, cos_t, sin_t):
        if np.array_equal(cos_t, grid_cos):
            calls[id(body)] += 1
        return real(body, cos_t, sin_t)

    for module in (bodies, tangency, sectors, rule):
        if hasattr(module, "support_batch"):
            monkeypatch.setattr(module, "support_batch", counting)

    def scene_bodies(body):
        yield body
        for part in getattr(body, "parts", ()):
            yield from scene_bodies(part)

    cfg = FuzzConfig(seed=2026)
    evaluated = 0
    for k in range(40):
        scene = generate_fuzz_scene(cfg, k)
        calls.clear()
        rec = verify_scene(scene)
        assert rec["error"] is None
        for body in (*scene_bodies(scene.a0), *scene_bodies(scene.a1)):
            assert calls[id(body)] <= 1
        evaluated += sum(calls.values())
    assert evaluated > 0


def test_sweep_partition_computes_each_line_exit_once(monkeypatch):
    calls = []
    real = sectors.boundary_exit

    def counting(line, *args, **kwargs):
        calls.append(line)
        return real(line, *args, **kwargs)

    monkeypatch.setattr(sectors, "boundary_exit", counting)
    cfg = FuzzConfig(seed=2026)
    scenes = [Scene(Disk(Point(-0.5, 0.1), 0.3), Disk(Point(0.6, -0.2), 0.4), BIG_SQUARE)]
    scenes += [generate_fuzz_scene(cfg, k) for k in range(40)]
    checked = 0
    for scene in scenes:
        rec = verify_scene(scene)
        if not (rec["sweeps_ok"] and rec["s"] >= 2):
            continue
        csl = scene_csl(scene)
        table = gap_table(scene, csl)
        calls.clear()
        assert sweep_partition_ok(scene, table)
        assert len(calls) == csl.count
        checked += 1
    assert checked >= 5


def test_constructive_decider_makes_one_containment_test_and_no_sector_or_scan(monkeypatch):
    # with 1 <= s < n the decider drops one vertex of one gap and re-validates
    # that drop: no line turns, no exit, vertex chain or sector is computed,
    # and the brute-force scan never runs
    calls = []
    for module in (rule, sectors, tangency, bodies):
        for name in ("contained_in_hull", "vertices_between", "sector_from_arc",
                     "drop_one_containment", "check_carousel_bruteforce",
                     "boundary_exit", "slide_turn"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, _real=real, _name=name,
                                    **kwargs: calls.append(_name) or _real(*args, **kwargs))
    tri0 = PolygonBody(ConvexPolygon((Point(-1.0, 0.0), Point(0.0, -1.0), Point(0.0, 1.0))))
    tri1 = PolygonBody(ConvexPolygon((Point(1.0, -1.0), Point(2.0, 0.0), Point(1.0, 1.0))))
    for scene in (Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE),
                  Scene(tri0, tri1, BIG_SQUARE)):
        csl = scene_csl(scene)
        assert 1 <= csl.count < scene.n
        calls.clear()
        cert, trace = check_carousel_constructive(scene, csl)
        assert cert.verdict == "holds" and trace.case == 0
        assert calls == ["contained_in_hull"]


def test_verify_scene_builds_one_gap_table_for_every_reader(monkeypatch):
    # the decider and the sweep check share one gap table, with one event
    # pass per body.  The gap signs take one test, with one support pass
    # per body, and no sector is built
    calls = Counter()
    events = Counter()
    batches = Counter()

    def spy(name, real, per_body=None):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if per_body is not None:
                per_body[id(args[0])] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(rule, "gap_table", spy("gap_table", rule.gap_table))
    monkeypatch.setattr(rule, "mixed_sign_gaps", spy("mixed_sign_gaps", rule.mixed_sign_gaps))
    monkeypatch.setattr(tangency, "support_batch",
                        spy("support_batch", tangency.support_batch, batches))
    for module in (rule, sectors, bodies):
        if hasattr(module, "sector_from_arc"):
            monkeypatch.setattr(module, "sector_from_arc",
                                spy("sector_from_arc", module.sector_from_arc))
    monkeypatch.setattr(sectors.SectorRegion, "contains_body",
                        spy("contains_body", sectors.SectorRegion.contains_body))
    monkeypatch.setattr(rule, "vertex_hit_events",
                        spy("vertex_hit_events", rule.vertex_hit_events, events))
    tri0 = PolygonBody(ConvexPolygon((Point(-1.0, 0.0), Point(0.0, -1.0), Point(0.0, 1.0))))
    tri1 = PolygonBody(ConvexPolygon((Point(1.0, -1.0), Point(2.0, 0.0), Point(1.0, 1.0))))
    for scene in (Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE),
                  Scene(tri0, tri1, BIG_SQUARE)):
        s = scene_csl(scene).count
        assert 1 <= s < scene.n
        calls.clear()
        events.clear()
        batches.clear()
        rec = verify_scene(scene)
        assert rec["error"] is None and rec["dichotomy_ok"] and rec["sweeps_ok"]
        assert calls["gap_table"] == calls["mixed_sign_gaps"] == 1
        assert calls["sector_from_arc"] == calls["contains_body"] == 0
        assert events == batches == Counter({id(scene.a0): 1, id(scene.a1): 1})


def test_gap_table_scans_each_body_once_and_the_decider_builds_it_once(monkeypatch):
    # the event passes scan each body's vertices: no convex hull is built,
    # and each body has one pass.  Run alone, the decider builds the table
    # once and returns the witness verify_scene's decider returns
    from carousel import kernel

    calls = Counter()
    events = Counter()
    reports = []

    def spy(name, real, count_body=False):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if count_body:
                events[id(args[0])] += 1
            return real(*args, **kwargs)
        return wrapped

    for module in (kernel, bodies, sectors, tangency, rule):
        if hasattr(module, "convex_hull"):
            monkeypatch.setattr(module, "convex_hull", spy("convex_hull", module.convex_hull))
    monkeypatch.setattr(rule, "gap_table", spy("gap_table", rule.gap_table))
    monkeypatch.setattr(rule, "vertex_hit_events",
                        spy("vertex_hit_events", rule.vertex_hit_events, True))
    real_cross = rule.cross_validate
    monkeypatch.setattr(rule, "cross_validate",
                        lambda *args, **kwargs: reports.append(real_cross(*args, **kwargs))
                        or reports[-1])
    tri0 = PolygonBody(ConvexPolygon((Point(-1.0, 0.0), Point(0.0, -1.0), Point(0.0, 1.0))))
    tri1 = PolygonBody(ConvexPolygon((Point(1.0, -1.0), Point(2.0, 0.0), Point(1.0, 1.0))))
    for scene in (Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE),
                  Scene(tri0, tri1, BIG_SQUARE)):
        csl = scene_csl(scene)
        assert 1 <= csl.count < scene.n
        calls.clear()
        events.clear()
        rule.gap_table(scene, csl)
        assert calls["convex_hull"] == 0
        assert events == Counter({id(scene.a0): 1, id(scene.a1): 1})
        reports.clear()
        assert verify_scene(scene)["error"] is None and len(reports) == 1
        calls.clear()
        cert, trace = check_carousel_constructive(scene, csl)
        assert calls["gap_table"] == 1
        assert (cert, trace) == (reports[0].constructive, reports[0].trace)
        assert cert.verdict == "holds" and trace.case == 0


def _scan_counts(monkeypatch, n):
    """Polygons built, monotone-chain passes and cap chains of brute force
    on the sharpness instance of n, with its refutations."""
    from carousel import kernel
    from carousel.constructions import sharpness_construct

    inst = sharpness_construct(n)
    scene = Scene(PolygonBody(inst.a0), PolygonBody(inst.a1), inst.container)
    csl = scene_csl(scene)
    counts = Counter()
    real_init, real_chain, real_cap = ConvexPolygon.__post_init__, kernel._chain, bodies.cap_chain

    def counting_init(self):
        counts["polygon"] += 1
        real_init(self)

    def counting_chain(*args):
        counts["chain"] += 1
        return real_chain(*args)

    def counting_cap(*args):
        counts["cap"] += 1
        return real_cap(*args)

    monkeypatch.setattr(ConvexPolygon, "__post_init__", counting_init)
    monkeypatch.setattr(kernel, "_chain", counting_chain)
    monkeypatch.setattr(bodies, "cap_chain", counting_cap)
    cert = check_carousel_bruteforce(scene, csl)
    monkeypatch.undo()
    return counts, cert


def test_polygonal_scan_builds_one_hull_per_body_and_none_per_test(monkeypatch):
    # every (i, j) of the sharpness family is refuted; each body's scan
    # builds the full hull once (one polygon, two chain passes) and reads
    # every test from its table: no polygon and no hull pass per test, only
    # the cap chain of the dropped vertex, which pushes through one pass
    for n in (16, 32):
        counts, cert = _scan_counts(monkeypatch, n)
        assert cert.verdict == "fails" and len(cert.refutations) == 2 * n
        assert counts == Counter(polygon=2, chain=4 + 2 * n, cap=2 * n)


def test_cross_validate_reuses_a_holding_brute_force_proof(monkeypatch):
    # fuzz 2026 scenes whose constructive witness is brute force's holding
    # (i, j): #2 a polygon pair, #33 an ellipse hull settled by its grid
    # bounds, #70 a disk in a polygon's hull with n > 3 reuse the proof and
    # make no containment test; #58 (n = 3, disk in a polygon's hull) and
    # #306 (an eager grid proof) test again.  The certificate is the one
    # the fresh test gives.
    calls = []
    real = rule.contained_in_hull
    monkeypatch.setattr(rule, "contained_in_hull",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    cfg = FuzzConfig(seed=2026)
    for k, tests in ((2, 0), (33, 0), (70, 0), (58, 1), (306, 1)):
        scene = generate_fuzz_scene(cfg, k)
        csl = scene_csl(scene)
        brute = check_carousel_bruteforce(scene, csl)
        calls.clear()
        report = cross_validate(scene, csl, brute)
        assert (brute.verdict, brute.i, brute.j) == ("holds", *report.trace.witness)
        assert len(calls) == tests
        fresh, trace = check_carousel_constructive(scene, csl)
        assert trace == report.trace
        assert repr(fresh) == repr(report.constructive)
        assert fresh.fragile == report.constructive.fragile
        assert (fresh.proof.lo, fresh.proof.hi) == (report.constructive.proof.lo,
                                                   report.constructive.proof.hi)
