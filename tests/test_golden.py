"""Frozen regression fixtures.

The files under golden/ pin the byte-exact output of the reference
build environment; a mismatch means behavior changed and needs review.
"""

import pathlib
from fractions import Fraction as F

import pytest

from carousel.bodies import PolygonBody
from carousel.cli import main
from carousel.constructions import FuzzConfig, generate_fuzz_scene, scene_as_float
from carousel.kernel import ConvexPolygon, Point
from carousel.rule import Scene, check_carousel_bruteforce
from carousel.sceneio import (
    canonical_dumps,
    certificate_to_doc,
    load_document,
    scene_from_doc,
    scene_to_doc,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _cli_bytes(tmp_path, args, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


def test_fuzz_scene_golden(tmp_path):
    got = _cli_bytes(tmp_path, ["gen", "--kind", "fuzz", "--seed", "1"], "s.json")
    assert got == (GOLDEN / "fuzz_seed1.json").read_bytes()


def test_integer_scene_and_certificate_golden(tmp_path):
    got = _cli_bytes(tmp_path, ["gen", "--kind", "integer", "--seed", "3"], "i.json")
    assert got == (GOLDEN / "integer_seed3.json").read_bytes()
    cert = _cli_bytes(tmp_path, ["check", str(GOLDEN / "integer_seed3.json"),
                                 "--method", "brute"], "c.json")
    assert cert == (GOLDEN / "integer_seed3_cert.json").read_bytes()


def test_golden_witness_stable_across_modes():
    # the exact-mode witness in the golden certificate is reproduced by the
    # float twin of the same scene
    scene, _ = scene_from_doc(load_document(str(GOLDEN / "integer_seed3.json")))
    golden = load_document(str(GOLDEN / "integer_seed3_cert.json"))["certificate"]
    twin = check_carousel_bruteforce(scene_as_float(scene))
    assert (twin.verdict, twin.i, twin.j) == \
        (golden["verdict"], golden["i"], golden["j"])


def test_sharpness_svg_golden(tmp_path):
    got = _cli_bytes(tmp_path, ["gen", "--kind", "sharpness", "--n", "4"], "sh.json")
    assert got == (GOLDEN / "sharpness4.json").read_bytes()
    svg = _cli_bytes(tmp_path, ["render", str(GOLDEN / "sharpness4.json")], "sh.svg")
    assert svg == (GOLDEN / "sharpness4.svg").read_bytes()


def test_sharpness_fails_certificate_golden(tmp_path):
    # every drop is refuted; the instance's symmetry makes edge slacks tie,
    # so the certificate pins the first-occurrence witness choices
    got = _cli_bytes(tmp_path, ["gen", "--kind", "sharpness", "--n", "6"], "sh6.json")
    assert got == (GOLDEN / "sharpness6.json").read_bytes()
    out = tmp_path / "c6.json"
    assert main(["check", str(GOLDEN / "sharpness6.json"), "--method", "brute",
                 "--out", str(out)]) == 2
    assert out.read_bytes() == (GOLDEN / "sharpness6_cert.json").read_bytes()
    cert = load_document(str(out))["certificate"]
    assert cert["verdict"] == "fails" and len(cert["refutations"]) == 12


def test_sector_demo_svg_golden(tmp_path):
    svg = _cli_bytes(tmp_path, ["render", str(GOLDEN / "sector_demo.json"),
                                "--layers", "sectors,container,sweeps,bodies,csl"],
                     "sec.svg")
    assert svg == (GOLDEN / "sector_demo.svg").read_bytes()
    text = svg.decode()
    assert text.count("stroke-dasharray") == 2  # dotted common supporting lines
    assert "#9e9e9e" in text and "#dddddd" not in text  # the chosen gap's sector only


def test_ellipse_sector_svg_golden(tmp_path):
    # an ellipse/ellipse scene whose render clips one 514-plane sector
    got = _cli_bytes(tmp_path, ["gen", "--kind", "fuzz", "--seed", "2026", "--index", "0"],
                     "f.json")
    assert got == (GOLDEN / "fuzz_seed2026_0.json").read_bytes()
    svg = _cli_bytes(tmp_path, ["render", str(GOLDEN / "fuzz_seed2026_0.json")], "f.svg")
    assert svg == (GOLDEN / "fuzz_seed2026_0.svg").read_bytes()
    assert "#9e9e9e" in svg.decode() and "#dddddd" not in svg.decode()


@pytest.mark.parametrize("name", [
    "integer_seed3",  # exact container, a 6-vertex sector
    "crowded_second_gap_integer2",  # exact container, a 5-vertex sector
    "crowded_gap_ellipse_2026_33",  # an ellipse's 518-vertex sector
])
def test_sector_svg_goldens(tmp_path, name):
    svg = _cli_bytes(tmp_path, ["render", str(GOLDEN / f"{name}.json")], "s.svg")
    assert svg == (GOLDEN / f"{name}.svg").read_bytes()
    assert "#9e9e9e" in svg.decode()


def test_mixed_gap_scene_and_check_golden(tmp_path):
    # an ellipse/polygon scene whose first gap holds a thin opposite-sign
    # excursion: the output pins the constructive witness and trace there,
    # where the crowded first gap drops vertex 1
    got = _cli_bytes(tmp_path, ["gen", "--kind", "fuzz", "--seed", "2026",
                                "--index", "614"], "m.json")
    assert got == (GOLDEN / "mixed_gap_2026_614.json").read_bytes()
    check = _cli_bytes(tmp_path, ["check", str(GOLDEN / "mixed_gap_2026_614.json"),
                                  "--method", "both"], "mc.json")
    assert check == (GOLDEN / "mixed_gap_2026_614_check.json").read_bytes()


def test_smooth_fails_certificate_golden(tmp_path):
    # a polygon/ellipse scene with n = 3 and s = 4: every drop is refuted, and
    # each printed margin is the refinement of a smooth containment test
    got = _cli_bytes(tmp_path, ["gen", "--kind", "fuzz", "--seed", "2026",
                                "--index", "151"], "f.json")
    assert got == (GOLDEN / "fails_smooth_2026_151.json").read_bytes()
    out = tmp_path / "c.json"
    assert main(["check", str(GOLDEN / "fails_smooth_2026_151.json"), "--method", "brute",
                 "--out", str(out)]) == 2
    assert out.read_bytes() == (GOLDEN / "fails_smooth_2026_151_cert.json").read_bytes()
    assert len(load_document(str(out))["certificate"]["refutations"]) == 6


def _vertex_in_body_scene():
    tri = ConvexPolygon((Point(F(0), F(0)), Point(F(12), F(0)), Point(F(0), F(12))))
    a0 = PolygonBody(ConvexPolygon((Point(F(0), F(0)), Point(F(6), F(1)), Point(F(0), F(6)))))
    a1 = PolygonBody(ConvexPolygon((Point(F(2), F(2)), Point(F(4), F(5)), Point(F(3), F(8)))))
    return Scene(a0, a1, tri, mode="exact")


# scenes built by the library rather than by `carousel gen`
LIBRARY_SCENES = {
    "crowded_gap_polygons_556_2374": lambda: generate_fuzz_scene(
        FuzzConfig(seed=556, kinds=("polygon",)), 2374),
    "vertex_in_body_exact": _vertex_in_body_scene,
}


@pytest.mark.parametrize("name, gen_args", [
    # polygon/ellipse: the crowded first gap drops vertex 3, where brute force
    # holds, and its proof, settled by the grid bounds, is the constructive one
    ("crowded_gap_ellipse_2026_33", ["--kind", "fuzz", "--seed", "2026", "--index", "33"]),
    # exact mode: the first gap is empty, the crowded second drops vertex 4,
    # witness (1, 4) where brute force holds at (0, 2)
    ("crowded_second_gap_integer2", ["--kind", "integer", "--seed", "2"]),
    # polygon pair: the crowded first gap drops vertex 3, where brute force
    # holds, and its proof from the polygon table is the constructive one
    ("crowded_gap_polygons_556_2374", None),
    # exact mode, no crowded gap: A_0 holds g_0, so case 1 drops it
    ("vertex_in_body_exact", None),
])
def test_constructive_path_check_goldens(tmp_path, name, gen_args):
    scene_path = GOLDEN / f"{name}.json"
    if gen_args is None:
        scene = LIBRARY_SCENES[name]()
        assert canonical_dumps(scene_to_doc(scene)) + "\n" == scene_path.read_text()
    else:
        got = _cli_bytes(tmp_path, ["gen"] + gen_args, "s.json")
        assert got == scene_path.read_bytes()
    check = _cli_bytes(tmp_path, ["check", str(scene_path), "--method", "both"], "c.json")
    assert check == (GOLDEN / f"{name}_check.json").read_bytes()


@pytest.mark.parametrize("name", [
    "point_ellipse",  # float: a point and an ellipse
    "two_points_exact",  # exact: two points
])
def test_point_body_check_and_svg_goldens(tmp_path, name):
    scene_path = str(GOLDEN / f"{name}.json")
    check = _cli_bytes(tmp_path, ["check", scene_path, "--method", "both"], "c.json")
    assert check == (GOLDEN / f"{name}_check.json").read_bytes()
    svg = _cli_bytes(tmp_path, ["render", scene_path], "p.svg")
    assert svg == (GOLDEN / f"{name}.svg").read_bytes()
    assert "#9e9e9e" in svg.decode()


@pytest.mark.parametrize("name", ["point_ellipse", "two_points_exact"])
def test_point_document_is_its_one_vertex_polygon(tmp_path, name):
    # a point document and the one-vertex polygon document of the same point
    # load to equal bodies, give the same csl, check and render bytes, and
    # the body is written back as a point
    doc = load_document(str(GOLDEN / f"{name}.json"))
    poly_doc = {**doc, **{key: {"kind": "polygon", "vertices": [doc[key]["point"]]}
                          for key in ("A0", "A1") if doc[key]["kind"] == "point"}}
    paths = [tmp_path / "point.json", tmp_path / "polygon.json"]
    for path, d in zip(paths, (doc, poly_doc)):
        path.write_text(canonical_dumps(d) + "\n")
    scene, _ = scene_from_doc(doc)
    twin, _ = scene_from_doc(poly_doc)
    assert (twin.a0, twin.a1) == (scene.a0, scene.a1)
    assert canonical_dumps(scene_to_doc(twin)) == canonical_dumps(doc)
    for cmd in (["csl"], ["check", "--method", "both"], ["render"]):
        outs = []
        for k, path in enumerate(paths):
            out = tmp_path / f"{cmd[0]}{k}"
            outs.append((main([cmd[0], str(path), *cmd[1:], "--out", str(out)]),
                         out.read_bytes()))
        assert outs[0] == outs[1]


def test_goldens_parse_and_validate():
    for name in ("fuzz_seed1.json", "fuzz_seed2026_0.json", "integer_seed3.json",
                 "mixed_gap_2026_614.json", "sector_demo.json", "sharpness4.json",
                 "sharpness6.json", "crowded_gap_ellipse_2026_33.json",
                 "crowded_second_gap_integer2.json", "crowded_gap_polygons_556_2374.json",
                 "fails_smooth_2026_151.json",
                 "vertex_in_body_exact.json", "point_ellipse.json",
                 "two_points_exact.json"):
        doc = load_document(str(GOLDEN / name))
        scene, _ = scene_from_doc(doc)
        scene.validate()
        assert canonical_dumps(doc) + "\n" == (GOLDEN / name).read_text()
