import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from carousel.bodies import Disk, PolygonBody
from carousel.cli import main
from carousel.constructions import generate_integer_scene, sharpness_construct
from carousel.kernel import ConvexPolygon, Point
from carousel.rule import Scene
from carousel.sceneio import (
    canonical_dumps,
    load_document,
    save_document,
    scene_from_doc,
    scene_to_doc,
)

F = Fraction

TRIANGLE = ConvexPolygon((Point(-2.0, -1.0), Point(2.0, -1.0), Point(0.0, 2.0)))


@pytest.fixture
def disk_scene(tmp_path):
    scene = Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE)
    path = tmp_path / "scene.json"
    save_document(str(path), scene_to_doc(scene))
    return str(path)


@pytest.fixture
def sharpness_scene(tmp_path):
    inst = sharpness_construct(6)
    scene = Scene(PolygonBody(inst.a0), PolygonBody(inst.a1), inst.container)
    path = tmp_path / "sharp6.json"
    save_document(str(path), scene_to_doc(scene))
    return str(path)


def test_roundtrip_float_scene(disk_scene):
    doc = load_document(disk_scene)
    scene, _ = scene_from_doc(doc)
    again = canonical_dumps(scene_to_doc(scene))
    assert again == canonical_dumps(doc)


def test_roundtrip_exact_scene(tmp_path):
    scene = generate_integer_scene(5)
    doc = scene_to_doc(scene)
    text = canonical_dumps(doc)
    parsed, _ = scene_from_doc(json.loads(text))
    assert parsed.mode == "exact"
    assert parsed.container.vertices == scene.container.vertices
    assert canonical_dumps(scene_to_doc(parsed)) == text
    # exact scalars travel as num/den strings
    assert '"vertices":[["' in text or '/' in text


def test_cmd_csl_two_disks(disk_scene, capsys):
    code = main(["csl", disk_scene])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["kind"] == "Finite"
    assert out["count"] == 2


def test_cmd_csl_identical_bodies(tmp_path, capsys):
    scene = Scene(Disk(Point(0.0, 0.0), 0.5), Disk(Point(0.0, 0.0), 0.5), TRIANGLE)
    path = tmp_path / "ident.json"
    save_document(str(path), scene_to_doc(scene))
    code = main(["csl", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["kind"] == "IdenticalBodies"


def test_cmd_csl_malformed(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["csl", str(path)])
    assert code == 64
    assert "error" in capsys.readouterr().err


def test_malformed_documents_fail_cleanly(tmp_path):
    # every malformed variant must exit 64 (bad document) or 65 (invariant),
    # never crash with a stray exception
    base = json.loads(canonical_dumps(scene_to_doc(
        Scene(Disk(Point(-0.3, 0.0), 0.1), Disk(Point(0.3, 0.0), 0.1), TRIANGLE))))
    variants = [
        {k: v for k, v in base.items() if k != "G"},
        {**base, "mode": "weird"},
        {**base, "tolerances": "zz"},
        {**base, "tolerances": {"eps": "x"}},
        {**base, "A0": {"kind": "blob"}},
        {**base, "A0": "x"},
        {**base, "A0": {"kind": "disk", "center": [0], "radius": 1}},
        {**base, "A1": {"kind": "ellipse", "center": [0, 0], "semi_major": 1,
                        "semi_minor": 2, "rotation": 0}},
        {**base, "G": {"vertices": [[0, 0]]}},
        {**base, "schema_version": "0"},
    ]
    for k, doc in enumerate(variants):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["check", str(path)])
        assert code in (64, 65), (k, code)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("G", "vertices", 0, 0), math.nan),
    (("G", "vertices", 0, 0), math.inf),
    (("G", "vertices", 0, 1), -math.inf),
    (("G", "vertices", 0, 0), "1/0"),
    (("A0", "radius"), "1/0"),
    (("tolerances", "eps"), math.nan),
    (("tolerances", "eps_angle"), math.inf),
])
def test_non_finite_scalars_are_malformed(disk_scene, tmp_path, capsys, path, value):
    doc = load_document(disk_scene)
    _set(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity literals
    assert main(["check", str(bad), "--method", "brute"]) == 64
    assert "error" in capsys.readouterr().err


def test_non_finite_rotation_and_exact_zero_denominator_are_malformed(tmp_path):
    ellipse = {"kind": "ellipse", "center": [-0.3, 0.0], "semi_major": 0.2,
               "semi_minor": 0.1, "rotation": math.inf}
    float_doc = scene_to_doc(Scene(Disk(Point(-0.3, 0.0), 0.1),
                                   Disk(Point(0.3, 0.0), 0.1), TRIANGLE))
    exact_doc = json.loads(canonical_dumps(scene_to_doc(generate_integer_scene(5))))
    exact_doc["G"]["vertices"][0][0] = "1/0"
    for k, doc in enumerate(({**float_doc, "A0": ellipse}, exact_doc)):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 64, k


def test_polygon_that_winds_twice_is_rejected(tmp_path, capsys):
    # a star pentagon turns left at every corner but goes around twice
    doc = load_document(INTEGER_GOLDEN)
    pentagon = [["10", "0"], ["3", "10"], ["-8", "6"], ["-8", "-6"], ["3", "-10"]]
    doc["A0"] = {"kind": "polygon", "vertices": pentagon[0::2] + pentagon[1::2]}
    path = tmp_path / "star.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 65  # InvalidPolygon, like any malformed polygon
    assert "wind around more than once" in capsys.readouterr().err


def test_cmd_check_body_outside(tmp_path, capsys):
    scene = Scene(Disk(Point(0.0, 0.0), 0.2), Disk(Point(0.3, 0.0), 0.1), TRIANGLE)
    doc = scene_to_doc(scene)
    doc["A0"]["radius"] = 50.0
    path = tmp_path / "outside.json"
    save_document(str(path), doc)
    code = main(["check", str(path)])
    assert code == 65


def test_cmd_check_exit_codes(disk_scene, sharpness_scene, capsys):
    assert main(["check", disk_scene, "--method", "brute"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["verdict"] == "holds"

    assert main(["check", sharpness_scene, "--method", "brute"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["verdict"] == "fails"
    assert len(out["certificate"]["refutations"]) == 12

    assert main(["check", sharpness_scene, "--method", "constructive"]) == 4
    assert "error" in capsys.readouterr().err

    assert main(["check", disk_scene, "--method", "both"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agree"] is True
    assert out["trace"]["witness"] is not None


def test_cmd_gen_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["gen", "--kind", "fuzz", "--seed", "1", "--out", str(p1)]) == 0
    assert main(["gen", "--kind", "fuzz", "--seed", "1", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    scene, _ = scene_from_doc(load_document(str(p1)))
    scene.validate()


def test_cmd_fuzz_small_campaign(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAROUSEL_WORKERS", "1")
    out = tmp_path / "report.json"
    code = main(["fuzz", "--seeds", "12", "--seed", "5", "--out", str(out)])
    assert code == 0
    report = load_document(str(out))
    assert report["scenes"] == 12
    assert report["counts"]["fails"] == 0 or not report["theorem_violations"]
    code2 = main(["fuzz", "--seeds", "12", "--seed", "5", "--out", str(out)])
    report2 = load_document(str(out))
    assert report == report2


@pytest.mark.parametrize("config", [
    {"bogus": 1},
    [1, 2],
    {"n_range": 5},
    {"n_range": [5]},
    {"kinds": ["blob"]},
    {"seed": "7"},
    {"mode": "weird"},
    {"mode": "exact"},
    {"count": 5},  # --seeds sets the scene count
    {"n_range": [1, 2]},  # a container needs 3 vertices
    {"poly_points": [0, 0]},  # a polygon body needs a point
    {"rejection_limit": 0},
    {"n_range": [3, 3], "poly_points": [1, 2], "rejection_limit": 5},  # a polygon needs 3
])
def test_cmd_fuzz_malformed_config(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fuzz", "--seeds", "2", "--config", str(path)]) == 64
    assert "error" in capsys.readouterr().err


def test_cmd_fuzz_config_overrides_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv("CAROUSEL_WORKERS", "1")
    path = tmp_path / "config.json"
    # poly_points matters only to polygon bodies
    path.write_text(json.dumps({"n_range": [4, 4], "kinds": ["disk"], "seed": 3,
                                "mode": "float", "poly_points": [1, 2]}),
                    encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["fuzz", "--seeds", "3", "--config", str(path), "--out", str(out)]) == 0
    report = load_document(str(out))
    assert report["seed"] == 3 and report["scenes"] == 3


def test_summarize_campaign_flags_violations():
    from carousel.cli import summarize_campaign

    base = {"error": None, "degenerate": False, "fragile": False,
            "verdict": "holds", "s": 2, "n": 5, "cross_agree": True,
            "constructive_ok": True, "constructive_case": 0, "index": 0}
    records = [
        dict(base, index=0),
        dict(base, index=1, verdict="fails", s=2, n=5),          # violation
        dict(base, index=2, verdict="fails", s=7, n=5),          # allowed
        dict(base, index=3, degenerate=True, verdict="fails"),   # excluded
        dict(base, index=4, error="boom"),
        dict(base, index=5, s=4, n=4, verdict="fails"),          # tight
        dict(base, index=6, s=4, n=4, degenerate=True),          # tight, excluded
    ]
    s = summarize_campaign(records)
    assert s["theorem_violations"] == [1]
    assert s["counts"] == {"holds": 2, "fails": 4, "degenerate": 2, "fragile": 0,
                           "errors": 1}
    assert s["tight_scenes"] == {"holds": 0, "fails": 1}


def test_campaign_worker_count_invariance():
    from carousel.cli import run_campaign, summarize_campaign
    from carousel.constructions import FuzzConfig

    cfg = FuzzConfig(seed=21)
    seq = run_campaign(cfg, 40, workers=1)
    par = run_campaign(cfg, 40, workers=2)
    assert seq == par
    assert summarize_campaign(seq) == summarize_campaign(par)


def test_cmd_render_deterministic(disk_scene, tmp_path):
    s1 = tmp_path / "a.svg"
    s2 = tmp_path / "b.svg"
    assert main(["render", disk_scene, "--out", str(s1)]) == 0
    assert main(["render", disk_scene, "--out", str(s2)]) == 0
    b1, b2 = s1.read_bytes(), s2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("<svg")
    assert "stroke-dasharray" in text  # common supporting lines drawn dotted
    assert "<polygon" in text


def test_cmd_render_no_compute(disk_scene, tmp_path, capsys):
    out = tmp_path / "x.svg"
    code = main(["render", disk_scene, "--out", str(out), "--no-compute"])
    assert code == 66


def test_cmd_render_uses_embedded_annotations(disk_scene, tmp_path):
    # precompute annotations into the document; --no-compute must then work
    from carousel.cli import compute_annotations

    doc = load_document(disk_scene)
    scene, _ = scene_from_doc(doc)
    doc["annotations"] = compute_annotations(scene, ("csl", "sweeps", "sectors"))
    annotated = tmp_path / "annotated.json"
    save_document(str(annotated), doc)
    out = tmp_path / "annotated.svg"
    assert main(["render", str(annotated), "--out", str(out), "--no-compute"]) == 0
    text = out.read_text()
    assert "stroke-dasharray" in text
    # and the annotated document round-trips canonically
    assert canonical_dumps(load_document(str(annotated))) == canonical_dumps(doc)


def test_cmd_render_layers_subset(disk_scene, tmp_path):
    out = tmp_path / "plain.svg"
    code = main(["render", disk_scene, "--out", str(out),
                 "--layers", "container,bodies"])
    assert code == 0
    text = out.read_text()
    assert "stroke-dasharray" not in text


def test_cmd_render_sharpness_has_layers(sharpness_scene, tmp_path):
    out = tmp_path / "sharp.svg"
    assert main(["render", sharpness_scene, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("stroke-dasharray") == 6  # one dotted line per tangent


def test_module_entrypoint_subprocess(disk_scene, tmp_path):
    env = dict(**__import__("os").environ)
    env.setdefault("PYTHONPATH", "")
    r1 = subprocess.run([sys.executable, "-m", "carousel", "check", disk_scene],
                        capture_output=True, text=True, env=env)
    r2 = subprocess.run([sys.executable, "-m", "carousel", "check", disk_scene],
                        capture_output=True, text=True, env=env)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


GOLDEN = Path(__file__).parent / "golden"
INTEGER_GOLDEN = str(GOLDEN / "integer_seed3.json")
SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(*args):
    """A new interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          check=True).stdout


@pytest.mark.parametrize("argv", [
    ["check", INTEGER_GOLDEN, "--method", "bogus"],
    ["check"],
    [],
    ["frobnicate"],
    ["fuzz", "--seeds", "many"],
    ["render", INTEGER_GOLDEN],  # --out is required
    # fuzz scenes have float bodies, so an exact-mode fuzz scene cannot exist
    ["gen", "--kind", "fuzz", "--seed", "3", "--index", "1", "--mode", "exact"],
])
def test_usage_errors_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: carousel") and "error:" in err


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["check", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: carousel")


def test_malformed_worker_count_exits_64(capsys, monkeypatch):
    from carousel import cli

    def no_worker(payload):
        raise AssertionError("a worker ran")

    monkeypatch.setattr(cli, "_fuzz_worker", no_worker)
    monkeypatch.setenv("CAROUSEL_WORKERS", "abc")
    assert main(["fuzz", "--seeds", "2"]) == 64
    assert capsys.readouterr().err.startswith("error: CAROUSEL_WORKERS")


def test_negative_seed_count_exits_64(capsys, monkeypatch):
    monkeypatch.setenv("CAROUSEL_WORKERS", "1")
    assert main(["fuzz", "--seeds", "-5"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --seeds")


def test_cli_import_loads_every_submodule_but_no_process_pool():
    """`import carousel.cli` must load every carousel.* submodule: the
    benchmark's tracer imports carousel.cli and then finds the modules it
    probes in sys.modules.  The process pool (concurrent.futures.process,
    and with it multiprocessing) loads only when a campaign runs with two
    or more workers, so a plain `carousel check` does not pay for it."""
    package = sorted(p.stem for p in (SRC / "carousel").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    loaded = set(json.loads(_fresh_python(
        "-c", "import json, sys; import carousel.cli; print(json.dumps(sorted(sys.modules)))")))
    assert [m for m in package if f"carousel.{m}" not in loaded] == []
    assert "concurrent.futures.process" not in loaded
    assert "multiprocessing" not in loaded


def test_parser_is_reused_without_leaking_state(tmp_path, capsys):
    from carousel.cli import build_parser

    assert build_parser() is build_parser()

    def fresh(*argv):
        return _fresh_python("-m", "carousel", *argv)

    both = tmp_path / "both.json"
    assert main(["check", INTEGER_GOLDEN, "--method", "both", "--out", str(both)]) == 0
    assert both.read_bytes() == fresh("check", INTEGER_GOLDEN, "--method", "both")
    # default method (brute) and no --out: neither carries over from the call above
    assert main(["check", INTEGER_GOLDEN]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "integer_seed3_cert.json").read_bytes()
    assert main(["csl", INTEGER_GOLDEN]) == 0
    assert capsys.readouterr().out.encode() == fresh("csl", INTEGER_GOLDEN)
    assert main(["gen", "--kind", "integer", "--seed", "3"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "integer_seed3.json").read_bytes()
