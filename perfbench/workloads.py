"""The three workloads.  Each drives the package from outside, through its
public functions and its command line, in a closed loop from one process.

fuzz_campaign   seeded fuzz scenes through verify_scene, serial and through
                the scene-parallel run_campaign; all body kinds.
polygon_pairs   exact integer scenes with their float twins, and the tight
                sharpness family; polygonal bodies only.
cli_documents   scene files checked and rendered by a warm in-process
                carousel.cli.main, plus cold `python -m carousel check` runs.
"""

from __future__ import annotations

import statistics
import time

from harness import (
    Run,
    check_method,
    cold_checks,
    decision,
    digest,
    expected_check_code,
    quantile,
)
from tracer import pair_kind

# the render suite is drawn from this fixed fuzz seed, whatever --seed is:
# one render with smooth sectors costs about a second and differs by up to
# 2x between scenes, so a seed-dependent handful would not give a steady
# median.  It is the first Sizes.render_heavy_docs such scenes among the
# first RENDER_POOL.
RENDER_SUITE_SEED = 2026
RENDER_POOL = 30


def _gate_record(rec: dict) -> str | None:
    """Why a verify_scene record breaks the campaign's checks, or None."""
    if rec["error"]:
        return rec["error"]
    s, n = rec["s"], rec["n"]
    if rec["verdict"] == "fails" and not rec["degenerate"] and s is not None and s < n:
        return "theorem violation: rule fails with s < n"
    if rec["cross_agree"] is False or rec["constructive_ok"] is False:
        return "constructive decider disagrees"
    if s is not None and 1 <= s < n and not rec["degenerate"]:
        if rec["dichotomy_ok"] is not True or rec["sweeps_ok"] is not True:
            return "sector dichotomy or sweep partition check failed"
    return None


def _keep_record(run: Run, records: dict, key, rec, what: str,
                 problem: str | None = None) -> None:
    """Count one op: its own problem, else a change against an earlier record."""
    prev = records.setdefault(key, rec)
    if problem is None and prev != rec:
        problem = "output differs from an earlier run of the same input"
    run.check(problem is None, f"{what}: {problem}")


def _op_metrics(run: Run, rate_name: str, prefix: str, times: list) -> None:
    ms = [t * 1000.0 for t in times]
    run.metric(rate_name, len(times) / sum(times), "1/s", len(times), "ops_per_s")
    run.metric(f"{prefix}_ms_p50", quantile(ms, 0.50), "ms", len(ms), "op_ms_p50")
    run.metric(f"{prefix}_ms_p95", quantile(ms, 0.95), "ms", len(ms), "op_ms_p95")


def _cold_metric(run: Run, docs: list) -> None:
    cold = cold_checks(run, docs)
    run.metric("check_cold_ms_p50", statistics.median(cold), "ms", len(cold), "cold_ms_p50")


def _timed(run: Run, tracer, pair, fn, *args):
    """(seconds, result) of fn(*args) as one traced op of the given pair."""
    t0 = run.clock()
    if tracer:
        tracer.begin_op()
        tracer.set_pair(pair)
    result = fn(*args)
    if tracer:
        tracer.end_op()
    return run.clock() - t0, result


# ---------------------------------------------------------------------------

def fuzz_campaign(run: Run) -> None:
    from carousel import cli, constructions, rule, sceneio

    sizes = run.sizes
    cfg = constructions.FuzzConfig(seed=run.seed)
    docs = run.out_dir / "docs"

    def prepare():
        docs.mkdir(parents=True, exist_ok=True)
        paths = []
        for k in range(sizes.cold_docs):
            path = docs / f"fuzz{k}.json"
            scene = constructions.generate_fuzz_scene(cfg, k)
            sceneio.save_document(str(path), sceneio.scene_to_doc(scene))
            paths.append(path)
        return paths

    setup_s, doc_paths = run.setup(prepare)
    records: dict = {}
    pairs: dict = {}

    def op(k, tracer):
        t0 = run.clock()
        if tracer:
            tracer.begin_op()
        scene = constructions.generate_fuzz_scene(cfg, k)
        pairs[k] = pair_kind(scene.a0, scene.a1)
        if tracer:
            tracer.set_pair(pairs[k])
        rec = rule.verify_scene(scene)
        if tracer:
            tracer.end_op()
        elapsed = run.clock() - t0
        rec["index"] = k
        rec["n"] = scene.n
        _keep_record(run, records, k, rec, f"fuzz scene {k}", _gate_record(rec))
        return elapsed

    min_serial = max(sizes.digest_records, sizes.parallel_scenes, sizes.cold_docs)
    times = run.phase(op, 0.6 * run.seconds, min_serial)
    run.digests["fuzz_records"] = digest([decision(records[k])
                                          for k in range(sizes.digest_records)])
    if run.trace:
        return
    _op_metrics(run, "scenes_per_s", "scene", times)
    run.metric("scene_ms_p99", quantile(times, 0.99) * 1000.0, "ms", len(times))
    smooth = [t * 1000.0 for k, t in enumerate(times) if pairs[k] == "smooth_smooth"]
    run.metric("smooth_smooth_scene_ms_p50", quantile(smooth, 0.5), "ms", len(smooth),
               "aux_ms_p50")

    # scene-parallel campaign, best of several; its records must equal the
    # serial ones.  Its time is printed but bounds nothing: the workers run
    # on every core, and speed samples taken on one core before and after
    # the campaign scale it too loosely for a bound on a shared host.
    workers = len(run.cores)
    count = sizes.parallel_scenes
    walls = []
    t_end = time.perf_counter() + 0.15 * run.seconds
    while not walls or time.perf_counter() < t_end:
        seconds, batch = run.scaled(cli.run_campaign, cfg, count, workers,
                                    all_cores=True)
        walls.append(seconds)
        for rec in batch:
            _keep_record(run, records, rec["index"], rec,
                         f"parallel scene {rec['index']}", _gate_record(rec))
    run.digests["fuzz_records_parallel"] = digest(
        [decision(rec) for rec in batch[:sizes.digest_records]])
    run.metric("scenes_per_s_parallel", count / min(walls), "1/s", len(walls))
    run.metric("workers", workers, "count", 1)

    _cold_metric(run, [(path, check_method(records[k]), expected_check_code(records[k]))
                       for k, path in enumerate(doc_paths)])
    run.metric("setup_s", setup_s, "s", sizes.setup_repeats)


# ---------------------------------------------------------------------------

def _csl_kind(csl, tangency) -> str:
    if isinstance(csl, tangency.CslLines):
        return "lines"
    if isinstance(csl, tangency.CslArcs):
        return "arcs"
    return "identical"


def polygon_pairs(run: Run) -> None:
    from carousel import bodies, constructions, rule, sceneio, tangency

    sizes = run.sizes
    docs = run.out_dir / "docs"

    def integer_scene(k):
        return constructions.generate_integer_scene(f"{run.seed}:{k}")

    def prepare():
        docs.mkdir(parents=True, exist_ok=True)
        paths = []
        for k in range(sizes.cold_docs):
            path = docs / f"integer{k}.json"
            sceneio.save_document(str(path), sceneio.scene_to_doc(integer_scene(k)))
            paths.append(path)
        return paths

    setup_s, doc_paths = run.setup(prepare)
    records: dict = {}

    def exact_and_float(k):
        scene = integer_scene(k)
        rec = rule.verify_scene(scene)
        twin = constructions.scene_as_float(scene)
        csl = rule.scene_csl(twin)
        return scene, rec, csl, rule.check_carousel_bruteforce(twin, csl)

    def exact_op(k, tracer):
        elapsed, (scene, rec, csl, cert) = _timed(run, tracer, "poly_poly", exact_and_float, k)
        rec["index"] = k
        rec["n"] = scene.n
        exact = (rec["csl_kind"], rec["s"], rec["verdict"], rec["i"], rec["j"])
        s_float = csl.count if isinstance(csl, tangency.CslLines) else None
        floats = (_csl_kind(csl, tangency), s_float, cert.verdict, cert.i, cert.j)
        problem = _gate_record(rec)
        if problem is None and exact != floats:
            problem = f"exact {exact} != float {floats}"
        _keep_record(run, records, k, rec, f"integer scene {k}", problem)
        return elapsed

    times = run.phase(exact_op, 0.5 * run.seconds,
                      max(sizes.digest_records, sizes.cold_docs))

    family: dict = {}

    def sharpness(n):
        inst = constructions.sharpness_construct(n)
        scene = rule.Scene(bodies.PolygonBody(inst.a0), bodies.PolygonBody(inst.a1),
                           inst.container)
        return rule.verify_scene(scene)

    def family_op(k, tracer):
        n = sizes.sharpness_ns[k]
        elapsed, rec = _timed(run, tracer, "poly_poly", sharpness, n)
        problem = rec["error"]
        if problem is None and (rec["verdict"], rec["s"]) != ("fails", n):
            problem = f"verdict {rec['verdict']} with s = {rec['s']}, want fails with s = {n}"
        _keep_record(run, family, n, rec, f"sharpness n={n}", problem)
        return elapsed

    family_times = run.phase(family_op, 0.15 * run.seconds, count=len(sizes.sharpness_ns))
    run.digests["integer_records"] = digest([decision(records[k])
                                             for k in range(sizes.digest_records)])
    run.digests["sharpness_records"] = digest([decision(family[n])
                                               for n in sizes.sharpness_ns])
    if run.trace:
        return
    _op_metrics(run, "exact_scenes_per_s", "exact_scene", times)
    run.metric("sharpness_family_s", sum(family_times), "s", len(family_times))
    run.metric("sharpness_family_ms", sum(family_times) * 1000.0, "ms", len(family_times),
               "aux_ms_p50")
    for n, t in zip(sizes.sharpness_ns, family_times):
        run.metric(f"sharpness_n{n}_ms", t * 1000.0, "ms", 1)
    _cold_metric(run, [(path, check_method(records[k]), expected_check_code(records[k]))
                       for k, path in enumerate(doc_paths)])
    run.metric("setup_s", setup_s, "s", sizes.setup_repeats)


# ---------------------------------------------------------------------------

COROLLARY_KINDS = ("disks-in-triangle", "ellipses-in-pentagon", "homothets-in-triangle")
COROLLARY_SKIP_LIMIT = 20


def _read_bytes(path) -> bytes:
    """A command's output file; empty when the command wrote none."""
    return path.read_bytes() if path.exists() else b""


def _smooth_sectors(pair: str, rec: dict) -> bool:
    """Whether rendering the scene draws smooth sectors: constructive case 0
    on a smooth pair."""
    return (pair == "smooth_smooth" and rec["s"] is not None and rec["s"] >= 1
            and rec["constructive_case"] == 0 and rec["constructive_ok"] is True)


def _render_suite(count: int) -> list:
    """Indices of the first count fuzz scenes of RENDER_SUITE_SEED whose
    render draws smooth sectors."""
    from carousel import constructions, rule

    cfg = constructions.FuzzConfig(seed=RENDER_SUITE_SEED)
    found = []
    for i in range(RENDER_POOL):
        scene = constructions.generate_fuzz_scene(cfg, i)
        if _smooth_sectors(pair_kind(scene.a0, scene.a1), rule.verify_scene(scene)):
            found.append(i)
            if len(found) == count:
                break
    return found


def _corollary_seeds(kind: str, base: int, count: int) -> tuple:
    """(the first count seeds base, base + 1, ... whose scene generates,
    seeds skipped).  A corollary generator places bodies by rejection
    sampling and, by design, gives up (RejectionLimitExceeded) on a few
    seeds; those have no scene to check."""
    from carousel import constructions
    from carousel.errors import RejectionLimitExceeded

    seeds, skipped = [], 0
    candidate = base
    while len(seeds) < count and skipped < COROLLARY_SKIP_LIMIT:
        try:
            constructions.generate_corollary_scene(kind, candidate)
            seeds.append(candidate)
        except RejectionLimitExceeded:
            skipped += 1
        candidate += 1
    return seeds, skipped


def cli_documents(run: Run) -> None:
    from carousel import cli, rule, sceneio

    sizes = run.sizes
    docs = run.out_dir / "docs"
    outs = run.out_dir / "outputs"
    suite = _render_suite(sizes.render_heavy_docs)
    corollary_seeds = {}
    skipped = 0
    for kind in COROLLARY_KINDS:
        corollary_seeds[kind], n = _corollary_seeds(kind, run.seed * 100,
                                                    sizes.cli_corollary_seeds)
        skipped += n
    run.metric("corollary_seeds_skipped", skipped, "count", len(COROLLARY_KINDS))

    def gen(name, *args):
        path = docs / f"{name}.json"
        code = cli.main(["gen", *args, "--out", str(path)])
        ok = run.check(code == 0, f"gen {name}: exit {code}")
        return {"name": name, "path": path} if ok else None

    def prepare():
        docs.mkdir(parents=True, exist_ok=True)
        outs.mkdir(parents=True, exist_ok=True)
        seed = str(run.seed)
        fuzz = [gen(f"fuzz{i}", "--kind", "fuzz", "--seed", seed, "--index", str(i))
                for i in range(sizes.cli_fuzz_docs)]
        corollary = [gen(f"{kind}{c}", "--kind", kind, "--seed", str(s))
                     for kind in COROLLARY_KINDS
                     for c, s in enumerate(corollary_seeds[kind])]
        sharp = [gen(f"sharpness{n}", "--kind", "sharpness", "--n", str(n))
                 for n in sizes.cli_sharpness_ns]
        heavy = [gen(f"suite{i}", "--kind", "fuzz", "--seed", str(RENDER_SUITE_SEED),
                     "--index", str(i)) for i in suite]
        # a document whose gen failed is counted and left out
        def made(group):
            return [d for d in group if d]

        return made(fuzz + corollary + sharp), made(sharp), made(heavy)

    setup_s, (check_docs, sharp_docs, heavy_docs) = run.setup(prepare)

    # expected outcomes, from the library rather than the command line
    for doc in check_docs + heavy_docs:
        scene, _ = sceneio.scene_from_doc(sceneio.load_document(str(doc["path"])))
        doc["rec"] = rule.verify_scene(scene)
        doc["pair"] = pair_kind(scene.a0, scene.a1)
    heavy_ok = [d for d in heavy_docs if _smooth_sectors(d["pair"], d["rec"])]
    run.check(len(heavy_ok) == sizes.render_heavy_docs,
              f"render suite: {len(heavy_ok)} documents with smooth sectors, "
              f"want {sizes.render_heavy_docs}")
    light_docs = [d for d in check_docs if d["pair"] == "poly_poly"
                  and d not in sharp_docs][:sizes.cli_light_docs] + sharp_docs
    outputs: dict = {}

    def check_op(k, tracer):
        doc = check_docs[k]
        out = outs / f"{doc['name']}.cert.json"
        args = ["check", str(doc["path"]), "--method", check_method(doc["rec"]),
                "--out", str(out)]
        out.unlink(missing_ok=True)
        elapsed, code = _timed(run, tracer, doc["pair"], cli.main, args)
        want = expected_check_code(doc["rec"])
        _keep_record(run, outputs, ("check", doc["name"]), (code, _read_bytes(out)),
                     f"check {doc['name']}", None if code == want else f"exit {code}, want {want}")
        return elapsed

    render_docs = light_docs + heavy_docs

    def render_op(k, tracer):
        doc = render_docs[k]
        out = outs / f"{doc['name']}.svg"
        out.unlink(missing_ok=True)
        elapsed, code = _timed(run, tracer, doc["pair"], cli.main,
                               ["render", str(doc["path"]), "--out", str(out)])
        _keep_record(run, outputs, ("render", doc["name"]), (code, _read_bytes(out)),
                     f"render {doc['name']}", None if code == 0 else f"exit {code}")
        return elapsed

    times = run.phase(check_op, 0.25 * run.seconds, count=len(check_docs))
    render_times = run.phase(render_op, 0.5 * run.seconds, count=len(render_docs))
    run.digests["cli_outputs"] = digest(sorted(
        [kind, name, code, digest(data.decode())]
        for (kind, name), (code, data) in outputs.items()))
    run.digests["cli_records"] = digest([decision(d["rec"]) for d in check_docs])
    if run.trace:
        return
    _op_metrics(run, "checks_per_s", "check", times)
    light_ms = [t * 1000.0 for t in render_times[:len(light_docs)]]
    heavy_ms = [t * 1000.0 for t in render_times[len(light_docs):]]
    run.metric("render_ms_p50", quantile(heavy_ms, 0.5), "ms", len(heavy_ms), "aux_ms_p50")
    run.metric("render_light_ms_p50", quantile(light_ms, 0.5), "ms", len(light_ms))
    _cold_metric(run, [(d["path"], check_method(d["rec"]), expected_check_code(d["rec"]))
                       for d in check_docs[:sizes.cold_docs]])
    run.metric("setup_s", setup_s, "s", sizes.setup_repeats)


WORKLOADS = {
    "fuzz_campaign": fuzz_campaign,
    "polygon_pairs": polygon_pairs,
    "cli_documents": cli_documents,
}
