"""The weak carousel rule and its two deciders.

A scene is a pair of convex bodies inside a convex container polygon.
The rule holds when one body fits in the convex hull of the other body
together with all container vertices but one.  The brute-force decider
scans all (body, dropped-vertex) pairs with a containment test.  The
constructive decider follows the structure of the underlying existence
proof: between adjacent common supporting lines one body's support
dominates, so that body hosts the other.  The container vertices its
turning supporting lines hit (vertex events) are read off the dominant
body; pairs whose left sweep passes at least two vertices go first.  The
pair lines turn until their exits land on the vertices of the gap's first
left and last right events, and the witness is read off the vertices
between them; a gap without a right event drops a vertex cut off by the
pair's first line instead.  Every constructive witness re-validates
under the brute-force containment test before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .bodies import (
    ContainmentResult,
    HullBody,
    PolygonBody,
    body_in_polygon,
    contained_in_hull,
    drop_one_containment,
    is_polygonal,
    polygonal_vertices,
)
from .errors import (
    CommonLineCountTooLarge,
    ConstructiveSearchFailed,
    CrossValidationDisagreement,
    ModeMixError,
    SceneInvariantError,
)
from .kernel import (
    EPS,
    EPS_ANGLE,
    ConvexPolygon,
    convex_hull,
    cw_gap,
    wrap_angle,
)
from .sectors import (
    NormalArc,
    sector_from_arc,
    sweep,
    vertex_hit_events,
    vertices_between,
)
from .tangency import (
    AdjacentPair,
    CslArcs,
    CslIdentical,
    CslLines,
    adjacent_pairs,
    common_supporting_lines,
    mixed_sign_gaps,
    support_difference,
)


@dataclass(frozen=True)
class Tolerances:
    eps: float = EPS
    eps_angle: float = EPS_ANGLE


@dataclass(frozen=True)
class Scene:
    a0: object
    a1: object
    container: ConvexPolygon
    mode: str = "float"
    tol: Tolerances = field(default_factory=Tolerances)

    @property
    def n(self) -> int:
        return self.container.n

    def body(self, i: int):
        return self.a0 if i == 0 else self.a1

    def vertices_except(self, j: int):
        return [v for k, v in enumerate(self.container.vertices) if k != j]

    def validate(self):
        if self.mode not in ("float", "exact"):
            raise SceneInvariantError(f"unknown mode {self.mode!r}")
        if self.n < 3:
            raise SceneInvariantError("container needs at least 3 vertices")
        if self.mode == "exact":
            for body in (self.a0, self.a1):
                if not is_polygonal(body):
                    raise ModeMixError("exact mode requires polygonal bodies")
            coords = [c for b in (self.a0, self.a1) for p in polygonal_vertices(b) for c in p]
            coords += [c for p in self.container.vertices for c in p]
            if any(isinstance(c, float) for c in coords):
                raise ModeMixError("exact mode requires rational coordinates")
        eps = 0.0 if self.mode == "exact" else self.tol.eps
        for name, body in (("a0", self.a0), ("a1", self.a1)):
            if not body_in_polygon(body, self.container, eps):
                raise SceneInvariantError(f"{name} is not inside the container")
        return self


@dataclass(frozen=True)
class Certificate:
    verdict: str  # holds | fails | degenerate
    i: Optional[int] = None
    j: Optional[int] = None
    proof: Optional[ContainmentResult] = None
    refutations: Optional[Tuple] = None  # ((i, j), ContainmentResult) pairs
    degenerate_reason: Optional[str] = None
    fragile: bool = False

    @property
    def min_margin(self) -> float:
        """The proof's margin, else the smallest refutation margin that is a
        number, else NaN."""
        if self.proof is not None:
            return self.proof.margin
        return min((r.margin for _, r in self.refutations or ()
                    if not math.isnan(r.margin)), default=math.nan)


@dataclass(frozen=True)
class ConstructiveTrace:
    pair_index: int = -1
    from_normal: float = math.nan
    to_normal: float = math.nan
    delta: float = math.nan
    dominant: int = -1  # index of the body whose sector hosts the other
    case: int = -1      # 0 sweep path, 1 half-plane cut, -2 containment-scan fallback
    alpha: float = math.nan
    beta: float = math.nan
    between: Tuple[int, ...] = ()
    witness: Optional[Tuple[int, int]] = None
    notes: Tuple[str, ...] = ()


FRAGILE_FACTOR = 1e3
REVALIDATION_SLACK = 10.0
EVENT_ARC_TOL = 1e-7  # angular slack when assigning vertex events to a gap
SWEEP_REL_TOL = 1e-6  # relative slack of the sweep partition checks


def hull_pair_body(a0, a1):
    """Convex hull of the two bodies as a body."""
    if is_polygonal(a0) and is_polygonal(a1):
        return PolygonBody(convex_hull(polygonal_vertices(a0) + polygonal_vertices(a1)))
    return HullBody((a0, a1))


def scene_csl(scene: Scene):
    return common_supporting_lines(scene.a0, scene.a1, scene.tol.eps)


def _degeneracy_of(csl) -> Optional[str]:
    if isinstance(csl, CslIdentical):
        return "identical-bodies"
    if isinstance(csl, CslArcs):
        return "infinite-arcs"
    if isinstance(csl, CslLines) and csl.degenerate:
        return "tangential-zero"
    return None


def check_carousel_bruteforce(scene: Scene, csl=None) -> Certificate:
    """Scan (i, j) in ascending order; first containment wins.

    Degenerate tangency structure does not stop the scan, it only
    annotates the certificate.
    """
    if csl is None:
        csl = scene_csl(scene)
    return _containment_scan(scene, scene.tol.eps, _degeneracy_of(csl))


def _containment_scan(scene: Scene, eps: float, reason: Optional[str]) -> Certificate:
    """Containment tests at eps over (i, j) in ascending order; the first
    containment wins.  fragile is judged against scene.tol.eps."""
    fragile_at = FRAGILE_FACTOR * scene.tol.eps
    refutations = []
    for i in (0, 1):
        test = drop_one_containment(scene.body(i), scene.body(1 - i),
                                    scene.container.vertices, eps)
        for j in range(scene.n):
            res = test(j)
            if res.contained:
                return Certificate("holds", i, j, res, None, reason,
                                   res.near_zero(fragile_at))
            refutations.append(((i, j), res))
    fragile = any(r.near_zero(fragile_at) for _, r in refutations)
    return Certificate("fails", None, None, None, tuple(refutations), reason, fragile)


# ---------------------------------------------------------------------------
# constructive decider

def _events_in_arc(events, arc: NormalArc):
    out = []
    for e in events:
        if arc.contains(e.normal, EVENT_ARC_TOL):
            out.append((arc.clockwise_offset(e.normal), e))
    out.sort(key=lambda t: t[0])
    return out


def _search_pair(scene: Scene, pair: AdjacentPair, sign: int, in_arc, notes):
    """Try to extract a witness from one adjacent pair; None when it fails.

    sign is that of h0 - h1 across the pair's gap, in_arc the dominant
    body's vertex events in the gap by clockwise offset.  The first left
    and last right events set the turn angles and end the vertex chain
    (case 0); a gap with left events but no right event takes the
    half-plane cut (case 1).
    """
    # the body whose support dominates across the gap hosts the other
    dominant_idx = 0 if sign > 0 else 1
    witness_idx = 1 - dominant_idx
    dom = scene.body(dominant_idx)
    left = [(off, e) for off, e in in_arc if e.side == "L"]
    right = [(off, e) for off, e in in_arc if e.side == "R"]
    if not left:
        notes.append(f"pair {pair.index}: no left vertex event")
        return None
    if not right:
        return _half_plane_cut(scene, pair, dominant_idx, notes)
    (first_off, first), (last_off, last) = left[0], right[-1]
    # offsets are sorted, so no left event precedes any right one
    if first_off > last_off + scene.tol.eps_angle:
        notes.append(f"pair {pair.index}: no ordered event pair")
        return None
    alpha = min(first_off, pair.delta)
    beta = max(0.0, pair.delta - last_off)
    start = wrap_angle(pair.line.normal - alpha)
    end = wrap_angle(pair.cw_next.normal + beta)
    between = vertices_between(first.vertex, last.vertex,
                               NormalArc(start, cw_gap(start, end)), dom,
                               scene.container, scene.tol.eps)
    if len(between) >= scene.n:
        notes.append(f"pair {pair.index}: expansion spans every vertex")
        return None
    j = min(set(range(scene.n)) - set(between))
    proof = contained_in_hull(scene.body(witness_idx), dom,
                              scene.vertices_except(j),
                              eps=scene.tol.eps * REVALIDATION_SLACK)
    if not proof.contained:
        notes.append(f"pair {pair.index}: witness ({witness_idx},{j}) failed validation")
        return None
    trace = ConstructiveTrace(pair.index, pair.line.normal, pair.cw_next.normal,
                              pair.delta, dominant_idx, 0, alpha, beta,
                              tuple(between), (witness_idx, j), tuple(notes))
    return witness_idx, j, proof, trace


def _half_plane_cut(scene: Scene, pair: AdjacentPair, dominant_idx: int, notes):
    """Case 1, the right sweep passes no container vertex: both bodies lie
    on the body side of the pair's first line, and the first interior
    vertex of its cut-off chain whose drop validates is the witness."""
    chain = _cut_vertices(scene, pair)
    notes.append(f"pair {pair.index}: case 1, cut chain {chain}")
    for j in sorted(chain[1:-1]):
        for i in (0, 1):
            proof = contained_in_hull(scene.body(i), scene.body(1 - i),
                                      scene.vertices_except(j),
                                      eps=scene.tol.eps * REVALIDATION_SLACK)
            if proof.contained:
                trace = ConstructiveTrace(pair.index, pair.line.normal,
                                          pair.cw_next.normal, pair.delta,
                                          dominant_idx, 1, math.nan, math.nan,
                                          (), (i, j), tuple(notes))
                return i, j, proof, trace
    notes.append(f"pair {pair.index}: case 1 found no validating vertex")
    return None


def _cut_vertices(scene: Scene, pair: AdjacentPair):
    """Container vertices strictly beyond the pair's first line, clockwise."""
    g = scene.container
    line = pair.line
    n = math.cos(line.normal), math.sin(line.normal)
    scale = 1.0 + g.max_coord()
    beyond = set(i for i, v in enumerate(g.vertices)
                 if float(v.x) * n[0] + float(v.y) * n[1] - line.offset
                 > scene.tol.eps * scale)
    if not beyond:
        return []
    # the line's contact lies in the container, so not every vertex is cut;
    # the cut ones form one contiguous run; order it clockwise, i.e.
    # starting from the run member whose ccw successor is not cut
    start = next(i for i in beyond if (i + 1) % g.n not in beyond)
    out = [start]
    i = (start - 1) % g.n
    while i in beyond:
        out.append(i)
        i = (i - 1) % g.n
    return out


def check_carousel_constructive(scene: Scene, csl=None):
    """Witness via the sweep pigeonhole; returns (certificate, trace).

    Requires fewer common supporting lines than container vertices.  A
    scene with no common supporting line at all short-circuits: one
    support function strictly dominates, so the dominated body sits
    inside the other and any dropped vertex witnesses the rule.  Inside a
    gap the pair hull's support is the dominant body's, so each gap reads
    its vertex events off that body; a polygonal pair reads them off its
    hull polygon, which is one pass for both bodies.
    """
    if csl is None:
        csl = scene_csl(scene)
    reason = _degeneracy_of(csl)
    if isinstance(csl, (CslIdentical, CslArcs)):
        return (Certificate("degenerate", degenerate_reason=reason),
                ConstructiveTrace(notes=(f"degenerate tangency: {reason}",)))
    s = csl.count
    if s >= scene.n:
        raise CommonLineCountTooLarge(f"s = {s} >= n = {scene.n}")
    eps = scene.tol.eps

    if s == 0:
        d = support_difference(scene.a0, scene.a1, 0.0)
        witness_idx = 1 if d > 0 else 0
        dominant_idx = 1 - witness_idx
        j = 0
        proof = contained_in_hull(scene.body(witness_idx), scene.body(dominant_idx),
                                  scene.vertices_except(j), eps=eps * REVALIDATION_SLACK)
        trace = ConstructiveTrace(-1, math.nan, math.nan, math.nan, dominant_idx,
                                  0, 0.0, 0.0, (), (witness_idx, j),
                                  ("no common supporting line: dominated body "
                                   "lies inside the dominant one",))
        verdict = "holds" if proof.contained else "degenerate"
        return (Certificate(verdict, witness_idx, j, proof, None, reason,
                            proof.near_zero(FRAGILE_FACTOR * eps)), trace)

    if is_polygonal(scene.a0) and is_polygonal(scene.a1):
        events, degenerate = vertex_hit_events(hull_pair_body(scene.a0, scene.a1),
                                               scene.container, eps)
        events_of = (events, events)
    else:
        (ev0, deg0), (ev1, deg1) = (vertex_hit_events(b, scene.container, eps)
                                    for b in (scene.a0, scene.a1))
        events_of, degenerate = (ev0, ev1), sorted(set(deg0) | set(deg1))
    notes = []
    if degenerate:
        notes.append(f"container vertices touching the hull: {degenerate}")

    # pigeonhole: prefer pairs whose left sweep passes at least two vertices
    order = []
    for pair in adjacent_pairs(csl):
        sign = csl.signs[pair.index]
        in_arc = _events_in_arc(events_of[0 if sign > 0 else 1],
                                NormalArc(pair.line.normal, pair.delta))
        lefts = {e.vertex for off, e in in_arc if e.side == "L"}
        order.append((len(lefts) < 2, pair.index, pair, sign, in_arc))
    order.sort(key=lambda t: (t[0], t[1]))

    for *_, pair, sign, in_arc in order:
        got = _search_pair(scene, pair, sign, in_arc, notes)
        if got is not None:
            witness_idx, j, proof, trace = got
            cert = Certificate("holds", witness_idx, j, proof, None, reason,
                               proof.near_zero(FRAGILE_FACTOR * eps))
            return cert, trace
    # rare configuration (roughly 1e-4 of random scenes): every adjacent
    # pair's right vertex hits precede all its left hits, so no pair admits
    # turn angles within its gap budget.  The theorem still applies; fall
    # back to the containment scan and mark the trace accordingly.
    notes.append("sweep toolkit exhausted: no pair admits an ordered "
                 "vertex-hit combination; witness via containment scan")
    cert = _containment_scan(scene, eps * REVALIDATION_SLACK, reason)
    if cert.verdict == "holds":
        trace = ConstructiveTrace(-1, math.nan, math.nan, math.nan,
                                  1 - cert.i, -2, math.nan, math.nan, (),
                                  (cert.i, cert.j), tuple(notes))
        return cert, trace
    raise ConstructiveSearchFailed(
        f"no witness at all despite s < n; notes: {notes}")


@dataclass(frozen=True)
class CrossReport:
    brute: Certificate
    constructive: Certificate
    trace: ConstructiveTrace
    agree: bool


def cross_validate(scene: Scene, csl=None,
                   brute: Optional[Certificate] = None) -> CrossReport:
    """Run both deciders; the constructive witness must pass brute force.

    A brute-force certificate the caller already holds for the scene is
    reused.  The witness re-validation is the constructive proof itself:
    every constructive witness is a contained_in_hull call of body i in
    the other body plus all vertices but j, at eps * REVALIDATION_SLACK.
    """
    if csl is None:
        csl = scene_csl(scene)
    if brute is None:
        brute = check_carousel_bruteforce(scene, csl)
    cons, trace = check_carousel_constructive(scene, csl)
    if cons.verdict == "degenerate" or brute.verdict == "degenerate":
        # degenerate tangency structure: agreement is vacuous
        return CrossReport(brute, cons, trace, True)
    if not cons.proof.contained:
        raise CrossValidationDisagreement(
            f"constructive witness {(cons.i, cons.j)} fails containment "
            f"(margin {cons.proof.margin})")
    return CrossReport(brute, cons, trace, brute.verdict == "holds")


# ---------------------------------------------------------------------------
# per-scene verification bundle (campaign workhorse)

def dichotomy_holds(scene: Scene, csl: CslLines) -> bool:
    """For each adjacent pair, one body sits in the sector of the other."""
    eps = scene.tol.eps * 10.0
    for pair in adjacent_pairs(csl):
        arc = NormalArc(pair.line.normal, pair.delta)
        in_1 = sector_from_arc(scene.a1, arc).contains_body(scene.a0, eps)
        in_0 = sector_from_arc(scene.a0, arc).contains_body(scene.a1, eps)
        if not (in_1 or in_0):
            return False
    return True


def sweep_partition_ok(scene: Scene, csl: CslLines) -> bool:
    """Left sweeps tile the boundary and cover all vertices."""
    hull = hull_pair_body(scene.a0, scene.a1)
    g = scene.container
    perim = g.as_float().perimeter
    exits = {}  # each line's exit ends one sweep and starts the next
    sweeps = [sweep(p.line, p.cw_next, hull, g, scene.tol.eps, exits)
              for p in adjacent_pairs(csl)]
    total = sum(s.cw_length for s in sweeps)
    if abs(total - perim) > SWEEP_REL_TOL * perim:
        return False
    covered = set()
    for s in sweeps:
        covered.update(s.covered)
    return covered == set(range(g.n))


def verify_scene(scene: Scene) -> dict:
    """All per-scene checks used by the fuzz campaign, as a flat record."""
    rec = {
        "s": None, "csl_kind": None, "degenerate": False,
        "degenerate_reason": None, "verdict": None, "i": None, "j": None,
        "fragile": False, "constructive_ok": None,
        "constructive_case": None, "cross_agree": None,
        "dichotomy_ok": None, "sweeps_ok": None, "error": None,
    }
    try:
        csl = scene_csl(scene)
        reason = _degeneracy_of(csl)
        if isinstance(csl, CslLines):
            rec.update(csl_kind="lines", s=csl.count)
            if reason is None and mixed_sign_gaps(scene.a0, scene.a1, csl,
                                                  eps=scene.tol.eps):
                # a sign excursion inside a gap means a near-tangential zero
                # pair escaped the search; treat the scene as degenerate
                reason = "mixed-sign-gap"
        else:
            rec["csl_kind"] = "identical" if isinstance(csl, CslIdentical) else "arcs"
        rec.update(degenerate=reason is not None, degenerate_reason=reason)

        brute = check_carousel_bruteforce(scene, csl)
        rec.update(verdict=brute.verdict, i=brute.i, j=brute.j, fragile=brute.fragile)

        if rec["csl_kind"] == "lines" and not rec["degenerate"]:
            s, n = csl.count, scene.n
            if 1 <= s < n:
                report = cross_validate(scene, csl, brute)
                rec["constructive_ok"] = report.constructive.verdict == "holds"
                rec["constructive_case"] = report.trace.case
                rec["cross_agree"] = report.agree
                rec["dichotomy_ok"] = dichotomy_holds(scene, csl)
                rec["sweeps_ok"] = sweep_partition_ok(scene, csl)
            elif s == 0:
                cert, trace = check_carousel_constructive(scene, csl)
                rec["constructive_ok"] = cert.verdict == "holds"
                rec["constructive_case"] = trace.case
                rec["cross_agree"] = cert.verdict == brute.verdict
    except Exception as exc:  # campaign aggregates failures per scene
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec
