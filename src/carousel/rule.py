"""The weak carousel rule and its two deciders.

A scene is a pair of convex bodies inside a convex container polygon.
The rule holds when one body fits in the convex hull of the other body
together with all container vertices but one.  The brute-force decider
scans all (body, dropped-vertex) pairs with a containment test.  The
constructive decider follows the structure of the underlying existence
proof: between adjacent common supporting lines one body's support
dominates, and the exits of that body's turning supporting lines sweep
the container boundary.  With fewer common lines than container vertices
some gap sweeps two vertices that lie outside the dominant body (the gap
is crowded), and dropping the last of them leaves the other body inside
the hull; when no gap is crowded, a container vertex lies in a body, and
dropping it witnesses the rule.  Every constructive witness re-validates
under the brute-force containment test before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from .bodies import (
    ContainmentResult,
    body_in_polygon,
    contained_in_hull,
    drop_one_containment,
    is_polygonal,
    polygonal_vertices,
)
from .errors import (
    CommonLineCountTooLarge,
    ConstructiveSearchFailed,
    ModeMixError,
    SceneInvariantError,
)
from .kernel import EPS, ConvexPolygon
from .sectors import NormalArc, sweep, vertex_hit_events
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
    dominant: int = -1  # the body whose hull with the kept vertices hosts the other
    case: int = -1      # 0 crowded gap (or s = 0), 1 container vertex in a body
    witness: Optional[Tuple[int, int]] = None
    notes: Tuple[str, ...] = ()


FRAGILE_FACTOR = 1e3
REVALIDATION_SLACK = 10.0
EVENT_ARC_TOL = 1e-7  # angular slack when assigning vertex events to a gap


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
    """Containment tests over (i, j) in ascending order; the first
    containment wins.

    Degenerate tangency structure does not stop the scan, it only
    annotates the certificate.
    """
    if csl is None:
        csl = scene_csl(scene)
    reason = _degeneracy_of(csl)
    eps = scene.tol.eps
    fragile_at = FRAGILE_FACTOR * eps
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

@dataclass(frozen=True)
class Gap:
    """A gap between adjacent common supporting lines: its dominant body
    (the sign from the CSL pass) and the container vertices of that body's
    left events in the gap, clockwise."""

    pair: AdjacentPair
    dominant: int
    lefts: Tuple[int, ...]


@dataclass(frozen=True)
class GapTable:
    """Every gap of a scene, and per body the container vertices inside it."""

    gaps: Tuple[Gap, ...]
    inside: Tuple[FrozenSet[int], FrozenSet[int]]


def gap_table(scene: Scene, csl: CslLines) -> GapTable:
    """The gaps of a scene with s >= 1 common lines, in CSL order, from one
    event pass per body.  A gap takes the left events of its dominant body
    (sign from the CSL pass) that fall in its closed normal arc, clockwise."""
    passes = [vertex_hit_events(body, scene.container, scene.tol.eps)
              for body in (scene.a0, scene.a1)]
    gaps = []
    for pair in adjacent_pairs(csl):
        d = 0 if csl.signs[pair.index] > 0 else 1
        lefts = passes[d][0]
        arc = NormalArc(pair.line.normal, pair.delta)
        hits = sorted((k for k, t in lefts.items() if arc.contains(t, EVENT_ARC_TOL)),
                      key=lambda k: arc.clockwise_offset(lefts[k]))
        gaps.append(Gap(pair, d, tuple(hits)))
    return GapTable(tuple(gaps), tuple(frozenset(inside) for _, inside in passes))


def check_carousel_constructive(scene: Scene, csl=None,
                                table: Optional[GapTable] = None,
                                brute: Optional[Certificate] = None):
    """Witness via the sweep pigeonhole; returns (certificate, trace).

    Requires s < n common supporting lines.  A gap table the caller
    already holds for the scene is reused, else one is built, and so is a
    _reusable brute-force proof at the witness.  With s = 0
    one support function strictly dominates, so the dominated body sits
    inside the other and any dropped vertex witnesses the rule.  Otherwise:

    Case 0, a crowded gap.  In a gap the dominant body D (sign from the CSL
    pass) has h_D >= h_W on the closed normal arc, W the other body.  A
    left event of a container vertex is the normal of D's supporting line
    whose exit, travelled with D on the left, is that vertex.  The exits
    sweep the boundary clockwise (the sweep lemma; sweep_partition_ok
    checks that each gap's sweep passes the vertices of its left events),
    so a gap's left events sit at consecutive vertices.  In a crowded gap
    let g_j be the last, and g_{j+1}, its counterclockwise neighbour, the
    one before it, at normals L_j and L_{j+1}; let H = conv(D u G \\ {g_j}).
    Then W lies in H:
      * h_H = h_G >= h_W at every normal where a vertex other than g_j
        attains h_G, or where D's line keeps g_j.  What is left is the part
        of the normal cone N_j of g_j on the arc C where D's line cuts g_j
        off; C starts at L_j and runs counterclockwise for less than pi.
      * On C up to L_{j+1} the normals lie in the gap: h_W <= h_D <= h_H.
      * Past L_{j+1}: the boundary from a left exit clockwise to the right
        exit lies beyond the line, so g_j.u >= g_{j+1}.u at u = u(L_{j+1});
        that is, L_{j+1} lies on the half circle that ends counterclockwise
        at the normal n_j of the edge g_j g_{j+1}, as does N_j.  A normal of
        C n N_j beyond L_{j+1} is less than pi further, so it lies on the
        arc from L_{j+1} counterclockwise to n_j, and its u is a
        non-negative combination of u(L_{j+1}) and n_j.  W lies in
        x.u(L_{j+1}) <= h_D(L_{j+1}) = g_{j+1}.u(L_{j+1}) (dominance) and in
        x.n_j <= g_{j+1}.n_j (W in G), so h_W(u) <= g_{j+1}.u <= h_H(u).
    The first crowded gap in CSL order drops g_j, and W is the witness.

    Case 1, a vertex in a body.  The s sweeps pass all n > s vertices, and
    a vertex outside the pair's hull has its left event in the gap whose
    sweep passes it.  If no gap is crowded, some vertex has none, so it
    lies in the pair's hull, and, being an extreme point of G, in a body
    A_d: the table's event passes list it as inside A_d.  The first such
    g_k drops (in A_0 before A_1), and conv(A_d u G \\ {g_k}) = G holds
    the other body.

    Ties and tolerances aside the two cases always find a witness.  A
    scene where they find none, or whose witness fails its re-validation,
    raises ConstructiveSearchFailed.
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
    if table is None and s > 0:
        table = gap_table(scene, csl)
    if s == 0:
        dominant_idx = 0 if support_difference(scene.a0, scene.a1, 0.0) > 0 else 1
        j = 0
        trace = ConstructiveTrace(dominant=dominant_idx, case=0,
                                  witness=(1 - dominant_idx, j),
                                  notes=("no common supporting line: dominated body "
                                         "lies inside the dominant one",))
    elif (gap := next((g for g in table.gaps if len(g.lefts) >= 2), None)) is not None:
        pair, dominant_idx, j = gap.pair, gap.dominant, gap.lefts[-1]
        trace = ConstructiveTrace(pair.index, pair.line.normal, pair.cw_next.normal,
                                  pair.delta, dominant_idx, 0, (1 - dominant_idx, j))
    elif (j := min(table.inside[0] | table.inside[1], default=None)) is not None:
        dominant_idx = 0 if j in table.inside[0] else 1
        trace = ConstructiveTrace(dominant=dominant_idx, case=1,
                                  witness=(1 - dominant_idx, j),
                                  notes=(f"no crowded gap: container vertex {j} "
                                         f"lies in body {dominant_idx}",))
    else:
        raise ConstructiveSearchFailed(
            f"no crowded gap and no container vertex in a body at s = {s} < n = {scene.n}")
    eps = scene.tol.eps
    if brute is not None and (brute.i, brute.j) == (1 - dominant_idx, j) \
            and _reusable(scene, dominant_idx, brute.proof):
        proof = brute.proof
    else:
        proof = contained_in_hull(scene.body(1 - dominant_idx), scene.body(dominant_idx),
                                  scene.vertices_except(j), eps=eps * REVALIDATION_SLACK)
    if not proof.contained and s > 0:
        raise ConstructiveSearchFailed(
            f"case {trace.case} witness {trace.witness} fails re-validation "
            f"(margin {proof.margin})")
    # at s = 0 no gap argument is made: a failed containment marks the scene
    verdict = "holds" if proof.contained else "degenerate"
    return (Certificate(verdict, 1 - dominant_idx, j, proof, None, reason,
                        proof.near_zero(FRAGILE_FACTOR * eps)), trace)


def _reusable(scene: Scene, outer: int, proof: ContainmentResult) -> bool:
    """Whether a proof at eps that the other body lies in conv(A_outer u
    G \\ {g_j}) is that test's result at a larger eps, lo and hi included: a
    polygonal hull of a polygonal body, or of three vertices or more (n > 3),
    decides by tolerance only, and grid bounds that settle a proof (lo < hi)
    settle it the same.  An eager grid proof is not reused."""
    return proof.lo < proof.hi or is_polygonal(scene.body(outer)) and (
        is_polygonal(scene.body(1 - outer)) or scene.n > 3)


@dataclass(frozen=True)
class CrossReport:
    brute: Certificate
    constructive: Certificate
    trace: ConstructiveTrace
    agree: bool


def cross_validate(scene: Scene, csl=None, brute: Optional[Certificate] = None,
                   table: Optional[GapTable] = None) -> CrossReport:
    """Run both deciders; they agree when brute force finds the rule holds.

    A brute-force certificate or gap table the caller already holds for
    the scene is reused.  The witness re-validation is the constructive
    proof itself: every constructive witness is a contained_in_hull call
    of body i in the other body plus all vertices but j, at
    eps * REVALIDATION_SLACK (or brute force's equal one), and the decider
    raises when it fails.
    """
    if csl is None:
        csl = scene_csl(scene)
    if brute is None:
        brute = check_carousel_bruteforce(scene, csl)
    cons, trace = check_carousel_constructive(scene, csl, table, brute)
    # degenerate tangency structure: agreement is vacuous
    return CrossReport(brute, cons, trace,
                       cons.verdict == "degenerate" or brute.verdict == "holds")


# ---------------------------------------------------------------------------
# per-scene verification bundle (campaign workhorse)

def dichotomy_holds(scene: Scene, csl: CslLines) -> bool:
    """In each gap the dominated body sits in the dominant body's sector,
    that is h_D >= h_W on the gap's arc: the gap-sign test.  No package
    code calls it; perfbench's tracer probes it by name."""
    return not mixed_sign_gaps(scene.a0, scene.a1, csl, scene.tol.eps)


def sweep_partition_ok(scene: Scene, table: GapTable) -> bool:
    """Each gap's left sweep passes the vertices of its left events and
    otherwise only vertices in a body; the sweeps pass every vertex."""
    exits = {}  # each line's exit ends one sweep and starts the next
    inside = table.inside[0] | table.inside[1]
    covered = set()
    for gap in table.gaps:
        swept = set(sweep(gap.pair.line, gap.pair.cw_next, scene.container,
                          scene.tol.eps, exits).covered)
        if swept != set(gap.lefts) | (swept & inside):
            return False
        covered |= swept
    return covered == set(range(scene.n))


def verify_scene(scene: Scene) -> dict:
    """All per-scene checks used by the fuzz campaign, as a flat record.

    A gap failing the one gap-sign test marks the scene degenerate, so
    dichotomy_ok, read from the same result, is true wherever it is set."""
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
        mixed = []
        if isinstance(csl, CslLines):
            rec.update(csl_kind="lines", s=csl.count)
            if reason is None:
                mixed = mixed_sign_gaps(scene.a0, scene.a1, csl, eps=scene.tol.eps)
            if mixed:
                # a zero pair escaped the search, or a sign is wrong
                reason = "mixed-sign-gap"
        else:
            rec["csl_kind"] = "identical" if isinstance(csl, CslIdentical) else "arcs"
        rec.update(degenerate=reason is not None, degenerate_reason=reason)

        brute = check_carousel_bruteforce(scene, csl)
        rec.update(verdict=brute.verdict, i=brute.i, j=brute.j, fragile=brute.fragile)

        if rec["csl_kind"] == "lines" and not rec["degenerate"]:
            s, n = csl.count, scene.n
            if 1 <= s < n:
                table = gap_table(scene, csl)
                report = cross_validate(scene, csl, brute, table)
                rec["constructive_ok"] = report.constructive.verdict == "holds"
                rec["constructive_case"] = report.trace.case
                rec["cross_agree"] = report.agree
                rec["dichotomy_ok"] = not mixed
                rec["sweeps_ok"] = sweep_partition_ok(scene, table)
            elif s == 0:
                cert, trace = check_carousel_constructive(scene, csl, brute=brute)
                rec["constructive_ok"] = cert.verdict == "holds"
                rec["constructive_case"] = trace.case
                rec["cross_agree"] = cert.verdict == brute.verdict
    except Exception as exc:  # campaign aggregates failures per scene
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec
