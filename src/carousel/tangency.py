"""Common supporting lines of a body pair and their cyclic structure.

A line with outward normal angle t supports both bodies on the same
side exactly when the support difference h0(t) - h1(t) vanishes, so the
common supporting lines are the zero set of that difference on the
circle.  Lines are oriented: the same geometric line with opposite
normals counts twice, which keeps the normal-angle map a bijection even
for point and segment bodies.

Two algorithms coexist.  Polygonal pairs merge the two bodies' edge
normal fans once (rotating calipers); between consecutive merged normals
the difference is a single sinusoid (p - q) . u of one active vertex
pair, so its zeros, zero arcs and signs follow from the signs at the
merged normals and the perpendiculars of p - q.  This path is sign-exact
in rational mode and reproduces the same structure in float mode.  Pairs
with a smooth member sample the difference on a dense grid, bisect sign
changes, take each gap's sign from its strict samples, and report
plateaus as arcs of infinitely many common lines.

mixed_sign_gaps then tests every gap's sign, for either kind of pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import List, Optional, Tuple

import numpy as np

from .bodies import (
    edge_normal_angles,
    golden_min,
    grid_dirs,
    is_polygonal,
    origin_radius,
    polygonal_vertices,
    support,
    support_batch,
    support_cs,
    support_grid,
)
from .kernel import (
    EPS,
    EPS_ANGLE,
    TWO_PI,
    Point,
    angle_of,
    cw_gap,
    wrap_angle,
)


@dataclass(frozen=True)
class OrientedSupportLine:
    """A common (or single-body) supporting line with outward normal angle."""

    normal: float
    offset: float
    contact0: Point
    contact1: Optional[Point] = None


@dataclass(frozen=True)
class CslLines:
    """Finitely many common supporting lines, sorted by ascending normal.

    signs[k] is the sign (+1 or -1) of h0 - h1 strictly inside the
    clockwise gap from lines[k] to its clockwise successor, the gap of
    adjacent_pairs(...)[k]: the body with the larger support there hosts
    the other across that gap.
    """

    lines: Tuple[OrientedSupportLine, ...]
    signs: Tuple[int, ...]
    degenerate: bool = False
    notes: Tuple[str, ...] = ()

    @property
    def count(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class CslArcs:
    """The support difference vanishes on whole arcs (infinitely many lines).

    Arcs are (start, end) traversed counterclockwise (ascending angle).
    """

    arcs: Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class CslIdentical:
    """Equal support functions everywhere, i.e. equal bodies."""


def support_difference(a0, a1, theta: float) -> float:
    return support(a0, theta).value - support(a1, theta).value


def make_line(a0, a1, theta: float) -> OrientedSupportLine:
    ev0 = support(a0, theta)
    ev1 = support(a1, theta)
    return OrientedSupportLine(wrap_angle(theta), ev0.value, ev0.contact, ev1.contact)


def make_support_line(body, theta: float) -> OrientedSupportLine:
    ev = support(body, theta)
    return OrientedSupportLine(wrap_angle(theta), ev.value, ev.contact, None)


def slide_turn(body, base: OrientedSupportLine, alpha: float) -> OrientedSupportLine:
    """Supporting line of the body after turning clockwise by alpha.

    Positive alpha turns clockwise; internally that subtracts from the
    normal angle.  alpha = 0 reproduces the base line of the body.
    """
    return make_support_line(body, wrap_angle(base.normal - alpha))


# ---------------------------------------------------------------------------
# merged normal fan for polygonal pairs

def _canon_dir_rational(d: Point) -> Point:
    """Primitive integer representative of the ray through rational d."""
    fx, fy = Fraction(d.x), Fraction(d.y)
    den = math.lcm(fx.denominator, fy.denominator)
    p = fx.numerator * (den // fx.denominator)
    q = fy.numerator * (den // fy.denominator)
    g = math.gcd(abs(p), abs(q))
    return Point(p // g, q // g)


def _half(d: Point) -> int:
    return 0 if (d.y > 0 or (d.y == 0 and d.x > 0)) else 1


def _dir_cmp(a: Point, b: Point) -> int:
    """Exact cyclic comparison of direction rays starting at angle 0, ccw."""
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = a.x * b.y - a.y * b.x
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def _fan(verts):
    """Outward edge normals of a polygonal vertex cycle in ccw order from
    the least direction, each with the vertex active just past it, and the
    vertex active just before the first.  A point has no normals."""
    n = len(verts)
    if n == 1:
        return [], verts[0]
    fan = [(Point(b.y - a.y, -(b.x - a.x)), b) for a, b in zip(verts, verts[1:] + verts[:1])]
    s = next(i for i in range(n) if _half(fan[i][0]) < _half(fan[i - 1][0]))
    return fan[s:] + fan[:s], verts[s]


def _merged_fan(v0, v1):
    """Both bodies' normal fans merged in one pass: [u, p_in, p, q_in, q]
    per distinct direction u, with the active vertices of body 0 (p) and
    body 1 (q) just before and just past u.  On the open arc from one
    direction to the next, the active pair is that direction's (p, q)."""
    fan0, p = _fan(v0)
    fan1, q = _fan(v1)
    kinks = []
    i = j = 0
    while i < len(fan0) or j < len(fan1):
        c = 1 if i == len(fan0) else -1 if j == len(fan1) else _dir_cmp(fan0[i][0], fan1[j][0])
        kink = [fan0[i][0] if c <= 0 else fan1[j][0], p, p, q, q]
        if c <= 0:
            kink[2] = p = fan0[i][1]
            i += 1
        if c >= 0:
            kink[4] = q = fan1[j][1]
            j += 1
        kinks.append(kink)
    return kinks


def _csl_polygonal(a0, a1, eps: float):
    """h0 - h1 from one merge of the two normal fans (rotating calipers).

    On the arc from one merged normal to the next, h0 - h1 = (p - q) . u
    for the active pair, a single sinusoid: zero throughout when p = q,
    else of one sign on the arc (at most half a turn) unless its two ends
    have strictly opposite signs, when it crosses zero once, at the
    perpendicular of p - q that the signs name.  Zeros elsewhere sit at
    merged normals.  Each gap's sign is that of the nearest nonzero normal
    clockwise of its line, or, between two zero normals, the arc's
    sinusoid a quarter turn past the first.  Float mode treats a
    difference within eps * (1 + the larger origin radius) as zero, at the
    merged normals and for the amplitude |p - q| of a whole arc.
    """
    v0, v1 = polygonal_vertices(a0), polygonal_vertices(a1)
    rational = not any(isinstance(c, float) for p in v0 + v1 for c in p)
    tol = 0.0 if rational else eps * (1.0 + max(origin_radius(a0), origin_radius(a1)))
    kinks = _merged_fan(v0, v1)
    if not kinks:  # two points: their two perpendiculars, whole circle as one arc
        d = v0[0] - v1[0]
        if d == (0, 0) if rational else math.hypot(d.x, d.y) <= tol:
            return CslIdentical()
        events = sorted([(Point(d.y, -d.x), -1), (Point(-d.y, d.x), 1)],
                        key=cmp_to_key(lambda a, b: _dir_cmp(a[0], b[0])))
        return _lines(a0, a1, events, rational)

    m = len(kinks)
    sign = []
    for u, p_in, p, q_in, q in kinks:
        dv = max(p_in.x * u.x + p_in.y * u.y, p.x * u.x + p.y * u.y) \
            - max(q_in.x * u.x + q_in.y * u.y, q.x * u.x + q.y * u.y)
        zero = dv == 0 if rational else abs(dv) <= tol * math.hypot(u.x, u.y)
        sign.append(0 if zero else 1 if dv > 0 else -1)
    pairs = [k[2] - k[4] for k in kinks]
    flat = [d == (0, 0) if rational else math.hypot(d.x, d.y) <= tol for d in pairs]
    if not rational:  # an arc under a quarter turn between two zero normals, with
        for k in range(m):  # neither peak +-(p - q) strictly inside, stays in the band
            (u, w), d = (kinks[k][0], kinks[(k + 1) % m][0]), pairs[k]
            flat[k] |= sign[k] == sign[(k + 1) % m] == 0 and u.x * w.x + u.y * w.y > 0 \
                and (u.x * d.y - u.y * d.x) * (d.x * w.y - d.y * w.x) <= 0
    if all(flat):
        return CslIdentical()
    if any(flat):
        return CslArcs(tuple(_assemble_arcs([k[0] for k in kinks], flat, rational)))

    events = []  # (ray, sign of h0 - h1 just clockwise of it), ccw
    for k in range(m):
        if sign[k] == 0:
            cw = sign[k - 1]
            if cw == 0:  # the sinusoid between two zero normals, a quarter turn past the first
                u, d = kinks[k - 1][0], pairs[k - 1]
                cw = 1 if u.x * d.y - u.y * d.x > 0 else -1
            events.append((kinks[k][0], cw))
        elif sign[k] == -sign[(k + 1) % m]:
            d = pairs[k]
            events.append((Point(d.y, -d.x), -1) if sign[k] < 0 else (Point(-d.y, d.x), 1))
    if events and _dir_cmp(events[-1][0], kinks[0][0]) < 0:
        events.insert(0, events.pop())  # the last arc's zero lies past angle 0
    return _lines(a0, a1, events, rational)


def _ray_angle(ray: Point, rational: bool) -> float:
    """Normal angle of a ray, from its primitive integer representative in
    rational mode."""
    return angle_of(_canon_dir_rational(ray) if rational else ray)


def _lines(a0, a1, events, rational):
    """CslLines from the zeros in ccw order, each with its clockwise sign;
    a zero whose two neighbouring gaps share a sign is tangential."""
    signed = []
    notes = []
    for k, (ray, cw) in enumerate(events):
        theta = _ray_angle(ray, rational)
        signed.append((make_line(a0, a1, theta), cw))
        if cw == events[(k + 1) % len(events)][1]:
            notes.append(f"tangential zero at normal {theta:.12f}")
    signed.sort(key=lambda t: t[0].normal)
    return CslLines(tuple(l for l, _ in signed), tuple(g for _, g in signed),
                    bool(notes), tuple(notes))


def _assemble_arcs(rays, flat, rational):
    """Maximal runs of zero arcs of the fan, each from its first normal to
    the normal past its last arc."""
    m = len(rays)
    arcs = []
    for i in range(m):
        if flat[i] and not flat[i - 1]:
            j = i
            while flat[(j + 1) % m]:
                j += 1
            arcs.append((_ray_angle(rays[i], rational), _ray_angle(rays[(j + 1) % m], rational)))
    return arcs


# ---------------------------------------------------------------------------
# sampled machinery for pairs with a smooth member

CSL_GRID = 4096
ROOT_WIDTH = 1e-12
ARC_EDGE_WIDTH = 1e-10


def _bisect_root(fn, a: float, b: float, fa: float, fb: float) -> float:
    while b - a > ROOT_WIDTH:
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa > 0) != (fm > 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _circular_runs(mask) -> list:
    """(start, end) index pairs of maximal cyclic runs of True; end inclusive."""
    n = len(mask)
    if bool(np.all(mask)) or not bool(np.any(mask)):
        return []
    runs = []
    for i in range(n):
        if mask[i] and not mask[i - 1]:
            j = i
            while mask[(j + 1) % n]:
                j += 1
            runs.append((i, j % n))
    return runs


def _run_len(run, n: int) -> int:
    lo, hi = run
    return (hi - lo) % n + 1


def _refine_plateau_edge(dfun, inside_t: float, outside_t: float, thr: float) -> float:
    """Boundary angle of {|delta| <= thr} between an inside and outside angle."""
    for _ in range(64):
        mid = 0.5 * (inside_t + outside_t)
        if abs(dfun(mid)) <= thr:
            inside_t = mid
        else:
            outside_t = mid
        if abs(inside_t - outside_t) <= ARC_EDGE_WIDTH:
            break
    return inside_t


def _csl_sampled(a0, a1, eps: float):
    thetas = grid_dirs(CSL_GRID)[0]
    deltas = support_grid(a0, CSL_GRID) - support_grid(a1, CSL_GRID)
    scale = 1.0 + max(origin_radius(a0), origin_radius(a1))
    thr = eps * scale
    h0, h1 = support_cs(a0), support_cs(a1)

    def dfun(t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        return h0(c, s) - h1(c, s)

    near = np.abs(deltas) <= thr
    if bool(np.all(near)):
        return CslIdentical()

    step = TWO_PI / CSL_GRID
    runs = [r for r in _circular_runs(near) if _run_len(r, CSL_GRID) >= 2]
    if runs:
        arcs = []
        for lo, hi in runs:
            start = _refine_plateau_edge(dfun, thetas[lo], thetas[lo] - step, thr)
            end = _refine_plateau_edge(dfun, thetas[hi], thetas[hi] + step, thr)
            arcs.append((wrap_angle(start), wrap_angle(end)))
        return CslArcs(tuple(arcs))

    # walk samples with a strict sign; a near-zero block between two strict
    # samples is one event: a crossing when the signs differ, a tangential
    # touch when they agree.  Each event keeps the sign of the strict
    # sample on its clockwise side as the sign of its clockwise gap.
    strict = np.flatnonzero(~near)
    gaps = (np.roll(strict, -1) - strict) % CSL_GRID
    positive = deltas[strict] > 0
    flips = positive != np.roll(positive, -1)
    roots = []
    tangential = []
    for k in np.flatnonzero((gaps > 0) & (flips | (gaps > 1))):
        i, j = int(strict[k]), int(strict[(k + 1) % len(strict)])
        ti = thetas[i]
        tj = ti + int(gaps[k]) * step
        sign = 1 if positive[k] else -1
        if flips[k]:
            r = _bisect_root(dfun, ti, tj, float(deltas[i]), float(deltas[j]))
            roots.append((wrap_angle(r), sign))
        else:
            x, v = golden_min(lambda t: abs(dfun(t)), ti, tj)
            if abs(v) <= thr:
                tangential.append((wrap_angle(x), sign))

    merged = []
    merge_tol = max(EPS_ANGLE, 2 * ROOT_WIDTH)
    for r, sign in sorted(roots) + sorted(tangential):
        if any(abs(r - x) <= merge_tol or TWO_PI - abs(r - x) <= merge_tol
               for x, _ in merged):
            continue
        merged.append((r, sign))
    merged.sort()
    lines = tuple(make_line(a0, a1, r) for r, _ in merged)
    notes = tuple(f"tangential zero at normal {t:.12f}" for t, _ in tangential)
    return CslLines(lines, tuple(sign for _, sign in merged), bool(tangential), notes)


# ---------------------------------------------------------------------------
# public entry points

def common_supporting_lines(a0, a1, eps: float = EPS):
    """All oriented common supporting lines of the pair.

    Returns CslLines (finite, cyclically sorted), CslArcs (the difference
    vanishes on whole arcs), or CslIdentical.
    """
    if is_polygonal(a0) and is_polygonal(a1):
        return _csl_polygonal(a0, a1, eps)
    return _csl_sampled(a0, a1, eps)


@dataclass(frozen=True)
class AdjacentPair:
    """A line and its clockwise successor, with the clockwise gap between them."""

    index: int
    line: OrientedSupportLine
    cw_next: OrientedSupportLine
    delta: float


def adjacent_pairs(csl: CslLines) -> List[AdjacentPair]:
    """Pairs (line, clockwise successor); their gaps tile the full circle.

    Lines are sorted by ascending normal, so the clockwise successor of
    lines[i] is lines[i-1]; a single line wraps onto itself with gap 2*pi.
    """
    lines = csl.lines
    s = len(lines)
    if s == 0:
        return []
    if s == 1:
        return [AdjacentPair(0, lines[0], lines[0], TWO_PI)]
    out = []
    for i in range(s):
        nxt = lines[i - 1]
        gap = cw_gap(lines[i].normal, nxt.normal)
        if gap == 0.0:
            gap = TWO_PI
        out.append(AdjacentPair(i, lines[i], nxt, gap))
    return out


GAP_PROBES = 512  # uniform interior samples per gap of a pair with a smooth body


def mixed_sign_gaps(a0, a1, csl: CslLines, eps: float = EPS) -> List[int]:
    """Indices of adjacency gaps where the body csl.signs names dominant
    falls below the other by more than eps * (1 + the larger origin radius).

    The dominant body D of a gap has h_D >= h_W on its normal arc, which is
    also exactly when the other body W lies in D's sector there.  A failing
    gap means a nearby zero pair escaped the search, or a wrong sign, and
    the scene should be treated as degenerate.  The probes, one
    support_batch pass per body, are the polygon edge normals strictly
    inside each gap, where narrow excursions peak, plus GAP_PROBES uniform
    interior normals if a body is smooth, else the gap's middle normal.
    With no lines the whole circle is one gap, index 0, with no sign to
    read: it fails when the difference takes both strict signs over the
    edge normals.  The sampled CSL has already seen the uniform normals,
    and the fan merge is exact for two polygonal bodies, so only a
    polygon's edge normals against a smooth body can find an excursion.
    """
    kinks = np.array(edge_normal_angles(a0) + edge_normal_angles(a1))
    thr = eps * (1.0 + max(origin_radius(a0), origin_radius(a1)))
    pairs = adjacent_pairs(csl)
    if not pairs:
        if not len(kinks):
            return []
        ct, st = np.cos(kinks), np.sin(kinks)
        deltas = support_batch(a0, ct, st) - support_batch(a1, ct, st)
        return [0] if deltas.max() > thr and deltas.min() < -thr else []
    starts = np.array([p.line.normal for p in pairs])
    widths = np.array([p.delta for p in pairs])
    steps = 2 if is_polygonal(a0) and is_polygonal(a1) else GAP_PROBES + 1
    uniform = starts[:, None] - widths[:, None] * np.arange(1, steps) / steps
    offsets = np.mod(starts - kinks[:, None], TWO_PI)  # clockwise from each gap's start
    kink, gap = np.nonzero((offsets > EPS_ANGLE) & (offsets < widths - EPS_ANGLE))
    thetas = np.concatenate((uniform.ravel(), kinks[kink]))
    owner = np.concatenate((np.repeat(np.arange(len(pairs)), steps - 1), gap))
    ct, st = np.cos(thetas), np.sin(thetas)
    deltas = support_batch(a0, ct, st) - support_batch(a1, ct, st)
    below = np.array(csl.signs)[owner] * deltas < -thr
    return np.unique(owner[below]).tolist()
