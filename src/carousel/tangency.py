"""Common supporting lines of a body pair and their cyclic structure.

A line with outward normal angle t supports both bodies on the same
side exactly when the support difference h0(t) - h1(t) vanishes, so the
common supporting lines are the zero set of that difference on the
circle.  Lines are oriented: the same geometric line with opposite
normals counts twice, which keeps the normal-angle map a bijection even
for point and segment bodies.

Two algorithms coexist.  Polygonal pairs enumerate the finitely many
candidate normals (perpendiculars of cross-body vertex differences plus
all edge normals), evaluate the difference there and on a probe inside
every gap between consecutive candidates; between candidates the
difference is a single sine piece, so a zero probe certifies a whole
zero arc and the other probes give each gap's sign.  This path is
sign-exact in rational mode and reproduces the same structure in float
mode.  Pairs with a smooth member sample the difference on a dense grid,
bisect sign changes, take each gap's sign from its strict samples, and
report plateaus as arcs of infinitely many common lines.

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
    support_fn,
    support_grid,
)
from .kernel import (
    EPS,
    EPS_ANGLE,
    TWO_PI,
    Point,
    angle_of,
    cw_gap,
    point_array,
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
# candidate machinery for polygonal pairs

def _canon_dir_rational(d: Point) -> Point:
    """Primitive integer representative of the ray through rational d."""
    fx, fy = Fraction(d.x), Fraction(d.y)
    den = math.lcm(fx.denominator, fy.denominator)
    p = fx.numerator * (den // fx.denominator)
    q = fy.numerator * (den // fy.denominator)
    g = math.gcd(abs(p), abs(q))
    return Point(p // g, q // g)


def _dir_cmp(a: Point, b: Point) -> int:
    """Exact cyclic comparison of direction rays starting at angle 0, ccw."""

    def half(d: Point) -> int:
        return 0 if (d.y > 0 or (d.y == 0 and d.x > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = a.x * b.y - a.y * b.x
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def _gap_probe(u: Point, v: Point) -> Point:
    """A direction strictly inside the ccw arc from ray u to ray v."""
    c = u.x * v.y - u.y * v.x
    s = u.x * v.x + u.y * v.y
    if c > 0:
        return Point(u.x + v.x, u.y + v.y)
    if c < 0:
        return Point(-(u.x + v.x), -(u.y + v.y))
    if s < 0:  # antipodal rays: quarter turn ccw from u
        return Point(-u.y, u.x)
    raise ValueError("no gap between equal directions")


def _raw_candidate_dirs(a0, a1):
    v0 = polygonal_vertices(a0)
    v1 = polygonal_vertices(a1)
    cands = []
    for p in v0:
        for q in v1:
            d = p - q
            if d.x == 0 and d.y == 0:
                continue
            cands.append(Point(d.y, -d.x))
            cands.append(Point(-d.y, d.x))

    def edge_normals(verts):
        n = len(verts)
        if n == 1:
            return
        for i in range(n):
            d = verts[(i + 1) % n] - verts[i]
            yield Point(d.y, -d.x)

    cands.extend(edge_normals(v0))
    cands.extend(edge_normals(v1))
    return cands


_FLOAT_MERGE_TOL = 1e-13  # rays closer than this are one candidate in float


def _candidate_directions(a0, a1):
    """Deduplicated candidate rays in ccw cyclic order, plus rationality."""
    cands = _raw_candidate_dirs(a0, a1)
    if not cands:
        return [], True
    rational = not any(isinstance(c, float) for d in cands for c in d)
    if rational:
        canon = {}
        for d in cands:
            cd = _canon_dir_rational(d)
            canon[(cd.x, cd.y)] = cd
        return sorted(canon.values(), key=cmp_to_key(_dir_cmp)), True
    seen = []
    withang = sorted((angle_of(d), d) for d in cands)
    for ang, d in withang:
        if seen and ang - seen[-1][0] <= _FLOAT_MERGE_TOL:
            continue
        seen.append((ang, d))
    if len(seen) >= 2 and (TWO_PI - seen[-1][0] + seen[0][0]) <= _FLOAT_MERGE_TOL:
        seen.pop()
    return [d for _, d in seen], False


def _zero_pattern(a0, a1, dirs, rational, eps):
    """zero_at per candidate ray, gap_zero and gap_sign per gap probe, from
    h0 - h1 at all of them in one array pass with support_dir's arithmetic."""
    m = len(dirs)
    probes = [_gap_probe(dirs[i], dirs[(i + 1) % m]) for i in range(m)] if m > 1 \
        else [Point(-dirs[0].y, dirs[0].x)]
    d = point_array(dirs + probes)

    def h(body):
        v = point_array(polygonal_vertices(body))
        return np.max(v[:, :1] * d[:, 0] + v[:, 1:] * d[:, 1], axis=0)

    dv = h(a0) - h(a1)
    if rational:
        zero = dv == 0
    else:
        scale = 1.0 + max(origin_radius(a0), origin_radius(a1))
        n = np.array([math.hypot(float(x), float(y)) for x, y in dirs + probes])
        zero = np.abs(dv.astype(float)) <= eps * scale * n
    sign = np.where(zero, 0, np.where(dv > 0, 1, -1))
    return zero[:m].tolist(), zero[m:].tolist(), sign[m:].tolist()


def _csl_polygonal(a0, a1, eps: float):
    dirs, rational = _candidate_directions(a0, a1)
    if not dirs:
        # both bodies are the same single point
        return CslIdentical()
    zero_at, gap_zero, gap_sign = _zero_pattern(a0, a1, dirs, rational, eps)
    if all(zero_at) and all(gap_zero):
        return CslIdentical()

    if any(gap_zero):
        return CslArcs(tuple(_assemble_arcs(dirs, zero_at, gap_zero)))

    # no probe is zero, so each line's clockwise gap has the strict sign of
    # the probe just clockwise of it
    signed = []
    notes = []
    for i in range(len(dirs)):
        if not zero_at[i]:
            continue
        theta = angle_of(dirs[i])
        signed.append((make_line(a0, a1, theta), gap_sign[i - 1]))
        if gap_sign[i - 1] == gap_sign[i]:
            notes.append(f"tangential zero at normal {theta:.12f}")
    signed.sort(key=lambda t: t[0].normal)
    return CslLines(tuple(l for l, _ in signed), tuple(g for _, g in signed),
                    bool(notes), tuple(notes))


def _assemble_arcs(dirs, zero_at, gap_zero):
    """Maximal runs of zero gaps, joined across zero candidates."""
    m = len(dirs)
    arcs = []
    for i in range(m):
        prev_joined = gap_zero[i - 1] and zero_at[i]
        if gap_zero[i] and not prev_joined:
            j = i
            while gap_zero[(j + 1) % m] and zero_at[(j + 1) % m] and (j + 1) % m != i:
                j += 1
            arcs.append((angle_of(dirs[i]), angle_of(dirs[(j + 1) % m])))
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
    h0, h1 = support_fn(a0), support_fn(a1)

    def dfun(t: float) -> float:
        return h0(t) - h1(t)

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
    """
    pairs = adjacent_pairs(csl)
    if not pairs:
        return []
    starts = np.array([p.line.normal for p in pairs])
    widths = np.array([p.delta for p in pairs])
    steps = 2 if is_polygonal(a0) and is_polygonal(a1) else GAP_PROBES + 1
    uniform = starts[:, None] - widths[:, None] * np.arange(1, steps) / steps
    kinks = np.array(edge_normal_angles(a0) + edge_normal_angles(a1))
    offsets = np.mod(starts - kinks[:, None], TWO_PI)  # clockwise from each gap's start
    kink, gap = np.nonzero((offsets > EPS_ANGLE) & (offsets < widths - EPS_ANGLE))
    thetas = np.concatenate((uniform.ravel(), kinks[kink]))
    owner = np.concatenate((np.repeat(np.arange(len(pairs)), steps - 1), gap))
    ct, st = np.cos(thetas), np.sin(thetas)
    deltas = support_batch(a0, ct, st) - support_batch(a1, ct, st)
    thr = eps * (1.0 + max(origin_radius(a0), origin_radius(a1)))
    below = np.array(csl.signs)[owner] * deltas < -thr
    return np.unique(owner[below]).tolist()
