"""Planar substrate: scalars, angles, half-planes, convex polygons.

Conventions
-----------
Angles are radians in [0, 2*pi), measured counterclockwise from the +x
axis; a normal angle t stands for the unit vector (cos t, sin t).
Polygons are stored counterclockwise with strictly convex corners.
Degenerate polygons with one or two vertices (points, segments) are
legal values; operations that need area reject them explicitly.

Two arithmetic modes coexist.  Exact mode keeps every coordinate a
`fractions.Fraction` and compares with zero tolerance; float mode uses
binary64 and compares through an epsilon scaled by the coordinate
magnitude.  A computation must not mix the two; scenes carry the mode
and coerce their data on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import EmptyInput, InvalidPolygon

Scalar = Union[int, float, Fraction]

TWO_PI = 2.0 * math.pi
EPS = 1e-9
EPS_ANGLE = 1e-10


class Point(NamedTuple):
    x: Scalar
    y: Scalar

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def linf(self) -> float:
        return max(abs(float(self.x)), abs(float(self.y)))


def dot(a: Point, b: Point) -> Scalar:
    return a.x * b.x + a.y * b.y


def cross(o: Point, a: Point, b: Point) -> Scalar:
    """Twice the signed area of the triangle (o, a, b); > 0 for a left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def norm(d: Point) -> float:
    return math.hypot(float(d.x), float(d.y))


def as_float_point(p: Point) -> Point:
    return Point(float(p.x), float(p.y))


def point_array(points) -> np.ndarray:
    """(n, 2) coordinate array: float64 when every coordinate is a float,
    else dtype=object, whose elementwise arithmetic is Python's own."""
    floats = all(isinstance(c, float) for p in points for c in p)
    return np.array(points, dtype=float if floats else object)


# ---------------------------------------------------------------------------
# angles

def wrap_angle(t: float) -> float:
    """Reduce to [0, 2*pi)."""
    t = math.fmod(t, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return t if t < TWO_PI else 0.0


def unit(t: float) -> Point:
    return Point(math.cos(t), math.sin(t))


def angle_of(d: Point) -> float:
    return wrap_angle(math.atan2(float(d.y), float(d.x)))


def ccw_gap(a: float, b: float) -> float:
    """Counterclockwise angular travel from a to b, in [0, 2*pi)."""
    return wrap_angle(b - a)


def cw_gap(a: float, b: float) -> float:
    """Clockwise angular travel from a to b, in [0, 2*pi)."""
    return wrap_angle(a - b)


def circ_dist(a: float, b: float) -> float:
    g = ccw_gap(a, b)
    return min(g, TWO_PI - g)


# ---------------------------------------------------------------------------
# half-planes

@dataclass(frozen=True)
class HalfPlane:
    """The closed set {p : p . (nx, ny) <= c}.

    The normal need not be unit length; exact mode keeps it an integer or
    rational vector so membership tests stay sign-exact.
    """

    nx: Scalar
    ny: Scalar
    c: Scalar

    def value(self, p: Point) -> Scalar:
        """Signed violation; <= 0 inside, > 0 outside (normal scale units)."""
        return self.nx * p.x + self.ny * p.y - self.c

    def contains(self, p: Point, eps: float = 0.0) -> bool:
        if eps == 0.0:
            return self.value(p) <= 0
        scale = (1.0 + p.linf()) * norm(Point(self.nx, self.ny))
        return float(self.value(p)) <= eps * scale

    @property
    def normal_angle(self) -> float:
        return angle_of(Point(self.nx, self.ny))

    @property
    def unit_offset(self) -> float:
        return float(self.c) / norm(Point(self.nx, self.ny))


# ---------------------------------------------------------------------------
# polygons

@dataclass(frozen=True)
class ConvexPolygon:
    """Counterclockwise strictly convex vertex cycle.

    One vertex is a point, two are a segment; three or more must make
    exclusively left turns (no duplicates, no three collinear) and wind
    around once.  The float twin, the edge half-planes, the perimeter and
    the cumulative lengths are computed once per polygon and kept on it.
    """

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", tuple(Point(p[0], p[1]) for p in self.vertices)
        )
        v = self.vertices
        if not v:
            raise InvalidPolygon("polygon needs at least one vertex")
        n = len(v)
        for i in range(n):
            if n > 1 and v[i] == v[(i + 1) % n]:
                raise InvalidPolygon("duplicate consecutive vertices")
        if n >= 3:
            for i in range(n):
                if cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) <= 0:
                    raise InvalidPolygon("vertices not strictly convex ccw")
            # the outward edge normals turn left throughout; going around once,
            # they cross from the lower to the upper half-plane exactly once
            up = [b.x < a.x or (b.x == a.x and b.y > a.y) for a, b in zip(v, v[1:] + v[:1])]
            if sum(u and not up[i - 1] for i, u in enumerate(up)) != 1:
                raise InvalidPolygon("vertices wind around more than once")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge(self, i: int):
        """Edge i joins vertex i to vertex i+1 (ccw)."""
        return self.vertices[i % self.n], self.vertices[(i + 1) % self.n]

    def edge_vector(self, i: int) -> Point:
        a, b = self.edge(i)
        return b - a

    def outward_normal(self, i: int) -> Point:
        """Outward normal direction of edge i (not normalized)."""
        d = self.edge_vector(i)
        return Point(d.y, -d.x)

    def outward_normal_angle(self, i: int) -> float:
        return angle_of(self.outward_normal(i))

    @cached_property
    def _edge_halfplanes(self) -> tuple:
        return tuple(edge_halfplane(*self.edge(i)) for i in range(self.n))

    def edge_halfplane(self, i: int) -> HalfPlane:
        return self._edge_halfplanes[i % self.n]

    @cached_property
    def perimeter(self) -> float:
        v = self.vertices
        if len(v) == 1:
            return 0.0
        return sum(norm(v[(i + 1) % len(v)] - v[i]) for i in range(len(v)))

    def centroid(self) -> Point:
        v = self.vertices
        sx = sum(p.x for p in v)
        sy = sum(p.y for p in v)
        if isinstance(sx, Fraction) or isinstance(sy, Fraction):
            return Point(Fraction(sx, len(v)), Fraction(sy, len(v)))
        return Point(sx / len(v), sy / len(v))

    def max_coord(self) -> float:
        return max(p.linf() for p in self.vertices)

    def as_float(self) -> "ConvexPolygon":
        return self._float_twin

    @cached_property
    def _float_twin(self) -> "ConvexPolygon":
        return ConvexPolygon(tuple(as_float_point(p) for p in self.vertices))

    # boundary arc-length parametrization (float, ccw, zero at vertex 0)
    def cumulative_lengths(self) -> tuple:
        return self._cumulative_lengths

    @cached_property
    def _cumulative_lengths(self) -> tuple:
        out = [0.0]
        for i in range(self.n):
            out.append(out[-1] + norm(self.edge_vector(i)))
        return tuple(out)

    def boundary_param(self, p: Point, edge_index: int) -> float:
        cum = self.cumulative_lengths()
        a, _ = self.edge(edge_index)
        return cum[edge_index] + norm(as_float_point(p) - as_float_point(a))


def edge_halfplane(a: Point, b: Point) -> HalfPlane:
    """Closed half-plane left of the directed edge a -> b, with the
    unnormalized outward normal (d.y, -d.x) of d = b - a."""
    d = b - a
    nrm = Point(d.y, -d.x)
    return HalfPlane(nrm.x, nrm.y, dot(nrm, a))


def _chain(stack: list, seq) -> None:
    """Andrew's monotone chain: push seq onto stack in place, popping every
    top point that the next point does not leave at a strict left turn."""
    for p in seq:
        while len(stack) >= 2 and cross(stack[-2], stack[-1], p) <= 0:
            stack.pop()
        stack.append(p)


def convex_hull(points: Sequence[Point]) -> ConvexPolygon:
    """Minimal strictly convex ccw cycle containing the input points.

    Collinear and interior points are dropped; the cycle starts at the
    lexicographically smallest vertex so equal inputs give equal outputs.
    """
    pts = sorted(set(Point(p[0], p[1]) for p in points))
    if not pts:
        raise EmptyInput("convex_hull of no points")
    lower, upper = [], []
    _chain(lower, pts)
    _chain(upper, reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # one point, or points on a line: their distinct ends
        hull = dict.fromkeys((pts[0], pts[-1]))
    return ConvexPolygon(tuple(hull))


def cap_chain(a: Point, b: Point, points) -> list:
    """The hull boundary from a counterclockwise to b of a, b and those of
    points on or right of the line ab, all in one triangle on ab: a Graham
    scan about a (angular order, nearer first on a ray) popping as _chain."""
    def before(p, q):
        turn = cross(a, p, q)
        return -1 if turn > 0 else 1 if turn < 0 else 1 if dot(p - a, p - q) > 0 else -1
    chain = [a]
    _chain(chain, sorted((p for p in points if cross(a, b, p) <= 0), key=cmp_to_key(before)) + [b])
    return chain


def point_in_polygon(p: Point, poly: ConvexPolygon, eps: float = 0.0) -> bool:
    """Closed membership test; boundary points count as inside.

    eps == 0 is the exact-mode path (pure sign tests); otherwise the
    tolerance is scaled per edge by coordinate magnitude and edge length.
    """
    v = poly.vertices
    if len(v) == 1:
        if eps == 0.0:
            return p == v[0]
        return (p - v[0]).linf() <= eps * (1.0 + v[0].linf())
    if len(v) == 2:
        a, b = v
        c = cross(a, b, p)
        d = b - a
        t = dot(p - a, d)
        l2 = dot(d, d)
        if eps == 0.0:
            return c == 0 and 0 <= t <= l2
        tol = eps * (1.0 + max(a.linf(), b.linf(), p.linf()))
        return abs(float(c)) <= tol * norm(d) and -tol * norm(d) <= float(t) and float(t) <= float(l2) + tol * norm(d)
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        c = cross(a, b, p)
        if eps == 0.0:
            if c < 0:
                return False
        else:
            tol = eps * (1.0 + max(a.linf(), b.linf(), p.linf())) * norm(b - a)
            if float(c) < -tol:
                return False
    return True


def _ring_arrays(points):
    """(x, y) coordinate arrays: float64 when every coordinate is a Python
    float, else dtype=object, whose arithmetic is Python's own (unlike
    point_array, numpy float scalars stay objects and keep their type)."""
    floats = all(type(c) is float for p in points for c in p)
    dt = float if floats else object
    return (np.array([p[0] for p in points], dtype=dt),
            np.array([p[1] for p in points], dtype=dt))


def _clip_cycle(x: np.ndarray, y: np.ndarray, hp: HalfPlane, eps: float):
    """The points a clip of the cycle (x, y) keeps, in cycle order: each
    vertex inside hp and, after it, the crossing on its edge where the
    edge leaves or enters hp.  A segment (two vertices) has one edge.

    Values and tolerances are those of HalfPlane.value and contains,
    operation for operation; crossings are computed on Python numbers.
    """
    n = len(x)
    vals = hp.nx * x + hp.ny * y - hp.c
    fv = vals.astype(float) if vals.dtype == object else vals
    if eps == 0.0:
        tols = 0.0
    else:
        fx, fy = (x, y) if x.dtype != object else (x.astype(float), y.astype(float))
        tols = eps * (1.0 + np.maximum(np.abs(fx), np.abs(fy))) * norm(Point(hp.nx, hp.ny))
    inside = fv <= tols
    cross_at = inside != np.concatenate((inside[1:], inside[:1]))
    cross_at[n if n > 2 else n - 1:] = False
    cx, cy = np.empty(2 * n, dtype=x.dtype), np.empty(2 * n, dtype=y.dtype)
    cx[::2], cy[::2] = x, y
    for i in cross_at.nonzero()[0].tolist():
        j = (i + 1) % n
        va, vb = vals.item(i), vals.item(j)
        d = va - vb
        if d == 0:  # edge parallel to the line: its inside end is kept
            cross_at[i] = False
            continue
        t = Fraction(va, d) if isinstance(va, int) and isinstance(vb, int) else va / d
        ax, ay = x.item(i), y.item(i)
        cx[2 * i + 1] = ax + t * (x.item(j) - ax)
        cy[2 * i + 1] = ay + t * (y.item(j) - ay)
    keep = np.empty(2 * n, dtype=bool)
    keep[::2], keep[1::2] = inside, cross_at
    return cx[keep], cy[keep]


def _chain_triples(on: np.ndarray):
    """Andrew's chain over sorted points whose survivors are exactly the
    points flagged on (the first and last among them): the (o, a, b)
    index triples of the cross tests it makes, split into the tests that
    must pop (an off-chain point is dropped by its successor) and the
    tests that must keep (two chain points stay under the next point)."""
    chain = on.nonzero()[0]
    t = np.arange(1, len(on))
    before = on.cumsum()[:-1]  # chain points ahead of t
    last = chain[before - 1]
    off = ~on[:-1]
    two = before >= 2
    pops = (last[off], t[off] - 1, t[off])
    keeps = (chain[before[two] - 2], last[two], t[two])
    return pops, keeps


def _proved_ring(x: np.ndarray, y: np.ndarray):
    """convex_hull of the cycle (x, y) as arrays, when that hull is the
    cycle itself started at its lexicographically smallest point; else
    None.

    Holds when the points are distinct, the cycle rises strictly in
    lexicographic order to its largest point and falls strictly back,
    the lower chain's pass over the sorted points pops exactly the
    upper points and keeps every lower point (and the reverse for the
    upper chain), and every corner of the ring is a strict left turn.
    These are the cross tests that _chain and ConvexPolygon make,
    computed with kernel.cross's operations, so a ring that passes them
    is convex_hull's result, value for value.
    """
    n = len(x)
    if n < 3:
        return None
    order = np.lexsort((y, x))
    px, py = x[order], y[order]
    if not ((px[:-1] < px[1:]) | ((px[:-1] == px[1:]) & (py[:-1] < py[1:]))).all():
        return None
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    i0 = int(order[0])
    ring = np.concatenate((rank[i0:], rank[:i0]))  # ranks around the cycle from its least point
    top = int(ring.argmax())
    step = ring[1:] - ring[:-1]
    if not ((step[:top] > 0).all() and (step[top:] < 0).all()):
        return None
    lower = np.zeros(n, dtype=bool)
    lower[ring[:top + 1]] = True
    upper = ~lower
    upper[0] = upper[-1] = True
    lo_pop, lo_keep = _chain_triples(lower)
    up_pop, up_keep = _chain_triples(upper[::-1])
    wrap = np.concatenate((ring, ring[:2]))
    corners = (wrap[:-2], wrap[1:-1], wrap[2:])
    o, a, b = (np.concatenate((lo_pop[k], n - 1 - up_pop[k], lo_keep[k],
                               n - 1 - up_keep[k], corners[k])) for k in range(3))
    ox, oy = px[o], py[o]
    cr = (px[a] - ox) * (py[b] - oy) - (py[a] - oy) * (px[b] - ox)
    pops = len(lo_pop[0]) + len(up_pop[0])
    if not ((cr[:pops] <= 0).all() and (cr[pops:] > 0).all()):
        return None
    return px[ring], py[ring]


def intersect_halfplanes(seed: ConvexPolygon, planes, eps: float = 0.0) -> Optional[ConvexPolygon]:
    """Clip a polygon by a sequence of half-planes; None when emptied.

    A single point or segment intersection comes back as a degenerate
    polygon.  Each clip is the convex hull of the kept vertices and the
    edge crossings.  The polygon travels between clips as coordinate
    arrays: when _proved_ring shows that the hull is the clipped cycle
    itself, no hull is built; otherwise convex_hull runs on the cycle's
    points.  One ConvexPolygon is built, at the end.
    """
    x, y = _ring_arrays(seed.vertices)
    with np.errstate(all="ignore"):
        for hp in planes:
            if x.dtype != object and not all(type(v) is float for v in (hp.nx, hp.ny, hp.c)):
                x, y = x.astype(object), y.astype(object)
            cx, cy = _clip_cycle(x, y, hp, eps)
            if not len(cx):
                return None
            ring = _proved_ring(cx, cy)
            if ring is None:
                hull = convex_hull([Point(a, b) for a, b in zip(cx.tolist(), cy.tolist())])
                ring = _ring_arrays(hull.vertices)
            x, y = ring
    return ConvexPolygon(tuple(zip(x.tolist(), y.tolist())))


def clip(poly: ConvexPolygon, hp: HalfPlane, eps: float = 0.0) -> Optional[ConvexPolygon]:
    """Intersect a convex polygon with a closed half-plane: one step of
    intersect_halfplanes.

    Returns None when the intersection is empty; a single point or
    segment intersection comes back as a degenerate polygon.
    """
    return intersect_halfplanes(poly, (hp,), eps)
