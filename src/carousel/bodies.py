"""Convex bodies and their support functions.

A body is one of: a convex polygon (one or two vertices double as point
and segment bodies), a disk, an ellipse, an explicit point, or the
convex hull of other bodies (support = pointwise maximum; used for the
hull of a body pair when at least one member is smooth).

The support function h(t) = max over the body of p . (cos t, sin t)
drives everything: supporting lines, membership of one body in the
convex hull of another plus finitely many points, and all the tangency
machinery downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidBody, ModeMixError
from .kernel import (
    EPS,
    TWO_PI,
    ConvexPolygon,
    HalfPlane,
    Point,
    Scalar,
    as_float_point,
    convex_hull,
    dot,
    drop_one_hulls,
    edge_halfplane,
    norm,
    point_array,
    point_in_polygon,
    unit,
)


@dataclass(frozen=True)
class PolygonBody:
    poly: ConvexPolygon


@dataclass(frozen=True)
class Disk:
    center: Point
    radius: Scalar

    def __post_init__(self):
        if not float(self.radius) > 0.0:
            raise InvalidBody("disk radius must be positive")


@dataclass(frozen=True)
class Ellipse:
    """Axis lengths are semi-axes with a >= b; angle rotates the major axis."""

    center: Point
    a: Scalar
    b: Scalar
    angle: float = 0.0

    def __post_init__(self):
        if not (float(self.a) >= float(self.b) > 0.0):
            raise InvalidBody("ellipse needs a >= b > 0")

    @cached_property
    def axes(self):
        """Unit major and minor axis directions."""
        u = unit(self.angle)
        return u, Point(-u.y, u.x)


@dataclass(frozen=True)
class PointBody:
    point: Point


@dataclass(frozen=True)
class HullBody:
    """Convex hull of the member bodies; support is their maximum."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise InvalidBody("hull body needs at least one part")


class SupportEval(NamedTuple):
    value: float
    contact: Point
    kind: str  # vertex | edge-interior | smooth


def is_polygonal(body) -> bool:
    if isinstance(body, (PolygonBody, PointBody)):
        return True
    if isinstance(body, HullBody):
        return all(is_polygonal(p) for p in body.parts)
    return False


def polygonal_vertices(body) -> list:
    if isinstance(body, PolygonBody):
        return list(body.poly.vertices)
    if isinstance(body, PointBody):
        return [body.point]
    if isinstance(body, HullBody):
        out = []
        for p in body.parts:
            out.extend(polygonal_vertices(p))
        return out
    raise ModeMixError("smooth body has no vertex list")


def edge_normal_angles(body) -> tuple:
    """Outward edge normal angles of a polygonal body's hull, in hull order,
    computed once per body and kept on it.

    A segment yields both of its normals (max(n, 2) angles); a point or a
    body with a smooth member yields none.
    """
    angles = body.__dict__.get("_edge_normal_angles")
    if angles is None:
        verts = polygonal_vertices(body) if is_polygonal(body) else ()
        angles = ()
        if len(verts) >= 2:
            poly = convex_hull(verts)
            angles = tuple(poly.outward_normal_angle(i) for i in range(max(poly.n, 2)))
        body.__dict__["_edge_normal_angles"] = angles
    return angles


def as_float_body(body):
    if isinstance(body, PolygonBody):
        return PolygonBody(body.poly.as_float())
    if isinstance(body, PointBody):
        return PointBody(as_float_point(body.point))
    if isinstance(body, Disk):
        return Disk(as_float_point(body.center), float(body.radius))
    if isinstance(body, Ellipse):
        return Ellipse(as_float_point(body.center), float(body.a),
                       float(body.b), float(body.angle))
    if isinstance(body, HullBody):
        return HullBody(tuple(as_float_body(p) for p in body.parts))
    raise TypeError(type(body))


def origin_radius(body) -> float:
    """Upper bound for |p| over the body; Lipschitz constant of support."""
    if isinstance(body, PolygonBody):
        return max(norm(v) for v in body.poly.vertices)
    if isinstance(body, PointBody):
        return norm(body.point)
    if isinstance(body, Disk):
        return norm(body.center) + float(body.radius)
    if isinstance(body, Ellipse):
        return norm(body.center) + float(body.a)
    if isinstance(body, HullBody):
        return max(origin_radius(p) for p in body.parts)
    raise TypeError(type(body))


# ---------------------------------------------------------------------------
# support evaluation

def _half(v):
    """v / 2 without pushing integers into floats."""
    if isinstance(v, int):
        from fractions import Fraction

        return Fraction(v, 2)
    return v / 2


def support_dir(body, d: Point):
    """Support value and contact in unnormalized direction d.

    Exact whenever the body is polygonal and coordinates are rational.
    Positive homogeneity makes the zero set of support differences
    independent of |d|, which is what the exact tangency path relies on.
    """
    if isinstance(body, PointBody):
        return dot(body.point, d), body.point, "vertex"
    if isinstance(body, PolygonBody):
        verts = body.poly.vertices
        vals = [dot(v, d) for v in verts]
        best = max(vals)
        idx = [i for i, v in enumerate(vals) if v == best]
        if len(idx) == 1:
            return best, verts[idx[0]], "vertex"
        # antipodal extreme pair along the boundary span of the tie
        pd = Point(-d.y, d.x)
        keyed = sorted(idx, key=lambda i: float(dot(verts[i], pd)))
        a, b = verts[keyed[0]], verts[keyed[-1]]
        mid = Point(_half(a.x + b.x), _half(a.y + b.y))
        return best, mid, "edge-interior"
    if isinstance(body, Disk):
        nd = norm(d)
        value = float(dot(body.center, d)) + float(body.radius) * nd
        contact = Point(float(body.center.x) + float(body.radius) * float(d.x) / nd,
                        float(body.center.y) + float(body.radius) * float(d.y) / nd)
        return value, contact, "smooth"
    if isinstance(body, Ellipse):
        u, v = body.axes
        du = float(dot(d, u))
        dv = float(dot(d, v))
        a2u = float(body.a) ** 2 * du
        b2v = float(body.b) ** 2 * dv
        s = math.sqrt(a2u * du + b2v * dv)
        cx, cy = float(body.center.x), float(body.center.y)
        if s == 0.0:
            return float(dot(body.center, d)), Point(cx, cy), "smooth"
        contact = Point(cx + (a2u * u.x + b2v * v.x) / s,
                        cy + (a2u * u.y + b2v * v.y) / s)
        return float(dot(body.center, d)) + s, contact, "smooth"
    if isinstance(body, HullBody):
        best = None
        for part in body.parts:
            cand = support_dir(part, d)
            if best is None or cand[0] > best[0]:
                best = cand
        return best
    raise TypeError(type(body))


def support(body, theta: float) -> SupportEval:
    """Support in the unit direction (cos theta, sin theta)."""
    value, contact, kind = support_dir(body, unit(theta))
    return SupportEval(float(value), contact, kind)


def _support_cs(body):
    """(c, s) -> float(support_dir(body, Point(c, s))[0]) for float c, s."""
    if isinstance(body, PointBody):
        x, y = as_float_point(body.point)
        return lambda c, s: x * c + y * s
    if isinstance(body, PolygonBody):
        verts = [as_float_point(v) for v in body.poly.vertices]
        return lambda c, s: max([x * c + y * s for x, y in verts])
    if isinstance(body, Disk):
        (x, y), r = as_float_point(body.center), float(body.radius)
        return lambda c, s: x * c + y * s + r * math.hypot(c, s)
    if isinstance(body, Ellipse):
        (x, y), (u, v) = as_float_point(body.center), body.axes
        a2, b2 = float(body.a) ** 2, float(body.b) ** 2

        def ellipse(c, s):
            du = c * u.x + s * u.y
            dv = c * v.x + s * v.y
            return x * c + y * s + math.sqrt(a2 * du * du + b2 * dv * dv)
        return ellipse
    if isinstance(body, HullBody):
        parts = [_support_cs(p) for p in body.parts]
        return lambda c, s: max([h(c, s) for h in parts])
    raise TypeError(type(body))


def support_fn(body):
    """theta -> support(body, theta).value, bit for bit, without contacts.

    The body's floats are taken once; each call does the float operations
    of support() in the same order.
    """
    h = _support_cs(body)
    return lambda t: h(math.cos(t), math.sin(t))


def support_batch(body, cos_t: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
    """Vectorized support values over unit directions."""
    if isinstance(body, PointBody):
        p = as_float_point(body.point)
        return p.x * cos_t + p.y * sin_t
    if isinstance(body, PolygonBody):
        verts = np.array([(float(v.x), float(v.y)) for v in body.poly.vertices])
        return np.max(verts[:, 0, None] * cos_t + verts[:, 1, None] * sin_t, axis=0)
    if isinstance(body, Disk):
        c = as_float_point(body.center)
        return c.x * cos_t + c.y * sin_t + float(body.radius)
    if isinstance(body, Ellipse):
        u, v = body.axes
        c = as_float_point(body.center)
        du = cos_t * u.x + sin_t * u.y
        dv = cos_t * v.x + sin_t * v.y
        s = np.sqrt((float(body.a) * du) ** 2 + (float(body.b) * dv) ** 2)
        return c.x * cos_t + c.y * sin_t + s
    if isinstance(body, HullBody):
        return np.maximum.reduce([support_batch(p, cos_t, sin_t) for p in body.parts])
    raise TypeError(type(body))


@cache
def grid_dirs(n: int):
    """(thetas, cos, sin) of the n-point angle grid linspace(0, 2*pi, n, endpoint=False)."""
    thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
    out = (thetas, np.cos(thetas), np.sin(thetas))
    for a in out:
        a.setflags(write=False)
    return out


def support_grid(body, n: int) -> np.ndarray:
    """support_batch over grid_dirs(n), evaluated once per body and kept on it.

    A hull's grid is the maximum of its parts' grids, as in support_batch.
    """
    grids = body.__dict__.setdefault("_support_grids", {})
    if n not in grids:
        if isinstance(body, HullBody):
            h = np.maximum.reduce([support_grid(p, n) for p in body.parts])
        else:
            h = support_batch(body, *grid_dirs(n)[1:])
        h.setflags(write=False)
        grids[n] = h
    return grids[n]


def supporting_line(body, theta: float) -> HalfPlane:
    """Closed half-plane at normal angle theta whose boundary touches the body."""
    ev = support(body, theta)
    n = unit(theta)
    return HalfPlane(n.x, n.y, ev.value)


def body_contains_point(body, p: Point, eps: float = 0.0) -> bool:
    if isinstance(body, PolygonBody):
        return point_in_polygon(p, body.poly, eps)
    if isinstance(body, PointBody):
        if eps == 0.0:
            return p == body.point
        return (Point(float(p.x), float(p.y)) - as_float_point(body.point)).linf() \
            <= eps * (1.0 + body.point.linf())
    if isinstance(body, Disk):
        dx = float(p.x) - float(body.center.x)
        dy = float(p.y) - float(body.center.y)
        r = float(body.radius)
        return (dx * dx + dy * dy) / (r * r) <= 1.0 + eps
    if isinstance(body, Ellipse):
        u, v = body.axes
        q = Point(float(p.x) - float(body.center.x), float(p.y) - float(body.center.y))
        qu = float(dot(q, u)) / float(body.a)
        qv = float(dot(q, v)) / float(body.b)
        return qu * qu + qv * qv <= 1.0 + eps
    raise TypeError(type(body))


# ---------------------------------------------------------------------------
# containment in a hull of a body plus extra points

class ContainmentResult:
    """Whether inner lies in the hull, and the signed margin: the smallest
    support gap h_hull - h_inner, negative when inner escapes.  A refuted
    test also names the angle of that gap and the inner body's contact
    point there.

    lo <= margin <= hi; an eager result has lo = hi = margin.  A deferred
    result knows `contained` from its bounds and computes margin,
    witness_angle and escaping_point when one of them is first read, so
    they hold what an eager test gives.  repr and == read them too.
    """

    def __init__(self, contained: bool, margin: float,
                 witness_angle: Optional[float] = None,
                 escaping_point: Optional[Point] = None):
        self.contained = contained
        self.lo = self.hi = margin
        self._refine = None
        self._values = (margin, witness_angle, escaping_point)

    @classmethod
    def deferred(cls, contained: bool, lo: float, hi: float, refine):
        """refine() -> (margin, witness_angle, escaping_point), run on first read."""
        res = cls(contained, math.nan)
        res.lo, res.hi, res._refine = lo, hi, refine
        return res

    def _value(self, k):
        if self._refine is not None:
            self._values, self._refine = self._refine(), None
        return self._values[k]

    margin = property(lambda self: self._value(0))
    witness_angle = property(lambda self: self._value(1))
    escaping_point = property(lambda self: self._value(2))

    def near_zero(self, at: float) -> bool:
        """abs(margin) <= at, answered from lo and hi when they settle it."""
        if self.lo > at or self.hi < -at:
            return False
        return abs(self.margin) <= at

    def _key(self):
        return (self.contained, self.margin, self.witness_angle, self.escaping_point)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__qualname__}(contained={self.contained!r}, "
                f"margin={self.margin!r}, witness_angle={self.witness_angle!r}, "
                f"escaping_point={self.escaping_point!r})")


GOLDEN_TOL = 1e-12  # bracket width at which golden_min stops
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_probes(a: float, b: float):
    """The first two interior points golden_min evaluates on [a, b]."""
    h = b - a
    return a + INVPHI2 * h, a + INVPHI * h


def golden_min(fn, a: float, b: float):
    """Golden-section minimizer over [a, b]; returns (argmin, min).

    The smaller of the two interior values never rises, and the returned
    point lies within GOLDEN_TOL of the last of them.
    """
    h = b - a
    c, d = golden_probes(a, b)
    fc, fd = fn(c), fn(d)
    while h > GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


GRID_THETA = 4096  # start grid for smooth containment minimization


def contained_in_hull(inner, outer, extra: Sequence[Point] = (),
                      eps: float = EPS) -> ContainmentResult:
    """Decide inner <= convex hull of (outer union extra points).

    Polygonal hulls are settled by exact vertex membership (sign-exact in
    rational mode); hulls with a smooth generator are settled by
    minimizing the support gap over a dense angle grid with local
    golden-section refinement.
    """
    extra = [Point(p[0], p[1]) for p in extra]
    if outer is not None and is_polygonal(outer):
        return _polygon_hull_test(inner, eps)(convex_hull(polygonal_vertices(outer) + extra))
    if outer is None:
        return _polygon_hull_test(inner, eps)(convex_hull(extra))
    return _contained_in_smooth_hull(inner, outer, extra, eps, GRID_THETA)


def drop_one_containment(inner, outer, drops: Sequence[Point], eps: float = EPS):
    """j -> contained_in_hull(inner, outer, drops without drops[j], eps).

    For a polygonal outer body the hulls come from one drop_one_hulls run
    and share one edge-column table, so every edge's numbers are computed
    once across all j.
    """
    if not is_polygonal(outer):
        return lambda j: contained_in_hull(
            inner, outer, [v for k, v in enumerate(drops) if k != j], eps)
    hulls = drop_one_hulls(polygonal_vertices(outer), drops)
    test = _polygon_hull_test(inner, eps)
    return lambda j: test(hulls(j))


def _all_rational(points) -> bool:
    return not any(isinstance(c, float) for p in points for c in p)


def _polygon_hull_test(inner, eps):
    """hull -> ContainmentResult of inner in a convex polygon hull."""
    if is_polygonal(inner):
        return _VertexContainment(inner, eps)
    return lambda hull: _smooth_in_polygon(inner, hull, eps)


class _VertexContainment:
    """Polygonal inner body against convex polygon hulls.

    A vertex escapes where point_in_polygon would put it outside, at
    tolerance 0 when the hull and the vertices are rational and eps
    otherwise.  Each directed hull edge (a, b) gets its columns over the
    inner vertices once and every hull with that edge reuses them: the
    escape column, the unit-normal slack column float(hp.value(p)) / nl
    and the edge's half-plane.  A hull gathers its columns in hull order,
    so ties resolve to the first vertex and the first edge as in scalar
    loops over them.
    """

    def __init__(self, inner, eps):
        self.inner, self.eps = inner, eps
        self.verts = polygonal_vertices(inner)
        self.rational = _all_rational(self.verts)
        self.p = point_array(self.verts)
        self.pf = self.p.astype(float)
        self.lp = np.max(np.abs(self.pf), axis=1)
        self.columns = {}

    def _edge(self, a, b, tol):
        key = (a, b, tol)
        cols = self.columns.get(key)
        if cols is None:
            hp = edge_halfplane(a, b)
            nx, ny, c = float(hp.nx), float(hp.ny), float(hp.c)
            p, pf = self.p, self.pf
            cr = (b.x - a.x) * (p[:, 1] - a.y) - (b.y - a.y) * (p[:, 0] - a.x)
            if tol == 0.0:
                out = cr < 0
            else:
                la, lb = (max(abs(float(q.x)), abs(float(q.y))) for q in (a, b))
                lim = np.maximum(max(la, lb), self.lp)
                out = cr.astype(float) < -(tol * (1.0 + lim) * math.hypot(-ny, nx))
            slack = (pf[:, 0] * nx + pf[:, 1] * ny - c) / math.hypot(nx, ny)
            cols = self.columns[key] = (out, slack, hp)
        return cols

    def __call__(self, hull) -> ContainmentResult:
        v = hull.vertices
        tol = 0.0 if self.rational and _all_rational(v) else self.eps
        if hull.n < 3:
            worst = next((p for p in self.verts if not point_in_polygon(p, hull, tol)), None)
            if worst is None:
                return ContainmentResult(True, 0.0)
            d = as_float_point(worst) - as_float_point(v[0])
            theta = math.atan2(d.y, d.x)
        else:
            cols = [self._edge(a, b, tol) for a, b in zip(v, v[1:] + v[:1])]
            bad = np.flatnonzero(np.logical_or.reduce([out for out, _, _ in cols]))
            if not len(bad):
                # the first minimum in (vertex, edge) order keeps the sign of a zero
                flat = -np.stack([slack for _, slack, _ in cols], axis=1).ravel()
                return ContainmentResult(True, float(flat[np.argmin(flat)]))
            row = np.array([slack[bad[0]] for _, slack, _ in cols])
            theta = cols[int(np.argmax(row))][2].normal_angle
        n = unit(theta)
        ev = support(self.inner, theta)
        margin = max(float(dot(q, n)) for q in v) - ev.value
        return ContainmentResult(False, margin, theta, ev.contact)


def _smooth_in_polygon(inner, hull, eps):
    """Smooth inner body against a polygon hull: per-edge support comparison."""
    scale = 1.0 + max(hull.max_coord(), origin_radius(inner))
    if hull.n >= 3:
        worst_val = math.inf
        worst_theta = None
        for i in range(hull.n):
            theta = hull.outward_normal_angle(i)
            c = hull.edge_halfplane(i).unit_offset
            f = c - support(inner, theta).value
            if f < worst_val:
                worst_val, worst_theta = f, theta
        if worst_val >= -eps * scale:
            return ContainmentResult(True, worst_val)
        return ContainmentResult(False, worst_val, worst_theta,
                                 support(inner, worst_theta).contact)
    # hull degenerated to a point or segment; minimize the gap for a witness
    return _contained_in_smooth_hull(inner, PolygonBody(hull), (), eps, 2048)


BOUND_GUARD = 1e-12  # relative rounding slack of the grid bounds on the margin


def _contained_in_smooth_hull(inner, outer, extra, eps, n_theta):
    """Decided from the grid when its bounds settle it; the refined margin,
    witness angle and contact come on first read.

    The gap h_hull - h_inner is Lipschitz in the angle with constant
    `radius`, the hull's radius about the origin plus the inner body's
    (Schneider, Convex Bodies), so every angle's gap lies within
    radius * step of a grid sample's: lo bounds the margin from below.
    The refinement starts at the smallest sample, and golden_min ends
    within GOLDEN_TOL of the best of its two first probes there: hi bounds
    the margin from above.
    """
    thetas, ct, st_ = grid_dirs(n_theta)
    h_hull = support_grid(outer, n_theta)
    hull_radius = origin_radius(outer)
    for p in extra:
        fp = as_float_point(p)
        h_hull = np.maximum(h_hull, fp.x * ct + fp.y * st_)
        hull_radius = max(hull_radius, math.hypot(fp.x, fp.y))
    f = h_hull - support_grid(inner, n_theta)

    scale = 1.0 + max(origin_radius(outer), origin_radius(inner),
                      max((p.linf() for p in extra), default=0.0))
    floor = -eps * scale
    step = TWO_PI / n_theta
    radius = hull_radius + origin_radius(inner)

    @cache
    def gap():
        h_hull_fn = support_fn(HullBody((outer, *map(PointBody, extra))))
        h_inner_fn = support_fn(inner)
        return lambda theta: h_hull_fn(theta) - h_inner_fn(theta)

    def refine():
        fval = gap()
        left = np.roll(f, 1)
        right = np.roll(f, -1)
        local_min = np.nonzero((f <= left) & (f <= right))[0]
        # Lipschitz pruning: within one step of a sample the gap moves at most
        # radius * step, so most local minima cannot beat the running best
        order = sorted(local_min, key=lambda i: float(f[i]))
        best_val = math.inf
        best_theta = None
        for i in order:
            optimistic = float(f[i]) - radius * step
            if optimistic >= best_val and optimistic >= floor:
                break
            t0 = thetas[i] - step
            t1 = thetas[i] + step
            x, v = golden_min(fval, t0, t1)
            if v < best_val:
                best_val, best_theta = v, x
        if best_theta is None:  # constant f; no structure
            best_theta = 0.0
            best_val = fval(0.0)
        best_theta = float(best_theta) % TWO_PI
        if best_val >= floor:
            return float(best_val), None, None
        return float(best_val), best_theta, support(inner, best_theta).contact

    guard = BOUND_GUARD * scale
    first = int(np.argmin(f))
    lo = float(f[first]) - radius * step - guard
    if lo >= floor:
        return ContainmentResult.deferred(
            True, lo, float(f[first]) + radius * step + guard, refine)
    fval = gap()
    fc, fd = map(fval, golden_probes(thetas[first] - step, thetas[first] + step))
    hi = min(fc, fd) + radius * GOLDEN_TOL + guard
    if hi < floor:
        return ContainmentResult.deferred(False, lo, hi, refine)
    margin, theta, contact = refine()
    return ContainmentResult(margin >= floor, margin, theta, contact)


def body_in_polygon(body, poly: ConvexPolygon, eps: float = 0.0) -> bool:
    """body <= polygon, decided exactly through edge supports."""
    if poly.n < 3:
        if isinstance(body, PointBody):
            return point_in_polygon(body.point, poly, eps)
        if is_polygonal(body):
            return all(point_in_polygon(v, poly, eps) for v in polygonal_vertices(body))
        return False
    scale = 1.0 + poly.max_coord()
    for i in range(poly.n):
        hp = poly.edge_halfplane(i)
        d = Point(hp.nx, hp.ny)
        h, _, _ = support_dir(body, d)
        if eps == 0.0:
            if h > hp.c:
                return False
        else:
            if float(h) > float(hp.c) + eps * scale * norm(d):
                return False
    return True


def bodies_overlap(a, b, eps: float = EPS, n_theta: int = 1024) -> bool:
    """True when the bodies cannot be strictly separated by any line."""
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    ct, st_ = np.cos(thetas), np.sin(thetas)
    gap = support_batch(a, ct, st_) + support_batch(b, -ct, -st_)
    scale = 1.0 + max(origin_radius(a), origin_radius(b))
    if np.min(gap) > 0.1 * scale:
        return True

    def fval(theta):
        return support(a, theta).value + support(b, theta + math.pi).value

    i = int(np.argmin(gap))
    step = TWO_PI / n_theta
    _, v = golden_min(fval, thetas[i] - step, thetas[i] + step)
    return bool(min(float(np.min(gap)), v) >= -eps * scale)
