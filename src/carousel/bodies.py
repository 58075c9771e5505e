"""Convex bodies and their support functions.

A body is one of: a convex polygon (one or two vertices double as point
and segment bodies), a disk, or an ellipse.  A polygonal body's vertex
list is its own hull: a strictly convex ccw cycle, a segment or a point.

The support function h(t) = max over the body of p . (cos t, sin t)
drives everything: supporting lines, membership of one body in the
convex hull of another plus finitely many points, and all the tangency
machinery downstream.  The hull of several bodies needs no body of its
own: its support is the pointwise maximum of theirs.
"""

from __future__ import annotations

import math
from collections import Counter
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
    cap_chain,
    convex_hull,
    dot,
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


def PointBody(p: Point) -> PolygonBody:
    """The point body at p: its one-vertex polygon."""
    return PolygonBody(ConvexPolygon((p,)))


class SupportEval(NamedTuple):
    value: float
    contact: Point


def is_polygonal(body) -> bool:
    return isinstance(body, PolygonBody)


def polygonal_vertices(body) -> list:
    if isinstance(body, PolygonBody):
        return list(body.poly.vertices)
    raise ModeMixError("smooth body has no vertex list")


def edge_normal_angles(body) -> tuple:
    """Outward edge normal angles of a polygon body in hull order (edges from
    the least vertex on), computed once per body and kept on it.

    A segment yields both of its normals; a point or a smooth body yields
    none.
    """
    angles = body.__dict__.get("_edge_normal_angles")
    if angles is None:
        angles = ()
        if isinstance(body, PolygonBody) and body.poly.n >= 2:
            v = body.poly.vertices
            first = v.index(min(v))
            angles = tuple(body.poly.outward_normal_angle(first + i) for i in range(len(v)))
        body.__dict__["_edge_normal_angles"] = angles
    return angles


def as_float_body(body):
    if isinstance(body, PolygonBody):
        return PolygonBody(body.poly.as_float())
    if isinstance(body, Disk):
        return Disk(as_float_point(body.center), float(body.radius))
    if isinstance(body, Ellipse):
        return Ellipse(as_float_point(body.center), float(body.a),
                       float(body.b), float(body.angle))
    raise TypeError(type(body))


def origin_radius(body) -> float:
    """Upper bound for |p| over the body; Lipschitz constant of support."""
    if isinstance(body, PolygonBody):
        return max(norm(v) for v in body.poly.vertices)
    if isinstance(body, Disk):
        return norm(body.center) + float(body.radius)
    if isinstance(body, Ellipse):
        return norm(body.center) + float(body.a)
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
    if isinstance(body, PolygonBody):
        verts = body.poly.vertices
        vals = [dot(v, d) for v in verts]
        best = max(vals)
        idx = [i for i, v in enumerate(vals) if v == best]
        if len(idx) == 1:
            return best, verts[idx[0]]
        # antipodal extreme pair along the boundary span of the tie
        pd = Point(-d.y, d.x)
        keyed = sorted(idx, key=lambda i: float(dot(verts[i], pd)))
        a, b = verts[keyed[0]], verts[keyed[-1]]
        mid = Point(_half(a.x + b.x), _half(a.y + b.y))
        return best, mid
    if isinstance(body, Disk):
        nd = norm(d)
        value = float(dot(body.center, d)) + float(body.radius) * nd
        contact = Point(float(body.center.x) + float(body.radius) * float(d.x) / nd,
                        float(body.center.y) + float(body.radius) * float(d.y) / nd)
        return value, contact
    if isinstance(body, Ellipse):
        u, v = body.axes
        du = float(dot(d, u))
        dv = float(dot(d, v))
        a2u = float(body.a) ** 2 * du
        b2v = float(body.b) ** 2 * dv
        s = math.sqrt(a2u * du + b2v * dv)
        cx, cy = float(body.center.x), float(body.center.y)
        if s == 0.0:
            return float(dot(body.center, d)), Point(cx, cy)
        contact = Point(cx + (a2u * u.x + b2v * v.x) / s,
                        cy + (a2u * u.y + b2v * v.y) / s)
        return float(dot(body.center, d)) + s, contact
    raise TypeError(type(body))


def support(body, theta: float) -> SupportEval:
    """Support in the unit direction (cos theta, sin theta)."""
    value, contact = support_dir(body, unit(theta))
    return SupportEval(float(value), contact)


def support_cs(body):
    """(c, s) -> float(support_dir(body, Point(c, s))[0]) for float c, s, to
    the bit: the body's floats are taken once, and each call does the float
    operations of support_dir in the same order."""
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
    raise TypeError(type(body))


def support_batch(body, cos_t: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
    """Vectorized support values over unit directions."""
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
    """support_batch over grid_dirs(n), evaluated once per body and kept on it."""
    grids = body.__dict__.setdefault("_support_grids", {})
    if n not in grids:
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
    if outer is None or is_polygonal(outer):
        points = extra if outer is None else polygonal_vertices(outer) + extra
        return _CapTable(inner, eps, convex_hull(points))()
    return _contained_in_smooth_hull(inner, outer, extra, eps, GRID_THETA)


def drop_one_containment(inner, outer, drops: Sequence[Point], eps: float = EPS):
    """j -> contained_in_hull(inner, outer, drops without drops[j], eps);
    for a polygonal outer body one _CapTable serves every j."""
    if not is_polygonal(outer):
        return lambda j: contained_in_hull(
            inner, outer, [v for k, v in enumerate(drops) if k != j], eps)
    drops = [Point(p[0], p[1]) for p in drops]
    points = polygonal_vertices(outer) + drops
    test = _CapTable(inner, eps, convex_hull(points), points)
    return lambda j: test(drops[j])


def _all_rational(points) -> bool:
    return not any(isinstance(c, float) for p in points for c in p)


class _CapTable:
    """inner in a convex polygon F and in each hull of F's point set without
    a vertex g of F.  That hull differs from F only in the triangle of g and
    its neighbours, where its boundary is the convex chain of the points in
    the triangle (Overmars and van Leeuwen, "Maintenance of configurations
    in the plane", 1981).  One table holds inner's columns for F's edges and
    then the chains'; a test reads its hull's rows, and prefix and suffix ORs
    over F's edges leave out the two at g.  Per edge, a polygonal inner body
    has an escape column (as point_in_polygon: tolerance 0 when the hull and
    inner are rational, else eps) and the negated unit-normal slack column,
    and a smooth one a support gap.  Ties go to the first vertex and edge in
    hull order, from the least vertex.
    """

    def __init__(self, inner, eps, hull, points=()):
        self.inner, self.eps, self.hull, self.points = inner, eps, hull, points
        counts = Counter(points)  # a point listed twice stays in every hull
        self.at = {p: k for k, p in enumerate(hull.vertices) if counts[p] == 1}
        self.pts = [*hull.vertices, *(p for p in dict.fromkeys(points) if p not in hull.vertices)]
        self.index = {p: i for i, p in enumerate(self.pts)}
        self.chains, self.rows, self.tables, self.gaps = {}, {}, {}, {}
        self.ia, self.ib = [*range(hull.n)], [*range(1, hull.n), 0]
        self.polygonal = is_polygonal(inner)
        if self.polygonal:
            verts = polygonal_vertices(inner)
            self.rational, self.p = _all_rational(verts), point_array(verts)
            self.pf = self.p.astype(float)
            self.lp = np.abs(self.pf).max(axis=1)

    def _add_chains(self, ks):
        """The chains of F's vertices ks, and their edges' rows."""
        v, m = self.hull.vertices, self.hull.n
        for k in ks:
            c = self.chains[k] = cap_chain(v[k - 1], v[(k + 1) % m], self.pts[m:])
            self.rows[k] = len(self.ia)
            self.ia += [self.index[p] for p in c[:-1]]
            self.ib += [self.index[p] for p in c[1:]]
        self.tables = {}  # tables made before lack the chains' rows

    def _table(self, tol):
        """The rows at tol: f, the float normal and offset of edge_halfplane,
        xy, the float start vertex, and the neg column; and each hull's
        escapes, row k without vertex k and the last for F."""
        if tol in self.tables:
            return self.tables[tol]
        m, ia, ib, q = self.hull.n, self.ia, self.ib, point_array(self.pts)
        a, b = q[ia], q[ib]
        d = b - a
        nx, ny = d[:, 1:], -d[:, :1]
        f = np.asarray(np.concatenate((nx, ny, nx * a[:, :1] + ny * a[:, 1:]), axis=1), float)
        hyp = np.array([math.hypot(x, y) for x, y, _ in f.tolist()])
        p, pf = self.p.T, self.pf.T
        out = d[:, :1] * (p[1] - a[:, 1:]) - d[:, 1:] * (p[0] - a[:, :1])
        if tol == 0.0:
            out = out < 0
        else:
            hyp2 = np.array([math.hypot(-y, x) for x, y, _ in f.tolist()])
            lq = np.abs(np.asarray(q, float)).max(axis=1)
            lim = np.maximum(np.maximum(lq[ia], lq[ib])[:, None], self.lp)
            out = np.asarray(out, float) < -(tol * (1.0 + lim) * hyp2[:, None])
        escapes = out[:m].any(axis=0)[None]
        if self.chains:
            none = np.zeros_like(escapes)
            prefix = np.concatenate((none, np.logical_or.accumulate(out[:m])))  # edges before e
            suffix = np.concatenate((np.logical_or.accumulate(out[m - 1::-1])[::-1], none))  # e on
            kept = np.concatenate((out[1:m - 1].any(axis=0)[None], prefix[:m - 1] | suffix[2:]))
            chains = np.logical_or.reduceat(out, [*self.rows.values()])  # in k order
            escapes = np.concatenate((kept | chains, escapes))
        neg = -((pf[0] * f[:, :1] + pf[1] * f[:, 1:2] - f[:, 2:]) / hyp[:, None])
        self.tables[tol] = {"f": f, "xy": np.asarray(a, float), "neg": neg, "escapes": escapes}
        return self.tables[tol]

    def _hull_rows(self, k):
        """The hull without F's vertex k (F for None): its vertices and rows."""
        vs, rows = list(self.hull.vertices), [*range(self.hull.n)]
        if k is not None:
            if k not in self.chains:  # a polygonal inner body's table takes them all
                self._add_chains(range(self.hull.n) if self.polygonal else [k])
            c, lo = self.chains[k], self.rows[k]
            vs[k:k + 1], chain = c[1:-1], [*range(lo, lo + len(c) - 1)]
            if k:
                rows[k - 1:k + 1] = chain
            else:  # F's first vertex leaves; the hull starts at its chain's least
                s, rows = vs.index(min(vs)), chain[1:] + rows[1:-1] + chain[:1]
                vs, rows = vs[s:] + vs[:s], rows[s:] + rows[:s]
        return vs, rows

    def __call__(self, drop=None) -> ContainmentResult:
        """The result for the hull of F's point set without drop, or for F."""
        k = self.at.get(drop)
        if k is not None and self.hull.n < 3:  # points on a line
            rest = convex_hull([p for p in self.points if p != drop])
            return _small_hull_test(self.inner, rest, self.eps)
        vs, rows = self._hull_rows(k)
        if len(vs) < 3:  # F itself, or the segment a triangle F leaves
            hull = self.hull if k is None else ConvexPolygon(tuple(sorted(vs)))
            return _small_hull_test(self.inner, hull, self.eps)
        if not self.polygonal:
            for r in rows:
                if r not in self.gaps:
                    hp = edge_halfplane(self.pts[self.ia[r]], self.pts[self.ib[r]])
                    self.gaps[r] = hp.unit_offset - support(self.inner, hp.normal_angle).value, hp
            gap, hp = min((self.gaps[r] for r in rows), key=lambda g: g[0])
            scale = 1.0 + max(max(p.linf() for p in vs), origin_radius(self.inner))
            if gap >= -self.eps * scale:
                return ContainmentResult(True, gap)
            return ContainmentResult(False, gap, hp.normal_angle,
                                     support(self.inner, hp.normal_angle).contact)
        tab = self._table(0.0 if self.rational and _all_rational(vs) else self.eps)
        escaped = tab["escapes"][-1 if k is None else k]
        if not escaped.any():
            # the first minimum in (vertex, edge) order keeps the sign of a zero
            flat = tab["neg"][rows].T.ravel()
            return ContainmentResult(True, float(flat[flat.argmin()]))
        e = int(tab["neg"][rows, int(escaped.argmax())].argmin())
        theta = HalfPlane(*tab["f"][rows[e]].tolist()).normal_angle
        return _refutation(self.inner, tab["xy"][rows], theta)


def _refutation(inner, xy, theta) -> ContainmentResult:
    """Refuted at theta, for the hull of float vertices xy in hull order."""
    n = unit(theta)
    ev = support(inner, theta)
    h = xy[:, 0] * n.x + xy[:, 1] * n.y  # the first maximum keeps the sign of a zero
    return ContainmentResult(False, float(h[h.argmax()]) - ev.value, theta, ev.contact)


def _small_hull_test(inner, hull, eps):
    """inner in a point or segment hull."""
    if not is_polygonal(inner):
        return _contained_in_smooth_hull(inner, PolygonBody(hull), (), eps, 2048)
    v, verts = hull.vertices, polygonal_vertices(inner)
    tol = 0.0 if _all_rational(verts) and _all_rational(v) else eps
    worst = next((p for p in verts if not point_in_polygon(p, hull, tol)), None)
    if worst is None:
        return ContainmentResult(True, 0.0)
    d = as_float_point(worst) - as_float_point(v[0])
    return _refutation(inner, point_array(v).astype(float), math.atan2(d.y, d.x))


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
        h_outer, h_inner = support_cs(outer), support_cs(inner)
        points = [as_float_point(p) for p in extra]

        def fn(theta):  # the hull's support is the maximum of its parts'
            c, s = math.cos(theta), math.sin(theta)
            return max([h_outer(c, s)] + [x * c + y * s for x, y in points]) - h_inner(c, s)
        return fn

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
        if is_polygonal(body):
            return all(point_in_polygon(v, poly, eps) for v in polygonal_vertices(body))
        return False
    scale = 1.0 + poly.max_coord()
    for i in range(poly.n):
        hp = poly.edge_halfplane(i)
        d = Point(hp.nx, hp.ny)
        h, _ = support_dir(body, d)
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
