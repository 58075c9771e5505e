"""Sectors, boundary exits, and sweeps inside a container polygon.

A sector of two supporting lines is the intersection of all supporting
half-planes of a body whose normals lie on one of the two arcs between
the line normals; it always contains the body.  For polygon bodies the
family collapses to finitely many half-planes: the two arc endpoints
plus the edge normals strictly inside the arc (interior normals at a
shared vertex are positive combinations of the flanking ones and drop
out).  Smooth bodies are sampled across the arc.

Boundary exits: a supporting line of a body inside a container polygon,
travelled with the body on its left, leaves the container at one point.
Following that exit while the line turns clockwise between two adjacent
common supporting lines traces a clockwise boundary segment, the sweep;
the sweeps of consecutive pairs tile the container boundary.

Vertex events: a container vertex outside a body is the left exit of
exactly one of the body's supporting lines, the left tangent from the
vertex; its normal is the vertex's left event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bodies import (
    Disk,
    body_contains_point,
    edge_normal_angles,
    is_polygonal,
    origin_radius,
    polygonal_vertices,
    support_batch,
    supporting_line,
)
from .errors import (
    ContactOutsideContainer,
    ExpansionTooWide,
)
from .kernel import (
    EPS,
    EPS_ANGLE,
    TWO_PI,
    ConvexPolygon,
    HalfPlane,
    Point,
    angle_of,
    as_float_point,
    convex_hull,
    cross,
    cw_gap,
    dot,
    point_in_polygon,
    unit,
    wrap_angle,
)
from .tangency import OrientedSupportLine


@dataclass(frozen=True)
class NormalArc:
    """Closed arc of normal angles traversed clockwise from start.

    Width lives in [0, 2*pi]; zero width is a single angle, full width
    the whole circle.  end = start - width (mod 2*pi).
    """

    start: float
    width: float

    @property
    def end(self) -> float:
        return wrap_angle(self.start - self.width)

    def contains(self, theta: float, tol: float = EPS_ANGLE) -> bool:
        if self.width >= TWO_PI - tol:
            return True
        g = cw_gap(self.start, theta)
        return g <= self.width + tol or g >= TWO_PI - tol

    def angles(self, count: int) -> np.ndarray:
        """count angles from start to end inclusive, advancing clockwise.

        Each entry equals wrap_angle(start - width * k / (count - 1)).
        """
        if count <= 1:
            return np.array([self.start])
        ts = np.fmod(self.start - self.width * np.arange(count) / (count - 1), TWO_PI)
        ts[ts < 0.0] += TWO_PI
        ts[ts >= TWO_PI] = 0.0
        return ts

    def clockwise_offset(self, theta: float) -> float:
        return cw_gap(self.start, theta)


@dataclass(frozen=True, eq=False)
class SectorRegion:
    """Intersection of supporting half-planes over a normal arc.

    The half-planes {p : nx[k] p.x + ny[k] p.y <= c[k]} live in float
    arrays, so membership tests run as single numpy sweeps.
    """

    arc: NormalArc
    nx: np.ndarray
    ny: np.ndarray
    c: np.ndarray

    @classmethod
    def from_planes(cls, arc: NormalArc, planes) -> "SectorRegion":
        cols = np.array([(float(hp.nx), float(hp.ny), float(hp.c)) for hp in planes])
        return cls(arc, cols[:, 0], cols[:, 1], cols[:, 2])

    @property
    def planes(self) -> Tuple[HalfPlane, ...]:
        return tuple(map(HalfPlane, self.nx.tolist(), self.ny.tolist(), self.c.tolist()))

    def contains_point(self, p: Point, eps: float = EPS) -> bool:
        px, py = float(p.x), float(p.y)
        value = self.nx * px + self.ny * py - self.c
        if eps == 0.0:
            return bool(np.all(value <= 0))
        scale = (1.0 + max(abs(px), abs(py))) * np.hypot(self.nx, self.ny)
        return bool(np.all(value <= eps * scale))

    def contains_body(self, other, eps: float = EPS) -> bool:
        """other inside the sector, by support comparison per half-plane.

        Sector planes carry unit normals, so the comparison vectorizes.
        """
        scale = 1.0 + max(origin_radius(other), float(np.max(np.abs(self.c))))
        h = support_batch(other, self.nx, self.ny)
        return bool(np.all(h <= self.c + eps * scale))

    def clipped(self, container: ConvexPolygon, eps: float = 0.0) -> Optional[ConvexPolygon]:
        """The sector intersected with the container polygon.

        Preconditions: the intersection is bounded and has interior, as has
        every sector holding a body with interior inside its container (a
        point's sector over an arc of pi or more is the point and does not
        qualify).  The planes may come in any order: a smooth body's run
        clockwise from arc.start, a polygon's do not.

        One pass over the sector's planes and the container's edges in
        order of normal angle keeps a deque of the lines that bound the
        region so far (Preparata and Shamos 1985): each plane drops the
        lines at either end whose last corner it does not contain, as
        HalfPlane.contains at eps (at least EPS_FLOOR) tests, and of two
        lines whose normals lie within EPS_ANGLE only the tighter stays.
        A corner is walked to along a container edge where it has one, as
        a scalar clip's crossing is, so nearly parallel lines move it along
        a line and not off it; adjacent edges meet at their own vertex.
        Corners within the tolerance of the one before merge, and
        convex_hull of the rest starts the cycle at its least vertex.
        """
        m, n, verts = len(self.nx), container.n, container.vertices
        # each line passes through (ox, oy) and runs along its normal turned
        # left: an edge from its first vertex, a sector line from the foot
        # of the origin on it
        edges = np.array([(float(hp.nx), float(hp.ny), float(hp.c), float(v.x), float(v.y))
                          for hp, v in zip(map(container.edge_halfplane, range(n)), verts)])
        nx = np.concatenate((self.nx, edges[:, 0]))
        ny = np.concatenate((self.ny, edges[:, 1]))
        c = np.concatenate((self.c, edges[:, 2]))
        foot = self.c / (self.nx * self.nx + self.ny * self.ny)
        ox = np.concatenate((foot * self.nx, edges[:, 3]))
        oy = np.concatenate((foot * self.ny, edges[:, 4]))
        nl = np.hypot(nx, ny)
        ang = np.arctan2(ny, nx)
        order = np.argsort(ang, kind="stable").tolist()
        tol = max(eps, EPS_FLOOR)
        off = c / nl
        off[m:] -= tol * (1.0 + np.abs(off[m:]))  # an edge wins a near tie, keeping corners on it
        off, slack = off.tolist(), (tol * nl).tolist()
        nx, ny, c, ox, oy, ang = (v.tolist() for v in (nx, ny, c, ox, oy, ang))

        def corner(i, j):
            if i >= m and j >= m and j - m == (i - m + 1) % n:
                return verts[j - m]
            if j >= m:
                i, j = j, i
            dx, dy = -ny[i], nx[i]
            t = (c[j] - nx[j] * ox[i] - ny[j] * oy[i]) / (nx[j] * dx + ny[j] * dy)
            return Point(ox[i] + t * dx, oy[i] + t * dy)

        def contains(k, p):
            x, y = float(p.x), float(p.y)
            return nx[k] * x + ny[k] * y - c[k] <= slack[k] * (1.0 + max(abs(x), abs(y)))

        planes, corners = deque(), deque()  # corners[i] joins planes[i] and planes[i + 1]
        for k in order:
            if planes and ang[k] - ang[planes[-1]] <= EPS_ANGLE:
                if off[k] >= off[planes[-1]]:
                    continue
                planes.pop()
                if corners:
                    corners.pop()
            while corners and not contains(k, corners[-1]):
                planes.pop()
                corners.pop()
            while corners and not contains(k, corners[0]):
                planes.popleft()
                corners.popleft()
            if planes:
                corners.append(corner(planes[-1], k))
            planes.append(k)
        if len(planes) >= 2 and ang[planes[0]] + TWO_PI - ang[planes[-1]] <= EPS_ANGLE:
            if off[planes[0]] < off[planes[-1]]:
                planes.pop()
                corners.pop()
            else:
                planes.popleft()
                corners.popleft()
        while len(planes) >= 3 and not contains(planes[0], corners[-1]):
            planes.pop()
            corners.pop()
        while len(planes) >= 3 and not contains(planes[-1], corners[0]):
            planes.popleft()
            corners.popleft()
        if len(planes) < 3:
            return None
        corners.append(corner(planes[-1], planes[0]))
        pts = [(float(p.x), float(p.y)) for p in corners]
        return convex_hull([p for p, (x, y), (u, v) in zip(corners, pts, pts[-1:] + pts[:-1])
                            if max(abs(x - u), abs(y - v)) > tol * (1.0 + max(abs(x), abs(y)))])


SECTOR_SAMPLES = 512  # half-plane count across a smooth arc
EPS_FLOOR = 1e-9  # least eps of the exit's contact test and snap, and of sweep's vertex test
CONTACT_SLACK = 10.0  # multiple of that eps a line's contact may stand outside the container
GRAZING_DEN = 1e-12  # an edge whose normal meets the exit ray at a cosine this small binds no exit
CHAIN_SLACK = 10.0  # eps multiple a vertex may stand outside the sector in vertices_between


def sector_from_arc(body, arc: NormalArc) -> SectorRegion:
    """Sector of the body over an explicit normal arc."""
    if arc.width <= 0.0:
        return SectorRegion.from_planes(arc, (supporting_line(body, arc.start),))
    if is_polygonal(body):
        planes = [supporting_line(body, arc.start)]
        if arc.width < TWO_PI:
            planes.append(supporting_line(body, arc.end))
        for ang in edge_normal_angles(body):
            if arc.width >= TWO_PI:
                strict = True
            else:
                off = arc.clockwise_offset(ang)
                strict = EPS_ANGLE < off < arc.width - EPS_ANGLE
            if strict:
                planes.append(supporting_line(body, ang))
        if len(polygonal_vertices(body)) <= 2 and arc.width > math.pi / 2:
            # points and segments have vertex normal cones of width pi or
            # more; dropping interior normals is only sound between
            # constraints less than pi apart, so pad to <= pi/2 spacing
            extra = int(arc.width / (math.pi / 2))
            for k in range(1, extra + 1):
                ang = wrap_angle(arc.start - arc.width * k / (extra + 1))
                planes.append(supporting_line(body, ang))
        return SectorRegion.from_planes(arc, planes)
    # smooth: endpoints plus SECTOR_SAMPLES angles spread across the arc;
    # values come from one vectorized support sweep (contacts are not needed)
    ts = arc.angles(SECTOR_SAMPLES + 2)
    ct, st = np.cos(ts), np.sin(ts)
    return SectorRegion(arc, ct, st, support_batch(body, ct, st))


def expand_sector(l1: OrientedSupportLine, l2: OrientedSupportLine, body,
                  alpha: float, beta: float) -> SectorRegion:
    """Sector of the slide-turned pair; a superset of the original sector.

    l1 turns clockwise by alpha, l2 counterclockwise by beta; their sum
    must not exceed the clockwise gap between the line normals.  Using
    the whole gap collapses the arc to one angle, i.e. one half-plane.
    """
    if alpha < -EPS or beta < -EPS:
        raise ExpansionTooWide("negative turn angles")
    gap = cw_gap(l1.normal, l2.normal)
    if gap == 0.0:
        gap = TWO_PI
    if alpha + beta > gap + max(EPS, EPS_ANGLE):
        raise ExpansionTooWide(f"alpha+beta = {alpha + beta} exceeds gap {gap}")
    new_width = max(0.0, gap - alpha - beta)
    arc = NormalArc(wrap_angle(l1.normal - alpha), new_width)
    return sector_from_arc(body, arc)


# ---------------------------------------------------------------------------
# boundary exits

@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the container boundary; param is its ccw arc-length
    coordinate along the boundary."""

    location: Point
    param: float


def _vertex_near(container: ConvexPolygon, p: Point, tol: float) -> Optional[int]:
    fp = as_float_point(p)
    for i, v in enumerate(container.vertices):
        fv = as_float_point(v)
        if math.hypot(fp.x - fv.x, fp.y - fv.y) <= tol:
            return i
    return None


def boundary_exit(line: OrientedSupportLine, container: ConvexPolygon,
                  eps: float = EPS) -> BoundaryPoint:
    """Farthest point of the container along the line, travelled with the
    supported body on the left (the normal turned +90 degrees).

    The line's contact must lie inside the container.  The result does
    not depend on which point of the supported body the line carries as
    its contact; an exit within tolerance of a vertex snaps to it.
    """
    contact = as_float_point(line.contact0)
    fc = container.as_float()
    if not point_in_polygon(contact, fc, max(eps, EPS_FLOOR) * CONTACT_SLACK):
        raise ContactOutsideContainer(f"contact {contact} outside container")
    d = unit(wrap_angle(line.normal + math.pi / 2))

    t_best = math.inf
    edge_best = None
    for i in range(fc.n):
        hp = fc.edge_halfplane(i)
        nl = math.hypot(float(hp.nx), float(hp.ny))
        den = (float(hp.nx) * d.x + float(hp.ny) * d.y) / nl
        # grazing edges (ray essentially parallel, e.g. a line containing a
        # container edge) must not bind; the transverse edges set the exit
        if den <= GRAZING_DEN:
            continue
        t = -float(hp.value(contact)) / nl / den
        if t < t_best:
            t_best, edge_best = t, i
    if edge_best is None or not math.isfinite(t_best):
        raise ContactOutsideContainer("ray does not leave the container")
    t_best = max(t_best, 0.0)
    loc = Point(contact.x + t_best * d.x, contact.y + t_best * d.y)

    tol = max(eps, EPS_FLOOR) * (1.0 + fc.max_coord())
    vidx = _vertex_near(fc, loc, tol)
    if vidx is not None:
        return BoundaryPoint(as_float_point(fc.vertices[vidx]), fc.cumulative_lengths()[vidx])
    return BoundaryPoint(loc, fc.boundary_param(loc, edge_best))


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class BoundarySweep:
    """Clockwise boundary segment traced by the exit point between two lines."""

    start: BoundaryPoint
    end: BoundaryPoint
    covered: Tuple[int, ...]


def sweep(l_from: OrientedSupportLine, l_to: OrientedSupportLine,
          container: ConvexPolygon, eps: float = EPS,
          exits: Optional[dict] = None) -> BoundarySweep:
    """Boundary segment from the exit of l_from clockwise to l_to's.

    l_to is the clockwise successor of l_from among the common
    supporting lines of a body pair, so both lines support the pair's
    hull, and the exit of the hull's turning supporting line travels
    clockwise from one endpoint to the other.  The segment depends only
    on the two lines and the container.  The same line passed twice
    means a full turn and the sweep covers everything.  A dict passed as
    exits keeps each line's exit, so that the sweeps meeting at a line
    compute its exit once.
    """
    if exits is None:
        exits = {}
    full = l_from is l_to or cw_gap(l_from.normal, l_to.normal) <= EPS_ANGLE
    for line in (l_from,) if full else (l_from, l_to):
        if line not in exits:
            exits[line] = boundary_exit(line, container, eps)
    start = exits[l_from]
    end = start if full else exits[l_to]
    fc = container.as_float()
    perim = fc.perimeter
    cum = fc.cumulative_lengths()
    if full:
        order = sorted(range(fc.n), key=lambda i: (start.param - cum[i]) % perim)
        return BoundarySweep(start, end, tuple(order))
    length = (start.param - end.param) % perim
    tol = max(eps, EPS_FLOOR) * (1.0 + perim)
    hits = []
    for i in range(fc.n):
        off = (start.param - cum[i]) % perim
        if off >= perim - tol:
            hits.append((0.0, i))
        elif off <= length + tol:
            hits.append((min(off, length), i))
    hits.sort()
    return BoundarySweep(start, end, tuple(i for _, i in hits))


# ---------------------------------------------------------------------------
# vertex hit events

def vertex_hit_events(body, container: ConvexPolygon, eps: float = EPS):
    """The left events of the container vertices around the body.

    Returns ({vertex: normal}, inside).  A vertex strictly outside the body
    has one left event: the normal of the body's supporting line through
    the vertex whose exit, travelled with the body on the left, is that
    vertex.  It is found by one scan of a polygonal body's vertices, and in
    closed form for disks and ellipses.  inside lists the vertices in or on
    the body, ascending.
    """
    polygonal = is_polygonal(body)
    lefts, inside = {}, []
    for i, v in enumerate(container.vertices):
        normal = None
        if not body_contains_point(body, v, eps):
            normal = _left_normal_polygonal(body, v) if polygonal else _left_normal_smooth(body, v)
        if normal is None:
            inside.append(i)
        else:
            lefts[i] = normal
    return lefts, inside


def _left_normal_polygonal(body, g: Point) -> float:
    """Outward normal of the edge a -> g of hull(body u {g}), g outside the
    body.

    The predecessor a of g on that ccw hull leaves every vertex on or left
    of a -> g, the farthest one from g on ties; one scan finds it.  When
    every vertex lies on a line through g (a point, or a segment on g's
    line) the hull is the segment a g, and the normal is turned from it.
    """
    verts = polygonal_vertices(body)
    a, flat = verts[0], True
    for v in verts[1:]:
        turn = cross(a, g, v)
        flat = flat and turn == 0
        if turn < 0 or (turn == 0 and dot(v - g, v - g) > dot(a - g, a - g)):
            a = v
    if flat:
        return wrap_angle(angle_of(as_float_point(g) - as_float_point(a)) - math.pi / 2)
    d = g - a
    return angle_of(Point(d.y, -d.x))


def _left_normal_smooth(body, g: Point) -> Optional[float]:
    """Closed-form normal of the left tangent from g to a disk or an
    ellipse; None when g lies inside or on it.

    The affine map taking a disk or ellipse to the unit circle takes g to
    q with |q| > 1; there the left tangent's normal sits at angle(q) - psi
    (the map keeps orientation), with psi = arccos(1/|q|), and maps back
    through the inverse transpose.
    """
    fg = as_float_point(g)
    if isinstance(body, Disk):
        u, a, b = Point(1.0, 0.0), float(body.radius), float(body.radius)
    else:
        u, a, b = body.axes[0], float(body.a), float(body.b)
    c = as_float_point(body.center)
    dx, dy = fg.x - c.x, fg.y - c.y
    qx = (dx * u.x + dy * u.y) / a
    qy = (dy * u.x - dx * u.y) / b
    rho = math.hypot(qx, qy)
    if rho <= 1.0:
        return None
    m = math.atan2(qy, qx) - math.acos(1.0 / rho)
    mu, mv = math.cos(m) / a, math.sin(m) / b
    return angle_of(Point(mu * u.x - mv * u.y, mu * u.y + mv * u.x))


# ---------------------------------------------------------------------------
# vertices between two turned lines

def vertices_between(a: int, b: int, arc: NormalArc, body,
                     container: ConvexPolygon, eps: float = EPS):
    """Container vertices between the exits of the arc's turned lines.

    The start line's left exit lands on vertex a, the end line's right
    exit on vertex b.  Of the two closed clockwise vertex chains joining
    them, the one inside the body's sector over the arc is returned.
    """
    n = container.n

    def cw_chain(src: int, dst: int):
        out = [src]
        i = src
        while i != dst:
            i = (i - 1) % n
            out.append(i)
        return out

    chain = cw_chain(b, a)
    sec = sector_from_arc(body, arc)
    fc = container.as_float()
    if all(sec.contains_point(as_float_point(fc.vertices[i]), CHAIN_SLACK * eps) for i in chain):
        return chain
    return cw_chain(a, b)
