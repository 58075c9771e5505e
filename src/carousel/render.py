"""Deterministic SVG rendering of scenes and their annotations.

Output is plain SVG 1.1 text assembled from fixed-format numbers, so
identical inputs give byte-identical files.  The drawing sits in a
single flipped group, keeping stored coordinates in the mathematical
y-up convention.  Layer order: sectors (a light sector stored in the
document under the dark base), container, sweeps, bodies, common
supporting lines (dashed), markers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

DEFAULT_LAYERS = ("sectors", "container", "sweeps", "bodies", "csl", "markers")
MARGIN = 0.08  # padding around the container, as a share of its span
CONTAINER_STROKE = "#000000"
BODY_FILLS = ("#d6272880", "#1f77b480")
BODY_STROKES = ("#d62728", "#1f77b4")
CSL_STROKE = "#555555"
SECTOR_FILLS = ("#9e9e9e", "#dddddd")  # dark base, light (documents may store one)
SWEEP_STROKES = ("#1f77b4", "#d62728")
MARKER_FILL = "#111111"


@dataclass(frozen=True)
class RenderSpec:
    width: int = 720
    height: int = 720
    layers: Tuple[str, ...] = DEFAULT_LAYERS


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _points_attr(points: Iterable[Tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


OUTLINE_SAMPLES = 96  # polygon vertices drawn per disk or ellipse


def _ellipse_outline(center, a, b, rot):
    cr, sr = math.cos(rot), math.sin(rot)
    out = []
    for k in range(OUTLINE_SAMPLES):
        t = 2.0 * math.pi * k / OUTLINE_SAMPLES
        x, y = a * math.cos(t), b * math.sin(t)
        out.append((center[0] + cr * x - sr * y, center[1] + sr * x + cr * y))
    return out


def _body_outline(doc: dict):
    kind = doc["kind"]
    if kind == "polygon":
        return [(float(x), float(y)) for x, y in _floatpts(doc["vertices"])]
    if kind == "disk":
        c = _floatpt(doc["center"])
        return _ellipse_outline(c, _num(doc["radius"]), _num(doc["radius"]), 0.0)
    if kind == "ellipse":
        return _ellipse_outline(_floatpt(doc["center"]), _num(doc["semi_major"]),
                                _num(doc["semi_minor"]), float(doc["rotation"]))
    if kind == "point":
        return [_floatpt(doc["point"])]
    raise ValueError(f"unknown body kind {kind!r}")


def _num(v) -> float:
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return int(num) / int(den or "1")
    return float(v)


def _floatpt(p) -> Tuple[float, float]:
    return (_num(p[0]), _num(p[1]))


def _floatpts(pts) -> List[Tuple[float, float]]:
    return [_floatpt(p) for p in pts]


def render_scene_doc(doc: dict, spec: RenderSpec = RenderSpec()) -> str:
    """SVG text for a scene document with optional annotation layers."""
    g_pts = _floatpts(doc["G"]["vertices"])
    xs = [p[0] for p in g_pts]
    ys = [p[1] for p in g_pts]
    minx, maxx, miny, maxy = min(xs), max(xs), min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, 1e-9)
    pad = MARGIN * span
    minx, maxx = minx - pad, maxx + pad
    miny, maxy = miny - pad, maxy + pad
    sx = min(spec.width / (maxx - minx), spec.height / (maxy - miny))
    tx = -minx * sx
    ty = maxy * sx  # y flip: screen_y = ty - sx * y
    lw = 1.6 / sx   # 1.6 px strokes expressed in world units

    ann = doc.get("annotations", {})
    body_docs = (doc["A0"], doc["A1"])
    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">')
    parts.append(
        f'<g transform="matrix({_fmt(sx)} 0 0 {_fmt(-sx)} {_fmt(tx)} {_fmt(ty)})">')

    for layer in spec.layers:
        if layer == "sectors":
            for sec in reversed(ann.get("sectors", [])):
                tone = SECTOR_FILLS[0] if sec.get("tone") == "dark" \
                    else SECTOR_FILLS[1]
                if sec.get("clipped"):
                    parts.append(f'<polygon points="{_points_attr(_floatpts(sec["clipped"]))}" '
                                 f'fill="{tone}" stroke="none"/>')
        elif layer == "container":
            parts.append(f'<polygon points="{_points_attr(g_pts)}" fill="none" '
                         f'stroke="{CONTAINER_STROKE}" stroke-width="{_fmt(lw)}"/>')
        elif layer == "sweeps":
            for k, sw in enumerate(ann.get("sweeps", [])):
                color = SWEEP_STROKES[k % 2]
                pts = _floatpts(sw["points"])
                parts.append(f'<polyline points="{_points_attr(pts)}" fill="none" '
                             f'stroke="{color}" stroke-width="{_fmt(2.5 * lw)}" '
                             f'stroke-linecap="round"/>')
        elif layer == "bodies":
            for k, bdoc in enumerate(body_docs):
                outline = _body_outline(bdoc)
                if len(outline) == 1:
                    x, y = outline[0]
                    parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                                 f'r="{_fmt(2.0 * lw)}" fill="{BODY_STROKES[k]}"/>')
                elif len(outline) == 2:
                    (x1, y1), (x2, y2) = outline
                    parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                                 f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                                 f'stroke="{BODY_STROKES[k]}" '
                                 f'stroke-width="{_fmt(1.5 * lw)}"/>')
                else:
                    parts.append(f'<polygon points="{_points_attr(outline)}" '
                                 f'fill="{BODY_FILLS[k]}" '
                                 f'stroke="{BODY_STROKES[k]}" '
                                 f'stroke-width="{_fmt(lw)}"/>')
        elif layer == "csl":
            csl = ann.get("csl")
            if csl and csl.get("kind") == "Finite":
                reach = 2.0 * span
                for line in csl["lines"]:
                    t = float(line["normal"])
                    ox, oy = float(line["offset"]) * math.cos(t), \
                        float(line["offset"]) * math.sin(t)
                    dx, dy = -math.sin(t), math.cos(t)
                    parts.append(
                        f'<line x1="{_fmt(ox - reach * dx)}" y1="{_fmt(oy - reach * dy)}" '
                        f'x2="{_fmt(ox + reach * dx)}" y2="{_fmt(oy + reach * dy)}" '
                        f'stroke="{CSL_STROKE}" stroke-width="{_fmt(lw)}" '
                        f'stroke-dasharray="{_fmt(4 * lw)} {_fmt(4 * lw)}"/>')
        elif layer == "markers":
            for sw in ann.get("sweeps", []):
                pts = _floatpts(sw["points"])
                for x, y in (pts[0], pts[-1]):
                    parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                                 f'r="{_fmt(1.8 * lw)}" fill="{MARKER_FILL}"/>')
            csl = ann.get("csl")
            if csl and csl.get("kind") == "Finite":
                for line in csl["lines"]:
                    for key in ("contact0", "contact1"):
                        if key in line:
                            x, y = line[key]
                            parts.append(f'<circle cx="{_fmt(float(x))}" cy="{_fmt(float(y))}" '
                                         f'r="{_fmt(1.4 * lw)}" fill="{MARKER_FILL}"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
