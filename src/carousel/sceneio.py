"""Scene documents: a versioned JSON schema and a canonical serializer.

Serialization is fully deterministic: keys are sorted, floats carry 17
significant digits, exact-mode scalars travel as "numerator/denominator"
strings so nothing is lost to binary rounding.  parse(serialize(x))
reproduces x for every document this package emits.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Tuple

from .bodies import ContainmentResult, Disk, Ellipse, PointBody, PolygonBody
from .kernel import ConvexPolygon, Point
from .rule import Certificate, ConstructiveTrace, Scene, Tolerances
from .tangency import CslArcs, CslIdentical, CslLines, OrientedSupportLine

SCHEMA_VERSION = "1"


class DocumentError(ValueError):
    """Malformed or semantically invalid scene document."""


# ---------------------------------------------------------------------------
# canonical JSON

def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, Fraction):
        out.append(json.dumps(f"{obj.numerator}/{obj.denominator}"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            out.append("null")
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise DocumentError("object keys must be strings")
            if k:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise DocumentError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# scalars and geometry

def _scalar_out(v, exact: bool):
    if exact:
        f = Fraction(v)
        return f
    return float(v)


def _finite(v) -> float:
    """float(v) for a finite value; json.load also yields NaN and infinities."""
    x = float(v)
    if not math.isfinite(x):
        raise DocumentError(f"finite number expected, got {v!r}")
    return x


def _scalar_in(v, exact: bool):
    """A number or "p/q" string; a zero q or a float overflow raises an
    ArithmeticError, which the document readers report as DocumentError."""
    if isinstance(v, str):
        num, _, den = v.partition("/")
        f = Fraction(int(num), int(den or "1"))
        return f if exact else _finite(f)
    if exact:
        if isinstance(v, int):
            return Fraction(v)
        raise DocumentError(f"exact scalar expected, got {v!r}")
    return _finite(v)


def _point_out(p: Point, exact: bool):
    return [_scalar_out(p.x, exact), _scalar_out(p.y, exact)]


def _point_in(v, exact: bool) -> Point:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise DocumentError(f"point expected, got {v!r}")
    return Point(_scalar_in(v[0], exact), _scalar_in(v[1], exact))


def body_to_doc(body, exact: bool) -> dict:
    if isinstance(body, PolygonBody) and body.poly.n == 1:
        return {"kind": "point", "point": _point_out(body.poly.vertices[0], exact)}
    if isinstance(body, PolygonBody):
        return {"kind": "polygon",
                "vertices": [_point_out(p, exact) for p in body.poly.vertices]}
    if isinstance(body, Disk):
        return {"kind": "disk", "center": _point_out(body.center, exact),
                "radius": _scalar_out(body.radius, exact)}
    if isinstance(body, Ellipse):
        return {"kind": "ellipse", "center": _point_out(body.center, exact),
                "semi_major": _scalar_out(body.a, exact),
                "semi_minor": _scalar_out(body.b, exact),
                "rotation": float(body.angle)}
    raise DocumentError(f"cannot serialize body {type(body).__name__}")


def body_from_doc(doc: dict, exact: bool):
    if not isinstance(doc, dict):
        raise DocumentError("body document must be an object")
    try:
        kind = doc["kind"]
        if kind == "polygon":
            return PolygonBody(ConvexPolygon(
                tuple(_point_in(p, exact) for p in doc["vertices"])))
        if kind == "disk":
            return Disk(_point_in(doc["center"], exact),
                        _scalar_in(doc["radius"], exact))
        if kind == "ellipse":
            return Ellipse(_point_in(doc["center"], exact),
                           _scalar_in(doc["semi_major"], exact),
                           _scalar_in(doc["semi_minor"], exact),
                           _finite(doc["rotation"]))
        if kind == "point":
            return PointBody(_point_in(doc["point"], exact))
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise DocumentError(f"bad body document: {exc}") from exc
    raise DocumentError(f"unknown body kind {doc.get('kind')!r}")


# ---------------------------------------------------------------------------
# scenes and annotations

def scene_to_doc(scene: Scene) -> dict:
    exact = scene.mode == "exact"
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": scene.mode,
        "tolerances": {"eps": scene.tol.eps},
        "G": {"vertices": [_point_out(p, exact) for p in scene.container.vertices]},
        "A0": body_to_doc(scene.a0, exact),
        "A1": body_to_doc(scene.a1, exact),
    }


def scene_from_doc(doc: dict) -> Tuple[Scene, dict]:
    try:
        if not isinstance(doc, dict):
            raise DocumentError("scene document must be an object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise DocumentError(f"unsupported schema {doc.get('schema_version')!r}")
        mode = doc.get("mode", "float")
        if mode not in ("float", "exact"):
            raise DocumentError(f"unknown mode {mode!r}")
        exact = mode == "exact"
        tol_doc = doc.get("tolerances", {})
        if not isinstance(tol_doc, dict):
            raise DocumentError("tolerances must be an object")
        tol = Tolerances(_finite(tol_doc.get("eps", 1e-9)))
        _finite(tol_doc.get("eps_angle", 0.0))  # older documents' key: checked, then ignored
        container = ConvexPolygon(tuple(_point_in(p, exact)
                                        for p in doc["G"]["vertices"]))
        a0 = body_from_doc(doc["A0"], exact)
        a1 = body_from_doc(doc["A1"], exact)
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        if isinstance(exc, DocumentError):
            raise
        raise DocumentError(f"bad scene document: {exc}") from exc
    scene = Scene(a0, a1, container, mode, tol)
    return scene, doc.get("annotations", {})


def line_to_doc(line: OrientedSupportLine) -> dict:
    out = {"normal": float(line.normal), "offset": float(line.offset),
           "contact0": [float(line.contact0.x), float(line.contact0.y)]}
    if line.contact1 is not None:
        out["contact1"] = [float(line.contact1.x), float(line.contact1.y)]
    return out


def csl_to_doc(csl) -> dict:
    if isinstance(csl, CslIdentical):
        return {"kind": "IdenticalBodies"}
    if isinstance(csl, CslArcs):
        return {"kind": "InfiniteArcs",
                "arcs": [[float(a), float(b)] for a, b in csl.arcs]}
    if isinstance(csl, CslLines):
        return {"kind": "Finite", "count": csl.count,
                "degenerate": csl.degenerate, "notes": list(csl.notes),
                "lines": [line_to_doc(l) for l in csl.lines]}
    raise DocumentError(f"cannot serialize {type(csl).__name__}")


def _containment_to_doc(res: ContainmentResult) -> dict:
    out = {"contained": res.contained, "margin": float(res.margin)}
    if res.witness_angle is not None:
        out["witness_angle"] = float(res.witness_angle)
    if res.escaping_point is not None:
        out["escaping_point"] = [float(res.escaping_point.x),
                                 float(res.escaping_point.y)]
    return out


def certificate_to_doc(cert: Certificate) -> dict:
    out = {"verdict": cert.verdict, "fragile": cert.fragile,
           "min_margin": float(cert.min_margin)}
    if cert.i is not None:
        out["i"] = cert.i
        out["j"] = cert.j
    if cert.proof is not None:
        out["proof"] = _containment_to_doc(cert.proof)
    if cert.refutations is not None:
        out["refutations"] = [
            {"i": ij[0], "j": ij[1], **_containment_to_doc(res)}
            for ij, res in cert.refutations
        ]
    if cert.degenerate_reason:
        out["degenerate_reason"] = cert.degenerate_reason
    return out


def trace_to_doc(trace: ConstructiveTrace) -> dict:
    return {
        "pair_index": trace.pair_index,
        "from_normal": float(trace.from_normal),
        "to_normal": float(trace.to_normal),
        "delta": float(trace.delta),
        "dominant": trace.dominant,
        "case": trace.case,
        "witness": list(trace.witness) if trace.witness else None,
        "notes": list(trace.notes),
    }


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def save_document(path: str, doc: dict) -> None:
    text = canonical_dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
