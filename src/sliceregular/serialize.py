"""JSON encodings for quaternions, polynomials, expressions and domains.

All numbers are IEEE-754 doubles; emitted values re-parse to equal in-memory
values (Python serializes floats with shortest round-trip representation).
"""

from __future__ import annotations

import math

from .errors import NonFiniteValue
from .expr import Conj, Ext, Poly, Recip, RightScalar, SliceExpr, Star, Sum, Symm
from .extension import ext_from_holomorphic, restriction_stem
from .polynomial import SlicePolynomial
from .quaternion import ImaginaryUnit, Quaternion
from .representation import (
    DEFAULT_GRID_STEP, AxialDomain, Disc, Rect, SliceRegion, raster_cells, symmetric_completion,
)
from .zeros import SphereZero, ZeroKind


# Bounds on a decoded expression tree: its depth keeps evaluation's recursion
# far below the interpreter's limit, and its cost (_eval_cost, leaf reads per
# point; 2^depth for a chain of conj nodes) bounds the recursion over the
# internal nodes, and so the time.  A polynomial leaf makes one pass per point
# whatever its reads.
MAX_EXPR_DEPTH = 64
MAX_EVAL_COST = 4096

# Op tags of the expression nodes with one child "f", or with "f" and "g".
_UNARY_OPS = {"conj": Conj, "symm": Symm, "recip": Recip}
_BINARY_OPS = {"star": Star, "sum": Sum}

# Bound on the raster that classifies an extend domain (not an ext node's,
# which is never classified) at its grid step (representation.raster_cells).
# The sweep's time grows with the columns times the shapes and its memory
# with the runs of cells it finds, never with the cells themselves.
MAX_RASTER_CELLS = 10 ** 6

# Bound on the shapes of a decoded domain: classification and the symmetry
# test of an ext node's domain (SliceRegion.is_axis_symmetric, quadratic in
# the shapes) take time in proportion to it.
MAX_SHAPES = 256

# Bound on the degree of a decoded polynomial: roots of a degree-64
# polynomial iterates on f^s of degree 128, for up to 6 * 128 sweeps.
MAX_DEGREE = 64

# Longest echo of a rejected value in a decode error message.
MAX_ECHO = 200


class DecodeError(ValueError):
    """Malformed JSON payload (wrong shape, missing key, non-finite number,
    a domain size that is not positive, a polynomial over MAX_DEGREE, a
    domain over MAX_SHAPES shapes, or an extend domain with a raster over
    MAX_RASTER_CELLS)."""


def _echo(value) -> str:
    """repr of a rejected value, cut to MAX_ECHO characters."""
    text = repr(value)
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO] + "..."


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DecodeError(f"{what} must be a number, got {_echo(value)}")
    x = float(value)
    if not math.isfinite(x):
        raise DecodeError(f"{what} must be finite, got {_echo(value)}")
    return x


def quaternion_to_json(q: Quaternion) -> list[float]:
    """Raises NonFiniteValue for a non-finite component (an overflowed result)."""
    out = [q.x0, q.x1, q.x2, q.x3]
    if not all(map(math.isfinite, out)):
        raise NonFiniteValue(f"result is not a finite quaternion: {q!r}")
    return out


def quaternion_from_json(data) -> Quaternion:
    if not isinstance(data, list) or len(data) != 4:
        raise DecodeError(f"quaternion must be an array of 4 doubles, got {_echo(data)}")
    return Quaternion(*(_finite(v, "quaternion component") for v in data))


def poly_to_json(p: SlicePolynomial) -> dict:
    return {"center": p.center, "coeffs": [quaternion_to_json(c) for c in p.coeffs]}


def poly_from_json(data) -> SlicePolynomial:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise DecodeError(f"polynomial must be an object with 'coeffs', got {_echo(data)}")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise DecodeError("polynomial 'coeffs' must be a non-empty array")
    if len(coeffs) > MAX_DEGREE + 1:
        raise DecodeError(f"polynomial of {len(coeffs)} coefficients exceeds degree {MAX_DEGREE}")
    center = _finite(data.get("center", 0.0), "polynomial center")
    return SlicePolynomial(center, tuple(quaternion_from_json(c) for c in coeffs))


def domain_from_json(data, grid_step: float = DEFAULT_GRID_STEP) -> AxialDomain:
    """The domain, classified by symmetric_completion at its own "grid_step"
    key if any, else at ``grid_step``; its raster there is bounded."""
    region = region_from_json(data)
    step = _grid_step(data, grid_step)
    cells = raster_cells(region, step)
    if cells > MAX_RASTER_CELLS:
        raise DecodeError(f"domain raster of {cells:.3g} cells at grid step {step!r} "
                          f"exceeds {MAX_RASTER_CELLS}")
    return symmetric_completion(region, grid_step=step)


def _grid_step(data: dict, default: float) -> float:
    """The domain's "grid_step" key if any, else ``default``; finite and > 0."""
    step = _finite(data.get("grid_step", default), "grid step")
    if step <= 0.0:
        raise DecodeError(f"grid step must be positive, got {step!r}")
    return step


def region_from_json(data) -> SliceRegion:
    if not isinstance(data, dict):
        raise DecodeError(f"domain must be an object, got {_echo(data)}")
    boxes, discs = data.get("boxes", []), data.get("discs", [])
    if not (isinstance(boxes, list) and isinstance(discs, list)):
        raise DecodeError(f"domain 'boxes' and 'discs' must be arrays, got {_echo(data)}")
    if len(boxes) + len(discs) > MAX_SHAPES:
        raise DecodeError(f"domain of {len(boxes) + len(discs)} shapes exceeds {MAX_SHAPES}")
    shapes = []
    for box in boxes:
        if not isinstance(box, dict):
            raise DecodeError(f"domain box must be an object, got {_echo(box)}")
        x0 = _finite(_field(box, "x0"), "box x0")
        x1 = _finite(_field(box, "x1"), "box x1")
        y1 = _finite(_field(box, "y1"), "box y1")
        y0 = _finite(box.get("y0", 0.0), "box y0")
        if not (x0 < x1 and y0 < y1):
            raise DecodeError(f"domain box needs x0 < x1 and y0 < y1, got {_echo(box)}")
        shapes.append(Rect(x0, x1, y0, y1))
    for disc in discs:
        if not isinstance(disc, dict):
            raise DecodeError(f"domain disc must be an object, got {_echo(disc)}")
        if "r" not in disc:
            _missing("r")
        cx = _finite(disc.get("cx", 0.0), "disc cx")
        cy = _finite(disc.get("cy", 0.0), "disc cy")
        r = _finite(disc["r"], "disc r")
        if r <= 0.0:
            raise DecodeError(f"disc radius must be positive, got {r!r}")
        shapes.append(Disc(cx, cy, r))
    if not shapes:
        raise DecodeError("domain needs at least one box or disc")
    return SliceRegion(tuple(shapes))


def _missing(key: str):
    raise DecodeError(f"missing required key {key!r}")


def _field(data: dict, key: str):
    return data[key] if key in data else _missing(key)


def expr_to_json(f: SliceExpr) -> dict:
    if isinstance(f, Poly):
        out = poly_to_json(f.poly)
        out["op"] = "poly"
        return out
    if isinstance(f, Star):
        return {"op": "star", "f": expr_to_json(f.f), "g": expr_to_json(f.g)}
    if isinstance(f, Conj):
        return {"op": "conj", "f": expr_to_json(f.f)}
    if isinstance(f, Symm):
        return {"op": "symm", "f": expr_to_json(f.f)}
    if isinstance(f, Recip):
        return {"op": "recip", "f": expr_to_json(f.f)}
    if isinstance(f, Sum):
        return {"op": "sum", "f": expr_to_json(f.f), "g": expr_to_json(f.g)}
    if isinstance(f, RightScalar):
        return {"op": "rscale", "f": expr_to_json(f.f), "a": quaternion_to_json(f.a)}
    raise DecodeError(f"expression node has no JSON encoding: {type(f).__name__}")


def expr_from_json(data, depth: int = 1) -> SliceExpr:
    """Decode an expression tree; ``depth`` is the level of ``data`` in the
    tree.  Trees over MAX_EXPR_DEPTH or MAX_EVAL_COST are rejected."""
    if depth > MAX_EXPR_DEPTH:
        raise DecodeError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
    if not isinstance(data, dict) or not isinstance(data.get("op"), str):
        raise DecodeError(f"expression must be an object with an 'op' tag, got {_echo(data)}")
    op = data["op"]

    def child(key: str) -> SliceExpr:
        return expr_from_json(_field(data, key), depth + 1)

    if op == "poly":
        f = Poly(poly_from_json(data))
    elif op in _UNARY_OPS:
        f = _UNARY_OPS[op](child("f"))
    elif op in _BINARY_OPS:
        f = _BINARY_OPS[op](child("f"), child("g"))
    elif op == "rscale":
        f = RightScalar(child("f"), quaternion_from_json(_field(data, "a")))
    elif op == "ext":
        # Stems are callables; over the wire an extension is specified by a
        # polynomial stem restricted to one slice (plus an optional domain).
        if "stem" not in data or "slice" not in data:
            raise DecodeError("ext expression needs 'stem' (polynomial) and 'slice' (unit)")
        poly = poly_from_json(data["stem"])
        unit_q = quaternion_from_json(data["slice"])
        try:
            unit = ImaginaryUnit(unit_q)
        except Exception as exc:
            raise DecodeError(f"'slice' is not an imaginary unit: {exc}") from exc
        region = None
        if "domain" in data:
            # the stems' regions decide membership, so the step is only validated
            region = region_from_json(data["domain"])
            _grid_step(data["domain"], DEFAULT_GRID_STEP)
        f = ext_from_holomorphic(restriction_stem(Poly(poly), unit, region=region))
    else:
        raise DecodeError(f"unknown expression op {_echo(op)}")
    if depth == 1 and _eval_cost(f) > MAX_EVAL_COST:
        raise DecodeError(f"expression costs more than {MAX_EVAL_COST} leaf evaluations per point")
    return f


def _eval_cost(f: SliceExpr, pair: bool = False) -> int:
    """Leaf reads of expr._eval at one point (of expr._pair if ``pair``): the
    recursion over the internal nodes visits as many leaves.  The reads of
    one polynomial leaf share one pass (expr._sphere's table)."""
    if pair and not isinstance(f, Poly):
        return 2 * _eval_cost(f)
    if isinstance(f, (Conj, Symm, Recip)):
        return _eval_cost(f.f, pair=True)
    if isinstance(f, (Sum, Star)):
        return _eval_cost(f.f) + _eval_cost(f.g, pair=isinstance(f, Star))
    return _eval_cost(f.f) if isinstance(f, RightScalar) else 1


def sphere_zero_to_json(z: SphereZero) -> dict:
    out = {"x": z.x, "y": z.y, "kind": z.kind.value, "residual": z.residual}
    if z.kind is ZeroKind.ISOLATED and z.unit is not None and not z.unit_is_arbitrary:
        out["unit"] = quaternion_to_json(z.unit.u)
    return out
