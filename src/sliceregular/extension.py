"""Extension operators: from slice data to axially symmetric domains."""

from __future__ import annotations

from .errors import (
    DegenerateUnits,
    DomainNotSymmetric,
    NoRealTrace,
    RealTraceMismatch,
)
from .expr import Ext, Poly, SliceExpr, StemFunction, _pair, _sphere, _stem_pair, evaluate
from .quaternion import ImaginaryUnit, Quaternion, UNIT_I, from_slice, pow2_scaled
from .representation import DEGENERATE_UNIT_TOL

REAL_TRACE_TOL = 1e-9
REAL_TRACE_SAMPLES = 32
# Real-axis window sampled when a stem declares no domain.
_DEFAULT_TRACE = (-1.0, 1.0)


def sphere_affine_coeffs(f: SliceExpr, x: float, y: float) -> tuple[Quaternion, Quaternion]:
    """(b, c) with f(x + y*I) = b + I*c for every I on the sphere x + y*S, y >= 0.

    A polynomial's is read off its stem at x + iy, any other node's computed
    with the canonical unit i; independence of that choice is a tested
    property of regular functions, not an input degree of freedom.
    """
    if isinstance(f, Poly):
        return _stem_pair(f.poly, x, y)
    _, b, c, _, k = _pair(f, q := from_slice(x, y, UNIT_I), _sphere(q))
    return pow2_scaled(b, k), pow2_scaled(c, k)


def _real_trace_points(r: StemFunction, s: StemFunction | None = None) -> list[float]:
    regions = [t.region for t in (r, s) if t is not None and t.region is not None]
    if not regions:
        lo, hi = _DEFAULT_TRACE
        return [lo + (hi - lo) * n / (REAL_TRACE_SAMPLES - 1) for n in range(REAL_TRACE_SAMPLES)]
    pts = regions[0].real_trace_samples(REAL_TRACE_SAMPLES)
    for region in regions[1:]:
        pts = [x for x in pts if region.contains(x, 0.0)]
    return pts


def extend(r: StemFunction, s: StemFunction, j: ImaginaryUnit, k: ImaginaryUnit) -> SliceExpr:
    """Unique regular extension of slice data r (on L_J) and s (on L_K).

    The two data must agree on the real trace of their (mirror) domains:
    at evenly spaced real points, the largest |r - s| is at most
    REAL_TRACE_TOL times the largest |r| or |s| there.  The extension is
    defined where both data are: r and s raise DomainError outside their
    regions.
    """
    if (j.u - k.u).norm() <= DEGENERATE_UNIT_TOL:
        raise DegenerateUnits("extension needs two distinct imaginary units")
    pts = _real_trace_points(r, s)
    if not pts:
        raise NoRealTrace("the slice domain does not meet the real axis")
    trace = [(x, r(x, 0.0), s(x, 0.0)) for x in pts]
    gap, x = max(((u - v).norm(), x) for x, u, v in trace)
    scale = max(max(u.norm(), v.norm()) for _, u, v in trace)
    if gap > REAL_TRACE_TOL * scale:
        raise RealTraceMismatch(f"slice data disagree on the real axis at x={x} "
                                f"(|r-s| = {gap:.3e} where |r|, |s| reach {scale:.3e})")
    return Ext(r=r, s=s, j=j, k=k)


def ext_from_holomorphic(f: StemFunction) -> SliceExpr:
    """Unique regular extension of data on a single slice L_J.

    The stem domain must be symmetric with respect to the real axis and meet
    it; its connectivity is not asked.  Realized as a two-slice extension
    with K = -J and the mirrored stem s(x + yK) = f(x - yJ), which reproduces
    the single-slice formula
      f~(x+yI) = 1/2 [f(x+yJ) + f(x-yJ)] + I 1/2 [J (f(x-yJ) - f(x+yJ))].
    Both stems check the same symmetric region, so the extension is defined
    exactly on the spheres through it.
    """
    if f.region is not None and not f.region.is_axis_symmetric():
        raise DomainNotSymmetric("single-slice extension needs a domain symmetric in the real axis")
    if f.region is not None and not f.region.meets_real_axis():
        raise NoRealTrace("the slice domain does not meet the real axis")
    mirror = StemFunction(
        func=lambda x, y, _f=f.func: _f(x, -y),
        unit=-f.unit,
        region=f.region.mirrored() if f.region is not None else None,
    )
    return Ext(r=f, s=mirror, j=f.unit, k=-f.unit)


def restriction_stem(f: SliceExpr, unit: ImaginaryUnit, region=None) -> StemFunction:
    """The restriction of an expression to the slice L_unit, as slice data."""
    def func(x: float, y: float) -> Quaternion:
        return evaluate(f, from_slice(x, y, unit))

    return StemFunction(func=func, unit=unit, region=region)
