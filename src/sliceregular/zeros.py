"""Zero sets: per-sphere classification, polynomial roots, Cauchy kernel.

Polynomial zero finding runs on f's own stem b + i*c (f(x + y*I) = b + I*c,
whose components p_k are polynomials in x + iy): f vanishes on x + yS only
where s = sum_k p_k^2, f^s on L_i, has a root, and those come in conjugate
pairs (real ones with even multiplicity).  Aberth simultaneous iteration
follows one root of each pair, each is refined on the stem, folded to a
candidate sphere (x, |y|) and classified through that affine structure.
"""

from __future__ import annotations

import bisect
import enum
import math

from .errors import NonConvergence
from .expr import Poly, SliceExpr, Star, _eval, recip_eval
from .extension import sphere_affine_coeffs
from .polynomial import SlicePolynomial, backward_bound, monomial_minus
from .quaternion import (
    _NORMAL, UNIT_I, ZERO, ImaginaryUnit, Quaternion, Value, negligible, pow2_product,
    quat_inv, scale_exponent,
)

CLASSIFY_TOL = 1e-8
SPHERE_DEDUP_TOL = 1e-8
ABERTH_MAX_ITER = 200
ABERTH_TOL = 1e-13
REFINE_STEPS = 8


class ZeroKind(enum.Enum):
    NONE = "none"
    ISOLATED = "isolated"
    SPHERICAL = "spherical"


class SphereZero(Value):
    """Classification of the zero set of a regular function on x + y*S."""

    __slots__ = ("x", "y", "kind", "unit", "residual", "unit_is_arbitrary", "converged")

    def __init__(self, x, y, kind, unit=None, residual=0.0, unit_is_arbitrary=False,
                 converged=True):  # explicit: Value's generic __init__ is several times slower
        self.x, self.y, self.kind, self.unit, self.residual = x, y, kind, unit, residual
        self.unit_is_arbitrary, self.converged = unit_is_arbitrary, converged


def sphere_zero_classify(f: SliceExpr, x: float, y: float,
                         tol: float = CLASSIFY_TOL) -> SphereZero:
    """Classify the zero set of f on the sphere x + y*S.

    Spherical iff |b| and |c| are at most ``tol``, which carries the scale of
    f; otherwise b + I*c = 0 is solved for I and accepted only when I lies
    on S to CLASSIFY_TOL and the residual |b + I*c| is at most ``tol`` (so 0
    is zero even at tol = 0).  For y = 0 the sphere is a single real point,
    where c = 0 and the residual is |b| = |f(x)|.  A polynomial's (b, c) is
    read off its stem at x + iy (sphere_affine_coeffs).
    """
    if y < 0:
        raise ValueError("sphere radius y must be nonnegative")
    b, c = sphere_affine_coeffs(f, x, y)
    nb, nc = b.norm(), c.norm()
    if y == 0.0:
        if nb <= tol:
            return SphereZero(x, 0.0, ZeroKind.ISOLATED, unit=UNIT_I,
                              residual=nb, unit_is_arbitrary=True)
        return SphereZero(x, 0.0, ZeroKind.NONE, residual=nb)
    if nb <= tol and nc <= tol:
        return SphereZero(x, y, ZeroKind.SPHERICAL, residual=max(nb, nc))
    if nc > tol:
        cand = -(b * quat_inv(c))
        if abs(cand.re()) < CLASSIFY_TOL and abs(cand.norm() - 1.0) < CLASSIFY_TOL:
            unit = ImaginaryUnit(cand)
            r = (b + unit.u * c).norm()
            if r <= tol:
                return SphereZero(x, y, ZeroKind.ISOLATED, unit=unit, residual=r)
    return SphereZero(x, y, ZeroKind.NONE, residual=min(nb, nc))


# ---------------------------------------------------------------------------
# Aberth simultaneous iteration on complex polynomials
# ---------------------------------------------------------------------------

def _poly_val_der(coeffs: list[complex], z: complex) -> tuple[complex, complex]:
    p = coeffs[-1]
    dp = 0j
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _cis(t: float) -> complex:
    """e^(it), bit for bit as cmath.exp(1j * t) gives it."""
    return complex(math.cos(t), math.sin(t))


def aberth_roots(coeffs: list[complex] | None, max_iter: int = ABERTH_MAX_ITER, *,
                 conjugate_pairs: bool = False, evaluator=None, starts=None) -> list[complex]:
    """All roots of a complex polynomial (a_0 + a_1 z + ... + a_n z^n).

    Deterministic starts on the Newton polygon of the |a_k|, as poly_roots'
    (_newton_polygon_edges): an edge of width w and radius R gets w starts
    R * e^(i (2 pi m/w + 0.4)).  A root stops when |p(z)| <= 1e-14 *
    backward_bound(|a|, |z|), the backward-error bound of its own
    evaluation on a/a_n, or when p == 0.  The radii and both stops are
    relative, so a polynomial in 2^j z has exactly 2^-j times the roots.
    Exactly zero a_0, ..., a_{j-1} give j roots 0, which are not iterated:
    a relative step never settles there.  Raises NonConvergence (with
    partial results) after ``max_iter`` sweeps, or with the zero roots alone
    when a radius is not a normal double, or p, p' or the bound is not
    finite at an iterate: an overflow is never a stop.

    Sweeps run in Gauss-Seidel order (Bini, Numer. Algorithms 13, 1996):
    each corrected iterate is written back at once, so each correction sums
    over the current iterates, those before it already updated in this
    sweep.  The step stop compares the step with the iterate before it.  A
    stopped root is left out of every later sweep: it is not moved, so its
    p and its stop test come out the same each time.  It still enters the
    other roots' corrections.

    ``conjugate_pairs=True`` states that the roots come in conjugate pairs:
    the coefficients must be real and n and the number of zero roots even
    (else ValueError), and a real root must have even multiplicity, as for a
    polynomial that is nonnegative on the real axis.  Then only n/2 roots
    are iterated, started at every second of the n radii (in increasing
    order) on the upper half circle at angles pi*(m + 1/2)/(n/2), and each
    one's correction also sums 1/(z_m - conj(z_l)) over the current
    iterates l, its own conjugate included, with the conjugates of those
    before it already updated in this sweep.  The iterated half, after half
    the zero roots, comes first in the result, then its conjugates in the
    same order; ``NonConvergence.partial`` has the same layout.

    ``evaluator`` and ``starts`` (one of each pair) come together and replace
    ``coeffs``: evaluator(z) gives p(z), p'(z) and its backward-error stop.
    """
    zeros: list[complex] = []
    if evaluator is None:
        nonzero = [k for k, c in enumerate(coeffs) if c != 0]
        j, n = (nonzero[0], nonzero[-1]) if nonzero else (0, 0)
        coeffs = list(coeffs[j: n + 1])
        if conjugate_pairs and (n % 2 or j % 2 or any(complex(c).imag != 0.0 for c in coeffs)):
            raise ValueError("conjugate_pairs requires real coefficients, even degree and zeros")
        n -= j
        zeros = [0j] * (j // 2 if conjugate_pairs else j)
        partial = zeros + [zl.conjugate() for zl in zeros] if conjugate_pairs else zeros
        if n < 1:
            return partial
        try:
            edges = _newton_polygon_edges([abs(c) for c in coeffs])
        except NonConvergence as exc:
            raise NonConvergence(str(exc), partial=partial) from None
        coeffs = [c / coeffs[-1] for c in coeffs]  # monic: p' ~ n R^(n-1) |a_n| stays in range
        abs_coeffs = [abs(c) for c in coeffs]
        if conjugate_pairs:
            half, radii = n // 2, [r for w, r in edges for _ in range(w)]
            starts = [radii[2 * m] * _cis(math.pi * (m + 0.5) / half) for m in range(half)]
        else:
            starts = [r * _cis(2.0 * math.pi * m / w + 0.4) for w, r in edges for m in range(w)]

        def evaluator(zm: complex) -> tuple[complex, complex, bool]:
            # At a multiple root Newton stalls at eps^(1/multiplicity), where no
            # step test fires; p at its own rounding level is as converged as it gets.
            p, dp = _poly_val_der(coeffs, zm)
            bound = backward_bound(abs_coeffs, abs(zm))
            if not all(map(math.isfinite, (p.real, p.imag, dp.real, dp.imag, bound))):
                raise NonConvergence("an iterate is out of floating-point range", partial=partial)
            return p, dp, p == 0 or abs(p) <= 1e-14 * bound
    z = list(starts)
    active = list(range(len(z)))
    mirror = [zl.conjugate() for zl in z] if conjugate_pairs else ()
    done = False
    for _ in range(max_iter):
        done = True
        moving = []
        for m in active:
            zm = z[m]
            p, dp, stop = evaluator(zm)
            if stop:
                continue
            moving.append(m)
            if dp == 0:
                z[m] = zm * (1.0 + 1e-6) + 1e-6
                done = False
            else:
                newton = p / dp
                s = 0j
                for zl in z[:m]:
                    s += 1.0 / (zm - zl)
                for zl in z[m + 1:]:
                    s += 1.0 / (zm - zl)
                for zl in mirror:
                    s += 1.0 / (zm - zl)
                denom = 1.0 - newton * s
                w = newton if denom == 0 else newton / denom
                z[m] = zm - w
                if not abs(w) <= ABERTH_TOL * abs(zm):  # a NaN step never settles
                    done = False
            if conjugate_pairs:
                mirror[m] = z[m].conjugate()
        active = moving
        if done:
            break
    z = zeros + z
    if conjugate_pairs:
        z += [zl.conjugate() for zl in z]
    if not done:
        raise NonConvergence("Aberth iteration did not converge", partial=z)
    return z


# ---------------------------------------------------------------------------
# Polynomial zero pipeline
# ---------------------------------------------------------------------------

def _newton_polygon_edges(abs_coeffs: list[float] | tuple[float, ...]) -> list[tuple[int, float]]:
    """(w, radius) per edge of the upper hull of (k, frexp(|a_k|)[1]) over
    the nonzero |a_k| (Bini, Numer. Algorithms 13, 1996), in increasing k:
    an edge of width w and exponent drop p has radius ldexp(2^((p % w)/w),
    p // w), so f(2^k q) has exactly 2^-k times the radii.  Raises
    NonConvergence unless every norm is finite and every radius normal."""
    if not all(map(math.isfinite, abs_coeffs)):
        raise NonConvergence("a coefficient's norm is out of floating-point range")
    hull: list[tuple[int, int]] = []
    for k, e in ((k, math.frexp(a)[1]) for k, a in enumerate(abs_coeffs) if a):
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                 <= (e - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()  # on or below the chord from hull[-2] to (k, e)
        hull.append((k, e))
    edges = []
    for (i, ei), (j, ej) in zip(hull, hull[1:]):
        w, p = j - i, ei - ej
        if not -1022 <= p // w <= 1023:
            raise NonConvergence("a zero is out of floating-point range at Aberth's start")
        edges.append((w, math.ldexp(2.0 ** ((p % w) / w), p // w)))
    return edges


def _stem_evaluator(f: SlicePolynomial):
    """aberth_roots' evaluator for s = sum_k p_k^2 from the stem p_k of f
    (center 0): one Horner pass gives p_k, p_k' and f's majorant m at |z|.
    s carries a rounding error of about eps * m * ||F||, ||F||^2 = sum_k
    |p_k|^2, so z stops when |s| <= 1e-14 * m * ||F||.  Where m leaves
    [2^-400, 2^400], p and p' are scaled by the power of two that brings m
    near 1 (scale_exponent, of f.scaled_majorant where m overflows), so the
    squares stay doubles; that is exact, so the iterates do not depend on it."""
    (p0, p1, p2, p3, top_abs), *rest = [(c.x0, c.x1, c.x2, c.x3, a) for c, a in
                                         zip(reversed(f.coeffs), reversed(f.abs_coeffs))]
    top = p0, p1, p2, p3

    def evaluator(z: complex) -> tuple[complex, complex, bool]:
        r = math.hypot(z.real, z.imag)
        (p0, p1, p2, p3), m = top, top_abs
        d0 = d1 = d2 = d3 = 0.0
        for c0, c1, c2, c3, a in rest:  # one statement each: no tuples built
            d0 = d0 * z + p0
            d1 = d1 * z + p1
            d2 = d2 * z + p2
            d3 = d3 * z + p3
            p0 = p0 * z + c0
            p1 = p1 * z + c1
            p2 = p2 * z + c2
            p3 = p3 * z + c3
            m = m * r + a
        if not 2.0 ** -400 <= m <= 2.0 ** 400:
            m, k = (m, 0) if m < math.inf else f.scaled_majorant(Quaternion(r))
            e = scale_exponent(m, k)
            t = math.ldexp(1.0, -e)
            p0, p1, p2, p3, d0, d1, d2, d3 = (v * t for v in (p0, p1, p2, p3, d0, d1, d2, d3))
            m = math.ldexp(m, k - e)
        s = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
        norm = math.hypot(p0.real, p0.imag, p1.real, p1.imag, p2.real, p2.imag, p3.real, p3.imag)
        stop = s == 0 or math.hypot(s.real, s.imag) <= 1e-14 * m * norm
        return s, 2.0 * (p0 * d0 + p1 * d1 + p2 * d2 + p3 * d3), stop
    return evaluator


def _stem_jet(f: SlicePolynomial, z: complex) -> tuple[complex, complex, complex, float]:
    """_refine's step at z from one Horner pass over f's coefficients (center
    0): the stem p_k, p_k', p_k''/2 and f's majorant m at |z|.  With rho the
    power of two just above |z| and t the one that brings m near 1, it
    returns rho and (s, s', s'') for s = sum_k P_k^2, P = p t, P' = (p' rho) t
    and P'' = (p'' rho^2) t: u = s/s' and its Newton step come out divided
    by rho, exactly, and |P| <= 1, |P'| <= 2n, |P''| <= 4n^2, so no square
    leaves the double range at tiny or huge zeros."""
    cs, top = f.coeffs, f.coeffs[-1]
    r = math.hypot(z.real, z.imag)
    p0, p1, p2, p3, m = top.x0, top.x1, top.x2, top.x3, f.abs_coeffs[-1]
    d0 = d1 = d2 = d3 = e0 = e1 = e2 = e3 = 0.0
    for c, a in zip(cs[-2::-1], f.abs_coeffs[-2::-1]):  # one statement each: no tuples built
        e0 = e0 * z + d0
        e1 = e1 * z + d1
        e2 = e2 * z + d2
        e3 = e3 * z + d3
        d0 = d0 * z + p0
        d1 = d1 * z + p1
        d2 = d2 * z + p2
        d3 = d3 * z + p3
        p0 = p0 * z + c.x0
        p1 = p1 * z + c.x1
        p2 = p2 * z + c.x2
        p3 = p3 * z + c.x3
        m = m * r + a
    m, k = (m, 0) if m < math.inf else f.scaled_majorant(Quaternion(r))
    rho = math.ldexp(1.0, scale_exponent(r))
    t = math.ldexp(1.0, -scale_exponent(m, k))
    p0, p1, p2, p3 = p0 * t, p1 * t, p2 * t, p3 * t
    d0, d1, d2, d3 = (d0 * rho) * t, (d1 * rho) * t, (d2 * rho) * t, (d3 * rho) * t
    t *= 2.0  # e = p''/2
    e0, e1, e2, e3 = (((e0 * rho) * rho) * t, ((e1 * rho) * rho) * t,
                      ((e2 * rho) * rho) * t, ((e3 * rho) * rho) * t)
    s = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
    s1 = 2.0 * (p0 * d0 + p1 * d1 + p2 * d2 + p3 * d3)
    s2 = 2.0 * (d0 * d0 + p0 * e0 + d1 * d1 + p1 * e1 + d2 * d2 + p2 * e2 + d3 * d3 + p3 * e3)
    return s, s1, s2, rho


def _refine(f: SlicePolynomial, z: complex) -> complex:
    """Newton on u = s/s' from z, where s = sum_k p_k^2 is f^s on L_i, from
    the stem p_k of f (center 0) and its first two derivatives, all from one
    Horner pass over f's coefficients per step (_stem_jet).

    u has a simple zero at every root of s, so the real and spherical zeros
    of f, double roots of s, converge quadratically too.  The jet is scaled
    by powers of two, exactly, so its squares stay doubles at any normal
    zero and the step does not depend on f's scale.
    """
    for _ in range(REFINE_STEPS):
        s, s1, s2, rho = _stem_jet(f, z)
        if s == 0 or s1 == 0:
            break
        u = s / s1
        du = 1.0 - u * (s2 / s1)
        if du == 0:
            break
        step = rho * (u / du)
        z -= step
        if abs(step) <= 1e-15 * abs(z):
            break
    return z


def _symm_complex_coeffs(f: SlicePolynomial) -> list[complex]:
    """Coefficients of f^s restricted to L_i.

    f^s has real coefficients c_k = sum_{r+t=k} <a_r, a_t>, and only those
    are formed: each is the real part of the coefficient symm_poly(f) gives,
    bit for bit, as star_poly sums it (r outer, t inner, from 0.0) and as
    Re(a_r * conj(a_t)) = a0 b0 + a1 b1 + a2 b2 + a3 b3 rounds.  The list
    has 2 deg f + 1 entries; its last one is 0 only where |a_n|^2 underflowed.
    """
    cs = [(c.x0, c.x1, c.x2, c.x3) for c in f.coeffs]
    out = [0.0] * (2 * len(cs) - 1)
    for r, (a0, a1, a2, a3) in enumerate(cs):
        for k, (b0, b1, b2, b3) in enumerate(cs, r):  # k = r + t
            out[k] += a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    return [complex(c) for c in out]


def poly_roots(f: SlicePolynomial) -> list[SphereZero]:
    """Candidate zero spheres of a quaternionic polynomial, classified.

    Pipeline: f is scaled up (never down, so nothing rounds) by the power
    of two t that brings its largest |a_n| into [1/2, 1), so its zero tests
    are normal doubles; the residuals are f's own.  In the offset w = q -
    center, Aberth iteration follows one root of each conjugate pair of s =
    sum_k p_k^2, evaluated from f's stem (_stem_evaluator) and started on
    f's Newton polygon (_newton_polygon_edges): an edge of width n gets n
    starts at angles pi*(m + 1/2)/n + 0.4.  Each root is refined on the stem
    (_refine), folded to a sphere (x, |y|), merged with the spheres before
    it and classified from one stem pass at x + iy; x = center + Re w is
    formed last.  A root z folds to the axis when |Im z| <
    SPHERE_DEDUP_TOL * |z|, and two spheres are one when they are within
    SPHERE_DEDUP_TOL times the larger modulus: each test is at the scale of
    the roots it compares, so small zeros survive beside large ones.  A
    value on a sphere is zero when at most CLASSIFY_TOL times
    backward_bound(|a_n|, |(x - center) + iy|), the majorant of f there
    (scaled_majorant where it overflows).  The starts and stops are
    relative too, so with center 0, f(2^k q) has exactly 2^-k times the
    zeros of f wherever its coefficients are normal, and 2^k f (k <= 0)
    exactly the zeros of f.

    When a_0 = ... = a_{j-1} are exactly 0, where Aberth's stop is never met,
    f = (q - center)^j g has one isolated zero at the center, with residual
    0, and g's zeros (a NonConvergence for g carries g's alone).

    Raises NonConvergence with an empty ``partial`` when a zero is out of
    floating-point range: a coefficient's norm or a start, or a refined zero
    or its zero test, is not a normal double.
    """
    if f.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    j = next(n for n, c in enumerate(f.coeffs) if c != ZERO)
    if j:  # f(center) = a_0 = 0 exactly
        g = SlicePolynomial(f.center, f.coeffs[j:])
        zero = SphereZero(f.center, 0.0, ZeroKind.ISOLATED, UNIT_I, unit_is_arbitrary=True)
        return sorted([zero, *(poly_roots(g) if g.degree else [])], key=lambda z: (z.x, z.y))
    t = math.ldexp(1.0, -min(scale_exponent(max(f.abs_coeffs)), 0))
    w = SlicePolynomial(0.0, [c * t for c in f.coeffs] if t > 1 else f.coeffs)  # t f in q - center
    starts = [r * _cis(math.pi * (m + 0.5) / n + 0.4) for n, r in _newton_polygon_edges(w.abs_coeffs)
              for m in range(n)]
    converged = True
    try:
        roots = aberth_roots(None, max(ABERTH_MAX_ITER, 12 * f.degree), conjugate_pairs=True,
                             evaluator=_stem_evaluator(w), starts=starts)
    except NonConvergence as exc:
        roots = list(exc.partial)
        converged = False
    seen: list[tuple[complex, float]] = []  # spheres x + iy about the center, tol
    moduli, kept = [], []  # the kept |x + iy| in ascending order, and their x + iy
    for z in roots[: f.degree]:
        z = _refine(w, z)
        z = complex(z.real, abs(z.imag) if abs(z.imag) >= SPHERE_DEDUP_TOL * abs(z) else 0.0)
        r, a = math.hypot(z.real, z.imag), abs(z)  # the zero and its zero test are normal doubles
        tol, k = pow2_product(CLASSIFY_TOL, 0, *w.scaled_majorant(Quaternion(r)))
        if k or not (r >= _NORMAL and tol >= _NORMAL):
            raise NonConvergence("a zero is out of floating-point range")
        # |z - s| >= ||z| - |s||: only spheres whose moduli agree to
        # SPHERE_DEDUP_TOL (twice that, for rounding) can merge with z
        lo = bisect.bisect_left(moduli, a * (1.0 - 2.0 * SPHERE_DEDUP_TOL))
        hi = bisect.bisect_right(moduli, a / (1.0 - 2.0 * SPHERE_DEDUP_TOL))
        if all(abs(z - kept[n]) > SPHERE_DEDUP_TOL * max(a, moduli[n]) for n in range(lo, hi)):
            n = bisect.bisect(moduli, a)
            moduli.insert(n, a)
            kept.insert(n, z)
            seen.append((z, tol))
    out = []
    expr = Poly(w)
    for z, tol in sorted(seen, key=lambda e: (e[0].real + f.center, e[0].imag)):
        zero = sphere_zero_classify(expr, z.real, z.imag, tol=tol)
        out.append(SphereZero(z.real + f.center, z.imag, zero.kind, zero.unit, zero.residual / t,
                              zero.unit_is_arbitrary, converged))
    if not converged:
        raise NonConvergence("root iteration did not converge", partial=out)
    return out


def star_zero_check(f: SliceExpr, g: SliceExpr, q: Quaternion) -> bool:
    """Does the zero theorem's predicate match a direct star evaluation?

    Predicate: f(q) = 0, or f(q) != 0 and g(f(q)^{-1} q f(q)) = 0.  A value
    is zero when at most CLASSIFY_TOL times its majorant (expr._eval), which
    for Ext and RawMap nodes is the value's own norm: only 0 is zero there.
    """
    v, m, k = _eval(f, q)
    if not negligible(v.norm(), CLASSIFY_TOL, m, k):  # f(q) != 0: the predicate reads g there
        v, m, k = _eval(g, quat_inv(v) * q * v)
    fg, m_fg, k_fg = _eval(Star(f, g), q)
    return negligible(v.norm(), CLASSIFY_TOL, m, k) == negligible(fg.norm(), CLASSIFY_TOL, m_fg, k_fg)


def cauchy_kernel(s: Quaternion, q: Quaternion) -> Quaternion:
    """The slice Cauchy kernel (q^2 - 2 Re(s) q + |s|^2)^{-1} (q - conj(s)), the
    regular reciprocal of q - s: singular on the sphere Re(s) + |Im(s)|*S
    where |f^s(q)| <= RECIP_SINGULAR_TOL * (|s| + |q|)^2.  recip_eval scales
    by powers of two, so it is homogeneous of degree -1, exactly."""
    return recip_eval(Poly(monomial_minus(s)), q)


def kernel_vs_recip_residual(s: Quaternion, q: Quaternion) -> float:
    """|cauchy_kernel - recip_eval of q - s|: 0, as the kernel is that reciprocal."""
    return (cauchy_kernel(s, q) - recip_eval(Poly(monomial_minus(s)), q)).norm()
