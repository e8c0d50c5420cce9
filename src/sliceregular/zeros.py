"""Zero sets: per-sphere classification, polynomial roots, Cauchy kernel.

Polynomial zero finding goes through the symmetrization: f^s has real
coefficients and equals |f|^2 on the real axis, so the roots of its
restriction to L_i come in conjugate pairs (real ones with even
multiplicity).  Aberth simultaneous iteration follows one root of each pair,
each is refined on f's own stem b + i*c (f(x + y*I) = b + I*c, whose
components are polynomials in x + iy), folded to a candidate sphere (x, |y|)
and classified through that affine structure.
"""

from __future__ import annotations

import enum
import math

from .errors import NonConvergence, SingularPoint
from .expr import Poly, SliceExpr, Star, _eval, evaluate, recip_eval
from .extension import sphere_affine_coeffs
from .polynomial import SlicePolynomial, backward_bound
from .quaternion import ImaginaryUnit, Quaternion, UNIT_I, ZERO, Value, quat_inv, slice_coords

CLASSIFY_TOL = 1e-8
SPHERE_DEDUP_TOL = 1e-8
ABERTH_MAX_ITER = 200
ABERTH_TOL = 1e-13
KERNEL_SINGULAR_TOL = 1e-10
REFINE_STEPS = 8


class ZeroKind(enum.Enum):
    NONE = "none"
    ISOLATED = "isolated"
    SPHERICAL = "spherical"


class SphereZero(Value):
    """Classification of the zero set of a regular function on x + y*S."""

    __slots__ = ("x", "y", "kind", "unit", "residual", "unit_is_arbitrary", "converged")
    _defaults = {"unit": None, "residual": 0.0, "unit_is_arbitrary": False, "converged": True}


def sphere_zero_classify(f: SliceExpr, x: float, y: float,
                         tol: float = CLASSIFY_TOL) -> SphereZero:
    """Classify the zero set of f on the sphere x + y*S.

    Spherical iff |b| and |c| are at most ``tol``, which carries the scale of
    f; otherwise b + I*c = 0 is solved for I and accepted only when I lies
    on S to CLASSIFY_TOL and the residual |b + I*c| is at most ``tol`` (so 0
    is zero even at tol = 0).  For y = 0 the sphere is a single real point.
    """
    if y < 0:
        raise ValueError("sphere radius y must be nonnegative")
    if y == 0.0:
        r = evaluate(f, Quaternion(x)).norm()
        if r <= tol:
            return SphereZero(x, 0.0, ZeroKind.ISOLATED, unit=UNIT_I,
                              residual=r, unit_is_arbitrary=True)
        return SphereZero(x, 0.0, ZeroKind.NONE, residual=r)
    b, c = sphere_affine_coeffs(f, x, y)
    nb, nc = b.norm(), c.norm()
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


def aberth_roots(coeffs: list[complex], max_iter: int = ABERTH_MAX_ITER, *,
                 conjugate_pairs: bool = False) -> list[complex]:
    """All roots of a complex polynomial (a_0 + a_1 z + ... + a_n z^n).

    Deterministic start with a fixed angular offset on a circle that holds
    Cauchy's radius (the positive root of z^n - sum_{k<n} |c_k| z^k,
    c = a/a_n), and so every root.  2^e is the smallest power of two that
    holds it: e comes down from Fujiwara's 1 + max_k ceil(e_k / k), 2^e_k
    just above a nonzero |c_{n-k}|, while sum_{k<n} |c_k| 2^((e-1)(k-n))
    <= 1.  For -1021 <= e <= 1022 ten bisections of t in [1/2, 1] by the
    same test at 2^e * t, summed by Horner in powers of 1/(2^e * t), leave
    the radius 2^e * t within 2^(e-10) above Cauchy's radius; elsewhere it
    is 2^e.  Those terms scale alike, and the step stop |w| <= ABERTH_TOL *
    |z| is relative, so a polynomial in 2^j z has exactly 2^-j times the
    roots.  Exactly zero a_0, ..., a_{j-1} give j roots 0, which are not
    iterated: a relative step never settles there.  Raises NonConvergence
    (with partial results) after ``max_iter`` sweeps, or with the zero
    roots alone when 2^e is not a double.

    A root stops when |p(z)| <= 1e-14 * sum |a_k| |z|^k, the backward-error
    bound of its own evaluation (or when p == 0).  Two closed-form bounds on
    the sum, max(|a_0|, |a_n| r^n) <= sum <= (sum |a_k|) max(1, r)^n with
    r = |z|, settle that test where they can, with a factor 2 to spare for
    the rounding of the sum; only in between, or where r^n or the bounds
    leave the floating-point range, is the sum formed.  Either way the
    decision is the one the sum gives, so the iterates do not depend on it.

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
    are iterated, started on the upper half of the circle at angles
    pi*(m + 1/2)/(n/2), and each one's correction also sums
    1/(z_m - conj(z_l)) over the current iterates l, its own conjugate
    included, with the conjugates of those before it already updated in
    this sweep.  The iterated half, after half the zero roots, comes first
    in the result, then its conjugates in the same order;
    ``NonConvergence.partial`` has the same layout.
    """
    n = len(coeffs) - 1
    while n > 0 and abs(coeffs[n]) == 0.0:
        n -= 1
    j = 0
    while j < n and coeffs[j] == 0:
        j += 1
    coeffs = list(coeffs[j: n + 1])
    if conjugate_pairs and (n % 2 or j % 2 or any(complex(c).imag != 0.0 for c in coeffs)):
        raise ValueError("conjugate_pairs requires real coefficients, even degree and zeros")
    n -= j
    zeros = [0j] * (j // 2 if conjugate_pairs else j)
    if n < 1:
        return zeros + [zl.conjugate() for zl in zeros] if conjugate_pairs else zeros
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    abs_coeffs = [abs(c) for c in coeffs]
    e = 1 + max(-(-math.frexp(abs_coeffs[n - k])[1] // k)
                for k in range(1, n + 1) if abs_coeffs[n - k])
    while e > -1023:  # halve while 2^(e-1) holds Cauchy's radius and 2^(1-e) is a double
        inv, acc = math.ldexp(1.0, 1 - e), 0.0
        for a in abs_coeffs[:-1]:
            acc = (acc + a) * inv
        if not acc <= 1.0:
            break
        e -= 1
    if e > 1023:
        zeros += [zl.conjugate() for zl in zeros] if conjugate_pairs else []
        raise NonConvergence("Aberth's start circle is out of floating-point range",
                             partial=zeros)
    lo, hi = 0.5, 1.0  # 2^e * hi holds Cauchy's radius, 2^e * lo does not
    if -1021 <= e <= 1022:  # 2^e * mid and its reciprocal are normal doubles
        for _ in range(10):
            mid = 0.5 * (lo + hi)
            inv, acc = 1.0 / math.ldexp(mid, e), 0.0
            for a in abs_coeffs[:-1]:
                acc = (acc + a) * inv
            if acc <= 1.0:
                hi = mid
            else:
                lo = mid
    radius = math.ldexp(hi, e)
    top, rest = coeffs[-1], coeffs[-2::-1]  # Horner order, as in _poly_val_der
    abs_sum = sum(abs_coeffs)
    if conjugate_pairs:
        half = n // 2
        z = [radius * _cis(math.pi * (m + 0.5) / half) for m in range(half)]
    else:
        z = [radius * _cis(2.0 * math.pi * m / n + 0.4) for m in range(n)]
    active = list(range(len(z)))
    mirror = [zl.conjugate() for zl in z] if conjugate_pairs else ()
    done = False
    for _ in range(max_iter):
        done = True
        moving = []
        for m in active:
            zm = z[m]
            p, dp = top, 0j
            for c in rest:
                dp = dp * zm + p
                p = p * zm + c
            if p == 0:
                continue
            # Backward-error stop: at multiple roots the Newton correction
            # stalls at eps^(1/multiplicity), so a step-size test alone never
            # fires.  |p| at rounding level of its own evaluation is as
            # converged as the coefficients allow; poly_roots refines further.
            if _settled(abs(p), abs(zm), n, abs_coeffs, abs_sum):
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
                if abs(w) > ABERTH_TOL * abs(zm):
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


# Where the bounds of _settled stand in for the sum.  Below _HUGE neither the
# sum nor a power r^k (k <= n) that it forms overflows; above _TINY those
# powers are normal doubles.  There each bound and the terms it stands for
# differ by at most a factor (1 + 2^-53)^(2n + 2), which the factors 2 and
# 1/2 of the tests cover.
_HUGE = 2.0 ** 1000
_TINY = 2.0 ** -1000


def _settled(ap: float, r: float, n: int, abs_coeffs: list[float], abs_sum: float) -> bool:
    """ap <= 1e-14 * sum_k |a_k| r^k, with the sum formed in index order,
    decided from bounds on the sum where they settle it (aberth_roots);
    abs_sum is sum_k |a_k|."""
    try:
        rn = r ** n
    except OverflowError:
        rn = math.inf
    hi = abs_sum * rn if r > 1.0 else abs_sum
    if hi < _HUGE and ap > 2e-14 * hi:
        return False
    lo = abs_coeffs[-1] * rn
    if lo < abs_coeffs[0]:
        lo = abs_coeffs[0]
    if _TINY < lo < _HUGE and ap <= 5e-15 * lo:  # False for NaN
        return True
    pw, backward = 1.0, 0.0
    for a in abs_coeffs:
        backward += a * pw
        pw *= r
    return ap <= 1e-14 * backward


# ---------------------------------------------------------------------------
# Polynomial zero pipeline
# ---------------------------------------------------------------------------

def _with_derivatives(f: SlicePolynomial) -> tuple[SlicePolynomial, ...]:
    df = f.derivative()
    return f, df, df.derivative()


def _refine(fs: tuple[SlicePolynomial, ...], z: complex) -> complex:
    """Newton on u = s/s' from z, where s = sum_k p_k^2 is f^s on L_i, from
    the stem p_k of f (f.stem) and the stems p_k', p_k'' of its derivatives;
    fs is (f, f', f''), as _with_derivatives gives it.

    u has a simple zero at every root of s, so the real and spherical zeros
    of f, double roots of s, converge quadratically too.  p, p' and p'' are
    scaled by the power of two that brings f's majorant at z near 1, so the
    squares stay normal doubles and the step does not depend on f's scale.
    """
    f = fs[0]
    for _ in range(REFINE_STEPS):
        m = f.majorant(Quaternion(z.real, z.imag))
        t = math.ldexp(1.0, -max(math.frexp(m)[1], -1021))
        p, d, d2 = ([v * t for v in g.stem(z)] for g in fs)
        s = sum(v * v for v in p)
        s1 = 2.0 * sum(v * w for v, w in zip(p, d))
        s2 = 2.0 * sum(w * w + v * e for v, w, e in zip(p, d, d2))
        if s == 0 or s1 == 0:
            break
        u = s / s1
        du = 1.0 - u * (s2 / s1)
        if du == 0:
            break
        step = u / du
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

    Pipeline: form f^s by coefficient convolution and restrict it to L_i.
    f^s has real coefficients and equals |f|^2 on the real axis, so its roots
    come in conjugate pairs and Aberth iteration runs on one root of each
    pair.  Each iterated root is refined on f's own stem (_refine), folded to
    a sphere (x, |y|), merged with the spheres before it and classified, all
    in the offset w = q - center; x = center + Re w is formed last.  A
    root z about the center folds to the axis when |Im z| < SPHERE_DEDUP_TOL
    * |z|, and two spheres are one when they are within SPHERE_DEDUP_TOL times
    the larger modulus: each test is at the scale of the roots it compares, so
    small zeros survive beside large ones.  A value on a sphere is zero when
    at most CLASSIFY_TOL times backward_bound(|a_n|, |(x - center) + iy|),
    the majorant of f there.  Aberth's start and stops are relative too, so
    with center 0, f(2^k q) has exactly 2^-k times the zeros of f wherever
    f^s and its terms at the roots are normal doubles.

    When a_0 = ... = a_{j-1} are exactly 0, where Aberth's stop is never met,
    f = (q - center)^j g has one isolated zero at the center, classified as
    every other, and g's zeros (a NonConvergence for g carries g's alone).

    Raises NonConvergence with an empty ``partial`` when the monic f^s is out
    of floating-point range: a coefficient is not finite, the leading one of
    f^s underflowed to 0 (deg f^s < 2 deg f), the constant one is 0 while
    f(center) is not, or its majorant is not finite at an iterate.
    """
    if f.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    j = next(n for n, c in enumerate(f.coeffs) if c != ZERO)
    if j:
        tol = CLASSIFY_TOL * f.majorant(Quaternion(f.center))
        zero = sphere_zero_classify(Poly(f), f.center, 0.0, tol=tol)
        g = SlicePolynomial(f.center, f.coeffs[j:])
        rest = poly_roots(g) if g.degree else []
        return sorted([zero, *rest], key=lambda z: (z.x, z.y))
    coeffs = _symm_complex_coeffs(f)
    lead = coeffs[-1] if coeffs[-1] != 0 else math.nan  # NaN: it underflowed
    coeffs = [c / lead for c in coeffs]
    finite = all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs)
    if not finite or coeffs[0] == 0:
        raise NonConvergence("symmetrization out of floating-point range (a coefficient "
                             "overflowed, or the leading or constant one underflowed)")
    converged = True
    try:
        cap = max(ABERTH_MAX_ITER, 6 * (len(coeffs) - 1))  # grows with deg f^s
        roots = aberth_roots(coeffs, cap, conjugate_pairs=True)
    except NonConvergence as exc:
        roots = list(exc.partial)
        converged = False
    roots = roots[: f.degree]
    # Aberth's backward-error stop takes inf <= inf: an iterate whose f^s
    # overflowed stops on its start circle.
    abs_coeffs = [abs(c) for c in coeffs]
    if not all(math.isfinite(backward_bound(abs_coeffs, abs(z))) for z in roots):
        raise NonConvergence("symmetrization out of floating-point range at an iterate")
    w = SlicePolynomial(0.0, f.coeffs)  # f in the offset w = q - center
    seen: list[complex] = []  # refined candidate spheres x + iy about the center
    fs = _with_derivatives(w)
    for z in roots:
        z = _refine(fs, z)
        z = complex(z.real, abs(z.imag) if abs(z.imag) >= SPHERE_DEDUP_TOL * abs(z) else 0.0)
        if all(abs(z - s) > SPHERE_DEDUP_TOL * max(abs(z), abs(s)) for s in seen):
            seen.append(z)
    out = []
    expr = Poly(w)
    for z in sorted(seen, key=lambda z: (z.real + f.center, z.imag)):
        u, y = z.real, z.imag
        zero = sphere_zero_classify(expr, u, y, tol=CLASSIFY_TOL * w.majorant(Quaternion(u, y)))
        out.append(SphereZero(u + f.center, y, zero.kind, zero.unit, zero.residual,
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
    v, m = _eval(f, q)
    if v.norm() > CLASSIFY_TOL * m:  # f(q) != 0: the predicate reads g there
        v, m = _eval(g, quat_inv(v) * q * v)
    fg, m_fg = _eval(Star(f, g), q)
    return (v.norm() <= CLASSIFY_TOL * m) == (fg.norm() <= CLASSIFY_TOL * m_fg)


def cauchy_kernel(s: Quaternion, q: Quaternion) -> Quaternion:
    """Closed-form regular reciprocal of q - s:

        S^{-*}(q) = (q^2 - 2 Re(s) q + |s|^2)^{-1} (q - conj(s))

    Singular exactly on the sphere Re(s) + |Im(s)|*S, taken to hold when
    |denom| <= KERNEL_SINGULAR_TOL * (|s|^2 + 2|Re s| |q| + |q|^2).  The
    kernel is homogeneous of degree -1, so it is formed from s and q scaled
    by t = 2^-e to norms below 1 (at least 1/2 for the larger), and the
    result is multiplied by t: the squares stay normal doubles.
    """
    t = math.ldexp(1.0, -max(math.frexp(max(s.norm(), q.norm()))[1], -1021))
    st, qt = s * t, q * t
    denom = qt * qt - (2.0 * st.re()) * qt + Quaternion(st.norm_sq())
    numer = qt - st.conjugate()
    bound = backward_bound((st.norm_sq(), 2.0 * abs(st.re()), 1.0), qt.norm())
    if denom.norm() <= KERNEL_SINGULAR_TOL * bound:
        p = slice_coords(qt)
        x, y = p.x / t, p.y / t
        raise SingularPoint(
            f"q lies on the singular sphere of the kernel (x={x}, y={y})", x=x, y=y
        )
    return (quat_inv(denom) * numer) * t


def kernel_vs_recip_residual(s: Quaternion, q: Quaternion) -> float:
    """|closed form - reciprocal pipeline| for the kernel of q - s."""
    from .polynomial import monomial_minus

    direct = cauchy_kernel(s, q)
    via_recip = recip_eval(Poly(monomial_minus(s)), q)
    return (direct - via_recip).norm()
