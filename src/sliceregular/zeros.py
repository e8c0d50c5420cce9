"""Zero sets: per-sphere classification, polynomial roots, Cauchy kernel.

Polynomial zero finding goes through the symmetrization: f^s has real
coefficients and equals |f|^2 on the real axis, so the roots of its
restriction to L_i come in conjugate pairs (real ones with even
multiplicity).  Aberth simultaneous iteration follows one root of each pair,
each is folded to a candidate sphere (x, |y|), and each sphere is classified
through the affine structure f(x + y*I) = b + I*c, whose components are
real polynomials in x + iy; spherical candidates are refined on them.
"""

from __future__ import annotations

import cmath
import enum
import math

from .errors import NonConvergence, SingularPoint
from .expr import Poly, SliceExpr, evaluate, recip_eval, star_eval
from .extension import sphere_affine_coeffs
from .polynomial import SlicePolynomial, backward_bound, symm_poly
from .quaternion import ImaginaryUnit, Quaternion, UNIT_I, ZERO, Value, quat_inv, slice_coords

CLASSIFY_TOL = 1e-8
SPHERE_DEDUP_TOL = 1e-8
ABERTH_MAX_ITER = 200
ABERTH_TOL = 1e-13
KERNEL_SINGULAR_TOL = 1e-10


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


def aberth_roots(coeffs: list[complex], max_iter: int = ABERTH_MAX_ITER,
                 tol: float = ABERTH_TOL, *, conjugate_pairs: bool = False) -> list[complex]:
    """All roots of a complex polynomial (a_0 + a_1 z + ... + a_n z^n).

    Deterministic initialization on a circle of radius 1 + max|a_k/a_n| with
    a fixed angular offset.  Raises NonConvergence (with partial results)
    after ``max_iter`` sweeps.

    A root that meets the backward-error stop (or hits p == 0) is left out
    of every later sweep: it is not moved, so its p and its stop test come
    out the same each time.  It still enters the other roots' corrections.

    ``conjugate_pairs=True`` states that the roots come in conjugate pairs:
    the coefficients must be real and n even (else ValueError), and a real
    root must have even multiplicity, as for a polynomial that is
    nonnegative on the real axis.  Then only n/2 roots are iterated, started
    on the upper half of the circle at angles pi*(m + 1/2)/(n/2), and each
    one's correction also sums 1/(z_m - conj(z_l)) over every iterate l, its
    own conjugate included, so the set {z, conj(z)} moves as the full root
    set would.  The iterated half comes first in the result, then its
    conjugates in the same order; ``NonConvergence.partial`` has the same
    layout.
    """
    n = len(coeffs) - 1
    while n > 0 and abs(coeffs[n]) == 0.0:
        n -= 1
    coeffs = list(coeffs[: n + 1])
    if conjugate_pairs and (n % 2 or any(complex(c).imag != 0.0 for c in coeffs)):
        raise ValueError("conjugate_pairs requires real coefficients and even degree")
    if n < 1:
        return []
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    abs_coeffs = [abs(c) for c in coeffs]
    radius = 1.0 + max(abs_coeffs[:-1])
    if conjugate_pairs:
        half = n // 2
        z = [radius * cmath.exp(1j * (math.pi * (m + 0.5) / half)) for m in range(half)]
    else:
        z = [radius * cmath.exp(1j * (2.0 * math.pi * m / n + 0.4)) for m in range(n)]
    active = list(range(len(z)))
    done = False
    for _ in range(max_iter):
        done = True
        new = list(z)
        moving = []
        mirror = [zl.conjugate() for zl in z] if conjugate_pairs else ()
        for m in active:
            zm = z[m]
            p, dp = _poly_val_der(coeffs, zm)
            if p == 0:
                continue
            # Backward-error stop: at multiple roots the Newton correction
            # stalls at eps^(1/multiplicity), so a step-size test alone never
            # fires.  |p| at rounding level of its own evaluation is as
            # converged as the coefficients allow; the polish pass sharpens.
            r, pw = abs(zm), 1.0
            backward = 0.0
            for a in abs_coeffs:
                backward += a * pw
                pw *= r
            if abs(p) <= 1e-14 * backward:
                continue
            moving.append(m)
            if dp == 0:
                new[m] = zm * (1.0 + 1e-6) + 1e-6
                done = False
                continue
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
            new[m] = zm - w
            if abs(w) > tol * max(1.0, abs(zm)):
                done = False
        active = moving
        z = new
        if done:
            break
    if conjugate_pairs:
        z += [zl.conjugate() for zl in z]
    if not done:
        raise NonConvergence("Aberth iteration did not converge", partial=z)
    return z


def _polish_root(coeffs: list[complex], z: complex, steps: int = 8) -> complex:
    """Newton on p/p', which has simple zeros at every distinct root.

    Restores full accuracy at multiple roots, where plain Aberth stalls at
    ~sqrt(eps) distance.  ``coeffs`` must be monic, so that p'^2 stays in range.
    """
    d1 = [coeffs[n] * n for n in range(1, len(coeffs))]
    d2 = [d1[n] * n for n in range(1, len(d1))]
    for _ in range(steps):
        p, _ = _poly_val_der(coeffs, z)
        p1, _ = _poly_val_der(d1, z) if d1 else (0j, 0j)
        p2, _ = _poly_val_der(d2, z) if d2 else (0j, 0j)
        if p1 == 0:
            break
        u = p / p1
        du = 1.0 - p * p2 / (p1 * p1)
        if du == 0:
            break
        step = u / du
        z = z - step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z


# ---------------------------------------------------------------------------
# Polynomial zero pipeline
# ---------------------------------------------------------------------------

def _refine_spherical_candidate(f: SlicePolynomial, x: float, y: float, tol: float,
                                steps: int = 6) -> tuple[float, float] | None:
    """Gauss-Newton on the stem components p_k of f (f.stem) at z = x + iy.

    Candidate spheres inherit ~sqrt(eps) error from multiple roots of the
    symmetrization; a spherical zero is a common simple root of the p_k and
    refines to machine precision.  The p_k are holomorphic, so the step is
    sum conj(p_k') p_k / sum |p_k'|^2, with the exact p_k' (the stem of
    f.derivative()) scaled by max |p_k'| to stay in range.  Returns the
    refined sphere only when |b + i*c| < tol, so spheres of isolated zeros
    (where b and c never vanish together) are left alone."""
    df = f.derivative()
    z = complex(x, y)
    for _ in range(steps):
        p, d = f.stem(z), df.stem(z)
        scale = max(map(abs, d))
        if scale == 0.0:
            return None
        d = [v / scale for v in d]
        z -= sum(v.conjugate() * w for v, w in zip(d, p)) / (scale * sum(abs(v) ** 2 for v in d))
        z = complex(z.real, abs(z.imag))
        if abs(z.real - x) > 1e-5 * (1.0 + abs(x)) or abs(z.imag - y) > 1e-5 * (1.0 + y):
            return None
    return (z.real, z.imag) if math.hypot(*map(abs, f.stem(z))) < tol else None


def _symm_complex_coeffs(f: SlicePolynomial) -> list[complex]:
    """Coefficients of f^s restricted to L_i.

    f^s has real coefficients; the imaginary parts of the computed ones are
    rounding residue (a few eps relative), so only the real parts are kept.
    """
    return [complex(c.x0) for c in symm_poly(f).coeffs]


def _same_sphere(a: complex, b: complex) -> bool:
    """Are candidate spheres a and b (x + iy about the center) one, at their own scale?"""
    return abs(a - b) <= SPHERE_DEDUP_TOL * max(abs(a), abs(b))


def poly_roots(f: SlicePolynomial) -> list[SphereZero]:
    """Candidate zero spheres of a quaternionic polynomial, classified.

    Pipeline: form f^s by coefficient convolution and restrict it to L_i.
    f^s has real coefficients and equals |f|^2 on the real axis, so its roots
    come in conjugate pairs and Aberth iteration runs on one root of each
    pair.  Each iterated root is polished and folded to a sphere (x, |y|);
    the spheres are deduplicated and classified, and a spherical zero that
    refinement brings onto one already reported is reported once.  A root z
    of f^s about the center folds to the axis when |Im z| < SPHERE_DEDUP_TOL
    * |z|, and two spheres are one when they are within SPHERE_DEDUP_TOL times
    the larger modulus: each test is at the scale of the roots it compares, so
    small zeros survive beside large ones.  A value on a sphere is zero when
    at most CLASSIFY_TOL times backward_bound(|a_n|, |(x - center) + iy|),
    the majorant of f there.

    Raises NonConvergence with an empty ``partial`` when the monic f^s is out
    of floating-point range: a coefficient is not finite, the leading one of
    f^s underflowed to 0 (deg f^s < 2 deg f), or the constant one is 0 while
    f(center) is not.
    """
    if f.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    coeffs = _symm_complex_coeffs(f)
    lead = coeffs[-1] if len(coeffs) > 2 * f.degree else math.nan  # NaN: it underflowed
    coeffs = [c / lead for c in coeffs]
    if not all(map(cmath.isfinite, coeffs)) or (coeffs[0] == 0 and f.coeffs[0] != ZERO):
        raise NonConvergence("symmetrization out of floating-point range (a coefficient "
                             "overflowed, or the leading or constant one underflowed)")
    converged = True
    try:
        cap = max(ABERTH_MAX_ITER, 6 * (len(coeffs) - 1))  # grows with deg f^s
        roots = aberth_roots(coeffs, cap, conjugate_pairs=True)
    except NonConvergence as exc:
        roots = list(exc.partial)
        converged = False
    roots = [_polish_root(coeffs, z) for z in roots[: f.degree]]
    seen: list[complex] = []  # candidate spheres x + iy about the center
    for z in roots:
        z = complex(z.real, abs(z.imag) if abs(z.imag) >= SPHERE_DEDUP_TOL * abs(z) else 0.0)
        if not any(_same_sphere(z, s) for s in seen):
            seen.append(z)
    spheres = sorted((z.real + f.center, z.imag) for z in seen)
    out = []
    expr = Poly(f)
    for x, y in spheres:
        ctol = CLASSIFY_TOL * f.majorant(Quaternion(x, y))
        if y > 0.0:
            refined = _refine_spherical_candidate(f, x, y, ctol)
            if refined is not None:
                x, y = refined
        zero = sphere_zero_classify(expr, x, y, tol=ctol)
        if zero.kind is ZeroKind.SPHERICAL and any(
                o.kind is ZeroKind.SPHERICAL and _same_sphere(
                    complex(x - f.center, y), complex(o.x - f.center, o.y)) for o in out):
            continue
        if not converged:
            zero = SphereZero(zero.x, zero.y, zero.kind, zero.unit, zero.residual,
                              zero.unit_is_arbitrary, converged=False)
        out.append(zero)
    if not converged:
        raise NonConvergence("root iteration did not converge", partial=out)
    return out


def star_zero_check(f: SliceExpr, g: SliceExpr, q: Quaternion, tol: float = CLASSIFY_TOL) -> bool:
    """Does the zero theorem's predicate match a direct star evaluation?

    Predicate: f(q) = 0, or f(q) != 0 and g(f(q)^{-1} q f(q)) = 0,
    all comparisons with the absolute ``tol``: generic f and g have no majorant.
    """
    fq = evaluate(f, q)
    if fq.norm() < tol:
        predicate = True
    else:
        predicate = evaluate(g, quat_inv(fq) * q * fq).norm() < tol
    return predicate == (star_eval(f, g, q).norm() < tol)


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
