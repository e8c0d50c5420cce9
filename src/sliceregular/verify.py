"""Numerical verification harness: theorem-shaped checks with seeded sampling.

The generator is a self-contained splitmix-style 64-bit state machine so that
reports reproduce bit-identically across platforms for a given seed.

Each suite brings its polynomials to unit scale (_normalized) and reads every
value through expr._read, so 2^j f, its coefficients exact, reports as f does.
The calculus is tested at unit scale; expr's range handling by its own tests.
"""

from __future__ import annotations

import math

from .errors import SingularPoint
from .expr import (
    Conj, Poly, Recip, SliceExpr, Star, Symm, _eval, _read, _sphere, evaluate, split,
    star_via_composition,
)
from .extension import ext_from_holomorphic, restriction_stem
from .polynomial import SlicePolynomial
from .quaternion import (
    ImaginaryUnit, Quaternion, SlicePoint, Value, from_slice, orthogonal_unit, pow2_product,
    pow2_scaled, pow2_sum, scale_exponent,
)
from .representation import general_representation

_MASK = (1 << 64) - 1

# Sampling box: x in [-2, 2], y in [0.1, 2]; y is bounded away from 0 because
# slice-dependent residuals are ill-defined on the real axis.
BOX_X = 2.0
BOX_Y_MIN = 0.1
BOX_Y_MAX = 2.0

# Every report compares residual / m with CHECK_TOL, m the majorant of the values
# compared (expr._eval), so lambda*f gets the verdict of f; a NaN is the worst case.
CHECK_TOL = 1e-9


class SplitMix64:
    """Deterministic 64-bit linear-state generator (splitmix style)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * u

    def gauss(self) -> float:
        # Box-Muller; u1 is kept away from 0.
        u1 = (self.next_u64() >> 11) * (2.0 ** -53)
        u2 = (self.next_u64() >> 11) * (2.0 ** -53)
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def unit(self) -> ImaginaryUnit:
        # Uniform on S via normalized Gaussian triples.
        while True:
            v = Quaternion(0.0, self.gauss(), self.gauss(), self.gauss())
            if v.im_norm() > 1e-6:
                return ImaginaryUnit(v)

    def unit_pair(self, min_gap: float = 1e-6) -> tuple[ImaginaryUnit, ImaginaryUnit]:
        while True:
            j, k = self.unit(), self.unit()
            if (j.u - k.u).norm() > min_gap:
                return j, k

    def sphere(self) -> tuple[float, float]:
        return self.uniform(-BOX_X, BOX_X), self.uniform(BOX_Y_MIN, BOX_Y_MAX)

    def point(self) -> Quaternion:
        x, y = self.sphere()
        return from_slice(x, y, self.unit())

    def quaternion(self, bound: float = 1.0) -> Quaternion:
        return Quaternion(
            self.uniform(-bound, bound), self.uniform(-bound, bound),
            self.uniform(-bound, bound), self.uniform(-bound, bound),
        )

    def polynomial(self, max_degree: int = 8, coeff_bound: float = 1.0,
                   center: float = 0.0) -> SlicePolynomial:
        degree = 1 + self.next_u64() % max_degree
        coeffs = [self.quaternion(coeff_bound) for _ in range(degree + 1)]
        if coeffs[-1].norm() < 1e-3:
            coeffs[-1] = coeffs[-1] + Quaternion(0.5)
        return SlicePolynomial(center, tuple(coeffs))


class CheckReport(Value):
    """Outcome of one theorem-shaped check over sampled inputs."""

    __slots__ = ("name", "samples", "max_residual", "tolerance", "passed", "worst_case")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_case": {"input": self.worst_case[0], "residual": self.worst_case[1]},
        }


def _report(name: str, residuals: list[tuple[str, float]]) -> CheckReport:
    worst = max(residuals, key=lambda t: (math.isnan(t[1]), t[1]), default=("no samples", 0.0))
    return CheckReport(name=name, samples=len(residuals), max_residual=worst[1],
                       tolerance=CHECK_TOL, passed=worst[1] <= CHECK_TOL, worst_case=worst)


def _relative(residual: float, m: float, k: int = 0) -> float:
    """residual / (m 2^k), inf where that is above the doubles; an exact 0
    (the only residual a zero majorant allows) is 0."""
    f, e = math.frexp(residual / m) if residual else (0.0, k)
    return math.ldexp(f, e - k) if e - k <= 1024 else math.inf


def _normalized(f: SliceExpr) -> SliceExpr:
    """2^-e f for a Poly f, e the scale_exponent of its largest coefficient norm as
    poly_roots takes it (0 where that overflows); other nodes pass as they are."""
    if not isinstance(f, Poly):
        return f
    e = scale_exponent(max(f.poly.abs_coeffs))
    return Poly(SlicePolynomial(f.poly.center, [pow2_scaled(c, -e) for c in f.poly.coeffs]))


def check_grf_invariance(f: SliceExpr, spheres: int = 20, unit_pairs: int = 20,
                         seed: int = 7, name: str = "grf_invariance") -> CheckReport:
    """Spread of the general representation across random unit pairs.

    For each sampled sphere and target point, the value rebuilt from the
    slices L_J and L_K must not depend on the choice of (J, K): the spread,
    divided by the largest majorant of the values it was rebuilt from.

    This measures slice-ness (on each sphere x + y*S the value depends
    affinely on the unit, f(x + y*I) = b + I*c), not regularity: every slice
    function passes, regular or not, and q -> conj(q) passes with a spread
    at rounding level.  Regularity is measured by ``regularity_residual``
    (the slice Cauchy-Riemann residual).  A spread needs ``unit_pairs`` >= 2.
    A polynomial f is read at unit scale (_normalized); a NaN spread fails.
    """
    if unit_pairs < 2:
        raise ValueError(f"unit_pairs must be at least 2 to measure a spread, got {unit_pairs}")
    f = _normalized(f)
    rng = SplitMix64(seed)
    residuals = []
    for _ in range(spheres):
        x, y = rng.sphere()
        target = SlicePoint(x, y, rng.unit())
        values, m = [], (-math.inf, 0.0)  # the largest majorant m 2^k, as (k, m)
        for _ in range(unit_pairs):
            j, k = rng.unit_pair()
            (v_j, m_j, k_j), (v_k, m_k, k_k) = (_read(f, from_slice(x, y, u)) for u in (j, k))
            m = max(m, (k_j, m_j), (k_k, m_k))
            v = general_representation(v_j, v_k, j, k, target)
            values.append(v.components())
        # max |a - b| over the pairs, as Quaternion.norm forms it; NaN if one is (sum shows it)
        spreads = [math.hypot(a0 - b0, a1 - b1, a2 - b2, a3 - b3) for ai, (a0, a1, a2, a3)
                   in enumerate(values) for b0, b1, b2, b3 in values[ai + 1:]]
        spread = math.nan if math.isnan(sum(spreads)) else max(spreads)
        residuals.append((f"sphere x={x:.6g} y={y:.6g}", _relative(spread, m[1], m[0])))
    return _report(name, residuals)


def check_identity_suite(f: SliceExpr, g: SliceExpr, points: int = 200,
                         seed: int = 7) -> list[CheckReport]:
    """Pointwise identities of the star calculus over sampled points.

    One report per identity: conjugate anti-homomorphism, the composition
    form of the product, multiplicativity (and commutation) of the
    symmetrization, left reciprocal identity, slice preservation of f^s.
    The right reciprocal identity is measured and reported as well.  Each
    residual is relative to the majorants of the values it compares; a
    point on the zero set of f^s has no reciprocal and is skipped.
    Polynomials are read at unit scale (_normalized), so 2^i f, 2^j g report
    as f, g do even where f*g is no double; other nodes keep _eval's majorants.
    """
    f, g = _normalized(f), _normalized(g)
    rng = SplitMix64(seed)
    antihom, compose, multiplicative, commute = [], [], [], []
    left_recip, right_recip, slice_pres = [], [], []
    fg = Star(f, g)
    conj_fg, star_conj = Conj(fg), Star(Conj(g), Conj(f))
    symms = Symm(fg), Symm(f), Symm(g)
    left, right = Star(Recip(f), f), Star(f, Recip(f))
    for _ in range(points):
        q = rng.point()
        tag = f"q=({q.x0:.4g},{q.x1:.4g},{q.x2:.4g},{q.x3:.4g})"
        s = _sphere(q)

        (lhs, m_lhs, k_lhs), (rhs, m_rhs, k_rhs) = _read(conj_fg, q, s), _read(star_conj, q, s)
        antihom.append((tag, _relative((lhs - rhs).norm(), *pow2_sum(m_lhs, k_lhs, m_rhs, k_rhs))))

        (star, m_star, k_star), (fq, m_f, _) = _read(fg, q, s), _eval(f, q, s)
        if not fq.norm() <= 1e-6 * m_f:  # f(q) and m_f under one exponent; NaN is read
            compose.append((tag, _relative((star_via_composition(f, g, q) - star).norm(),
                                           m_star, k_star)))

        (sfg, m_fg, k_fg), (sf, m_sf, k_sf), (sg, m_sg, k_sg) = (_read(t, q, s) for t in symms)
        m_prod = pow2_product(m_sf, k_sf, m_sg, k_sg)
        m_sum = pow2_sum(m_fg, k_fg, *m_prod)
        multiplicative.append((tag, _relative((sfg - sf * sg).norm(), *m_sum)))
        commute.append((tag, _relative((sf * sg - sg * sf).norm(), *m_prod)))

        sp = s[0]
        if not sp.unit_is_arbitrary:
            j = orthogonal_unit(sp.unit)
            slice_pres.append((tag, _relative(abs(split(sf, sp.unit, j).g), m_sf, k_sf)))

        try:
            (vl, ml, kl), (vr, mr, kr) = _read(left, q, s), _read(right, q, s)
        except SingularPoint:
            continue
        left_recip.append((tag, _relative((vl - Quaternion(1.0)).norm(), ml, kl)))
        right_recip.append((tag, _relative((vr - Quaternion(1.0)).norm(), mr, kr)))

    return [
        _report("conjugate_antihomomorphism", antihom),
        _report("star_composition_form", compose),
        _report("symmetrization_multiplicative", multiplicative),
        _report("symmetrization_factors_commute", commute),
        _report("symmetrization_slice_preservation", slice_pres),
        _report("reciprocal_left_identity", left_recip),
        _report("reciprocal_right_identity", right_recip),
    ]


def check_extension_roundtrip(f: SlicePolynomial, unit: ImaginaryUnit,
                              points: int = 100, seed: int = 7) -> CheckReport:
    """Extension of the slice restriction of a polynomial reproduces it, to
    a residual relative to f's majorant, f read at unit scale (_normalized)."""
    f = _normalized(Poly(f))
    rng = SplitMix64(seed)
    ext = ext_from_holomorphic(restriction_stem(f, unit))
    residuals = []
    for _ in range(points):
        q = rng.point()
        tag = f"q=({q.x0:.4g},{q.x1:.4g},{q.x2:.4g},{q.x3:.4g})"
        v, m, k = f.poly.evaluate_with_majorant(q)
        residuals.append((tag, _relative((evaluate(ext, q) - v).norm(), m, k)))
    return _report("extension_roundtrip", residuals)
