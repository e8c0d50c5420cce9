"""Numerical verification harness: theorem-shaped checks with seeded sampling.

The generator is a self-contained splitmix-style 64-bit state machine so that
reports reproduce bit-identically across platforms for a given seed.
"""

from __future__ import annotations

import math

from .errors import SingularPoint
from .expr import (
    Conj, Poly, Recip, RightScalar, SliceExpr, Star, _eval, _scaled_pair, _sphere, _symm,
    evaluate, split, star_via_composition,
)
from .extension import ext_from_holomorphic, restriction_stem
from .polynomial import SlicePolynomial
from .quaternion import (
    ImaginaryUnit, Quaternion, SlicePoint, Value, from_slice, negligible, orthogonal_unit,
    pow2_sum,
)
from .representation import general_representation

_MASK = (1 << 64) - 1

# Sampling box: x in [-2, 2], y in [0.1, 2]; y is bounded away from 0 because
# slice-dependent residuals are ill-defined on the real axis.
BOX_X = 2.0
BOX_Y_MIN = 0.1
BOX_Y_MAX = 2.0

# Every report compares residual / m with CHECK_TOL, m the majorant of the
# values compared (expr._eval), so lambda*f gets the verdict of f.
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


def _report(name: str, samples: int, residuals: list[tuple[str, float]]) -> CheckReport:
    if residuals:
        worst = max(residuals, key=lambda t: t[1])
    else:
        worst = ("no samples", 0.0)
    max_res = worst[1]
    return CheckReport(
        name=name, samples=samples, max_residual=max_res,
        tolerance=CHECK_TOL, passed=max_res <= CHECK_TOL,
        worst_case=worst,
    )


def _relative(residual: float, m: float, k: int = 0) -> float:
    """residual / (m 2^k), inf where that is above the doubles; an exact 0
    (the only residual a zero majorant allows) is 0."""
    f, e = math.frexp(residual / m) if residual else (0.0, k)
    return math.ldexp(f, e - k) if e - k <= 1024 else math.inf


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
    """
    if unit_pairs < 2:
        raise ValueError(f"unit_pairs must be at least 2 to measure a spread, got {unit_pairs}")
    rng = SplitMix64(seed)
    residuals = []
    for _ in range(spheres):
        x, y = rng.sphere()
        target = SlicePoint(x, y, rng.unit())
        values, m = [], (-math.inf, 0.0)  # the largest majorant m 2^k, as (k, m)
        for _ in range(unit_pairs):
            j, k = rng.unit_pair()
            (v_j, m_j, k_j), (v_k, m_k, k_k) = (_eval(f, from_slice(x, y, u)) for u in (j, k))
            m = max(m, (k_j, m_j), (k_k, m_k))
            v = general_representation(v_j, v_k, j, k, target)
            values.append(v.components())
        # max |a - b| over the pairs, as Quaternion.norm forms it
        spread = max(
            math.hypot(a0 - b0, a1 - b1, a2 - b2, a3 - b3)
            for ai, (a0, a1, a2, a3) in enumerate(values) for b0, b1, b2, b3 in values[ai + 1:]
        )
        residuals.append((f"sphere x={x:.6g} y={y:.6g}", _relative(spread, m[1], m[0])))
    return _report(name, spheres, residuals)


def check_identity_suite(f: SliceExpr, g: SliceExpr, points: int = 200,
                         seed: int = 7) -> list[CheckReport]:
    """Pointwise identities of the star calculus over sampled points.

    One report per identity: conjugate anti-homomorphism, the composition
    form of the product, multiplicativity (and commutation) of the
    symmetrization, left reciprocal identity, slice preservation of f^s.
    The right reciprocal identity is measured and reported as well.  Each
    residual is relative to the majorants of the values it compares; a
    point on the zero set of f^s has no reciprocal and is skipped.
    """
    rng = SplitMix64(seed)
    antihom, compose, multiplicative, commute = [], [], [], []
    left_recip, right_recip, slice_pres = [], [], []
    fg = Star(f, g)
    recip_f = Recip(f)
    conj_fg, star_conj = Conj(fg), Star(Conj(g), Conj(f))
    left, right = Star(recip_f, f), Star(f, recip_f)
    for _ in range(points):
        q = rng.point()
        tag = f"q=({q.x0:.4g},{q.x1:.4g},{q.x2:.4g},{q.x3:.4g})"
        s = _sphere(q)

        (lhs, m_lhs, k_lhs), (rhs, m_rhs, k_rhs) = _eval(conj_fg, q, s), _eval(star_conj, q, s)
        antihom.append((tag, _relative((lhs - rhs).norm(), *pow2_sum(m_lhs, k_lhs, m_rhs, k_rhs))))

        (star, m_star, k_star), (fq, m_f, k_f) = _eval(fg, q, s), _eval(f, q, s)
        if not negligible(fq.norm(), 1e-6, m_f, k_f):
            compose.append((tag, _relative((star_via_composition(f, g, q) - star).norm(),
                                           m_star, k_star)))

        # (fg)^s, f^s and g^s scaled by 2^-2e_f-2e_g, 2^-2e_f and 2^-2e_g, with
        # m_f 2^-e_f and m_g 2^-e_g near 1: f^s g^s stays a double at any scale.
        # Where f*g is not a double (k_star != 0) its pair is read off
        # (2^-e_f f)*(2^-e_g g), which is.
        pf, pg = _scaled_pair(f, q, s), _scaled_pair(g, q, s)
        pfg = (_scaled_pair(Star(_scaled(f, pf[4]), _scaled(g, pg[4])), q, s, 0) if k_star
               else _scaled_pair(fg, q, s, pf[4] + pg[4]))
        (sfg, m_fg), (sf, m_sf), (sg, m_sg) = ((_symm(i, b, c), m * m) for i, b, c, m, _ in
                                               (pfg, pf, pg))
        multiplicative.append((tag, _relative((sfg - sf * sg).norm(), m_fg + m_sf * m_sg)))
        commute.append((tag, _relative((sf * sg - sg * sf).norm(), m_sf * m_sg)))

        sp = s[0]
        if not sp.unit_is_arbitrary:
            j = orthogonal_unit(sp.unit)
            slice_pres.append((tag, _relative(abs(split(sf, sp.unit, j).g), m_sf)))

        # below the normal range f^{-*} is not a double, (2^-e f)^{-*} (pf's e) is
        h = _scaled(f, pf[4]) if k_f < 0 else None
        lr = (left, right) if h is None else (Star(Recip(h), h), Star(h, Recip(h)))
        try:
            (vl, ml, kl), (vr, mr, kr) = (_eval(t, q, s) for t in lr)
        except SingularPoint:
            continue
        left_recip.append((tag, _relative((vl - Quaternion(1.0)).norm(), ml, kl)))
        right_recip.append((tag, _relative((vr - Quaternion(1.0)).norm(), mr, kr)))

    return [
        _report("conjugate_antihomomorphism", len(antihom), antihom),
        _report("star_composition_form", len(compose), compose),
        _report("symmetrization_multiplicative", len(multiplicative), multiplicative),
        _report("symmetrization_factors_commute", len(commute), commute),
        _report("symmetrization_slice_preservation", len(slice_pres), slice_pres),
        _report("reciprocal_left_identity", len(left_recip), left_recip),
        _report("reciprocal_right_identity", len(right_recip), right_recip),
    ]


def _scaled(f: SliceExpr, e: int) -> RightScalar:
    """2^-e f, e a scale_exponent (at least -1021), so 2^-e is a double."""
    return RightScalar(f, Quaternion(math.ldexp(1.0, -e)))


def check_extension_roundtrip(f: SlicePolynomial, unit: ImaginaryUnit,
                              points: int = 100, seed: int = 7) -> CheckReport:
    """Extension of the slice restriction of a polynomial reproduces it, to
    a residual relative to f's majorant."""
    rng = SplitMix64(seed)
    ext = ext_from_holomorphic(restriction_stem(Poly(f), unit))
    residuals = []
    for _ in range(points):
        q = rng.point()
        tag = f"q=({q.x0:.4g},{q.x1:.4g},{q.x2:.4g},{q.x3:.4g})"
        v, m, k = f.evaluate_with_majorant(q)
        residuals.append((tag, _relative((evaluate(ext, q) - v).norm(), m, k)))
    return _report("extension_roundtrip", points, residuals)
