"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Each test
draws its own seeded samples, computes a worst-case residual and asserts the
stated tolerance.
"""

from sliceregular import (
    Disc,
    Poly,
    Quaternion,
    RawMap,
    SliceRegion,
    UNIT_J,
    ZeroKind,
    cauchy_kernel,
    check_grf_invariance,
    conj_eval,
    conj_poly,
    evaluate,
    ext_from_holomorphic,
    from_slice,
    monomial_minus,
    poly_roots,
    polynomial,
    regularity_residual,
    restriction_stem,
    sphere_zero_classify,
    star_eval,
    star_poly,
    star_via_composition,
    symm_eval,
    symmetric_completion,
)
from sliceregular.expr import Recip, split
from sliceregular.quaternion import orthogonal_unit, slice_coords
from sliceregular.verify import SplitMix64

from conftest import reference_kernel


def report(number: int, name: str, passed: bool, detail: str) -> bool:
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] criterion {number:02d} {name}: {detail}")
    return passed


def test_criterion_01_grf_invariance():
    rng = SplitMix64(101)
    worst = 0.0
    for n in range(20):
        f = Poly(rng.polynomial(max_degree=8))
        out = check_grf_invariance(f, spheres=20, unit_pairs=20, seed=200 + n)
        worst = max(worst, out.max_residual)
    ok = worst < 1e-9
    assert report(1, "grf invariance (random polynomials)", ok,
                  f"max spread {worst:.3e} < 1e-9 over 20 polys x 20 spheres x 20 pairs")


def test_criterion_01_conjugation_control():
    # Falsifiability control: q -> conj(q) is not regular and the harness
    # must reject it by a wide margin.  It sends x + y*I to x - y*I, so it is
    # a slice function and the representation formula rebuilds it exactly;
    # the property it fails is regularity, measured by the slice
    # Cauchy-Riemann residual |1/2 (d/dx + I d/dy) f|, which is 1 on every
    # slice.  Both facts are asserted, so the two properties stay distinct.
    control = RawMap(lambda q: q.conjugate())
    rng = SplitMix64(300)
    worst_cr = max(regularity_residual(control, rng.point()) for _ in range(20))
    grf = check_grf_invariance(control, spheres=20, unit_pairs=20, seed=300)
    ok = worst_cr > 1e-2 and grf.passed
    assert report(1, "falsifiability control q -> conj(q)", ok,
                  f"control Cauchy-Riemann residual {worst_cr:.3e}, required > 1e-2 "
                  f"over 20 points; grf spread/m {grf.max_residual:.3e} "
                  f"<= {grf.tolerance:.0e} (slice, not regular)")


def test_criterion_02_star_oracle_equivalence():
    rng = SplitMix64(102)
    worst = 0.0
    for _ in range(50):
        f, g = rng.polynomial(max_degree=5), rng.polynomial(max_degree=5)
        oracle = star_poly(f, g)
        for _ in range(100):
            q = rng.point()
            worst = max(worst, (star_eval(Poly(f), Poly(g), q)
                                - oracle.evaluate(q)).norm())
    ok = worst < 1e-9
    assert report(2, "star vs coefficient convolution", ok,
                  f"max |splitting - convolution| {worst:.3e} < 1e-9 "
                  "(50 pairs x 100 points)")


def test_criterion_03_composition_identity():
    rng = SplitMix64(103)
    worst, used = 0.0, 0
    while used < 1000:
        f = Poly(rng.polynomial(max_degree=5))
        g = Poly(rng.polynomial(max_degree=5))
        q = rng.point()
        if evaluate(f, q).norm() <= 1e-6:
            continue
        worst = max(worst, (star_via_composition(f, g, q)
                            - star_eval(f, g, q)).norm())
        used += 1
    ok = worst < 1e-8
    assert report(3, "composition form of the star product", ok,
                  f"max residual {worst:.3e} < 1e-8 (1000 samples, |f(q)| > 1e-6)")


def test_criterion_04_antihomomorphism_and_multiplicativity():
    # The identities are exact; the absolute tolerance is meaningful only if
    # |f^s(q) g^s(q)| stays a few orders of magnitude below 1e-9/eps, so the
    # samples are kept at low degree and moderate coefficients.
    rng = SplitMix64(104)
    worst_conj, worst_symm = 0.0, 0.0
    for _ in range(1000):
        f = Poly(rng.polynomial(max_degree=3, coeff_bound=0.5))
        g = Poly(rng.polynomial(max_degree=3, coeff_bound=0.5))
        q = rng.point()
        lhs = conj_eval(Poly(star_poly(f.poly, g.poly)), q)
        rhs = star_eval(Poly(conj_poly(g.poly)), Poly(conj_poly(f.poly)), q)
        worst_conj = max(worst_conj, (lhs - rhs).norm())
        sfg = symm_eval(Poly(star_poly(f.poly, g.poly)), q)
        worst_symm = max(worst_symm,
                         (sfg - symm_eval(f, q) * symm_eval(g, q)).norm())
    ok = worst_conj < 1e-9 and worst_symm < 1e-9
    assert report(4, "(f*g)^c = g^c*f^c and (f*g)^s = f^s g^s", ok,
                  f"max residuals {worst_conj:.3e}, {worst_symm:.3e} < 1e-9 "
                  "(1000 samples)")


def test_criterion_05_symmetrization_slice_preservation():
    rng = SplitMix64(105)
    worst = 0.0
    for _ in range(1000):
        f = Poly(rng.polynomial(max_degree=5))
        q = rng.point()
        v = symm_eval(f, q)
        p = slice_coords(q)
        parts = split(v, p.unit, orthogonal_unit(p.unit))
        worst = max(worst, abs(parts.g))
    ok = worst < 1e-10
    assert report(5, "f^s preserves slices", ok,
                  f"max off-slice component {worst:.3e} < 1e-10 (1000 samples)")


def test_criterion_06_reciprocal_identities():
    rng = SplitMix64(106)
    worst_left, worst_right, used = 0.0, 0.0, 0
    one = Quaternion(1.0)
    while used < 1000:
        f = Poly(rng.polynomial(max_degree=4))
        q = rng.point()
        if symm_eval(f, q).norm() <= 1e-3:
            continue
        worst_left = max(worst_left, (star_eval(Recip(f), f, q) - one).norm())
        worst_right = max(worst_right, (star_eval(f, Recip(f), q) - one).norm())
        used += 1
    ok = worst_left < 1e-8
    assert report(6, "left reciprocal identity (right measured too)", ok,
                  f"max |f^-* * f - 1| {worst_left:.3e} < 1e-8, "
                  f"right {worst_right:.3e} (1000 samples, |f^s| > 1e-3)")


def test_criterion_07_cauchy_kernel():
    # cauchy_kernel is the reciprocal of q - s; its oracle is the closed form
    rng = SplitMix64(107)
    worst, used = 0.0, 0
    while used < 100:
        s, q = rng.quaternion(2.0), rng.point()
        denom = q * q - (2.0 * s.re()) * q + Quaternion(s.norm_sq())
        if denom.norm() < 1e-3:
            continue
        want = reference_kernel(s, q)
        worst = max(worst, (cauchy_kernel(s, q) - want).norm() / want.norm())
        used += 1
    exact = (cauchy_kernel(UNIT_J.u, 2.0 * UNIT_J.u) - (-UNIT_J.u)).norm()
    ok = worst < 1e-9 and exact < 1e-12
    assert report(7, "Cauchy kernel vs closed form", ok,
                  f"max relative gap {worst:.3e} < 1e-9 (100 pairs); "
                  f"|S^-*(2j) + j| = {exact:.3e} < 1e-12")


def _dense_sphere_units(count: int, seed: int):
    rng = SplitMix64(seed)
    return [rng.unit() for _ in range(count)]


def test_criterion_08_roots():
    units = _dense_sphere_units(10_000, 108)

    spherical = poly_roots(polynomial([1.0, 0.0, 1.0]))
    ok_sph = (len(spherical) == 1 and spherical[0].kind is ZeroKind.SPHERICAL
              and abs(spherical[0].x) < 1e-9 and abs(spherical[0].y - 1.0) < 1e-9)

    isolated = poly_roots(monomial_minus(UNIT_J.u))
    ok_iso = (len(isolated) == 1 and isolated[0].kind is ZeroKind.ISOLATED
              and (isolated[0].unit.u - UNIT_J.u).norm() < 1e-9)

    rng = SplitMix64(109)
    worst_res = 0.0
    consistent = True
    for _ in range(8):
        p = rng.polynomial(max_degree=6)
        expr = Poly(p)
        for z in poly_roots(p):
            values = [evaluate(expr, from_slice(z.x, z.y, u)).norm() for u in units]
            lo, hi = min(values), max(values)
            if z.kind is ZeroKind.SPHERICAL:
                worst_res = max(worst_res, hi)
                consistent = consistent and hi < 1e-7
            elif z.kind is ZeroKind.ISOLATED:
                at_zero = evaluate(expr, from_slice(z.x, z.y, z.unit)).norm()
                worst_res = max(worst_res, at_zero)
                if z.y == 0.0:
                    # a real point: every unit sees the same value
                    consistent = consistent and at_zero < 1e-7 and hi - lo < 1e-12
                else:
                    # dense sampling agrees: the minimizing unit sits next to
                    # the reported one, and the sphere is not a spherical zero
                    best = min(range(len(units)), key=lambda n: values[n])
                    near = (units[best].u - z.unit.u).norm()
                    consistent = (consistent and at_zero < 1e-7
                                  and near < 0.1 and hi > 1e-4)
            else:
                consistent = False
    ok = ok_sph and ok_iso and consistent and worst_res < 1e-7
    assert report(8, "polynomial zero finder", ok,
                  f"q^2+1 spherical: {ok_sph}; q-j isolated at j: {ok_iso}; "
                  f"random polys worst residual {worst_res:.3e} < 1e-7, "
                  f"dense-sampling consistent: {consistent}")


def test_criterion_09_extension_roundtrip():
    rng = SplitMix64(110)
    worst = 0.0
    for _ in range(10):
        p = rng.polynomial(max_degree=8)
        for _ in range(5):
            ext = ext_from_holomorphic(restriction_stem(Poly(p), rng.unit()))
            for _ in range(100):
                q = rng.point()
                worst = max(worst, (evaluate(ext, q) - p.evaluate(q)).norm())
    ok = worst < 1e-9
    assert report(9, "extension round-trip", ok,
                  f"max |ext(f|_L) - f| {worst:.3e} < 1e-9 "
                  "(10 polys x 5 slices x 100 points)")


def test_criterion_10_zero_dichotomy():
    x0, y0 = 0.5, 0.7
    s = from_slice(x0, y0, UNIT_J)

    both = star_poly(monomial_minus(s), monomial_minus(s.conjugate()))
    ext_both = ext_from_holomorphic(restriction_stem(Poly(both), UNIT_J))
    z_both = sphere_zero_classify(ext_both, x0, y0, tol=1e-9)

    one = monomial_minus(s)
    ext_one = ext_from_holomorphic(restriction_stem(Poly(one), UNIT_J))
    z_one = sphere_zero_classify(ext_one, x0, y0, tol=1e-9)

    ok = z_both.kind is ZeroKind.SPHERICAL and z_one.kind is not ZeroKind.SPHERICAL
    assert report(10, "stem zero dichotomy on x0 + y0*S", ok,
                  f"vanishing at both x0 +- y0 j: {z_both.kind.value}; "
                  f"at one only: {z_one.kind.value}")


def test_criterion_11_s_domain_classifier():
    off_axis = symmetric_completion(SliceRegion((Disc(0.0, 2.0, 1.0),)))
    ball = symmetric_completion(SliceRegion((Disc(0.0, 0.0, 1.0),)))
    ok = (not off_axis.is_s_domain) and ball.is_s_domain
    assert report(11, "s-domain classifier", ok,
                  f"off-axis disc is_s_domain={off_axis.is_s_domain} (want False); "
                  f"real-centered ball is_s_domain={ball.is_s_domain} (want True)")
