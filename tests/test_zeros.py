"""Zero sets, polynomial roots and the Cauchy kernel."""

import cmath
from fractions import Fraction
import math
import sys

import pytest

from sliceregular import (
    NonConvergence,
    ONE,
    Poly,
    Quaternion,
    SingularPoint,
    SlicePolynomial,
    Star,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    ZeroKind,
    aberth_roots,
    cauchy_kernel,
    evaluate,
    from_slice,
    monomial_minus,
    poly_roots,
    polynomial,
    sphere_zero_classify,
    star_poly,
    star_zero_check,
    symm_poly,
)
from sliceregular import zeros as zeros_module
from sliceregular.verify import SplitMix64
from sliceregular.zeros import (
    ABERTH_MAX_ITER,
    ABERTH_TOL,
    CLASSIFY_TOL,
    _poly_val_der,
    _refine,
    _symm_complex_coeffs,
    kernel_vs_recip_residual,
)

from conftest import assert_close, reference_kernel


def test_aberth_finds_all_roots():
    # (z-1)(z-2)(z-3) = -6 + 11z - 6z^2 + z^3
    roots = sorted(aberth_roots([-6, 11, -6, 1]), key=lambda z: z.real)
    for got, want in zip(roots, (1.0, 2.0, 3.0)):
        assert abs(got - want) <= 1e-10


def test_aberth_handles_multiple_roots():
    # (z-1)^4
    roots = aberth_roots([1, -4, 6, -4, 1])
    assert len(roots) == 4
    assert all(abs(z - 1.0) <= 1e-3 for z in roots)


def _exact_zero_roots(coeffs):
    """0j for each low-order coefficient that is exactly 0, below the last."""
    j = 0
    while j < len(coeffs) - 1 and coeffs[j] == 0:
        j += 1
    return [0j] * j


def _reference_edges(coeffs):
    """(w, radius) per edge of the Newton polygon of the |coeffs[k]|, in
    increasing k, found by gift wrapping: from each vertex (i, e_i), e_k the
    exponent with |coeffs[k]| in [2^(e_k - 1), 2^e_k), the next is the
    farthest nonzero k > i of steepest rise (e_k - e_i)/(k - i), exactly in
    Fractions.  An edge of width w and exponent drop p has radius
    2^((p % w)/w) * 2^(p // w).  NonConvergence unless every |coeffs[k]| is
    finite and every p // w in [-1022, 1023].
    """
    if not all(math.isfinite(abs(c)) for c in coeffs):
        raise NonConvergence("a coefficient's norm is out of range")
    points = [(k, math.frexp(abs(c))[1]) for k, c in enumerate(coeffs) if c != 0]
    (i, ei), edges = points[0], []
    while i < points[-1][0]:
        j, ej = max((pt for pt in points if pt[0] > i),
                    key=lambda pt: (Fraction(pt[1] - ei, pt[0] - i), pt[0]))
        w, p = j - i, ei - ej
        if not -1022 <= p // w <= 1023:
            raise NonConvergence("a radius is out of range")
        edges.append((w, math.ldexp(2.0 ** ((p % w) / w), p // w)))
        i, ei = j, ej
    return edges


def _reference_stop(coeffs, z, partial):
    """p(z), p'(z) and whether z stops: p == 0 or |p| <= 1e-14 * sum |a_k|
    |z|^k, the sum by Horner; NonConvergence with ``partial`` where p, p' or
    the sum is not finite, which is no stop."""
    p, dp = _poly_val_der(coeffs, z)
    backward = 0.0
    for c in reversed(coeffs):
        backward = backward * abs(z) + abs(c)
    if not (cmath.isfinite(p) and cmath.isfinite(dp) and backward < math.inf):
        raise NonConvergence("an iterate is out of range", partial=partial)
    return p, dp, p == 0 or abs(p) <= 1e-14 * backward


def _reference_aberth(coeffs, max_iter=ABERTH_MAX_ITER, tol=ABERTH_TOL):
    """Aberth sweep that re-examines every root on every sweep.

    This is the plain form of ``aberth_roots``; the library version leaves
    settled roots out of later sweeps and must agree with it bit for bit.
    Each edge of width w of the Newton polygon (_reference_edges) gets w
    starts at angles 2 pi m/w + 0.4; p is then evaluated on a/a_n.  Each
    corrected iterate is written back at once (Gauss-Seidel order), so the
    later corrections of the sweep use it; the correction is summed in index
    order and the step, never settled when NaN, is tested against the
    iterate before it.
    """
    n = len(coeffs) - 1
    while n > 0 and abs(coeffs[n]) == 0.0:
        n -= 1
    zeros = _exact_zero_roots(coeffs[: n + 1])
    coeffs = list(coeffs[len(zeros): n + 1])
    n -= len(zeros)
    if n < 1:
        return zeros
    try:
        edges = _reference_edges(coeffs)
    except NonConvergence as exc:
        raise NonConvergence(str(exc), partial=zeros) from None
    coeffs = [c / coeffs[-1] for c in coeffs]
    z = [r * cmath.exp(1j * (2.0 * math.pi * m / w + 0.4)) for w, r in edges for m in range(w)]
    for _ in range(max_iter):
        done = True
        for m in range(n):
            zm = z[m]
            p, dp, stop = _reference_stop(coeffs, zm, zeros)
            if stop:
                continue
            if dp == 0:
                z[m] = zm * (1.0 + 1e-6) + 1e-6
                done = False
                continue
            newton = p / dp
            s = 0j
            for l in range(n):
                if l != m:
                    s += 1.0 / (zm - z[l])
            denom = 1.0 - newton * s
            w = newton if denom == 0 else newton / denom
            z[m] = zm - w
            if not abs(w) <= tol * abs(zm):
                done = False
        if done:
            return zeros + z
    raise NonConvergence("Aberth iteration did not converge", partial=zeros + z)


def _reference_aberth_pairs(coeffs, max_iter=ABERTH_MAX_ITER, tol=ABERTH_TOL):
    """Conjugate-pair Aberth sweep that re-examines every iterated root on
    every sweep.

    This is the plain form of ``aberth_roots(..., conjugate_pairs=True)``,
    which leaves settled roots out of later sweeps; it must agree bit for
    bit.  The n radii of the Newton polygon (_reference_edges), in
    increasing order, give every second one to a start, at angles
    pi (m + 1/2)/(n/2); p is evaluated on a/a_n.  Like ``_reference_aberth``
    it writes each corrected iterate back at once, so its conjugate enters
    the later corrections of the sweep too.
    """
    n = len(coeffs) - 1
    while n > 0 and abs(coeffs[n]) == 0.0:
        n -= 1
    zeros = _exact_zero_roots(coeffs[: n + 1])
    coeffs = list(coeffs[len(zeros): n + 1])
    n -= len(zeros)
    zeros = zeros[: len(zeros) // 2]  # half of them lead each half of the result
    layout = zeros + [zl.conjugate() for zl in zeros]
    try:
        radii = [r for w, r in _reference_edges(coeffs) for _ in range(w)] if n else []
    except NonConvergence as exc:
        raise NonConvergence(str(exc), partial=layout) from None
    coeffs = [c / coeffs[-1] for c in coeffs] if n else coeffs
    half = n // 2
    z = [radii[2 * m] * cmath.exp(1j * (math.pi * (m + 0.5) / half)) for m in range(half)]
    done = False
    for _ in range(max_iter):
        done = True
        for m in range(half):
            zm = z[m]
            p, dp, stop = _reference_stop(coeffs, zm, layout)
            if stop:
                continue
            if dp == 0:
                z[m] = zm * (1.0 + 1e-6) + 1e-6
                done = False
                continue
            newton = p / dp
            s = 0j
            for l in range(half):
                if l != m:
                    s += 1.0 / (zm - z[l])
            for l in range(half):
                s += 1.0 / (zm - z[l].conjugate())
            denom = 1.0 - newton * s
            w = newton if denom == 0 else newton / denom
            z[m] = zm - w
            if not abs(w) <= tol * abs(zm):
                done = False
        if done:
            break
    z = zeros + z
    z += [zl.conjugate() for zl in z]
    if not done:
        raise NonConvergence("Aberth iteration did not converge", partial=z)
    return z


def _outcome(solver, coeffs):
    """repr of the roots, or of the partial roots on NonConvergence.

    repr tells every distinct double apart, signed zeros included.
    """
    try:
        return repr(solver(coeffs))
    except NonConvergence as exc:
        return "NonConvergence " + repr(list(exc.partial))


@pytest.mark.parametrize("degree", [5, 20, 40])
def test_aberth_matches_all_roots_sweep_exactly(degree):
    rng = SplitMix64(degree)
    complex_coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(degree + 1)]
    symm_coeffs = _symm_complex_coeffs(polynomial([rng.quaternion() for _ in range(degree + 1)]))
    for coeffs in (complex_coeffs, symm_coeffs):
        assert _outcome(aberth_roots, coeffs) == _outcome(_reference_aberth, coeffs)


def test_aberth_matches_all_roots_sweep_on_spherical_factor():
    # f = (q^2 - 2xq + x^2 + y^2) * g vanishes on the whole sphere x + yS, so
    # f^s has double roots at x +- iy, which settle at different sweeps.
    rng = SplitMix64(77)
    for x, y in ((0.0, 1.0), (-0.5, 0.75), (1.25, 2.0)):
        sphere = polynomial([x * x + y * y, -2.0 * x, 1.0])
        g = polynomial([rng.quaternion() for _ in range(4)])
        coeffs = _symm_complex_coeffs(star_poly(sphere, g))
        assert _outcome(aberth_roots, coeffs) == _outcome(_reference_aberth, coeffs)
        # A double root stalls near sqrt(eps) until the polish pass.
        assert min(abs(z - complex(x, y)) for z in aberth_roots(coeffs)) <= 1e-4


def _bit_identity_symm_coeffs(degree):
    """f^s coefficients of the polynomial that
    test_aberth_matches_all_roots_sweep_exactly draws for this degree."""
    return _symm_complex_coeffs(_bit_identity_poly(degree))


def _bit_identity_poly(degree):
    """The polynomial whose f^s _bit_identity_symm_coeffs gives."""
    rng = SplitMix64(degree)
    for _ in range(2 * (degree + 1)):
        rng.uniform(-1, 1)
    return polynomial([rng.quaternion() for _ in range(degree + 1)])


def _spherical_factor_polys():
    """The products of test_aberth_matches_all_roots_sweep_on_spherical_factor."""
    rng = SplitMix64(77)
    return [star_poly(polynomial([x * x + y * y, -2.0 * x, 1.0]),
                      polynomial([rng.quaternion() for _ in range(4)]))
            for x, y in ((0.0, 1.0), (-0.5, 0.75), (1.25, 2.0))]


def _pair_sweep_inputs():
    cases = [(f"random-{d}", _bit_identity_poly(d)) for d in (5, 20, 40)]
    cases += [(f"spherical-{k}", f) for k, f in enumerate(_spherical_factor_polys())]
    # a zero at the center (f^s = z^2 g^s), f^s with coefficients up to
    # 1e306, and f scaled far from 1
    cases += [("zero-at-center",
               star_poly(polynomial([0.0, 1.0]), SplitMix64(79).polynomial(max_degree=6))),
              ("overflow-1e153+q", polynomial([1e153, 1.0])),
              ("overflow-q^2+1e40", polynomial([1e40, 0.0, 1.0]))]
    cases += [(f"random-{d}-times-2^{e}", _bit_identity_poly(d).right_scaled(Quaternion(2.0 ** e)))
              for d in (5, 20) for e in (-400, 400)]
    return [pytest.param(_symm_complex_coeffs(f), id=name) for name, f in cases]


@pytest.mark.parametrize("max_iter", [5, ABERTH_MAX_ITER])  # 5: NonConvergence.partial
@pytest.mark.parametrize("coeffs", _pair_sweep_inputs())
def test_aberth_matches_plain_pair_sweep_exactly(coeffs, max_iter):
    def pairs(c):
        return aberth_roots(c, max_iter, conjugate_pairs=True)

    def plain(c):
        return _reference_aberth_pairs(c, max_iter)

    assert _outcome(pairs, coeffs) == _outcome(plain, coeffs)


@pytest.mark.parametrize("scale", [2.0 ** -500, 1.0, 2.0 ** 500])
def test_symm_complex_coeffs_are_the_real_parts_of_symm_poly(scale):
    # Each non-lead coefficient is scaled by a further 2^e, |e| <= 40, so
    # products overflow to inf and underflow to subnormals or 0; the lead's
    # square stays nonzero.
    rng = SplitMix64(80)
    for degree in range(1, 51):
        coeffs = [rng.quaternion() * (scale * 2.0 ** (rng.next_u64() % 81 - 40))
                  for _ in range(degree)]
        f = polynomial(coeffs + [rng.quaternion() * scale])
        want = [complex(c.x0) for c in symm_poly(f).coeffs]
        assert repr(_symm_complex_coeffs(f)) == repr(want)


def test_poly_roots_tiny_non_real_lead_is_out_of_range():
    # |a_1|^2 underflows to 0 although a_1 is not real: the leading
    # coefficient of f^s is 0.  The iteration runs on f's stem and never
    # forms f^s, so it finds the true zero -a_1^-1 of 1 + q a_1, an isolated
    # one of modulus about 1.6e169.
    a = Quaternion(3e-170, 7e-171, -5e-170, 2.3e-170)
    f = polynomial([1.0, a])
    assert _symm_complex_coeffs(f)[-1] == 0
    b = a * Quaternion(1e170)  # a's direction, its squares normal
    want = -(b.conjugate() * Quaternion(1e170 / b.norm_sq()))
    [zero] = poly_roots(f)
    assert zero.kind is ZeroKind.ISOLATED and zero.converged
    assert_close(from_slice(zero.x, zero.y, zero.unit), want, tol=1e-14 * want.norm())


@pytest.mark.parametrize("degree", [5, 20, 40])
def test_aberth_conjugate_pairs(degree):
    coeffs = _bit_identity_symm_coeffs(degree)
    roots = aberth_roots(coeffs, conjugate_pairs=True)
    n = 2 * degree
    assert len(roots) == n
    assert roots[n // 2:] == [z.conjugate() for z in roots[: n // 2]]
    for z in roots:
        p, _ = _poly_val_der(coeffs, z)
        assert abs(p) <= 1e-13 * sum(abs(a) * abs(z) ** k for k, a in enumerate(coeffs))


def test_aberth_conjugate_pairs_rejects_other_input():
    with pytest.raises(ValueError):
        aberth_roots([1.0, 0.5j, 1.0], conjugate_pairs=True)
    with pytest.raises(ValueError):
        aberth_roots([-6, 11, -6, 1], conjugate_pairs=True)
    with pytest.raises(ValueError):  # an odd number of zero roots
        aberth_roots([0.0, 1.0, 1.0], conjugate_pairs=True)


def test_aberth_exact_zero_roots():
    # A relative step stop is never met by an iterate that converges to 0,
    # so exactly zero low-order coefficients give exact zero roots, half of
    # them in each half of the conjugate-pair layout.
    assert aberth_roots([0, 0, 1, 1]) == [0j, 0j, -1 + 0j]
    assert aberth_roots([0.0, 0.0, 0.0, 1.0]) == [0j] * 3
    roots = aberth_roots([0.0, 0.0, 1.0, 0.0, 1.0], conjugate_pairs=True)
    assert roots[0] == roots[2] == 0 and abs(roots[1] - 1j) <= 1e-15
    assert roots[2:] == [z.conjugate() for z in roots[:2]]


def _sweeps_to_converge(coeffs):
    """The least max_iter at which aberth_roots(coeffs, conjugate_pairs=True)
    returns, by bisection: convergence is monotone in the cap."""
    lo, hi = 0, ABERTH_MAX_ITER  # fails at lo, returns at hi
    aberth_roots(coeffs, hi, conjugate_pairs=True)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            aberth_roots(coeffs, mid, conjugate_pairs=True)
            hi = mid
        except NonConvergence:
            lo = mid
    return hi


def test_aberth_sweep_count_on_seeded_symmetrizations():
    # A count, not a time: Gauss-Seidel sweeps (each corrected iterate
    # enters the later corrections of its sweep) from Newton-polygon starts
    # need 163 sweeps over these 20 inputs.
    total = 0
    for d in (10, 20):
        for seed in range(1, 11):
            rng = SplitMix64(1000 * d + seed)
            f = polynomial([rng.quaternion() for _ in range(d + 1)])
            total += _sweeps_to_converge(_symm_complex_coeffs(f))
    assert total <= 171


def _start_moduli(coeffs, conjugate_pairs=False):
    """|z| of each start iterate, which NonConvergence carries when no sweep
    is allowed (in the pair layout, the iterated half first)."""
    with pytest.raises(NonConvergence) as exc:
        aberth_roots(coeffs, max_iter=0, conjugate_pairs=conjugate_pairs)
    return [abs(z) for z in exc.value.partial]


def _same_moduli(got, want):
    """Equal to the angles' rounding."""
    return len(got) == len(want) and all(abs(g / w - 1.0) <= 2.0 ** -50 for g, w in zip(got, want))


def test_aberth_starts_on_the_newton_polygon_radii():
    # An edge of width w and exponent drop p of the upper hull of the
    # exponents of the |a_k| gives w starts of radius 2^(p/w): z^3 + 2^-10
    # has one edge (w = 3, p = -10), on the circle of its roots;
    # (z + 2^-20)(z + 2^20) has two of width 1; (z^2 + 2^-40)(z^2 + 2^40) has
    # two of width 2, of which the pair sweep takes every second radius.
    assert _same_moduli(_start_moduli([2.0 ** -10, 0.0, 0.0, 1.0]), [2.0 ** (-10 / 3)] * 3)
    assert _same_moduli(_start_moduli([1.0, 2.0 ** 20 + 2.0 ** -20, 1.0]), [2.0 ** -20, 2.0 ** 20])
    coeffs = [1.0, 0.0, 2.0 ** 40 + 2.0 ** -40, 0.0, 1.0]
    assert _same_moduli(_start_moduli(coeffs), [2.0 ** -20] * 2 + [2.0 ** 20] * 2)
    assert _same_moduli(_start_moduli(coeffs, conjugate_pairs=True)[:2], [2.0 ** -20, 2.0 ** 20])
    for n in range(1, 9):
        assert _same_moduli(_start_moduli([-1.0] + [0.0] * (n - 1) + [1.0]), [1.0] * n)


def test_aberth_start_radii_multiply_to_the_product_of_the_roots():
    # The edges' drops sum to e_0 - e_n, so the radii, nondecreasing, multiply
    # to 2^(e_0 - e_n), within a factor 2 of |a_0 / a_n|, the product of the
    # root moduli (Vieta).  The pair sweep starts at every second radius.
    for seed in range(1, 21):
        coeffs = _symm_complex_coeffs(SplitMix64(seed).polynomial(max_degree=8))
        moduli = _start_moduli(coeffs)
        assert all(a <= b * (1.0 + 2.0 ** -50) for a, b in zip(moduli, moduli[1:]))
        log_product = sum(map(math.log2, moduli))
        drop = math.frexp(abs(coeffs[0]))[1] - math.frexp(abs(coeffs[-1]))[1]
        assert abs(log_product - drop) <= 1e-12 * len(moduli)
        assert abs(log_product - math.log2(abs(coeffs[0] / coeffs[-1]))) < 1.0
        half = _start_moduli(coeffs, conjugate_pairs=True)[: len(moduli) // 2]
        assert _same_moduli(half, moduli[::2])


def test_aberth_start_circle_out_of_range():
    # A radius 2^1022 is a double, and p and its bound stay finite there:
    # the root is found.  A radius below 2^-1022 is not a normal double, and
    # an infinite |a_k| has no exponent.  At 1e308 + z, p overflows at the
    # start 2^1023 e^(0.4i); an overflow never stops a root.  Each raises
    # NonConvergence with the exact zero roots alone.
    assert aberth_roots([1.5 * 2.0 ** 1022, 1.0]) == [-1.5 * 2.0 ** 1022 + 0j]
    for coeffs, partial in (([5e-324, 1.0], ()), ([math.inf, 1.0], ()),
                            ([1e308, 1.0], ()), ([0.0, 1e308, 1.0], (0j,))):
        with pytest.raises(NonConvergence) as exc:
            aberth_roots(coeffs)
        assert exc.value.partial == partial
    with pytest.raises(NonConvergence) as exc:
        aberth_roots([0.0, 0.0, 1.0, 1e308, 1.0], conjugate_pairs=True)
    assert [repr(z) for z in exc.value.partial] == ["0j", "-0j"]
    # p' overflows before p and its bound do at the starts of z^300 + 2e307
    # (radius 10.5, |p'| about 5.7e308), where p/p' is 0 or NaN: no step,
    # and no stop.  On a/a_n it stays in range for 1e307 z^30 + 1e307,
    # whose roots are found.
    with pytest.raises(NonConvergence) as exc:
        aberth_roots([2e307] + [0.0] * 299 + [1.0])
    assert exc.value.partial == ()
    roots = aberth_roots([1e307] + [0.0] * 29 + [1e307])
    assert len(roots) == 30 and all(abs(z ** 30 + 1.0) <= 1e-12 for z in roots)
    # Near the top of the range, c + z after j exact zero roots gives its
    # true root -c or raises; it never returns a start.
    for c in (1e300, 1e307, 1e308, 1.7e308, -1.7e308, 2.0 ** 1023):
        for j in (0, 1, 2):
            try:
                roots = aberth_roots([0.0] * j + [c, 1.0])
            except NonConvergence as exc:
                assert exc.partial == (0j,) * j
            else:
                assert roots[:j] == [0j] * j and abs(roots[j] + c) <= 1e-14 * abs(c)


def _scaled_outcome(coeffs, conjugate_pairs, j=0):
    """repr of the roots of sum_k c_k 2^(jk) z^k times 2^j, or of the
    partial roots on NonConvergence."""
    scaled = [c * 2.0 ** (j * k) for k, c in enumerate(coeffs)]
    try:
        roots = aberth_roots(scaled, conjugate_pairs=conjugate_pairs)
    except NonConvergence as exc:
        return "NonConvergence " + repr([z * 2.0 ** j for z in exc.partial])
    return repr([z * 2.0 ** j for z in roots])


@pytest.mark.parametrize("conjugate_pairs", [False, True])
def test_aberth_roots_exactly_covariant_under_scaling_of_the_variable(conjugate_pairs):
    # c_k 2^(jk) is c in 2^j z: its Newton-polygon radii are exactly 2^-j
    # times c's, and so are its stops and steps, and its roots.
    for seed in range(1, 21):
        rng = SplitMix64(500 + seed)
        if conjugate_pairs:
            coeffs = _symm_complex_coeffs(rng.polynomial(max_degree=6))
        else:
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(2 + rng.next_u64() % 11)]
        want = _scaled_outcome(coeffs, conjugate_pairs)
        for j in (1, -1, 7, -7, 60, -60):
            assert _scaled_outcome(coeffs, conjugate_pairs, j) == want


def _weight(zeros):
    return sum({ZeroKind.ISOLATED: 1, ZeroKind.SPHERICAL: 2}.get(z.kind, 0) for z in zeros)


def test_poly_roots_reports_each_spherical_zero_once():
    # The spherical-factor polynomials of the bit-identity test: refinement
    # moves several candidates onto each sphere.
    rng = SplitMix64(77)
    for x, y in ((0.0, 1.0), (-0.5, 0.75), (1.25, 2.0)):
        sphere = polynomial([x * x + y * y, -2.0 * x, 1.0])
        f = star_poly(sphere, polynomial([rng.quaternion() for _ in range(4)]))
        zeros = poly_roots(f)
        near = [z for z in zeros if z.kind is ZeroKind.SPHERICAL
                and abs(z.x - x) <= 1e-6 and abs(z.y - y) <= 1e-6]
        assert len(near) == 1
        assert _weight(zeros) == f.degree


def test_poly_roots_double_isolated_zero():
    # (q - p) * (q - p) * g: f^s has double roots at x +- iy; the pair
    # iteration follows two roots there, so at most two isolated zeros may
    # be reported near p.
    rng = SplitMix64(78)
    for x, y in ((0.0, 1.0), (-0.5, 0.75), (1.25, 0.3)):
        factor = monomial_minus(from_slice(x, y, rng.unit()))
        f = star_poly(star_poly(factor, factor), polynomial([rng.quaternion() for _ in range(4)]))
        zeros = poly_roots(f)
        near = [z for z in zeros if z.kind is ZeroKind.ISOLATED
                and abs(z.x - x) <= 1e-6 and abs(z.y - y) <= 1e-6]
        assert 1 <= len(near) <= 2
        assert _weight(zeros) == f.degree


def test_classify_spherical_zero():
    p = Poly(polynomial([1.0, 0.0, 1.0]))  # q^2 + 1
    z = sphere_zero_classify(p, 0.0, 1.0)
    assert z.kind is ZeroKind.SPHERICAL


def test_classify_isolated_zero():
    p = Poly(monomial_minus(UNIT_J.u))
    z = sphere_zero_classify(p, 0.0, 1.0)
    assert z.kind is ZeroKind.ISOLATED
    assert_close(z.unit.u, UNIT_J.u, tol=1e-12)


def test_classify_nonzero_sphere():
    p = Poly(monomial_minus(UNIT_J.u))
    assert sphere_zero_classify(p, 1.0, 1.0).kind is ZeroKind.NONE


def test_classify_real_zero():
    p = Poly(polynomial([-2.0, 1.0]))  # q - 2
    z = sphere_zero_classify(p, 2.0, 0.0)
    assert z.kind is ZeroKind.ISOLATED
    assert z.unit_is_arbitrary


def test_poly_roots_spherical():
    zeros = poly_roots(polynomial([1.0, 0.0, 1.0]))
    assert len(zeros) == 1
    z = zeros[0]
    assert z.kind is ZeroKind.SPHERICAL
    assert z.x == pytest.approx(0.0, abs=1e-10)
    assert z.y == pytest.approx(1.0, abs=1e-10)


def test_poly_roots_isolated():
    zeros = poly_roots(monomial_minus(UNIT_J.u))
    assert len(zeros) == 1
    z = zeros[0]
    assert z.kind is ZeroKind.ISOLATED
    assert_close(z.unit.u, UNIT_J.u, tol=1e-10)


def test_poly_roots_mixed_product():
    # (q^2 + 1) * (q - 2): one spherical sphere, one real point
    f = star_poly(polynomial([1.0, 0.0, 1.0]), polynomial([-2.0, 1.0]))
    zeros = sorted(poly_roots(f), key=lambda z: z.x)
    kinds = [z.kind for z in zeros]
    assert kinds == [ZeroKind.SPHERICAL, ZeroKind.ISOLATED]
    assert zeros[0].y == pytest.approx(1.0, abs=1e-9)
    assert zeros[1].x == pytest.approx(2.0, abs=1e-9)


def test_poly_roots_of_star_of_two_monomials():
    # (q - i) * (q - j) vanishes only at q = i
    f = star_poly(monomial_minus(UNIT_I.u), monomial_minus(UNIT_J.u))
    zeros = [z for z in poly_roots(f) if z.kind is not ZeroKind.NONE]
    assert len(zeros) == 1
    z = zeros[0]
    assert z.kind is ZeroKind.ISOLATED
    assert_close(z.unit.u, UNIT_I.u, tol=1e-8)
    assert evaluate(Poly(f), from_slice(z.x, z.y, z.unit)).norm() <= 1e-10


def test_poly_roots_residuals_random():
    rng = SplitMix64(41)
    for _ in range(10):
        p = rng.polynomial(max_degree=5)
        expr = Poly(p)
        for z in poly_roots(p):
            if z.kind is ZeroKind.ISOLATED:
                q = from_slice(z.x, z.y, z.unit)
                assert evaluate(expr, q).norm() <= 1e-7 * max(1.0, p.coeff_norm())
            elif z.kind is ZeroKind.SPHERICAL:
                for unit in (UNIT_I, UNIT_J, UNIT_K):
                    q = from_slice(z.x, z.y, unit)
                    assert evaluate(expr, q).norm() <= 1e-7 * max(1.0, p.coeff_norm())


ISO, SPH = ZeroKind.ISOLATED, ZeroKind.SPHERICAL


@pytest.mark.parametrize("coeffs, want", [
    ([0.0, 1.0], [(0.0, 0.0, ISO)]),  # zeros at the center, where the majorant is 0
    ([0.0, 0.0, 1.0], [(0.0, 0.0, ISO)]),
    ([0.0, -1.0, 1.0], [(0.0, 0.0, ISO), (1.0, 0.0, ISO)]),
    ([1e-20, 0.0, 1.0], [(0.0, 1e-10, SPH)]),  # zeros far below 1e-8: q^2 + 1e-20
    ([-1e-18, 0.0, 1.0], [(-1e-9, 0.0, ISO), (1e-9, 0.0, ISO)]),  # and q^2 - 1e-18
    # small zeros beside a large one: (q - 1)(q - 2)(q - 1e9) and (q^2 + 1)(q - 1e9)
    ([-2e9, 3e9 + 2.0, -1e9 - 3.0, 1.0], [(1.0, 0.0, ISO), (2.0, 0.0, ISO), (1e9, 0.0, ISO)]),
    ([-1e9, 1.0, -1e9, 1.0], [(0.0, 1.0, SPH), (1e9, 0.0, ISO)]),
    # simple real zeros, double roots of f^s, stay points: (q + 24)(q + 12)
    # and (q - 1e-7)(q - 3); the double sphere of (q^2 + 1)^2 is one zero
    ([288.0, 36.0, 1.0], [(-24.0, 0.0, ISO), (-12.0, 0.0, ISO)]),
    ([3e-7, -3.0000001, 1.0], [(1e-7, 0.0, ISO), (3.0, 0.0, ISO)]),
    ([1.0, 0.0, 2.0, 0.0, 1.0], [(0.0, 1.0, SPH)]),
    # Aberth's start radii and step stop are relative to the roots:
    # q^2 + 1e-32, q^8 + 1e-100 (four spheres of modulus 10^-12.5), q^2 + 1e60
    ([1e-32, 0.0, 1.0], [(0.0, 1e-16, SPH)]),
    ([1e-100] + [0.0] * 7 + [1.0],
     [(10 ** -12.5 * math.cos(t), 10 ** -12.5 * math.sin(t), SPH)
      for t in (7 * math.pi / 8, 5 * math.pi / 8, 3 * math.pi / 8, math.pi / 8)]),
    ([1e60, 0.0, 1.0], [(0.0, 1e30, SPH)]),
])
def test_poly_roots_fold_and_merge_at_the_roots_scale(coeffs, want):
    zeros = poly_roots(polynomial(coeffs))
    assert [z.kind for z in zeros] == [kind for *_, kind in want]
    for z, (x, y, _) in zip(zeros, want):  # each zero to its own scale
        assert abs(z.x - x) <= 1e-6 * (abs(x) + y) and abs(z.y - y) <= 1e-6 * (abs(x) + y)


def test_poly_roots_simple_real_zeros_are_points():
    # prod (q - m 2^k) over 2 to 5 distinct integers m in -6..6: every zero
    # is a simple real one, exact in floating point, as are the coefficients.
    rng = SplitMix64(93)
    for _ in range(300):
        n, k = 2 + rng.next_u64() % 4, rng.next_u64() % 34 - 30
        ms = set()
        while len(ms) < n:
            ms.add(rng.next_u64() % 13 - 6)
        want = sorted(math.ldexp(m, k) for m in ms)
        f = polynomial([1.0])
        for r in want:
            f = star_poly(f, polynomial([-r, 1.0]))
        zeros = poly_roots(f)
        assert [(z.kind, z.y) for z in zeros] == [(ISO, 0.0)] * n
        for z, r in zip(zeros, want):
            assert abs(z.x - r) <= 1e-13 * max(map(abs, want))


def test_poly_roots_small_real_pair_to_the_last_bits():
    # q^2 - 1e-18: refined on f's stem, not on the rounded coefficients of f^s
    zeros = poly_roots(polynomial([-1e-18, 0.0, 1.0]))
    assert [z.kind for z in zeros] == [ISO, ISO]
    for z, r in zip(zeros, (-1e-9, 1e-9)):
        assert abs(z.x - r) <= 4 * math.ulp(1e-9)


@pytest.mark.parametrize("coeffs", [[1e153, 1.0], [1e40, 0.0, 1.0]])
def test_poly_roots_iterates_out_of_range(coeffs):
    # f^s is in range, and so are its terms at Aberth's Newton-polygon
    # starts: 1e153 + q has the isolated zero -1e153, q^2 + 1e40 the
    # spherical zero (0, 1e20).
    zeros = poly_roots(polynomial(coeffs))
    assert len(zeros) == 1
    z = zeros[0]
    if len(coeffs) == 2:
        assert (z.kind, z.x, z.y) == (ISO, -1e153, 0.0)
    else:
        assert (z.kind, z.y) == (SPH, 1e20) and abs(z.x) <= 1e-15 * z.y


def _scaled_coeffs_stay_normal(f, k):
    """Is every nonzero component of a_n 2^(kn), and 2^(kn), a normal double?"""
    return abs(k) * f.degree <= 1022 and all(
        v == 0.0 or -1021 <= math.frexp(v)[1] + k * n <= 1024
        for n, c in enumerate(f.coeffs) for v in (c.x0, c.x1, c.x2, c.x3))


def test_poly_roots_exactly_covariant_under_scaling_of_the_variable():
    # f(2^k q) has coefficients a_n 2^(kn) and exactly 2^-k times the zeros
    # of f: the starts, the stops, the refinement and the fold, merge and
    # classify decisions all scale with the roots.  Every k in -40..40, and
    # every eighth k out to +-200 where the coefficients stay normal.
    ks = [*range(-200, -40, 8), *range(-40, 41), *range(48, 201, 8)]
    for seed in range(1, 16):
        f = SplitMix64(seed).polynomial(max_degree=8)
        want = [(z.kind, z.x, z.y) for z in poly_roots(f)]
        for k in ks:
            if abs(k) > 40 and not _scaled_coeffs_stay_normal(f, k):
                continue
            g = polynomial([c * Quaternion(2.0 ** (k * n)) for n, c in enumerate(f.coeffs)])
            got = [(z.kind, z.x, z.y) for z in poly_roots(g)]
            assert got == [(kind, math.ldexp(x, -k), math.ldexp(y, -k)) for kind, x, y in want]


def test_poly_roots_about_a_nonzero_center_covariant_in_the_offset():
    # f(c + 2^k (q - c)) has coefficients a_n 2^(kn) about c and its zeros at
    # offsets 2^-k times those of f: refined and classified in w = q - c,
    # kinds and y are exact, and only x = c + Re w rounds at c's scale.
    center = 1.5
    for seed in range(1, 16):
        f = SplitMix64(seed).polynomial(max_degree=8, center=center)
        want = poly_roots(f)
        for k in range(-40, 41, 4):
            g = SlicePolynomial(center, [c * Quaternion(2.0 ** (k * n))
                                         for n, c in enumerate(f.coeffs)])
            got = poly_roots(g)
            assert [(z.kind, z.y) for z in got] == [(z.kind, math.ldexp(z.y, -k)) for z in want]
            for a, b in zip(got, want):  # each x rounded once, b.x's error scaled by 2^-k
                error = abs((a.x - center) - math.ldexp(b.x - center, -k))
                assert error <= 2.0 ** -51 * (abs(a.x) + math.ldexp(abs(b.x), -k))


@pytest.mark.parametrize("center, lead", [(0.0, ONE), (-1.5, Quaternion(0.5, -2.0, 0.25, 1.0))])
def test_poly_roots_power_of_the_center_is_one_isolated_zero(center, lead):
    # (q - c)^n a: f^s = (z - c)^2n |a|^2 never meets Aberth's backward-error
    # stop, so the factor is taken out and its zero reported once, exactly
    for n in range(1, 65):
        zeros = poly_roots(SlicePolynomial(center, [Quaternion()] * n + [lead]))
        assert [(z.x, z.y, z.kind, z.residual) for z in zeros] == [(center, 0.0, ISO, 0.0)]
        assert zeros[0].unit_is_arbitrary and zeros[0].converged


def test_poly_roots_center_factor_keeps_the_other_zeros():
    # (q - c)^j g with c the center, c != 0: the zero at c, then g's own zeros
    # w^3 (w^2 + 1)(w - 2), w = q - 1.5
    zeros = poly_roots(SlicePolynomial(1.5, [0.0] * 3 + [-2.0, 1.0, -2.0, 1.0]))
    near = pytest.approx
    assert [(z.kind, z.x, z.y) for z in zeros] == [
        (ISO, 1.5, 0.0), (SPH, near(1.5, abs=1e-12), near(1.0, abs=1e-12)), (ISO, near(3.5), 0.0)]
    rng = SplitMix64(95)
    for j in (1, 2, 5):
        for _ in range(5):
            g = rng.polynomial(max_degree=6, center=1.5)
            zeros = poly_roots(SlicePolynomial(1.5, (Quaternion(),) * j + g.coeffs))
            assert [(z.x, z.y, z.kind) for z in zeros if z.x == 1.5 and z.y == 0.0] == [
                (1.5, 0.0, ISO)]
            assert [z for z in zeros if (z.x, z.y) != (1.5, 0.0)] == poly_roots(g)


def _product_of_linear_factors(roots):
    f = polynomial([1.0])
    for r in roots:
        f = star_poly(f, polynomial([-r, 1.0]))
    return f


def test_poly_roots_finds_each_zero_of_close_real_clusters():
    # Products of q - r over r = +-(c + g i), i < k: 54 polynomials, 162
    # simple real zeros in clusters g apart, and the close triple at -23.
    # A zero is found when an isolated zero lies within 1e-6 |r| of it.
    cases = [[s * (c + g * i) for i in range(k) for s in (1, -1)]
             for c in (1, 5, 20) for g in (0.01, 0.1, 0.5) for k in (2, 3, 4)]
    cases.append([-23.19, -22.98, -22.93])
    for roots in cases:
        found = [complex(z.x, z.y) for z in poly_roots(_product_of_linear_factors(roots))
                 if z.kind is ZeroKind.ISOLATED]
        assert len(found) == len(roots), roots
        for r in roots:
            assert min(abs(z - r) for z in found) <= 1e-6 * abs(r), (roots, r)


def test_poly_roots_stop_test_count_on_seeded_polynomials(monkeypatch):
    # A count, not a time: the stop tests (evaluations of s at an unstopped
    # iterate) over 30 seeded dense polynomials of degree 10, 20 and 33.  The
    # stem iteration from Newton-polygon starts makes 5625 of them; the
    # iteration on f^s from Cauchy's radius made 11556.
    calls = 0
    stem_evaluator = zeros_module._stem_evaluator

    def counted(f):
        evaluator = stem_evaluator(f)

        def count(z):
            nonlocal calls
            calls += 1
            return evaluator(z)
        return count

    monkeypatch.setattr(zeros_module, "_stem_evaluator", counted)
    for d in (10, 20, 33):
        for seed in range(1, 11):
            rng = SplitMix64(1000 * d + seed)
            poly_roots(polynomial([rng.quaternion() for _ in range(d + 1)]))
    assert calls <= 5800


def test_poly_roots_per_zero_work_count_on_seeded_polynomials(monkeypatch):
    # A count, not a time: on the polynomials of the stop-test count, each
    # zero costs its refinement steps (one Horner pass of _stem_jet each) and
    # one stem pass to classify its sphere, 678 + 630 passes.  Refining on
    # the stems of f, f' and f'' and classifying through the quaternion
    # pipeline took 2664 stem and 1938 majorant passes.  Nothing on the path
    # evaluates f in quaternions, forms a majorant apart from the stem jet's
    # or splits a point into slice coordinates.
    passes = 0
    stem_jet, stem = zeros_module._stem_jet, SlicePolynomial.stem

    def counted(horner):
        def count(f, z):
            nonlocal passes
            passes += 1
            return horner(f, z)
        return count

    def refused(*args):
        raise AssertionError("not on the per-zero path")

    monkeypatch.setattr(zeros_module, "_stem_jet", counted(stem_jet))
    monkeypatch.setattr(SlicePolynomial, "stem", counted(stem))
    monkeypatch.setattr(SlicePolynomial, "evaluate", refused)
    monkeypatch.setattr(SlicePolynomial, "majorant", refused)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("sliceregular") and hasattr(module, "slice_coords"):
            monkeypatch.setattr(module, "slice_coords", refused)
    zeros = 0
    for d in (10, 20, 33):
        for seed in range(1, 11):
            rng = SplitMix64(1000 * d + seed)
            f = polynomial([rng.quaternion() for _ in range(d + 1)])
            assert f.coeffs[0] != Quaternion()
            zeros += len(poly_roots(f))
    assert zeros == 630 and passes <= 1350


def test_poly_roots_requires_positive_degree():
    with pytest.raises(ValueError):
        poly_roots(polynomial([1.0]))


SCALES = [1e-100, 1e-6, 1.0, 1e6, 1e100]


def test_poly_roots_scale_invariant():
    # f and scale*f have the same zeros, so every decision must agree.
    rng = SplitMix64(44)
    for _ in range(30):
        p = rng.polynomial(max_degree=10)
        want = poly_roots(p)
        for scale in SCALES:
            got = poly_roots(p.right_scaled(Quaternion(scale)))
            assert [z.kind for z in got] == [z.kind for z in want]
            for a, b in zip(got, want):
                assert abs(a.x - b.x) <= 1e-12 and abs(a.y - b.y) <= 1e-12


def test_poly_roots_of_f_scaled_down_to_the_bottom_of_the_double_range():
    # 2^k f for k = -1000..0 (every k from -40, every eighth below), wherever
    # its coefficients stay normal: f is scaled up by the power of two that
    # brings its largest |a_n| into [1/2, 1) before its roots are found, so
    # kinds, spheres and units are those of f, and each residual is f's
    # times 2^k, exactly, where a zero test 1e-8 m would be subnormal.
    ks = [*range(-1000, -40, 8), *range(-40, 1)]
    for seed in range(1, 11):
        f = SplitMix64(seed).polynomial(max_degree=8)
        want = poly_roots(f)
        for k in ks:
            g = f.right_scaled(Quaternion(2.0 ** k))
            if not _scaled_coeffs_stay_normal(g, 0):
                continue
            got = poly_roots(g)
            assert [(z.kind, z.x, z.y, z.unit) for z in got] == [
                (z.kind, z.x, z.y, z.unit) for z in want], (seed, k)
            assert [z.residual for z in got] == [math.ldexp(z.residual, k) for z in want]


def test_refine_spherical_candidate_recovers_sphere():
    # (q^2 - 2xq + x^2 + y^2) * g vanishes on all of x + y*S; a candidate
    # 1e-6 off refines to the sphere, where the stem is zero, at every scale
    # of the coefficients.
    rng = SplitMix64(46)
    for _ in range(40):
        x, y = rng.sphere()
        f = star_poly(polynomial([x * x + y * y, -2.0 * x, 1.0]), rng.polynomial(max_degree=6))
        for scale in SCALES:
            g = f.right_scaled(Quaternion(scale))
            tol = CLASSIFY_TOL * g.majorant(Quaternion(x, y))
            z = _refine(g, complex(x + 1e-6, y - 1e-6))
            assert math.hypot(*map(abs, g.stem(z))) < tol
            assert abs(z.real - x) <= 1e-12 and abs(abs(z.imag) - y) <= 1e-12


def test_star_zero_check():
    f = Poly(monomial_minus(UNIT_I.u))
    g = Poly(monomial_minus(UNIT_J.u))
    rng = SplitMix64(42)
    for _ in range(30):
        assert star_zero_check(f, g, rng.point())
    assert star_zero_check(f, g, UNIT_I.u)
    assert star_zero_check(f, g, UNIT_J.u)
    # each "= 0" is judged against the value's majorant, so scaling f and g
    # together changes nothing
    for scale in (1e-9, 1.0, 1e9):
        rng = SplitMix64(42)
        f, g = (Poly(rng.polynomial().right_scaled(Quaternion(scale))) for _ in range(2))
        for _ in range(50):
            assert star_zero_check(f, g, rng.point()), scale


def test_cauchy_kernel_example():
    # s = j, q = 2j: (q^2 + 1)^{-1} (q + j) = (-3)^{-1} (3j) = -j
    v = cauchy_kernel(UNIT_J.u, 2.0 * UNIT_J.u)
    assert_close(v, -UNIT_J.u, tol=1e-12)


def test_cauchy_kernel_off_slice_example():
    # s = i, q = 2j: (q^2 - 0 + 1)^{-1}(q + i) = (-3)^{-1}(2j + i)
    v = cauchy_kernel(UNIT_I.u, 2.0 * UNIT_J.u)
    assert_close(v, Quaternion(0.0, -1.0 / 3.0, -2.0 / 3.0, 0.0), tol=1e-12)


def test_cauchy_kernel_matches_reciprocal_pipeline():
    # cauchy_kernel is the reciprocal pipeline, so kernel_vs_recip_residual
    # is 0; the check is against the closed form written out in the tests
    rng = SplitMix64(43)
    checked = 0
    while checked < 50:
        s, q = rng.quaternion(2.0), rng.point()
        denom = q * q - (2.0 * s.re()) * q + Quaternion(s.norm_sq())
        if denom.norm() < 1e-3:
            continue
        want = reference_kernel(s, q)
        assert_close(cauchy_kernel(s, q), want, tol=1e-9 * want.norm())
        assert kernel_vs_recip_residual(s, q) == 0.0
        checked += 1


def test_cauchy_kernel_singular_band():
    # The band is recip's, |f^s(q)| <= 1e-10 (|s| + |q|)^2 for f = q - s.  On
    # the sphere Re(s) + |Im(s)|*S and within 1e-12 |s| of it q is singular;
    # 1e-5 |s| off it, across the sphere in q's slice, the kernel is the
    # closed form.
    rng = SplitMix64(46)
    for _ in range(500):
        s, unit = rng.quaternion(2.0), rng.unit()
        x, y, r = s.re(), s.im_norm(), s.norm()
        on = from_slice(x, y, unit)
        for q in (on, on + rng.quaternion(0.5e-12 * r)):
            with pytest.raises(SingularPoint):
                cauchy_kernel(s, q)
        t = rng.uniform(0.0, 2.0 * math.pi)
        q = from_slice(x + 1e-5 * r * math.cos(t), y + 1e-5 * r * math.sin(t), unit)
        want = reference_kernel(s, q)
        assert_close(cauchy_kernel(s, q), want, tol=1e-9 * want.norm())


def test_cauchy_kernel_singular_sphere():
    with pytest.raises(SingularPoint) as exc:
        cauchy_kernel(UNIT_I.u, UNIT_J.u)
    assert exc.value.y == pytest.approx(1.0)


def test_cauchy_kernel_at_the_top_of_the_double_range():
    # |s| + |q| overflows here, so the kernel is formed from (s, q) 2^-1024:
    # its singular sphere is reported unscaled, and its value is the closed
    # form's at the scaled pair, scaled back.
    with pytest.raises(SingularPoint) as exc:
        cauchy_kernel(UNIT_I.u * 1e308, UNIT_J.u * 1e308)
    assert (exc.value.x, exc.value.y) == (0.0, 1e308)
    t = 2.0 ** -1024
    for s, q in ((Quaternion(1e308, 1e308, 1e308, 1e308), Quaternion(-1e308)),
                 (Quaternion(1e308, 0.0, 1e308, 0.0), Quaternion(1e307, 1e308))):
        got, want = cauchy_kernel(s, q), reference_kernel(s * t, q * t) * t
        assert all(map(math.isfinite, got.components()))
        assert_close(got, want, tol=1e-9 * want.norm())


def test_cauchy_kernel_scale_invariant():
    # S^{-*} is homogeneous of degree -1 in (s, q), and its singular sphere
    # scales with s, also where |q|^2 is not a double.  At powers of two the
    # kernel scales bit for bit.
    rng = SplitMix64(45)
    pairs = [(UNIT_J.u, 2.0 * UNIT_J.u), (UNIT_I.u, 2.0 * UNIT_J.u)]
    pairs += [(rng.quaternion(2.0), rng.point()) for _ in range(10)]
    powers = [2.0 ** k for k in (-560, 560, -300, 300, -40, 40, 3)]
    for scale in SCALES + powers:
        for s, q in pairs:
            want = cauchy_kernel(s, q)
            got = cauchy_kernel(s * scale, q * scale) * scale
            if scale in powers:
                assert repr(got) == repr(want)
            else:
                assert_close(got, want, tol=1e-12 * want.norm())
        with pytest.raises(SingularPoint):
            cauchy_kernel(UNIT_I.u * scale, UNIT_J.u * scale)
