"""Coefficient algebra of quaternionic polynomials."""

import math

import pytest

from sliceregular import (
    CenterMismatch,
    ONE,
    Quaternion,
    SlicePolynomial,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    conj_poly,
    from_slice,
    monomial_minus,
    polynomial,
    star_poly,
    symm_poly,
)
from sliceregular.polynomial import backward_bound
from sliceregular.quaternion import pow2
from sliceregular.verify import SplitMix64

from conftest import assert_close


def test_trailing_zeros_trimmed():
    p = polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert len(p.coeffs) == 2
    z = polynomial([0.0, 0.0])
    assert z.degree == 0 and z.is_zero()


def test_tiny_coefficients_are_not_trimmed():
    # Their norm underflows to 0, but they are not zero.
    assert polynomial([1.0, 0.0, 1e-170]).degree == 2
    assert not polynomial([1e-170]).is_zero()


def test_horner_evaluation_right_coefficients():
    # f(q) = i + q*j + q^2*k at q = j: i + j*j + j^2*k = i - 1 - k
    p = polynomial([UNIT_I.u, UNIT_J.u, UNIT_K.u])
    assert_close(p.evaluate(UNIT_J.u), Quaternion(-1.0, 1.0, 0.0, -1.0))


def test_centered_evaluation():
    p = SlicePolynomial(1.0, (Quaternion(0.0), ONE, ONE))
    # (q-1) + (q-1)^2 at q = 3 is 2 + 4
    assert_close(p.evaluate(Quaternion(3.0)), Quaternion(6.0))


def test_derivative_shift():
    p = polynomial([1.0, 2.0, 3.0])
    d = p.derivative()
    assert d.coeffs == (Quaternion(2.0), Quaternion(6.0))
    assert polynomial([5.0]).derivative().is_zero()


def test_star_poly_example():
    # (q - i) * (q - j) = q^2 - q(i+j) + k
    f = monomial_minus(UNIT_I.u)
    g = monomial_minus(UNIT_J.u)
    fg = star_poly(f, g)
    assert fg.coeffs == (UNIT_K.u, Quaternion(0.0, -1.0, -1.0, 0.0), ONE)
    # evaluation at j: j^2 - j(i+j) + k = -1 - (ji + j^2) + k = 2k
    assert_close(fg.evaluate(UNIT_J.u), 2.0 * UNIT_K.u)


def test_star_poly_noncommutative():
    f = monomial_minus(UNIT_I.u)
    g = monomial_minus(UNIT_J.u)
    assert star_poly(f, g).coeffs != star_poly(g, f).coeffs


def test_conj_poly_conjugates_coefficients():
    p = polynomial([UNIT_I.u, Quaternion(1.0, 2.0, 3.0, 4.0)])
    c = conj_poly(p)
    assert c.coeffs == (-UNIT_I.u, Quaternion(1.0, -2.0, -3.0, -4.0))


def test_symm_poly_has_real_coefficients():
    rng = SplitMix64(3)
    for _ in range(20):
        p = rng.polynomial(max_degree=6)
        s = symm_poly(p)
        assert all(c.im_norm() <= 1e-12 * max(1.0, c.norm()) for c in s.coeffs)


def test_symm_of_q_minus_i():
    # (q - i)^s = q^2 + 1
    s = symm_poly(monomial_minus(UNIT_I.u))
    assert s.coeffs == (ONE, Quaternion(0.0), ONE)


def test_center_mismatch_rejected():
    with pytest.raises(CenterMismatch):
        star_poly(SlicePolynomial(0.0, (ONE, ONE)), SlicePolynomial(1.0, (ONE, ONE)))
    with pytest.raises(CenterMismatch):
        SlicePolynomial(0.0, (ONE,)) + SlicePolynomial(2.0, (ONE,))


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 50])
def test_centers_compare_exactly_at_any_scale(scale):
    # centers 1e-14 and 2e-14 differ as much, relatively, as 11.26 and 22.5
    f = SlicePolynomial(1e-14 * scale, (ONE, ONE))
    g = SlicePolynomial(2e-14 * scale, (ONE, ONE))
    with pytest.raises(CenterMismatch):
        star_poly(f, g)
    with pytest.raises(CenterMismatch):
        f + g


def test_sum_neg_and_right_scale():
    p = polynomial([1.0, 1.0])
    q = polynomial([0.0, 2.0])
    assert (p + q).coeffs == (ONE, Quaternion(3.0))
    assert (p - q).coeffs == (ONE, Quaternion(-1.0))
    assert p.right_scaled(UNIT_J.u).coeffs == (UNIT_J.u, UNIT_J.u)


def _operator_horner(p, q):
    """Right-coefficient Horner through the Quaternion operators."""
    w = q - p.center
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = w * acc + c
    return acc


def test_evaluate_equals_operator_horner_exactly():
    rng = SplitMix64(11)
    polys = [SlicePolynomial(rng.uniform(-2.0, 2.0),
                             tuple(rng.quaternion(3.0) for _ in range(degree + 1)))
             for degree in (0, 1, 2, 7, 30)]
    polys.append(polynomial([UNIT_I.u, UNIT_J.u, UNIT_K.u], center=-0.75))
    polys.append(polynomial([2.5]))
    points = [rng.point() for _ in range(10)] + [rng.quaternion(5.0) for _ in range(10)]
    points += [Quaternion(1.5), Quaternion(0.0, -0.0, 0.0, -0.0)]
    for p in polys:
        for q in points:
            # repr tells every distinct double apart, signed zeros included.
            assert repr(p.evaluate(q)) == repr(_operator_horner(p, q))
            # the majorant rides in the same loop, as backward_bound forms it
            v, m, k = p.evaluate_with_majorant(q)
            assert repr(v) == repr(_operator_horner(p, q))
            assert (m, k) == (backward_bound(p.abs_coeffs, (q - p.center).norm()), 0)


@pytest.mark.parametrize("q, j", [(Quaternion(0.5, 1.0), -1060), (Quaternion(2.0 ** 20, 3.0), 1000)])
def test_majorant_is_covariant_beyond_the_normal_doubles(q, j):
    # f 2^j has the majorant m 2^(k + j) of f, exactly, in pow2's form, where
    # it is below the normal doubles and where it is above the doubles
    p = polynomial([1.0, UNIT_I.u, 2.0])
    _, m, k = p.evaluate_with_majorant(q)
    scaled = p.right_scaled(Quaternion(2.0 ** j))
    assert scaled.evaluate_with_majorant(q)[1:] == scaled.scaled_majorant(q) == pow2(m, k + j)
    assert pow2(m, k + j)[1] != 0


def test_majorant_where_q_minus_the_center_is_no_double():
    # at q = -1e308, q - 1e308 = -2e308 overflows; offset forms it from q/2 -
    # 1e308/2, and the majorant 1 + 2e308 of 1 + (q - 1e308) rounds to 2e308
    p = SlicePolynomial(1e308, (ONE, ONE))
    q = Quaternion(-1e308, 1.0)
    w, t = p.offset(q)
    assert (w.x0, t) == (math.ldexp(-1e308, -1024), 1025)
    assert SlicePolynomial(0.0, (ONE,)).offset(Quaternion(3.0, 4.0)) == (Quaternion(0.375, 0.5), 3)
    assert p.scaled_majorant(q) == p.evaluate_with_majorant(q)[1:] == pow2(1e308, 1)


def test_stem_gives_the_pair_of_evaluate():
    # b + i*c = stem(x + iy) componentwise, and f(x + y*I) = b + I*c for
    # every I; on the real axis c vanishes exactly.
    rng = SplitMix64(12)
    for degree in range(31):
        p = SlicePolynomial(rng.uniform(-2.0, 2.0),
                            tuple(rng.quaternion(3.0) for _ in range(degree + 1)))
        x, y = rng.sphere()
        v = p.stem(complex(x, y))
        b, c = Quaternion(*(w.real for w in v)), Quaternion(*(w.imag for w in v))
        tol = 1e-13 * p.majorant(Quaternion(x, y))
        for _ in range(3):
            unit = rng.unit()
            assert_close(b + unit.u * c, p.evaluate(from_slice(x, y, unit)), tol=tol)
        v = p.stem(complex(x, 0.0))
        assert all(w.imag == 0.0 for w in v)
        assert_close(Quaternion(*(w.real for w in v)), p.evaluate(Quaternion(x)), tol=tol)
