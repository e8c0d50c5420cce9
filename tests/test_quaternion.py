"""Quaternion arithmetic, imaginary units and slice coordinates."""

import pytest
from hypothesis import given, strategies as st

from sliceregular import (
    ImaginaryUnit,
    NotASlicePoint,
    ONE,
    Quaternion,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    from_slice,
    imaginary_unit_of,
    orthogonal_unit,
    quat_inv,
    quat_mul,
    slice_coords,
)
from sliceregular.quaternion import dot, negligible, pow2, pow2_norm, pow2_product, pow2_sum

from conftest import assert_close

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quaternions = quaternions.filter(lambda q: 1e-6 < q.norm())


def test_hamilton_table():
    i, j, k = UNIT_I.u, UNIT_J.u, UNIT_K.u
    assert_close(i * i, -ONE)
    assert_close(j * j, -ONE)
    assert_close(k * k, -ONE)
    assert_close(i * j, k)
    assert_close(j * k, i)
    assert_close(k * i, j)
    assert_close(j * i, -k)


def test_product_example():
    a = Quaternion(1.0, 1.0, 0.0, 0.0)
    b = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert_close(a * b, Quaternion(1.0, 1.0, 1.0, 1.0))


def test_scalar_mixing_and_division():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert_close(2.0 * q, q + q)
    assert_close(q / 2.0 + q / 2.0, q)
    assert_close(1 + q, Quaternion(2.0, 2.0, 3.0, 4.0))
    assert_close(1 - q, Quaternion(0.0, -2.0, -3.0, -4.0))


@given(quaternions, quaternions)
def test_norm_is_multiplicative(a, b):
    lhs = (a * b).norm()
    rhs = a.norm() * b.norm()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(quaternions, quaternions)
def test_conjugate_antihomomorphism(a, b):
    assert_close((a * b).conjugate(), b.conjugate() * a.conjugate(),
                 tol=1e-9 * max(1.0, a.norm() * b.norm()))


@given(nonzero_quaternions)
def test_inverse(q):
    assert_close(q * quat_inv(q), ONE, tol=1e-9)
    assert_close(quat_inv(q) * q, ONE, tol=1e-9)
    assert_close(q.inverse(), quat_inv(q))


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        quat_inv(Quaternion())


@pytest.mark.parametrize("scale", [1e-200, 2.0 ** -600, 1e200, 2.0 ** 600])
def test_norm_and_inverse_far_from_one(scale):
    # |q|^2 leaves the double range, |q| and 1/q do not.
    q = Quaternion(1.0, 2.0, 2.0, 4.0) * scale
    assert q.norm() == pytest.approx(5.0 * scale, rel=1e-15)
    assert_close(quat_inv(q) * scale, Quaternion(1.0, -2.0, -2.0, -4.0) * (1.0 / 25.0),
                 tol=1e-16)


@given(quaternions)
def test_conjugate_recovers_norm(q):
    assert abs((q * q.conjugate()).re() - q.norm_sq()) <= 1e-9 * max(1.0, q.norm_sq())
    assert (q * q.conjugate()).im_norm() <= 1e-9 * max(1.0, q.norm_sq())


@given(nonzero_quaternions.filter(lambda q: q.im_norm() > 1e-6))
def test_imaginary_units_square_to_minus_one(q):
    u = imaginary_unit_of(q)
    assert_close(u.u * u.u, -ONE, tol=1e-12)
    assert abs(u.u.norm() - 1.0) <= 1e-12


def test_imaginary_unit_rejects_real_input():
    with pytest.raises(NotASlicePoint):
        ImaginaryUnit(Quaternion(3.0))
    with pytest.raises(NotASlicePoint):
        imaginary_unit_of(Quaternion(1.0, 1e-14, 0.0, 0.0))


@given(nonzero_quaternions.filter(lambda q: q.im_norm() > 1e-6))
def test_slice_coords_round_trip(q):
    p = slice_coords(q)
    assert p.y >= 0.0
    assert not p.unit_is_arbitrary
    assert_close(from_slice(p.x, p.y, p.unit), q, tol=1e-9 * max(1.0, q.norm()))
    assert_close(p.to_quaternion(), q, tol=1e-9 * max(1.0, q.norm()))


def test_slice_coords_on_real_axis():
    p = slice_coords(Quaternion(2.5))
    assert p.x == 2.5 and p.y == 0.0
    assert p.unit_is_arbitrary
    assert_close(p.unit.u, UNIT_I.u)


@given(nonzero_quaternions.filter(lambda q: q.im_norm() > 1e-6))
def test_orthogonal_unit_properties(q):
    i = imaginary_unit_of(q)
    j = orthogonal_unit(i)
    assert abs(dot(i.u, j.u)) <= 1e-12
    assert abs(j.u.norm() - 1.0) <= 1e-12
    # deterministic: same input, same output
    assert orthogonal_unit(i) == j


def test_orthogonal_unit_near_canonical_axes():
    for unit in (UNIT_I, UNIT_J, UNIT_K):
        j = orthogonal_unit(unit)
        assert abs(dot(unit.u, j.u)) <= 1e-12


@given(quaternions, quaternions)
def test_quat_mul_matches_operator(a, b):
    assert quat_mul(a, b) == a * b


def test_pow2_form_below_the_normal_range():
    # below 2^-1022 a majorant is (m, k) with m in [1/2, 1) and k < -1021,
    # so a product or sum of tiny majorants keeps its size
    assert pow2(2.0 ** -1000) == (2.0 ** -1000, 0)
    assert pow2(2.0 ** -1040) == (0.5, -1039)
    assert pow2(3.0, -1100) == (0.75, -1098)
    assert pow2(0.0, -1100) == (0.0, 0)
    assert pow2_product(2.0 ** -600, 0, 2.0 ** -600, 0) == (0.5, -1199)
    assert pow2_product(0.0, 0, 0.5, -1100) == (0.0, 0)
    assert pow2_sum(0.5, -1100, 0.5, -1100) == (0.5, -1099)
    assert pow2_sum(0.5, -1100, 1.0, 0) == (1.0, 0)
    assert pow2_norm(Quaternion(0.0, 3 * 2.0 ** -1060, 4 * 2.0 ** -1060)) == (0.625, -1057)
    assert pow2_norm(Quaternion(0.0, 3.0, 4.0)) == (5.0, 0)
    # tol m 2^k = 1e-6 2^-1041, about 2^-1061
    assert negligible(2.0 ** -1070, 1e-6, 0.5, -1040)
    assert not negligible(2.0 ** -1050, 1e-6, 0.5, -1040)
    assert not negligible(1.0, 1e-6, 0.5, -1040)
