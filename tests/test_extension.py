"""Extension of slice data to regular functions on symmetric domains."""

import math

import pytest

from sliceregular import (
    DegenerateUnits,
    Disc,
    DomainError,
    DomainNotSymmetric,
    NoRealTrace,
    Poly,
    Quaternion,
    RealTraceMismatch,
    Rect,
    SliceRegion,
    StemFunction,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    evaluate,
    ext_from_holomorphic,
    extend,
    from_slice,
    polynomial,
    restriction_stem,
    sphere_affine_coeffs,
)
from sliceregular.verify import SplitMix64

from conftest import assert_close


def test_sphere_affine_coeffs_of_identity():
    # q = x + y*I: b = x, c = y
    b, c = sphere_affine_coeffs(Poly(polynomial([0.0, 1.0])), 0.5, 2.0)
    assert_close(b, Quaternion(0.5), tol=1e-15)
    assert_close(c, Quaternion(2.0), tol=1e-15)


def test_sphere_affine_coeffs_reconstruct_values():
    rng = SplitMix64(31)
    for _ in range(20):
        f = Poly(rng.polynomial(max_degree=6))
        x, y = rng.sphere()
        b, c = sphere_affine_coeffs(f, x, y)
        unit = rng.unit()
        assert_close(evaluate(f, from_slice(x, y, unit)), b + unit.u * c, tol=1e-9)


def test_single_slice_extension_round_trip():
    rng = SplitMix64(32)
    for _ in range(10):
        p = rng.polynomial(max_degree=6)
        unit = rng.unit()
        ext = ext_from_holomorphic(restriction_stem(Poly(p), unit))
        for _ in range(10):
            q = rng.point()
            assert_close(evaluate(ext, q), p.evaluate(q), tol=1e-9)


def test_extension_restriction_is_exact_on_its_slice():
    # on L_J itself the rebuilt value reduces to the stem value
    stem = StemFunction(
        func=lambda x, y: Quaternion(math.exp(x) * math.cos(y)) + math.exp(x) * math.sin(y) * UNIT_J.u,
        unit=UNIT_J,
    )
    ext = ext_from_holomorphic(stem)
    q = from_slice(0.3, 0.7, UNIT_J)
    assert_close(evaluate(ext, q), stem(0.3, 0.7), tol=1e-13)


def test_extension_of_exp_is_regular_off_slice():
    # exp on L_J extends; on L_I the value is exp(x)(cos y + I sin y)
    stem = StemFunction(
        func=lambda x, y: Quaternion(math.exp(x) * math.cos(y)) + math.exp(x) * math.sin(y) * UNIT_J.u,
        unit=UNIT_J,
    )
    ext = ext_from_holomorphic(stem)
    q = from_slice(0.2, 1.1, UNIT_I)
    want = Quaternion(math.exp(0.2) * math.cos(1.1)) + math.exp(0.2) * math.sin(1.1) * UNIT_I.u
    assert_close(evaluate(ext, q), want, tol=1e-12)


def test_two_slice_extension_agrees_with_single():
    p = polynomial([UNIT_K.u, 1.0, UNIT_I.u])
    r = restriction_stem(Poly(p), UNIT_J)
    s = restriction_stem(Poly(p), UNIT_K)
    ext = extend(r, s, UNIT_J, UNIT_K)
    rng = SplitMix64(33)
    for _ in range(20):
        q = rng.point()
        assert_close(evaluate(ext, q), p.evaluate(q), tol=1e-10)


def test_two_slice_extension_is_defined_where_its_stems_are():
    # no domain is classified: r's and s's own region checks decide membership
    p = polynomial([UNIT_K.u, 1.0, UNIT_I.u])
    r = restriction_stem(Poly(p), UNIT_J, region=SliceRegion((Disc(0.0, 0.0, 1.0),)))
    s = restriction_stem(Poly(p), UNIT_K, region=SliceRegion((Disc(0.0, 0.0, 2.0),)))
    ext = extend(r, s, UNIT_J, UNIT_K)
    q = from_slice(0.2, 0.5, UNIT_I)
    assert_close(evaluate(ext, q), p.evaluate(q), tol=1e-10)
    with pytest.raises(DomainError):
        evaluate(ext, from_slice(0.2, 1.5, UNIT_I))  # in s's region, outside r's


def test_extend_rejects_equal_units():
    r = restriction_stem(Poly(polynomial([0.0, 1.0])), UNIT_J)
    with pytest.raises(DegenerateUnits):
        extend(r, r, UNIT_J, UNIT_J)


def test_extend_rejects_mismatched_real_trace():
    r = restriction_stem(Poly(polynomial([0.0, 1.0])), UNIT_J)
    s = restriction_stem(Poly(polynomial([1.0, 1.0])), UNIT_K)
    with pytest.raises(RealTraceMismatch):
        extend(r, s, UNIT_J, UNIT_K)
    # the trace test is relative to the data's size on the trace
    p = polynomial([0.3, 1.0, 0.5])
    for scale in (1.0, 2.0 ** 40, 2.0 ** -40, 1e12, 1e-12):
        r = restriction_stem(Poly(p.right_scaled(Quaternion(scale))), UNIT_J)
        near = restriction_stem(Poly(p.right_scaled(Quaternion(scale * (1.0 + 1e-13)))), UNIT_K)
        extend(r, near, UNIT_J, UNIT_K)
        twice = restriction_stem(Poly(p.right_scaled(Quaternion(2.0 * scale))), UNIT_K)
        with pytest.raises(RealTraceMismatch):
            extend(r, twice, UNIT_J, UNIT_K)


def test_extend_rejects_domains_missing_the_real_axis():
    region = SliceRegion((Disc(0.0, 2.0, 1.0),))
    r = restriction_stem(Poly(polynomial([0.0, 1.0])), UNIT_J, region=region)
    s = restriction_stem(Poly(polynomial([0.0, 1.0])), UNIT_K, region=region)
    with pytest.raises(NoRealTrace):
        extend(r, s, UNIT_J, UNIT_K)


def test_single_slice_extension_rejects_asymmetric_domain():
    # the boxes miss symmetry by less than a 1e-2 grid step
    for shape in [Disc(0.0, 0.5, 1.0)] + [Rect(-0.5, 0.5, -0.5, 0.5 + m)
                                          for m in (3e-3, 1e-3, 3e-4, 1e-4)]:
        region = SliceRegion((shape,))
        stem = restriction_stem(Poly(polynomial([0.0, 1.0])), UNIT_J, region=region)
        with pytest.raises(DomainNotSymmetric):
            ext_from_holomorphic(stem)


def test_extension_respects_its_domain():
    # the second region meets the real axis only in (-2.4e-4, 2.4e-4),
    # far below the grid step, where its two mirror discs overlap
    for region in (SliceRegion((Disc(0.0, 0.0, 1.0),)),
                   SliceRegion((Disc(0.0, 0.3, 0.3 + 1e-7), Disc(0.0, -0.3, 0.3 + 1e-7)))):
        stem = restriction_stem(Poly(polynomial([0.0, 1.0])), UNIT_J, region=region)
        ext = ext_from_holomorphic(stem)
        assert_close(evaluate(ext, from_slice(0.1, 0.2, UNIT_I)), from_slice(0.1, 0.2, UNIT_I))
        with pytest.raises(DomainError):
            evaluate(ext, from_slice(5.0, 0.2, UNIT_I))
