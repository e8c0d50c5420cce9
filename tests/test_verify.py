"""The verification harness: determinism, pass behavior, falsifiability."""

import math

import pytest

from sliceregular import (
    Poly,
    Quaternion,
    RawMap,
    UNIT_I,
    check_extension_roundtrip,
    check_grf_invariance,
    check_identity_suite,
    polynomial,
)
from sliceregular.verify import BOX_X, BOX_Y_MAX, BOX_Y_MIN, SplitMix64


def test_splitmix_is_deterministic():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_splitmix_uniform_bounds():
    rng = SplitMix64(1)
    for _ in range(1000):
        v = rng.uniform(-2.0, 3.0)
        assert -2.0 <= v <= 3.0


def test_sampled_units_lie_on_the_sphere():
    rng = SplitMix64(2)
    for _ in range(100):
        u = rng.unit()
        assert abs(u.u.norm() - 1.0) <= 1e-12
        assert u.u.re() == 0.0


def test_sampled_points_stay_in_the_box():
    rng = SplitMix64(3)
    for _ in range(100):
        x, y = rng.sphere()
        assert -BOX_X <= x <= BOX_X
        assert BOX_Y_MIN <= y <= BOX_Y_MAX


def test_grf_invariance_passes_for_polynomials():
    rng = SplitMix64(4)
    for n in range(5):
        report = check_grf_invariance(Poly(rng.polynomial(max_degree=8)), seed=n)
        assert report.passed, report
        assert report.max_residual <= 1e-9


def test_grf_invariance_report_is_reproducible():
    f = Poly(polynomial([1.0, UNIT_I.u, 1.0]))
    a = check_grf_invariance(f, seed=5)
    b = check_grf_invariance(f, seed=5)
    assert a == b
    c = check_grf_invariance(f, seed=6)
    assert a.worst_case != c.worst_case


@pytest.mark.parametrize("unit_pairs", [-1, 0, 1])
def test_grf_invariance_needs_two_unit_pairs(unit_pairs):
    # a spread compares at least two rebuilt values
    with pytest.raises(ValueError, match="unit_pairs must be at least 2"):
        check_grf_invariance(Poly(polynomial([1.0, 1.0])), unit_pairs=unit_pairs)
    assert check_grf_invariance(Poly(polynomial([1.0, 1.0])), unit_pairs=2).passed


def test_grf_invariance_fails_for_non_slice_map():
    # left multiplication by i is not a slice function; the harness must
    # reject it by a wide margin (falsifiability of the check)
    control = RawMap(lambda q: UNIT_I.u * q)
    report = check_grf_invariance(control, seed=7)
    assert not report.passed
    assert report.max_residual > 1e-2


def test_identity_suite_passes_for_polynomials():
    rng = SplitMix64(8)
    f = Poly(rng.polynomial(max_degree=5))
    g = Poly(rng.polynomial(max_degree=5))
    reports = check_identity_suite(f, g, points=100, seed=8)
    names = {r.name for r in reports}
    assert {"conjugate_antihomomorphism", "star_composition_form",
            "symmetrization_multiplicative", "symmetrization_factors_commute",
            "symmetrization_slice_preservation", "reciprocal_left_identity",
            "reciprocal_right_identity"} == names
    for report in reports:
        assert report.passed, report
        assert report.samples > 0


def _nine_reports(scale):
    rng = SplitMix64(3)
    f, g = (rng.polynomial().right_scaled(Quaternion(scale)) for _ in range(2))
    return ([check_grf_invariance(Poly(f), spheres=5, seed=1)]
            + check_identity_suite(Poly(f), Poly(g), points=40, seed=1)
            + [check_extension_roundtrip(f, UNIT_I, points=40, seed=1)])


def test_reports_do_not_depend_on_the_scale_of_f():
    # every residual is divided by the majorant of the values it compares:
    # a power-of-two scale changes no bit, any other scale no verdict
    base = _nine_reports(1.0)
    assert all(r.passed and r.samples > 0 for r in base)
    for j in (20, -20, 60, -60, 100, -100):
        assert _nine_reports(2.0 ** j) == base, j
    for scale in (1e12, 1e-12):
        assert [r.passed for r in _nine_reports(scale)] == [r.passed for r in base], scale


def test_reports_keep_their_verdicts_at_the_ends_of_the_double_range():
    # f^s g^s and its majorant grow as the fourth power of the scale: formed
    # from pairs scaled by powers of two, they stay doubles from 2^-300 to
    # 2^300, and every report gives the verdict it gives at scale 1
    base = [r.passed for r in _nine_reports(1.0)]
    for j in range(-300, 301, 50):
        reports = _nine_reports(2.0 ** j)
        assert [r.passed for r in reports] == base, j
        assert all(math.isfinite(r.max_residual) for r in reports), j


def test_reports_below_the_normal_range():
    # the majorants of 2^-1040 f, and their products, are below the normal
    # doubles: in pow2's form (k < 0) none underflows to 0 beside a residual
    t = 2.0 ** -1040
    f = polynomial([t, t])
    reports = check_identity_suite(Poly(f), Poly(polynomial([t, 0.0, t])), points=3)
    assert len(reports) == 7
    reports += [check_grf_invariance(Poly(f), spheres=3, unit_pairs=3),
                check_extension_roundtrip(f, UNIT_I, points=3)]
    assert all(math.isfinite(r.max_residual) and r.samples == 3 for r in reports), reports


@pytest.mark.parametrize("j", [-600, -1000, -1040, 600])
def test_symmetrization_is_multiplicative_where_the_product_is_no_double(j):
    # f*g of 2^j (1 + q) and 2^j (1 + q^2) is near 2^2j, no double: its pair
    # is read off the product of f and g each scaled by a power of two to its
    # majorant, so the report is the one at scale 1 wherever f's values are
    # normal doubles (2^-1040 f's are not: it passes)
    def report(t):
        reports = check_identity_suite(Poly(polynomial([t, t])), Poly(polynomial([t, 0.0, t])),
                                       points=3)
        return next(r for r in reports if r.name == "symmetrization_multiplicative")

    scaled = report(2.0 ** j)
    assert scaled.passed and scaled.samples == 3, scaled
    if j > -1022:
        assert scaled == report(1.0)


def test_extension_roundtrip_check():
    rng = SplitMix64(9)
    report = check_extension_roundtrip(rng.polynomial(max_degree=8), rng.unit(), seed=9)
    assert report.passed, report


def test_report_json_shape():
    report = check_grf_invariance(Poly(polynomial([0.0, 1.0])), seed=10)
    data = report.to_json()
    assert set(data) == {"name", "samples", "max_residual", "tolerance", "passed", "worst_case"}
    assert data["passed"] is True
