"""Representation formulas and axially symmetric domains."""

import pytest

from sliceregular import (
    AxialDomain,
    DegenerateUnits,
    Disc,
    Poly,
    Quaternion,
    Rect,
    SlicePoint,
    SliceRegion,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    evaluate,
    from_slice,
    general_representation,
    polynomial,
    representation,
    symmetric_completion,
)
from sliceregular.verify import SplitMix64

from conftest import assert_close


def test_representation_example_q_squared():
    # f(q) = q^2 on the unit sphere: f(j) = f(-j) = -1, rebuilt at k gives -1
    target = SlicePoint(0.0, 1.0, UNIT_K)
    v = representation(Quaternion(-1.0), Quaternion(-1.0), UNIT_J, target)
    assert_close(v, Quaternion(-1.0), tol=1e-15)


def test_representation_rebuilds_polynomials():
    rng = SplitMix64(21)
    for _ in range(20):
        f = Poly(rng.polynomial(max_degree=6))
        x, y = rng.sphere()
        j = rng.unit()
        target = SlicePoint(x, y, rng.unit())
        v = representation(
            evaluate(f, from_slice(x, y, j)),
            evaluate(f, from_slice(x, -y, j)),
            j, target,
        )
        assert_close(v, evaluate(f, target.to_quaternion()), tol=1e-9)


def test_general_representation_rebuilds_polynomials():
    rng = SplitMix64(22)
    for _ in range(20):
        f = Poly(rng.polynomial(max_degree=6))
        x, y = rng.sphere()
        j, k = rng.unit_pair()
        target = SlicePoint(x, y, rng.unit())
        v = general_representation(
            evaluate(f, from_slice(x, y, j)),
            evaluate(f, from_slice(x, y, k)),
            j, k, target,
        )
        assert_close(v, evaluate(f, target.to_quaternion()), tol=1e-9)


def test_general_representation_specializes_to_representation():
    # K = -J recovers the two-point formula on one slice
    rng = SplitMix64(23)
    for _ in range(20):
        f = Poly(rng.polynomial(max_degree=6))
        x, y = rng.sphere()
        j = rng.unit()
        target = SlicePoint(x, y, rng.unit())
        v_plus = evaluate(f, from_slice(x, y, j))
        v_minus = evaluate(f, from_slice(x, -y, j))
        a = representation(v_plus, v_minus, j, target)
        b = general_representation(v_plus, v_minus, j, -j, target)
        assert_close(a, b, tol=1e-13)


def test_general_representation_rejects_equal_units():
    target = SlicePoint(0.0, 1.0, UNIT_I)
    with pytest.raises(DegenerateUnits):
        general_representation(Quaternion(), Quaternion(), UNIT_J, UNIT_J, target)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

def test_disc_and_rect_membership():
    d = Disc(0.0, 0.0, 1.0)
    assert d.contains(0.5, 0.5) and not d.contains(1.0, 0.1)
    r = Rect(-1.0, 1.0, 0.0, 2.0)
    assert r.contains(0.0, 1.0) and not r.contains(0.0, -0.5)


def test_region_mirror_and_symmetry():
    sym = SliceRegion((Disc(0.0, 0.0, 1.0),))
    assert sym.is_axis_symmetric()
    off = SliceRegion((Disc(0.0, 2.0, 1.0),))
    assert not off.is_axis_symmetric()
    assert off.mirrored().contains(0.0, -2.0)
    for m in (3e-3, 1e-3, 3e-4, 1e-4):  # below a 1e-2 sampling step
        assert not SliceRegion((Rect(-0.5, 0.5, -0.5, 0.5 + m),)).is_axis_symmetric()
    # each mirror inside one shape: itself, its mirror partner, a box, a disc
    for shapes in [(Rect(-0.5, 0.5, -0.5, 0.5),),
                   (Disc(0.0, 0.3, 0.3), Disc(0.0, -0.3, 0.3)),
                   (Disc(0.0, 0.5, 0.5), Rect(-1.0, 1.0, -1.0, 1.0)),
                   (Rect(0.0, 0.5, 0.0, 0.5), Disc(0.0, 0.0, 1.0))]:
        assert SliceRegion(shapes).is_axis_symmetric()
    # the open box (-1, 1) x (-1, 1) as a union whose first shape's mirror
    # needs both shapes to cover it: the conservative test rejects it
    halves = SliceRegion((Rect(-1.0, 1.0, -1.0, 0.5), Rect(-1.0, 1.0, 0.0, 1.0)))
    assert not halves.is_axis_symmetric()


def test_real_centered_ball_is_s_domain():
    domain = symmetric_completion(SliceRegion((Disc(0.0, 0.0, 1.0),)))
    assert domain.contains_real
    assert domain.is_s_domain
    assert domain.axially_symmetric


def test_off_axis_disc_is_not_s_domain():
    # {x^2 + (y-2)^2 < 1}: its slice picture is two disjoint discs missing R
    domain = symmetric_completion(SliceRegion((Disc(0.0, 2.0, 1.0),)))
    assert not domain.contains_real
    assert not domain.is_s_domain
    # still axially symmetric as a set of quaternions
    assert domain.contains(from_slice(0.0, 2.0, UNIT_J))
    assert domain.contains(from_slice(0.0, 2.0, -UNIT_K))


def test_disconnected_real_trace_is_not_s_domain():
    region = SliceRegion((Disc(0.0, 0.0, 1.0), Disc(3.0, 0.0, 1.0)))
    domain = symmetric_completion(region)
    assert domain.contains_real
    assert not domain.is_s_domain


def test_touching_union_is_s_domain():
    region = SliceRegion((Disc(0.0, 0.0, 1.0), Disc(1.5, 0.0, 1.0)))
    domain = symmetric_completion(region)
    assert domain.is_s_domain


def test_axial_membership_folds_the_sphere():
    domain = symmetric_completion(SliceRegion((Rect(-1.0, 1.0, 0.0, 2.0),)))
    for unit in (UNIT_I, UNIT_J, UNIT_K, -UNIT_K):
        assert domain.contains(from_slice(0.0, 1.0, unit))
    assert not domain.contains(Quaternion(5.0))
    assert domain.contains_xy(0.0, -1.0)
    # the box is open at y0 = 0, so it does not meet the real axis
    assert not domain.contains_xy(0.0, 0.0)
    assert not domain.contains_real and not domain.is_s_domain
