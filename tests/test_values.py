"""The package's value types: equality, hash, repr and construction."""

import pytest

from sliceregular import (
    UNIT_I,
    UNIT_J,
    AxialDomain,
    Conj,
    Disc,
    Ext,
    ImaginaryUnit,
    NonConvergence,
    Poly,
    Quaternion,
    SlicePolynomial,
    SliceRegion,
    SphereZero,
    Star,
    StemFunction,
    Symm,
    ZeroKind,
    poly_roots,
    polynomial,
)
from sliceregular import zeros


def test_value_types_keep_their_semantics(monkeypatch):
    q = Quaternion(1.0, -2.0, 0.5, 0.0)
    assert q == Quaternion(1.0, -2.0, 0.5, 0.0) and q != Quaternion(1.0, -2.0, 0.5, 1.0)
    assert q != (1.0, -2.0, 0.5, 0.0)
    assert hash(q) == hash(Quaternion(1.0, -2.0, 0.5, 0.0)) == hash((1.0, -2.0, 0.5, 0.0))
    assert repr(q) == "Quaternion(1.0, -2.0, 0.5, 0.0)"
    assert Quaternion() == Quaternion(x0=0.0) and Quaternion(x2=1.0) == UNIT_J.u

    unit = ImaginaryUnit(Quaternion(7.0, 0.0, 2.0, 0.0))  # normalized, real part dropped
    assert unit == UNIT_J and hash(unit) == hash(UNIT_J) and unit != UNIT_I
    assert repr(unit) == "ImaginaryUnit(u=Quaternion(0.0, 0.0, 1.0, 0.0))"

    p = polynomial([1.0, UNIT_I.u])
    tree = Star(Poly(p), Conj(Poly(p)))
    assert tree == Star(Poly(polynomial([1.0, UNIT_I.u])), Conj(Poly(p)))
    assert hash(tree) == hash(Star(Poly(p), Conj(Poly(p))))
    assert tree != Star(Poly(p), Symm(Poly(p)))  # same fields, another node type
    poly = ("Poly(poly=SlicePolynomial(center=0.0, coeffs=(Quaternion(1.0, 0.0, 0.0, 0.0), "
            "Quaternion(0.0, 1.0, 0.0, 0.0))))")
    assert repr(tree) == f"Star(f={poly}, g=Conj(f={poly}))"

    stem = StemFunction(func=lambda x, y: Quaternion(x, y), unit=UNIT_J)
    assert stem.region is None
    ext = Ext(r=stem, s=stem, j=UNIT_J, k=UNIT_I)
    assert ext == Ext(stem, stem, UNIT_J, UNIT_I) and Ext._fields == ("r", "s", "j", "k")
    with pytest.raises(TypeError):
        Ext(stem, stem, UNIT_J, UNIT_I, None)  # the stems' regions are its domain
    region = SliceRegion((Disc(0.0, 0.0, 1.0),))
    domain = AxialDomain(region, contains_real=True, is_s_domain=True)
    assert domain.axially_symmetric is True
    assert domain == AxialDomain(region=region, contains_real=True, is_s_domain=True)
    assert AxialDomain._fields == ("region", "contains_real", "is_s_domain")
    zero = SphereZero(0.0, 1.0, ZeroKind.SPHERICAL)
    assert (zero.unit, zero.residual, zero.unit_is_arbitrary, zero.converged) == (
        None, 0.0, False, True)
    assert zero != SphereZero(x=0.0, y=1.0, kind=ZeroKind.SPHERICAL, converged=False)
    with pytest.raises(TypeError):
        SphereZero(0.0, 1.0)  # kind has no default
    with pytest.raises(TypeError):
        SphereZero(0.0, 1.0, ZeroKind.NONE, x=0.0)  # x given twice

    # trailing zero coefficients are trimmed, a tiny nonzero one is kept
    f = SlicePolynomial(1, [Quaternion(2.0), Quaternion(0.0, 1e-300), Quaternion(), Quaternion()])
    assert f.center == 1.0 and isinstance(f.center, float)
    assert f.coeffs == (Quaternion(2.0), Quaternion(0.0, 1e-300)) and f.degree == 1
    assert SlicePolynomial(0.0, ()).coeffs == (Quaternion(),)
    assert f.abs_coeffs == (2.0, 1e-300) and f.abs_coeffs is f.abs_coeffs
    g = SlicePolynomial(1.0, (Quaternion(2.0), Quaternion(0.0, 1e-300)))
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)  # the cache is not a field

    # a root iteration that stops early marks every zero it reports
    aberth = zeros.aberth_roots

    def stalled(*args, **kwargs):
        raise NonConvergence("stalled", partial=aberth(*args, **kwargs))

    monkeypatch.setattr(zeros, "aberth_roots", stalled)
    with pytest.raises(NonConvergence) as info:
        poly_roots(polynomial([1.0, 0.0, 1.0]))  # 1 + q^2 vanishes on the sphere S
    assert [(z.kind, z.converged) for z in info.value.partial] == [(ZeroKind.SPHERICAL, False)]
