"""JSON encodings round-trip and reject malformed payloads."""

import json

import pytest

from sliceregular import (
    DomainError, Quaternion, Star, UNIT_I, UNIT_J, evaluate, monomial_minus, polynomial,
)
from sliceregular.expr import Conj, Poly, Recip, RightScalar, Sum, Symm
from sliceregular.serialize import (
    MAX_DEGREE,
    DecodeError,
    domain_from_json,
    expr_from_json,
    expr_to_json,
    poly_from_json,
    poly_to_json,
    quaternion_from_json,
    quaternion_to_json,
)

from conftest import assert_close


def test_quaternion_round_trip():
    q = Quaternion(1.0, -2.5, 0.1, 1e-17)
    assert quaternion_from_json(json.loads(json.dumps(quaternion_to_json(q)))) == q


def test_quaternion_rejects_bad_shapes():
    for bad in ([1, 2, 3], [1, 2, 3, "x"], {"x0": 1}, [1, 2, 3, float("nan")]):
        with pytest.raises(DecodeError):
            quaternion_from_json(bad)


def test_poly_round_trip():
    p = polynomial([UNIT_I.u, 1.0, Quaternion(0.5, 0.5, 0.5, 0.5)], center=2.0)
    assert poly_from_json(json.loads(json.dumps(poly_to_json(p)))) == p


def test_poly_rejects_missing_coeffs():
    with pytest.raises(DecodeError):
        poly_from_json({"center": 0.0})
    with pytest.raises(DecodeError):
        poly_from_json({"coeffs": []})


def test_poly_degree_is_bounded_at_decode():
    assert poly_from_json({"coeffs": [[1, 0, 0, 0]] * (MAX_DEGREE + 1)}).degree == MAX_DEGREE
    with pytest.raises(DecodeError, match=f"exceeds degree {MAX_DEGREE}"):
        poly_from_json({"coeffs": [[1, 0, 0, 0]] * (MAX_DEGREE + 2)})


def test_expr_round_trip():
    f = Poly(monomial_minus(UNIT_I.u))
    g = Poly(monomial_minus(UNIT_J.u))
    tree = Sum(Recip(Symm(f)), RightScalar(Conj(Star(f, g)), UNIT_J.u))
    rebuilt = expr_from_json(json.loads(json.dumps(expr_to_json(tree))))
    q = Quaternion(0.3, 0.4, 0.5, 0.6)
    assert_close(evaluate(rebuilt, q), evaluate(tree, q), tol=1e-13)


def test_expr_rejects_unknown_op():
    with pytest.raises(DecodeError):
        expr_from_json({"op": "laplace"})
    with pytest.raises(DecodeError):
        expr_from_json([1, 2])
    for op in ([], {}, 5, None):  # not a tag, and not all of them hashable
        with pytest.raises(DecodeError):
            expr_from_json({"op": op, "f": {"op": "poly", "coeffs": [[1, 0, 0, 0]]}})


def test_ext_expr_from_json():
    data = {
        "op": "ext",
        "stem": {"coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]},
        "slice": [0, 0, 1, 0],
    }
    expr = expr_from_json(data)
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    assert_close(evaluate(expr, q), q, tol=1e-12)


def test_ext_expr_rejects_real_slice():
    data = {"op": "ext", "stem": {"coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}, "slice": [1, 0, 0, 0]}
    with pytest.raises(DecodeError):
        expr_from_json(data)


def test_ext_domain_is_never_rasterized(monkeypatch):
    # the stems' regions decide membership in an ext node's domain, so
    # decoding and evaluating one never classifies its connectivity
    import sys

    def no_raster(region, step):
        raise AssertionError("an ext domain was rasterized")

    monkeypatch.setattr(sys.modules["sliceregular.representation"], "_slice_components",
                        no_raster)
    data = {"op": "ext", "stem": {"coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}, "slice": [0, 0, 1, 0],
            "domain": {"discs": [{"r": 1.0}, {"cx": 3.0, "r": 1.0}], "grid_step": 0.05}}
    expr = expr_from_json(data)
    for q in (Quaternion(0.1, 0.2, 0.3, 0.4), Quaternion(3.1, 0.2, 0.3, 0.4)):
        assert_close(evaluate(expr, q), q, tol=1e-12)
    with pytest.raises(DomainError):
        evaluate(expr, Quaternion(1.5, 0.5))


def test_domain_from_json():
    domain = domain_from_json({"discs": [{"cx": 0.0, "cy": 0.0, "r": 1.0}]})
    assert domain.is_s_domain
    domain = domain_from_json({"discs": [{"cy": 2.0, "r": 1.0}]})
    assert not domain.is_s_domain
    with pytest.raises(DecodeError):
        domain_from_json({"discs": [{"cx": 0.0}]})
    with pytest.raises(DecodeError):
        domain_from_json({})
