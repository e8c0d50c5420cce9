"""Pointwise evaluators: splitting, star calculus, derivative, regularity."""

import math

import pytest

from sliceregular import (
    Conj,
    NotASlicePoint,
    ONE,
    Poly,
    Quaternion,
    RawMap,
    Recip,
    SingularPoint,
    Star,
    Sum,
    RightScalar,
    SlicePolynomial,
    Symm,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    ZeroBase,
    conj_eval,
    conj_poly,
    evaluate,
    from_slice,
    identity_expr,
    monomial_minus,
    orthogonal_unit,
    polynomial,
    recip_eval,
    regularity_residual,
    slice_coords,
    slice_derivative,
    star_eval,
    star_poly,
    star_via_composition,
    symm_eval,
    symm_poly,
)
import sliceregular.expr as expr_module
from sliceregular.expr import from_split, split
from sliceregular.quaternion import dot, quat_inv
from sliceregular.serialize import _eval_cost
from sliceregular.verify import SplitMix64, check_identity_suite

from conftest import assert_close


def sample_points(seed, count):
    rng = SplitMix64(seed)
    return [rng.point() for _ in range(count)]


def test_split_round_trip():
    rng = SplitMix64(11)
    for _ in range(50):
        v = rng.quaternion(2.0)
        i = rng.unit()
        j = orthogonal_unit(i)
        parts = split(v, i, j)
        assert_close(parts.recombine(), v, tol=1e-12)


def test_split_requires_orthogonal_units():
    with pytest.raises(ValueError):
        split(ONE, UNIT_I, UNIT_I)


def test_split_of_slice_value_has_zero_g():
    # x + y*I splits as F = x + iy, G = 0
    i = UNIT_J
    j = orthogonal_unit(i)
    parts = split(from_slice(0.5, 2.0, i), i, j)
    assert parts.f == complex(0.5, 2.0)
    assert parts.g == 0j


def test_from_split_canonical_basis():
    v = from_split(complex(1.0, 2.0), complex(3.0, 4.0), UNIT_I, UNIT_J)
    assert_close(v, Quaternion(1.0, 2.0, 3.0, 4.0))


def test_star_eval_matches_coefficient_oracle():
    rng = SplitMix64(5)
    for _ in range(20):
        f, g = rng.polynomial(max_degree=5), rng.polynomial(max_degree=5)
        oracle = Poly(star_poly(f, g))
        for q in sample_points(17, 10):
            assert_close(star_eval(Poly(f), Poly(g), q), evaluate(oracle, q), tol=1e-9)


def test_star_eval_example():
    # (q - i) * (q - j) at j equals 2k
    fg = Star(Poly(monomial_minus(UNIT_I.u)), Poly(monomial_minus(UNIT_J.u)))
    assert_close(evaluate(fg, UNIT_J.u), Quaternion(0.0, 0.0, 0.0, 2.0), tol=1e-12)


def test_star_eval_at_real_points_is_pointwise():
    f = polynomial([UNIT_I.u, ONE])
    g = polynomial([UNIT_J.u, ONE])
    q = Quaternion(1.5)
    assert_close(star_eval(Poly(f), Poly(g), q),
                 f.evaluate(q) * g.evaluate(q), tol=1e-12)


def test_constant_unit_star_holomorphic_swaps_conjugate():
    # for H with values in L_i and J orthogonal to i:
    # (J * H)(z) = conj_{L_i}(H(zbar)) * J on L_i
    h = polynomial([complexish(1.0, 2.0), complexish(0.5, -1.0), complexish(0.0, 3.0)])
    const_j = Poly(polynomial([UNIT_J.u]))
    for x, y in ((0.3, 0.8), (-1.2, 1.5), (0.0, 0.4)):
        z = from_slice(x, y, UNIT_I)
        got = star_eval(const_j, Poly(h), z)
        hbar = h.evaluate(z.conjugate())
        want = Quaternion(hbar.x0, -hbar.x1, 0.0, 0.0) * UNIT_J.u
        assert_close(got, want, tol=1e-10)


def complexish(a: float, b: float) -> Quaternion:
    """a + b*i as a quaternion."""
    return Quaternion(a, b, 0.0, 0.0)


@pytest.mark.parametrize("y", [1e-13, 1e-160, 1e200])
def test_conj_keeps_points_just_off_the_axis(y):
    # a point is real only when Im q = 0: q^c = q at y*j, and
    # (q + i)^c = q - i at 0.5 + y*(j + k), at every scale of y
    q = Quaternion(0.0, 0.0, y, 0.0)
    assert evaluate(Conj(identity_expr()), q) == q
    q = Quaternion(0.5, 0.0, y, y)
    assert evaluate(Conj(Poly(polynomial([Quaternion(0.0, 1.0), 1.0]))), q) == q - UNIT_I.u


def test_conj_eval_matches_coefficient_oracle():
    rng = SplitMix64(6)
    for _ in range(20):
        f = rng.polynomial(max_degree=5)
        oracle = Poly(conj_poly(f))
        for q in sample_points(23, 10):
            assert_close(conj_eval(Poly(f), q), evaluate(oracle, q), tol=1e-9)


def test_symm_eval_matches_coefficient_oracle_and_stays_on_slice():
    rng = SplitMix64(8)
    for _ in range(20):
        f = rng.polynomial(max_degree=5)
        oracle = Poly(symm_poly(f))
        for q in sample_points(29, 10):
            v = symm_eval(Poly(f), q)
            assert_close(v, evaluate(oracle, q), tol=1e-8)
            # value lies in the slice of q: v = Re(v) + I * <v, I>
            p = slice_coords(q)
            on_slice = Quaternion(v.re()) + dot(v, p.unit.u) * p.unit.u
            assert_close(v, on_slice, tol=1e-9)


def test_recip_example():
    # (q - j)^{-*} at 2j: f^s = q^2 + 1 -> -3; f^c(2j) = 2j + j = 3j; value -j
    f = Poly(monomial_minus(UNIT_J.u))
    assert_close(recip_eval(f, 2.0 * UNIT_J.u), -UNIT_J.u, tol=1e-12)


def test_recip_left_inverse_under_star():
    rng = SplitMix64(9)
    for _ in range(10):
        f = Poly(rng.polynomial(max_degree=4))
        for q in sample_points(31, 10):
            if symm_eval(f, q).norm() > 1e-3:
                assert_close(star_eval(Recip(f), f, q), ONE, tol=1e-8)


def test_recip_singular_on_zero_sphere():
    f = Poly(monomial_minus(UNIT_J.u))
    with pytest.raises(SingularPoint) as exc:
        recip_eval(f, UNIT_K.u)
    assert exc.value.x == pytest.approx(0.0)
    assert exc.value.y == pytest.approx(1.0)


def test_recip_scale_invariant():
    # (scale (1 + q^2))^{-*} at 2j is 1/(scale (1 - 4)); the sphere of j
    # stays singular at every scale, also where |f|^2 is not a double.
    for scale in (1e-200, 1e-100, 1e-6, 1.0, 1e6, 1e100, 1e160):
        f = Poly(polynomial([scale, 0.0, scale]))
        assert_close(recip_eval(f, 2.0 * UNIT_J.u), Quaternion(-1.0 / (3.0 * scale)),
                     tol=1e-15 / scale)
        with pytest.raises(SingularPoint):
            recip_eval(f, UNIT_K.u)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_recip_singular_where_pair_is_rounding_noise(scale):
    # 2 + q^2 vanishes on the sphere of radius sqrt(2), but at fl(sqrt(2))*j
    # the computed b = 2 - fl(sqrt(2))^2 is rounding noise, so |f^s| is of
    # the order of |b|^2 + |c|^2; only the majorant of f shows it is zero.
    f = Poly(polynomial([2.0 * scale, 0.0, scale]))
    g = Poly(polynomial([UNIT_I.u, 1.0]))
    for expr in (f, Star(g, f), Star(Recip(g), f), RightScalar(Conj(f), UNIT_K.u)):
        with pytest.raises(SingularPoint):
            recip_eval(expr, math.sqrt(2.0) * UNIT_J.u)


def _count_polynomial_passes(monkeypatch):
    # every SlicePolynomial method that reads the coefficients at a point; a
    # rename fails here, so the count cannot drop to 0 unseen
    count = [0]

    def counted(original):
        def wrapper(self, *args):
            count[0] += 1
            return original(self, *args)
        return wrapper

    for name in ("evaluate", "evaluate_with_majorant", "stem", "stem_with_majorant",
                 "scaled_majorant"):
        monkeypatch.setattr(SlicePolynomial, name, counted(getattr(SlicePolynomial, name)))
    return count


@pytest.mark.parametrize("node, reads", [
    (lambda f: f, 1),
    (lambda f: Recip(Recip(f)), 2),
    (lambda f: Star(f, f), 2),
    (Symm, 1),
    (Conj, 1),
    (lambda f: Conj(Conj(Conj(f))), 4),
    (lambda f: Sum(Star(Conj(f), Symm(f)), RightScalar(Recip(f), UNIT_K.u)), 4),
], ids=["leaf", "recip-recip", "star", "symm", "conj", "conj-chain", "mixed"])
def test_evaluation_counts_polynomial_calls(monkeypatch, node, reads):
    # a bare leaf is one Horner pass; in a tree each leaf is read from its
    # stem and majorant, one pass on the first read of the point's sphere, and
    # other nodes read their children at q and conj(q).  The decoder's cost
    # bound counts the reads.
    count = _count_polynomial_passes(monkeypatch)
    tree = node(Poly(polynomial([UNIT_J.u, ONE, UNIT_I.u])))
    evaluate(tree, Quaternion(0.3, 0.4, -0.5, 0.6))
    assert count[0] == 1
    assert _eval_cost(tree) == reads


def test_identity_suite_makes_four_polynomial_passes_per_point(monkeypatch):
    # one table of leaf stems per sample point serves every tree of the suite:
    # a pass for f and one for g, and star_via_composition's Horner passes for
    # f(q) and for g at f(q)^-1 q f(q)
    rng = SplitMix64(8)
    f, g = Poly(rng.polynomial(max_degree=5)), Poly(rng.polynomial(max_degree=5))
    count = _count_polynomial_passes(monkeypatch)
    reports = check_identity_suite(f, g, points=10, seed=8)
    assert all(r.passed for r in reports) and reports[1].samples == 10
    assert count[0] == 4 * 10


def _tree_and_oracle(rng, depth):
    # a seeded tree of height at most depth with a distinct polynomial at each
    # leaf, and its polynomial by the coefficient algebra
    kind = rng.next_u64() % 6 if depth else 0
    if kind == 0:
        p = rng.polynomial(max_degree=2)
        return Poly(p), p
    (f, pf) = _tree_and_oracle(rng, depth - 1)
    if kind in (1, 2):
        g, pg = _tree_and_oracle(rng, depth - 1)
        return (Sum(f, g), pf + pg) if kind == 1 else (Star(f, g), star_poly(pf, pg))
    if kind == 3:
        a = rng.quaternion()
        return RightScalar(f, a), pf.right_scaled(a)
    return (Conj(f), conj_poly(pf)) if kind == 4 else (Symm(f), symm_poly(pf))


def test_trees_agree_with_the_coefficient_oracles():
    # every leaf read once per point, from its stem: the value within 1e-13
    # of the tree's majorant of the polynomial the coefficient algebra forms
    rng = SplitMix64(41)
    for _ in range(40):
        tree, oracle = _tree_and_oracle(rng, 6)
        for q in sample_points(rng.next_u64(), 5):
            v, m, k = expr_module._eval(tree, q)
            assert k == 0
            assert (v - oracle.evaluate(q)).norm() <= 1e-13 * m, (tree, q)


def _depth10_tree(leaf=None):
    # star (g on the left), conj, symm and recip in turn over a leaf whose
    # values stay near 1, so that no level leaves the double range
    t = leaf or Poly(polynomial([Quaternion(0.5, 0.1, 0.2, 0.0), ONE, 0.3 * UNIT_J.u]))
    g = Poly(polynomial([0.2 * UNIT_I.u, 0.8]))
    for n in range(10):
        t = (lambda f: Star(g, f), Conj, Symm, Recip)[n % 4](t)
    return t


def _count_slice_coords(monkeypatch):
    calls = []
    monkeypatch.setattr(expr_module, "slice_coords", lambda q: calls.append(q) or slice_coords(q))
    return calls


@pytest.mark.parametrize("q", [
    Quaternion(0.3, 0.4, -0.5, 0.6), Quaternion(-0.7), Quaternion(1e-200, 0.0, -0.0, 3e-170),
], ids=["off-axis", "real", "tiny-y"])
def test_evaluation_takes_slice_coordinates_once_per_point(monkeypatch, q):
    # every node is read at q or conj(q), on one sphere: q's slice point is
    # taken once, conj(q)'s read off it, and the value is bit for bit the one
    # that slice_coords(conj(q)) at every pair gives
    tree = _depth10_tree()
    monkeypatch.setattr(expr_module, "_points",
                        lambda q: (slice_coords(q), slice_coords(q.conjugate())))
    reference = evaluate(tree, q)
    monkeypatch.undo()
    calls = _count_slice_coords(monkeypatch)
    assert repr(evaluate(tree, q)) == repr(reference)
    assert calls == [q]


@pytest.mark.parametrize("q", [
    Quaternion(0.3, 0.4, -0.5, 0.6), Quaternion(0.3, -0.0, 0.0, -1e-300), Quaternion(-0.7),
    Quaternion(2.0, -0.0, -0.0, 0.0), Quaternion(1.0, 1e200, -3e200, 0.0),
])
def test_conjugate_slice_point_is_the_one_slice_coords_gives(q):
    p, pc = expr_module._points(q)
    assert repr(pc) == repr(slice_coords(q.conjugate()))
    assert repr(p) == repr(slice_coords(q))


def test_singular_reciprocal_deep_in_a_tree_names_the_sphere_of_q(monkeypatch):
    # the recip of q^2 + 1 under ten nodes is read at q and at conj(q); the
    # message gives the sphere of both, from the one slice point of q
    q = Quaternion(0.0, 0.6, 0.8, 0.0)
    p = slice_coords(q)
    calls = _count_slice_coords(monkeypatch)
    with pytest.raises(SingularPoint) as exc:
        evaluate(_depth10_tree(Recip(Poly(polynomial([1.0, 0.0, 1.0])))), q)
    assert (exc.value.x, exc.value.y) == (p.x, p.y)
    assert f"sphere x={p.x}, y={p.y}" in str(exc.value)
    assert calls == [q]


def test_composition_form_agrees():
    # f(q) != 0 is judged against f's majorant, so a small f still has a
    # composition form
    g = Poly(polynomial([UNIT_J.u, 1.0, 1.0]))
    for scale in (1.0, 1e-13):
        f = Poly(polynomial([scale, scale * UNIT_I.u]))
        for q in sample_points(37, 30):
            if evaluate(f, q).norm() > 1e-6 * scale:
                assert_close(star_via_composition(f, g, q), star_eval(f, g, q),
                             tol=1e-9 * scale)


def test_composition_form_needs_nonzero_base():
    f = Poly(monomial_minus(UNIT_I.u))
    with pytest.raises(ZeroBase):
        star_via_composition(f, f, UNIT_I.u)


def test_sum_and_right_scalar_nodes():
    f = Poly(polynomial([1.0, 1.0]))
    q = Quaternion(0.5, 0.5, 0.0, 0.0)
    assert_close(evaluate(Sum(f, f), q), 2.0 * evaluate(f, q))
    assert_close(evaluate(RightScalar(f, UNIT_J.u), q), evaluate(f, q) * UNIT_J.u)


def test_slice_derivative_polynomial_exact():
    p = polynomial([0.0, 0.0, 1.0])  # q^2 -> 2q
    q = Quaternion(1.0, 2.0, 0.0, 0.0)
    assert_close(slice_derivative(Poly(p), q), 2.0 * q)


def test_slice_derivative_finite_difference():
    p = polynomial([0.0, 0.0, 1.0])
    expr = Sum(Poly(p), Poly(polynomial([0.0])))  # non-Poly node, FD path
    q = Quaternion(1.0, 2.0, 0.0, 0.0)
    assert_close(slice_derivative(expr, q), 2.0 * q, tol=1e-8)
    # the step follows the point's scale: (q^2 + s^2)^{-*} has slice
    # derivative -2q (q^2 + s^2)^{-2}, at q = s(0.5 + 0.7j) for every s
    for s in (1e-100, 1e-30, 1e-8, 1e-3, 1.0, 1e6, 1e12, 1e30, 1e100):
        q = from_slice(0.5 * s, 0.7 * s, UNIT_J)
        w = quat_inv(q * q + Quaternion(s * s))
        exact = ((q * w) * w) * -2.0
        got = slice_derivative(Recip(Poly(polynomial([s * s, 0.0, 1.0]))), q)
        assert (got - exact).norm() <= 1e-9 * exact.norm(), s


def test_regularity_residual_small_for_regular():
    rng = SplitMix64(13)
    for _ in range(10):
        f = Poly(rng.polynomial(max_degree=4))
        q = rng.point()
        assert regularity_residual(f, q) <= 1e-7
    # relative to |f'| at every scale of the point
    for s in (1e-100, 1e-8, 1.0, 1e12, 1e100):
        q = from_slice(0.5 * s, 0.7 * s, UNIT_J)
        f = Recip(Poly(polynomial([s * s, 0.0, 1.0])))
        assert regularity_residual(f, q) <= 1e-9 * slice_derivative(f, q).norm(), s


def test_regularity_residual_flags_nonregular_maps():
    # quaternion conjugation: residual exactly 1 on every slice
    conj_map = RawMap(lambda q: q.conjugate())
    assert regularity_residual(conj_map, from_slice(0.3, 1.0, UNIT_J)) == pytest.approx(1.0, abs=1e-9)
    for s in (1e-100, 1e-8, 1e-3, 1e6, 1e12, 1e100):
        q = from_slice(0.5 * s, 0.7 * s, UNIT_J)
        assert regularity_residual(conj_map, q) == pytest.approx(1.0, abs=1e-9), s
    # left multiplication by i: regular on L_i only
    left_i = RawMap(lambda q: UNIT_I.u * q)
    assert regularity_residual(left_i, from_slice(0.3, 1.0, UNIT_I)) <= 1e-9
    assert regularity_residual(left_i, from_slice(0.3, 1.0, UNIT_J)) == pytest.approx(1.0, abs=1e-9)


def test_regularity_residual_undefined_on_real_axis():
    with pytest.raises(NotASlicePoint):
        regularity_residual(identity_expr(), Quaternion(1.0))


def test_identity_expr():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert_close(evaluate(identity_expr(), q), q)
    assert_close(identity_expr()(q), q)
