"""A seeded differential fuzz of ``eval`` through cli.main against exact arithmetic.

Trees of depth at most 3 over poly, sum, star, rscale, conj, symm and recip
(center 0) with components 0, uniform in [-2, 2] or +-2^[-1074, 1023] are
evaluated at three points each.  The oracle shares no code with the
package: it writes each tree as D(q)^-1 N(q), with D of real coefficients,
in exact dyadic integers, and a recip's D and N as N^s and D N^c.  Each
exit-0 value lies within 2^-36 K + 2^-1073 of the exact value, K an error
majorant the oracle forms itself; an inline not-finite error comes only
where the exact value overflows within that bound.
"""

import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest

from sliceregular.cli import main

_MASK = (1 << 64) - 1
_OPS = ("sum", "star", "rscale", "conj", "symm", "recip")
_OVERFLOW = Fraction(2 ** 1024 - 2 ** 970)  # the least magnitude that rounds to inf
_REL, _ABS = Fraction(1, 2 ** 36), Fraction(1, 2 ** 1073)
TREES = 150


def _splitmix(seed):
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _component(rng):
    kind, u = next(rng) % 3, (next(rng) >> 11) * 2.0 ** -53
    if kind < 2:
        return 4.0 * u - 2.0 if kind else 0.0
    return (-1.0) ** (next(rng) & 1) * math.ldexp(1.0 + u, next(rng) % 2098 - 1074)


def _quat(rng):
    return [_component(rng) for _ in range(4)]


def _tree(rng, depth):
    if not depth or next(rng) % 4 == 0:
        return {"op": "poly", "coeffs": [_quat(rng) for _ in range(1 + next(rng) % 3)]}
    op = _OPS[next(rng) % len(_OPS)]
    node = {"op": op, "f": _tree(rng, depth - 1)}
    if op in ("sum", "star"):
        node["g"] = _tree(rng, depth - 1)
    if op == "rscale":
        node["a"] = _quat(rng)
    return node


# A polynomial sum_n q^n c_n is (C, e): c_n = C[n] 2^-e, C[n] a 4-tuple of ints.

def _poly(coeffs):
    ratios = [[x.as_integer_ratio() for x in c] for c in coeffs]
    e = max(d.bit_length() - 1 for c in ratios for _, d in c)
    return [tuple(n << (e - d.bit_length() + 1) for n, d in c) for c in ratios], e


def _qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1, a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _add(p, r):
    e, size = max(p[1], r[1]), max(len(p[0]), len(r[0]))
    a, b = ([tuple(x << (e - ex) for x in c) for c in cs] + [(0, 0, 0, 0)] * (size - len(cs))
            for cs, ex in (p, r))
    return [tuple(map(int.__add__, x, y)) for x, y in zip(a, b)], e


def _mul(p, r):
    (a, ea), (b, eb) = p, r
    out = [(0, 0, 0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = tuple(map(int.__add__, out[i + j], _qmul(x, y)))
    return out, ea + eb


def _conj(p):
    return [(c0, -c1, -c2, -c3) for c0, c1, c2, c3 in p[0]], p[1]


def _exact(node, memo):
    """(D, N) with the tree's function D^-1 N, D's coefficients real; memo[id] holds every node's."""
    op = node["op"]
    if op == "poly":
        out = ([(1, 0, 0, 0)], 0), _poly(node["coeffs"])
    else:
        d, n = _exact(node["f"], memo)
        if op in ("sum", "star"):
            d2, n2 = _exact(node["g"], memo)
            out = _mul(d, d2), _add(_mul(d2, n), _mul(d, n2)) if op == "sum" else _mul(n, n2)
        elif op == "rscale":
            out = d, _mul(n, _poly([node["a"]]))
        elif op == "conj":
            out = d, _conj(n)
        elif op == "symm":
            out = _mul(d, d), _mul(n, _conj(n))
        else:
            out = _mul(n, _conj(n)), _mul(d, _conj(n))
    memo[id(node)] = out
    return out


def _at(p, q):
    """p(q) as (V, x), p(q) = V 2^-x, by Horner's rule with q = Q 2^-s on the left."""
    (cs, e), (qq, s) = p, q
    acc = cs[-1]
    for shift, c in enumerate(reversed(cs[:-1]), 1):
        acc = tuple(x + (y << (s * shift)) for x, y in zip(_qmul(qq, acc), c))
    return acc, s * (len(cs) - 1) + e


def _l1(v, x):
    """|v 2^-x|_1, at least the Euclidean norm."""
    return Fraction(sum(map(abs, v)), 1 << x)


def _value(d, n, q):
    """D(q)^-1 N(q) in Fractions, None where D(q) = 0."""
    (dv, dx), (nv, nx) = _at(d, q), _at(n, q)
    den = sum(x * x for x in dv)
    if not den:
        return None
    scale = Fraction(1 << dx, 1 << nx) / den
    return [scale * x for x in _qmul((dv[0], -dv[1], -dv[2], -dv[3]), nv)]


def _majorant(node, q, rho, memo):
    """K with |computed - exact| a small multiple of u K at q: sums add, products
    multiply, symm squares; recip is 2K/S + 2K^3/S^2, S <= |f^s(q)|.  None where
    a recip's f^s(q) = 0."""
    op = node["op"]
    if op == "poly":
        cs, e = _poly(node["coeffs"])
        return sum(_l1(c, e) * rho ** k for k, c in enumerate(cs))
    k = _majorant(node["f"], q, rho, memo)
    if k is None or op == "conj":
        return k
    if op in ("sum", "star"):
        g = _majorant(node["g"], q, rho, memo)
        return None if g is None else k + g if op == "sum" else k * g
    if op == "rscale":
        (a,), e = _poly([node["a"]])
        return k * _l1(a, e)
    if op == "symm":
        return k * k
    ns, d = memo[id(node)][0], memo[id(node["f"])][0]  # f^s = N^s / D^2
    s = _l1(*_at(ns, q)) / (2 * _l1(*_at(d, q)) ** 2)
    return None if not s else 2 * k / s + 2 * k ** 3 / s ** 2


def _serve(payload):
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def cases():
    rng, out = _splitmix(2031), []
    for _ in range(TREES):
        expr = _tree(rng, 3)
        points = [_quat(rng) for _ in range(3)]
        out.append((expr, points, _serve({"expr": expr, "points": points})))
    return out


def _strict_json(text):
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))


def test_every_answer_is_strict_json_or_one_error_line(cases):
    for expr, points, (code, out, err) in cases:
        assert code in (0, 2, 3) and "internal error" not in err, (expr, points, err)
        if code:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, (expr, err)
        else:
            assert err == "" and len(_strict_json(out)["values"]) == len(points), expr


def test_values_lie_within_the_bound_of_the_exact_values(cases):
    judged = 0
    for expr, points, (code, out, _) in cases:
        if code:
            continue
        memo = {}
        d, n = _exact(expr, memo)
        for point, got in zip(points, _strict_json(out)["values"]):
            (qq,), s = _poly([point])
            q = qq, s
            exact, k = _value(d, n, q), _majorant(expr, q, _l1(*q), memo)
            if exact is None or k is None:  # on an exact singular sphere
                continue
            tol = _REL * k + _ABS
            if isinstance(got, dict):
                if "symmetrization vanishes" in got["error"]:
                    continue
                assert "not a finite" in got["error"], (expr, point, got)
                assert max(map(abs, exact)) + tol >= _OVERFLOW, (expr, point, got)
            else:
                assert max(abs(Fraction(v) - x) for v, x in zip(got, exact)) <= tol, (
                    expr, point, got, [float(x) for x in exact])
            judged += 1
    assert judged >= 2 * TREES
