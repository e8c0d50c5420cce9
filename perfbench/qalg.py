"""Quaternion and polynomial arithmetic on plain tuples for the oracles.

Deliberately independent of the ``sliceregular`` package: the oracles must
not share code with the path they check.  A quaternion is a 4-tuple
(x0, x1, x2, x3); a polynomial is a list of right coefficients a_n of
f(q) = sum_n q^n a_n (center 0), quaternionic or, for the real-coefficient
denominators of the eval oracle, plain floats.
"""

from __future__ import annotations

import math


def qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def qsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def qscale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qnorm(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3])


def qinv(a):
    n2 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]
    return (a[0] / n2, -a[1] / n2, -a[2] / n2, -a[3] / n2)


def slice_point(x, y, unit):
    """x + y*I for an imaginary unit I given as a 4-tuple."""
    return (x, y * unit[1], y * unit[2], y * unit[3])


def horner(coeffs, q):
    """sum_n q^n a_n, right coefficients."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = qadd(qmul(q, acc), c)
    return acc


def horner_real(coeffs, q):
    """sum_n d_n q^n for real coefficients d_n."""
    acc = (coeffs[-1], 0.0, 0.0, 0.0)
    for c in reversed(coeffs[:-1]):
        m = qmul(q, acc)
        acc = (m[0] + c, m[1], m[2], m[3])
    return acc


def backward_bound(coeffs, r):
    """sum_n |a_n| r^n: the scale of rounding errors of a Horner evaluation
    at a point of norm r."""
    total, power = 0.0, 1.0
    for c in coeffs:
        total += (abs(c) if isinstance(c, float) else qnorm(c)) * power
        power *= r
    return total


def pmul(a, b):
    """Regular product of quaternionic polynomials: c_n = sum_r a_r b_{n-r}."""
    out = [(0.0, 0.0, 0.0, 0.0)] * (len(a) + len(b) - 1)
    for r, ar in enumerate(a):
        for t, bt in enumerate(b):
            out[r + t] = qadd(out[r + t], qmul(ar, bt))
    return out


def pmul_real(a, d):
    """Quaternionic polynomial times a real-coefficient one."""
    out = [(0.0, 0.0, 0.0, 0.0)] * (len(a) + len(d) - 1)
    for r, ar in enumerate(a):
        for t, dt in enumerate(d):
            out[r + t] = qadd(out[r + t], qscale(ar, dt))
    return out


def rmul(a, b):
    """Product of real-coefficient polynomials."""
    out = [0.0] * (len(a) + len(b) - 1)
    for r, ar in enumerate(a):
        for t, bt in enumerate(b):
            out[r + t] += ar * bt
    return out


def padd(a, b):
    n = max(len(a), len(b))
    zero = (0.0, 0.0, 0.0, 0.0)
    return [qadd(a[k] if k < len(a) else zero, b[k] if k < len(b) else zero) for k in range(n)]


def pconj(a):
    return [qconj(c) for c in a]


def psymm_real(a):
    """Coefficients of the symmetrization a * a^c, which are real."""
    return [c[0] for c in pmul(a, pconj(a))]
