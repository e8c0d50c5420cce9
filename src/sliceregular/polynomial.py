"""Polynomials with right quaternionic coefficients and a real center.

These are the concrete regular functions of the package: exact coefficient
algebra for the regular product, conjugate and symmetrization lives here and
doubles as the oracle for the pointwise (b, c) formulas of the evaluators.
``SlicePolynomial.stem`` gives a polynomial's own pair (b, c) in one pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import CenterMismatch
from .quaternion import ONE, Quaternion, Value, ZERO, _coerce


def _as_quaternion(c) -> Quaternion:
    q = _coerce(c)
    if q is None:
        raise TypeError(f"not a quaternion coefficient: {c!r}")
    return q


class SlicePolynomial(Value):
    """f(q) = sum_n (q - center)^n a_n with right coefficients a_n.

    Trailing coefficients with every component zero are trimmed (a test on
    the norm would trim tiny nonzero ones, whose norm underflows); the zero
    polynomial keeps a single zero coefficient.
    """

    __slots__ = ("center", "coeffs", "_abs_coeffs")

    def __init__(self, center: float = 0.0, coeffs: Sequence = (ZERO,)):
        cs = [_as_quaternion(c) for c in coeffs] or [ZERO]
        while len(cs) > 1 and cs[-1] == ZERO:
            cs.pop()
        self.center = float(center)
        self.coeffs = tuple(cs)
        self._abs_coeffs = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == ZERO for c in self.coeffs)

    def coeff_norm(self) -> float:
        return max(c.norm() for c in self.coeffs)

    @property
    def abs_coeffs(self) -> tuple[float, ...]:
        if self._abs_coeffs is None:
            self._abs_coeffs = tuple(c.norm() for c in self.coeffs)
        return self._abs_coeffs

    def majorant(self, q: Quaternion) -> float:
        """backward_bound(|a_n|, |q - center|): the rounding error of
        evaluate(q) is a fixed fraction of it."""
        return backward_bound(self.abs_coeffs,
                              math.hypot(q.x0 - self.center, q.x1, q.x2, q.x3))

    def evaluate(self, q: Quaternion) -> Quaternion:
        """Horner evaluation, right-coefficient variant: acc <- w*acc + c.

        Runs in float locals with the expression order of
        ``Quaternion.__mul__`` (w on the left) followed by ``+ c``, so it
        equals the loop over Quaternion operators bit for bit.
        """
        q = _as_quaternion(q)
        cs = self.coeffs
        w0, w1, w2, w3 = q.x0 - self.center, q.x1, q.x2, q.x3  # w = q - center
        last = cs[-1]
        a0, a1, a2, a3 = last.x0, last.x1, last.x2, last.x3
        for c in cs[-2::-1]:
            a0, a1, a2, a3 = (
                w0 * a0 - w1 * a1 - w2 * a2 - w3 * a3 + c.x0,
                w0 * a1 + w1 * a0 + w2 * a3 - w3 * a2 + c.x1,
                w0 * a2 - w1 * a3 + w2 * a0 + w3 * a1 + c.x2,
                w0 * a3 + w1 * a2 - w2 * a1 + w3 * a0 + c.x3,
            )
        return Quaternion(a0, a1, a2, a3)

    def stem(self, z: complex) -> tuple[complex, complex, complex, complex]:
        """(p_0(z), ..., p_3(z)), p_k(z) = sum_n a_n[k] (z - center)^n, in one
        Horner pass: at z = x + iy, the components of b + i*c with
        f(x + y*I) = b + I*c for every I in S (the stem function of f)."""
        w = z - self.center
        a0 = a1 = a2 = a3 = 0j
        for c in reversed(self.coeffs):  # one statement each: no tuples built
            a0 = a0 * w + c.x0
            a1 = a1 * w + c.x1
            a2 = a2 * w + c.x2
            a3 = a3 * w + c.x3
        return a0, a1, a2, a3

    def derivative(self) -> "SlicePolynomial":
        """Slice derivative: exact coefficient shift."""
        if len(self.coeffs) == 1:
            return SlicePolynomial(self.center, (ZERO,))
        return SlicePolynomial(
            self.center,
            tuple(c * float(n) for n, c in enumerate(self.coeffs) if n >= 1),
        )

    def __add__(self, other):
        if not isinstance(other, SlicePolynomial):
            return NotImplemented
        _require_same_center(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (ZERO,) * (n - len(self.coeffs))
        b = other.coeffs + (ZERO,) * (n - len(other.coeffs))
        return SlicePolynomial(self.center, tuple(x + y for x, y in zip(a, b)))

    def __neg__(self):
        return SlicePolynomial(self.center, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, SlicePolynomial):
            return NotImplemented
        return self + (-other)

    def right_scaled(self, a: Quaternion) -> "SlicePolynomial":
        a = _as_quaternion(a)
        return SlicePolynomial(self.center, tuple(c * a for c in self.coeffs))


def _require_same_center(f: SlicePolynomial, g: SlicePolynomial):
    if f.center != g.center:  # exact: a center is decoded or copied, never computed
        raise CenterMismatch(
            f"polynomial centers differ: {f.center} vs {g.center} (re-centering is not supported)"
        )


def backward_bound(abs_coeffs: Sequence[float], r: float) -> float:
    """sum_n |a_n| r^n, the majorant of a polynomial at |q| = r: its Horner
    rounding error is a fixed fraction of it (Higham, SIAM 2002, 5.1)."""
    total = 0.0
    for a in reversed(abs_coeffs):
        total = total * r + a
    return total


def polynomial(coeffs: Iterable, center: float = 0.0) -> SlicePolynomial:
    """Convenience constructor accepting reals and quaternions."""
    return SlicePolynomial(center, tuple(_as_quaternion(c) for c in coeffs))


def monomial_minus(s: Quaternion) -> SlicePolynomial:
    """The polynomial q - s (center 0)."""
    return SlicePolynomial(0.0, (-_as_quaternion(s), ONE))


def star_poly(f: SlicePolynomial, g: SlicePolynomial) -> SlicePolynomial:
    """Regular product by coefficient convolution: c_n = sum_r a_r b_{n-r}."""
    _require_same_center(f, g)
    a, b = f.coeffs, g.coeffs
    out = [ZERO] * (len(a) + len(b) - 1)
    for r, ar in enumerate(a):
        for t, bt in enumerate(b):
            out[r + t] = out[r + t] + ar * bt
    return SlicePolynomial(f.center, tuple(out))


def conj_poly(f: SlicePolynomial) -> SlicePolynomial:
    """Regular conjugate: coefficient-wise quaternion conjugation."""
    return SlicePolynomial(f.center, tuple(c.conjugate() for c in f.coeffs))


def symm_poly(f: SlicePolynomial) -> SlicePolynomial:
    """Symmetrization f * f^c; its coefficients are real."""
    return star_poly(f, conj_poly(f))
