"""Quaternion arithmetic, imaginary units and slice coordinates.

Everything in this module is an immutable value with pure operations, so
instances may be shared freely between threads.  ``Value`` is the base of
every value type of the package.
"""

from __future__ import annotations

import math

from .errors import NotASlicePoint

# imaginary_unit_of rejects q with |Im(q)| at most this.
REAL_AXIS_TOL = 1e-12
_NORMAL = 2.0 ** -1022  # the smallest normal double


class Value:
    """Base of the package's values.  The fields are the public names in
    ``__slots__``, set by ``__init__`` (positionally or by keyword, defaults
    in ``_defaults``) and never assigned afterwards.  Equality (same type,
    equal fields), hash and a ``Name(field=value, ...)`` repr derive from them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields += tuple(n for n in cls.__dict__.get("__slots__", ()) if n[0] != "_")

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args))
        if len(args) > len(names) or values.keys() & kwargs.keys():
            raise TypeError(f"{type(self).__name__}(): too many or repeated arguments")
        values = {**self._defaults, **values, **kwargs}
        if values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes {names}, got {sorted(values)}")
        for name in names:
            setattr(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Quaternion(Value):
    """An element of the skew field H with components along 1, i, j, k."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0: float = 0.0, x1: float = 0.0, x2: float = 0.0, x3: float = 0.0):
        self.x0 = x0
        self.x1 = x1
        self.x2 = x2
        self.x3 = x3

    def __eq__(self, other):
        if other.__class__ is not Quaternion:
            return NotImplemented
        return (self.x0 == other.x0 and self.x1 == other.x1
                and self.x2 == other.x2 and self.x3 == other.x3)

    __hash__ = Value.__hash__

    def __add__(self, other):
        if other.__class__ is not Quaternion and (other := _coerce(other)) is None:
            return NotImplemented
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Quaternion and (other := _coerce(other)) is None:
            return NotImplemented
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __rsub__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if other.__class__ is Quaternion:
            a, b = self, other
            return Quaternion(
                a.x0 * b.x0 - a.x1 * b.x1 - a.x2 * b.x2 - a.x3 * b.x3,
                a.x0 * b.x1 + a.x1 * b.x0 + a.x2 * b.x3 - a.x3 * b.x2,
                a.x0 * b.x2 - a.x1 * b.x3 + a.x2 * b.x0 + a.x3 * b.x1,
                a.x0 * b.x3 + a.x1 * b.x2 - a.x2 * b.x1 + a.x3 * b.x0,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def re(self) -> float:
        return self.x0

    def norm_sq(self) -> float:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def norm(self) -> float:
        return math.hypot(self.x0, self.x1, self.x2, self.x3)

    def im_norm(self) -> float:
        """|Im(q)|, the root of a sum of squares: of Im(q) scaled by a power of
        two where a square leaves the normal range, so that |Im(2^k q)| is
        exactly 2^k |Im(q)| wherever the components are normal."""
        n = math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)
        if 1e-150 < n < 1e150:
            return n
        t = math.ldexp(1.0, -scale_exponent(max(abs(self.x1), abs(self.x2), abs(self.x3))))
        x1, x2, x3 = self.x1 * t, self.x2 * t, self.x3 * t
        return math.sqrt(x1 * x1 + x2 * x2 + x3 * x3) / t

    def inverse(self) -> "Quaternion":
        return quat_inv(self)

    def components(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)

    def __repr__(self):
        return f"Quaternion({self.x0}, {self.x1}, {self.x2}, {self.x3})"


ONE = Quaternion(1.0)
ZERO = Quaternion()


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    return None


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product (i^2 = j^2 = k^2 = -1, ij = k and cyclic)."""
    return a * b


def quat_inv(q: Quaternion) -> Quaternion:
    """Multiplicative inverse conj(q)/|q|^2, formed from q 2^-e (scale_exponent
    of its largest component) when |q|^2 or 1/|q|^2 is not a normal double.
    Raises if q = 0; a component of 1/q that overflows is inf."""
    n2 = q.norm_sq()
    if 2.0 ** -1021 <= n2 <= 2.0 ** 1021:
        return q.conjugate() * (1.0 / n2)
    if q == ZERO:
        raise ZeroDivisionError("the zero quaternion has no inverse")
    t = math.ldexp(1.0, -scale_exponent(max(map(abs, q.components()))))
    p = q.conjugate() * t
    return (p * (1.0 / p.norm_sq())) * t


def dot(a: Quaternion, b: Quaternion) -> float:
    """Euclidean inner product of R^4."""
    return a.x0 * b.x0 + a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3


def scale_exponent(m: float, k: int = 0) -> int:
    """e with m 2^(k - e) in [1/2, 1) (k at m = 0), at least -1021: 2^-e, a
    double, is the one power of two that brings a majorant m 2^k, or a
    largest component, near 1.  Every rescaling of the package takes it."""
    return max(math.frexp(m)[1] + k, -1021)


def pow2(m: float, k: int = 0) -> tuple[float, int]:
    """m 2^k in the form of every majorant: (m 2^k, 0) where that is a normal
    double or 0, else (f, k') with f in [1/2, 1), k' > 1024 above the doubles
    and k' < -1021 below the normal ones, so (k, m) orders the nonzero ones."""
    f, e = math.frexp(m)
    return (math.ldexp(f, e + k), 0) if -1022 < e + k <= 1024 or not f else (f, e + k)


def pow2_sum(a: float, ka: int, b: float, kb: int) -> tuple[float, int]:
    """a 2^ka + b 2^kb in pow2's form: a + b where that is a double."""
    if not ka | kb and a + b < math.inf:
        return a + b, 0
    k = max(ka + math.frexp(a)[1], kb + math.frexp(b)[1]) + 1
    return pow2(math.ldexp(a, ka - k) + math.ldexp(b, kb - k), k)


def pow2_product(a: float, ka: int, b: float, kb: int) -> tuple[float, int]:
    """a 2^ka b 2^kb in pow2's form: a b where that is a normal double."""
    if not ka | kb and _NORMAL <= a * b < math.inf:
        return a * b, 0
    (fa, ea), (fb, eb) = math.frexp(a), math.frexp(b)
    return pow2(fa * fb, ea + eb + ka + kb)


def pow2_norm(q: Quaternion) -> tuple[float, int]:
    """|q| in pow2's form: 2 |q / 2| where |q| (< 2^1025) overflows."""
    n = q.norm()
    if n < math.inf:
        return (n, 0) if n >= _NORMAL else pow2(n)
    return pow2((q * 0.5).norm(), 1)


def pow2_scaled(q: Quaternion, n: int) -> Quaternion:
    """q 2^n at any n, each component rounded once: inf where it overflows,
    subnormal or 0 where it underflows."""
    while n > 1023:
        q, n = q * 2.0 ** 1023, n - 1023
    return q * 2.0 ** n if n >= -1022 else Quaternion(*(math.ldexp(x, n) for x in q.components()))


def negligible(x: float, tol: float, m: float, k: int = 0) -> bool:
    """x <= tol m 2^k: is x zero against its majorant m 2^k?"""
    return math.ldexp(x, -k) <= tol * m if k >= 0 else x <= math.ldexp(tol * m, k)


class ImaginaryUnit(Value):
    """A validated point of the sphere S of imaginary units.

    Construction normalizes the imaginary part of the given quaternion and
    rejects a real input.
    """

    __slots__ = ("u",)

    def __init__(self, u: Quaternion):
        n = u.im_norm()
        if n == 0.0:
            raise NotASlicePoint("cannot build an imaginary unit from a real quaternion")
        self.u = Quaternion(0.0, u.x1 / n, u.x2 / n, u.x3 / n)

    def __neg__(self):
        return ImaginaryUnit(-self.u)


UNIT_I = ImaginaryUnit(Quaternion(0.0, 1.0, 0.0, 0.0))
UNIT_J = ImaginaryUnit(Quaternion(0.0, 0.0, 1.0, 0.0))
UNIT_K = ImaginaryUnit(Quaternion(0.0, 0.0, 0.0, 1.0))


class SlicePoint(Value):
    """The decomposition q = x + y*I with y >= 0.

    ``unit_is_arbitrary`` marks real points, where any element of S would do
    and the canonical unit i is used by convention.
    """

    __slots__ = ("x", "y", "unit", "unit_is_arbitrary")

    def __init__(self, x: float, y: float, unit: ImaginaryUnit, unit_is_arbitrary: bool = False):
        self.x = x
        self.y = y
        self.unit = unit
        self.unit_is_arbitrary = unit_is_arbitrary

    def to_quaternion(self) -> Quaternion:
        return from_slice(self.x, self.y, self.unit)


def from_slice(x: float, y: float, unit: ImaginaryUnit) -> Quaternion:
    u = unit.u
    return Quaternion(x, y * u.x1, y * u.x2, y * u.x3)


def imaginary_unit_of(q: Quaternion) -> ImaginaryUnit:
    """Im(q)/|Im(q)|. Raises NotASlicePoint on (near-)real input."""
    if q.im_norm() <= REAL_AXIS_TOL:
        raise NotASlicePoint(f"imaginary unit of a (near-)real quaternion is undefined: {q!r}")
    return ImaginaryUnit(q)


def slice_coords(q: Quaternion) -> SlicePoint:
    """(x, y, I) with q = x + y*I and y >= 0.

    Real points (Im q = 0) get y = 0 and the canonical unit i, flagged as arbitrary.
    """
    y = q.im_norm()
    if y == 0.0:
        return SlicePoint(q.x0, 0.0, UNIT_I, unit_is_arbitrary=True)
    return SlicePoint(q.x0, y, ImaginaryUnit(q))


_FALLBACK_UNITS = (UNIT_I, UNIT_J, UNIT_K)

# Two units are "parallel enough" to skip when |<e, I>| exceeds this.
_PARALLEL_TOL = 0.9


def orthogonal_unit(unit: ImaginaryUnit) -> ImaginaryUnit:
    """A deterministic J in S orthogonal to the given unit.

    Gram-Schmidt of the first element of the fixed list (i, j, k) that is not
    (nearly) parallel to the input, so Splitting Lemma components are
    reproducible.
    """
    u = unit.u
    for e in _FALLBACK_UNITS:
        if abs(dot(e.u, u)) < _PARALLEL_TOL:
            v = e.u - dot(e.u, u) * u
            return ImaginaryUnit(v)
    raise AssertionError("unreachable: a unit cannot be parallel to i, j and k at once")
