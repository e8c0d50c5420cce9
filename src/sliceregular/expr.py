"""Expression trees of regular functions and their pointwise evaluators.

Every node evaluates through the Representation Formula: on the sphere of
q = x + y*I a slice function is f(x + y*I') = b + I'*c, the pair (b, c) read
off a polynomial's stem at x + iy or off any other node's values at q and
at its conjugate (_pair).  The product, conjugate, symmetrization and
reciprocal are closed formulas in (b, c), the stem calculus of
Ghiloni-Perotti (Adv. Math. 226, 2011).  At real points c = 0 and every
formula reduces to its pointwise form, so no special case is needed.

Trees are immutable and structurally shared; evaluation is a pure function.
"""

from __future__ import annotations

import math

from .errors import DomainError, NotASlicePoint, SingularPoint, ZeroBase
from .polynomial import SlicePolynomial
from .quaternion import (
    ImaginaryUnit,
    ONE,
    Quaternion,
    Value,
    dot,
    from_slice,
    quat_inv,
    slice_coords,
)
from .representation import affine_coeffs, general_representation

SPLIT_ORTHOGONALITY_TOL = 1e-9
RECIP_SINGULAR_TOL = 1e-10
COMPOSITION_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# Splitting Lemma components (public API; not on the evaluation path)
# ---------------------------------------------------------------------------

class SplitPair(Value):
    """Complex components of a quaternion against the basis {1, I, J, I*J}."""

    __slots__ = ("f", "g", "i", "j")

    def recombine(self) -> Quaternion:
        return from_split(self.f, self.g, self.i, self.j)


def split(v: Quaternion, i: ImaginaryUnit, j: ImaginaryUnit) -> SplitPair:
    """Decompose v = F + G*J with F, G in L_I; requires J orthogonal to I."""
    if abs(dot(i.u, j.u)) > SPLIT_ORTHOGONALITY_TOL:
        raise ValueError("split requires J orthogonal to I")
    ij = i.u * j.u
    f = complex(v.x0, dot(v, i.u))
    g = complex(dot(v, j.u), dot(v, ij))
    return SplitPair(f, g, i, j)


def from_split(f: complex, g: complex, i: ImaginaryUnit, j: ImaginaryUnit) -> Quaternion:
    ij = i.u * j.u
    return (Quaternion(f.real) + f.imag * i.u) + g.real * j.u + g.imag * ij


# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------

class StemFunction(Value):
    """Slice data: an evaluation map (x, y) -> H on a declared slice.

    ``region`` is the declared domain on the slice (``None`` means the whole
    plane).  The slice Cauchy-Riemann property is not enforced at
    construction; it is checked numerically by :func:`regularity_residual`.
    """

    __slots__ = ("func", "unit", "region")
    _defaults = {"region": None}

    def __call__(self, x: float, y: float) -> Quaternion:
        if self.region is not None and not self.region.contains(x, y):
            raise DomainError(f"stem evaluated outside its declared domain at ({x}, {y})")
        return self.func(x, y)


class SliceExpr(Value):
    """Base class of the expression tree."""

    __slots__ = ()

    def __call__(self, q: Quaternion) -> Quaternion:
        return evaluate(self, q)


class Poly(SliceExpr):
    __slots__ = ("poly",)


class Ext(SliceExpr):
    """Extension of two slice data r (on L_J) and s (on L_K) with J != K,
    defined where both are: a stem raises DomainError outside its region."""

    __slots__ = ("r", "s", "j", "k")


class Star(SliceExpr):
    __slots__ = ("f", "g")


class Conj(SliceExpr):
    __slots__ = ("f",)


class Symm(SliceExpr):
    __slots__ = ("f",)


class Recip(SliceExpr):
    __slots__ = ("f",)


class Sum(SliceExpr):
    __slots__ = ("f", "g")


class RightScalar(SliceExpr):
    __slots__ = ("f", "a")


class RawMap(SliceExpr):
    """Arbitrary pointwise map, used for non-regular control functions."""

    __slots__ = ("func",)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(f: SliceExpr, q: Quaternion) -> Quaternion:
    """Pointwise value of an expression tree."""
    return _eval(f, q)[0]


def _eval(f: SliceExpr, q: Quaternion) -> tuple[Quaternion, float]:
    """(f(q), m): the value and a majorant m of the terms that formed it, so
    that its rounding error is a fixed fraction of m.

    A polynomial's m is its backward bound at q; sums add, products multiply
    and conjugates keep the m of their arguments.  A reciprocal's m is
    m_f / |f^s(q)|, its denominator taken as exact, as are the values of Ext
    and RawMap nodes.
    """
    if isinstance(f, Poly):
        return f.poly.evaluate(q), f.poly.majorant(q)
    if isinstance(f, Sum):
        (u, mu), (v, mv) = _eval(f.f, q), _eval(f.g, q)
        return u + v, mu + mv
    if isinstance(f, RightScalar):
        v, m = _eval(f.f, q)
        return v * f.a, m * f.a.norm()
    if isinstance(f, Star):
        # f*g(q) = f(q) g(f(q)^{-1} q f(q)) (Gentili-Stoppato) and
        # g(x + y*I') = b_g + I'*c_g:  f*g(q) = f(q) b_g + I f(q) c_g.
        fq, mf = _eval(f.f, q)
        i, b, c, mg = _pair(f.g, q)
        return fq * b + i * (fq * c), mf * mg
    if isinstance(f, Conj):
        i, b, c, m = _pair(f.f, q)
        return _conj(i, b, c), m
    if isinstance(f, Symm):
        i, b, c, m = _pair(f.f, q)
        return _symm(i, b, c), m * m
    if isinstance(f, Recip):
        # on a spherical zero of f, b and c are rounding noise of size eps * m.
        # f is scaled by t = 2^-e to m*t near 1, so that f^s stays a normal
        # double, and (t f)^{-*} = f^{-*} / t is scaled back.
        i, b, c, m = _pair(f.f, q)
        t = math.ldexp(1.0, -max(math.frexp(m)[1], -1021))
        b, c, m = b * t, c * t, m * t
        s = _symm(i, b, c)
        ns = s.norm()
        if ns <= RECIP_SINGULAR_TOL * m * m:
            p = slice_coords(q)
            raise SingularPoint(
                f"symmetrization vanishes on the sphere x={p.x}, y={p.y}", x=p.x, y=p.y
            )
        return (quat_inv(s) * _conj(i, b, c)) * t, m / ns * t
    if isinstance(f, RawMap):
        v = f.func(q)
    elif isinstance(f, Ext):
        p = slice_coords(q)
        v = general_representation(f.r(p.x, p.y), f.s(p.x, p.y), f.j, f.k, p)
    else:
        raise TypeError(f"not a SliceExpr node: {f!r}")
    return v, v.norm()


def _pair(f: SliceExpr, q: Quaternion) -> tuple[Quaternion, Quaternion, Quaternion, float]:
    """(I, b, c, m) with f = b + I*c at q = x + y*I and m a majorant of f
    there: a polynomial's from its stem at x + iy, any other node's from
    f(q) and f(conj(q)), with m the larger majorant of the two values."""
    p = slice_coords(q)
    if isinstance(f, Poly):
        b, c = _stem_pair(f.poly, p.x, p.y)
        return p.unit.u, b, c, f.poly.majorant(q)
    (vp, mp), (vm, mm) = _eval(f, q), _eval(f, q.conjugate())
    b, c = affine_coeffs(vp, vm, p.unit)
    return p.unit.u, b, c, max(mp, mm)


def _stem_pair(poly: SlicePolynomial, x: float, y: float) -> tuple[Quaternion, Quaternion]:
    """(b, c), the real and imaginary parts of poly's stem at x + iy."""
    p0, p1, p2, p3 = poly.stem(complex(x, y))
    return (Quaternion(p0.real, p1.real, p2.real, p3.real),
            Quaternion(p0.imag, p1.imag, p2.imag, p3.imag))


def _conj(i: Quaternion, b: Quaternion, c: Quaternion) -> Quaternion:
    return b.conjugate() + i * c.conjugate()


def _symm(i: Quaternion, b: Quaternion, c: Quaternion) -> Quaternion:
    return Quaternion(b.norm_sq() - c.norm_sq()) + i * (2.0 * dot(b, c))


def star_eval(f: SliceExpr, g: SliceExpr, q: Quaternion) -> Quaternion:
    """Regular product f*g at q, from f(q) and the (b, c) pair of g."""
    return _eval(Star(f, g), q)[0]


def conj_eval(f: SliceExpr, q: Quaternion) -> Quaternion:
    """Regular conjugate f^c at q: conj(b) + I conj(c)."""
    return _eval(Conj(f), q)[0]


def symm_eval(f: SliceExpr, q: Quaternion) -> Quaternion:
    """Symmetrization f^s at q: (|b|^2 - |c|^2) + I 2<b, c>.

    The value lies in L_{I_q} by construction.
    """
    return _eval(Symm(f), q)[0]


def recip_eval(f: SliceExpr, q: Quaternion) -> Quaternion:
    """Regular reciprocal f^{-*}(q) = f^s(q)^{-1} f^c(q), off Z_{f^s}.

    Both factors come from one (b, c) pair of f.  q is on Z_{f^s} when
    |f^s(q)| <= RECIP_SINGULAR_TOL * m^2, with m the majorant of f at q
    (see _eval); both sides scale as lambda^2 under f -> lambda f.
    """
    return _eval(Recip(f), q)[0]


def star_via_composition(f: SliceExpr, g: SliceExpr, q: Quaternion) -> Quaternion:
    """Cross-check form f*g(q) = f(q) g(f(q)^{-1} q f(q)); needs f(q) != 0,
    taken to fail when |f(q)| <= COMPOSITION_ZERO_TOL times f's majorant."""
    fq, m = _eval(f, q)
    if fq.norm() <= COMPOSITION_ZERO_TOL * m:
        raise ZeroBase("composition form undefined where f(q) = 0")
    return fq * evaluate(g, quat_inv(fq) * q * fq)


def _fd_step(x: float, y: float) -> float:
    """2^(e - 18), e the exponent of max(|x|, |y|): a step at the scale of x + y*I."""
    return math.ldexp(1.0, math.frexp(max(abs(x), abs(y), 2.0 ** -1000))[1] - 18)


def slice_derivative(f: SliceExpr, q: Quaternion) -> Quaternion:
    """Slice derivative: exact coefficient shift for polynomials, central
    finite difference in x (step _fd_step) for every other node."""
    if isinstance(f, Poly):
        return f.poly.derivative().evaluate(q)
    h = _fd_step(q.x0, q.im_norm())
    return (evaluate(f, q + Quaternion(h)) - evaluate(f, q - Quaternion(h))) * (0.5 / h)


def regularity_residual(f: SliceExpr, q: Quaternion) -> float:
    """|1/2 (d/dx + I d/dy) f| at q = x + y*I, by central differences (_fd_step).

    Near zero for regular f; order one for non-regular maps.  The point must
    be non-real (the slice is ambiguous at y = 0).
    """
    p = slice_coords(q)
    if p.unit_is_arbitrary:
        raise NotASlicePoint("regularity residual is undefined on the real axis")
    i, h = p.unit, _fd_step(p.x, p.y)
    fxp = evaluate(f, from_slice(p.x + h, p.y, i))
    fxm = evaluate(f, from_slice(p.x - h, p.y, i))
    fyp = evaluate(f, from_slice(p.x, p.y + h, i))
    fym = evaluate(f, from_slice(p.x, p.y - h, i))
    return ((fxp - fxm + i.u * (fyp - fym)) * (0.25 / h)).norm()


def identity_expr() -> Poly:
    """The identity polynomial q."""
    return Poly(SlicePolynomial(0.0, (Quaternion(), ONE)))
