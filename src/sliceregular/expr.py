"""Expression trees of regular functions and their pointwise evaluators.

Every node evaluates through the Representation Formula: on the sphere of
q = x + y*I a slice function is f(x + y*I') = b + I'*c, the pair (b, c) read
off a polynomial's stem at x + iy or off any other node's values at q and
at its conjugate (_pair).  The product, conjugate, symmetrization and
reciprocal are closed formulas in (b, c), the stem calculus of
Ghiloni-Perotti (Adv. Math. 226, 2011).  At real points c = 0 and every
formula reduces to its pointwise form, so no special case is needed.

A polynomial's pair depends on the sphere alone, so each polynomial leaf of
a tree is read once per point: one pass gives its stem and majorant, and
every read of it is b + I*c (-I at conj(q)).  A tree that is a single leaf
is one Horner pass at q.

Trees are immutable and structurally shared; evaluation is a pure function.
"""

from __future__ import annotations

import math

from .errors import DomainError, NotASlicePoint, SingularPoint, ZeroBase
from .polynomial import SlicePolynomial
from .quaternion import (
    ONE, ImaginaryUnit, Quaternion, SlicePoint, Value, dot, from_slice, negligible, pow2,
    pow2_norm, pow2_product, pow2_scaled, pow2_sum, quat_inv, scale_exponent, slice_coords,
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


def _eval(f: SliceExpr, q: Quaternion, s=None) -> tuple[Quaternion, float, int]:
    """(f(q), m, k): the value and a majorant m 2^k of the terms that formed
    it, so that its rounding error is a fixed fraction of it.  m 2^k is in
    quaternion.pow2's form: k != 0 only where it is not a normal double.

    Every node is read at q or conj(q), on one sphere x + y*S: its context
    s = _sphere(q), the slice points of both and a table of leaf stems, is
    made once, by the root unless that is a leaf, and passed down.  A
    polynomial leaf makes one pass per point, for its stem at x + iy and its
    majorant (_pair), and each read of it is f(q) = b + I*c, with -I at
    conj(q).  A bare leaf is one Horner pass at q.  Sums add majorants,
    products multiply them and conjugates keep those of their arguments.  A
    reciprocal's is m_f / |f^s(q)|, its denominator taken as exact, as are
    the values of Ext and RawMap nodes."""
    if isinstance(f, Poly):
        if s is None:
            return f.poly.evaluate_with_majorant(q)
        i, b, c, m, k = _pair(f, q, s)
        return _affine(i, b.x0, b.x1, b.x2, b.x3, c.x0, c.x1, c.x2, c.x3), m, k
    if isinstance(f, RawMap):
        v = f.func(q)
        return (v, *pow2_norm(v))
    if isinstance(f, Ext):
        p = s[0] if s else slice_coords(q)
        v = general_representation(f.r(p.x, p.y), f.s(p.x, p.y), f.j, f.k, p)
        return (v, *pow2_norm(v))
    s = s or _sphere(q)
    if isinstance(f, Sum):
        (u, mu, ku), (v, mv, kv) = _eval(f.f, q, s), _eval(f.g, q, s)
        return (u + v, *pow2_sum(mu, ku, mv, kv))
    if isinstance(f, RightScalar):
        v, m, k = _eval(f.f, q, s)
        return (v * f.a, *pow2_product(m, k, *pow2_norm(f.a)))
    if isinstance(f, Star):
        # f*g(q) = f(q) g(f(q)^{-1} q f(q)) (Gentili-Stoppato) and
        # g(x + y*I') = b_g + I'*c_g:  f*g(q) = f(q) b_g + I f(q) c_g.
        fq, mf, kf = _eval(f.f, q, s)
        i, b, c, mg, kg = _pair(f.g, q, s)
        return (fq * b + i * (fq * c), *pow2_product(mf, kf, mg, kg))
    if isinstance(f, Conj):
        i, b, c, m, k = _pair(f.f, q, s)
        return _conj(i, b, c), m, k
    if isinstance(f, Symm):
        # f^s = (2^-e f)^s 2^2e (_scaled_pair): inf where it overflows
        i, b, c, m, e = _scaled_pair(f.f, q, s)
        return (pow2_scaled(_symm(i, b, c), 2 * e), *pow2(m * m, 2 * e))
    if isinstance(f, Recip):
        # on a spherical zero of f, b and c are rounding noise of size eps * m.
        # f^{-*} = (2^-e f)^{-*} 2^-e (_scaled_pair) is scaled back.
        i, b, c, m, e = _scaled_pair(f.f, q, s)
        fs = _symm(i, b, c)
        ns = fs.norm()
        if ns <= RECIP_SINGULAR_TOL * m * m:
            p = s[0]
            raise SingularPoint(f"symmetrization vanishes on the sphere x={p.x}, y={p.y}",
                                x=p.x, y=p.y)
        return (pow2_scaled(quat_inv(fs) * _conj(i, b, c), -e), *pow2(m / ns, -e))
    raise TypeError(f"not a SliceExpr node: {f!r}")


def _points(q: Quaternion) -> tuple[SlicePoint, SlicePoint]:
    """slice_coords of q and of conj(q), the latter's unit -I formed as slice_coords forms it."""
    p = slice_coords(q)
    return p, p if p.unit_is_arbitrary else SlicePoint(p.x, p.y, ImaginaryUnit(q.conjugate()))


def _sphere(q: Quaternion) -> tuple[SlicePoint, SlicePoint, dict]:
    """The context of one evaluation on the sphere of q: _points(q) and an
    empty table of leaf stems, (b, c, m, k) keyed by id(SlicePolynomial):
    the trees read through it hold their polynomials, so no id is reused
    while it lives."""
    return (*_points(q), {})


def _pair(f: SliceExpr, q: Quaternion, s) -> tuple[Quaternion, Quaternion, Quaternion, float, int]:
    """(I, b, c, m, k) with f = b + I*c at q = x + y*I (s = _sphere(q)) and
    m 2^k a majorant of f there: a polynomial's from its stem at x + iy and
    its majorant, one pass on the first read of the sphere (s's table), any
    other node's from f(q) and f(conj(q)), m 2^k the larger of their two."""
    p, pc, table = s
    if isinstance(f, Poly):
        e = table.get(id(f.poly))
        if e is None:
            e = table[id(f.poly)] = f.poly.stem_with_majorant(complex(p.x, p.y), q)
        return (p.unit.u, *e)
    (vp, mp, kp), (vm, mm, km) = _eval(f, q, s), _eval(f, q.conjugate(), (pc, p, table))
    b, c = affine_coeffs(vp, vm, p.unit)
    k, m = max((kp, mp), (km, mm))
    return p.unit.u, b, c, m, k


def _scaled_pair(f: SliceExpr, q: Quaternion, s, e: int | None = None):
    """(I, b, c, m, e): _pair's b, c and majorant times 2^-e, e the
    scale_exponent of the majorant unless given, so that m is near 1 and no
    square of b or c leaves the double range where 2^-2e f^s does not."""
    i, b, c, m, k = _pair(f, q, s)
    e = scale_exponent(m, k) if e is None else e
    if k and isinstance(f, Poly):  # f's values may leave the doubles where those of 2^-e f do not:
        # 2^-e f(q) = sum_n (2^-t w)^n a_n 2^(nt - e), w = q - center, as Horner rounds it
        w = q - f.poly.center
        t = scale_exponent(*pow2_norm(w))
        p = slice_coords(pow2_scaled(w, -t))
        g = SlicePolynomial(0.0, [pow2_scaled(a, n * t - e) for n, a in enumerate(f.poly.coeffs)])
        b, c = _stem_pair(g, p.x, p.y)
    else:
        b, c = pow2_scaled(b, -e), pow2_scaled(c, -e)
    return i, b, c, math.ldexp(m, k - e), e


def _stem_pair(poly: SlicePolynomial, x: float, y: float) -> tuple[Quaternion, Quaternion]:
    """(b, c), the real and imaginary parts of poly's stem at x + iy."""
    p0, p1, p2, p3 = poly.stem(complex(x, y))
    return (Quaternion(p0.real, p1.real, p2.real, p3.real),
            Quaternion(p0.imag, p1.imag, p2.imag, p3.imag))


# b + I c, conj(b) + I conj(c) and (|b|^2 - |c|^2) + I (2 <b, c>), in the order of Quaternion's operators
def _affine(i: Quaternion, b0, b1, b2, b3, c0, c1, c2, c3) -> Quaternion:
    i0, i1, i2, i3 = i.x0, i.x1, i.x2, i.x3
    return Quaternion(b0 + (i0 * c0 - i1 * c1 - i2 * c2 - i3 * c3),
                      b1 + (i0 * c1 + i1 * c0 + i2 * c3 - i3 * c2),
                      b2 + (i0 * c2 - i1 * c3 + i2 * c0 + i3 * c1),
                      b3 + (i0 * c3 + i1 * c2 - i2 * c1 + i3 * c0))


def _conj(i: Quaternion, b: Quaternion, c: Quaternion) -> Quaternion:
    return _affine(i, b.x0, -b.x1, -b.x2, -b.x3, c.x0, -c.x1, -c.x2, -c.x3)


def _symm(i: Quaternion, b: Quaternion, c: Quaternion) -> Quaternion:
    d = 2.0 * dot(b, c)
    return Quaternion(b.norm_sq() - c.norm_sq() + i.x0 * d, 0.0 + i.x1 * d, 0.0 + i.x2 * d,
                      0.0 + i.x3 * d)


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
    """Cross-check form f*g(q) = f(q) g(u^{-1} q u), u = f(q) 2^-e near 1; needs
    f(q) != 0, taken to fail when |f(q)| <= COMPOSITION_ZERO_TOL times f's majorant."""
    fq, m, k = _eval(f, q)
    if negligible(fq.norm(), COMPOSITION_ZERO_TOL, m, k):
        raise ZeroBase("composition form undefined where f(q) = 0")
    u = pow2_scaled(fq, -scale_exponent(*pow2_norm(fq)))
    return fq * evaluate(g, quat_inv(u) * q * u)


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
