"""Representation formulas and axially symmetric domains."""

import math
from collections import deque

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
    quat_inv,
    representation,
    symmetric_completion,
)
from sliceregular.representation import _column_run, _slice_components
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


def _operator_general_representation(v_j, v_k, j, k, target):
    """The general representation formula in Quaternion operators."""
    dinv = quat_inv(j.u - k.u)
    b = dinv * (j.u * v_j - k.u * v_k)
    c = dinv * (v_j - v_k)
    return b + target.unit.u * c


def test_general_representation_is_the_operator_form_bit_for_bit():
    # the component kernel keeps every operation of the operator form, in
    # its order: the same bits, signed zeros included
    rng = SplitMix64(24)
    cases = []
    for n in range(300):
        x, y = rng.sphere()
        j, k = rng.unit_pair()
        if n % 3 == 1:
            k = -j  # as an ext node of one slice builds it
        target = SlicePoint(x, y, j if n % 5 == 2 else rng.unit())
        scale = (1.0, 2.0 ** 500, 2.0 ** -500)[n % 3]
        cases.append((rng.quaternion() * scale, rng.quaternion() * scale, j, k, target))
    axes = [UNIT_I, UNIT_J, UNIT_K, -UNIT_I, -UNIT_J, -UNIT_K]
    signed = [Quaternion(), Quaternion(-0.0, -0.0, -0.0, -0.0),
              Quaternion(-0.0, 1.0, 0.0, -0.0), Quaternion(0.0, -0.0, -2.0, 0.0)]
    for j in axes:
        for k in axes:
            if j != k:
                for v_j in signed:
                    for v_k in signed:
                        cases.append((v_j, v_k, j, k, SlicePoint(0.5, 1.0, j)))
                        cases.append((v_j, v_k, j, k, SlicePoint(0.5, 1.0, axes[0])))
    for case in cases:
        assert repr(general_representation(*case)) == repr(_operator_general_representation(*case))


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
    assert domain.contains(from_slice(0.0, -1.0, UNIT_I))
    # the box is open at y0 = 0, so it does not meet the real axis
    assert not domain.contains(from_slice(0.0, 0.0, UNIT_I))
    assert not domain.contains_real and not domain.is_s_domain


def _reference_components(region, step):
    """Flood-fill count of the connected components of the mirrored slice set.

    This is the plain form of ``_slice_components``: it tests every cell of
    the raster and fills 4-neighbour cells, and the column sweep must give
    the same count.
    """
    x0, x1, y0, y1 = region.bounds()
    top = max(abs(y0), abs(y1))
    x0, x1 = x0 - step, x1 + step
    ylo, yhi = -top - step, top + step
    nx = max(2, int((x1 - x0) / step) + 1)
    ny = max(2, int((yhi - ylo) / step) + 1)

    def inside(ix, iy):
        x = x0 + ix * step
        y = ylo + iy * step
        return region.contains(x, abs(y)) or region.contains(x, -abs(y))

    grid = [[inside(ix, iy) for iy in range(ny)] for ix in range(nx)]
    seen = [[False] * ny for _ in range(nx)]
    components = 0
    for sx in range(nx):
        for sy in range(ny):
            if not grid[sx][sy] or seen[sx][sy]:
                continue
            components += 1
            queue = deque([(sx, sy)])
            seen[sx][sy] = True
            while queue:
                ix, iy = queue.popleft()
                for jx, jy in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
                    if 0 <= jx < nx and 0 <= jy < ny and grid[jx][jy] and not seen[jx][jy]:
                        seen[jx][jy] = True
                        queue.append((jx, jy))
    return components


def _random_union(rng, step):
    """1-4 shapes of extent at most 0.3: free discs and boxes, boxes with
    y0 = 0, discs tangent to the axis or to another disc, and shapes whose
    gap to, or overlap with, the shape before them is below one step."""
    shapes = []
    for _ in range(1 + int(rng.uniform(0, 4))):
        kind = int(rng.uniform(0, 5)) if shapes else int(rng.uniform(0, 3))
        r = rng.uniform(0.01, 0.15)
        if kind == 0:
            shapes.append(Disc(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), r))
        elif kind == 1:
            x0, y0 = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
            shapes.append(Rect(x0, x0 + 2 * r, y0, y0 + rng.uniform(0.005, 0.3)))
        elif kind == 2:
            x0 = rng.uniform(-0.2, 0.2)
            shapes.append(Rect(x0, x0 + 2 * r, 0.0, rng.uniform(0.005, 0.3)))
        else:
            a = shapes[-1]
            cx, cy, ra = ((a.x0 + a.x1) / 2, a.y1, 0.0) if isinstance(a, Rect) else (a.cx, a.cy, a.r)
            gap = 0.0 if kind == 3 else rng.uniform(-step, step)  # tangent, or a sub-step gap
            t = rng.uniform(0, 2 * math.pi)
            d = ra + r + gap
            shapes.append(Disc(cx + d * math.cos(t), cy + d * math.sin(t), r))
        if rng.uniform() < 0.2:
            last = shapes.pop()  # tangent to the axis, from above
            if isinstance(last, Disc):
                shapes.append(Disc(last.cx, last.r, last.r))
            else:
                shapes.append(Rect(last.x0, last.x1, 0.0, last.y1 - last.y0))
    return SliceRegion(tuple(shapes))


def test_slice_components_match_flood_fill():
    rng = SplitMix64(61)
    counts = set()
    for _ in range(120):
        step = rng.uniform(0.007, 0.02)
        region = _random_union(rng, step)
        want = _reference_components(region, step)
        assert _slice_components(region, step) == want, (region, step)
        counts.add(want)
    assert {1, 2, 3} <= counts


class _Skewed:
    """A shape whose chord is off by ``skew`` at both ends."""

    __slots__ = ()

    def chord(self, x):
        lo, hi, c = super().chord(x) or (0.0, 0.0, None)
        return None if c is None else (lo + self.skew, hi - self.skew, c)


class _SkewedDisc(_Skewed, Disc):
    __slots__ = ("skew",)


class _SkewedRect(_Skewed, Rect):
    __slots__ = ("skew",)


def test_column_run_is_exact_whatever_the_chord():
    # each end moves from its seed until contains agrees, so a chord off by
    # up to ten steps either way still gives the cells a scan finds
    rng = SplitMix64(62)
    step, ylo, ny = 0.01, -0.61, 123
    for _ in range(300):
        skew = rng.uniform(-0.1, 0.1)
        r = rng.uniform(0.003, 0.3)
        cx, cy = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
        shape = (_SkewedDisc(cx, cy, r, skew) if rng.uniform() < 0.5
                 else _SkewedRect(cx - r, cx + r, cy - r, cy + rng.uniform(-r, r), skew))
        x = cx + rng.uniform(-1.1, 1.1) * r
        cells = [iy for iy in range(ny) if shape.contains(x, ylo + iy * step)]
        want = (cells[0], cells[-1]) if cells else None
        assert not cells or cells == list(range(cells[0], cells[-1] + 1))  # one run
        assert _column_run(shape, x, ylo, step, ny) == want, (shape, x)
