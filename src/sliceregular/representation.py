"""Representation formulas and axially symmetric domains.

The two formula operations are pure quaternion arithmetic on precomputed
slice values.  Domains are represented by their (x, y) picture on a single
slice (unions of discs and axis-aligned rectangles); the axially symmetric
set they describe depends on a point q only through (Re(q), |Im(q)|).
"""

from __future__ import annotations

import math

from .errors import DegenerateUnits
from .quaternion import ImaginaryUnit, Quaternion, SlicePoint, Value, quat_inv, slice_coords

DEGENERATE_UNIT_TOL = 1e-9
DEFAULT_GRID_STEP = 1e-2


def affine_coeffs(v_plus: Quaternion, v_minus: Quaternion,
                  j: ImaginaryUnit) -> tuple[Quaternion, Quaternion]:
    """(b, c) with f(x + y*I) = b + I*c on the sphere x + y*S, from the values
    v_plus = f(x + y*J) and v_minus = f(x - y*J) of a slice function.

    b = 1/2 [f(x+yJ) + f(x-yJ)],  c = 1/2 J [f(x-yJ) - f(x+yJ)]
    """
    return (v_plus + v_minus) * 0.5, (j.u * (v_minus - v_plus)) * 0.5


def representation(f_plus: Quaternion, f_minus: Quaternion, j: ImaginaryUnit,
                   target: SlicePoint) -> Quaternion:
    """Value at x + y*I from the values f(x + y*J) and f(x - y*J)."""
    b, c = affine_coeffs(f_plus, f_minus, j)
    return b + target.unit.u * c


def general_representation(v_j: Quaternion, v_k: Quaternion, j: ImaginaryUnit,
                           k: ImaginaryUnit, target: SlicePoint) -> Quaternion:
    """Value at x + y*I from the values f(x + y*J) and f(x + y*K), J != K.

    f(x+yI) = (J-K)^{-1} [J f(x+yJ) - K f(x+yK)]
            + I (J-K)^{-1} [f(x+yJ) - f(x+yK)]

    Formed on the components, each product, difference and sum in the
    order Quaternion's operators give it, so the result is theirs bit for bit.
    """
    d = j.u - k.u
    if d.norm() <= DEGENERATE_UNIT_TOL:
        raise DegenerateUnits("the two imaginary units must differ")
    n0, n1, n2, n3 = quat_inv(d).components()
    j0, j1, j2, j3 = j.u.components()
    k0, k1, k2, k3 = k.u.components()
    i0, i1, i2, i3 = target.unit.u.components()
    a0, a1, a2, a3 = v_j.components()
    b0, b1, b2, b3 = v_k.components()
    # s = J v_J - K v_K and t = v_J - v_K; the value is (J-K)^{-1} s + I c, c = (J-K)^{-1} t
    s0 = (j0 * a0 - j1 * a1 - j2 * a2 - j3 * a3) - (k0 * b0 - k1 * b1 - k2 * b2 - k3 * b3)
    s1 = (j0 * a1 + j1 * a0 + j2 * a3 - j3 * a2) - (k0 * b1 + k1 * b0 + k2 * b3 - k3 * b2)
    s2 = (j0 * a2 - j1 * a3 + j2 * a0 + j3 * a1) - (k0 * b2 - k1 * b3 + k2 * b0 + k3 * b1)
    s3 = (j0 * a3 + j1 * a2 - j2 * a1 + j3 * a0) - (k0 * b3 + k1 * b2 - k2 * b1 + k3 * b0)
    t0, t1, t2, t3 = a0 - b0, a1 - b1, a2 - b2, a3 - b3
    c0 = n0 * t0 - n1 * t1 - n2 * t2 - n3 * t3
    c1 = n0 * t1 + n1 * t0 + n2 * t3 - n3 * t2
    c2 = n0 * t2 - n1 * t3 + n2 * t0 + n3 * t1
    c3 = n0 * t3 + n1 * t2 - n2 * t1 + n3 * t0
    return Quaternion(
        (n0 * s0 - n1 * s1 - n2 * s2 - n3 * s3) + (i0 * c0 - i1 * c1 - i2 * c2 - i3 * c3),
        (n0 * s1 + n1 * s0 + n2 * s3 - n3 * s2) + (i0 * c1 + i1 * c0 + i2 * c3 - i3 * c2),
        (n0 * s2 - n1 * s3 + n2 * s0 + n3 * s1) + (i0 * c2 - i1 * c3 + i2 * c0 + i3 * c1),
        (n0 * s3 + n1 * s2 - n2 * s1 + n3 * s0) + (i0 * c3 + i1 * c2 - i2 * c1 + i3 * c0),
    )


# ---------------------------------------------------------------------------
# Slice regions and axially symmetric domains
# ---------------------------------------------------------------------------

class Disc(Value):
    """Open disc in the (x, y) coordinates of one slice."""

    __slots__ = ("cx", "cy", "r")

    def contains(self, x: float, y: float) -> bool:
        dx, dy = x - self.cx, y - self.cy
        return dx * dx + dy * dy < self.r * self.r

    def bounds(self):
        return (self.cx - self.r, self.cx + self.r, self.cy - self.r, self.cy + self.r)

    def chord(self, x: float):
        """(lo, hi, cy): the open chord (lo, hi) of y that the vertical line at
        x cuts, and cy, about which contains(x, y) is unimodal in y; None
        exactly when contains(x, y) holds for no y."""
        dx = x - self.cx
        d2, r2 = dx * dx, self.r * self.r
        if d2 >= r2:  # then dx*dx + dy*dy >= r*r for every dy
            return None
        h = math.sqrt(r2 - d2)
        return self.cy - h, self.cy + h, self.cy

    def real_interval(self):
        """The open interval where the disc meets the real axis, or None."""
        h2 = self.r * self.r - self.cy * self.cy  # > 0 iff cy^2 < r^2, as in contains
        return (self.cx - math.sqrt(h2), self.cx + math.sqrt(h2)) if h2 > 0.0 else None

    def mirrored(self):
        return Disc(self.cx, -self.cy, self.r)


class Rect(Value):
    """Open box (x0, x1) x (y0, y1) in the coordinates of one slice."""

    __slots__ = ("x0", "x1", "y0", "y1")

    def contains(self, x: float, y: float) -> bool:
        return self.x0 < x < self.x1 and self.y0 < y < self.y1

    def bounds(self):
        return (self.x0, self.x1, self.y0, self.y1)

    def chord(self, x: float):
        """(y0, y1, y0): the chord and a pivot, as in Disc.chord; None exactly
        when x is outside (x0, x1)."""
        return (self.y0, self.y1, self.y0) if self.x0 < x < self.x1 else None

    def real_interval(self):
        """The open interval where the box meets the real axis, or None: a
        box with y0 = 0 is open at the axis and misses it."""
        return (self.x0, self.x1) if self.y0 < 0.0 < self.y1 else None

    def mirrored(self):
        return Rect(self.x0, self.x1, -self.y1, -self.y0)


class SliceRegion(Value):
    """Finite union of shapes on one slice (y may be negative)."""

    __slots__ = ("shapes",)

    def contains(self, x: float, y: float) -> bool:
        return any(s.contains(x, y) for s in self.shapes)

    def bounds(self):
        bs = [s.bounds() for s in self.shapes]
        return (
            min(b[0] for b in bs), max(b[1] for b in bs),
            min(b[2] for b in bs), max(b[3] for b in bs),
        )

    def mirrored(self) -> "SliceRegion":
        return SliceRegion(tuple(s.mirrored() for s in self.shapes))

    def meets_real_axis(self) -> bool:
        """Exact: some shape crosses the real axis (its real_interval)."""
        return any(s.real_interval() for s in self.shapes)

    def is_axis_symmetric(self) -> bool:
        """Exact, conservative test that (x, y) in region iff (x, -y) in region:
        true when each shape's mirror lies inside one shape of the region.

        It never accepts an asymmetric region, but it rejects a union that is
        symmetric only as a whole, where several shapes cover one mirror."""
        return all(any(_inside(m.mirrored(), s) for s in self.shapes) for m in self.shapes)

    def real_trace_samples(self, count: int = 32) -> list[float]:
        """At most ``count`` points of the region's intersection with the real
        axis, evenly spaced over each shape's axis interval."""
        trace = [iv for iv in (s.real_interval() for s in self.shapes) if iv is not None]
        k = max(1, count // len(trace)) if trace else 0
        pts = [lo + (hi - lo) * (m + 0.5) / k for lo, hi in trace for m in range(k)]
        return [x for x in pts[:count] if self.contains(x, 0.0)]


def _inside(a, b) -> bool:
    """Closed-form test that the open shape a lies in the open shape b (their
    boundaries may touch)."""
    if isinstance(b, Rect):
        x0, x1, y0, y1 = a.bounds()
        return b.x0 <= x0 and x1 <= b.x1 and b.y0 <= y0 and y1 <= b.y1
    if isinstance(a, Disc):
        return math.hypot(a.cx - b.cx, a.cy - b.cy) + a.r <= b.r
    # a box lies in a disc when its farthest corner lies in the closed disc
    dx = max(abs(a.x0 - b.cx), abs(a.x1 - b.cx))
    dy = max(abs(a.y0 - b.cy), abs(a.y1 - b.cy))
    return dx * dx + dy * dy <= b.r * b.r


class AxialDomain(Value):
    """Axially symmetric set described by a slice region.

    Membership of q depends only on (Re(q), |Im(q)|): q belongs to the domain
    iff the generating region contains (x, y) or (x, -y) for y = |Im(q)|.
    """

    __slots__ = ("region", "contains_real", "is_s_domain")

    # A union of whole spheres x + y*S is axially symmetric by construction.
    axially_symmetric = True

    def contains(self, q: Quaternion) -> bool:
        p = slice_coords(q)
        return self.region.contains(p.x, p.y) or self.region.contains(p.x, -p.y)


def raster_cells(region: SliceRegion, step: float) -> float:
    """Cells of the raster on which _slice_components classifies the region
    at this step, over-counted by at most one row and one column (inf if it
    has no finite size).  It reads the raster's own bounds, padded by one
    step, so a step that overflows them gives inf."""
    x0, x1, y0, y1 = region.bounds()
    top = max(abs(y0), abs(y1))
    return ((x1 + step - (x0 - step)) / step + 2.0) * (2.0 * (top + step) / step + 2.0)


def _slice_components(region: SliceRegion, step: float) -> int:
    """Connected components of the mirrored slice set, as a flood fill over
    4-neighbour cells of its raster counts them, found column by column.

    The slice set on any L_I is the region together with its mirror image
    across the real axis.  Cell (ix, iy) of the raster is the point
    (x0 + ix*step, ylo + iy*step); it is in the set when the region contains
    (x, |y|) or (x, -|y|), that is when a shape or a shape's mirror contains
    (x, y).  Each such shape covers one run of a column's cells
    (_column_run).  The runs of a column are merged, and runs of adjacent
    columns that share a row are joined by union-find.
    """
    x0, x1, y0, y1 = region.bounds()
    top = max(abs(y0), abs(y1))
    x0, x1 = x0 - step, x1 + step
    ylo, yhi = -top - step, top + step
    nx = max(2, int((x1 - x0) / step) + 1)
    ny = max(2, int((yhi - ylo) / step) + 1)
    shapes = region.shapes + region.mirrored().shapes
    parent: list[int] = []  # union-find over the merged runs of all columns

    def root(n: int) -> int:
        while parent[n] != n:
            parent[n] = n = parent[parent[n]]
        return n

    prev: list[list[int]] = []  # merged runs [a, b, node] of the previous column
    for ix in range(nx):
        x = x0 + ix * step
        column: list[list[int]] = []
        for a, b in sorted(filter(None, (_column_run(s, x, ylo, step, ny) for s in shapes))):
            if column and a <= column[-1][1] + 1:  # overlapping or vertically adjacent
                column[-1][1] = max(column[-1][1], b)
            else:
                column.append([a, b, len(parent)])
                parent.append(len(parent))
        i = j = 0
        while i < len(prev) and j < len(column):
            (a, b, m), (c, d, n) = prev[i], column[j]
            if a <= d and c <= b:  # the runs share a row
                parent[root(m)] = root(n)
            if b < d:
                i += 1
            else:
                j += 1
        prev = column
    return sum(n == m for n, m in enumerate(parent))


def _column_run(shape, x: float, ylo: float, step: float, ny: int):
    """The run (a, b) of the cells iy < ny whose point (x, ylo + iy*step) the
    shape contains, or None.

    The points' y grows with iy and contains(x, y) is unimodal about the
    chord's pivot c, so the run, if any, holds the last cell at or below c
    or the first above it.  Each end starts at the chord's cell and moves
    with contains until it agrees with it, so the run is exact whatever the
    chord's rounding.
    """
    chord = shape.chord(x)
    if chord is None:
        return None
    lo, hi, c = chord

    def inside(iy: int) -> bool:
        return shape.contains(x, ylo + iy * step)

    def cell(y: float) -> float:
        return min(max((y - ylo) / step, 0.0), ny - 1.0)

    k = math.floor(cell(c)) + 1  # then moved to the first cell above c
    while k > 0 and ylo + (k - 1) * step > c:
        k -= 1
    while k < ny and ylo + k * step <= c:
        k += 1
    if k > 0 and inside(k - 1):
        p = k - 1
    elif k < ny and inside(k):
        p = k
    else:
        return None
    a, b = min(math.ceil(cell(lo)), p), max(math.floor(cell(hi)), p)
    while not inside(a):
        a += 1
    while a > 0 and inside(a - 1):
        a -= 1
    while not inside(b):
        b -= 1
    while b < ny - 1 and inside(b + 1):
        b += 1
    return a, b


def symmetric_completion(region: SliceRegion, grid_step: float = DEFAULT_GRID_STEP) -> AxialDomain:
    """Union of the spheres x + y*S over the points x + y*J of a slice region.

    The result is always axially symmetric; it is an s-domain iff it meets the
    real axis, decided exactly from the shapes' axis intervals, and its
    intersection with one (hence every) slice is connected, decided by a
    flood fill on a rasterized picture of the slice set.
    """
    contains_real = region.meets_real_axis()
    # Rastered on the axis or off it, so that the cost follows the region's size alone.
    is_s = bool(region.shapes) and _slice_components(region, grid_step) == 1 and contains_real
    return AxialDomain(region, contains_real=contains_real, is_s_domain=is_s)
