"""Request generators for the four workloads.

Every workload is a fixed set of requests made from one SplitMix64 seed.
The set repeats a fixed cycle of slots; a slot fixes the size of its
request (tree shape, degree, domain extent, suite and sample count) and the
seed draws everything else (coefficients, points, shapes, check seeds).
Sizes therefore mix the same way on every seed, which keeps the timing of
runs with different seeds comparable, while the values differ.

A request is a dict with
  argv    the CLI arguments,
  stdin   the JSON document piped to the CLI,
  family  the input family it was drawn from,
  truth   what the oracle needs beyond the request itself.
"""

from __future__ import annotations

import json
import math

from qalg import pmul
from rng import SplitMix64

WORKLOADS = ("eval-nested", "roots", "check", "extend-domains")


def _qlist(q):
    return [q[0], q[1], q[2], q[3]]


def _poly_json(coeffs):
    return {"op": "poly", "coeffs": [_qlist(c) for c in coeffs]}


def _dense(rng: SplitMix64, degree: int, scale: float = 1.0):
    coeffs = [rng.quaternion(scale) for _ in range(degree + 1)]
    # keep the leading coefficient away from zero so the degree is exact
    lead = coeffs[-1]
    if math.sqrt(sum(v * v for v in lead)) < 0.1 * scale:
        coeffs[-1] = (lead[0] + scale, lead[1], lead[2], lead[3])
    return coeffs


def _request(argv, payload, family, truth=None):
    stdin = "" if payload is None else json.dumps(payload)
    return {"argv": argv, "stdin": stdin, "family": family, "truth": truth or {}}


# ---------------------------------------------------------------------------
# eval-nested
# ---------------------------------------------------------------------------

# Evaluations of the subtree per evaluation of the node at the parent commit:
# star evaluates its right factor at q and at conj(q), conj and symm
# evaluate their argument twice, recip four times.
_EVAL_FACTOR = {"conj": 2, "symm": 2, "recip": 4, "rscale": 1,
                "star_l": 1, "star_r": 2, "sum": 1}
_MAX_FACTOR = 512        # caps a request's cost at the parent commit
_MAX_ORACLE_DEGREE = 96  # caps the oracle's exact N, D construction
_MAX_RECIP = 3
_POINT_BUDGET = 1024     # points per request = _POINT_BUDGET // factor, 2..16
# The tree shapes of one cycle: depth 1 + slot % 10, leaves scaled by 1e-6 or
# 1e6 in every fifth slot.  240 shapes keep the latencies dense around the
# median, where 60 left gaps of 15% that it jumped across between runs.  A
# slot's shape (ops, sides, leaf degrees, which leaves are scaled, number of
# points) comes from a stream seeded by the slot alone; the run's seed draws
# the coefficients and points.
_EVAL_CYCLE = 240


def _eval_tree(shape: SplitMix64, values: SplitMix64, depth: int, scale: float | None):
    """A spine of ``depth`` internal nodes over poly leaves of degree 1..8.

    Binary nodes join the spine with a fresh leaf on either side.  Op
    choices that would break the caps above fall back to rscale.
    """
    def leaf(scaled):
        coeffs = _dense(values, 1 + shape.below(8), scale if scaled else 1.0)
        return _poly_json(coeffs), len(coeffs) - 1

    # the bottom leaf is always scaled in a scaled request, others by chance
    node, deg_n = leaf(scale is not None)
    deg_d, factor, recips = 0, 1, 0
    ops = ["star", "conj", "symm", "sum", "rscale", "recip"]
    for _ in range(depth):
        op = shape.choice(ops)
        if op == "star":
            op += "_l" if shape.chance(0.5) else "_r"
        other, deg_o = (leaf(scale is not None and shape.chance(0.5))
                        if op in ("star_l", "star_r", "sum") else (None, 0))
        if op in ("star_l", "star_r"):
            nd = (deg_n + deg_o, deg_d)
        elif op == "sum":
            nd = (max(deg_n, deg_o + deg_d), deg_d)
        elif op == "symm":
            nd = (2 * deg_n, 2 * deg_d)
        elif op == "recip":
            nd = (deg_n + deg_d, 2 * deg_n)
        else:
            nd = (deg_n, deg_d)
        if (max(nd) > _MAX_ORACLE_DEGREE or factor * _EVAL_FACTOR[op] > _MAX_FACTOR
                or (op == "recip" and recips == _MAX_RECIP)):
            op, nd = "rscale", (deg_n, deg_d)
        factor *= _EVAL_FACTOR[op]
        deg_n, deg_d = nd
        if op == "star_l":
            node = {"op": "star", "f": node, "g": other}
        elif op == "star_r":
            node = {"op": "star", "f": other, "g": node}
        elif op == "sum":
            node = {"op": "sum", "f": node, "g": other} if shape.chance(0.5) else \
                   {"op": "sum", "f": other, "g": node}
        elif op == "rscale":
            node = {"op": "rscale", "f": node, "a": _qlist(values.quaternion())}
        else:
            recips += op == "recip"
            node = {"op": op, "f": node}
    return node, factor


def _eval_points(shape: SplitMix64, values: SplitMix64, count: int):
    points = []
    for _ in range(count):
        x = values.uniform(-1.5, 1.5)
        if shape.chance(0.125):
            points.append([x, 0.0, 0.0, 0.0])
        else:
            y, u = values.uniform(0.05, 1.5), values.unit()
            points.append([x, y * u[1], y * u[2], y * u[3]])
    return points


def eval_request(rng: SplitMix64, slot: int):
    slot %= _EVAL_CYCLE
    shape = SplitMix64(0x7EE5_0000 + slot)
    depth, scaled = 1 + slot % 10, slot % 5 == 2
    scale = shape.choice((1e-6, 1e6)) if scaled else None
    tree, factor = _eval_tree(shape, rng, depth, scale)
    points = _eval_points(shape, rng, max(2, min(16, _POINT_BUDGET // factor)))
    family = "scaled" if scaled else "plain"
    return _request(["eval"], {"expr": tree, "points": points}, family)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

# Slots as (family, degree).  Dense degrees spread log-uniformly over 2..33
# in every cycle; one slot per cycle takes the high band, cycling through
# 40, 45 and 50, where zeros get lost.  Above 50 Aberth's iteration count,
# up to its cap, varies with the coefficients so much that one request
# could take a sixth of a run.  For the constructed families the degree is
# that of the random right factor, and "scaled" slots scale a request of the
# family named after the dash by 1e-8 or 1e8.  Degree 10 comes four times
# and degree 33 three times, so that the median and the 90th percentile fall
# inside a cluster of latencies rather than in a gap between two, or on the
# steep slope above degree 20, where Aberth's cost varies twofold with the
# coefficients.
_HIGH_DEGREES = (40, 45, 50)
_ROOTS_SLOTS = (
    ("dense", 2), ("dense", 3), ("dense", 4), ("dense", 5), ("dense", 6), ("dense", 10),
    ("dense", 10), ("spherical", 4), ("double", 3), ("high", None),
    ("dense", 12), ("dense", 14), ("dense", 17), ("dense", 20), ("dense", 24),
    ("dense", 28), ("dense", 33), ("spherical", 8), ("double", 6),
    ("scaled-dense", 6), ("scaled-spherical", 3), ("scaled-double", 2),
    ("dense", 33), ("dense", 33), ("dense", 10), ("dense", 10),
)


def _quad(x, y):
    """Real factor q^2 - 2x q + x^2 + y^2, zero on the sphere x + y*S."""
    return [(x * x + y * y, 0.0, 0.0, 0.0), (-2.0 * x, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]


def _constructed(rng: SplitMix64, kind: str, tail_degree: int):
    """A known spherical or double isolated zero as a left factor, so it
    stays a zero of the product; both count twice towards the degree."""
    x, y = rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5)
    tail = _dense(rng, tail_degree)
    zero = {"x": x, "y": y, "kind": kind, "count": 2}
    if kind == "spherical":
        return pmul(_quad(x, y), tail), [zero]
    u = rng.unit()
    factor = [(-x, -y * u[1], -y * u[2], -y * u[3]), (1.0, 0.0, 0.0, 0.0)]
    return pmul(pmul(factor, factor), tail), [zero]


def roots_request(rng: SplitMix64, slot: int):
    family, degree = _ROOTS_SLOTS[slot % len(_ROOTS_SLOTS)]
    kind = family.split("-")[-1]
    zeros = []
    if kind == "dense":
        coeffs = _dense(rng, degree)
    elif kind == "high":
        cycle = slot // len(_ROOTS_SLOTS)
        coeffs = _dense(rng, _HIGH_DEGREES[cycle % len(_HIGH_DEGREES)])
    else:
        coeffs, zeros = _constructed(rng, kind, degree)
    if family.startswith("scaled"):
        scale = rng.choice((1e-8, 1e8))
        coeffs = [tuple(v * scale for v in c) for c in coeffs]
    return _request(["roots"], {"coeffs": [_qlist(c) for c in coeffs]}, family.split("-")[0],
                    {"zeros": zeros})


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

_CHECK_SLOTS = (
    ("grf", 10, False), ("identities", 20, False), ("extension", 30, False),
    ("grf", 30, True), ("identities", 10, False), ("extension", 15, False),
    ("grf", 20, False), ("identities", 40, False), ("extension", 40, False),
    ("grf", 40, True), ("identities", 30, False), ("extension", 20, False),
)


def check_request(rng: SplitMix64, slot: int):
    suite, samples, control = _CHECK_SLOTS[slot % len(_CHECK_SLOTS)]
    argv = ["check", "--suite", suite, "--seed", str(rng.below(1 << 31)),
            "--samples", str(samples)]
    if control:
        argv.append("--with-control")
    return _request(argv, None, "control" if control else "suite",
                    {"suite": suite, "control": control})


# ---------------------------------------------------------------------------
# extend-domains
# ---------------------------------------------------------------------------

# Shapes are open discs {"cx", "cy", "r"} and boxes {"x0", "x1", "y0", "y1"}
# on one slice.  Random domains keep every decisive margin (overlap or gap
# between two shapes, distance to or across the real axis) at least
# _MARGIN, five grid steps of the CLI default; the designed cases put one
# margin far below a grid step.
_MARGIN = 0.05
# Random slots as (extent, number of shapes), extents 0.5..4.8.  The
# raster's cost grows with the square of the extent: an 8-wide domain took
# 1.4 s, a quarter of a cycle, and left runs with too few requests for a
# steady 90th percentile.  Six slots of extent 1.4 hold the median of the
# cycle's 20 latencies and four of extent 4.8 its 90th percentile, each
# group with one shape count, so both fall inside a cluster of similar
# requests.  (With 4.8-wide domains of two and of three shapes, the 90th
# percentile fell on the step between the two and jumped by 17% between
# seeds.)
_RANDOM_DOMAINS = ((0.5, 1), (1.4, 4), (0.7, 5), (1.4, 4), (2.0, 7), (1.4, 4),
                   (2.8, 2), (4.8, 3), (4.8, 3), (4.8, 3), (1.4, 4), (1.0, 2),
                   (0.5, 6), (1.4, 4), (1.4, 4), (4.8, 3))
_EXTEND_SLOTS = (
    [("random", d) for d in _RANDOM_DOMAINS[:6]] + [("axis-near-miss", None)]
    + [("random", d) for d in _RANDOM_DOMAINS[6:10]] + [("thin-gap", None)]
    + [("random", d) for d in _RANDOM_DOMAINS[10:13]] + [("axis-near-miss", None)]
    + [("random", d) for d in _RANDOM_DOMAINS[13:]] + [("thin-overlap", None)]
)


def _mirror(s):
    if "r" in s:
        return {"cx": s["cx"], "cy": -s["cy"], "r": s["r"]}
    return {"x0": s["x0"], "x1": s["x1"], "y0": -s["y1"], "y1": -s["y0"]}


def _axis_margin(s):
    """Positive: depth by which the open shape crosses y = 0; else minus the gap."""
    if "r" in s:
        return s["r"] - abs(s["cy"])
    if s["y0"] < 0.0 < s["y1"]:
        return min(-s["y0"], s["y1"])
    return -min(abs(s["y0"]), abs(s["y1"]))


def _pair_margin(a, b):
    """Positive: the two open shapes overlap (by about that depth); else minus
    their distance."""
    if "r" in a and "r" in b:
        return a["r"] + b["r"] - math.hypot(a["cx"] - b["cx"], a["cy"] - b["cy"])
    if "r" in b:
        a, b = b, a
    if "r" in a:
        dx = max(b["x0"] - a["cx"], 0.0, a["cx"] - b["x1"])
        dy = max(b["y0"] - a["cy"], 0.0, a["cy"] - b["y1"])
        return a["r"] - math.hypot(dx, dy)
    ox = min(a["x1"], b["x1"]) - max(a["x0"], b["x0"])
    oy = min(a["y1"], b["y1"]) - max(a["y0"], b["y0"])
    if ox > 0.0 and oy > 0.0:
        return min(ox, oy)
    return -math.hypot(max(-ox, 0.0), max(-oy, 0.0))


def domain_truth(shapes):
    """Exact classification of the symmetric completion of a union of shapes,
    with the smallest decisive margin.

    The slice picture is the union of the shapes and their mirror images.  A
    finite union of open connected sets is connected iff their overlap graph
    is, so connectivity is decided on that graph.
    """
    every = list(shapes) + [_mirror(s) for s in shapes]
    axis = [_axis_margin(s) for s in shapes]
    margins = [abs(m) for m in axis]
    parent = list(range(len(every)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(every)):
        for k in range(i + 1, len(every)):
            m = _pair_margin(every[i], every[k])
            margins.append(abs(m))
            if m > 0.0:
                parent[find(i)] = find(k)
    contains_real = any(m > 0.0 for m in axis)
    connected = len({find(i) for i in range(len(every))}) == 1
    return {"contains_real": contains_real, "is_s_domain": contains_real and connected,
            "margin": min(margins)}


def _random_shape(rng: SplitMix64, extent: float, k: int, disc: bool):
    """The k-th shape of a random domain.  The first two take the largest
    size and sit at the two ends of the extent, the second a quarter of it
    above the axis, so the bounding box of a domain of two or more shapes,
    and with it the raster's cost, is fixed by the extent rather than drawn
    by the seed.  Whether it is a disc or a box is given."""
    pinned = k < 2
    size = extent * (0.3 if pinned else rng.uniform(0.2, 0.3))
    half = (extent - size) / 2
    cx = (-half, half)[k] if pinned else rng.uniform(-half, half)
    cy = extent / 4 if k == 1 else rng.uniform(-extent / 4, extent / 4)
    if disc:
        return {"cx": cx, "cy": cy, "r": size / 2}
    w, h = (size, size) if pinned else (size * rng.uniform(0.5, 1.0),
                                        size * rng.uniform(0.5, 1.0))
    return {"x0": cx - w / 2, "x1": cx + w / 2, "y0": cy - h / 2, "y1": cy + h / 2}


def _clear(shapes, s):
    """Every decisive margin the new shape adds is at least _MARGIN."""
    s_mirror = _mirror(s)
    margins = [_axis_margin(s), _pair_margin(s, s_mirror)]
    for t in shapes:
        margins += [_pair_margin(s, t), _pair_margin(s_mirror, t)]
    return all(abs(v) >= _MARGIN for v in margins)


def _random_domain(rng: SplitMix64, extent: float, count: int, discs: list[bool]):
    shapes = []
    for _ in range(100_000):
        s = _random_shape(rng, extent, len(shapes), discs[len(shapes)])
        if _clear(shapes, s):
            shapes.append(s)
            if len(shapes) == count:
                return shapes, domain_truth(shapes)
    raise RuntimeError(f"no domain of {count} shapes with clear margins at extent {extent}")


def _designed_domain(rng: SplitMix64, kind: str):
    """One decisive margin of 0.003, below the CLI's default grid step 0.01."""
    x, r, thin = rng.uniform(-2.0, 2.0), rng.uniform(0.2, 0.5), 0.003
    if kind == "axis-near-miss":
        if rng.chance(0.5):
            shapes = [{"cx": x, "cy": r + thin, "r": r}]
        else:
            shapes = [{"x0": x - r, "x1": x + r, "y0": thin, "y1": thin + r}]
    elif kind == "thin-gap":
        # a disc across the axis and a second one just clear of it
        r2 = rng.uniform(0.2, 1.0)
        shapes = [{"cx": x, "cy": 0.0, "r": r}, {"cx": x, "cy": r + r2 + thin, "r": r2}]
    else:
        # a box across the axis and a box overlapping only its top right
        # corner, by a thin x thin square
        w, h = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        shapes = [{"x0": x - r, "x1": x, "y0": -0.5 * r, "y1": 0.5 * r},
                  {"x0": x - thin, "x1": x - thin + w, "y0": 0.5 * r - thin,
                   "y1": 0.5 * r - thin + h}]
    return shapes, domain_truth(shapes)


def extend_request(rng: SplitMix64, slot: int):
    slot %= len(_EXTEND_SLOTS)
    kind, size = _EXTEND_SLOTS[slot]
    if kind == "random":
        # which shapes are discs comes from a stream seeded by the slot
        # alone, as their kind moves the raster's cost
        shape = SplitMix64(0xD15C_0000 + slot)
        discs = [shape.chance(0.5) for _ in range(size[1])]
        shapes, truth = _random_domain(rng, *size, discs)
    else:
        shapes, truth = _designed_domain(rng, kind)
    domain = {"discs": [s for s in shapes if "r" in s],
              "boxes": [s for s in shapes if "r" not in s]}
    stem = _dense(rng, 1 + rng.below(8))
    points = []
    for _ in range(4):
        y, u = rng.uniform(0.0, 1.5), rng.unit()
        points.append([rng.uniform(-1.5, 1.5), y * u[1], y * u[2], y * u[3]])
    payload = {"domain": domain, "stem": {"coeffs": [_qlist(c) for c in stem]},
               "slice": _qlist(rng.unit()), "points": points}
    return _request(["extend"], payload, kind, truth)


_MAKERS = {"eval-nested": eval_request, "roots": roots_request,
           "check": check_request, "extend-domains": extend_request}

# Requests in a run's set: whole cycles (roots: whole rounds of its high
# band), 10-20 s of serving at the parent commit's speed, so a 25-second
# run serves each request at least once and many twice.  A fixed set makes
# the count of attempted and failed requests a function of the seed alone,
# not of how many requests the machine got through.  Sets of 100 or more
# leave at least ten requests above the 90th percentile.
SET_SIZE = {"eval-nested": 480, "roots": 234, "check": 360, "extend-domains": 100}


def request_set(workload: str, seed: int):
    """The requests a run serves, in order; the same seed gives the same
    requests."""
    make = _MAKERS[workload]
    rng = SplitMix64(seed ^ 0x5EED_BE7C)
    return [make(rng.fork(), slot) for slot in range(SET_SIZE[workload])]
