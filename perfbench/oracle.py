"""Answer checkers, one per workload, and the planted defects that test them.

The checkers run after the timed loop and share no code with the package:
they use the tuple arithmetic of ``qalg`` and the ground truth the request
was built with.  ``check(workload, request, code, out, err)`` returns a
verdict dict with ``ok`` (bool), ``kind`` (the class of failure, empty when
ok), ``why`` (a readable reason) and per-workload counts used by the traced
run.

KNOWN_DEFECTS names, per workload, the failure kinds that the package was
found to produce when this benchmark was defined: a scale-unaware
singularity test in the reciprocal and squares of large values that
overflow, a zero finder that loses, repeats, invents or fails to converge on
zeros, and a rasterized domain classifier that cannot see margins below its
grid step.  They count as failed requests like any other; any other kind of
failure makes a run incorrect.
"""

from __future__ import annotations

import json
import math
from itertools import zip_longest

from qalg import (
    backward_bound, horner, horner_real, padd, pconj, pmul, pmul_real, psymm_real,
    qinv, qmul, qnorm, qsub, rmul, slice_point,
)

# Tree value against D(q)^-1 N(q), relative to the rounding scale
# (|N|(|q|) + |value| |D|(|q|)) / |D(q)|, with the majorants |N| and |D| of
# _rational.  Correct evaluation stays near 1e-14 of that scale.
EVAL_TOL = 1e-9
# Values, or their rounding scale, outside the normal doubles are not judged.
_MIN_NORMAL = 2.0 ** -1022
# |v|^2 of a double v stays a normal double while |log2 |v|| is below this.
_SQUARE_RANGE_LOG2 = 510
# N(q) and D(q) are judged known when their majorants exceed them at most
# this much (so their relative rounding errors stay below about 1e-6).
_KAPPA_MAX = 1e8
# A point is genuinely singular for a reciprocal when the symmetrization
# N^s of its argument vanishes to this share of its majorant.
SINGULAR_TOL = 1e-8
# |f| at a reported zero, relative to the backward bound of f there.
ROOT_TOL = 1e-9
# A reported zero belongs to a constructed zero's cluster when this close.
SPHERE_MATCH_TOL = 1e-6
# |Ext value - stem polynomial| relative to the stem's backward bound.
EXTEND_TOL = 1e-9
# The CLI's default raster step for domain classification.
GRID_STEP = 1e-2
_UNITS = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0),
          (0.0, 0.6, 0.0, 0.8))
_SUITE_REPORTS = {"grf": 3, "identities": 7, "extension": 3}
# Zeros of f^s, up to conjugation, that a reported sphere accounts for.
_WEIGHT = {"isolated": 1, "spherical": 2}

KNOWN_DEFECTS = {
    "eval-nested": {"false-singular", "out-of-range"},
    "roots": {"lost-zero", "false-zero", "nonconvergence"},
    "check": set(),
    "extend-domains": {"sub-grid-margin"},
}


def _verdict(kind="", why="", **counts):
    return {"ok": not kind, "kind": kind, "why": why, **counts}


def _exit(code):
    return _verdict("exit-code", f"exit code {code}")


def _parse(out):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# eval-nested
# ---------------------------------------------------------------------------

def _rational(node, singular, parts):
    """(N, D, e, |N|, |D|) with the tree equal to 2^e D^-1 N and D real.

    |N| and |D| are majorants: real polynomials built by the same steps from
    absolute values, which bound the coefficients and, times a few machine
    epsilons per step, the rounding errors made while computing them.
    Appends (N^s, |N^s|) of every reciprocal's argument to ``singular``, and
    every subtree and every reciprocal's symmetrization to ``parts``.

    All four polynomials are kept at unit size, exactly, by powers of two
    moved into e, so deep trees of scaled leaves neither overflow nor
    underflow."""
    parts.append(_rational_node(node, singular, parts))
    return parts[-1]


def _rational_node(node, singular, parts):
    op = node["op"]
    if op == "poly":
        num = [tuple(c) for c in node["coeffs"]]
        return _unit(num, [1.0], 0, [qnorm(c) for c in num], [1.0])
    n1, d1, e1, mn1, md1 = _rational(node["f"], singular, parts)
    if op == "conj":
        return pconj(n1), d1, e1, mn1, md1
    if op == "symm":
        return _unit(_as_quaternions(psymm_real(n1)), rmul(d1, d1), 2 * e1,
                     rmul(mn1, mn1), rmul(md1, md1))
    if op == "recip":
        ns, mns = psymm_real(n1), rmul(mn1, mn1)
        singular.append((ns, mns))
        # the symmetrization the package inverts is a value of its own
        parts.append(_unit(_as_quaternions(ns), rmul(d1, d1), 2 * e1, mns, rmul(md1, md1)))
        return _unit(pmul_real(pconj(n1), d1), ns, -e1, rmul(mn1, md1), mns)
    if op == "rscale":
        a = tuple(node["a"])
        return _unit([qmul(c, a) for c in n1], d1, e1, [m * qnorm(a) for m in mn1], md1)
    n2, d2, e2, mn2, md2 = _rational(node["g"], singular, parts)
    if op == "star":
        return _unit(pmul(n1, n2), rmul(d1, d2), e1 + e2, rmul(mn1, mn2), rmul(md1, md2))
    if op == "sum":
        top = max(e1, e2)
        left = [_qldexp(c, e1 - top) for c in pmul_real(n1, d2)]
        right = [_qldexp(c, e2 - top) for c in pmul_real(n2, d1)]
        mleft = [math.ldexp(m, e1 - top) for m in rmul(mn1, md2)]
        mright = [math.ldexp(m, e2 - top) for m in rmul(mn2, md1)]
        return _unit(padd(left, right), rmul(d1, d2), top,
                     [x + y for x, y in zip_longest(mleft, mright, fillvalue=0.0)],
                     rmul(md1, md2))
    raise ValueError(f"unknown op {op!r}")


def _as_quaternions(real_coeffs):
    return [(c, 0.0, 0.0, 0.0) for c in real_coeffs]


def _log2_norm(q):
    n = qnorm(q)
    return math.log2(n) if n > 0.0 else 0.0


def _out_of_range(parts, q):
    """Some value the package forms at q has a magnitude whose square
    leaves the doubles, where its quat_inv and norm_sq overflow."""
    return any(abs(_log2_norm(horner(n, q)) - _log2_norm(horner_real(d, q)) + e)
               > _SQUARE_RANGE_LOG2 for n, d, e, _mn, _md in parts)


def _qldexp(q, e):
    return tuple(math.ldexp(v, e) for v in q)


def _unit(num, den, e, mnum, mden):
    """Rescale N with |N| and D with |D| to a largest majorant coefficient
    in [0.5, 1), moving the powers of two into e."""
    sn = math.frexp(max(mnum))[1]
    sd = math.frexp(max(mden))[1]
    return ([_qldexp(c, -sn) for c in num], [math.ldexp(c, -sd) for c in den],
            e + sn - sd, [math.ldexp(m, -sn) for m in mnum], [math.ldexp(m, -sd) for m in mden])


def _near_singular(singular, q, r):
    return any(qnorm(horner_real(s, q)) <= SINGULAR_TOL * backward_bound(ms, r)
               for s, ms in singular)


def _expected(payload):
    """Per point: None where a reciprocal in the tree is genuinely singular,
    where N(q) or D(q) vanishes to rounding level, or where the value leaves
    the range of normal doubles (no double answer can be judged there), else (D(q)^-1 N(q), the rounding scale of that value,
    whether some subtree's value is out of the package's square range)."""
    singular, parts = [], []
    num, den, e, mnum, mden = _rational(payload["expr"], singular, parts)
    out = []
    for pt in payload["points"]:
        q = tuple(pt)
        r = qnorm(q)
        nq, dq = horner(num, q), horner_real(den, q)
        bn, bd = backward_bound(mnum, r), backward_bound(mden, r)
        # the first-order error scale below holds only while N(q) and D(q)
        # themselves are known to many digits
        if _near_singular(singular, q, r) or not (
                bn < _KAPPA_MAX * qnorm(nq) and bd < _KAPPA_MAX * qnorm(dq)):
            out.append(None)
            continue
        w = qmul(qinv(dq), nq)
        scale = math.ldexp((bn + qnorm(w) * bd) / qnorm(dq), e)
        value = _qldexp(w, e)
        if not (_MIN_NORMAL <= scale < math.inf and math.isfinite(qnorm(value))):
            out.append(None)
            continue
        out.append((value, scale, _out_of_range(parts, q)))
    return out


def check_eval(request, code, out, err):
    if code != 0:
        return _exit(code)
    doc = _parse(out)
    payload = json.loads(request["stdin"])
    points = payload["points"]
    if not isinstance(doc, dict) or len(doc.get("values", ())) != len(points):
        return _verdict("malformed", "malformed response")
    for pt, value, want in zip(points, doc["values"], _expected(payload)):
        if want is None:
            continue
        if isinstance(value, dict):
            return _verdict("false-singular",
                            f"error at a regular point {pt}: {value.get('error')}")
        rel = qnorm(qsub(tuple(value), want[0])) / want[1]
        if not rel <= EVAL_TOL:
            return _verdict("out-of-range" if want[2] else "wrong-value",
                            f"value off by {rel:.2e} of its scale at {pt}")
    return _verdict()


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def _residual(coeffs, q):
    return qnorm(horner(coeffs, q)) / backward_bound(coeffs, qnorm(q))


def _cluster_of(zero, wanted):
    """Indices of the constructed zeros whose cluster the reported one is in."""
    return [k for k, w in enumerate(wanted)
            if abs(zero["x"] - w["x"]) + abs(zero["y"] - w["y"])
            <= SPHERE_MATCH_TOL * (1.0 + abs(w["x"]) + w["y"])]


def check_roots(request, code, out, err):
    coeffs = [tuple(c) for c in json.loads(request["stdin"])["coeffs"]]
    degree = len(coeffs) - 1
    counts = {"degree": degree, "counted": 0, "returned": 0, "none": 0}
    if code == 3 and "did not converge" in err:
        return _verdict("nonconvergence", err.strip(), **counts)
    if code != 0:
        return _verdict("exit-code", f"exit code {code}", **counts)
    doc = _parse(out)
    if not isinstance(doc, dict) or not isinstance(doc.get("zeros"), list):
        return _verdict("malformed", "malformed response", **counts)
    zeros = doc["zeros"]
    counts["returned"] = len(zeros)
    counts["none"] = sum(z["kind"] == "none" for z in zeros)
    counts["counted"] = sum(_WEIGHT.get(z["kind"], 0) for z in zeros)
    # Reported zeros near a constructed zero form its cluster: rounding the
    # constructed coefficients may split a double or spherical zero into
    # nearby isolated ones, so the cluster must hold between one zero and
    # the constructed count, and counts as exactly that many.
    wanted = request["truth"]["zeros"]
    cluster = [0] * len(wanted)
    found = 0
    for z in zeros:
        x, y = z["x"], z["y"]
        if z["kind"] == "isolated":
            unit = tuple(z["unit"]) if "unit" in z else _UNITS[0]
            res = _residual(coeffs, slice_point(x, y, unit))
        elif z["kind"] == "spherical":
            res = max(_residual(coeffs, slice_point(x, y, u)) for u in _UNITS)
        else:
            continue
        weight = _WEIGHT[z["kind"]]
        if not res <= ROOT_TOL:
            return _verdict("false-zero", f"|f| = {res:.2e} of its bound at reported "
                                          f"{z['kind']} zero ({x}, {y})", **counts)
        near = _cluster_of(z, wanted)
        if near:
            cluster[near[0]] += weight
        else:
            found += weight
    for w, got in zip(wanted, cluster):
        where = f"constructed {w['kind']} zero ({w['x']}, {w['y']})"
        if got == 0:
            return _verdict("lost-zero", f"{where} not found", **counts)
        if got > w["count"]:
            return _verdict("false-zero", f"{where} reported with count {got}", **counts)
        found += w["count"]
    if found != degree:
        kind = "lost-zero" if found < degree else "false-zero"
        return _verdict(kind, f"zeros counted {found}, degree {degree}", **counts)
    return _verdict(**counts)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check_check(request, code, out, err):
    truth = request["truth"]
    reports = []
    for line in out.splitlines():
        doc = _parse(line)
        if not isinstance(doc, dict) or not isinstance(doc.get("passed"), bool):
            return _verdict("malformed", "malformed report line")
        reports.append(doc)
    want = _SUITE_REPORTS[truth["suite"]] + truth["control"]
    if len(reports) != want:
        return _verdict("malformed", f"{len(reports)} reports, expected {want}")
    for doc in reports:
        control = doc.get("name") == "grf_nonregular_control"
        if doc["passed"] == control:
            return _verdict("report", f"report {doc.get('name')} passed={doc['passed']}")
    expected_code = 1 if truth["control"] else 0
    if code != expected_code:
        return _exit(code)
    return _verdict()


# ---------------------------------------------------------------------------
# extend-domains
# ---------------------------------------------------------------------------

def check_extend(request, code, out, err):
    if code != 0:
        return _exit(code)
    doc = _parse(out)
    payload = json.loads(request["stdin"])
    if not isinstance(doc, dict) or "domain" not in doc or \
            len(doc.get("values", ())) != len(payload["points"]):
        return _verdict("malformed", "malformed response")
    truth = request["truth"]
    dom = doc["domain"]
    for key in ("contains_real", "is_s_domain"):
        if dom.get(key) is not truth[key]:
            kind = "sub-grid-margin" if truth["margin"] < GRID_STEP else "wrong-domain"
            return _verdict(kind, f"{key}={dom.get(key)}, truth {truth[key]}")
    if dom.get("axially_symmetric") is not True:
        return _verdict("wrong-domain", "completion reported as not axially symmetric")
    stem = [tuple(c) for c in payload["stem"]["coeffs"]]
    for pt, value in zip(payload["points"], doc["values"]):
        q = tuple(pt)
        if isinstance(value, dict):
            return _verdict("wrong-value", f"error at {pt}: {value.get('error')}")
        rel = qnorm(qsub(tuple(value), horner(stem, q))) / backward_bound(stem, qnorm(q))
        if not rel <= EXTEND_TOL:
            return _verdict("wrong-value", f"Ext value off by {rel:.2e} of its bound at {pt}")
    return _verdict()


CHECKERS = {"eval-nested": check_eval, "roots": check_roots,
            "check": check_check, "extend-domains": check_extend}


def check(workload, request, code, out, err=""):
    try:
        return CHECKERS[workload](request, code, out, err)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        # a response of the wrong shape is a failed answer, not a crash
        return _verdict("malformed", f"unreadable response: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Planted defects
# ---------------------------------------------------------------------------

def _plant_eval(request, out):
    """Perturb the value that is largest against its rounding scale, where
    the perturbation is at least ten times what the checker tolerates."""
    doc = json.loads(out)
    ranked = [(qnorm(tuple(v)) / want[1], k) for k, (v, want)
              in enumerate(zip(doc["values"], _expected(json.loads(request["stdin"]))))
              if want is not None and isinstance(v, list)]
    if not ranked or max(ranked)[0] * 1e-6 < 10 * EVAL_TOL:
        return None
    k = max(ranked)[1]
    v = doc["values"][k]
    doc["values"][k] = [v[0] + 1e-6 * qnorm(tuple(v)), v[1], v[2], v[3]]
    return json.dumps(doc)


def _plant_roots(request, out):
    """Drop a zero that lies in no constructed zero's cluster."""
    doc = json.loads(out)
    wanted = request["truth"]["zeros"]
    for z in doc["zeros"]:
        if z["kind"] != "none" and not _cluster_of(z, wanted):
            doc["zeros"].remove(z)
            return json.dumps(doc)
    return None


def _plant_extend(request, out):
    doc = json.loads(out)
    doc["domain"]["is_s_domain"] = not doc["domain"]["is_s_domain"]
    return json.dumps(doc)


def _plant_check(request, out):
    lines = out.splitlines()
    for k, line in enumerate(lines):
        doc = json.loads(line)
        if doc["passed"]:
            doc["passed"] = False
            lines[k] = json.dumps(doc)
            return "\n".join(lines) + "\n"
    return None


PLANTS = {"eval-nested": ("eval value perturbed by 1e-6 relative", _plant_eval),
          "roots": ("one zero dropped", _plant_roots),
          "check": ("a passing report flipped to passed=false", _plant_check),
          "extend-domains": ("is_s_domain flipped", _plant_extend)}


def planted_defect_test(workload, served):
    """Plant this workload's defect into accepted answers and check that
    the checker rejects every one.  ``served`` holds (request, code, out)
    of answers the checker accepted.  Returns (planted, rejected)."""
    _, plant = PLANTS[workload]
    planted = rejected = 0
    for request, code, out in served:
        bad = plant(request, out)
        if bad is None:
            continue
        planted += 1
        rejected += not check(workload, request, code, bad)["ok"]
    return planted, rejected
