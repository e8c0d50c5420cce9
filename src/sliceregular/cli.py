"""Command-line front end: JSON over stdin/stdout.

Exit codes: 0 success, 1 failed check reports, 2 usage or parse errors,
3 domain/singularity errors.  Machine-parsable errors go to stderr with the
byte-exact prefix "error:".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import NonFiniteValue, SliceRegularError
from .expr import Poly, RawMap, evaluate
from .quaternion import UNIT_I
from .representation import DEFAULT_GRID_STEP
from .serialize import (
    DecodeError,
    domain_from_json,
    expr_from_json,
    poly_from_json,
    quaternion_from_json,
    quaternion_to_json,
    sphere_zero_to_json,
)
from .verify import (
    SplitMix64,
    check_extension_roundtrip,
    check_grf_invariance,
    check_identity_suite,
)
from .zeros import cauchy_kernel, poly_roots

USAGE_EXIT = 2
DOMAIN_EXIT = 3
CHECK_FAIL_EXIT = 1


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_stdin_json():
    text = sys.stdin.read()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep to parse
        raise DecodeError(f"malformed JSON on stdin: {exc}") from exc


def _dump(obj, pretty: bool) -> str:
    """Strict JSON; a non-finite number in a result raises NonFiniteValue."""
    try:
        return json.dumps(obj, indent=2 if pretty else None, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteValue(f"result is not finite: {exc}") from exc


def _values(expr, points) -> list:
    """JSON values of expr at a JSON array of points; domain errors and
    non-finite values go inline."""
    if not isinstance(points, list):
        raise DecodeError("'points' must be an array of quaternions")
    values = []
    for pt in points:
        q = quaternion_from_json(pt)
        try:
            values.append(quaternion_to_json(evaluate(expr, q)))
        except SliceRegularError as exc:
            values.append({"error": str(exc)})
    return values


def _cmd_eval(args) -> int:
    payload = _read_stdin_json()
    if not isinstance(payload, dict) or "expr" not in payload or "points" not in payload:
        raise DecodeError("eval expects an object {\"expr\": ..., \"points\": [...]}")
    expr = expr_from_json(payload["expr"])
    print(_dump({"values": _values(expr, payload["points"])}, args.pretty))
    return 0


def _cmd_roots(args) -> int:
    payload = _read_stdin_json()
    if isinstance(payload, dict) and "poly" in payload:
        payload = payload["poly"]
    poly = poly_from_json(payload)
    if poly.degree < 1:
        raise DecodeError("root finding requires degree >= 1")
    zeros = poly_roots(poly)
    print(_dump({"zeros": [sphere_zero_to_json(z) for z in zeros]}, args.pretty))
    return 0


def _cmd_kernel(args) -> int:
    payload = _read_stdin_json()
    if not isinstance(payload, dict) or "s" not in payload or "q" not in payload:
        raise DecodeError("kernel expects an object {\"s\": [...], \"q\": [...]}")
    s = quaternion_from_json(payload["s"])
    q = quaternion_from_json(payload["q"])
    value = cauchy_kernel(s, q)
    print(_dump({"value": quaternion_to_json(value)}, args.pretty))
    return 0


def _cmd_extend(args) -> int:
    payload = _read_stdin_json()
    if not isinstance(payload, dict):
        raise DecodeError("extend expects a JSON object")
    out = {}
    if "domain" in payload:
        domain_json = payload["domain"]
        if not isinstance(domain_json, dict):
            raise DecodeError(f"domain must be an object, got {domain_json!r}")
        domain = domain_from_json({"grid_step": args.grid_step, **domain_json})
        out["domain"] = {
            "contains_real": domain.contains_real,
            "axially_symmetric": domain.axially_symmetric,
            "is_s_domain": domain.is_s_domain,
        }
    if "stem" in payload:
        expr_json = {
            "op": "ext",
            "stem": payload["stem"],
            "slice": payload.get("slice", [0.0, 1.0, 0.0, 0.0]),
        }
        out["values"] = _values(expr_from_json(expr_json), payload.get("points", []))
    if not out:
        raise DecodeError("extend expects 'stem' (with 'slice'/'points') and/or 'domain'")
    print(_dump(out, args.pretty))
    return 0


def _check_reports(args):
    """The reports of ``check``; a usage error raises DecodeError."""
    samples = args.samples
    if samples <= 0:
        raise DecodeError("--samples must be a positive integer")
    try:
        seed = args.seed if args.seed is not None else int(os.environ.get("SLICEREG_SEED", "7"))
    except ValueError as exc:
        raise DecodeError(f"SLICEREG_SEED must be an integer: {exc}") from exc
    rng = SplitMix64(seed ^ 0xC0FFEE)
    reports = []
    if args.suite in ("grf", "all"):
        for n in range(3):
            poly = rng.polynomial(max_degree=8)
            reports.append(check_grf_invariance(
                Poly(poly), spheres=max(1, samples // 10), unit_pairs=20,
                seed=seed + n, name=f"grf_invariance_poly{n}",
            ))
        if args.with_control:
            # Left multiplication by i is regular on no slice but L_i, so the
            # rebuilt values disagree across unit pairs and the report fails.
            reports.append(check_grf_invariance(
                RawMap(lambda q: UNIT_I.u * q), spheres=max(1, samples // 10),
                unit_pairs=20, seed=seed, name="grf_nonregular_control",
            ))
    if args.suite in ("identities", "all"):
        f, g = Poly(rng.polynomial(max_degree=5)), Poly(rng.polynomial(max_degree=5))
        reports.extend(check_identity_suite(f, g, points=samples, seed=seed))
    if args.suite in ("extension", "all"):
        for n in range(3):
            poly = rng.polynomial(max_degree=8)
            reports.append(check_extension_roundtrip(
                poly, rng.unit(), points=samples, seed=seed + n,
            ))
    return reports


def _cmd_check(args) -> int:
    reports = _check_reports(args)
    failed = False
    for report in reports:
        print(_dump(report.to_json(), False))
        failed = failed or not report.passed
    return CHECK_FAIL_EXIT if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceregular",
        description="Calculus of slice regular quaternionic functions over JSON stdin/stdout.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression at points")
    p_eval.set_defaults(func=_cmd_eval)

    p_roots = sub.add_parser("roots", help="zero spheres of a quaternionic polynomial")
    p_roots.set_defaults(func=_cmd_roots)

    p_check = sub.add_parser("check", help="run theorem-shaped verification suites")
    p_check.add_argument("--suite", choices=["grf", "identities", "extension", "all"],
                         default="all")
    p_check.add_argument("--seed", type=int)  # None: SLICEREG_SEED, then 7
    p_check.add_argument("--samples", type=int, default=200)
    p_check.add_argument("--with-control", action="store_true",
                         help="include the non-regular control (expected to fail)")
    p_check.set_defaults(func=_cmd_check)

    p_ext = sub.add_parser("extend", help="extend slice data / classify a domain")
    p_ext.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p_ext.set_defaults(func=_cmd_extend)

    p_kernel = sub.add_parser("kernel", help="Cauchy kernel S^{-*}(q) for q - s")
    p_kernel.set_defaults(func=_cmd_kernel)
    return parser


_parser = None  # built by the first main() call, reused by later ones


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodeError as exc:
        return _fail(str(exc), USAGE_EXIT)
    except SliceRegularError as exc:
        return _fail(str(exc), DOMAIN_EXIT)


if __name__ == "__main__":
    sys.exit(main())
