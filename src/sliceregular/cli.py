"""Command-line front end: JSON over stdin/stdout.

Usage: ``sliceregular [--pretty] COMMAND [OPTION]...``; ``-h``/``--help``
prints the commands and their options and exits 0.  Options are spelled in
full, as ``--name value`` or ``--name=value``.

Exit codes: 0 success, 1 failed check reports, 2 usage or parse errors,
3 domain/singularity errors and any other (internal) error.  Errors go to
stderr as one line with the byte-exact prefix "error:"; a usage error raises
SystemExit(2) after printing it.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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
INTERNAL_EXIT = 3
CHECK_FAIL_EXIT = 1

# Bound on check --samples: the suites take time in proportion to it.
MAX_SAMPLES = 10 ** 4


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
        domain = domain_from_json(payload["domain"], grid_step=args.grid_step)
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
    if not 0 < samples <= MAX_SAMPLES:
        raise DecodeError(f"--samples must be a positive integer at most {MAX_SAMPLES}")
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


SUITES = ("grf", "identities", "extension", "all")

USAGE = f"""\
usage: sliceregular [--pretty] COMMAND [OPTION]...

Calculus of slice regular quaternionic functions: each command reads one
JSON document from stdin and writes JSON to stdout.

commands:
  eval      evaluate an expression at points
  roots     zero spheres of a quaternionic polynomial
  kernel    Cauchy kernel S^{{-*}}(q) for q - s
  extend    extend slice data / classify a domain
              --grid-step STEP  domain grid step (default {DEFAULT_GRID_STEP})
  check     run theorem-shaped verification suites
              --suite {{{','.join(SUITES)}}}  (default all)
              --seed N          (default $SLICEREG_SEED, then 7)
              --samples N       (default 200, at most {MAX_SAMPLES})
              --with-control    include the non-regular control (expected to fail)

options:
  --pretty     indent JSON output (before the command)
  -h, --help   print this text and exit

Options are spelled in full, as --name value or --name=value.
Exit codes: 0 success, 1 a check report failed, 2 usage or parse error,
3 domain, singularity or internal error.
"""


def _suite(text: str) -> str:
    if text not in SUITES:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(SUITES)})")
    return text


# command -> (handler, {option: (attribute, converter or None for a flag, default)})
_COMMANDS = {
    "eval": (_cmd_eval, {}),
    "roots": (_cmd_roots, {}),
    "check": (_cmd_check, {
        "--suite": ("suite", _suite, "all"),
        "--seed": ("seed", int, None),  # None: SLICEREG_SEED, then 7
        "--samples": ("samples", int, 200),
        "--with-control": ("with_control", None, False),
    }),
    "extend": (_cmd_extend, {"--grid-step": ("grid_step", float, DEFAULT_GRID_STEP)}),
    "kernel": (_cmd_kernel, {}),
}
_HELP = ("-h", "--help")


def _usage_error(message: str):
    raise SystemExit(_fail(message, USAGE_EXIT))


def _help():
    sys.stdout.write(USAGE)
    raise SystemExit(0)


class _Parser:
    """Parses ``[--pretty] COMMAND [--name value | --name=value | --flag]...``
    by the table ``_COMMANDS``.  Help exits 0; a usage error prints one
    ``error:`` line and exits 2."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        words = iter(sys.argv[1:] if argv is None else argv)
        pretty = False
        for word in words:
            if word in _HELP:
                _help()
            if word != "--pretty":
                break
            pretty = True
        else:
            _usage_error(f"a command is required (choose from {', '.join(_COMMANDS)})")
        if word not in _COMMANDS:
            _usage_error(f"invalid choice: {word!r} (choose from {', '.join(_COMMANDS)})")
        func, options = _COMMANDS[word]
        args = SimpleNamespace(command=word, func=func, pretty=pretty)
        for attr, _convert, default in options.values():
            setattr(args, attr, default)
        for word in words:
            if word in _HELP:
                _help()
            name, has_value, text = word.partition("=")
            if name not in options:
                _usage_error(f"unrecognized argument {word!r} for {args.command}")
            attr, convert, _default = options[name]
            if convert is None:
                if has_value:
                    _usage_error(f"argument {name} takes no value")
                setattr(args, attr, True)
                continue
            if not has_value:
                text = next(words, None)
                if text is None:
                    _usage_error(f"argument {name} expects a value")
            try:
                setattr(args, attr, convert(text))
            except ValueError as exc:
                _usage_error(f"argument {name}: {exc}")
        return args


def build_parser() -> _Parser:
    return _Parser()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DecodeError as exc:
        return _fail(str(exc), USAGE_EXIT)
    except SliceRegularError as exc:
        return _fail(str(exc), DOMAIN_EXIT)
    except Exception as exc:  # last resort, so that exit 1 means only a failed report
        return _fail(f"internal error: {type(exc).__name__}: {exc}", INTERNAL_EXIT)


if __name__ == "__main__":
    sys.exit(main())
