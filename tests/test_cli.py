"""CLI contract: JSON over stdin/stdout, exit codes, seeding."""

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from sliceregular import Quaternion, RawMap
from sliceregular.cli import build_parser, main
from sliceregular.serialize import MAX_DEGREE, MAX_EXPR_DEPTH, DecodeError, expr_from_json
from sliceregular.verify import SplitMix64


@pytest.fixture
def run(monkeypatch, capsys):
    def invoke(argv, stdin_payload=None, env=None):
        text = "" if stdin_payload is None else (
            stdin_payload if isinstance(stdin_payload, str) else json.dumps(stdin_payload)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def test_eval_polynomial(run):
    payload = {
        "expr": {"op": "poly", "coeffs": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "points": [[0, 1, 0, 0], [2, 0, 0, 0]],
    }
    code, out, err = run(["eval"], payload)
    assert code == 0 and err == ""
    values = json.loads(out)["values"]
    assert values[0] == [0.0, 0.0, 0.0, 0.0]  # i^2 + 1
    assert values[1] == [5.0, 0.0, 0.0, 0.0]


def test_eval_star_expression(run):
    # (q - i) * (q - j) at j gives 2k
    payload = {
        "expr": {
            "op": "star",
            "f": {"op": "poly", "coeffs": [[0, -1, 0, 0], [1, 0, 0, 0]]},
            "g": {"op": "poly", "coeffs": [[0, 0, -1, 0], [1, 0, 0, 0]]},
        },
        "points": [[0, 0, 1, 0]],
    }
    code, out, _ = run(["eval"], payload)
    assert code == 0
    value = json.loads(out)["values"][0]
    assert value == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-12)


def test_eval_reports_singular_points_inline(run):
    payload = {
        "expr": {"op": "recip", "f": {"op": "poly", "coeffs": [[0, 0, -1, 0], [1, 0, 0, 0]]}},
        "points": [[0, 0, 0, 1], [0, 0, 2, 0]],
    }
    code, out, _ = run(["eval"], payload)
    assert code == 0
    values = json.loads(out)["values"]
    assert "error" in values[0]
    assert values[1] == pytest.approx([0.0, 0.0, -1.0, 0.0], abs=1e-12)


def test_eval_malformed_json_exits_2(run):
    code, out, err = run(["eval"], "{not json")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_eval_missing_keys_exits_2(run):
    code, _, err = run(["eval"], {"points": []})
    assert code == 2 and err.startswith("error:")


def test_roots_spherical_and_isolated(run):
    code, out, _ = run(["roots"], {"coeffs": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]})
    assert code == 0
    zeros = json.loads(out)["zeros"]
    assert len(zeros) == 1
    assert zeros[0]["kind"] == "spherical"
    assert zeros[0]["x"] == pytest.approx(0.0, abs=1e-10)
    assert zeros[0]["y"] == pytest.approx(1.0, abs=1e-10)

    code, out, _ = run(["roots"], {"coeffs": [[0, 0, -1, 0], [1, 0, 0, 0]]})
    zeros = json.loads(out)["zeros"]
    assert zeros[0]["kind"] == "isolated"
    assert zeros[0]["unit"] == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-10)


def test_roots_degree_zero_exits_2(run):
    code, _, err = run(["roots"], {"coeffs": [[1, 0, 0, 0]]})
    assert code == 2 and err.startswith("error:")


_IM = math.hypot(0.7, -5.0, 2.3)  # 1e170 |Im a| for a = (3e-170, 7e-171, -5e-170, 2.3e-170)


@pytest.mark.parametrize("coeffs, want", [
    # f^s coefficients overflow: the sphere (0, 1e80)
    pytest.param([[1e160, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], ("spherical", 0.0, 1e80),
                 id="coeffs0"),
    # f^s leading coefficient underflows: the sphere (0, 1e85)
    pytest.param([[1, 0, 0, 0], [0, 0, 0, 0], [1e-170, 0, 0, 0]], ("spherical", 0.0, 1e85),
                 id="coeffs1"),
    # monic f^s constant 1e-320 / 1e300 underflows: the subnormal zero -1e-310
    pytest.param([[1e-160, 0, 0, 0], [1e150, 0, 0, 0]], ("isolated", -1e-310, 0.0),
                 id="coeffs2"),
    # a non-real lead's square underflows: the zero -a^-1 = (-3 + Im a') 1e170 / |a'|^2
    pytest.param([[1, 0, 0, 0], [3e-170, 7e-171, -5e-170, 2.3e-170]],
                 ("isolated", -3e170 / (9.0 + _IM ** 2), _IM * 1e170 / (9.0 + _IM ** 2)),
                 id="coeffs3"),
    # f's majorant 1e308 + 1e298 * 1e10 overflows at its zero 1e10
    pytest.param([[-1e308, 0, 0, 0], [1e298, 0, 0, 0]], ("isolated", 1e10, 0.0),
                 id="overflowing-majorant"),
    # f's values, not only its majorant, overflow beside its zero sphere
    # (0, 1e304): the sphere to 1e-14, or exit 3, never an approximate one
    pytest.param([[1e308, 0, 0, 0], [0, 0, 0, 0], [1e-300, 0, 0, 0]], ("spherical", 0.0, 1e304),
                 id="overflowing-values"),
])
def test_roots_out_of_range_symmetrization_exits_3(run, coeffs, want):
    # These f^s leave the floating-point range (the name is from when that
    # meant exit 3).  roots never forms f^s, so each true zero comes back
    # with exit 0; a subnormal zero may instead exit 3 with one error: line.
    kind, x, y = want
    code, out, err = run(["roots"], {"coeffs": coeffs})
    if code == 3 and abs(x) < 2.0 ** -1022:
        assert out == "" and err.startswith("error:") and "internal error" not in err
        assert "out of floating-point range" in err
        return
    assert code == 0 and err == ""
    zeros = _strict_json(out)["zeros"]
    assert [z["kind"] for z in zeros] == [kind]
    assert abs(zeros[0]["x"] - x) <= 1e-14 * abs(complex(x, y))
    assert abs(zeros[0]["y"] - y) <= 1e-14 * abs(complex(x, y))


@pytest.mark.parametrize("coeffs, want", [
    # the zero -1e-280, far below 1e-154 in modulus, where squares underflow
    pytest.param([[1e-280, 0, 0, 0], [1, 0, 0, 0]], ("isolated", -1e-280, 0.0), id="tiny-zero"),
    # 1e-305 (q^2 + 1): f's zero test 1e-8 m would be subnormal
    pytest.param([[1e-305, 0, 0, 0], [0, 0, 0, 0], [1e-305, 0, 0, 0]], ("spherical", 0.0, 1.0),
                 id="tiny-scale"),
])
def test_roots_at_the_bottom_of_the_double_range(run, coeffs, want):
    code, out, err = run(["roots"], {"coeffs": coeffs})
    assert code == 0 and err == ""
    [zero] = _strict_json(out)["zeros"]
    assert (zero["kind"], zero["x"], zero["y"]) == want


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_roots_of_scaled_polynomial(run, scale):
    # scale * (1 + q^2): f^s is in range, its derivative squared is not.
    code, out, _ = run(["roots"], {"coeffs": [[scale, 0, 0, 0], [0, 0, 0, 0], [scale, 0, 0, 0]]})
    assert code == 0
    zeros = json.loads(out)["zeros"]
    assert [z["kind"] for z in zeros] == ["spherical"]
    assert zeros[0]["x"] == pytest.approx(0.0, abs=1e-10)
    assert zeros[0]["y"] == pytest.approx(1.0, abs=1e-10)


def test_kernel_value_and_singularity(run):
    code, out, _ = run(["kernel"], {"s": [0, 0, 1, 0], "q": [0, 0, 2, 0]})
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx([0.0, 0.0, -1.0, 0.0], abs=1e-12)

    code, _, err = run(["kernel"], {"s": [0, 0, 1, 0], "q": [0, 1, 0, 0]})
    assert code == 3 and err.startswith("error:")


def _strict_json(text):
    """json.loads without the NaN and Infinity that Python accepts by default."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))


@pytest.mark.parametrize("op, constant", [("recip", 1e-310), ("symm", 1e200)])
def test_eval_reports_overflowed_values_inline(run, op, constant):
    # 1/1e-310 and (1e200)^2 exceed the largest double
    payload = {"expr": {"op": op, "f": {"op": "poly", "coeffs": [[constant, 0, 0, 0]]}},
               "points": [[0, 0, 1, 0]]}
    code, out, _ = run(["eval"], payload)
    assert code == 0
    assert "not a finite" in _strict_json(out)["values"][0]["error"]


@pytest.mark.parametrize("s", [[0, 1e308, 0, 0], [1e308] * 4, [1e308, 0, 1e308, 0]])
@pytest.mark.parametrize("q", [[0, 0, 1e308, 0], [1e308, 0, 0, 0], [-1e308, 0, 0, 0],
                               [-1e307, 0, 0, 0], [1e307, 1e308, 0, 0]])
def test_eval_recip_matches_kernel_at_the_top_of_the_double_range(run, s, q):
    # |s| + |q|, the majorant of q - s at q, overflows here, and so may the
    # squares of f^s and the values of q - s: recip of q - s at q is the
    # kernel's value, or the same singular sphere inline
    code, out, err = run(["kernel"], {"s": s, "q": q})
    f = {"op": "poly", "coeffs": [[-v for v in s], [1, 0, 0, 0]]}
    e_code, e_out, e_err = run(["eval"], {"expr": {"op": "recip", "f": f}, "points": [q]})
    assert e_code == 0 and e_err == ""
    [value] = _strict_json(e_out)["values"]
    if code == 0:
        assert value == _strict_json(out)["value"]
    else:
        assert (code, out) == (3, "") and err == f"error: {value['error']}\n"
        assert "symmetrization vanishes" in err


def test_eval_symm_where_the_squares_overflow(run):
    # q - 1e308 i at 1e308 j: b and c have norm 1e308, f^s = 0 is a double
    f = {"op": "poly", "coeffs": [[0, -1e308, 0, 0], [1, 0, 0, 0]]}
    payload = {"expr": {"op": "symm", "f": f}, "points": [[0, 0, 1e308, 0]]}
    code, out, err = run(["eval"], payload)
    assert (code, err) == (0, "")
    assert _strict_json(out)["values"] == [[0.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("coeffs, point, recip", [
    ([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], [1e200, 0, 0, 0], 0.0),
    ([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], [0, 1e200, 0, 0], 0.0),
    ([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], [1e163, 0, 0, 0], 0.0),
    ([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], [3e155, 0, 0, 0], 1 / 3e155 / 3e155),
    # q^2 - c q = q (q - c) at 2^540 is 2^1070, ten bits under m ~ 2^1081
    ([[0, 0, 0, 0], [-2.0 ** 540 * (1 - 2.0 ** -10), 0, 0, 0], [1, 0, 0, 0]],
     [2.0 ** 540, 0, 0, 0], 2.0 ** -1070),
], ids=["q^2+1@1e200", "q^2+1@1e200i", "q^2@1e163", "q^2@3e155", "q^2-cq@2^540"])
def test_eval_where_the_power_of_two_that_scales_f_is_tiny(run, coeffs, point, recip):
    # f's majorant m overflows, and the 2^-e that brings it near 1 is
    # subnormal (m ~ 2^1034 at 3e155) or below every double (m ~ 2^1081 to
    # 2^1329): f^s is no double and is reported inline, 1/f is 0 or subnormal
    values = []
    for op in ("symm", "recip"):
        payload = {"expr": {"op": op, "f": {"op": "poly", "coeffs": coeffs}}, "points": [point]}
        code, out, err = run(["eval"], payload)
        assert (code, err) == (0, "")
        values += _strict_json(out)["values"]
    assert "not a finite" in values[0]["error"]
    assert values[1] == pytest.approx([recip, 0.0, 0.0, 0.0], rel=1e-9, abs=0.0)


def _constant_poly(*coeffs, center=0.0):
    return {"op": "poly", "center": center, "coeffs": [[c, 0, 0, 0] for c in coeffs]}


_RECIP_SQUARE = {"op": "recip", "f": {"op": "star", "f": _constant_poly(1, 0, 1),
                                      "g": _constant_poly(1, 0, 1)}}


@pytest.mark.parametrize("expr, point, value", [
    ({"op": "rscale", "f": {"op": "symm", "f": _constant_poly(1e-200)}, "a": [1e300, 0, 0, 0]},
     [0.5, 0, 0, 0], 1e-100),
    ({"op": "star", "f": _constant_poly(1e-200), "g": _constant_poly(0, 0, 1e300)},
     [1e10, 0, 0, 0], 1e120),
    (_RECIP_SQUARE, [1e200, 0, 0, 0], 0.0),
    (_RECIP_SQUARE, [1e100, 1e100, 0, 0], 0.0),
    ({"op": "recip", "f": {"op": "sum", "f": _constant_poly(1, 0, 1), "g": _constant_poly(1)}},
     [1e200, 0, 0, 0], 0.0),
    ({"op": "recip", "f": {"op": "sum", "f": _constant_poly(1),
                           "g": _constant_poly(0, 1, center=1e308)}},
     [-1e308, 0, 0, 0], -5e-309),
], ids=["symm-rscale", "star", "recip-square@1e200", "recip-square@1e100(1+i)",
        "recip-sum@1e200", "recip-sum-q-1e308@-1e308"])
def test_eval_where_the_values_a_result_is_formed_from_are_no_doubles(run, expr, point, value):
    # each node carries its value and majorant under one power of two, so a
    # result that is a double is printed where the values it is formed from
    # are not: 1e-400 * 1e300, 1e-200 * 1e320, 1/1e800, 1/(1e400 + 2), and
    # 1/(1 + (q - 1e308)) with q - 1e308 = -2e308
    code, out, err = run(["eval"], {"expr": expr, "points": [point]})
    assert (code, err) == (0, "")
    [got] = _strict_json(out)["values"]
    assert got == pytest.approx([value, 0.0, 0.0, 0.0], rel=1e-12, abs=0.0)


def test_roots_output_is_strict_json(run):
    # f^s is in range but its monic form is not
    code, out, err = run(["roots"], {"coeffs": [[1e150, 0, 0, 0], [0, 0, 0, 0],
                                                [1e-150, 0, 0, 0]]})
    assert (code == 0 and _strict_json(out)) or (
        code == 3 and out == "" and err.startswith("error:"))


def test_kernel_overflow_exits_3(run):
    code, out, err = run(["kernel"], {"s": [0, 0, 0, 0], "q": [1e-310, 0, 0, 0]})
    assert code == 3 and out == "" and err.startswith("error:")


def _readme_cli_examples():
    """One param (argv, stdin, exit code) per example of the sh block in the
    README's CLI section: a comment, then an optional ``echo '...' |`` and
    one sliceregular call.  The exit code is the one the comment names, or 0."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for para in block.strip().split("\n\n"):
        lines = para.splitlines()
        comment = " ".join(line.lstrip("# ") for line in lines if line.startswith("#"))
        words = shlex.split(" ".join(line for line in lines if not line.startswith("#")))
        stdin = ""
        if words[0] == "echo":
            assert words[2] == "|", para
            stdin, words = words[1], words[3:]
        assert words[0] == "sliceregular", para
        argv = [w for w in words[1:] if w != "</dev/null"]
        code = re.search(r"exit code (\d)", comment)
        examples.append(pytest.param(argv, stdin, int(code.group(1)) if code else 0, id=comment))
    return examples


@pytest.mark.parametrize("argv, stdin, want", _readme_cli_examples())
def test_readme_cli_examples(run, argv, stdin, want):
    code, out, err = run(argv, stdin)
    assert (code, err) == (want, "")
    assert out and all(_strict_json(line) for line in out.splitlines())


def test_extend_values_and_domain(run):
    payload = {
        "stem": {"coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]},
        "slice": [0, 0, 1, 0],
        "points": [[0.1, 0.2, 0.3, 0.4]],
        "domain": {"discs": [{"cx": 0.0, "cy": 0.0, "r": 1.0}]},
    }
    code, out, _ = run(["extend"], payload)
    assert code == 0
    data = json.loads(out)
    assert data["values"][0] == pytest.approx([0.1, 0.2, 0.3, 0.4], abs=1e-12)
    assert data["domain"] == {
        "contains_real": True, "axially_symmetric": True, "is_s_domain": True,
    }


def test_extend_classifies_off_axis_disc(run):
    # clear of the real axis by 1, and by 0.003 (below the grid step) as a
    # disc and as a box
    for domain in ({"discs": [{"cy": 2.0, "r": 1.0}]},
                   {"discs": [{"cx": 0.4, "cy": 0.503, "r": 0.5}]},
                   {"boxes": [{"x0": -0.5, "x1": 0.5, "y0": 0.003, "y1": 0.503}]}):
        code, out, _ = run(["extend"], {"domain": domain})
        assert code == 0
        assert json.loads(out)["domain"] == {
            "contains_real": False, "axially_symmetric": True, "is_s_domain": False,
        }


def test_extend_empty_payload_exits_2(run):
    code, _, err = run(["extend"], {})
    assert code == 2 and err.startswith("error:")


def _assert_decode_error(result):
    code, out, err = result
    assert code == 2 and out == "" and err.startswith("error:")


def test_extend_rejects_zero_grid_step(run):
    _assert_decode_error(run(["extend"], {"domain": {"discs": [{"r": 1.0}], "grid_step": 0}}))


def test_extend_rejects_zero_grid_step_flag(run):
    _assert_decode_error(run(["extend", "--grid-step", "0"], {"domain": {"discs": [{"r": 1.0}]}}))


def test_extend_rejects_negative_grid_step(run):
    payload = {"domain": {"discs": [{"r": 1.0}], "grid_step": -0.5}}
    _assert_decode_error(run(["extend"], payload))


def test_extend_rejects_negative_disc_radius(run):
    _assert_decode_error(run(["extend"], {"domain": {"discs": [{"r": -1.0}]}}))


def test_extend_rejects_inverted_box(run):
    _assert_decode_error(run(["extend"], {"domain": {"boxes": [{"x0": 1, "x1": -1, "y1": 1}]}}))
    _assert_decode_error(run(["extend"], {"domain": {"boxes": [{"x0": -1, "x1": 1, "y0": 1,
                                                                "y1": 1}]}}))


_STEM = {"stem": {"coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}, "slice": [0, 0, 1, 0]}
_LINEAR = {"op": "poly", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}


def test_extend_rejects_non_array_points(run):
    _assert_decode_error(run(["extend"], {**_STEM, "points": 5}))


def test_extend_rejects_non_object_domain(run):
    _assert_decode_error(run(["extend"], {"domain": [1, 2]}))


def test_extend_rejects_non_array_boxes(run):
    _assert_decode_error(run(["extend"], {"domain": {"boxes": 3}}))


def _ext_eval(domain):
    return {"expr": {"op": "ext", **_STEM, "domain": domain}, "points": [[0.5, 0, 0, 0]]}


@pytest.mark.parametrize("step", ["-1", "0", "NaN", "Infinity"])
def test_ext_domain_rejects_bad_grid_step(run, step):
    # as extend does for the same domain
    domain = {"discs": [{"r": 1}], "grid_step": "STEP"}
    for argv, payload in ((["eval"], _ext_eval(domain)), (["extend"], {"domain": domain})):
        code, out, err = run(argv, json.dumps(payload).replace('"STEP"', step))
        assert code == 2 and out == ""
        assert err.startswith("error: grid step must be") and err.count("\n") == 1


def test_ext_domain_grid_step_is_validated_but_inert(run):
    # an ext node's domain is never classified: its stems' regions decide
    # membership, so every valid step gives the same answers, also one at
    # which extend's raster would have 4e8 cells
    disc = {"discs": [{"r": 1}]}
    payload = {"expr": {"op": "ext", **_STEM, "domain": disc},
               "points": [[0.5, 0, 0, 0], [0, 0, 2, 0]]}
    code, out, err = run(["eval"], payload)
    assert code == 0 and err == ""
    inside, outside = json.loads(out)["values"]
    assert inside == [0.5, 0.0, 0.0, 0.0] and "outside its declared domain" in outside["error"]
    for step in (0.05, 1e-4):
        payload["expr"]["domain"] = {**disc, "grid_step": step}
        assert run(["eval"], payload) == (code, out, err)
    _assert_decode_error(run(["extend"], {"domain": {**disc, "grid_step": 1e-4}}))


def test_domain_raster_is_bounded_at_decode(run):
    # a radius-6 disc needs 1.44e6 cells at the default grid step
    disc = {"discs": [{"cx": 0.0, "cy": 0.0, "r": 6.0}]}
    _assert_decode_error(run(["extend"], {"domain": disc}))
    # an ext node's domain is not rasterized, so eval answers over it
    payload = {"expr": {"op": "ext", **_STEM, "domain": disc}, "points": [[0, 0, 0, 0]]}
    assert run(["eval"], payload) == (0, '{"values": [[0.0, 0.0, 0.0, 0.0]]}\n', "")


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each costs milliseconds of every CLI process's start-up (argparse
    # brings gettext); -S keeps site-packages hooks out of the measured set
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sliceregular.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'cmath'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, _SRC], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_console_help_and_usage_error():
    # a real process, where SystemExit becomes the exit status
    def console(*argv):
        return subprocess.run([sys.executable, "-S", "-m", "sliceregular.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=_SRC), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=60)

    done = console("--help")
    assert done.returncode == 0 and done.stderr == ""
    names = ["eval", "roots", "check", "extend", "kernel", "--pretty", "--help", "--suite",
             "--seed", "--samples", "--with-control", "--grid-step"]
    assert all(name in done.stdout for name in names)
    import sliceregular.cli as cli
    assert set(cli._COMMANDS) | {o for _, options in cli._COMMANDS.values() for o in options} \
        <= set(names)
    done = console("frob")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_eval_rejects_star_without_g(run):
    payload = {"expr": {"op": "star", "f": _LINEAR}, "points": [[0, 1, 0, 0]]}
    _assert_decode_error(run(["eval"], payload))


def test_eval_rejects_rscale_without_a(run):
    payload = {"expr": {"op": "rscale", "f": _LINEAR}, "points": [[0, 1, 0, 0]]}
    _assert_decode_error(run(["eval"], payload))


def test_eval_rejects_nesting_beyond_depth_cap(run):
    # the cap bounds evaluation's recursion; deeper payloads exit 2, not
    # with a RecursionError traceback (exit 1 is kept for failed reports)
    def nested(depth):
        text = json.dumps(_LINEAR)
        for _ in range(depth - 1):
            text = f'{{"op": "sum", "f": {json.dumps(_LINEAR)}, "g": {text}}}'
        return f'{{"expr": {text}, "points": [[0, 1, 0, 0]]}}'

    code, out, _ = run(["eval"], nested(MAX_EXPR_DEPTH))
    assert code == 0 and len(json.loads(out)["values"]) == 1
    _assert_decode_error(run(["eval"], nested(MAX_EXPR_DEPTH + 1)))
    conj = '{"op": "conj", "f": ' * 900 + json.dumps(_LINEAR) + "}" * 900
    _assert_decode_error(run(["eval"], f'{{"expr": {conj}, "points": []}}'))

    # the cost bound: n conj levels over a polynomial cost 2^(n-1) leaf
    # evaluations per point, so 13 levels (4096) are served and 14 are not
    def chain(levels):
        return json.loads('{"op": "conj", "f": ' * levels + json.dumps(_LINEAR) + "}" * levels)

    with pytest.raises(DecodeError, match="leaf evaluations"):
        expr_from_json(chain(40))
    code, out, _ = run(["eval"], {"expr": chain(13), "points": [[0, 1, 0, 0]]})
    assert code == 0 and len(json.loads(out)["values"]) == 1
    _assert_decode_error(run(["eval"], {"expr": chain(14), "points": [[0, 1, 0, 0]]}))
    _assert_decode_error(run(["eval"], '{"expr": ' + "[" * 100000 + "]" * 100000 + "}"))


def test_check_all_suites_pass(run):
    code, out, _ = run(["check", "--suite", "all", "--seed", "1", "--samples", "50"])
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all(r["passed"] for r in reports)


def test_check_with_control_fails(run):
    code, out, _ = run(["check", "--suite", "grf", "--seed", "1",
                        "--samples", "50", "--with-control"])
    assert code == 1
    reports = {r["name"]: r for r in map(json.loads, out.splitlines())}
    control = reports["grf_nonregular_control"]
    assert not control["passed"]
    assert control["max_residual"] > 1e-2
    assert all(r["passed"] for name, r in reports.items() if name != "grf_nonregular_control")


def test_check_with_a_nan_value_after_the_first_sphere_is_not_finite(run, monkeypatch):
    # a NaN residual is a report's worst case wherever it comes, so its
    # max_residual is NaN and no JSON document is written
    monkeypatch.setattr("sliceregular.cli.Poly", lambda p: RawMap(
        lambda q: q if q.x0 < 1.0 else Quaternion(math.nan)))
    code, out, err = run(["check", "--suite", "grf", "--seed", "1", "--samples", "100"])
    assert code == 3 and "result is not finite" in err


def test_check_is_deterministic(run):
    _, out_a, _ = run(["check", "--suite", "identities", "--seed", "3", "--samples", "40"])
    _, out_b, _ = run(["check", "--suite", "identities", "--seed", "3", "--samples", "40"])
    assert out_a == out_b
    _, out_c, _ = run(["check", "--suite", "identities", "--seed", "4", "--samples", "40"])
    assert out_a != out_c


def test_check_seed_from_environment(run):
    # read at each call, so a change between in-process calls takes effect
    outs = []
    for seed in ("12", "13"):
        _, by_env, _ = run(["check", "--suite", "extension", "--samples", "30"],
                           env={"SLICEREG_SEED": seed})
        _, by_flag, _ = run(["check", "--suite", "extension", "--samples", "30", "--seed", seed])
        assert by_env == by_flag
        outs.append(by_env)
    assert outs[0] != outs[1]
    # a seed that is not an integer is a usage error, not a failed report
    code, out, err = run(["check", "--suite", "extension"], env={"SLICEREG_SEED": "abc"})
    assert code == 2 and out == "" and err.startswith("error:")


def test_main_builds_a_parser_per_call(run, monkeypatch):
    # the parser is stateless and cheap, so main keeps none between calls
    import sliceregular.cli as cli
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    payload = {"expr": _LINEAR, "points": [[1, 0, 0, 0]]}
    for _ in range(5):
        assert run(["eval"], payload) == (0, '{"values": [[1.0, 0.0, 0.0, 0.0]]}\n', "")
    assert run(["check", "--suite", "identities", "--samples", "10"])[0] == 0
    assert len(built) == 6
    assert not hasattr(cli, "_parser")
    assert build_parser() is not build_parser()


def test_usage_error_leaves_no_parser_state(run, capsys):
    argv = ["check", "--suite", "identities", "--samples", "10"]
    first = run(argv, env={"SLICEREG_SEED": "5"})
    with pytest.raises(SystemExit) as exc:
        main(["check", "--seed", "9", "--samples", "10", "--suite", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(argv) == first


@pytest.mark.parametrize("argv", [
    [], ["frob"],
    ["check", "--suite", "bogus"], ["check", "--samples", "abc"], ["check", "--seed", "1.5"],
    ["extend", "--grid-step", "x"],
    ["check", "--samples"], ["check", "--samp", "5"],
    ["eval", "--pretty"], ["check", "--with-control=1"],
])
def test_usage_error_is_one_line(monkeypatch, capsys, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [["-h"], ["--pretty", "--help"], ["check", "--seed", "3", "-h"]])
def test_help_exits_0(monkeypatch, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == "" and out.startswith("usage: sliceregular")


def test_option_value_forms(run):
    spaced = run(["check", "--suite", "identities", "--seed", "3", "--samples", "20"])
    assert run(["check", "--suite=identities", "--seed=3", "--samples=20"]) == spaced
    assert run(["check", "--seed", "-4", "--suite", "identities", "--samples", "20"])[0] == 0


def test_unexpected_exception_exits_3(run, monkeypatch):
    # exit 1 stays "a check report failed"
    import sliceregular.cli as cli

    def broken(s, q):
        raise RuntimeError("broken kernel")

    monkeypatch.setattr(cli, "cauchy_kernel", broken)
    code, out, err = run(["kernel"], {"s": [0, 0, 1, 0], "q": [0, 0, 2, 0]})
    assert (code, out, err) == (3, "", "error: internal error: RuntimeError: broken kernel\n")


_BIG = 1e308
_DISC = {"domain": {"discs": [{"r": 1.0}]}}
_CHECK = ["check", "--suite", "extension", "--samples", "10"]


def _conj_chain(levels):
    return '{"op": "conj", "f": ' * levels + json.dumps(_LINEAR) + "}" * levels


def _lattice(n):
    """n x n discs of radius 0.005 on [-2.4, 2.4] x [0, 4.8]."""
    return {"discs": [{"cx": -2.4 + 4.8 * i / (n - 1), "cy": 4.8 * j / (n - 1), "r": 0.005}
                      for i in range(n) for j in range(n)]}


def _dense(degree):
    """A monic polynomial with non-lead coefficients in [-1/2, 1/2]."""
    rng = SplitMix64(degree)
    return [[rng.uniform(-0.5, 0.5) for _ in range(4)] for _ in range(degree)] + [[1, 0, 0, 0]]


def _ext_over(domain):
    return {"expr": {"op": "ext", "stem": {"coeffs": [[1, 0, 0, 0]]}, "slice": [0, 1, 0, 0],
                     "domain": domain}, "points": [[1, 0, 0, 0]]}


@pytest.mark.parametrize("argv, payload, seed", [
    # deep JSON and expression nesting
    (["eval"], "[" * 100000 + "]" * 100000, None),
    (["eval"], '{"a": ' * 100000 + "1" + "}" * 100000, None),
    (["roots"], '{"coeffs": ' + "[" * 50000 + "]" * 50000 + "}", None),
    (["kernel"], '{"s": ' + "[" * 50000 + "]" * 50000 + ', "q": [0, 0, 0, 0]}', None),
    (["eval"], '{"expr": ' + _conj_chain(900) + ', "points": []}', None),
    (["eval"], '{"expr": ' + _conj_chain(40) + ', "points": [[0, 1, 0, 0]]}', None),
    (["eval"], {"expr": _LINEAR, "points": [[[[[[0]]]]]]}, None),
    (["extend"], {"stem": {"coeffs": [[[[1]]]]}}, None),
    # 1e308 magnitudes
    (["eval"], {"expr": {"op": "poly", "coeffs": [[_BIG] * 4] * 3},
                "points": [[_BIG] * 4, [-_BIG, 0, 0, 0]]}, None),
    (["eval"], {"expr": {"op": "recip", "f": {"op": "poly", "coeffs": [[_BIG, 0, 0, 0],
                                                                       [_BIG, _BIG, 0, 0]]}},
                "points": [[0, _BIG, 0, 0]]}, None),
    (["eval"], {"expr": {"op": "rscale", "f": _LINEAR, "a": [_BIG] * 4},
                "points": [[_BIG] * 4]}, None),
    (["roots"], {"coeffs": [[_BIG] * 4] * 3}, None),
    (["roots"], {"coeffs": [[5e-324, 0, 0, 0], [0, 0, 0, 0], [_BIG, 0, 0, 0]]}, None),
    (["kernel"], {"s": [_BIG] * 4, "q": [-_BIG, 0, 0, 0]}, None),
    (["kernel"], {"s": [0, _BIG, 0, 0], "q": [0, 0, _BIG, 0]}, None),
    (["extend"], {"stem": {"coeffs": [[_BIG] * 4] * 2}, "slice": [0, _BIG, 0, 0],
                  "points": [[_BIG] * 4]}, None),
    (["extend"], {"domain": {"discs": [{"cx": _BIG, "cy": _BIG, "r": _BIG}]}}, None),
    (["extend"], {"domain": {"boxes": [{"x0": -_BIG, "x1": _BIG, "y0": -_BIG, "y1": _BIG}]}},
     None),
    (["extend", "--grid-step", "1e308"], _DISC, None),
    (["extend", "--grid-step", "1e-308"], _DISC, None),
    (["check", "--suite", "identities", "--samples", "10", "--seed", "9" * 309], None, None),
    # zero or negative sizes
    (["check", "--samples", "0"], None, None),
    (["check", "--samples", "-5"], None, None),
    (["extend", "--grid-step", "-1"], _DISC, None),
    (["extend", "--grid-step", "nan"], _DISC, None),
    (["extend"], {"domain": {"discs": [{"r": 0}]}}, None),
    (["extend"], {"domain": {"boxes": [{"x0": 0, "x1": 0, "y1": 1}]}}, None),
    (["extend"], {"domain": {}}, None),
    (["roots"], {"coeffs": []}, None),
    (["eval"], {"expr": _LINEAR, "points": [[]]}, None),
    # wrong types at nested positions
    (["eval"], {"expr": {"op": "poly", "coeffs": [[1, 0, 0, "a"]]}, "points": [[0, 1, 0, 0]]},
     None),
    (["eval"], {"expr": _LINEAR, "points": [[True, 1, 0, None]]}, None),
    (["eval"], {"expr": {"op": "sum", "f": _LINEAR, "g": [1, 2]}, "points": [[1, 0, 0, 0]]},
     None),
    (["eval"], {"expr": {"op": "star", "f": _LINEAR, "g": {"op": "poly", "coeffs": {"0": 1}}},
                "points": [[1, 0, 0, 0]]}, None),
    (["eval"], {"expr": {"op": "ext", "stem": {"coeffs": [[1, 0, 0, 0]]}, "slice": [0, 1, 0, 0],
                         "domain": {"discs": [[0, 0, 1]]}}, "points": [[1, 0, 0, 0]]}, None),
    (["roots"], {"coeffs": [[1, 0, 0, 0], [1, 0, 0, 0]], "center": [0, 0, "x", 0]}, None),
    (["kernel"], {"s": {"w": 1}, "q": [0, 0, 0, 0]}, None),
    (["extend"], {"domain": {"discs": [{"r": "1"}], "grid_step": "0.1"}}, None),
    (["extend"], {"stem": {"coeffs": [[1, 0, 0, 0]]}, "slice": [0, 0, 0, 0],
                  "points": [[1, 0, 0, 0]]}, None),
    (["roots"], '{"coeffs": [[Infinity, 0, 0, 0], [1, 0, 0, 0]]}', None),
    # a bad SLICEREG_SEED
    (_CHECK, None, "abc"),
    (_CHECK, None, "1.5"),
    (_CHECK, None, ""),
    (_CHECK, None, "9" * 5000),
    # a huge sample count
    (["check", "--samples", str(10 ** 308)], None, None),
    # many shapes: classification and the symmetry test of an ext domain
    (["extend"], {"domain": _lattice(20)}, None),
    (["extend"], {"domain": _lattice(16)}, None),
    (["eval"], _ext_over({"discs": [{"cx": k * 1e-3, "r": 0.5} for k in range(2000)]}), None),
    (["eval"], _ext_over({"discs": [{"cx": k * 1e-3, "r": 0.5} for k in range(256)]}), None),
    (["eval"], _ext_over({"discs": [{"r": 1}], "grid_step": -1}), None),
    # the leading coefficient of f^s underflows to 0 although that of f is not real
    (["roots"], {"coeffs": [[1, 0, 0, 0], [3e-170, 7e-171, -5e-170, 2.3e-170]]}, None),
    # the degree cap: refused just above it, answered at it
    (["roots"], {"coeffs": _dense(MAX_DEGREE + 1)}, None),
    (["roots"], {"coeffs": _dense(MAX_DEGREE)}, None),
    # q^64: the isolated zero at the center, at the degree cap
    (["roots"], {"coeffs": [[0, 0, 0, 0]] * MAX_DEGREE + [[1, 0, 0, 0]]}, None),
    # an ext domain is never rasterized, whatever its size or grid step
    (["eval"], _ext_over({"discs": [{"r": 6}]}), None),
    (["eval"], _ext_over({"discs": [{"r": 1}], "grid_step": 1e-6}), None),
    (["eval"], _ext_over({"discs": [{"r": 1e300}]}), None),
])
def test_hostile_payload_is_answered_or_refused(run, monkeypatch, argv, payload, seed):
    # strict JSON with exit 0 or 1, or one error: line with exit 2 or 3, in
    # bounded time; never the last-resort "internal error", which would hide
    # a hole in the decoder
    if seed is None:
        monkeypatch.delenv("SLICEREG_SEED", raising=False)
    start = time.perf_counter()
    code, out, err = run(argv, payload, env=None if seed is None else {"SLICEREG_SEED": seed})
    assert time.perf_counter() - start < 2.0
    if code in (0, 1):
        assert err == "" and out and all(_strict_json(line) for line in out.splitlines())
    else:
        assert code in (2, 3) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "internal error" not in err


def test_check_rejects_nonpositive_samples(run):
    code, _, err = run(["check", "--samples", "0"])
    assert code == 2 and err.startswith("error:")


def test_check_rejects_samples_over_the_limit(run):
    import sliceregular.cli as cli
    code, _, err = run(["check", "--samples", str(cli.MAX_SAMPLES + 1)])
    assert code == 2 and err.startswith("error:")


def test_domain_shape_limit():
    from sliceregular.serialize import MAX_SHAPES, domain_from_json
    discs = [{"cx": 0.01 * k, "r": 0.5} for k in range(MAX_SHAPES)]
    assert domain_from_json({"discs": discs}).is_s_domain
    with pytest.raises(DecodeError, match="shapes exceeds"):
        domain_from_json({"discs": discs, "boxes": [{"x0": 0, "x1": 1, "y1": 1}]})


@pytest.mark.parametrize("argv, payload", [
    (["roots"], [0] * 200000),
    (["eval"], {"expr": {"op": "x" * 200000}, "points": []}),
    (["extend"], {"domain": {"discs": [{"r": "1" * 200000}]}}),
    (["extend"], {"domain": [0] * 200000}),
])
def test_decode_error_echoes_a_bounded_value(run, argv, payload):
    from sliceregular.serialize import MAX_ECHO
    code, out, err = run(argv, payload)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert len(err) <= MAX_ECHO + 100


def test_extend_domain_error_shows_only_the_sent_keys(run):
    code, _, err = run(["extend", "--grid-step", "0.05"], {"domain": {"discs": 1}})
    assert code == 2 and "grid_step" not in err


def test_pretty_flag(run):
    payload = {"expr": {"op": "poly", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]},
               "points": [[1, 0, 0, 0]]}
    _, plain, _ = run(["eval"], payload)
    _, pretty, _ = run(["--pretty", "eval"], payload)
    assert "\n  " in pretty
    assert json.loads(plain) == json.loads(pretty)


def _coeffs(rng, degree, k):
    """degree + 1 seeded coefficients a_n 2^(-kn): the polynomial at 2^k q
    is the one with the a_n at q."""
    return [[math.ldexp(v, -k * n) for v in rng.quaternion().components()]
            for n in range(degree + 1)]


def _tree(rng, depth, k):
    """A seeded tree of every node type but ext and raw, its leaves scaled as
    _coeffs, their centers times 2^k."""
    op = ("poly", "star", "conj", "symm", "recip", "sum", "rscale")[
        rng.next_u64() % 7 if depth else 0]
    if op == "poly":
        return {"op": op, "center": math.ldexp(rng.uniform(-1, 1), k),
                "coeffs": _coeffs(rng, 1 + rng.next_u64() % 3, k)}
    node = {"op": op, "f": _tree(rng, depth - 1, k)}
    if op in ("star", "sum"):
        node["g"] = _tree(rng, depth - 1, k)
    if op == "rscale":
        node["a"] = list(rng.quaternion().components())
    return node


def _unscaled_spheres(text, k):
    """The text with the x and y of each singular-sphere message over 2^k."""
    return re.sub(r"([xy])=([^,\s]+)", lambda m: f"{m[1]}={float(m[2]) / 2.0 ** k}", text)


def test_cli_answers_are_exactly_covariant_under_powers_of_two(run, monkeypatch):
    # Through cli.main at lambda = 2^k against lambda = 1, bit for bit: eval
    # of trees with leaf coefficients a_n 2^(-kn) at points 2^k q gives the
    # same values and singular spheres 2^k times; roots of such polynomials
    # give zeros 2^k times, with the same kinds, units and residuals; kernel
    # at (s, q) 2^k gives 2^-k times the value; check suites over 2^k f give
    # the same reports, to 2^+-600: each suite normalizes its polynomials.
    class Scaled(SplitMix64):
        scale = 1.0

        def polynomial(self, *args, **kwargs):
            return super().polynomial(*args, **kwargs).right_scaled(Quaternion(self.scale))

    monkeypatch.setattr("sliceregular.cli.SplitMix64", Scaled)

    def answers(k, whole=True):
        # the eval and kernel answers, then, if whole, those of roots
        rng, out = SplitMix64(1601), []
        for depth in (1, 2, 3, 3):
            points = [[math.ldexp(v, k) for v in rng.quaternion().components()]
                      for _ in range(3)]
            out.append(run(["eval"], {"expr": _tree(rng, depth, k), "points": points}))
        # recip of q^2 + 1 on its singular sphere (0, 1)
        out.append(run(["eval"], {"expr": {"op": "recip", "f": {"op": "poly", "coeffs": [
            [1, 0, 0, 0], [0, 0, 0, 0], [math.ldexp(1.0, -2 * k), 0, 0, 0]]}},
            "points": [[0, 0, math.ldexp(1.0, k), 0]]}))
        roots = [{"center": math.ldexp(rng.uniform(-1, 1), k),  # drawn alike, unused if not whole
                  "coeffs": _coeffs(rng, degree, k if whole else 0)} for degree in (1, 2, 3, 5)]
        # spherical (q^2 + 1) and isolated (q - 2) zeros, scaled
        roots.append({"coeffs": [[math.ldexp(c, -k * n), 0, 0, 0]
                                 for n, c in enumerate((-2.0, 1.0, -2.0, 1.0))]})
        for s, q in ((rng.quaternion(), rng.quaternion()),
                     (Quaternion(0.5, 1.0, 0.0, 0.0), Quaternion(0.5, 0.0, 0.6, 0.8))):
            out.append(run(["kernel"], {"s": [math.ldexp(v, k) for v in s.components()],
                                        "q": [math.ldexp(v, k) for v in q.components()]}))
        if whole:
            out += [run(["roots"], payload) for payload in roots]
        return out

    def check(k):
        Scaled.scale = math.ldexp(1.0, k)
        return run(["check", "--suite", "all", "--samples", "10", "--seed", "3"])

    def unscaled(answer, k):
        code, out, err = answer
        data = [json.loads(line) for line in out.splitlines()]
        for line in data:
            for value in line.get("values", []):
                if "error" in value:
                    value["error"] = _unscaled_spheres(value["error"], k)
            for zero in line.get("zeros", []):
                zero["x"], zero["y"] = zero["x"] / 2.0 ** k, zero["y"] / 2.0 ** k
            if "value" in line:
                line["value"] = [v * 2.0 ** k for v in line["value"]]
        return code, data, _unscaled_spheres(err, k)

    base, base_check = [unscaled(answer, 0) for answer in answers(0)], check(0)
    assert {code for code, _, _ in base} | {base_check[0]} == {0, 3}
    for k in (1, -1, 7, -7, 60, -60):
        assert [unscaled(answer, k) for answer in answers(k)] == base, k
    # eval and kernel to 2^+-300: the leaves have degree <= 3, so a_n 2^(-kn)
    # stays normal
    for k in (300, -300):
        got = [unscaled(answer, k) for answer in answers(k, whole=False)]
        assert got == base[:len(got)], k
    # check, whose coefficients are the a_n 2^k, to 2^+-600
    for k in (1, -1, 7, -7, 60, -60, 300, -300, 600, -600):
        assert check(k) == base_check, k
