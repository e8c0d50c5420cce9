"""Per-layer tracing by rebinding the package's functions from outside.

Each traced function is replaced, in every ``sliceregular`` module that
holds it (including the modules that imported it by name), by a wrapper
that records a span: name, start, end, the span that was open when it
started, and the request being served.  Recursive and cross-module calls
therefore pass through the wrappers too.  A span's self time is its
duration minus the time covered by its child spans.  The hottest
quaternion operators only get counters.

Aggregates cover every call; the spans themselves are kept in memory up to
SPAN_CAP and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_CAP = 200_000

# layer metric name -> (module, attribute, class or None); several targets
# may share one name, and their calls and self time add up.
TIMED = (
    ("cli.main", "sliceregular.cli", "main", None),
    ("serialize.decode", "sliceregular.serialize", "expr_from_json", None),
    ("serialize.decode", "sliceregular.serialize", "poly_from_json", None),
    ("serialize.decode", "sliceregular.serialize", "quaternion_from_json", None),
    ("serialize.decode", "sliceregular.serialize", "region_from_json", None),
    ("serialize.decode", "sliceregular.serialize", "domain_from_json", None),
    ("serialize.encode", "sliceregular.serialize", "quaternion_to_json", None),
    ("serialize.encode", "sliceregular.serialize", "sphere_zero_to_json", None),
    ("expr.evaluate", "sliceregular.expr", "evaluate", None),
    ("expr.star_eval", "sliceregular.expr", "star_eval", None),
    ("expr.conj_eval", "sliceregular.expr", "conj_eval", None),
    ("expr.symm_eval", "sliceregular.expr", "symm_eval", None),
    ("expr.recip_eval", "sliceregular.expr", "recip_eval", None),
    ("polynomial.evaluate", "sliceregular.polynomial", "evaluate", "SlicePolynomial"),
    ("polynomial.star_poly", "sliceregular.polynomial", "star_poly", None),
    ("extension.sphere_affine_coeffs", "sliceregular.extension", "sphere_affine_coeffs", None),
    ("representation.symmetric_completion", "sliceregular.representation",
     "symmetric_completion", None),
    ("representation.general_representation", "sliceregular.representation",
     "general_representation", None),
    ("zeros.aberth_roots", "sliceregular.zeros", "aberth_roots", None),
    ("zeros.poly_roots", "sliceregular.zeros", "poly_roots", None),
    ("zeros.sphere_zero_classify", "sliceregular.zeros", "sphere_zero_classify", None),
    ("verify.check_grf_invariance", "sliceregular.verify", "check_grf_invariance", None),
    ("verify.check_identity_suite", "sliceregular.verify", "check_identity_suite", None),
    ("verify.check_extension_roundtrip", "sliceregular.verify",
     "check_extension_roundtrip", None),
)
COUNTED = (
    ("quaternion.mul", "sliceregular.quaternion", "__mul__", "Quaternion"),
    ("quaternion.mul", "sliceregular.quaternion", "__rmul__", "Quaternion"),
    ("quaternion.add", "sliceregular.quaternion", "__add__", "Quaternion"),
    ("quaternion.add", "sliceregular.quaternion", "__radd__", "Quaternion"),
    ("quaternion.slice_coords", "sliceregular.quaternion", "slice_coords", None),
    ("quaternion.orthogonal_unit", "sliceregular.quaternion", "orthogonal_unit", None),
)
# Exceptions counted as a layer's failures, each once, where first raised.
FAILURES = {"expr.recip_eval": "SingularPoint", "zeros.aberth_roots": "NonConvergence"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.failed: list[int] = []
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[list] = []
        self._next_span = 0
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.failed.append(0)
        return self.names.index(name)

    def _timed(self, name, func, failure):
        nid = self._name_id(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = self._next_span
            self._next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                if failure is not None and isinstance(exc, failure) \
                        and not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.failed[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[nid] += duration - frame[1]
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
                if sid < SPAN_CAP:
                    spans.append((sid, nid, start, end, parent, self.request))
        return wrapper

    def _counted(self, name, func):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def install(self):
        """Rebind every target in every loaded ``sliceregular`` module."""
        errors = sys.modules["sliceregular.errors"]
        for name, module, attr, cls in TIMED + COUNTED:
            owner = getattr(sys.modules[module], cls) if cls else sys.modules[module]
            original = owner.__dict__[attr]
            if (name, module, attr, cls) in COUNTED:
                wrapped = self._counted(name, original)
            else:
                failure = FAILURES.get(name)
                wrapped = self._timed(name, original,
                                      getattr(errors, failure) if failure else None)
            if cls:
                self._rebind(owner, attr, original, wrapped)
                continue
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] != "sliceregular":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer(self, name):
        """(calls, self seconds, failures) of a timed name."""
        if name not in self.names:
            return 0, 0.0, 0
        k = self.names.index(name)
        return self.calls[k], self.self_s[k], self.failed[k]

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["span", "name", "start", "end", "parent", "request"],
                       "spans": self.spans,
                       "dropped": max(0, self._next_span - SPAN_CAP)}, fh)
