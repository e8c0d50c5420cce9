"""Benchmark of the sliceregular command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  Each workload is a closed loop with one client: the next JSON
request goes to ``sliceregular.cli.main(argv)``, with stdin, stdout and
stderr swapped in-process, only after the previous one returned.  The
program sees only the generated JSON.

The requests are a fixed set made from ``--seed`` by the workload's
generator (``workloads.py``), served in order and over again until
``--seconds`` have passed and each was served once.  A request's latency
is the median over its servings, so each request of the set counts once.
After the timed loop the first answer to every request is checked by the
workload's oracle (``oracle.py``), which shares no code with the package,
every later answer must equal it, and a planted defect is fed to the same
oracle to show that it rejects wrong answers.  ``attempted`` and ``failed``
count the requests of the set, so they depend on the seed alone.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay (``tracing.py``) together with the tracing
overhead.  Readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import calibrate
import oracle
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 7           # fresh processes timed for setup_s, after one warm-up
SETUP_PROBES = 10        # calibration probes before and after each setup import
PLANT_SAMPLES = 20       # accepted answers each planted defect is tried on
TRACE_SHARE = 0.4        # share of --seconds for the untraced pass of --trace 1
# Run in a fresh process: calibration probes around the timed import, on the
# processor that does the import.
SETUP_CODE = f"""
import json, time
import calibrate
probes = [calibrate.probe() for _ in range({SETUP_PROBES})]
start = time.perf_counter()
import sliceregular.cli as cli
cli.build_parser()
elapsed = time.perf_counter() - start
probes += [calibrate.probe() for _ in range({SETUP_PROBES})]
print(json.dumps([elapsed, probes]))
"""

END_TO_END_UNITS = {"setup_s": "s", "req_per_s": "1/s", "req_p50_ms": "ms",
                    "req_p90_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB"}


def measure_setup():
    """``import sliceregular.cli`` plus ``build_parser()`` in fresh processes,
    each time at the reference speed.

    The first process is not timed: it fills the bytecode cache, which a
    user's installation also has.  Returns the times, raw and calibrated."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the warm-up fill the cache
    raw, calibrated = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, probes = json.loads(done.stdout)
        if k:
            raw.append(elapsed)
            calibrated.append(elapsed * calibrate.speed(probes))
    return raw, calibrated


def serve(main, request):
    """One request through the CLI entry point; returns (code, out, err, seconds)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(request["stdin"]), out, err
    start = time.perf_counter()
    try:
        code = main(list(request["argv"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails this request; the loop goes on
        code = "traceback"
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def closed_loop(main, requests, seconds, tracer=None):
    """Serve the requests back to back, in order and over again, until
    ``seconds`` of serving have passed and each was served once.

    Only the serving is timed: the calibration probes, one before each
    request and one after the last, happen outside it.  Returns
    [(request, code, out, err, latency)], the probe times and the seconds
    of timed loop."""
    served, probes, busy = [], [], 0.0
    while len(served) < len(requests) or busy < seconds:
        if tracer is not None:
            tracer.request = len(served)
        request = requests[len(served) % len(requests)]
        probes.append(calibrate.probe())
        code, out, err, latency = serve(main, request)
        busy += latency
        served.append((request, code, out, err, latency))
    probes.append(calibrate.probe())
    return served, probes, busy


def judge(workload, served, size):
    """Oracle verdicts on the first ``size`` answers, one per request of the
    set, the failure summary and the planted-defect test.  A later answer
    to the same request that differs from the first is unexpected."""
    first = served[:size]
    verdicts = [oracle.check(workload, request, code, out, err)
                for request, code, out, err, _ in first]
    accepted = [(request, code, out) for (request, code, out, _e, _l), v
                in zip(first, verdicts) if v["ok"]][:PLANT_SAMPLES]
    planted, rejected = oracle.planted_defect_test(workload, accepted)
    failed = sum(not v["ok"] for v in verdicts)
    unexpected = [v for v in verdicts
                  if not v["ok"] and v["kind"] not in oracle.KNOWN_DEFECTS[workload]]
    unexpected += [{"kind": "repeat-differs"}
                   for k, (_r, code, out, _e, _l) in enumerate(served[size:])
                   if (code, out) != first[k % size][1:3]]
    return verdicts, failed, unexpected, planted, rejected


def print_failures(workload, served, verdicts):
    served = served[:len(verdicts)]
    families = Counter(request["family"] for request, *_ in served)
    kinds = Counter((request["family"], v["kind"])
                    for (request, *_), v in zip(served, verdicts) if not v["ok"])
    for family, n in sorted(families.items()):
        bad = {kind: c for (fam, kind), c in kinds.items() if fam == family}
        print(f"  family {family:16s} requests {n:5d}  failed {sum(bad.values()):5d}  {bad}")
    for (request, *_), v in zip(served, verdicts):
        if not v["ok"] and v["kind"] not in oracle.KNOWN_DEFECTS[workload]:
            print(f"  UNEXPECTED {v['kind']} ({request['family']}): {v['why']}")


def per_request(latencies, size):
    """The median latency of each request of the set over its servings, so
    that every request counts once however far the last pass got."""
    servings = [latencies[k::size] for k in range(size)]
    return [statistics.median(times) for times in servings]


def timings(setup, latencies):
    """setup_s, req_per_s, req_p50_ms and req_p90_ms from times in seconds,
    one latency per request of the set."""
    lat = sorted(1000.0 * t for t in latencies)
    return {"setup_s": statistics.median(setup),
            "req_per_s": 1000.0 * len(lat) / sum(lat),
            "req_p50_ms": statistics.median(lat),
            "req_p90_ms": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]}


def end_to_end(args, main):
    setup_raw, setup = measure_setup()
    requests = workloads.request_set(args.workload, args.seed)
    serve(main, requests[0])  # first call in the process, untimed
    served, probes, busy = closed_loop(main, requests, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    size = len(requests)
    verdicts, failed, unexpected, planted, rejected = judge(args.workload, served, size)
    n = len(served)
    latencies = [s[4] for s in served]
    raw = timings(setup_raw, per_request(latencies, size))
    metrics = timings(setup, per_request(calibrate.at_reference(probes, latencies), size))
    metrics["ok_frac"] = (size - failed) / size
    metrics["peak_rss_mb"] = peak_rss_mb
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{busy:.2f} s timed, {n} requests served from a set of {size}; "
          f"times at reference speed, machine at {calibrate.speed(probes):.3f} of it "
          f"(raw: {', '.join(f'{k} {v:.6g}' for k, v in raw.items())})")
    samples = {"setup_s": len(setup), "req_p90_ms": size, "req_p50_ms": size,
               "req_per_s": size, "ok_frac": size, "peak_rss_mb": 1}
    for name, value in metrics.items():
        print(f"  {name:12s} {value:14.6g} {END_TO_END_UNITS[name]:6s} samples {samples[name]}")
    print(f"  fail_frac    {failed / size:14.6g} ratio  failed {failed} of {size}")
    print_failures(args.workload, served, verdicts)
    return size, failed, unexpected, planted, rejected, {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def per_layer(args, main):
    requests = workloads.request_set(args.workload, args.seed)
    serve(main, requests[0])
    served, probes, _ = closed_loop(main, requests, TRACE_SHARE * args.seconds)
    tracer = Tracer()
    tracer.install()
    try:  # the set once more, traced
        replayed, replay_probes, _ = closed_loop(
            lambda argv: sys.modules["sliceregular.cli"].main(argv), requests, 0.0, tracer)
    finally:
        tracer.uninstall()
    m = len(replayed)
    # both passes at the reference speed, over the same m requests
    untraced_lat = [s[4] for s in served[:m]]
    untraced = sum(calibrate.at_reference(probes[:m + 1], untraced_lat))
    traced_lat = [s[4] for s in replayed]
    traced = sum(calibrate.at_reference(replay_probes, traced_lat))
    speed = traced / sum(traced_lat)  # for layer times: the replay's mean factor
    changed = sum((a[1], a[2]) != (b[1], b[2]) for a, b in zip(served, replayed))
    verdicts, failed, unexpected, planted, rejected = judge(args.workload, served, m)
    roots = [v for v in verdicts if "degree" in v]
    points = sum(len(json.loads(request["stdin"]).get("points", ()))
                 for request, *_ in replayed if request["stdin"])
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("cli.main", "serialize.decode", "serialize.encode", "expr.evaluate",
                 "expr.star_eval", "expr.conj_eval", "expr.symm_eval", "expr.recip_eval",
                 "polynomial.evaluate", "polynomial.star_poly",
                 "extension.sphere_affine_coeffs", "representation.symmetric_completion",
                 "representation.general_representation", "zeros.aberth_roots",
                 "zeros.poly_roots", "zeros.sphere_zero_classify",
                 "verify.check_grf_invariance", "verify.check_identity_suite",
                 "verify.check_extension_roundtrip"):
        put(f"{name}.self_s", tracer.layer(name)[1] * speed / m, "s/req")
    for name in ("expr.evaluate", "polynomial.evaluate"):
        put(f"{name}.calls_per_point", tracer.layer(name)[0] / points if points else 0.0,
            "1/point")
    put("expr.recip_eval.singular", tracer.layer("expr.recip_eval")[2] / m, "1/req")
    put("zeros.aberth_roots.failed", tracer.layer("zeros.aberth_roots")[2] / m, "1/req")
    put("extension.sphere_affine_coeffs.calls",
        tracer.layer("extension.sphere_affine_coeffs")[0] / m, "1/req")
    for name in ("quaternion.mul", "quaternion.add", "quaternion.slice_coords",
                 "quaternion.orthogonal_unit"):
        put(f"{name}.calls", tracer.counts.get(name, 0) / m, "1/req")
    degree = sum(v["degree"] for v in roots)
    returned = sum(v["returned"] for v in roots)
    put("zeros.zeros_found_frac", sum(v["counted"] for v in roots) / degree if degree else 0.0,
        "ratio")
    put("zeros.none_frac", sum(v["none"] for v in roots) / returned if returned else 0.0,
        "ratio")
    put("trace.overhead", traced / untraced, "ratio")

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    tracer.write_spans(spans_path)
    print(f"workload {args.workload}  seed {args.seed}  traced replay of the set of {m} "
          f"after {len(served)} untraced requests: {traced:.2f} s traced against "
          f"{untraced:.2f} s untraced (untraced {m / untraced:.4g} req/s, "
          f"traced {m / traced:.4g} req/s)")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    print_failures(args.workload, served, verdicts)
    if changed:
        print(f"  UNEXPECTED tracing changed {changed} answers")
        unexpected = unexpected + [{"kind": "traced-answer-differs"}] * changed
    return m, failed, unexpected, planted, rejected, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "sliceregular", "cli.py")):
        print(f"error: no package source at {SRC}/sliceregular; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sliceregular.cli as cli  # noqa: E402  (after the source check)

    run = per_layer if args.trace else end_to_end
    attempted, failed, unexpected, planted, rejected, metrics = run(args, cli.main)
    plant_name = oracle.PLANTS[args.workload][0]
    print(f"planted defect ({plant_name}): rejected {rejected} of {planted}")
    correct = not unexpected and planted > 0 and rejected == planted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
