"""Polynomial passes per point of the CLI over the seed-1 eval-nested and check requests.

    python3 .github/work_counts.py SRC [BASE_SRC]

Serves each request of seed 1 of the eval-nested and check workloads in
``perfbench/`` once, in-process, through ``perfbench/run.py::serve`` with
the package imported from SRC, and counts the calls of the
``SlicePolynomial`` methods in PASSES that SRC has: each reads the
coefficients at one point.  A call made inside another counted call is not
counted again.  A point is one of an eval request's points, or one of a
check request's ``--samples``.  Prints per workload the passes, the points
and the passes per point.  With BASE_SRC it prints a Markdown table of both.
Unlike timings, the counts repeat exactly.  It reports and never fails.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no cache in perfbench/ or the checkouts

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("eval-nested", "check")
PASSES = ("evaluate", "evaluate_with_majorant", "stem", "stem_with_majorant", "scaled_majorant")


def counts(src):
    sys.path[:0] = [os.path.abspath(src), BENCH]
    import run
    import workloads
    import sliceregular.cli as cli
    from sliceregular.polynomial import SlicePolynomial
    passes, depth = [0], [0]

    def counted(method):
        def wrapper(*args, **kwargs):
            passes[0] += not depth[0]
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in PASSES:
        if hasattr(SlicePolynomial, name):
            setattr(SlicePolynomial, name, counted(getattr(SlicePolynomial, name)))
    for name in WORKLOADS:
        passes[0] = points = 0
        for request in workloads.request_set(name, 1):
            argv = request["argv"]
            if "--samples" in argv:
                points += int(argv[argv.index("--samples") + 1])
            else:
                points += len(json.loads(request["stdin"]).get("points", ()))
            run.serve(cli.main, request)
        print(name, passes[0], points, flush=True)


def table(src, base):
    runs = [subprocess.run([sys.executable, __file__, d], capture_output=True, text=True)
            for d in (src, base)]
    head, prior = ({w: tuple(map(int, n)) for w, *n in map(str.split, r.stdout.splitlines())}
                   for r in runs)
    print("| workload | points | passes, base | passes, head | per point, base | per point, head |")
    print("|---|---|---|---|---|---|")
    for name in WORKLOADS:
        old, new = (side.get(name, (0, 0)) for side in (prior, head))
        n = old[1] or new[1]
        per = (f"{p / n:.3f}" if n else "?" for p, _ in (old, new))
        print(f"| {name} | {n} | {old[0]} | {new[0]} | {' | '.join(per)} |")
    for side, r in zip(("head", "base"), runs):
        if r.returncode:
            print(f"\nThe {side} run failed: `{(r.stderr.strip().splitlines() or ['?'])[-1]}`")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        counts(sys.argv[1])
    else:
        table(sys.argv[1], sys.argv[2])
