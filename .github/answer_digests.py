"""Digests of the CLI's answers to every benchmark request of seeds 1-10.

    python3 .github/answer_digests.py SRC [BASE_SRC]

Serves each request of seeds 1-10 of every workload in ``perfbench/`` once,
in-process, through ``perfbench/run.py::serve`` with the package imported
from SRC, and prints per workload the sha256 of repr((code, stdout, stderr))
over the requests in order; of a crash's traceback only its last line
counts.  With BASE_SRC it prints a Markdown table of both digests, marks
each workload whose answers changed and names a run that failed.  It
reports and never fails: a change of answers can be intended.
"""

import hashlib
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no cache in perfbench/ or the checkouts

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def digests(src):
    sys.path[:0] = [os.path.abspath(src), BENCH]
    import run
    import workloads
    import sliceregular.cli as cli
    for name in workloads.WORKLOADS:
        h = hashlib.sha256()
        for seed in range(1, 11):
            for request in workloads.request_set(name, seed):
                code, out, err, _ = run.serve(cli.main, request)
                if code == "traceback":  # its last line: the frames name paths of this checkout
                    err = err.rstrip().rsplit("\n", 1)[-1]
                h.update(repr((code, out, err)).encode())
        print(name, h.hexdigest(), flush=True)


def table(src, base):
    runs = [subprocess.run([sys.executable, __file__, d], capture_output=True, text=True)
            for d in (src, base)]
    head, prior = (dict(line.split() for line in r.stdout.splitlines()) for r in runs)
    print("| workload | base | head | |\n|---|---|---|---|")
    for name in {**head, **prior}:
        new, old = head.get(name, "missing"), prior.get(name, "missing")
        print(f"| {name} | `{old}` | `{new}` | {'changed' if new != old else 'same'} |")
    for side, r in zip(("head", "base"), runs):
        if r.returncode:
            print(f"\nThe {side} run failed: `{(r.stderr.strip().splitlines() or ['?'])[-1]}`")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        digests(sys.argv[1])
    else:
        table(sys.argv[1], sys.argv[2])
