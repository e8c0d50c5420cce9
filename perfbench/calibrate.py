"""Calibration of reported times against the speed of the machine.

On a shared host the speed of this process drifts by tens of percent over
tens of seconds with the load of other tenants, and every raw time drifts
with it: 20-second windows of one fixed request cycle differed by 15-30%
(quartile spread over median) in throughput.  The load also comes in
bursts: one extend request took 57 ms in one serving, and its raster
step alone 82 ms in the next.  So a fixed piece of benchmark arithmetic is
timed between the requests of a run, and each request's raw time t is
reported as

    t * REFERENCE_PROBE_S / (mean of the probe times just before and after it),

the time it would have taken at the reference speed.  Over five seeds per
workload, this cut the spread of the latency metrics against one factor for
the whole run (the median probe time) on most workload-metric pairs, from
up to 0.11 to at most 0.085, and widened none by more than 0.015.  The
probe is benchmark code, identical on every commit, so a change to the
package moves reported times exactly as it moves raw ones.

Of the probes tried (quaternion Horner on frozen dataclasses, a raster
flood fill, complex Horner with a root-finder's reciprocal sum), the complex
one tracked the package best on every workload: it cut the spread of
20-second windows to about 0.08 where the others left 0.16-0.3.
"""

import statistics
import time

from rng import SplitMix64

# A typical probe time on the machine the benchmark was defined on: a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest shared with other tenants, CPython 3.11.
REFERENCE_PROBE_S = 3.0e-4

_rng = SplitMix64(0xCA11B)
_COEFFS = [complex(_rng.gauss(), _rng.gauss()) for _ in range(40)]
_POINTS = [0.5 * complex(_rng.gauss(), _rng.gauss()) for _ in range(20)]


def probe() -> float:
    """Seconds for one fixed round of complex Horner evaluations, each with
    its derivative and an Aberth-style sum of reciprocals."""
    start = time.perf_counter()
    for z in _POINTS:
        p, dp = _COEFFS[-1], 0j
        for c in reversed(_COEFFS[:-1]):
            dp = dp * z + p
            p = p * z + c
        sum(1.0 / (z - w) for w in _POINTS if w != z)
    return time.perf_counter() - start


def speed(probes: list[float]) -> float:
    """The machine's speed as a share of the reference, from the median
    probe time."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def at_reference(probes: list[float], latencies: list[float]) -> list[float]:
    """Latencies of a closed loop at the reference speed: probes[k] ran
    before request k and probes[k + 1] after it."""
    return [t * 2.0 * REFERENCE_PROBE_S / (probes[k] + probes[k + 1])
            for k, t in enumerate(latencies)]
