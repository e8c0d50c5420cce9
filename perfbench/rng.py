"""SplitMix64 stream for the benchmark's inputs.

The benchmark keeps its own generator so that the inputs of a seed do not
change when the package's generator changes.
"""

import math

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def fork(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def chance(self, p: float) -> bool:
        return self.uniform() < p

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def gauss(self) -> float:
        u1 = max((self.next_u64() >> 11) * 2.0 ** -53, 2.0 ** -53)
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def quaternion(self, scale: float = 1.0):
        return tuple(scale * self.gauss() for _ in range(4))

    def unit(self):
        """Uniform imaginary unit as a 4-tuple (0, u1, u2, u3)."""
        while True:
            v = (self.gauss(), self.gauss(), self.gauss())
            n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            if n > 1e-6:
                return (0.0, v[0] / n, v[1] / n, v[2] / n)
