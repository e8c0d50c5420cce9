"""Shared helpers for the test suite."""

from sliceregular import Quaternion


def qnorm(a: Quaternion, b: Quaternion) -> float:
    """Euclidean distance between two quaternions."""
    return (a - b).norm()


def assert_close(a: Quaternion, b: Quaternion, tol: float = 1e-12):
    d = qnorm(a, b)
    assert d <= tol, f"{a} != {b} (distance {d:.3e} > {tol:.1e})"


def reference_kernel(s: Quaternion, q: Quaternion) -> Quaternion:
    """The slice Cauchy kernel in closed form, (q^2 - 2 Re(s) q + |s|^2)^{-1}
    (q - conj(s)), written out with Quaternion operators: it shares no code
    with the regular reciprocal that ``cauchy_kernel`` evaluates."""
    d = q * q - (2.0 * s.re()) * q + Quaternion(s.norm_sq())
    return d.conjugate() * (1.0 / d.norm_sq()) * (q - s.conjugate())
