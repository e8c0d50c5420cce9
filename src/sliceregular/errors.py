"""Exception hierarchy shared across the package."""


class SliceRegularError(Exception):
    """Base class for all domain-level errors raised by this package."""


class NotASlicePoint(SliceRegularError):
    """The point is (numerically) real, so its imaginary unit is undefined."""


class DomainError(SliceRegularError):
    """A point lies outside the declared domain of a function."""


class SingularPoint(SliceRegularError):
    """Evaluation hit the zero set of a symmetrization (or kernel denominator).

    Carries the sphere ``(x, y)`` on which the singularity was detected.
    """

    def __init__(self, message, x=None, y=None):
        super().__init__(message)
        self.x = x
        self.y = y


class ZeroBase(SliceRegularError):
    """The composition form of the star product needs a nonzero left factor."""


class RealTraceMismatch(SliceRegularError):
    """The two slice data of an extension disagree on the real axis."""


class DegenerateUnits(SliceRegularError):
    """Two imaginary units that must differ are (numerically) equal."""


class DomainNotSymmetric(SliceRegularError):
    """A stem domain is not symmetric with respect to the real axis."""


class NoRealTrace(SliceRegularError):
    """A stem domain does not meet the real axis."""


class NonConvergence(SliceRegularError):
    """The simultaneous root iteration did not converge.

    ``partial`` holds whatever root approximations were reached.
    """

    def __init__(self, message, partial=()):
        super().__init__(message)
        self.partial = tuple(partial)


class NonFiniteValue(SliceRegularError):
    """A computed value left the range of finite doubles, which JSON cannot carry."""


class CenterMismatch(SliceRegularError):
    """Coefficient arithmetic requires polynomials with the same real center."""
