"""Exception types shared across the package."""


class SliceRegError(Exception):
    """Base class for all package-specific errors."""


class NotInvertibleAtZero(SliceRegError):
    """Series has (numerically) vanishing constant term, no *-inverse at 0."""


class OutsideConvergence(SliceRegError):
    """Evaluation point is outside the certified convergence radius."""


class RealPoint(SliceRegError):
    """Spherical derivative requested at a (numerically) real point."""


class InconsistentDivision(SliceRegError):
    """Left linear division residual above tolerance."""


class SingularDenominator(SliceRegError):
    """A Moebius or bullet denominator 1 - q*conj(p) numerically vanishes."""


class SingularPoint(SliceRegError):
    """Evaluation hit the singular sphere of a *-inverse node."""


class NotHermitian(SliceRegError):
    """Matrix fails the Hermitian invariant."""


class AmbiguousBoundary(SliceRegError):
    """A Q-table cell modulus falls inside the boundary tolerance band."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class KindMismatch(SliceRegError):
    """Solution builder called with an incompatible SolutionKind."""


class NotSelfMap(SliceRegError):
    """Sampled function values leave the closed unit ball."""


class DegenerateAtZero(SliceRegError):
    """Dieudonne bound requested at q0 = 0."""
