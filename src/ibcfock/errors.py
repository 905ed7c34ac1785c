"""Exception types raised across the package.

Every guard that a caller might reasonably want to catch gets a named class;
plain ValueError is reserved for malformed arguments (wrong shapes, unknown
enum strings and the like).
"""


class IbcFockError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------- model


class EckmannMassless(IbcFockError):
    """Eckmann-type form factor requested with mu = 0 (needs mu > 0)."""


class MasslessNucleon(IbcFockError):
    """Kinematic bound constant is undefined for mu = 0."""


class ConditionCViolated(IbcFockError):
    """Exponents fall outside the admissible ultraviolet-degree window."""


class EpsilonTooLarge(IbcFockError):
    """Margin epsilon exceeds what the exponent family construction allows."""


# ---------------------------------------------------------------- fockgrid


class EvenAxisCount(IbcFockError):
    """Momentum grids need an odd number of points per axis (center at 0)."""


class DimensionMismatch(IbcFockError):
    """Nucleon and boson grids must share the spatial dimension d."""


class BasisTooLarge(IbcFockError):
    """Enumerated basis would exceed the configured size cap."""


class BasisMismatch(IbcFockError):
    """Operators or vectors built over different bases were combined."""


# ---------------------------------------------------------------- quad


class QuadNotConverged(IbcFockError):
    """Adaptive quadrature could not reach the requested tolerance."""


class ExponentWindowViolated(IbcFockError):
    """Scaling-integral exponents outside the integrability window."""


# ---------------------------------------------------------------- ops


class MasslessWithoutShift(IbcFockError):
    """m_boson = 0 assembly requires a positive spectral shift lambda."""


class StructureViolated(IbcFockError):
    """The kept part of the boundary route stores no entry on some
    diagonal position, where the diagonals are added in place."""


# ---------------------------------------------------------------- spectral


class NotConverged(IbcFockError):
    """Iterative eigensolver / power iteration exhausted its budget."""


class SolveNotConverged(IbcFockError):
    """Iterative linear solve exhausted its budget."""


class InsufficientPoints(IbcFockError):
    """A fit was requested with fewer data points than parameters."""
