"""Exception types raised across the package.

Every guard that a caller might reasonably want to catch gets a named class;
plain ValueError is reserved for malformed arguments (wrong shapes, unknown
enum strings and the like).
"""


class IbcFockError(Exception):
    """Base class for all package-specific errors."""


class ConditionFailure(IbcFockError):
    """The model or the assembly violates an analytic condition."""


class NonConvergence(IbcFockError):
    """A numerical method exhausted its budget short of its tolerance."""


# ---------------------------------------------------------------- model


class EckmannMassless(ConditionFailure):
    """Eckmann-type form factor requested with mu = 0 (needs mu > 0)."""


class MasslessNucleon(ConditionFailure):
    """Kinematic bound constant is undefined for mu = 0."""


class ConditionCViolated(ConditionFailure):
    """Exponents fall outside the admissible ultraviolet-degree window."""


class EpsilonTooLarge(ConditionFailure):
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


class QuadNotConverged(NonConvergence):
    """Adaptive quadrature could not reach the requested tolerance."""


class ExponentWindowViolated(IbcFockError):
    """Scaling-integral exponents outside the integrability window."""


# ---------------------------------------------------------------- ops


class MasslessWithoutShift(ConditionFailure):
    """m_boson = 0 assembly requires a positive spectral shift lambda."""


class StructureViolated(IbcFockError):
    """The kept part of the boundary route stores no entry on some
    diagonal position, where the diagonals are added in place."""


# ---------------------------------------------------------------- spectral


class NotConverged(NonConvergence):
    """Iterative eigensolver / power iteration exhausted its budget."""


class SolveNotConverged(NonConvergence):
    """Iterative linear solve exhausted its budget."""


class InsufficientPoints(IbcFockError):
    """A fit was requested with fewer data points than parameters."""
