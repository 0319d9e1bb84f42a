"""Exception types shared across the package.

Cap overruns are first-class results of a deliberately bounded computation,
not bugs, so they get their own exception carrying the offending cap.
Errors that only bad input can cause also derive from ``ValueError``, which
the command line reports as an input error (exit 5).
"""


class GLatticeError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(GLatticeError):
    """An enumeration grew past the configured cap."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded cap {cap}")
        self.what = what
        self.cap = cap


class NonUnimodularGenerator(GLatticeError, ValueError):
    """A group generator is not invertible over the integers."""


class NotASublattice(GLatticeError):
    """Containment check failed in an index computation."""


class NotInLattice(GLatticeError, ValueError):
    """A vector expected to lie in a lattice does not."""


class NotGStable(GLatticeError, ValueError):
    """A lattice is not stable under the given group action."""


class InvalidRank(GLatticeError):
    """Root system rank outside the family's validity range."""


class KindUnavailable(GLatticeError):
    """Requested named lattice does not exist for this root system."""


class NotOddPrime(GLatticeError, ValueError):
    """Argument must be an odd prime."""


class HypothesisNotMet(GLatticeError):
    """Structural hypothesis of a reduction step fails for this input."""


class NotPrimePower(GLatticeError):
    """Argument must be a prime power."""


class InvalidCase(GLatticeError):
    """Unknown case label in an inequality check."""


class HorizonTooSmall(GLatticeError, ValueError):
    """Threshold scan ran out of primes before the inequality held."""


class UnknownFormula(GLatticeError, ValueError):
    """A data record references a formula id with no registered evaluator."""


class MissingExternalData(GLatticeError):
    """A verification needs externally supplied data that was not found."""
