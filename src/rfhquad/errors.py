"""Exception hierarchy shared across the package.

Three failure classes, mirrored by the CLI exit codes: bad input data
(exit 1), a numerical procedure that cannot produce a trustworthy answer
(exit 2), and an internal cross-check that disagrees with itself (exit 3).
"""


class RfhquadError(Exception):
    """Base class for all package-specific errors."""


class InputError(RfhquadError):
    """Invalid input: wrong shapes, incompatible parameters, bad documents."""


class NumericalError(RfhquadError):
    """A numerical routine hit a regime it cannot resolve at tolerance."""


class InternalError(RfhquadError):
    """Two independent computations of the same quantity disagree."""


class ClusterAmbiguous(NumericalError):
    """Eigenvalue clusters overlap at the chosen radius."""


class DegenerateInput(InputError):
    """A matrix required to be nondegenerate has a numerical kernel."""


class DegenerateRestriction(NumericalError):
    """A restricted quadratic form has a numerical kernel."""


class CrossingDegenerate(NumericalError):
    """A crossing form is degenerate; the index formula does not apply."""


class GammaUndetermined(NumericalError):
    """Krein sign extraction undefined: imaginary eigenvalue with a
    Jordan block of size larger than one."""


class IncompatibleEigenvalue(InputError):
    """Eigenvalue data incompatible with the requested block kind."""


class CensusOverflow(InputError):
    """Action window produces more orbit families than the census cap."""


class SignatureMismatch(InternalError):
    """Closed-form block signature disagrees with the numerical one."""


class ResonanceMismatch(InternalError):
    """Resonance count and the frequencies resonant by their phases disagree."""


class NonIntegerResult(InternalError):
    """A quantity that must be an integer came out half-integral."""


class Underdetermined(RfhquadError):
    """Exact-sequence constraints do not pin down every unknown."""


class Inconsistent(RfhquadError):
    """Exact-sequence constraints admit no solution."""
