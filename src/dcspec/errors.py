"""Exception hierarchy shared by all dcspec modules.

The CLI maps these onto process exit codes: input, domain and precondition
problems exit with 2, numerical failures with 3, degenerate spectra with 4.
"""


class DcspecError(Exception):
    """Base class for all dcspec errors."""


class SymbolSchemaError(DcspecError):
    """A symbol file or coefficient table violates the input schema."""


class PreconditionError(DcspecError):
    """A documented mathematical precondition does not hold for the input."""


class DeltaTooLargeError(PreconditionError):
    """Deformation size exceeds the spectral-radius feasibility bound."""


class DomainError(PreconditionError):
    """A scalar parameter is non-finite or lies outside the domain where the
    formulas make sense (for example h too large for loglog(1/h) > 0)."""


class InvalidPhaseError(PreconditionError):
    """Second-derivative blocks do not define an admissible transform phase
    (Im of the y-block not positive definite, or singular mixed block)."""


class SingularBlockError(PreconditionError):
    """The upper-right block of a candidate map is singular, so no generating
    phase exists."""


class NotCanonicalError(PreconditionError):
    """A block map fails the canonicity conditions beyond tolerance."""


class NotFbiPhaseError(PreconditionError):
    """The map is canonical with invertible block, but the recovered phase
    fails the positivity requirement Im (y-block) > 0."""


class NumericalFailureError(DcspecError):
    """An iterative numerical procedure failed to converge."""


class DegenerateSpectrumError(DcspecError):
    """The Hamilton matrix has (near-)real eigenvalues or a wrong count of
    stable ones, so the spectral lattice is not well defined."""
