"""Exception types shared across the package."""

from __future__ import annotations


class FermatLatticeError(Exception):
    """Base class for all package errors."""


class IncompatibleRingError(FermatLatticeError):
    """Operands live in different group rings or cyclotomic rings."""


class WrongSymmetryError(FermatLatticeError):
    """Operation requires the other symmetry type (symmetric vs antisymmetric)."""


class DegenerateLatticeError(FermatLatticeError):
    """Operation requires a nondegenerate pairing."""


class IndefiniteLatticeError(FermatLatticeError):
    """Operation requires a definite lattice."""


class InvalidGlueError(FermatLatticeError):
    """Glue vectors do not pair integrally with the glued components."""


class ResourceBoundError(FermatLatticeError):
    """Requested construction exceeds the configured size bound."""


class PrimalityRangeError(ResourceBoundError):
    """A number past the range where primality is proven, not guessed."""


class VerificationError(FermatLatticeError):
    """An internal invariant asserted by the construction failed."""


class EmptyFormError(FermatLatticeError):
    """Operation requires a nonzero homogeneous form."""


class NonUniqueError(FermatLatticeError):
    """A uniqueness requirement of the operation is violated."""
