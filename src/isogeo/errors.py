"""Exception types shared across the package."""


class IsogeoError(Exception):
    """Base class for all toolkit errors."""


class BeyondHorizon(IsogeoError):
    """A query or index lies past the truncation horizon of the data."""


class QueryBeyondHorizon(BeyondHorizon):
    """A length query exceeds a spectrum's horizon."""


class HorizonMismatch(IsogeoError):
    """Two spectra cannot be compared because their horizons differ."""


class MixedBases(IsogeoError):
    """Exact divisibility cannot be applied: lengths live on different grids."""


class InexactLength(IsogeoError):
    """An operation requiring exact arithmetic received a non-exact length."""


class NotMinimal(IsogeoError):
    """The given length is not minimal in the support of the table."""


class PrimeCollision(IsogeoError):
    """The chosen odd prime multiple collides with another minimal length."""


class RatioIsInteger(IsogeoError):
    """The two lengths are integer multiples of one another."""


class TooLarge(IsogeoError):
    """The requested enumeration is over the configured cap."""


class IncompatibleRotation(IsogeoError):
    """The rotation order does not act on the given lattice."""


class MalformedRelation(IsogeoError):
    """A spectral relation is syntactically or semantically invalid."""


class NotTranslating(IsogeoError):
    """The isometry has no translation length (not hyperbolic or glide)."""


class EmptyGenerators(IsogeoError):
    """Word enumeration needs at least one generator."""


class InvariantViolation(IsogeoError):
    """An internal invariant failed: a defect in the toolkit, not in the input."""
