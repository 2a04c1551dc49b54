"""Exception types shared across the package."""


class BiaError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSchemeError(BiaError):
    """Raised for user counts where the construction degenerates (K < 3)."""


class ConstructionFailedError(BiaError):
    """Raised when the pair-product reference family
    (designspace.make_pattern_matrix) fails its exact certificate: no
    candidate certifies every receiver for K <= 4, or the K >= 5 family
    loses its product rank."""


class UnverifiableDrawError(BiaError):
    """Raised by the zero-forcing decoder when the combined receive matrix is
    rank deficient, so the desired symbols cannot all be separated from
    interference for this draw."""
