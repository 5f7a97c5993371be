"""Exception types shared across the package."""


class NclpError(Exception):
    """Base class for all errors raised by this package."""


class SpecFileError(NclpError):
    """A problem in an input document (bad field, wrong shape, parse failure)."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class NotHermitian(NclpError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(NclpError):
    """Input matrix is not positive semidefinite within tolerance."""


class SingularNegativePower(NclpError):
    """Negative power requested for a singular positive matrix."""


class BadExponent(NclpError):
    """Exponent outside [1, inf]."""


class ProfileMismatch(NclpError):
    """Block profiles of the operands do not match."""


class NotFaithful(NclpError):
    """Operation requires a faithful weight (positive definite density)."""


class InvalidMorphism(NclpError):
    """Supplied data does not define a Jordan *-morphism."""


class NoConvergence(NclpError):
    """An iterative procedure failed to stabilise (numerical breakdown)."""


class ExponentMismatch(NclpError):
    """Exponents of the operands do not fit the requested relation."""


class ExponentOrder(NclpError):
    """Requested exponent pair violates q <= p."""


class RatioMismatch(NclpError):
    """Exponent pair does not realise the requested ratio p/q."""


class NotModuleMap(NclpError):
    """The map is not a module homomorphism; recovery of a multiplier failed."""

    def __init__(self, residual, tolerance, witness=None):
        self.residual = residual
        self.tolerance = tolerance
        self.witness = witness
        super().__init__(
            f"module residual {residual:.3e} exceeds tolerance {tolerance:.3e}"
        )


class DominationFails(NclpError):
    """No finite constant C with phi2 o j <= C * phi_B on the probe basis."""


class NotCommuting(NclpError):
    """Weights (or their densities) do not commute."""


class NotSummable(NclpError):
    """Densities do not add up to the claimed total."""


class NotFinite(NclpError):
    """A result is not a finite number, so a machine report cannot carry it."""


class TooLarge(NclpError):
    """Problem size exceeds the exact-enumeration limit."""
