"""Exception types shared across the package."""


class RisDeployError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(RisDeployError, ValueError):
    """An argument violates a documented precondition."""


class SceneFormatError(RisDeployError, ValueError):
    """A scene or config file is malformed; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class InfeasibleCoverageError(RisDeployError):
    """Candidate regions cannot cover the requested cells."""

    def __init__(self, orphan_cells):
        self.orphan_cells = sorted(orphan_cells)
        super().__init__(f"cells not coverable by any candidate: {self.orphan_cells}")


class NoPathError(RisDeployError):
    """A link has no propagation path at all."""


class UnobservablePathError(RisDeployError):
    """Sensing path coefficient is zero; the FIM is singular."""


class UnreachableTargetsError(RisDeployError):
    """No orientation inside the bounds reaches any target."""


class SizeCapError(UnreachableTargetsError):
    """A RIS needs a larger panel than `size_cap` allows at this placement."""


class InfeasiblePowerError(RisDeployError):
    """Power allocation request cannot be satisfied."""


class UnsupportedDelayError(RisDeployError):
    """Path delay exceeds the OFDM symbol duration."""


class EstimationFailureError(RisDeployError):
    """Position estimation did not converge."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")
