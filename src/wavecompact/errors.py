"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid construction parameters or experiment configuration."""


class ContractViolation(ValueError):
    """An operation was called with inputs outside its contract."""


class UnstableMeshError(ContractViolation):
    """The mesh violates the time-step restriction a^2 tau^2 <= (1 - eps0^2/2) h^2."""


class MeshTooCoarseError(ContractViolation):
    """The mesh cannot host the requested oscillation frequency."""

    def __init__(self, message: str, minimal_n: int | None = None):
        super().__init__(message)
        self.minimal_n = minimal_n


class InvariantError(RuntimeError):
    """An internal invariant that should hold by construction was violated."""
