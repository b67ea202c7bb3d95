"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A tensor operation would exceed the configured dimension cap."""


class NonHermitianError(ValueError):
    """A matrix expected to be Hermitian deviates beyond tolerance."""


class PlanError(ValueError):
    """Trotter plan parameters are unusable (e.g. some |delta| >= 1)."""


class ExtinctionError(RuntimeError):
    """A post-selection or normalization probability vanished numerically;
    ``probability`` is the value when it is one measurement's, else None."""

    def __init__(self, message: str, probability: float | None = None):
        super().__init__(message)
        self.probability = probability


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
