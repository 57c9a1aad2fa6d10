"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class UnsupportedDistributionError(ParameterError):
    """The requested closed form is not available for this position distribution."""


class InfeasibleLinkError(RuntimeError):
    """Spectral efficiency is zero or negative; no finite upload time exists."""


class DivergenceError(RuntimeError):
    """A training run's loss became non-finite."""


class OutOfRegimeError(ParameterError):
    """A high-SNR expansion was evaluated below its validity threshold."""


class ConfigError(ValueError):
    """A run configuration failed validation; the message names the offending key."""
