"""Exception types, and the mixin of checked records, shared across the
package."""


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


class _Checked:
    """Mixin of a record whose fields its ``_check`` validates.

    A record lists the mixin before the NamedTuple of its fields.  Every way
    to build it runs the check: the constructor, ``_make``, and ``_replace``,
    which builds through ``_make``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
