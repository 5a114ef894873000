"""Exception hierarchy for the baylime toolkit."""

from __future__ import annotations


class BaylimeError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(BaylimeError, ValueError):
    """A caller-supplied value is malformed (non-finite, empty, wrong kind)."""


class ConfigError(InvalidInputError):
    """A configuration object violates its contract."""


class ShapeError(InvalidInputError):
    """Array dimensions do not line up."""


class ProbeError(BaylimeError):
    """Querying the black-box model failed.

    ``payload`` carries the raw response (or stderr tail) that triggered the
    failure, for diagnosis.
    """

    def __init__(self, message: str, payload: object = None):
        super().__init__(message)
        self.payload = payload


class ContractViolationError(ProbeError):
    """The model answered, but the answer breaks the predictor contract."""


class FitError(BaylimeError):
    """The surrogate regression could not be fitted."""


class SingularityError(FitError):
    """An unregularized normal-equations system is rank deficient."""


class ConvergenceError(FitError):
    """Hyperparameter fitting did not converge; carries the last iterate."""

    def __init__(self, message: str, alpha: float | None = None,
                 lam: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.alpha = alpha
        self.lam = lam
        self.iterations = iterations


class DecompositionError(FitError):
    """The prior/data split of a posterior mean is unavailable: the
    posterior precision is not positive definite."""


class UndefinedMetricError(BaylimeError):
    """A metric has no defined value for the given inputs."""
