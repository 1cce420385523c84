"""Exception types shared across the package."""


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)  # sets exc.args; __init__ is not called
    exc.__dict__.update(state)
    return exc


class Kg5dError(Exception):
    """Base class for all package errors.

    Pickles by its ``args`` and attributes, never by calling ``__init__``
    again, so a subclass with its own constructor survives the round trip
    that carries a forked worker's exception back (``numerics.beside``).
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class ConfigurationError(Kg5dError):
    """Invalid run configuration: bad flags, bad config keys, unusable parameters."""


class ToleranceError(ConfigurationError, ValueError):
    """Unusable stopping tolerances: negative, both zero, or no iterations."""


class BracketingError(Kg5dError):
    """Root bracket does not contain a sign change."""


class NonConvergenceError(Kg5dError):
    """An iterative scheme ran out of budget.

    Carries the best estimate produced so far and a bound on its error so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class QuadratureError(NonConvergenceError):
    """Adaptive quadrature exceeded its subdivision budget."""


class IntegrandError(Kg5dError, ValueError):
    """A quadrature integrand returned a non-finite value."""


class IntervalError(Kg5dError, ValueError):
    """Reversed integration interval or root bracket, or ends of unequal shapes."""


class SeriesBoundError(Kg5dError, ValueError):
    """A series tail bound evaluated to a negative or non-finite value."""


class GridSizeError(Kg5dError):
    """A sampled field is too small for the requested stencil."""


class StencilError(Kg5dError, ValueError):
    """Finite-difference derivative of an unsupported order or with a non-positive step."""


class OrderFitError(Kg5dError, ValueError):
    """A convergence-order fit was given fewer than two resolutions."""


class DomainError(Kg5dError):
    """Input outside the mathematical domain of an operation."""


class GaugeError(Kg5dError):
    """Electromagnetic potential does not satisfy the required gauge condition."""


class TurningPointError(DomainError):
    """Asymptotic evaluation requested inside the excluded turning-point band."""


class LaguerreOverflowError(Kg5dError):
    """Laguerre recurrence left the representable floating-point range."""

    def __init__(self, n, x, message=None):
        self.n = n
        self.x = x
        super().__init__(message or f"Laguerre recurrence overflowed at n={n}, x={x}")


class WorkerError(Kg5dError):
    """A forked worker ended without sending back its result."""


class VerificationFailure(Kg5dError):
    """A verification command found residuals above its configured tolerance."""
