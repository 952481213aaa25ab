"""Exception and warning types shared across the package."""


class StripwaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(StripwaveError, ValueError):
    """An argument is outside its documented range."""


class PreconditionError(StripwaveError, ValueError):
    """A mathematical precondition of an operation is violated.

    Examples: a potential dips below the invertibility threshold, or a
    frequency split is too low for the Neumann-series argument to apply.
    """


class InsufficientDataError(StripwaveError, ValueError):
    """Too few usable data points for an estimation procedure."""


class SolverFailureError(StripwaveError, RuntimeError):
    """A linear or nonlinear solve failed."""


class NonconvergenceError(SolverFailureError):
    """Newton iteration did not converge; carries the residual history."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


class StiffnessError(SolverFailureError):
    """The ODE integrator's step size underflowed before any stop condition."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NoCrossingError(StripwaveError, ValueError):
    """A requested level is never reached by a trajectory."""


class ConfigError(StripwaveError, ValueError):
    """An experiment configuration failed to parse or validate."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class BranchPointWarning(UserWarning):
    """Evaluation requested too close to a branch point of a closed form."""
