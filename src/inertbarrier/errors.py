"""Exception types that map onto the command-line exit codes."""


class InvalidInputError(ValueError):
    """Bad arguments, malformed config, or data violating a precondition."""


class NumericalError(RuntimeError):
    """A solver detected a numerical failure it cannot recover from."""


class ConvergenceError(NumericalError):
    """Fixed-point iteration did not reach tolerance within max_iter."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class MassDriftError(NumericalError):
    """Density mass drifted beyond the monitoring threshold."""
