"""Exception types shared across the package.

Every refusal is loud and typed: callers (and the CLI, which maps these to
exit codes) can tell an over-budget request apart from a malformed one.
"""


class BudgetExceeded(RuntimeError):
    """An enumeration would visit more states than the work budget allows."""

    def __init__(self, states: int, max_states: int, what: str):
        self.states = states
        self.max_states = max_states
        super().__init__(
            f"{what} needs {states} states, over the budget of {max_states}; "
            f"raise the budget explicitly to proceed"
        )


class NotPrime(ValueError):
    """A parameter that must be prime is not."""


class DimensionMismatch(ValueError):
    """Matrix operands have incompatible or unsupported shapes."""


class IndexOutOfRange(ValueError):
    """A flattened matrix-entry index lies outside 1..d*d."""


class UnsupportedDimension(ValueError):
    """The requested matrix dimension has no implementation."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: two independent routes to the
    same exact number disagree.  Signals a defect in the program, never bad
    input."""
