"""Exception types shared across the package."""


class LacunariaError(Exception):
    """Base class for operational errors raised by this package."""


class WorkBudgetExceeded(LacunariaError):
    """Estimated hash-table size for an enumeration exceeds the configured cap.

    Raised instead of silently truncating a count.
    """

    def __init__(self, estimated: int, budget: int):
        self.estimated = estimated
        self.budget = budget
        super().__init__(
            f"estimated work {estimated} exceeds budget {budget}; "
            f"raise the budget explicitly to proceed"
        )


class IntervalEmpty(LacunariaError):
    """A random-draw interval contains no admissible integer (scale too small)."""


class InsufficientWitnesses(LacunariaError):
    """Not enough disjoint Diophantine witness pairs to fill a block schedule."""


class SpacingUnsatisfiable(LacunariaError):
    """Witness pairs exist but none respects the required value-ratio spacing."""


class MantissaWidthError(LacunariaError):
    """Fixed-point sample too narrow for the requested exact evaluation."""

    def __init__(self, have: int, need: int):
        self.have = have
        self.need = need
        super().__init__(f"mantissa has {have} bits, evaluation needs at least {need}")

