"""Exception hierarchy for the solver.

Inside a solve attempt two families matter: an empty intersection, which
is structural and no restart can fix, and everything else, which the
attempt driver (``padic._run_attempts``) treats as unlucky data and retries
with fresh randomness.
"""


class KroneckerError(Exception):
    pass


class ParseError(KroneckerError):
    """Syntax or validation error in the input system text."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SingularMatrixError(KroneckerError):
    pass


class NotInvertibleError(KroneckerError):
    pass


class DuplicateNodeError(KroneckerError):
    pass


class NoReconstructionError(KroneckerError):
    pass


class NoPrimeFoundError(KroneckerError):
    pass


class UnluckyError(KroneckerError):
    """A restartable failure: the prime, coordinates or point were unlucky."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"unlucky data at stage {stage}: {cause}")


class DegreeDropError(UnluckyError):
    def __init__(self, stage=1, cause="leading coefficient vanished"):
        super().__init__(stage, cause)


class JacobianNotInvertibleError(UnluckyError):
    def __init__(self, stage):
        super().__init__(stage, "jacobian not invertible")


class NodeExhaustionError(UnluckyError):
    def __init__(self, stage, cause="ran out of usable interpolation nodes"):
        super().__init__(stage, cause)


class ZeroResultantError(UnluckyError):
    def __init__(self, stage):
        super().__init__(stage, "resultant vanished at every node")


class ResidualNonzeroError(KroneckerError):
    """A fiber has a nonzero residual, seen by the value pass of the Newton
    step that leaves it, or by the report ``solve_modular`` checks."""


class EmptyIntersectionError(KroneckerError):
    pass


class RetryExhaustedError(KroneckerError):
    def __init__(self, attempts, causes):
        self.attempts = attempts
        self.causes = causes
        super().__init__(
            f"no successful solve after {attempts} attempts: {causes}"
        )


class InputNotRegularError(KroneckerError):
    def __init__(self, attempts, causes):
        self.attempts = attempts
        self.causes = causes
        super().__init__(
            "input does not look like a reduced regular sequence: "
            f"{causes}"
        )
