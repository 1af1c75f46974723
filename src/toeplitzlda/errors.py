"""Exception types shared across the package."""


class ToeplitzLdaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ToeplitzLdaError, ValueError):
    """An array's dimensions do not match the declared block structure."""


class DataFormatError(ToeplitzLdaError, ValueError):
    """Input data is malformed: a bad dataset directory or model file, or a
    float array argument holding NaN, +-inf or values that are not real numbers.
    """


class GroupSizeError(ToeplitzLdaError, ValueError):
    """Epoch count is incompatible with the target/non-target group size."""


class SolveError(ToeplitzLdaError):
    """A linear solve failed (factorization breakdown or singular system)."""


class SolveBreakdownError(SolveError):
    """The block Levinson recursion hit a non-positive-definite leading minor.

    A forward or backward prediction-error covariance failed to Cholesky-
    factor (or was not finite).  ``order`` is the number of leading block
    rows in the first minor that is not positive definite (1-based).
    """

    def __init__(self, order: int):
        self.order = order
        super().__init__(
            f"block Levinson recursion broke down at step {order}: the "
            f"leading {order}-block minor is not positive definite"
        )
