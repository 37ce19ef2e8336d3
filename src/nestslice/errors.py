"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than bare ValueError.
"""


class NestsliceError(Exception):
    """Base class for package errors."""


class ShapeMismatchError(NestsliceError, ValueError):
    """Operand dimensions do not agree."""


class ExtentError(NestsliceError, IndexError):
    """A slice or index exceeds the available extent."""


class ConfigError(NestsliceError, ValueError):
    """Invalid or unsupported configuration."""


class InfeasiblePlanError(NestsliceError, RuntimeError):
    """A knapsack stage or plan cannot satisfy its capacity constraint."""


class DataError(NestsliceError, RuntimeError):
    """Dataset missing, malformed, or exhausted."""


class NumericError(NestsliceError, ArithmeticError):
    """Numerical failure (NaN loss, divergence)."""


class IntegrityError(NestsliceError, RuntimeError):
    """Internal consistency check failed (shape audit, prefix audit)."""


# CLI exit codes; 0 is success, 1 is reserved for unexpected crashes.
# Out-of-range user input (schedule rows, widths) counts as a config error.
EXIT_CODES = {
    ConfigError: 2,
    ExtentError: 2,
    InfeasiblePlanError: 3,
    DataError: 4,
    NumericError: 5,
    IntegrityError: 6,
    ShapeMismatchError: 7,
}
