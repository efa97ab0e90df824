"""Exception hierarchy for the clearing library.

Every error raised by the library derives from ClearingError. Input and
validation problems are distinct from solver-level failures so that callers
(notably the CLI) can map them to different exit codes.
"""

from __future__ import annotations


class ClearingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ClearingError):
    """Bad input data or configuration (network construction, parsing, params)."""


class SolverError(ClearingError):
    """A solver failed at runtime on otherwise valid input."""


# -- network construction and parsing ---------------------------------------

class DimensionMismatchError(ValidationError):
    """Liability matrix is not square or does not match the cash vector."""


class NegativeEntryError(ValidationError):
    """A liability, cash or total-debt amount is negative or not finite."""


class SelfDebtError(ValidationError):
    """Nonzero diagonal entry: a bank cannot owe itself."""


class ParseError(ValidationError):
    """Input document is not syntactically valid JSON/CSV."""


class SchemaError(ValidationError):
    """Input document parses but does not match the expected schema."""


class InvalidParamsError(ValidationError):
    """Generator or run configuration parameters out of range."""


# -- linear-algebra / Markov kernel ------------------------------------------

class EmptySetError(ValidationError):
    """Submatrix restriction to an empty bank set."""


class IndexOutOfRangeError(ValidationError):
    """Bank index outside the network, or repeated in a restriction set."""


class SingularSystemError(SolverError):
    """Linear system has no unique solution (restriction not transient)."""


class NegativeInputError(ValidationError):
    """Input vector to a solve must be componentwise nonnegative."""


class NotErgodicError(ValidationError):
    """Submatrix is not a closed, single communicating class."""


class ZeroDebtInSwampError(ValidationError):
    """A swamp member with zero debt violates the swamp definition."""


# -- flow engine --------------------------------------------------------------

class NonTransientZeroGroupError(SolverError):
    """The zero group contains a closed subnetwork; its rates are undefined."""


class StalledError(SolverError):
    """No finite event candidate although the positive group is nonempty."""


class InvariantViolationError(SolverError):
    """A run-time consistency assertion failed during a flow run."""


# -- alternative solvers -------------------------------------------------------

class OutOfRangeError(ValidationError):
    """Payment vector outside the box [0, total debt]."""


class NoConvergenceError(SolverError):
    """Fixed-point iteration hit its cap before meeting the tolerance."""


class VerificationFailedError(SolverError):
    """A bailout plan failed its replay verification; never masked."""
