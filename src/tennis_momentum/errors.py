"""Exception and warning types shared across the package."""


class DataError(Exception):
    """Base class for problems with input data (maps to CLI exit code 2)."""


class SchemaError(DataError):
    """A required CSV column is missing."""

    def __init__(self, missing_columns):
        self.missing_columns = tuple(missing_columns)
        super().__init__(f"missing required columns: {', '.join(self.missing_columns)}")


class RowParseError(DataError):
    """A CSV row could not be parsed; carries the 1-based data row number."""

    def __init__(self, row_number, message):
        self.row_number = row_number
        super().__init__(f"row {row_number}: {message}")


class UnknownMatchError(DataError):
    """A requested match id is not in the input; the message lists those that are."""

    def __init__(self, match_id, available):
        self.match_id = match_id
        self.available = tuple(available)
        super().__init__(
            f"unknown match id {match_id!r}; available: {', '.join(self.available)}"
        )


class EmptyInputError(DataError):
    """An operation that needs at least one record received none."""


class ImputationError(DataError):
    """No fully populated record exists to act as an imputation donor."""


class InsufficientDataError(DataError, ValueError):
    """The input is too short for the requested analysis (a window longer
    than the match, fewer samples than folds); also a ``ValueError``."""


class UndefinedCorrelationError(ValueError):
    """Correlation requested for an input with zero variance."""


class DataQualityWarning(UserWarning):
    """Non-fatal data oddity (zero denominators, truncated windows, ...)."""
