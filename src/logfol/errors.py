"""Validation failures with machine-readable codes.

The codes are part of the CLI contract: reports carry them verbatim and
every rejected input names exactly one.
"""

from __future__ import annotations

SYNTAX_ERROR = "SYNTAX_ERROR"
DEGREE_MISMATCH = "DEGREE_MISMATCH"
NC_VIOLATION = "NC_VIOLATION"
NOT_LOGARITHMIC = "NOT_LOGARITHMIC"
POSITIVE_DIM_SING = "POSITIVE_DIM_SING"
INPUT_TOO_LARGE = "INPUT_TOO_LARGE"

ALL_CODES = (
    SYNTAX_ERROR,
    DEGREE_MISMATCH,
    NC_VIOLATION,
    NOT_LOGARITHMIC,
    POSITIVE_DIM_SING,
    INPUT_TOO_LARGE,
)


class InputError(Exception):
    """An input failed validation; `code` is one of the constants above."""

    def __init__(self, code: str, message: str):
        if code not in ALL_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    def __str__(self):
        return f"{self.code}: {self.message}"
