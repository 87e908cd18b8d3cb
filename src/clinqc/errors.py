"""Errors and warnings of the quality-control pipeline.

The CLI maps ``ValidationError`` to exit code 2 and any other
``ClinQcError`` to exit code 3.
"""


class ClinQcError(Exception):
    """Base pipeline error; raised directly for numerical or runtime failures (exit code 3)."""


class ValidationError(ClinQcError):
    """Bad inputs or configuration detected before any computation (exit code 2)."""


class NoConvergenceWarning(UserWarning):
    """Solver hit its iteration cap; the best iterate is returned anyway."""
