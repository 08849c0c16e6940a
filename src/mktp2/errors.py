"""Semantic exception hierarchy shared across the package."""


class MkTp2Error(Exception):
    """Base error for this package."""


class ValidationError(MkTp2Error, ValueError):
    """An input function or parameter violates its contract.

    The message names the first offending parameter or grid point.
    """


class DomainError(MkTp2Error, ValueError):
    """A tester was fed values outside its mathematical domain.

    Raised e.g. when a log-convexity test meets a non-positive sample, or
    when a rectangle re-evaluation asks for the density of a copula that
    has none.
    """


class NumericalError(MkTp2Error, ArithmeticError):
    """An evaluation degenerated in a way that contradicts declared metadata."""


class SearchFailed(MkTp2Error, RuntimeError):
    """A constructive counterexample search exhausted its budget.

    Carries diagnostics of the last state so the failure is reproducible.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)

    def __str__(self):
        base = super().__str__()
        if not self.diagnostics:
            return base
        extras = ", ".join(f"{k}={v!r}" for k, v in sorted(self.diagnostics.items()))
        return f"{base} ({extras})"
