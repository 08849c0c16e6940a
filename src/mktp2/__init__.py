"""Bivariate copulas, Markov kernels, and positive-dependence certification."""

from .core import Copula, make_baseline, make_fgm, make_frechet, make_gaussian
from .errors import DomainError, MkTp2Error, NumericalError, SearchFailed, ValidationError
from .grids import DEFAULT_GRID, GridConfig, Rectangle
from .properties import (
    PROPERTIES,
    Status,
    Verdict,
    Witness,
    check_dtp2,
    check_ltd,
    check_mktp2,
    check_pqd,
    check_si,
    check_tp2,
    counterexample_search,
    log_convexity_test,
)

__version__ = "0.1.0"

__all__ = [
    "Copula",
    "DEFAULT_GRID",
    "DomainError",
    "GridConfig",
    "MkTp2Error",
    "NumericalError",
    "PROPERTIES",
    "Rectangle",
    "SearchFailed",
    "Status",
    "ValidationError",
    "Verdict",
    "Witness",
    "check_dtp2",
    "check_ltd",
    "check_mktp2",
    "check_pqd",
    "check_si",
    "check_tp2",
    "counterexample_search",
    "log_convexity_test",
    "make_baseline",
    "make_fgm",
    "make_frechet",
    "make_gaussian",
    "__version__",
]
