"""Exact verification toolkit for fixed-point series and Toda-lattice operators.

The package computes, by two independent routes each, families of exact
hypergeometric-type series attached to projective spaces and flag spaces,
and checks the routes against each other:

* closed-form coefficients versus fixed-point recursion relations,
* closed-form solutions versus annihilation by difference-differential
  operators of Toda type.

All arithmetic is exact (arbitrary-precision rationals); every check is an
exact equality of canonical rational functions.
"""

from .exactalg import (
    MultiPoly,
    PoleError,
    RatFunc,
    VarRegistry,
    homogeneous_degree,
    partial_fractions,
    recombine,
    shifted_factorial,
    substitute,
)
from .report import VerificationReport
# cli is not imported here: `python -m qcseries.cli` would otherwise find it
# already imported and warn; `from qcseries import cli` still works
from . import exactalg, flaggw, projgw, report, roots, toda3

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "PoleError",
    "RatFunc",
    "VarRegistry",
    "VerificationReport",
    "homogeneous_degree",
    "partial_fractions",
    "recombine",
    "shifted_factorial",
    "substitute",
    "cli",
    "exactalg",
    "flaggw",
    "projgw",
    "report",
    "roots",
    "toda3",
    "__version__",
]
