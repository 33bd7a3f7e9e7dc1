"""Exact verification toolkit for fixed-point series and Toda-lattice operators.

The package computes, by two independent routes each, families of exact
hypergeometric-type series attached to projective spaces and flag spaces,
and checks the routes against each other:

* closed-form coefficients versus fixed-point recursion relations,
* closed-form solutions versus annihilation by difference-differential
  operators of Toda type.

All arithmetic is exact (arbitrary-precision rationals); every check is an
exact equality of canonical rational functions.

Each submodule, and each name re-exported from one, loads on first access
(PEP 562), so that `import qcseries.cli` and the parser it builds load no
arithmetic: every CLI run is a fresh interpreter and pays only for the
modules its check or table reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_EXPORTS = {
    "MultiPoly": "exactalg",
    "PoleError": "exactalg",
    "RatFunc": "exactalg",
    "VarRegistry": "exactalg",
    "homogeneous_degree": "exactalg",
    "partial_fractions": "exactalg",
    "recombine": "exactalg",
    "substitute": "exactalg",
    "VerificationReport": "report",
}

__all__ = [
    "MultiPoly",
    "PoleError",
    "RatFunc",
    "VarRegistry",
    "VerificationReport",
    "homogeneous_degree",
    "partial_fractions",
    "recombine",
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


def __getattr__(name: str):
    # a re-exported name is read from its module on each access; every other
    # name of __all__ but __version__ is a submodule, which importing binds
    # on the package, so this runs once for it
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
