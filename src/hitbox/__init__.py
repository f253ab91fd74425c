"""hitbox: exact certification of exceptional specializations over Q.

For an irreducible P(T, X), most rational t keep P(t, X) irreducible with
the generic Galois group; this package computes the exclusion set D
attached to a family of auxiliary polynomials, certifies the root-witness
characterization of the remaining exceptional t over bounded-height
sweeps, and enumerates the exceptional parameters as rational points on
the auxiliary curves.  All arithmetic is exact.
"""

from .errors import (
    DomainError,
    FixtureError,
    InconclusiveError,
    ParseError,
    ReferenceMismatchError,
    ResourceLimitError,
)
from .polys import BiPoly, UniPoly, parse_poly, parse_unipoly
from .rationals import height, normalize, padic_valuation

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "UniPoly",
    "DomainError",
    "FixtureError",
    "InconclusiveError",
    "ParseError",
    "ReferenceMismatchError",
    "ResourceLimitError",
    "height",
    "normalize",
    "padic_valuation",
    "parse_poly",
    "parse_unipoly",
    "__version__",
]
