"""Exact computer algebra for Hecke symmetries, reflection equation algebras,
Cayley-Hamilton identities with quantum eigenvalues, and braided orbits."""

from .scalar import (
    EMPTY_TABLE,
    Poly,
    Scalar,
    SymbolTable,
    parse_scalar,
    poly_div_exact,
    poly_gcd,
    qnumber,
)

__all__ = [
    "EMPTY_TABLE",
    "Poly",
    "Scalar",
    "SymbolTable",
    "parse_scalar",
    "poly_div_exact",
    "poly_gcd",
    "qnumber",
]

__version__ = "0.1.0"
