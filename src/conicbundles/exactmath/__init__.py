"""Exact arithmetic kernel: sparse multivariate polynomials over Q,
reduced fractions of polynomials in one variable (the a and b of the
diagonal conic model), univariate helpers with a modular gcd,
finite-field witnesses, fraction-free linear algebra, and first-order
jets."""

from .jets import Jet
from .linalg import mat_det, mat_rank, nullspace, rref
from .modular import (
    PrimeWitness,
    factorize,
    irreducible_mod_p,
    is_probable_prime,
    legendre,
    modp_irreducible_witness,
    next_prime,
    primes_from,
    roots_mod_p,
)
from .multipoly import MultiPoly, NotDivisible, poly_gcd
from .parser import PolyParseError, parse_poly
from .ratfunc import RatFunc
from .univariate import (
    as_univariate,
    is_square_rat,
    is_squarefree,
    squarefree_part_int,
    sqrt_rat,
    udiscriminant,
    uresultant,
)

__all__ = [
    "Jet",
    "MultiPoly",
    "NotDivisible",
    "PolyParseError",
    "PrimeWitness",
    "RatFunc",
    "as_univariate",
    "factorize",
    "irreducible_mod_p",
    "is_probable_prime",
    "is_square_rat",
    "is_squarefree",
    "legendre",
    "mat_det",
    "mat_rank",
    "modp_irreducible_witness",
    "next_prime",
    "nullspace",
    "parse_poly",
    "poly_gcd",
    "primes_from",
    "roots_mod_p",
    "rref",
    "squarefree_part_int",
    "sqrt_rat",
    "udiscriminant",
    "uresultant",
]
