"""Integer factoring, primality, square-free parts and rational roots,
checked against sympy as an oracle."""

import random
from fractions import Fraction

import pytest

from conicbundles.exactmath import squarefree_part_int
from conicbundles.exactmath.modular import factorize, is_probable_prime
from conicbundles.exactmath.univariate import urational_roots

sympy = pytest.importorskip("sympy")

# smallest composites that pass the strong test to every prime base up
# to 37 (psi_12) and to 41 (psi_13)
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
              29341, 41041, 46657, 52633, 62745, 63973, 75361, 101101,
              115921, 126217, 162401, 172081, 188461, 252601, 278545,
              294409, 314821, 334153, 340561, 399001, 410041, 449065,
              488881, 512461)
# strong pseudoprimes to base 2 and strong Lucas pseudoprimes
PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141,
                5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                40309, 58519, 75077)


def _sympy_factorization(n):
    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def test_probable_prime_against_sympy():
    for n in range(-5, 20000):
        assert is_probable_prime(n) == sympy.isprime(n), n
    rng = random.Random(401)
    for _ in range(3000):
        n = rng.randrange(2, 10**40)
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_probable_prime_rejects_pseudoprimes():
    for n in (PSI12, PSI13) + CARMICHAEL + PSEUDOPRIMES:
        assert not sympy.isprime(n)
        assert not is_probable_prime(n), n
    assert PSI12 == 399165290221 * 798330580441


def test_each_half_of_baillie_psw_is_the_standard_test():
    from sympy.ntheory.primetest import is_strong_lucas_prp, mr

    from conicbundles.exactmath.modular import (
        _strong_lucas,
        _strong_probable_prime_2,
    )
    small = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for n in range(41 * 41, 60000, 2):
        if all(n % p for p in small):
            assert _strong_lucas(n) == is_strong_lucas_prp(n), n
            assert _strong_probable_prime_2(n) == mr(n, [2]), n
    # composites that pass one half are caught by the other
    for n in PSEUDOPRIMES:
        if all(n % p for p in small):
            assert _strong_lucas(n) != _strong_probable_prime_2(n), n


def test_probable_prime_accepts_large_primes():
    for k in (64, 89, 107, 127, 521):
        p = sympy.nextprime(2**k)
        assert is_probable_prime(int(p))
        assert not is_probable_prime(int(p) * int(sympy.nextprime(p)))
    assert is_probable_prime(2**127 - 1)


def test_factorize_pseudoprimes():
    assert factorize(PSI12) == _sympy_factorization(PSI12)
    assert factorize(-PSI13) == _sympy_factorization(PSI13)


def test_factorize_squares_of_twelve_digit_primes():
    rng = random.Random(402)
    for _ in range(4):
        p = int(sympy.nextprime(rng.randrange(10**11, 10**12)))
        q = int(sympy.nextprime(rng.randrange(10**3, 10**6)))
        assert factorize(p * p) == {p: 2}
        assert factorize(p * p * q * 10) == {2: 1, 5: 1, q: 1, p: 2}
    # rho alone would need about 10^8 steps here
    p = int(sympy.nextprime(10**16))
    assert factorize(-3 * p * p) == {3: 1, p: 2}
    # the content that used to stall the residue table
    n = (2 * 5 * 7 * 241 * 17359 * 321140158279) ** 2
    assert factorize(n) == {2: 2, 5: 2, 7: 2, 241: 2, 17359: 2,
                            321140158279: 2}


def test_factorize_random_against_sympy():
    assert factorize(0) == {} and factorize(1) == {} and factorize(-1) == {}
    rng = random.Random(403)
    for _ in range(60):
        n = rng.randrange(2, 10**20)
        assert factorize(n) == _sympy_factorization(n), n


def test_squarefree_part_against_sympy():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randrange(-10**18, 10**18) or 1
        want = 1
        for p, e in _sympy_factorization(abs(n)).items():
            if e % 2:
                want *= p
        assert squarefree_part_int(n) == (want if n > 0 else -want), n
    p = 321140158279
    assert squarefree_part_int(-(p * 17359) ** 2 * 3) == -3
    assert squarefree_part_int(PSI12 * 4) == PSI12


def _roots_via_sympy(coeffs):
    t = sympy.Symbol("t")
    poly = sympy.Poly([int(c) for c in reversed(coeffs)], t)
    out = []
    for r, m in sympy.roots(poly, filter="Q").items():
        num, den = sympy.fraction(r)
        out += [Fraction(int(num), int(den))] * m
    return sorted(out)


def _coeffs_of_product(factors):
    """Integer coefficient list (low to high) of prod(den*t - num)."""
    out = [1]
    for num, den in factors:
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] -= num * c
            nxt[i + 1] += den * c
        out = nxt
    return [Fraction(c) for c in out]


def test_rational_roots_of_height_1000_against_sympy():
    rng = random.Random(405)
    for _ in range(3):
        roots = [rng.choice((-1, 1)) * rng.randint(950, 1050)
                 for _ in range(8)]
        factors = [(r, 1) for r in roots] + [(rng.randint(2, 40) * 2 + 1,
                                              rng.randint(2, 9) * 2)]
        coeffs = _coeffs_of_product(factors)
        got = urational_roots(coeffs)
        assert got == _roots_via_sympy(coeffs)
        assert len(got) == 9


def test_rational_roots_random_against_sympy():
    rng = random.Random(406)
    for _ in range(150):
        factors = []
        for _ in range(rng.randint(0, 5)):
            den = rng.randint(1, 6)
            factors.append((rng.randint(-60, 60), den))
        coeffs = _coeffs_of_product(factors)
        # times an irreducible-ish cofactor with small coefficients
        extra = [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
        extra.append(rng.randint(1, 4))
        out = [Fraction(0)] * (len(coeffs) + len(extra) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(extra):
                out[i + j] += a * b
        if not any(out):
            continue
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert urational_roots([c * scale for c in out]) == \
            _roots_via_sympy(out)
