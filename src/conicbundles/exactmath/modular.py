"""Prime and finite-field routines: Baillie-PSW primality, Pollard
rho factoring, Legendre symbols, and F_p[t] arithmetic (gcd, modular
exponentiation, distinct-degree irreducibility test,
Cantor-Zassenhaus root extraction).

F_p[t] polynomials are lists of ints in [0, p), low degree first, no
trailing zeros.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .multipoly import MultiPoly

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW test: trial division by the primes up to 37, a
    strong Miller-Rabin test to base 2 and a strong Lucas test with
    Selfridge's parameters (Baillie & Wagstaff, Math. Comp. 35, 1980).
    Every answer below 2^64 is correct: the base-2 strong pseudoprimes
    below 2^64 are all enumerated and none is a strong Lucas
    pseudoprime.  Above 2^64 no composite that passes is known, but
    none is proved impossible."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    return _strong_probable_prime_2(n) and _strong_lucas(n)


def _strong_probable_prime_2(n: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    s = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                s = -s
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            s = -s
        a %= n
    return s if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 37^2 without small
    factors, with P = 1, Q = (1 - D)/4 and D the first of 5, -7, 9,
    -11, ... with (D/n) = -1."""
    r = isqrt(n)
    if r * r == n:
        return False  # no such D exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k, Q^k for k the leading bits of d, P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def next_prime(n: int) -> int:
    n = max(2, n + 1)
    if n > 2 and n % 2 == 0:
        n += 1
    while not is_probable_prime(n):
        n += 1 if n == 2 else 2
    return n


def primes_from(start: int = 2):
    p = start - 1
    while True:
        p = next_prime(p)
        yield p


def _rho(n: int, rng: random.Random) -> int:
    if n % 2 == 0:
        return 2
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict:
    """Prime factorization {p: e} of |n|; 0 and +-1 give {}."""
    n = abs(n)
    out: dict = {}
    if n <= 1:
        return out
    rng = random.Random(0x5EED ^ n)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            # rho needs about sqrt(p) steps on p^2; the root is free
            stack.append(r)
            stack.append(r)
            continue
        for p in (2, 3, 5, 7, 11, 13):
            if m % p == 0:
                stack.append(p)
                stack.append(m // p)
                break
        else:
            d = _rho(m, rng)
            stack.append(d)
            stack.append(m // d)
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p: 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


# -- F_p[t] arithmetic -------------------------------------------------

def ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def pmod_reduce_coeffs(coeffs, p: int):
    """Reduce a list of Fractions/ints mod p; denominator must be
    invertible mod p."""
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % p)
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return ptrim(out)


def pmod_add(a, b, p):
    n = max(len(a), len(b))
    return ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def pmod_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ptrim(out)


def pmod_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("F_p[t] division by zero")
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r[-1] * inv % p
        q[k] = c
        for j in range(db + 1):
            r[k + j] = (r[k + j] - c * b[j]) % p
        ptrim(r)
    return ptrim(q), r


def pmod_gcd(a, b, p):
    a, b = ptrim(list(a)), ptrim(list(b))
    while b:
        a, b = b, pmod_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def pmod_pow(base, e: int, mod, p):
    """base^e modulo the polynomial mod, coefficients mod p."""
    result = [1]
    base = pmod_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pmod_divmod(pmod_mul(result, base, p), mod, p)[1]
        base = pmod_divmod(pmod_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def pmod_eval(a, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def irreducible_mod_p(coeffs, p: int) -> bool:
    """Distinct-degree irreducibility for f in F_p[t]: any proper
    factor would have degree <= deg f / 2, so f of degree d >= 1 is
    irreducible iff gcd(t^(p^i) - t, f) is constant for i <= d/2."""
    f = ptrim([c % p for c in coeffs])
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    x = [0, 1]
    power = x
    for _ in range(d // 2):
        power = pmod_pow(power, p, f, p)
        g = pmod_gcd(pmod_add(power, [0, p - 1], p), f, p)
        if len(g) != 1:
            return False
    return True


def roots_mod_p(coeffs, p: int, seed: int = 0):
    """All roots of f in F_p (without multiplicity), sorted.  Uses
    Cantor-Zassenhaus equal-degree splitting on the linear part; falls
    back to scanning for p = 2."""
    f = ptrim([c % p for c in coeffs])
    if not f:
        raise ValueError("zero polynomial mod %d" % p)
    if len(f) == 1:
        return []
    if p == 2:
        return sorted(x for x in (0, 1) if pmod_eval(f, x, 2) == 0)
    # linear-root part: gcd(t^p - t, f)
    tp = pmod_pow([0, 1], p, f, p)
    lin = pmod_gcd(pmod_add(tp, [0, p - 1], p), f, p)
    rng = random.Random(seed * 2654435761 + p)
    roots = []
    stack = [lin]
    while stack:
        g = stack.pop()
        if len(g) <= 1:
            continue
        if len(g) == 2:
            roots.append(-g[0] * pow(g[1], -1, p) % p)
            continue
        while True:
            c = rng.randrange(p)
            h = pmod_pow([c, 1], (p - 1) // 2, g, p)
            h = pmod_add(h, [p - 1], p)
            w = pmod_gcd(h, g, p)
            if 0 < len(w) - 1 < len(g) - 1:
                stack.append(w)
                stack.append(pmod_divmod(g, w, p)[0])
                break
    return sorted(roots)


# -- witnesses on MultiPoly inputs ------------------------------------

@dataclass(frozen=True)
class PrimeWitness:
    """A checkable certificate: a prime together with an optional root
    of the ambient place polynomial mod p."""
    p: int
    root: int | None = None
    note: str = ""


def multipoly_int_coeffs(poly: MultiPoly):
    """Clear denominators of a univariate MultiPoly: integer list."""
    from .univariate import as_univariate  # univariate imports factorize
    _, coeffs = as_univariate(poly)
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in coeffs]


def modp_irreducible_witness(poly: MultiPoly, bound: int = 10**4):
    """Smallest prime p <= bound with poly irreducible of full degree
    mod p, or None.  Existence certifies irreducibility over Q."""
    coeffs = multipoly_int_coeffs(poly)
    if len(coeffs) <= 1:
        return None
    lc = coeffs[-1]
    for p in primes_from(2):
        if p > bound:
            return None
        if lc % p == 0:
            continue
        if irreducible_mod_p(coeffs, p):
            return PrimeWitness(p=p, note="irreducible mod %d" % p)
