"""The package's only dense univariate arithmetic over Q: division,
gcd, square-free decomposition, rational roots, resultants, and powers
and inverses modulo a polynomial.
Polynomials are coefficient lists, low to high, no trailing zeros;
wrappers accept MultiPoly values that use a single variable.  As in
MultiPoly, a coefficient is an int when it is integral and a Fraction
only when it has a denominator other than 1, so integral inputs stay in
integer arithmetic: division by a leading coefficient 1 is skipped and
any other inverse is Fraction(1, c), never 1 / c.

Gcds are computed by Brown's dense modular algorithm on the primitive
integer parts, modulo a fixed sequence of word-size primes, and a
result is returned only once it divides both inputs exactly in Z[t];
no Euclidean remainder sequence over Q is run.  Rational roots are
Hensel-lifted from the roots modulo a prime of good reduction; no
integer is factored to find them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm

from .modular import (
    factorize,
    hensel_root,
    next_prime,
    pmod_gcd,
    primes_from,
    roots_mod_p,
    squarefree_mod_p,
)
from .multipoly import MultiPoly


def is_square_rat(q) -> bool:
    """True iff q is a square in Q.  is_square_rat(0) is True by
    convention: the residue classes we feed in are never the zero
    class, and 0 = 0^2 anyway."""
    q = Fraction(q)
    if q < 0:
        return False
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def sqrt_rat(q) -> Fraction:
    q = Fraction(q)
    if not is_square_rat(q):
        raise ValueError("%s is not a rational square" % q)
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


# trial division bound of squarefree_part_int
_TRIAL_BOUND = 10**5


@cache
def _trial_primes() -> tuple:
    """The primes below _TRIAL_BOUND, sieved on first use."""
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(_TRIAL_BOUND - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, _TRIAL_BOUND, i)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def squarefree_part_int(n: int) -> int:
    """Signed square-free part of an integer (sign preserved).

    Trial division by the primes below B = 10^5 leaves a cofactor m
    with no prime factor below B.  If m is 1 or a perfect square it
    adds nothing; if m < B^3 and is not a square it is p or p*q with
    p != q, so it is square-free.  Only otherwise is m factored: a
    content s*r^2 whose s has no prime factor above B never sends its
    large r to Pollard rho."""
    if n == 0:
        return 0
    out = -1 if n < 0 else 1
    m = abs(n)
    for p in _trial_primes():
        if p * p > m:
            # no prime factor below p is left: m is 1 or a prime
            return out * m
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                out *= p
    r = isqrt(m)
    if r * r == m:
        return out
    if m < _TRIAL_BOUND ** 3:
        return out * m
    for p, e in factorize(m).items():
        if e % 2:
            out *= p
    return out


# -- list-level arithmetic (dense, low to high) -----------------------

def utrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _settle(a):
    """Turn the integral Fractions that Fraction arithmetic can leave
    into ints, in place."""
    for i, c in enumerate(a):
        if type(c) is Fraction and c.denominator == 1:
            a[i] = c.numerator
    return a


def usub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
           for i in range(n)]
    return _settle(utrim(out))


def umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _settle(utrim(out))


def udivmod(a, b):
    """Quotient and remainder; the leading coefficient of each partial
    remainder cancels exactly."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = utrim(list(a))
    db = len(b) - 1
    inv = None if b[-1] == 1 else Fraction(1, b[-1])
    q = [0] * max(0, len(r) - db)
    while len(r) > db:
        k = len(r) - 1 - db
        c = r[-1] if inv is None else r[-1] * inv
        if c * b[-1] != r[-1]:
            raise ArithmeticError("division failed to reduce degree")
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
        r.pop()
        utrim(r)
    return _settle(utrim(q)), _settle(r)


def umod(a, b):
    return udivmod(a, b)[1]


def uscale(a, c):
    """The list a times the number c."""
    return _settle([x * c for x in a])


def umonic(a):
    a = utrim(list(a))
    if not a or a[-1] == 1:
        return a
    return uscale(a, Fraction(1, a[-1]))


_GCD_PRIMES: list = []


def _gcd_primes():
    """The primes above 2^62 in increasing order, memoised: the fixed
    prime sequence of `ugcd_monic`."""
    for i in count():
        if i == len(_GCD_PRIMES):
            _GCD_PRIMES.append(next_prime(
                _GCD_PRIMES[-1] if _GCD_PRIMES else 1 << 62))
        yield _GCD_PRIMES[i]


def ugcd_monic(a, b):
    """Monic gcd over Q ([] when both inputs are zero), by Brown's dense
    modular algorithm (Brown, J. ACM 18, 1971; Geddes, Czapor & Labahn,
    Algorithms for Computer Algebra, 1992, ch. 7).

    A and B are the primitive integer parts of a and b.  Modulo a prime
    p that divides neither leading coefficient, deg gcd(A mod p, B mod p)
    is at least deg gcd(A, B), so a constant image proves the gcd is 1.
    Otherwise the images, scaled by gcd(lc A, lc B), are combined by the
    Chinese remainder theorem; an image of smaller degree shows that the
    earlier primes were unlucky, and the combination starts over from
    it.  The primitive part H of the symmetric lift is returned only
    once it divides A and B exactly in Z[t]: then H divides the gcd and
    has at least its degree, so H is the gcd."""
    A, B = uprimitive(a), uprimitive(b)
    if not A:
        return umonic(b)
    if not B:
        return umonic(a)
    if len(A) == 1 or len(B) == 1:
        return [1]
    g = gcd(A[-1], B[-1])
    modulus, image = 1, None
    for p in _gcd_primes():
        if A[-1] % p == 0 or B[-1] % p == 0:
            continue
        gp = pmod_gcd([c % p for c in A], [c % p for c in B], p)
        if len(gp) == 1:
            return [1]
        if image is not None and len(gp) > len(image):
            continue
        gp = [g * c % p for c in gp]
        if image is None or len(gp) < len(image):
            modulus, image = p, gp
        else:
            inv = pow(modulus, -1, p)
            image = [x + modulus * ((y - x) * inv % p)
                     for x, y in zip(image, gp)]
            modulus *= p
        h = uprimitive([c - modulus if 2 * c > modulus else c
                        for c in image])
        if _divides(h, A) is not None and _divides(h, B) is not None:
            return umonic(h)


def _divides(d, a):
    """The quotient a / d when the integer list d divides the integer
    list a in Z[t], else None."""
    r = list(a)
    n = len(d) - 1
    q = [0] * max(0, len(r) - n)
    while len(r) > n:
        c, m = divmod(r[-1], d[-1])
        if m:
            return None
        k = len(r) - 1 - n
        q[k] = c
        for j in range(n):
            r[k + j] -= c * d[j]
        r.pop()
        utrim(r)
    return None if r else q


def uinvmod(a, f):
    """Inverse of a modulo f over Q, by the extended Euclidean
    algorithm; ZeroDivisionError when a and f are not coprime."""
    r0, r1 = list(f), umod(a, f)
    s0, s1 = [], [1]
    while r1:
        q, r2 = udivmod(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, usub(s0, umul(q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo f")
    return umod(uscale(s0, Fraction(1, r0[0])), f)


def upowmod(a, e, f):
    """a^e modulo f for e >= 0, by left-to-right square-and-multiply."""
    if not e:
        return [1]
    a = out = umod(a, f)
    for bit in bin(e)[3:]:
        out = umod(umul(out, out), f)
        if bit == "1":
            out = umod(umul(out, a), f)
    return out


def uderiv(a):
    return _settle(utrim([a[i] * i for i in range(1, len(a))]))


def uexact_div(a, b):
    q, r = udivmod(a, b)
    if r:
        raise ArithmeticError("not an exact univariate division")
    return q


def uprimitive(a):
    """The coprime integer coefficients of a nonzero rational multiple
    of a, with positive leading one."""
    a = utrim(list(a))
    if not a:
        return []
    den = lcm(*(c.denominator for c in a))
    out = [c.numerator * (den // c.denominator) for c in a]
    g = gcd(*out)
    if out[-1] < 0:
        g = -g
    return [c // g for c in out]


def yun_squarefree(a):
    """Yun's algorithm: list of (monic square-free factor, multiplicity)
    with multiplicities increasing; constants give []."""
    f = umonic(a)
    if len(f) <= 1:
        return []
    d = uderiv(f)
    g = ugcd_monic(f, d)
    out = []
    if len(g) == 1:
        return [(f, 1)]
    c = uexact_div(f, g)
    w = uexact_div(d, g)
    i = 1
    while len(c) > 1:
        y = usub(w, uderiv(c))
        z = ugcd_monic(c, y)
        if len(z) > 1:
            out.append((z, i))
        c = uexact_div(c, z)
        w = uexact_div(y, z)
        i += 1
    return out


def urational_roots(a):
    """Sorted rational roots with multiplicity (repeated entries), by
    p-adic lifting (Loos, SIAM J. Comput. 12, 1983): the rational roots
    r of the square-free part sf are the integer roots c*r of the monic
    g(x) = c^(n-1) sf(x/c), c = lc(sf), and each is a simple root mod
    the first odd prime q of good reduction, lifted past twice Cauchy's
    bound 1 + max |g_i| and divided out as often as it is a root."""
    a = utrim(list(a))
    k = next((i for i, c in enumerate(a) if c), 0)
    roots = [0] * k
    p = uprimitive(a[k:])
    if len(p) <= 1:
        return roots
    sf = uprimitive(uexact_div(p, ugcd_monic(p, uderiv(p))))
    n, c = len(sf) - 1, sf[-1]
    g = [sf[i] * c ** (n - 1 - i) for i in range(n)] + [1]
    q = next(q for q in primes_from(3) if squarefree_mod_p(sf, q))
    bound = 2 * (1 + max(abs(x) for x in g[:-1]))
    for z in roots_mod_p(g, q):
        r = Fraction(hensel_root(g, z, q, bound), c)
        while len(p) > 1 and _is_root(p, r.numerator, r.denominator):
            roots.append(r)
            p = uprimitive(uexact_div(p, [-r.numerator, r.denominator]))
    return sorted(_settle(roots))


def _is_root(p, num: int, den: int) -> bool:
    """p(num/den) == 0 for an integer list p, decided in integers by a
    homogeneous Horner step: den^deg * p(num/den)."""
    acc, dpow = 0, 1
    for c in reversed(p):
        acc = acc * num + c * dpow
        dpow *= den
    return acc == 0


def uresultant(a, b) -> Fraction:
    """Resultant of two univariate polynomials via Bareiss elimination
    on the Sylvester matrix."""
    a = utrim(list(a))
    b = utrim(list(b))
    if not a or not b:
        return Fraction(0)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    from .linalg import mat_det
    return mat_det(rows)


def udiscriminant(a) -> Fraction:
    a = utrim(list(a))
    n = len(a) - 1
    if n < 1:
        return Fraction(0)
    res = uresultant(a, uderiv(a))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / a[-1]


def is_squarefree(a) -> bool:
    a = utrim(list(a))
    if len(a) <= 1:
        return True
    return len(ugcd_monic(a, uderiv(a))) == 1


# -- MultiPoly-facing wrappers ----------------------------------------

def as_univariate(p: MultiPoly, var: str | None = None):
    """Coefficient list of a MultiPoly that uses at most one variable.
    Returns (var_name, coeffs)."""
    used = p.used_vars()
    if len(used) > 1:
        raise ValueError("polynomial is not univariate: uses %s" % sorted(used))
    if var is None:
        var = next(iter(used)) if used else (p.vars[0] if p.vars else "t")
    elif used and next(iter(used)) != var:
        raise ValueError("polynomial does not live in %s" % var)
    if var not in p.vars:
        c = p.constant_value()
        return var, ([c] if c else [])
    i = p.vars.index(var)
    d = p.degree_in(var)
    out = [0] * (d + 1) if d >= 0 else []
    for e, c in p.terms.items():
        out[e[i]] += c
    return var, utrim(out)

