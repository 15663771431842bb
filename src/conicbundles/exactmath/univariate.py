"""Univariate helpers over Q: square-free decomposition, rational
roots, resultants.  Internally polynomials are coefficient lists (low
to high, no trailing zeros); wrappers accept MultiPoly values that use
a single variable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .modular import factorize
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


def squarefree_part_int(n: int) -> int:
    """Signed square-free part of an integer (sign preserved)."""
    if n == 0:
        return 0
    out = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def square_class_rat(q) -> Fraction:
    """Canonical representative of q modulo nonzero rational squares:
    the signed square-free integer sf(num*den).  Zero maps to zero."""
    q = Fraction(q)
    if q == 0:
        return Fraction(0)
    return Fraction(squarefree_part_int(q.numerator * q.denominator))


def same_square_class(a, b) -> bool:
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        return a == b
    return is_square_rat(a * b)


# -- list-level arithmetic (dense, low to high) -----------------------

def utrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def uadd(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
           for i in range(n)]
    return utrim([Fraction(c) for c in out])


def uscale(a, c):
    c = Fraction(c)
    if not c:
        return []
    return [x * c for x in a]


def umul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return utrim(out)


def udivmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = [Fraction(c) for c in a]
    db = len(b) - 1
    inv = 1 / Fraction(b[-1])
    q = [Fraction(0)] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r[-1] * inv
        q[k] = c
        for j in range(db + 1):
            r[k + j] -= c * Fraction(b[j])
        utrim(r)
        if len(r) - 1 >= k + db:
            raise ArithmeticError("division failed to reduce degree")
    return utrim(q), r


def umod(a, b):
    return udivmod(a, b)[1]


def ugcd_monic(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, umod(a, b)
    if not a:
        return []
    inv = 1 / Fraction(a[-1])
    return [c * inv for c in a]


def uderiv(a):
    return utrim([Fraction(a[i]) * i for i in range(1, len(a))])


def uexact_div(a, b):
    q, r = udivmod(a, b)
    if r:
        raise ArithmeticError("not an exact univariate division")
    return q


def uprimitive(a):
    """Scale to coprime integer coefficients, positive leading one."""
    if not a:
        return []
    num = 0
    den = 1
    for c in a:
        c = Fraction(c)
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    scale = Fraction(den, num)
    out = [Fraction(c) * scale for c in a]
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def yun_squarefree(a):
    """Yun's algorithm: list of (monic square-free factor, multiplicity)
    with multiplicities increasing; constants give []."""
    a = utrim([Fraction(c) for c in a])
    if len(a) <= 1:
        return []
    inv = 1 / a[-1]
    f = [c * inv for c in a]
    d = uderiv(f)
    g = ugcd_monic(f, d)
    out = []
    if len(g) == 1:
        return [(f, 1)]
    c = uexact_div(f, g)
    w = uexact_div(d, g)
    i = 1
    while len(c) > 1:
        y = uadd(w, uscale(uderiv(c), -1))
        z = ugcd_monic(c, y)
        if len(z) > 1:
            out.append((z, i))
        c = uexact_div(c, z)
        w = uexact_div(y, z)
        i += 1
    return out


def urational_roots(a):
    """Sorted rational roots with multiplicity (repeated entries)."""
    a = utrim([Fraction(c) for c in a])
    if len(a) <= 1:
        return []
    roots = []
    # roots at zero
    k = 0
    while not a[k]:
        k += 1
    roots.extend([Fraction(0)] * k)
    a = a[k:]
    if len(a) > 1:
        # a root num/den in lowest terms has num | a0 and den | an
        p = [int(c) for c in uprimitive(a)]
        for num, den in _root_candidates(p):
            if len(p) == 1:
                break
            while len(p) > 1 and _is_root(p, num, den):
                roots.append(Fraction(num, den))
                p = [int(c) for c in uprimitive(uexact_div(p, [-num, den]))]
    return sorted(roots)


def _divisors(n: int, cap: int):
    """Positive divisors of n != 0 up to cap, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p ** i for d in out for i in range(e + 1)
               if d * p ** i <= cap]
    return sorted(out)


def _root_candidates(p):
    """(num, den) in lowest terms with num | p[0], 0 < den | p[-1] and
    |num/den| within Fujiwara's bound 2 max |p[n-i] / p[n]|^(1/i),
    rounded up to powers of two."""
    n, an = len(p) - 1, abs(p[-1])
    bound = 2 << max((-(-abs(p[n - i]) // an)).bit_length() // i + 1
                     for i in range(1, n + 1))
    dens = _divisors(an, an)
    nums = _divisors(p[0], bound * an)
    for den in dens:
        for num in nums:
            if num > bound * den:
                break
            if gcd(num, den) == 1:
                yield num, den
                yield -num, den


def _is_root(p, num: int, den: int) -> bool:
    """p(num/den) == 0 for an integer list p, decided in integers."""
    # den*t - num divides p in Z[t] (Gauss), so (den - num) | p(1)
    # and (den + num) | p(-1)
    for d, x in ((den - num, 1), (den + num, -1)):
        value = sum(c * x ** i for i, c in enumerate(p))
        if (value % d if d else value) != 0:
            return False
    # homogeneous Horner: den^deg * p(num/den)
    acc, dpow = 0, 1
    for c in reversed(p):
        acc = acc * num + c * dpow
        dpow *= den
    return acc == 0


def uresultant(a, b) -> Fraction:
    """Resultant of two univariate polynomials via Bareiss elimination
    on the Sylvester matrix."""
    a = utrim([Fraction(c) for c in a])
    b = utrim([Fraction(c) for c in b])
    if not a or not b:
        return Fraction(0)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    from .linalg import mat_det
    return mat_det(rows)


def udiscriminant(a) -> Fraction:
    a = utrim([Fraction(c) for c in a])
    n = len(a) - 1
    if n < 1:
        return Fraction(0)
    res = uresultant(a, uderiv(a))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / a[-1]


def is_squarefree(a) -> bool:
    a = utrim([Fraction(c) for c in a])
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
        return var, ([Fraction(c)] if c else [])
    i = p.vars.index(var)
    d = p.degree_in(var)
    out = [Fraction(0)] * (d + 1) if d >= 0 else []
    for e, c in p.terms.items():
        out[e[i]] += c
    return var, utrim(out)


def from_coeffs(ring_vars, var: str, coeffs) -> MultiPoly:
    return MultiPoly.from_univariate(ring_vars, var, coeffs)


def squarefree_decompose(p: MultiPoly):
    """Monic pairwise-coprime square-free factors with multiplicities,
    sorted by decreasing multiplicity then graded-lex leading term.
    The product of factor^multiplicity is p up to a rational constant.
    """
    var, coeffs = as_univariate(p)
    fac = yun_squarefree(coeffs)
    out = [(from_coeffs(p.vars, var, f), m) for f, m in fac]
    out.sort(key=lambda fm: (-fm[1], fm[0].leading_term_grlex()[0]))
    return out


def rational_roots(p: MultiPoly):
    _, coeffs = as_univariate(p)
    return urational_roots(coeffs)
