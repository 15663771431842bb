"""Sparse multivariate polynomials with exact rational coefficients.

A MultiPoly is immutable after construction: a fixed ordered tuple of
variable names plus a map from exponent vectors to nonzero coefficients.
Symbolic parameters are handled by enlarging the variable set, so the
same class serves both concrete binary forms and generic-coefficient
identities.

A rational coefficient is stored as an int when it is integral and as
a Fraction only when it has a denominator other than 1: integer
arithmetic is much cheaper, and most coefficients are integers.  Every
constructor and ring operation keeps to that rule and refuses a float,
so a quotient of two coefficients is written Fraction(a, b), never
a / b, which gives a float on two ints.  Any other field-like value
(supporting +, -, *, bool) is stored as it is and works for the generic
ring operations, which is how first-order jets slot in for derivative
computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping


class NotDivisible(ArithmeticError):
    pass


def _coerce(c):
    """A coefficient in stored form: an integral Fraction becomes its
    numerator, an int or a proper Fraction stays as it is."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, float):
        raise TypeError("float coefficient %r: divide with Fraction(a, b)"
                        % (c,))
    return c


def _settle(terms: dict) -> dict:
    """Turn the integral Fractions that products and sums of proper
    Fractions can leave into ints, in place."""
    for e, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _wrap(variables: tuple, terms: dict) -> "MultiPoly":
    """A MultiPoly around terms that already keep the rules (exponent
    vectors of the right length, nonzero coefficients in stored form),
    without copying or checking them."""
    p = MultiPoly.__new__(MultiPoly)
    object.__setattr__(p, "vars", variables)
    object.__setattr__(p, "terms", terms)
    return p


def grlex_key(exps: tuple) -> tuple:
    # graded lexicographic: total degree first, then lex on the exponent vector
    return (sum(exps), exps)


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names: %r" % (vs,))
        object.__setattr__(self, "vars", vs)
        clean = {}
        if terms:
            n = len(vs)
            for exps, c in terms.items():
                e = tuple(exps)
                if len(e) != n:
                    raise ValueError("exponent vector %r has wrong length" % (e,))
                if any(k < 0 for k in e):
                    raise ValueError("negative exponent in %r" % (e,))
                c = _coerce(c)
                if c:
                    if e in clean:
                        c = clean[e] + c
                        if c:
                            clean[e] = c
                        else:
                            del clean[e]
                    else:
                        clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c) -> "MultiPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): c})

    @classmethod
    def monomial(cls, variables, exps, c=1) -> "MultiPoly":
        return cls(variables, {tuple(exps): c})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        vs = tuple(variables)
        i = vs.index(name)
        e = [0] * len(vs)
        e[i] = 1
        return cls(vs, {tuple(e): 1})

    @classmethod
    def from_univariate(cls, variables, var: str, coeffs) -> "MultiPoly":
        """coeffs[k] is the coefficient of var**k."""
        vs = tuple(variables)
        i = vs.index(var)
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                e = [0] * len(vs)
                e[i] = k
                terms[tuple(e)] = c
        return cls(vs, terms)

    # -- predicates and access ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return next(iter(self.terms.values()))

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def total_degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_total_degree(self) -> int:
        """Order of vanishing at the origin; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        i = self.vars.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def used_vars(self) -> set:
        out = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    out.add(self.vars[i])
        return out

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_term_grlex(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    # -- arithmetic ---------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError(
                "variable mismatch: %r vs %r" % (self.vars, other.vars))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return _wrap(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        self._check_same_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if not s:
                    del out[e]
                elif type(s) is Fraction and s.denominator == 1:
                    out[e] = s.numerator
                else:
                    out[e] = s
        return _wrap(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_same_vars(other)
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    s = out.get(e)
                    if s is None:
                        if c:
                            out[e] = c
                    else:
                        s = s + c
                        if s:
                            out[e] = s
                        else:
                            del out[e]
            return _wrap(self.vars, _settle(out))
        c0 = _coerce(other)
        out = {}
        if c0:
            for e, c in self.terms.items():
                c = c * c0
                if c:
                    out[e] = c
        return _wrap(self.vars, _settle(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and structure ----------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return _wrap(self.vars, _settle(out))

    def coefficient_of_power(self, var: str, k: int) -> "MultiPoly":
        """The coefficient of var**k, as a polynomial in the same ring
        (with the var-exponent zeroed out)."""
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return MultiPoly(self.vars, out)

    def align(self, new_variables) -> "MultiPoly":
        """Embed into a ring with more variables (ordering may change)."""
        nv = tuple(new_variables)
        pos = []
        for v in self.vars:
            if v not in nv:
                raise ValueError("variable %s missing from target ring" % v)
            pos.append(nv.index(v))
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(nv)
            for i, k in enumerate(e):
                e2[pos[i]] = k
            out[tuple(e2)] = c
        return MultiPoly(nv, out)

    def drop_unused(self, keep=()) -> "MultiPoly":
        """Shrink the ring to the variables actually appearing (plus
        any listed in keep), preserving the original order."""
        used = self.used_vars() | set(keep)
        nv = tuple(v for v in self.vars if v in used)
        idx = [self.vars.index(v) for v in nv]
        out = {}
        for e, c in self.terms.items():
            out[tuple(e[i] for i in idx)] = c
        return MultiPoly(nv, out)

    def substitute(self, mapping: Mapping) -> "MultiPoly":
        """Substitute polynomials (or scalars) for variables.

        Values must all live in one common ring; unmapped variables must
        exist in that ring and pass through unchanged.
        """
        target = None
        vals = {}
        for name, v in mapping.items():
            if name not in self.vars:
                raise ValueError("substituting unknown variable %s" % name)
            if isinstance(v, MultiPoly):
                if target is None:
                    target = v.vars
                elif v.vars != target:
                    raise ValueError("substitution images live in different rings")
            vals[name] = v
        if target is None:
            target = self.vars
        tgt_index = {v: i for i, v in enumerate(target)}
        images = []
        for v in self.vars:
            if v in vals:
                img = vals[v]
                if not isinstance(img, MultiPoly):
                    img = MultiPoly.const(target, img)
            else:
                if v not in tgt_index:
                    raise ValueError(
                        "unmapped variable %s missing from target ring" % v)
                img = MultiPoly.variable(target, v)
            images.append(img)
        acc = MultiPoly.zero(target)
        one = MultiPoly.const(target, 1)
        pw_cache = [dict() for _ in images]
        for e, c in self.terms.items():
            m = one * c
            for i, k in enumerate(e):
                if k:
                    pk = pw_cache[i].get(k)
                    if pk is None:
                        pk = images[i] ** k
                        pw_cache[i][k] = pk
                    m = m * pk
            acc = acc + m
        return acc

    def evaluate(self, mapping: Mapping):
        """Evaluate at a point; every used variable must be assigned."""
        vals = []
        for v in self.vars:
            vals.append(_coerce(mapping.get(v, 0)) if v in mapping else None)
        acc = 0
        for e, c in self.terms.items():
            m = c
            for i, k in enumerate(e):
                if k:
                    if vals[i] is None:
                        raise ValueError("no value for variable %s" % self.vars[i])
                    m = m * vals[i] ** k
            acc = acc + m
        return acc

    # -- content, normalization, division ------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient primitive;
        content of 0 is 0."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive_normalized(self) -> "MultiPoly":
        """Scale to coprime integer coefficients with positive grlex
        leading coefficient.  Zero stays zero."""
        if not self.terms:
            return self
        c = self.content()
        p = self * (1 / c)
        if p.leading_term_grlex()[1] < 0:
            p = -p
        return p

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises NotDivisible otherwise.
        The remainder is one dict, updated in place: each step removes
        its grlex-leading term and adds terms below it."""
        self._check_same_vars(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        de = max(divisor.terms, key=grlex_key)
        dc = divisor.terms[de]
        rest = [(e, c) for e, c in divisor.terms.items() if e != de]
        rem = dict(self.terms)
        q = {}
        while rem:
            re = max(rem, key=grlex_key)
            qe = tuple(a - b for a, b in zip(re, de))
            if any(k < 0 for k in qe):
                raise NotDivisible("%s does not divide %s" % (divisor, self))
            qc = _coerce(Fraction(rem.pop(re), dc))
            q[qe] = qc
            for e, c in rest:
                k = tuple(a + b for a, b in zip(e, qe))
                s = rem.get(k, 0) - c * qc
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return MultiPoly(self.vars, q)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                       reverse=True)
        parts = []
        for e, c in items:
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.vars[i])
                elif k > 1:
                    factors.append("%s^%d" % (self.vars[i], k))
            if isinstance(c, (int, Fraction)):
                neg = c < 0
                mag = -c if neg else c
                if not factors or mag != 1:
                    factors.insert(0, str(mag))
                body = "*".join(factors)
                if not parts:
                    parts.append("-" + body if neg else body)
                else:
                    parts.append((" - " if neg else " + ") + body)
            else:
                # other coefficient rings (jets etc): crude but unambiguous
                factors.insert(0, "(%s)" % (c,))
                body = "*".join(factors)
                parts.append(body if not parts else " + " + body)
        return "".join(parts)

    def __repr__(self):
        return "MultiPoly(%r, %s)" % (list(self.vars), self)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd of two polynomials that use at most one variable between
    them, by `univariate.ugcd_monic`.  The result lives in the caller's
    ring and is primitive with positive leading coefficient; constants
    have gcd 1.  Raises ValueError when two variables are used."""
    a._check_same_vars(b)
    used = a.used_vars() | b.used_vars()
    if len(used) > 1:
        raise ValueError("poly_gcd takes polynomials in one variable, "
                         "got %s" % ", ".join(sorted(used)))
    if a.is_zero():
        return b.primitive_normalized()
    if b.is_zero():
        return a.primitive_normalized()
    if not used:
        return MultiPoly.const(a.vars, 1)
    # univariate imports modular, which imports this module
    from .univariate import as_univariate, ugcd_monic
    (var,) = used
    g = ugcd_monic(as_univariate(a, var)[1], as_univariate(b, var)[1])
    return MultiPoly.from_univariate(a.vars, var, g).primitive_normalized()
