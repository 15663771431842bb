"""Rational functions num/den over MultiPoly, kept reduced: the gcd
of numerator and denominator is removed and the denominator is scaled
to coprime integer coefficients with positive graded-lex leading
coefficient (the rational content lives in the numerator)."""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, poly_gcd


def _union_vars(a: MultiPoly, b: MultiPoly):
    if a.vars == b.vars:
        return a, b
    merged = tuple(dict.fromkeys(a.vars + b.vars))
    return a.align(merged), b.align(merged)


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        num, den = _union_vars(num, den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = MultiPoly.const(num.vars, 1)
        elif den.is_constant():  # the gcd is 1: only scale den to 1
            num = num * (1 / den.constant_value())
            den = MultiPoly.const(num.vars, 1)
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
            target = den.primitive_normalized()
            scale = den.leading_term_grlex()[1] / target.leading_term_grlex()[1]
            num = num * (1 / scale)
            den = target
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_const(cls, variables, c) -> "RatFunc":
        return cls(MultiPoly.const(variables, c))

    @staticmethod
    def lift(x, variables) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, MultiPoly):
            return RatFunc(x)
        return RatFunc(MultiPoly.const(variables, x))

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    # -- arithmetic -------------------------------------------------------

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.from_const(self.num.vars, other)
        elif isinstance(other, MultiPoly):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        a, b = _union_vars(self.num * other.den, other.num * self.den)
        return a == b

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        out = object.__new__(RatFunc)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def _coerced(self, other):
        return RatFunc.lift(other, self.num.vars)

    def __add__(self, other):
        other = self._coerced(other)
        a, c = _union_vars(self.num, other.num)
        b, d = _union_vars(self.den, other.den)
        return RatFunc(a * d + c * b, b * d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __rsub__(self, other):
        return self._coerced(other) - self

    def __mul__(self, other):
        other = self._coerced(other)
        a, c = _union_vars(self.num, other.num)
        b, d = _union_vars(self.den, other.den)
        return RatFunc(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        a, c = _union_vars(self.num, other.den)
        b, d = _union_vars(self.den, other.num)
        return RatFunc(a * c, b * d)

    def __rtruediv__(self, other):
        return self._coerced(other) / self

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ValueError("rational function powers take integers")
        base = self if e >= 0 else self.inverse()
        out = RatFunc.from_const(self.num.vars, 1)
        for _ in range(abs(e)):
            out = out * base
        return out

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, mapping) -> Fraction:
        d = self.den.evaluate(mapping)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate(mapping) / d

    def derivative(self, var: str) -> "RatFunc":
        return RatFunc(
            self.num.derivative(var) * self.den
            - self.num * self.den.derivative(var),
            self.den * self.den)

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = "(%s)" % ns
        ds = str(self.den)
        if len(self.den.terms) > 1:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "RatFunc(%s)" % self
