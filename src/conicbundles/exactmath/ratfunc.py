"""Reduced fractions num/den of polynomials in one variable, as the
diagonal conic model a*x^2 + b*y^2 = z^2 over Q(t) holds its a and b.

The gcd of numerator and denominator is removed and the denominator is
scaled to coprime integer coefficients with positive leading
coefficient (the rational content lives in the numerator).  The residue
path reads only `num` and `den`; there is no field arithmetic here."""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, poly_gcd


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = MultiPoly.const(num.vars, 1)
        elif den.is_constant():  # the gcd is 1: only scale den to 1
            num = num * Fraction(1, den.constant_value())
            den = MultiPoly.const(num.vars, 1)
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
            target = den.primitive_normalized()
            num = num * Fraction(target.leading_term_grlex()[1],
                                 den.leading_term_grlex()[1])
            den = target
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

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
