"""Univariate arithmetic over Q and F_p, the Legendre symbol and the
polynomial gcd, checked against sympy as an oracle on seeded random
inputs."""

import random
from fractions import Fraction

import pytest

from conicbundles.exactmath import MultiPoly, poly_gcd
from conicbundles.exactmath.modular import legendre, roots_mod_p
from conicbundles.exactmath.univariate import (
    udiscriminant,
    udivmod,
    ugcd_monic,
    umod,
    umonic,
    umul,
    uresultant,
    usub,
    yun_squarefree,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

T = sympy.Symbol("t")
X, Y = sympy.symbols("x y")


def _rand_coeffs(rng, deg, den=1):
    """Coefficient list of exact degree deg, low to high."""
    out = [Fraction(rng.randint(-9, 9), rng.randint(1, den))
           for _ in range(deg)]
    lead = 0
    while not lead:
        lead = rng.randint(-9, 9)
    return out + [Fraction(lead, rng.randint(1, den))]


def _to_sympy(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)] or [0], T, domain="QQ")


def _from_sympy(poly):
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return out


def _expr(p: MultiPoly):
    syms = [sympy.Symbol(v) for v in p.vars]
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
        for e, c in p.terms.items()])


def _same_up_to_constant(ours: MultiPoly, theirs) -> bool:
    ratio = sympy.cancel(_expr(ours) / theirs)
    return ratio.is_Rational and ratio != 0


def test_udivmod_and_umod_against_sympy():
    rng = random.Random(811)
    for _ in range(120):
        a = _rand_coeffs(rng, rng.randint(0, 9), den=5)
        b = _rand_coeffs(rng, rng.randint(0, 5), den=5)
        q, r = udivmod(a, b)
        sq, sr = sympy.div(_to_sympy(a), _to_sympy(b))
        assert q == _from_sympy(sq), (a, b)
        assert r == _from_sympy(sr), (a, b)
        assert umod(a, b) == r, (a, b)
    # integer inputs are coerced by udivmod
    assert udivmod([1, 2, 1], [1, 1]) == ([Fraction(1), Fraction(1)], [])
    with pytest.raises(ZeroDivisionError):
        udivmod([Fraction(1)], [])
    with pytest.raises(ZeroDivisionError):
        umod([Fraction(1)], [])


def test_ugcd_monic_against_sympy():
    rng = random.Random(823)
    for _ in range(80):
        g = _rand_coeffs(rng, rng.randint(0, 3), den=3)
        a = umul(g, _rand_coeffs(rng, rng.randint(0, 5), den=3))
        b = umul(g, _rand_coeffs(rng, rng.randint(0, 5), den=3))
        want = _from_sympy(sympy.gcd(_to_sympy(a), _to_sympy(b)).monic())
        assert ugcd_monic(a, b) == want, (a, b)
        assert ugcd_monic(b, a) == want, (a, b)
    assert ugcd_monic([Fraction(2), Fraction(4)], []) == \
        [Fraction(1, 2), Fraction(1)]
    assert ugcd_monic([], []) == []


def test_umonic_and_usub():
    rng = random.Random(827)
    for _ in range(40):
        a = _rand_coeffs(rng, rng.randint(0, 6), den=7)
        b = _rand_coeffs(rng, rng.randint(0, 6), den=7)
        assert umonic(a) == _from_sympy(_to_sympy(a).monic())
        assert usub(a, b) == _from_sympy(_to_sympy(a) - _to_sympy(b))
        assert usub(a, a) == []
    assert umonic([3, 6, 0, 0]) == [Fraction(1, 2), Fraction(1)]
    assert umonic([0, 0]) == []


def test_yun_squarefree_against_sympy():
    rng = random.Random(829)
    for _ in range(40):
        f = [Fraction(rng.randint(1, 9))]
        for m in range(1, 4):
            for _ in range(rng.randint(0, 2)):
                h = _rand_coeffs(rng, rng.randint(1, 2), den=2)
                for _ in range(m):
                    f = umul(f, h)
        _, parts = sympy.sqf_list(_to_sympy(f))
        want = sorted((tuple(_from_sympy(p.monic())), m) for p, m in parts)
        got = yun_squarefree(f)
        assert [m for _, m in got] == sorted(m for _, m in got)
        assert sorted((tuple(p), m) for p, m in got) == want, f
    assert yun_squarefree([Fraction(5)]) == []


def test_poly_gcd_one_variable_against_sympy():
    rng = random.Random(839)
    for _ in range(60):
        g = _rand_coeffs(rng, rng.randint(0, 3), den=4)
        a = umul(g, _rand_coeffs(rng, rng.randint(0, 5), den=4))
        b = umul(g, _rand_coeffs(rng, rng.randint(0, 5), den=4))
        pa = MultiPoly.from_univariate(("s", "t"), "t", a)
        pb = MultiPoly.from_univariate(("s", "t"), "t", b)
        d = poly_gcd(pa, pb)
        assert d.vars == ("s", "t")
        want = sympy.gcd(_expr(pa), _expr(pb))
        assert _same_up_to_constant(d, want), (a, b)
        # primitive over Z with a positive leading coefficient
        assert d.content() == 1 and d.leading_term_grlex()[1] > 0


def test_poly_gcd_two_variables_against_sympy():
    rng = random.Random(853)
    xy = ("x", "y")

    def rand_poly(deg):
        terms = {(i, j): rng.randint(-5, 5)
                 for i in range(deg + 1) for j in range(deg + 1 - i)
                 if rng.random() < 0.6}
        return MultiPoly(xy, terms)

    checked = 0
    for _ in range(30):
        g, a, b = rand_poly(2), rand_poly(2), rand_poly(2)
        if not (g * a) or not (g * b):
            continue
        d = poly_gcd(g * a, g * b)
        want = sympy.gcd(_expr(g * a), _expr(g * b))
        assert _same_up_to_constant(d, want), (g, a, b)
        assert d.content() == 1 and d.leading_term_grlex()[1] > 0
        checked += 1
    assert checked > 20


def test_uresultant_against_sympy():
    rng = random.Random(83)
    for _ in range(40):
        a = _rand_coeffs(rng, rng.randint(0, 6), den=4)
        b = _rand_coeffs(rng, rng.randint(0, 6), den=4)
        if len(a) == 1 and len(b) == 1:
            continue
        if rng.random() < 0.25:
            # a common factor makes the resultant vanish
            c = _rand_coeffs(rng, 1)
            a, b = umul(a, c), umul(b, c)
        # the determinant of sympy's own Sylvester matrix: sympy 1.14's
        # resultant() gets the sign wrong on some pairs of odd degree
        # product, e.g. Res(3t - 3, 2t^3 - 5t^2 + 4) = 27, not -27
        want = sylvester(_to_sympy(a).as_expr(), _to_sympy(b).as_expr(),
                         T).det()
        got = uresultant(a, b)
        assert got == Fraction(int(want.p), int(want.q))
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
        assert uresultant(b, a) == sign * got
    assert uresultant([-3, 3], [4, 0, -5, 2]) == 27


def test_udiscriminant_against_sympy():
    rng = random.Random(89)
    for _ in range(40):
        a = _rand_coeffs(rng, rng.randint(1, 8), den=3)
        if rng.random() < 0.25:
            # a repeated factor makes the discriminant vanish
            c = _rand_coeffs(rng, 1)
            a = umul(a, umul(c, c))
        want = sympy.discriminant(_to_sympy(a))
        assert udiscriminant(a) == Fraction(int(want.p), int(want.q))


def test_roots_mod_p_against_sympy():
    rng = random.Random(97)
    primes = [2, 3, 5, 7, 101, 10007, 1000003]
    for _ in range(60):
        p = rng.choice(primes)
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(2, 9))]
        if rng.random() < 0.5:
            # plant roots so that many cases have some
            for r in (rng.randrange(p) for _ in range(rng.randint(1, 3))):
                coeffs = [(x - r * y) for x, y in
                          zip([0] + coeffs, coeffs + [0])]
        if all(c % p == 0 for c in coeffs):
            continue
        poly = sympy.Poly(list(reversed(coeffs)), T, modulus=p)
        want = sorted({int(-f.TC()) % p
                       for f, _ in poly.factor_list()[1]
                       if f.degree() == 1 and f.LC() % p == 1})
        assert roots_mod_p(coeffs, p) == want, (coeffs, p)


def test_legendre_against_sympy():
    rng = random.Random(101)
    for p in (3, 5, 7, 11, 10007, 1000003, 2**61 - 1):
        for _ in range(25):
            a = rng.randint(-10**12, 10**12)
            if rng.random() < 0.1:
                a = p * rng.randint(-5, 5)
            want = sympy.jacobi_symbol(a % p, p)
            assert legendre(a, p) == want, (a, p)
