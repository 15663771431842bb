"""Exact substrate: polynomials, rational functions, jets, linear
algebra, univariate helpers, modular arithmetic."""

import random
from fractions import Fraction

import pytest

from conicbundles.exactmath import (
    Jet,
    MultiPoly,
    NotDivisible,
    PolyParseError,
    RatFunc,
    as_univariate,
    is_square_rat,
    is_squarefree,
    legendre,
    mat_det,
    mat_rank,
    nullspace,
    parse_poly,
    roots_mod_p,
    sqrt_rat,
    squarefree_part_int,
)
from conicbundles.exactmath.modular import (
    irreducible_mod_p,
    is_probable_prime,
    modp_irreducible_witness,
    next_prime,
    primes_from,
)
from conicbundles.exactmath.univariate import (
    udiscriminant,
    udivmod,
    uexact_div,
    ugcd_monic,
    umul,
    uprimitive,
    urational_roots,
    usub,
    yun_squarefree,
)

XY = ("x", "y")


def rand_poly(rng, variables, deg=3, lo=-5, hi=5):
    terms = {}
    n = len(variables)
    for _ in range(rng.randint(1, 6)):
        e = [0] * n
        budget = rng.randint(0, deg)
        for _ in range(budget):
            e[rng.randrange(n)] += 1
        c = rng.randint(lo, hi)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MultiPoly(variables, {e: Fraction(c) for e, c in terms.items()})


# -- multivariate polynomials ------------------------------------------

def test_binomial_square():
    x = MultiPoly.variable(XY, "x")
    y = MultiPoly.variable(XY, "y")
    assert (x + y) ** 2 == x * x + x * y * 2 + y * y


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, XY)
        b = rand_poly(rng, XY)
        c = rand_poly(rng, XY)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert a * b == b * a


def test_evaluate_is_ring_morphism():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_poly(rng, XY)
        b = rand_poly(rng, XY)
        pt = {"x": Fraction(rng.randint(-4, 4)),
              "y": Fraction(rng.randint(-4, 4), rng.randint(1, 4))}
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_substitute_composes_with_evaluate():
    rng = random.Random(13)
    x = MultiPoly.variable(XY, "x")
    y = MultiPoly.variable(XY, "y")
    for _ in range(20):
        p = rand_poly(rng, XY)
        q = p.substitute({"x": x + y, "y": x - y})
        pt = {"x": Fraction(rng.randint(-3, 3)),
              "y": Fraction(rng.randint(-3, 3))}
        direct = p.evaluate({"x": pt["x"] + pt["y"], "y": pt["x"] - pt["y"]})
        assert q.evaluate(pt) == direct


def test_derivative_leibniz():
    rng = random.Random(17)
    for _ in range(30):
        a = rand_poly(rng, XY)
        b = rand_poly(rng, XY)
        lhs = (a * b).derivative("x")
        rhs = a.derivative("x") * b + a * b.derivative("x")
        assert lhs == rhs


def test_exact_div_and_refusal():
    x = MultiPoly.variable(XY, "x")
    y = MultiPoly.variable(XY, "y")
    p = (x + y) * (x - y)
    assert p.exact_div(x + y) == x - y
    with pytest.raises(NotDivisible):
        p.exact_div(x + y * 2)


def test_primitive_normalized_content():
    x = MultiPoly.variable(XY, "x")
    y = MultiPoly.variable(XY, "y")
    p = (x * 6 + y * 10) * Fraction(1, 4)
    q = p.primitive_normalized()
    assert q == x * 3 + y * 5
    assert q.content() == 1


# -- mixed int / Fraction coefficients ------------------------------------

XYZ = ("x", "y", "z")


def rand_mixed_poly(rng, variables, deg=3):
    """Coefficients drawn half as ints, half as Fractions, some of
    which are integral."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = [0] * len(variables)
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(len(variables))] += 1
        if rng.random() < 0.5:
            c = rng.randint(-6, 6)
        else:
            c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MultiPoly(variables, terms)


def assert_stored_form(p):
    """ints for integral coefficients, Fractions only with a real
    denominator."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def to_sympy(sympy, p, gens):
    out = sympy.Integer(0)
    for e, c in p.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator)
        for g, k in zip(gens, e):
            mono *= g ** k
        out += mono
    return out


def test_mixed_coefficients_against_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")
    rng = random.Random(71)
    x, y, z = (MultiPoly.variable(XYZ, v) for v in XYZ)
    for _ in range(40):
        a, b, c = (rand_mixed_poly(rng, XYZ) for _ in range(3))
        sa, sb, sc = (to_sympy(sympy, p, gens) for p in (a, b, c))
        sub = a.substitute({"x": b, "y": c})
        half = Fraction(1, 2)
        checks = ((a * b, sa * sb), (a + b, sa + sb), (a - b, sa - sb),
                  (a * half, sa / 2), ((a * b * 2).exact_div(b * 2), sa),
                  (sub, sa.subs({gens[0]: sb, gens[1]: sc},
                                simultaneous=True)))
        for got, want in checks:
            assert_stored_form(got)
            assert sympy.expand(to_sympy(sympy, got, gens) - want) == 0
        pt = {"x": rng.randint(-3, 3), "y": Fraction(rng.randint(-3, 3), 2),
              "z": Fraction(rng.randint(1, 5), 3)}
        got = a.evaluate(pt)
        assert type(got) in (int, Fraction) and got == sa.subs(
            {g: sympy.Rational(str(pt[v])) for g, v in zip(gens, XYZ)})
        if a:
            cont, prim = sympy.expand(sa).as_content_primitive()
            assert a.content() == Fraction(int(cont.p), int(cont.q))
            norm = a.primitive_normalized()
            assert_stored_form(norm)
            assert all(type(k) is int for k in norm.terms.values())
            lead = sympy.Poly(prim, *gens).LC(order="grlex")
            assert sympy.expand(to_sympy(sympy, norm, gens)
                                - prim * sympy.sign(lead)) == 0
    # sums and products of proper Fractions that come out integral
    p = x * Fraction(1, 2) + y * Fraction(3, 4)
    for q in (p + x * Fraction(1, 2), p * 4, p * (x * 2 + z * 4),
              (p * p).exact_div(p), -p - p):
        assert_stored_form(q)
    assert (p * 4).terms == {(1, 0, 0): 2, (0, 1, 0): 3}


def test_float_coefficients_are_refused():
    from conicbundles.exactmath.multipoly import _coerce
    with pytest.raises(TypeError):
        _coerce(0.5)
    assert _coerce(Fraction(6, 3)) == 2 and type(_coerce(Fraction(6, 3))) \
        is int
    x = MultiPoly.variable(XY, "x")
    for bad in (lambda: x * 0.5, lambda: MultiPoly.const(XY, 1.0),
                lambda: x.evaluate({"x": 0.5})):
        with pytest.raises(TypeError):
            bad()


def test_rank_of_int_and_mixed_rows_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(73)
    for trial in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        if n > 2:
            # a planted dependency: the last row is a combination
            rows[-1] = [rows[0][j] * 2 - rows[1][j] for j in range(m)]
        if trial % 2:
            # mixed rows: some entries Fractions, some of them integral
            rows = [[Fraction(c, rng.choice((1, 2, 5))) if rng.random() < 0.4
                     else c for c in row] for row in rows]
        want = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                              for c in row] for row in rows]).rank()
        before = [list(row) for row in rows]
        assert mat_rank(rows) == want
        assert rows == before  # the caller's rows are not touched
        if n == m:
            assert mat_det(rows) == Fraction(str(sympy.Matrix(
                [[sympy.Rational(c.numerator, c.denominator) for c in row]
                 for row in rows]).det()))


def test_str_parse_round_trip():
    rng = random.Random(19)
    for _ in range(40):
        p = rand_poly(rng, ("x0", "x1", "t"))
        if p.is_zero():
            continue
        assert parse_poly(str(p), p.vars) == p


def test_parser_fractions_and_errors():
    p = parse_poly("1/2*x^2 - 3*x*y + y", XY)
    assert p.coeff((2, 0)) == Fraction(1, 2)
    assert p.coeff((1, 1)) == -3
    with pytest.raises(PolyParseError):
        parse_poly("(x + y)^2", XY)
    with pytest.raises(PolyParseError):
        parse_poly("0.5*x", XY)
    with pytest.raises(PolyParseError):
        parse_poly("x + z", XY)


# -- rational functions -------------------------------------------------

def test_ratfunc_normalization():
    t = MultiPoly.variable(("t",), "t")
    one = MultiPoly.const(("t",), 1)
    r = RatFunc((t * t - one), (t - one))
    # common factor cancels
    assert (r.num, r.den) == (t + one, one)
    # the denominator becomes primitive with positive leading
    # coefficient; its content moves into the numerator
    r = RatFunc(t * 3, one - t * 2)
    assert (r.num, r.den) == (-(t * 3), t * 2 - one)
    assert str(r) == "-3*t/(2*t - 1)" and str(-r) == "3*t/(2*t - 1)"
    with pytest.raises(ZeroDivisionError):
        RatFunc(t, one - one)


# -- jets ---------------------------------------------------------------

def test_jet_product_rule():
    rng = random.Random(31)
    for _ in range(30):
        a, da = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        b, db = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        p = Jet(a, da) * Jet(b, db)
        assert p.val == a * b and p.eps == a * db + da * b


def test_jet_matches_symbolic_derivative():
    rng = random.Random(37)
    for _ in range(20):
        p = rand_poly(rng, XY, deg=4)
        x0 = Fraction(rng.randint(-3, 3))
        y0 = Fraction(rng.randint(-3, 3))
        jet = p.evaluate({"x": Jet(x0, 1), "y": Jet(y0, 0)})
        jet = jet if isinstance(jet, Jet) else Jet.lift(jet)
        dp = p.derivative("x").evaluate({"x": x0, "y": y0})
        assert jet.val == p.evaluate({"x": x0, "y": y0})
        assert jet.eps == dp


def test_jet_division():
    q = Jet(Fraction(1), Fraction(2)) / Jet(Fraction(3), Fraction(-1))
    # (1 + 2e)/(3 - e) = 1/3 + (2*3 - 1*(-1))/9 e
    assert q.val == Fraction(1, 3) and q.eps == Fraction(7, 9)


# -- linear algebra -----------------------------------------------------

def rand_matrix(rng, n, m, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(m)]
            for _ in range(n)]


def test_rank_of_outer_products():
    rng = random.Random(41)
    for _ in range(20):
        n, m, r = 5, 6, rng.randint(0, 4)
        mat = [[Fraction(0)] * m for _ in range(n)]
        for _ in range(r):
            u = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            v = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
            for i in range(n):
                for j in range(m):
                    mat[i][j] += u[i] * v[j]
        assert mat_rank(mat) <= r


def test_rank_full_when_det_nonzero():
    rng = random.Random(43)
    hits = 0
    for _ in range(25):
        a = rand_matrix(rng, 4, 4)
        d = mat_det(a)
        if d:
            hits += 1
            assert mat_rank(a) == 4
    assert hits > 10


def test_det_multiplicative():
    rng = random.Random(47)
    for _ in range(15):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        assert mat_det(ab) == mat_det(a) * mat_det(b)


def test_nullspace_annihilates():
    rng = random.Random(53)
    for _ in range(15):
        a = rand_matrix(rng, 3, 5)
        basis = nullspace(a)
        assert len(basis) >= 2
        for v in basis:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) == 0


# -- univariate helpers -------------------------------------------------

def test_udivmod_identity():
    rng = random.Random(61)
    for _ in range(30):
        a = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 7))]
        b = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
        while b and not b[-1]:
            b.pop()
        if not b:
            continue
        q, r = udivmod(a, b)
        assert usub(a, umul(q, b)) == r
        assert len(r) < len(b)


def test_gcd_monic_of_shared_factor():
    # (t-2)(t+1) and (t-2)(t-5) share exactly t-2
    a = umul([Fraction(-2), Fraction(1)], [Fraction(1), Fraction(1)])
    b = umul([Fraction(-2), Fraction(1)], [Fraction(-5), Fraction(1)])
    assert ugcd_monic(a, b) == [Fraction(-2), Fraction(1)]


def test_rational_roots_and_squarefree():
    # (2t-1)(t+3)^2: roots 1/2 and -3, not square-free
    f = umul(umul([Fraction(-1), Fraction(2)], [Fraction(3), Fraction(1)]),
             [Fraction(3), Fraction(1)])
    roots = sorted(urational_roots(f))  # with multiplicity
    assert roots == [Fraction(-3), Fraction(-3), Fraction(1, 2)]
    assert not is_squarefree(f)
    parts = dict((tuple(p), m) for p, m in yun_squarefree(f))
    assert parts[(Fraction(3), Fraction(1))] == 2


def test_discriminant_detects_double_roots():
    rng = random.Random(67)
    for _ in range(25):
        r1 = Fraction(rng.randint(-4, 4))
        r2 = Fraction(rng.randint(-4, 4))
        f = umul([-r1, Fraction(1)], [-r2, Fraction(1)])
        disc = udiscriminant(f)
        assert (disc == 0) == (r1 == r2)
        # monic quadratic: disc = (r1 - r2)^2
        assert disc == (r1 - r2) ** 2


def test_uprimitive_and_exact_div():
    f = [Fraction(2), Fraction(4), Fraction(6)]
    assert uprimitive(f) == [1, 2, 3]
    got = uprimitive([Fraction(1, 2), Fraction(-1, 3), Fraction(0)])
    assert got == [-3, 2] and all(type(c) is int for c in got)
    prod = umul([Fraction(1), Fraction(1)], [Fraction(-3), Fraction(2)])
    assert uexact_div(prod, [Fraction(1), Fraction(1)]) \
        == [Fraction(-3), Fraction(2)]


def test_as_univariate_round_trip():
    t = ("t",)
    p = parse_poly("3*t^4 - t + 7", t)
    var, coeffs = as_univariate(p, "t")
    assert var == "t"
    assert coeffs[4] == 3 and coeffs[1] == -1 and coeffs[0] == 7
    assert len(coeffs) == 5


# -- squares and square classes -----------------------------------------

def test_square_detection():
    assert is_square_rat(Fraction(49, 81))
    assert not is_square_rat(Fraction(-49, 81))
    assert not is_square_rat(Fraction(2))
    assert sqrt_rat(Fraction(49, 81)) == Fraction(7, 9)
    assert squarefree_part_int(0) == 0
    assert squarefree_part_int(72) == 2  # 72 = 36 * 2


# -- modular helpers -----------------------------------------------------

def test_legendre_against_bruteforce():
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert legendre(a, p) == want


def test_roots_mod_p_bruteforce():
    rng = random.Random(73)
    for p in (5, 7, 11):
        for _ in range(10):
            coeffs = [rng.randrange(p) for _ in range(4)]
            if not any(coeffs):
                continue
            got = sorted(roots_mod_p(coeffs, p))
            want = sorted(r for r in range(p)
                          if sum(c * pow(r, k, p)
                                 for k, c in enumerate(coeffs)) % p == 0)
            assert got == want


def test_primality_helpers():
    primes_below_100 = [n for n in range(2, 100) if is_probable_prime(n)]
    sieve = [True] * 100
    for n in range(2, 100):
        if sieve[n]:
            for k in range(2 * n, 100, n):
                sieve[k] = False
    assert primes_below_100 == [n for n in range(2, 100) if sieve[n]]
    assert next_prime(13) == 17
    it = primes_from(3)
    assert [next(it) for _ in range(4)] == [3, 5, 7, 11]


def test_irreducibility_witness():
    assert irreducible_mod_p([1, 0, 1], 3)
    assert not irreducible_mod_p([1, 0, 1], 5)  # (t-2)(t+2) mod 5
    w = modp_irreducible_witness([Fraction(1), 0, Fraction(1)], bound=100)
    assert w is not None and w.p == 3
    # (t^2 + 1)/2 + t/3 clears to 3t^2 + 2t + 3: reducible mod 2, of
    # lower degree mod 3
    w = modp_irreducible_witness(
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)], bound=100)
    assert w is not None and w.p == 5


def test_rational_roots_of_multipoly():
    p = parse_poly("2*t^3 - 3*t^2 - 3*t + 2", ("t",))
    # roots: -1, 2, 1/2
    _, coeffs = as_univariate(p, "t")
    assert sorted(urational_roots(coeffs)) == [
        Fraction(-1), Fraction(1, 2), Fraction(2)]
