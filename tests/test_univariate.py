"""Univariate arithmetic over Q and F_p, the Legendre symbol and the
polynomial gcd, checked against sympy as an oracle on seeded random
inputs."""

import random
from fractions import Fraction

import pytest

from conicbundles.exactmath import MultiPoly, poly_gcd
from conicbundles.exactmath import univariate
from conicbundles.exactmath.modular import (
    hensel_root,
    irreducible_mod_p,
    legendre,
    pmod_divmod,
    pmod_mul,
    pmod_pow,
    primes_from,
    roots_mod_p,
    squarefree_mod_p,
)
from conicbundles.exactmath.univariate import (
    as_univariate,
    udiscriminant,
    udivmod,
    uderiv,
    ugcd_monic,
    uinvmod,
    umod,
    umonic,
    umul,
    upowmod,
    uprimitive,
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
    # integer inputs over a monic divisor stay ints
    q, r = udivmod([1, 2, 1], [1, 1])
    assert q == [1, 1] and r == [] and all(type(c) is int for c in q)
    with pytest.raises(ZeroDivisionError):
        udivmod([Fraction(1)], [])
    with pytest.raises(ZeroDivisionError):
        umod([Fraction(1)], [])


def _sympy_gcd(a, b):
    return _from_sympy(sympy.gcd(_to_sympy(a), _to_sympy(b)).monic())


def _planted_pairs(rng, count, max_deg=26, height=9, den=7):
    """Pairs g*u, g*v with a planted common factor g; the degrees of
    g*u and g*v stay at most max_deg."""
    for _ in range(count):
        dg = rng.randint(0, 12)
        g = _rand_coeffs(rng, dg, den=den)
        g = [c * rng.randint(1, height) for c in g]
        u = _rand_coeffs(rng, rng.randint(0, max_deg - dg), den=den)
        v = _rand_coeffs(rng, rng.randint(0, max_deg - dg), den=den)
        yield umul(g, u), umul(g, v)


def test_ugcd_monic_against_sympy():
    rng = random.Random(823)
    for _ in range(80):
        g = _rand_coeffs(rng, rng.randint(0, 3), den=3)
        a = umul(g, _rand_coeffs(rng, rng.randint(0, 5), den=3))
        b = umul(g, _rand_coeffs(rng, rng.randint(0, 5), den=3))
        want = _sympy_gcd(a, b)
        assert ugcd_monic(a, b) == want, (a, b)
        assert ugcd_monic(b, a) == want, (a, b)
    assert ugcd_monic([Fraction(2), Fraction(4)], []) == \
        [Fraction(1, 2), Fraction(1)]
    assert ugcd_monic([], []) == []


def test_ugcd_monic_planted_factors_up_to_degree_26():
    rng = random.Random(829)
    for a, b in _planted_pairs(rng, 60):
        want = _sympy_gcd(a, b)
        assert ugcd_monic(a, b) == want, (a, b)
    # coefficients far above the gcd primes need several of them
    for a, b in _planted_pairs(rng, 10, height=10**40):
        assert ugcd_monic(a, b) == _sympy_gcd(a, b), (a, b)


def test_ugcd_monic_coprime_zero_and_constant():
    rng = random.Random(839)
    for _ in range(40):
        a = _rand_coeffs(rng, rng.randint(1, 20), den=9)
        b = _rand_coeffs(rng, rng.randint(1, 20), den=9)
        assert ugcd_monic(a, b) == _sympy_gcd(a, b), (a, b)
    f = _rand_coeffs(rng, 6, den=5)
    assert ugcd_monic(f, []) == ugcd_monic([], f) == umonic(f)
    assert ugcd_monic(f, f) == umonic(f)
    assert ugcd_monic([Fraction(-3, 7)], f) == [Fraction(1)]
    assert ugcd_monic(f, [Fraction(5)]) == [Fraction(1)]
    assert ugcd_monic([Fraction(-2)], []) == [Fraction(1)]
    assert ugcd_monic([Fraction(0), Fraction(1, 2)], [0, 0, 3]) == \
        [Fraction(0), Fraction(1)]


def test_ugcd_monic_with_small_primes(monkeypatch):
    # with the primes 3, 5, 7, ... some divide a leading coefficient,
    # some give a gcd image of too high degree, and the coefficients
    # need the Chinese remainder theorem over several primes
    seen = []
    real = univariate.pmod_gcd

    def recording(a, b, p):
        g = real(a, b, p)
        seen.append((p, len(g) - 1))
        return g

    monkeypatch.setattr(univariate, "_gcd_primes", lambda: primes_from(3))
    monkeypatch.setattr(univariate, "pmod_gcd", recording)

    def gcd_images(a, b):
        seen.clear()
        got = ugcd_monic(a, b)
        assert got == _sympy_gcd(a, b), (a, b)
        return got, list(seen)

    # lc 15: the primes 3 and 5 are skipped
    got, images = gcd_images(umul([-1, 1], [4, 15]), umul([-1, 1], [2, 1]))
    assert got == [Fraction(-1), Fraction(1)]
    assert images[0][0] == 7
    # t - 1 is the gcd, but mod 3 both cofactors become t - 1 as well
    got, images = gcd_images(umul([-1, 1], [-4, 1]), umul([-1, 1], [-7, 1]))
    assert images[0] == (3, 2) and got == [Fraction(-1), Fraction(1)]
    # a gcd with coefficients of 12 digits takes several primes
    g = [Fraction(10**12 + 39), Fraction(-999983), Fraction(1)]
    got, images = gcd_images(umul(g, [3, 1]), umul(g, [5, 2, 1]))
    assert got == g and len(images) > 5
    rng = random.Random(853)
    unlucky = skipped = 0
    for a, b in _planted_pairs(rng, 40, max_deg=14, height=99):
        _, images = gcd_images(a, b)
        unlucky += any(d > images[-1][1] for _, d in images)
        lcs = uprimitive(a)[-1] * uprimitive(b)[-1]
        skipped += any(lcs % p == 0 for p in (3, 5, 7, 11))
    assert unlucky and skipped


def test_upowmod_and_uinvmod_against_sympy():
    rng = random.Random(857)
    for _ in range(40):
        f = _rand_coeffs(rng, rng.randint(1, 6), den=5)
        a = _rand_coeffs(rng, rng.randint(0, 8), den=5)
        e = rng.randint(0, 12)
        fs, as_ = _to_sympy(f), _to_sympy(a)
        want = _from_sympy(sympy.rem(as_ ** e, fs))
        assert upowmod(a, e, f) == want, (a, e, f)
        if sympy.gcd(as_, fs).degree() > 0:
            with pytest.raises(ZeroDivisionError):
                uinvmod(a, f)
            continue
        inv = uinvmod(a, f)
        assert inv == _from_sympy(sympy.invert(as_, fs)), (a, f)
        assert umod(umul(inv, a), f) == [Fraction(1)]
    with pytest.raises(ZeroDivisionError):
        uinvmod([Fraction(-2), Fraction(1)], umul([-2, 1], [1, 1]))


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


def _assert_stored(coeffs):
    """Every coefficient is an int, or a Fraction with a denominator
    other than 1; none is a float."""
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction
                                  and c.denominator != 1), coeffs


def _rand_mixed(rng, deg):
    """Exact degree deg, each coefficient an int or a Fraction."""
    out = [rng.randint(-9, 9) if rng.random() < 0.6
           else Fraction(rng.randint(-9, 9), rng.randint(2, 6))
           for _ in range(deg + 1)]
    while not out[-1]:
        out[-1] = rng.randint(-9, 9)
    return [c.numerator if type(c) is Fraction and c.denominator == 1
            else c for c in out]


def test_mixed_coefficient_lists_against_sympy():
    # each list-level function on coefficient lists mixing ints and
    # Fractions, against sympy over QQ, and its result in stored form
    rng = random.Random(883)
    for _ in range(60):
        a = _rand_mixed(rng, rng.randint(0, 8))
        b = _rand_mixed(rng, rng.randint(0, 5))
        f = _rand_mixed(rng, rng.randint(1, 5))
        sa, sb, sf = _to_sympy(a), _to_sympy(b), _to_sympy(f)
        q, r = udivmod(a, b)
        e = rng.choice((0, 1, 2, 3, 7))
        checks = [(usub(a, b), sa - sb), (umul(a, b), sa * sb),
                  (q, sympy.div(sa, sb)[0]), (r, sympy.div(sa, sb)[1]),
                  (umod(a, b), sympy.rem(sa, sb)), (umonic(a), sa.monic()),
                  (upowmod(a, e, f), sympy.rem(sa ** e, sf)),
                  (uderiv(a), sa.diff(T))]
        if sympy.gcd(sa, sf).degree() == 0:
            checks.append((uinvmod(a, f), sympy.invert(sa, sf)))
        for got, want in checks:
            _assert_stored(got)
            assert got == _from_sympy(want), (a, b, f)
        prim = uprimitive(a)
        assert all(type(c) is int for c in prim)
        _, sprim = sa.primitive()
        assert prim == [int(c) * (1 if sprim.LC() > 0 else -1)
                        for c in reversed(sprim.all_coeffs())], a
        poly = MultiPoly.from_univariate(("t",), "t", a)
        _, got = as_univariate(poly, "t")
        _assert_stored(got)
        assert got == a
    # integral inputs over a monic integral divisor give only ints
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1]
        q, r = udivmod(a, f)
        out = (usub(a, f) + umul(a, f) + q + r + umod(a, f)
               + upowmod(a, rng.randint(0, 9), f) + umonic(f) + uderiv(a)
               + as_univariate(MultiPoly.from_univariate(("t",), "t", a),
                               "t")[1])
        assert all(type(c) is int for c in out), (a, f)


def test_pmod_kernels_against_sympy_gf():
    # pmod_mul, pmod_divmod, pmod_pow and irreducible_mod_p against
    # sympy's GF(p) routines; a zero exponent gives [1] and a constant
    # modulus []
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import (
        gf_div,
        gf_irreducible_p,
        gf_mul,
        gf_pow_mod,
    )

    def gf(coeffs):
        return list(reversed(coeffs))

    rng = random.Random(919)
    verdicts = set()
    for p in (2, 3, 101, 9973, 2**61 - 1):
        def rand(deg, monic=False):
            out = [rng.randrange(p) for _ in range(deg)]
            return out + [1 if monic else rng.randrange(1, p)]

        for _ in range(6):
            a, b = rand(rng.randint(0, 7)), rand(rng.randint(0, 7))
            assert pmod_mul(a, b, p) == gf(gf_mul(gf(a), gf(b), p, ZZ))
            for mod in (rand(rng.randint(2, 6)), rand(1), rand(0),
                        rand(rng.randint(2, 6), monic=True)):
                q, r = gf_div(gf(a), gf(mod), p, ZZ)
                assert pmod_divmod(a, mod, p) == (gf(q), gf(r))
                for e in (0, 1, 2, p, (p - 1) // 2):
                    want = gf(gf_pow_mod(gf(a), e, gf(mod), p, ZZ))
                    assert pmod_pow(a, e, mod, p) == want, (a, e, mod, p)
                assert pmod_pow(a, 0, mod, p) == [1]
            assert pmod_pow(a, 3, rand(0), p) == []
            f = rand(rng.randint(1, 6))
            verdicts.add(irreducible_mod_p(f, p))
            assert irreducible_mod_p(f, p) == gf_irreducible_p(
                gf(f), p, ZZ), (f, p)
        assert not irreducible_mod_p(rand(0), p)
    assert verdicts == {True, False}


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


def test_poly_gcd_rejects_two_variables():
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    with pytest.raises(ValueError, match="one variable"):
        poly_gcd(x * y + 1, x - 1)
    with pytest.raises(ValueError, match="one variable"):
        poly_gcd(x - 1, y - 1)


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


def test_squarefree_mod_p_is_good_reduction_against_sympy():
    # p keeps f square-free of full degree exactly when p divides
    # neither the leading coefficient nor the discriminant, also for
    # p <= deg f and for p-th powers: t^3 - 2 = (t + 1)^3 mod 3,
    # t^5 + 3 = (t + 3)^5 mod 5, t^2 + t + 1 = (t - 1)^2 mod 3
    rng = random.Random(417)
    polys = [[-2, 0, 0, 1], [3, 0, 0, 0, 0, 1], [1, 1, 1], [1, 0, 1]]
    while len(polys) < 120:
        deg = rng.randint(1, 10)
        f = [rng.randint(-40, 40) for _ in range(deg)]
        f.append(rng.choice((-1, 1)) * rng.randint(1, 60))
        if deg <= 8 and rng.random() < 0.3:
            g = [rng.randint(-3, 3), rng.randint(1, 3)]
            f = [int(c) for c in umul(f, umul(g, g))]
        polys.append(f)
    for f in polys:
        disc = int(sympy.discriminant(sympy.Poly(list(reversed(f)), T)))
        for p in map(int, sympy.primerange(2, 100)):
            want = f[-1] % p != 0 and disc % p != 0
            assert squarefree_mod_p(f, p) == want, (f, p)


def test_hensel_root_against_sympy():
    rng = random.Random(418)
    for _ in range(20):
        # monic g with the integer root x, lifted from x mod p
        x = rng.randint(-10**30, 10**30)
        h = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 4))]
        g = [int(c) for c in umul([-x, 1], h + [1])]
        p = next(q for q in primes_from(3) if squarefree_mod_p(g, q))
        assert hensel_root(g, x % p, p, 2 * abs(x) + 2) == x
    # square roots of 2 mod 7^(2^j): 3^2 = 2 mod 7, and 7^8 > 10^6
    for z0 in (3, 4):
        z = hensel_root([-2, 0, 1], z0, 7, 10**6)
        m = 7 ** 8
        assert 2 * abs(z) < m and z % 7 == z0
        assert z % m in sympy.ntheory.sqrt_mod(2, m, all_roots=True)
