"""Ternary quadratic forms: exact diagonalization with congruence
checks, the diagonal conic model of a generic fiber, and the degree-8
normal form for weights (4,0,0)."""

import random
from dataclasses import replace
from fractions import Fraction
from importlib.resources import files
from itertools import product

import pytest

from conicbundles.bundles import (
    BundleError,
    load_bundle,
    make_bundle,
    random_bundle,
    validate_bundle,
)
from conicbundles.exactmath import MultiPoly, RatFunc, mat_det
from conicbundles.quadforms import (
    PIVOT_ORDER,
    DegeneratePivot,
    MestreError,
    MestreFailure,
    MestreModel,
    QuadraticForm3,
    brauer_model,
    diagonalize,
    diagonalize_pivoted,
    generic_fiber_form,
    mestre_normal_form,
)

PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def rand_form(rng, lo=-6, hi=6):
    while True:
        alpha = tuple(Fraction(rng.randint(lo, hi)) for _ in range(6))
        if any(alpha):
            return QuadraticForm3(alpha)


def test_form_needs_six_coefficients():
    with pytest.raises(ValueError):
        QuadraticForm3((1, 2, 3))


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        QuadraticForm3((0,) * 6)


def test_gram_matches_value():
    rng = random.Random(11)
    for _ in range(40):
        q = rand_form(rng)
        g = q.gram()
        v = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        via_gram = sum(v[i] * g[i][j] * v[j]
                       for i in range(3) for j in range(3))
        assert via_gram == q.value(v)
        for i in range(3):
            for j in range(3):
                assert g[i][j] == g[j][i]


def test_discriminant_is_gram_determinant():
    rng = random.Random(12)
    for _ in range(40):
        q = rand_form(rng)
        assert q.discriminant() == mat_det(q.gram())


def perm_cols(perm):
    """congruent() columns that re-order the variables as perm."""
    return tuple((p,) for p in perm)


def test_permuted_value_invariance():
    # q.congruent(perm_cols(p)) is q in the variables y_p[0], y_p[1], y_p[2]
    rng = random.Random(13)
    for _ in range(30):
        q = rand_form(rng)
        perm = PERMS[rng.randrange(6)]
        v = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        w = [None] * 3
        for i in range(3):
            w[perm[i]] = v[i]
        assert q.congruent(perm_cols(perm)).value(v) == q.value(w)
    # any 0/1 columns, overlapping ones included: q(M z) for y = M z
    for _ in range(30):
        q = rand_form(rng)
        cols = tuple(tuple(r for r in range(3) if rng.random() < 0.5)
                     or (rng.randrange(3),) for _ in range(3))
        z = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        y = [sum((z[k] for k in range(3) if r in cols[k]), Fraction(0))
             for r in range(3)]
        assert q.congruent(cols).value(z) == q.value(y)


def test_diagonalize_entries_and_congruence():
    rng = random.Random(14)
    checked = 0
    while checked < 30:
        q = rand_form(rng)
        a0, a1, _, a3, _, _ = q.alpha
        n = 4 * a0 * a3 - a1 * a1
        if not a0 or not n:
            continue
        d = diagonalize(q)
        assert d.entries == (a0, a0 * n, 4 * n * q.discriminant())
        # external congruence re-check: basis^T G basis is diagonal
        for i in range(3):
            for j in range(3):
                got = q.bilinear(d.basis[i], d.basis[j])
                assert got == (d.entries[i] if i == j else 0)
        # product of entries lands in the square class of disc
        assert (d.entries[0] * d.entries[1] * d.entries[2]
                == 4 * a0 * a0 * n * n * q.discriminant())
        checked += 1


def test_diagonalize_degenerate_pivots():
    with pytest.raises(DegeneratePivot, match="y0\\^2"):
        diagonalize(QuadraticForm3((0, 1, 0, 1, 0, 1)))
    # a1^2 = 4*a0*a3 makes the 2x2 block singular
    with pytest.raises(DegeneratePivot, match="2x2"):
        diagonalize(QuadraticForm3((1, 2, 0, 1, 0, 1)))


def diag_bundle_844(s00_text, s11, s22):
    return validate_bundle(make_bundle(
        (4, 0, 0), (s00_text, "0", "0", str(s11), "0", str(s22))))


def test_generic_fiber_form_dehomogenizes():
    cb = diag_bundle_844("x0^8", 2, -1)
    q = generic_fiber_form(cb)
    assert all(isinstance(a, MultiPoly) for a in q.alpha)
    assert str(q.alpha[0]) == "t^8"
    assert q.alpha[3].evaluate({"t": Fraction(5)}) == 2
    assert q.alpha[5].evaluate({"t": Fraction(5)}) == -1


def test_brauer_model_already_diagonal():
    cb = diag_bundle_844("x0^8 - x0*x1^7", 2, -1)
    bp = brauer_model(cb)
    assert bp.pivot == (0, 1, 2)
    # a = -(t^8 - t)/(-1), b = -2/(-1)
    assert (str(bp.a), str(bp.b)) == ("t^8 - t", "2")
    assert bp.a.den == 1 and bp.b.den == 1


def test_brauer_model_pivot_permutation():
    # sigma00 = 0 kills the standard pivot; a permutation recovers it
    cb = make_bundle((2, 2, 0),
                     ("0", "x0^4", "x0^2", "x0^4 + x1^4", "x1^2", "1"))
    bp = brauer_model(cb)
    assert bp.pivot != (0, 1, 2) and bp.shear is None
    diag = diagonalize_pivoted(generic_fiber_form(cb))
    assert (diag.pivot, diag.shear) == (bp.pivot, bp.shear)
    # the basis is in the form's own variables, not the pivoted ones
    q = generic_fiber_form(cb)
    for i in range(3):
        for j in range(3):
            got = q.bilinear(diag.basis[i], diag.basis[j])
            if i == j:
                assert got == diag.entries[i]
            else:
                assert not bool(got)
    # a, b are read off the diagonal, scaled so the last slot is -1
    d0, d1, d2 = diag.entries
    assert bp.a.num * d2 == -(d0 * bp.a.den)
    assert bp.b.num * d2 == -(d1 * bp.b.den)


def test_brauer_model_rejects_degenerate_discriminant():
    cb = validate_bundle(make_bundle(
        (4, 0, 0), ("x0^8", "0", "0", "0", "0", "0")))
    with pytest.raises(BundleError, match="degenerate"):
        brauer_model(cb)


def test_mestre_diagonal_oracle():
    # sigma = (t^8, 0, 0, -1/4, 0, 1): P = t^8, B = 1, A = 0,
    # shift = 0, T = u^8, disc0 = 1, c = 1, xi = 1
    cb = diag_bundle_844("x0^8", "-1/4", 1)
    m = mestre_normal_form(cb)
    assert isinstance(m, MestreModel)
    assert m.B == 1 and m.A == 0 and m.shift == 0
    assert m.c == 1 and m.xi == 1
    assert str(m.T) == "u^8"
    assert str(m.P) == "t^8"


def test_mestre_shift_kills_degree_seven():
    rng = random.Random(15)
    hits = 0
    while hits < 10:
        coeffs = [rng.randint(-5, 5) for _ in range(9)]
        if not coeffs[8]:
            continue
        terms = " + ".join("%d*x0^%d*x1^%d" % (c, k, 8 - k)
                           for k, c in enumerate(coeffs) if c)
        cb = make_bundle((4, 0, 0),
                         (terms, "0", "0", "-1/4", "0", "1"))
        m = mestre_normal_form(cb)
        if isinstance(m, MestreFailure):
            assert m.B == coeffs[8]
            hits += 1
            continue
        got = m.T.coefficient_of_power("u", 7)
        assert not bool(got)
        assert m.T.coefficient_of_power("u", 8) == 1
        hits += 1


def test_mestre_failure_nonsquare_leading():
    cb = diag_bundle_844("x0^8", 2, -1)  # B = -8, 1/B not a square
    m = mestre_normal_form(cb)
    assert isinstance(m, MestreFailure)
    assert m.B == -8
    assert "not a square" in m.reason


def test_mestre_wrong_weights_rejected():
    cb = make_bundle((2, 1, 1), ("x0^4", "0", "0", "x0^2", "0", "x1^2"))
    with pytest.raises(MestreError, match="weights"):
        mestre_normal_form(cb)


def test_mestre_degenerate_pivots():
    with pytest.raises(MestreError, match="sigma22 = 0"):
        mestre_normal_form(make_bundle(
            (4, 0, 0), ("x0^8", "0", "0", "1", "0", "0")))
    # sigma12^2 = 4*sigma11*sigma22
    with pytest.raises(MestreError, match="sigma12"):
        mestre_normal_form(make_bundle(
            (4, 0, 0), ("x0^8", "0", "0", "1", "2", "1")))
    with pytest.raises(MestreError, match="deg P < 8"):
        mestre_normal_form(make_bundle(
            (4, 0, 0), ("x0^7*x1", "0", "0", "-1/4", "0", "1")))


def test_mestre_needs_numeric_bundle():
    cb = make_bundle((4, 0, 0), ("a*x0^8", "0", "0", "1", "0", "-1"),
                     params=("a",))
    with pytest.raises(MestreError, match="numeric"):
        mestre_normal_form(cb)


def test_mestre_square_condition_on_diagonal_bundles():
    # diagonal (4,0,0) bundles a0*x0^8, b0*x0^4, d0*x0^4, c0, c1, c2:
    # B = (-4*a0*c0*c2 + a0*c1^2 + b0^2*c2 - b0*c1*d0 + d0^2*c0) / c2,
    # and the normal form exists exactly when 1/B is a square
    m = mestre_normal_form(make_bundle(
        (4, 0, 0), ("x0^8", "x0^4", "x0^4", "1", "1", "1")))
    assert isinstance(m, MestreFailure)
    assert m.B == -2
    m = mestre_normal_form(make_bundle(
        (4, 0, 0), ("x0^8", "x0^4", "x0^4", "-1", "1", "1")))
    assert isinstance(m, MestreModel)
    assert m.B == 4 and m.xi == Fraction(1, 2)


# -- the generic fiber over Q[t], checked against sympy -----------------

WEIGHT_TYPES = ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))


def _sympy_of(x):
    """A MultiPoly in t as a sympy expression."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    return sum((sympy.Rational(c.numerator, c.denominator) * t ** e[0]
                for e, c in x.terms.items()), sympy.Integer(0))


def _matrix_over_qt(rows):
    """A 3x3 sympy DomainMatrix over Q[t]."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    ring = sympy.QQ[sympy.Symbol("t")]
    return DomainMatrix(
        [[ring.from_sympy(_sympy_of(x) if isinstance(x, MultiPoly)
                          else sympy.Rational(x)) for x in row]
         for row in rows], (3, 3), ring)


def _model_bundles():
    """Seeded random bundles of every weight type, each also with
    sigma00 = 0, so that both the standard and a permuted pivot run."""
    out = []
    for wt in WEIGHT_TYPES:
        for seed in range(3):
            cb = random_bundle(wt, seed=50 + seed)
            zero = MultiPoly.zero(cb.sigma[0].vars)
            out.append(cb)
            out.append(validate_bundle(
                replace(cb, sigma=(zero,) + cb.sigma[1:])))
    return out


def test_brauer_model_congruence_against_sympy():
    sympy = pytest.importorskip("sympy")
    pivots = set()
    for cb in _model_bundles():
        q = generic_fiber_form(cb)
        diag = diagonalize_pivoted(q)
        assert diag.pivot == brauer_model(cb).pivot
        pivots.add(diag.pivot)
        assert _congruent_in_sympy(q, diag)
    assert (0, 1, 2) in pivots and len(pivots) > 1


def test_brauer_model_ratios_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for cb in _model_bundles():
        bp = brauer_model(cb)
        diag = diagonalize_pivoted(generic_fiber_form(cb))
        assert diag.pivot == bp.pivot
        d0, d1, d2 = (_sympy_of(d) for d in diag.entries)
        for r, d in ((bp.a, d0), (bp.b, d1)):
            num, den = sympy.fraction(sympy.cancel(-d / d2))
            got_num, got_den = _sympy_of(r.num), _sympy_of(r.den)
            assert sympy.Poly(num * got_den - den * got_num, t).is_zero
            # kept reduced: numerator and denominator are coprime
            assert sympy.gcd(sympy.Poly(got_num, t),
                             sympy.Poly(got_den, t)).is_ground


def test_diagonalize_pivoted_takes_first_working_order():
    cb = make_bundle((2, 2, 0),
                     ("0", "x0^4", "x0^2", "x0^4 + x1^4", "x1^2", "1"))
    q = generic_fiber_form(cb)
    diag = diagonalize_pivoted(q)
    perm = diag.pivot
    first = PIVOT_ORDER.index(perm)
    assert first > 0 and diag.shear is None
    for earlier in PIVOT_ORDER[:first]:
        with pytest.raises(DegeneratePivot):
            diagonalize(q.congruent(perm_cols(earlier)))
    inner = diagonalize(q.congruent(perm_cols(perm)))
    assert diag.entries == inner.entries
    # the same basis, read back from y_perm[k] to y0, y1, y2
    assert diag.basis == tuple(tuple(col[perm.index(r)] for r in range(3))
                               for col in inner.basis)
    # a rank-1 form fails every ordering, also after the shear
    with pytest.raises(DegeneratePivot, match="every variable ordering"):
        diagonalize_pivoted(QuadraticForm3((1, 2, 2, 1, 2, 1)))


def _minors_zero_form(rng, g):
    """G_ij = s_ij*g_i*g_j with s_ii = 1 and s01*s02*s12 = -1: every
    principal 2x2 minor vanishes and the determinant is -4*(g0*g1*g2)^2."""
    s01, s02 = rng.choice((1, -1)), rng.choice((1, -1))
    s12 = -s01 * s02
    g0, g1, g2 = g
    return QuadraticForm3((g0 * g0, g0 * g1 * (2 * s01), g0 * g2 * (2 * s02),
                           g1 * g1, g1 * g2 * (2 * s12), g2 * g2))


def _zero_diagonal_form(rng, alpha):
    """alpha with one, two or all three diagonal entries set to zero."""
    alpha = list(alpha)
    for k in rng.sample((0, 3, 5), rng.randint(1, 3)):
        alpha[k] = alpha[k] - alpha[k]
    return QuadraticForm3(tuple(alpha))


def _rand_poly(rng, deg=2, lo=-3, hi=3):
    return MultiPoly.from_univariate(
        ("t",), "t", [Fraction(rng.randint(lo, hi)) for _ in range(deg + 1)])


def _congruent_in_sympy(q, diag):
    """B^T G B == diag(d) in sympy, G the Gram matrix of q itself."""
    g = _matrix_over_qt(q.gram())
    b = _matrix_over_qt([[diag.basis[c][r] for c in range(3)]
                         for r in range(3)])
    want = _matrix_over_qt([[diag.entries[r] if r == c else 0
                             for c in range(3)] for r in range(3)])
    return b.transpose() * g * b == want


@pytest.mark.parametrize("over", ["Q", "Q[t]"])
def test_diagonalize_pivoted_against_sympy(over):
    pytest.importorskip("sympy")
    rng = random.Random(21 if over == "Q" else 22)
    if over == "Q":
        def coeff():
            return Fraction(rng.randint(-6, 6))
    else:
        def coeff():
            return _rand_poly(rng)
    samples = []
    for _ in range(40):
        alpha = tuple(coeff() for _ in range(6))
        if any(alpha):
            samples.append(QuadraticForm3(alpha))
        g = tuple(coeff() for _ in range(3))
        if all(g):
            samples.append(_minors_zero_form(rng, g))
        if any(alpha[k] for k in (1, 2, 4)):
            samples.append(_zero_diagonal_form(rng, alpha))
    sheared = done = 0
    for q in samples:
        if not _matrix_over_qt(q.gram()).det():
            with pytest.raises(DegeneratePivot):
                diagonalize_pivoted(q)
            continue
        diag = diagonalize_pivoted(q)
        assert _congruent_in_sympy(q, diag)
        done += 1
        sheared += diag.shear is not None
    assert done > 80 and sheared > 30


def test_small_forms_all_diagonalize():
    # every nondegenerate form with coefficients in {-1, 0, 1}
    sheared = 0
    for alpha in product((-1, 0, 1), repeat=6):
        if not any(alpha):
            continue
        q = QuadraticForm3(tuple(Fraction(a) for a in alpha))
        if not q.discriminant():
            with pytest.raises(DegeneratePivot):
                diagonalize_pivoted(q)
            continue
        diag = diagonalize_pivoted(q)
        for i in range(3):
            for j in range(3):
                assert q.bilinear(diag.basis[i], diag.basis[j]) == (
                    diag.entries[i] if i == j else 0)
        sheared += diag.shear is not None
    assert sheared > 0


def test_congruence_check_raises_on_wrong_gram(monkeypatch):
    q = QuadraticForm3((1, 1, 0, 2, 1, 3))
    gram = QuadraticForm3.double_gram
    assert diagonalize(q).entries[0] == 1

    def bumped(entry):
        def fake(self):
            g = gram(self)
            r, c = entry
            g[r][c] += 1
            if r != c:
                g[c][r] += 1
            return g
        return fake

    monkeypatch.setattr(QuadraticForm3, "double_gram", bumped((2, 2)))
    with pytest.raises(AssertionError, match="diagonal entry 2"):
        diagonalize(q)
    monkeypatch.setattr(QuadraticForm3, "double_gram", bumped((0, 2)))
    with pytest.raises(AssertionError, match="not orthogonal"):
        diagonalize(q)


@pytest.mark.parametrize("name, a, b", [
    ("min844.cb",
     "t^8 - 28*t^7 + 322*t^6 - 1960*t^5 + 6769*t^4 - 13132*t^3"
     " + 13068*t^2 - 5040*t",
     "2"),
    ("remark433222.cb",
     "-t^2/(3*t^14 - 5*t^13 - 6*t^12 - 10*t^11 - 29*t^10 + 27*t^9"
     " + 16*t^8 + 22*t^6 - 85*t^5 - 43*t^4 + 38*t^3 - t + 1)",
     "t^2/(3*t^8 + t^7 - t^6 + t^5 - 9*t^4 + 5*t^3 + 11*t^2 - 3*t + 1)"),
])
def test_brauer_model_fixture_pins(name, a, b):
    path = files("conicbundles") / "fixtures" / name
    bp = brauer_model(validate_bundle(load_bundle(str(path))))
    assert (str(bp.a), str(bp.b), bp.pivot) == (a, b, (0, 1, 2))


def test_ratfunc_constant_denominator():
    p = MultiPoly(("t",), {(3,): Fraction(4), (0,): Fraction(-6)})
    for c in (Fraction(2), Fraction(-3, 5), Fraction(7)):
        r = RatFunc(p, MultiPoly.const(("t",), c))
        assert r.num == p * (1 / c)
        assert r.den == MultiPoly.const(("t",), 1)
