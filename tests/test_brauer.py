"""Residue calculus on the diagonal conic model: places, valuations,
tame residues, non-squareness witnesses, certificates."""

import random
from fractions import Fraction

import pytest

from conicbundles.brauer import (
    BrauerError,
    NoSectionCertificate,
    Place,
    ResidueClass,
    certificate_from_residues,
    no_section_certificate,
    nonsquare_witness,
    places_of_pair,
    residue2,
    residues_all,
    _strip_all,
    valuation,
    verify_certificate,
)
from conicbundles.bundles import (
    BundleError,
    discriminant,
    make_bundle,
    parse_bundle_text,
    random_bundle,
    validate_bundle,
)
from conicbundles.exactmath import (
    MultiPoly,
    PrimeWitness,
    RatFunc,
    parse_poly,
)
from conicbundles.exactmath.modular import (
    legendre,
    pmod_eval,
    pmod_reduce_coeffs,
    primes_from,
)
from conicbundles.exactmath.univariate import (
    as_univariate,
    ugcd_monic,
    umod,
    umul,
)
from conicbundles.quadforms import BrauerPair, brauer_model

T = ("t",)


def rf(text):
    return RatFunc(parse_poly(text, T))


def pair(a_text, b_text):
    return BrauerPair(a=rf(a_text), b=rf(b_text))


def upoly(coeffs):
    return MultiPoly.from_univariate(T, "t", [Fraction(c) for c in coeffs])


def residue_value(*coeffs):
    """A residue value: coefficients in Q[t]/(f), low degree first."""
    return tuple(Fraction(c) for c in coeffs)


def fixture(name):
    from importlib.resources import files
    text = (files("conicbundles") / "fixtures" / name).read_text()
    return validate_bundle(parse_bundle_text(text))


# -- places --------------------------------------------------------------


def test_place_basics():
    lin = Place(f=(Fraction(-2), Fraction(1)))
    assert lin.degree == 1 and lin.root == 2 and not lin.is_infinite
    assert str(lin) == "t - 2"
    quad = Place(f=(Fraction(1), Fraction(0), Fraction(1)),
                 irreducibility="certified")
    assert quad.degree == 2 and quad.root is None
    inf = Place(f=None)
    assert inf.is_infinite and inf.degree == 0 and str(inf) == "inf"


def test_places_canonical_order():
    # a = (t-1)(t+1), b = t(t^2+1): linears by root, then the quadratic,
    # then infinity
    pl = places_of_pair(pair("t^2 - 1", "t^3 + t"))
    assert [str(p) for p in pl] == ["t + 1", "t", "t - 1", "t^2 + 1", "inf"]
    quad = pl[3]
    assert quad.irreducibility == "certified"
    assert quad.witness is not None and quad.witness.p == 3


def test_places_coprime_refinement():
    # shared factor t-1 must appear exactly once
    pl = places_of_pair(pair("t^2 - t", "t^2 - 3*t + 2"))
    assert [str(p) for p in pl] == ["t", "t - 1", "t - 2", "inf"]


def test_places_squarefree_support():
    pl = places_of_pair(pair("t^3 - 4*t^2 + 5*t - 2", "1"))  # (t-1)^2(t-2)
    assert [str(p) for p in pl] == ["t - 1", "t - 2", "inf"]


def test_valuations():
    r = RatFunc(parse_poly("t^2 - 2*t + 1", T), parse_poly("t^3", T))
    at = lambda f: valuation(r, Place(f=f))
    assert at((Fraction(-1), Fraction(1))) == 2   # t - 1
    assert at((Fraction(0), Fraction(1))) == -3   # t
    assert valuation(r, Place(f=None)) == 1       # deg den - deg num
    assert valuation(rf("5"), Place(f=None)) == 0
    with pytest.raises(ValueError):
        valuation(rf("0"), Place(f=(Fraction(0), Fraction(1))))


def test_strip_all_with_a_non_monic_factor():
    # p = f^k * g exactly, also when f is not monic or not integral
    rng = random.Random(409)
    for _ in range(40):
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, 3))] + [rng.choice((-6, 2, 3))]
        g = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [
            Fraction(rng.choice((-5, 1, 7)), rng.randint(1, 3))]
        if umod(g, f):
            k = rng.randint(0, 3)
            p = g
            for _ in range(k):
                p = umul(p, f)
            assert _strip_all(p, f) == (k, g), (f, g, k)


# -- residues ------------------------------------------------------------


def test_residue_uniformizer_against_constant():
    # (t, 2): at t the tame symbol is a^0 / b^1 = 1/2
    p = pair("t", "2")
    at_t = residue2(p, Place(f=(Fraction(0), Fraction(1))))
    assert (at_t.v_a, at_t.v_b) == (1, 0)
    assert at_t.value == residue_value(Fraction(1, 2))
    assert at_t.is_rational
    at_inf = residue2(p, Place(f=None))
    assert (at_inf.v_a, at_inf.v_b) == (-1, 0)
    assert at_inf.value == residue_value(2)
    assert at_inf.is_rational


def test_residue_sign_rule():
    # (t, t): v_a = v_b = 1 at t, so the symbol is -1
    p = pair("t", "t")
    at_t = residue2(p, Place(f=(Fraction(0), Fraction(1))))
    assert at_t.value == residue_value(-1)
    at_inf = residue2(p, Place(f=None))
    assert at_inf.value == residue_value(-1)
    assert not at_t.provably_trivial()
    w = nonsquare_witness(at_t)
    assert w is not None and w.p == 3


def test_residue_off_support_is_trivial():
    p = pair("t", "2")
    rc = residue2(p, Place(f=(Fraction(-1), Fraction(1))))
    assert (rc.v_a, rc.v_b) == (0, 0)
    assert rc.value == residue_value(1) and rc.provably_trivial()


def test_residue_even_valuations_square():
    # (t^2, 3) at t: a^0 / b^2 = 1/9, a square
    p = pair("t^2", "3")
    rc = residue2(p, Place(f=(Fraction(0), Fraction(1))))
    assert rc.value == residue_value(Fraction(1, 9))
    assert rc.provably_trivial()


def test_residue_at_quadratic_place():
    # (t^2 + 1, t): at f = t^2+1 the symbol is 1/t = -t mod f
    p = pair("t^2 + 1", "t")
    quad = Place(f=(Fraction(1), Fraction(0), Fraction(1)),
                 irreducibility="certified")
    rc = residue2(p, quad)
    assert (rc.v_a, rc.v_b) == (1, 0)
    assert not rc.is_rational
    assert rc.value == residue_value(0, -1)
    # spec example family: class of t in Q[t]/(t^2-2) has witness (7, 3)
    rc2 = ResidueClass(
        place=Place(f=(Fraction(-2), Fraction(0), Fraction(1)),
                    irreducibility="certified"),
        value=residue_value(0, 1), v_a=1, v_b=0)
    w = nonsquare_witness(rc2)
    assert (w.p, w.root) == (7, 3)


def test_residues_all_covers_every_place():
    p = pair("t^2 - 1", "t^3 + t")
    rcs = residues_all(p)
    assert [str(rc.place) for rc in rcs] == \
        ["t + 1", "t", "t - 1", "t^2 + 1", "inf"]
    for rc in rcs:
        assert valuation(p.a, rc.place) == rc.v_a
        assert valuation(p.b, rc.place) == rc.v_b


def test_residue_rejects_zero_inputs():
    with pytest.raises(BrauerError):
        residue2(BrauerPair(a=rf("0"), b=rf("1")),
                 Place(f=(Fraction(0), Fraction(1))))


def test_normalized_strips_squares():
    pl = Place(f=(Fraction(0), Fraction(1)))
    rc = ResidueClass(place=pl, value=residue_value(Fraction(-18, 49)),
                      v_a=1, v_b=0)
    assert rc.normalized() == residue_value(-2)
    assert rc.same_rational_class(-2)
    assert rc.same_rational_class(Fraction(-1, 2))
    assert not rc.same_rational_class(2)
    # in Q[t]/(t^2+1) the content 18/49 of -18/49 + 36/49 t goes to 2
    quad = Place(f=(Fraction(1), Fraction(0), Fraction(1)),
                 irreducibility="certified")
    rc = ResidueClass(place=quad,
                      value=residue_value(Fraction(-18, 49), Fraction(36, 49)),
                      v_a=1, v_b=0)
    assert rc.normalized() == residue_value(-2, 4)
    assert not rc.same_rational_class(-2)


def test_witness_none_for_squares():
    pl = Place(f=(Fraction(0), Fraction(1)))
    assert nonsquare_witness(ResidueClass(
        place=pl, value=residue_value(Fraction(9, 4)), v_a=1, v_b=0)) is None


# -- certificates ---------------------------------------------------------


def test_min844_certificate():
    cb = fixture("min844.cb")
    cert = no_section_certificate(cb)
    assert cert is not None
    assert cert.serialize() == "place=t residue=1/2 prime=3 root=-"
    assert cert.warnings == ()
    assert verify_certificate(cert)


def test_remark433222_certificate():
    cb = fixture("remark433222.cb")
    cert = no_section_certificate(cb)
    assert cert is not None
    assert cert.serialize() == (
        "place=t^8+1/3*t^7-1/3*t^6+1/3*t^5-3*t^4+5/3*t^3+11/3*t^2-t+1/3 "
        "residue=t^6-2*t^5-t^4-4*t^3-5*t^2+2*t+1 prime=17 root=2")
    assert cert.warnings == ()
    assert verify_certificate(cert)


def test_certificate_search_stays_on_discriminant(monkeypatch):
    # off the discriminant the conic has good reduction, so the residue
    # is trivial and no witness can exist: the search must not scan there
    import conicbundles.brauer as brauer_mod
    scanned = []
    real = brauer_mod.nonsquare_witness

    def recording(rc, *args, **kwargs):
        scanned.append(rc.place)
        return real(rc, *args, **kwargs)

    monkeypatch.setattr(brauer_mod, "nonsquare_witness", recording)
    bundles = [fixture("min844.cb"), fixture("remark433222.cb")]
    bundles += [random_bundle(wt, seed=s)
                for wt in ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))
                for s in (1, 2, 3)]
    for cb in bundles:
        if cb.has_flag("rational-by-section"):
            continue
        scanned.clear()
        cert = no_section_certificate(cb)
        _, delta = as_univariate(discriminant(cb).delta_affine, "t")
        for place in scanned:
            if place.is_infinite:
                continue
            assert not umod(delta, list(place.f)), (cb, place)
        if cert is not None:
            assert scanned[-1] == cert.place


def test_certificate_search_certifies_only_places_on_delta(monkeypatch):
    # weights (6,4,3): places of degree 12 and 20 lie off Delta beside
    # the degree-26 place on it; only that one needs an irreducibility
    # certificate on the search path, while the table certifies all
    import conicbundles.brauer as brauer_mod
    certified = []
    real = brauer_mod.modp_irreducible_witness

    def recording(f, *args, **kwargs):
        certified.append(list(f))
        return real(f, *args, **kwargs)

    monkeypatch.setattr(brauer_mod, "modp_irreducible_witness", recording)
    for seed in (1, 2):
        cb = random_bundle((6, 4, 3), seed=seed)
        _, delta = as_univariate(discriminant(cb).delta_affine, "t")
        certified.clear()
        cert = no_section_certificate(cb)
        assert [len(f) - 1 for f in certified] == [26]
        assert cert.place.f == tuple(certified[0])
        assert len(ugcd_monic(delta, certified[0])) > 1
        certified.clear()
        table = places_of_pair(brauer_model(cb))
        assert sorted(len(f) - 1 for f in certified) == [12, 20, 26]
        assert [pl.degree for pl in table] == [12, 20, 26, 0]


def test_certificate_rechecked_before_it_is_returned(monkeypatch):
    # 2 = 3^2 mod 7, so a witness at 7 for the residue 1/2 at t is false
    import conicbundles.brauer as brauer_mod
    monkeypatch.setattr(
        brauer_mod, "nonsquare_witness",
        lambda rc, bound: PrimeWitness(p=7, root=None, note="bogus"))
    cb = fixture("min844.cb")
    with pytest.raises(AssertionError,
                       match="re-check: place=t residue=1/2 prime=7"):
        no_section_certificate(cb)
    with pytest.raises(AssertionError, match="re-check"):
        certificate_from_residues(cb, residues_all(brauer_model(cb)))


def _split_400(roots, s11, s22):
    """Diagonal (4,0,0) bundle with sigma00 = prod (x0 - r x1)."""
    x0, x1 = (MultiPoly.variable(("x0", "x1"), v) for v in ("x0", "x1"))
    sigma00 = x0 - x1 * roots[0]
    for r in roots[1:]:
        sigma00 = sigma00 * (x0 - x1 * r)
    return validate_bundle(make_bundle(
        (4, 0, 0), (str(sigma00), "0", "0", str(s11), "0", str(s22))))


def _search_bundles():
    out = [random_bundle(wt, seed=s, lo=-bound, hi=bound)
           for wt in ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))
           for s in (11, 12, 13) for bound in (9, 99)]
    rng = random.Random(4242)
    for s11, s22 in ((3, -1), (-2, 5), (7, 7), (1, -1)):
        mags = rng.sample(range(30, 51), 8)
        out.append(_split_400([m * rng.choice((-1, 1)) for m in mags],
                              s11, s22))
    return [cb for cb in out if not cb.has_flag("rational-by-section")]


def test_lazy_search_computes_residues_only_where_it_looks(monkeypatch):
    # residue2 runs at the places of Delta and infinity, in order, and
    # stops at the certificate's place
    import conicbundles.brauer as brauer_mod
    visited = []
    real = brauer_mod.residue2

    def recording(pair, place):
        visited.append(place)
        return real(pair, place)

    monkeypatch.setattr(brauer_mod, "residue2", recording)
    for cb in _search_bundles():
        visited.clear()
        cert = no_section_certificate(cb)
        _, delta = as_univariate(discriminant(cb).delta_affine, "t")
        want = [pl for pl in places_of_pair(brauer_model(cb))
                if pl.is_infinite or len(ugcd_monic(delta, list(pl.f))) > 1]
        if cert is not None:
            want = want[:want.index(cert.place) + 1]
        assert visited == want, cb


def test_lazy_search_matches_the_full_table():
    for cb in _search_bundles():
        lazy = no_section_certificate(cb)
        full = certificate_from_residues(cb, residues_all(brauer_model(cb)))
        assert (lazy is None) == (full is None), cb
        if lazy is not None:
            assert lazy.serialize() == full.serialize()
            assert lazy.warnings == full.warnings


def test_certificate_643_pinned():
    # weights (6,4,3): Delta has degree 26 and the certificate sits at
    # its irreducible factor of degree 26
    cert = no_section_certificate(random_bundle((6, 4, 3), seed=4))
    assert cert.serialize() == (
        "place=t^26+167/25*t^25+653/50*t^24-201/25*t^23-443/25*t^22"
        "-2079/50*t^21+277/50*t^20+2036/25*t^19+1813/25*t^18-859/50*t^17"
        "+2413/50*t^16+84*t^15-149/2*t^14-363/10*t^13+2269/25*t^12"
        "-1733/25*t^11-111/5*t^10+7423/50*t^9-3169/50*t^8-4773/25*t^7"
        "+2603/25*t^6+396/5*t^5-241/2*t^4-1427/50*t^3+4717/50*t^2"
        "+207/50*t-371/10 "
        "residue=-12*t^20-60*t^19-47*t^18+80*t^17+136*t^16+202*t^15"
        "-164*t^14-656*t^13-5*t^12+6*t^11-514*t^10+292*t^9+134*t^8"
        "-466*t^7+199*t^6+190*t^5-573*t^4-60*t^3+631*t^2+18*t-287 "
        "prime=19 root=11")
    assert verify_certificate(cert)


def test_split_quadratic_place_no_false_certificate():
    # (t^2+1)y0^2 + (t^2+1)y1^2 = y2^2 has the section (t, 1, t^2+1);
    # its only candidate residue is -1 at t^2+1, a square in Q(i), so
    # the scan must come back inconclusive
    cb = validate_bundle(make_bundle(
        (2, 1, 1),
        ("x0^2*x1^2 + x1^4", "0", "0", "x0^2 + x1^2", "0", "-x1^2")))
    bp = brauer_model(cb)
    rcs = {str(rc.place): rc for rc in residues_all(bp)}
    assert rcs["t^2 + 1"].value == residue_value(-1)
    assert nonsquare_witness(rcs["t^2 + 1"]) is None
    assert no_section_certificate(cb) is None
    # a fabricated rootless witness at that place must fail verification
    fake = NoSectionCertificate(
        place=rcs["t^2 + 1"].place, residue=rcs["t^2 + 1"],
        witness=PrimeWitness(p=3, root=None, note="bogus"))
    assert not verify_certificate(fake)


def test_constant_nonsquare_at_quadratic_place_certified():
    # 2 stays a non-square in Q(i); the witness must go through a root
    # of t^2+1 mod p, hence p = 1 mod 4
    pl = Place(f=(Fraction(1), Fraction(0), Fraction(1)),
               irreducibility="certified")
    rc = ResidueClass(place=pl, value=residue_value(2), v_a=1, v_b=0)
    w = nonsquare_witness(rc)
    assert w is not None and w.p % 4 == 1 and w.root is not None
    cert = NoSectionCertificate(place=pl, residue=rc, witness=w)
    assert verify_certificate(cert)


def test_certificate_respects_flags():
    zero_diag = validate_bundle(make_bundle(
        (4, 0, 0), ("0", "x0^4", "0", "1", "0", "-1")))
    with pytest.raises(BrauerError, match="section"):
        no_section_certificate(zero_diag)
    # (x0^2*y0 + x1*y1 + x1*y2)^2: nonzero diagonal, vanishing determinant
    degenerate = validate_bundle(make_bundle(
        (2, 1, 1), ("x0^4", "2*x0^2*x1", "2*x0^2*x1",
                    "x1^2", "2*x1^2", "x1^2")))
    assert not degenerate.has_flag("rational-by-section")
    with pytest.raises(BundleError, match="discriminant"):
        no_section_certificate(degenerate)


def test_split_pairs_all_residues_trivial():
    # b a perfect square forces every residue into the square class
    rng = random.Random(21)
    for _ in range(25):
        lead = 0
        while not lead:
            lead = rng.randint(-5, 5)
        a = upoly([lead])
        for _ in range(3):
            a = a * upoly([-rng.randint(-4, 4), 1])
        s = upoly([-rng.randint(-4, 4), 1])
        b = s * s
        p = BrauerPair(a=RatFunc(a), b=RatFunc(b))
        for rc in residues_all(p):
            assert rc.provably_trivial(), (str(a), str(b), str(rc.place))


def test_assumed_places_downgrade_to_warning():
    # 211 is a quadratic residue mod 3, 5 and 7, so with bound 7 the
    # factor t^2-211 has no irreducibility certificate ("assumed"),
    # yet the residue 1/2 there still gets a witness at p = 3
    cb = validate_bundle(make_bundle(
        (2, 1, 1),
        ("x0^2*x1^2 - 211*x1^4", "0", "0", "2*x1^2", "0", "-x1^2")))
    bp = brauer_model(cb)
    assert str(bp.a) == "t^2 - 211"
    assert str(bp.b) == "2"
    cert = no_section_certificate(cb, prime_bound=7)
    assert cert is not None
    assert cert.residue.place.irreducibility == "assumed"
    assert str(cert.place) == "t^2 - 211"
    assert cert.witness.p == 3
    assert len(cert.warnings) == 1
    assert "irreducibility" in cert.warnings[0]
    assert verify_certificate(cert)
    # with the default bound the same place gets certified, no warning
    cert2 = no_section_certificate(cb)
    assert cert2.residue.place.irreducibility == "certified"
    assert cert2.warnings == ()


def test_certificate_search_never_factors(monkeypatch):
    # the search learns about each place modulo good primes only: no
    # integer is factored and no Sylvester determinant is taken, so
    # +-10^12 coefficients cost what small ones do
    import conicbundles.exactmath as exactmath
    import conicbundles.exactmath.linalg as linalg
    import conicbundles.exactmath.modular as modular
    import conicbundles.exactmath.univariate as univariate
    bundles = [random_bundle(w, s, -10**12, 10**12)
               for w in ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))
               for s in (1, 2)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate search left the mod-p path")

    for module, name in ((modular, "factorize"), (univariate, "factorize"),
                         (univariate, "uresultant"), (linalg, "mat_det"),
                         (exactmath, "mat_det")):
        monkeypatch.setattr(module, name, forbidden)
    for cb in bundles:
        cert = no_section_certificate(cb)
        assert cert is not None and verify_certificate(cert)


def test_verify_rejects_a_witness_at_a_double_root():
    # t^2 + t + 1 = (t - 1)^2 mod 3 and 2 is a non-residue mod 3, but 3
    # ramifies in Q[t]/(t^2 + t + 1): the value at 1 proves nothing
    place = Place(f=(Fraction(1), Fraction(1), Fraction(1)),
                  irreducibility="certified")
    rc = ResidueClass(place=place, value=residue_value(2), v_a=1, v_b=0)
    forged = NoSectionCertificate(place=place, residue=rc,
                                  witness=PrimeWitness(p=3, root=1))
    assert not verify_certificate(forged)
    # the search skips 3 and finds a witness at a simple root
    w = nonsquare_witness(rc, 100)
    assert w.p != 3
    assert verify_certificate(NoSectionCertificate(
        place=place, residue=rc, witness=w))
    # a root that is no root, and a composite modulus, are refused
    for p, root in ((w.p, w.root + 1), (w.p * w.p, w.root)):
        assert not verify_certificate(NoSectionCertificate(
            place=place, residue=rc, witness=PrimeWitness(p=p, root=root)))


def test_certificate_recheck_runs_without_the_search_kernels(monkeypatch):
    # verify_certificate re-checks with the Euler criterion and pmod_eval
    # only: with the search's F_p[t] and Q[t] kernels raising it still
    # accepts certificates found before, and refuses them with a root
    # or a prime changed to one that cannot witness
    import conicbundles.brauer as brauer
    import conicbundles.exactmath.modular as modular
    import conicbundles.exactmath.univariate as univariate
    bundles = [random_bundle(w, s)
               for w in ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))
               for s in (1, 2, 3)]
    certs = [no_section_certificate(cb) for cb in bundles
             if not cb.has_flag("rational-by-section")]
    certs = [c for c in certs if c is not None]
    assert any(c.witness.root is not None for c in certs)

    def refuted(p, root, rc):
        """p or root cannot witness for rc."""
        if rc.is_rational:
            m = rc.value[0].numerator * rc.value[0].denominator
            return m % p == 0 or legendre(m, p) == 1
        return pmod_eval(pmod_reduce_coeffs(rc.place.f, p), root, p) != 0

    changed = []
    for cert in certs:
        w, rc = cert.witness, cert.residue
        q = next(q for q in primes_from(w.p + 1)
                 if all(c.denominator % q for c in rc.value + rc.place.f)
                 and refuted(q, w.root, rc))
        bad = [PrimeWitness(p=q, root=w.root),
               PrimeWitness(p=w.p * q, root=w.root)]
        if w.root is not None:
            bad.append(PrimeWitness(p=w.p, root=next(
                r for r in range(w.p) if refuted(w.p, r, rc))))
        changed.append((cert, bad))

    def forbidden(*args, **kwargs):
        raise AssertionError("the re-check ran a search kernel")

    for module, name in ((modular, "pmod_pow"), (modular, "pmod_mul"),
                         (modular, "pmod_divmod"), (modular, "roots_mod_p"),
                         (univariate, "umod"), (univariate, "udivmod"),
                         (brauer, "roots_mod_p"), (brauer, "umod")):
        monkeypatch.setattr(module, name, forbidden)
    for cert, bad in changed:
        assert verify_certificate(cert)
        for w in bad:
            assert not verify_certificate(NoSectionCertificate(
                place=cert.place, residue=cert.residue, witness=w)), (
                cert.serialize(), w)
