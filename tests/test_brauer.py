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
    no_section_certificate,
    nonsquare_witness,
    places_of_pair,
    residue2,
    residues_all,
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
from conicbundles.exactmath.univariate import as_univariate, umod
from conicbundles.quadforms import BrauerPair, brauer_model

T = ("t",)


def rf(text):
    return RatFunc(parse_poly(text, T))


def pair(a_text, b_text):
    return BrauerPair(a=rf(a_text), b=rf(b_text))


def upoly(coeffs):
    return MultiPoly.from_univariate(T, "t", [Fraction(c) for c in coeffs])


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
    r = rf("t^2 - 2*t + 1") / rf("t^3")  # (t-1)^2 / t^3
    at = lambda f: valuation(r, Place(f=f))
    assert at((Fraction(-1), Fraction(1))) == 2   # t - 1
    assert at((Fraction(0), Fraction(1))) == -3   # t
    assert valuation(r, Place(f=None)) == 1       # deg den - deg num
    assert valuation(rf("5"), Place(f=None)) == 0
    with pytest.raises(ValueError):
        valuation(rf("0"), Place(f=(Fraction(0), Fraction(1))))


# -- residues ------------------------------------------------------------


def test_residue_uniformizer_against_constant():
    # (t, 2): at t the tame symbol is a^0 / b^1 = 1/2
    p = pair("t", "2")
    at_t = residue2(p, Place(f=(Fraction(0), Fraction(1))))
    assert (at_t.v_a, at_t.v_b) == (1, 0)
    assert at_t.value == Fraction(1, 2)
    at_inf = residue2(p, Place(f=None))
    assert (at_inf.v_a, at_inf.v_b) == (-1, 0)
    assert at_inf.value == 2


def test_residue_sign_rule():
    # (t, t): v_a = v_b = 1 at t, so the symbol is -1
    p = pair("t", "t")
    at_t = residue2(p, Place(f=(Fraction(0), Fraction(1))))
    assert at_t.value == -1
    at_inf = residue2(p, Place(f=None))
    assert at_inf.value == -1
    assert not at_t.provably_trivial()
    w = nonsquare_witness(at_t)
    assert w is not None and w.p == 3


def test_residue_off_support_is_trivial():
    p = pair("t", "2")
    rc = residue2(p, Place(f=(Fraction(-1), Fraction(1))))
    assert (rc.v_a, rc.v_b) == (0, 0)
    assert rc.value == 1 and rc.provably_trivial()


def test_residue_even_valuations_square():
    # (t^2, 3) at t: a^0 / b^2 = 1/9, a square
    p = pair("t^2", "3")
    rc = residue2(p, Place(f=(Fraction(0), Fraction(1))))
    assert rc.value == Fraction(1, 9)
    assert rc.provably_trivial()


def test_residue_at_quadratic_place():
    # (t^2 + 1, t): at f = t^2+1 the symbol is 1/t = -t mod f
    p = pair("t^2 + 1", "t")
    quad = Place(f=(Fraction(1), Fraction(0), Fraction(1)),
                 irreducibility="certified")
    rc = residue2(p, quad)
    assert (rc.v_a, rc.v_b) == (1, 0)
    assert not rc.is_rational
    assert rc.value == upoly([0, -1])
    # spec example family: class of t in Q[t]/(t^2-2) has witness (7, 3)
    rc2 = ResidueClass(
        place=Place(f=(Fraction(-2), Fraction(0), Fraction(1)),
                    irreducibility="certified"),
        value=upoly([0, 1]), v_a=1, v_b=0)
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
    rc = ResidueClass(place=pl, value=Fraction(-18, 49), v_a=1, v_b=0)
    assert rc.normalized() == Fraction(-2)
    assert rc.same_rational_class(-2)
    assert rc.same_rational_class(Fraction(-1, 2))
    assert not rc.same_rational_class(2)


def test_witness_none_for_squares():
    pl = Place(f=(Fraction(0), Fraction(1)))
    assert nonsquare_witness(
        ResidueClass(place=pl, value=Fraction(9, 4), v_a=1, v_b=0)) is None


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


def test_split_quadratic_place_no_false_certificate():
    # (t^2+1)y0^2 + (t^2+1)y1^2 = y2^2 has the section (t, 1, t^2+1);
    # its only candidate residue is -1 at t^2+1, a square in Q(i), so
    # the scan must come back inconclusive
    cb = validate_bundle(make_bundle(
        (2, 1, 1),
        ("x0^2*x1^2 + x1^4", "0", "0", "x0^2 + x1^2", "0", "-x1^2")))
    bp = brauer_model(cb)
    rcs = {str(rc.place): rc for rc in residues_all(bp)}
    assert rcs["t^2 + 1"].value == upoly([-1])
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
    rc = ResidueClass(place=pl, value=upoly([2]), v_a=1, v_b=0)
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
        a = rf(str(lead))
        for _ in range(3):
            a = a * (rf("t") - rf(str(rng.randint(-4, 4))))
        s = rf("t") - rf(str(rng.randint(-4, 4)))
        b = s * s
        p = BrauerPair(a=a, b=b)
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
