"""Residue maps for 2-torsion classes over Q(t) and machine-checkable
no-section certificates.

A class is given by a pair (a, b) of nonzero rational functions,
standing for the conic a x^2 + b y^2 = z^2.  At a finite place given
by a monic square-free polynomial f, the residue is the class of

    (-1)^(v(a) v(b)) * a^v(b) / b^v(a)

in the residue ring Q[t]/(f); at infinity the same recipe runs after
the substitution t -> 1/s at the place s = 0, that is with f = s.
Every residue is held the same way: as its coefficient tuple in
Q[t]/(f), low degree first, of length below deg f; so at infinity and
at linear places it is a single rational number.  A nontrivial residue
at any place proves the conic has no section over Q(t); triviality of
every residue proves nothing (one-sided test by design).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .bundles import BundleError, ConicBundle, discriminant
from .exactmath import (
    MultiPoly,
    RatFunc,
    is_square_rat,
    legendre,
    modp_irreducible_witness,
)
from .exactmath.modular import (
    DEFAULT_PRIME_BOUND,
    PrimeWitness,
    is_probable_prime,
    pmod_deriv,
    pmod_eval,
    pmod_reduce_coeffs,
    primes_from,
    roots_mod_p,
    squarefree_mod_p,
)
from .exactmath.univariate import (
    _divides,
    as_univariate,
    squarefree_part_int,
    uexact_div,
    ugcd_monic,
    uinvmod,
    umod,
    umonic,
    umul,
    upowmod,
    uprimitive,
    urational_roots,
    uscale,
    utrim,
    yun_squarefree,
)
from .quadforms import BrauerPair, brauer_model


class BrauerError(ValueError):
    pass


def t_text(coeffs) -> str:
    """A coefficient list in t, low degree first, as text."""
    return str(MultiPoly.from_univariate(("t",), "t", coeffs))


@dataclass(frozen=True)
class Place:
    """Finite place: monic square-free f (irreducibility certified,
    assumed, or trivial for linear f).  The infinite place has
    f = None."""
    f: tuple | None
    irreducibility: str = "linear"
    witness: PrimeWitness | None = None

    @property
    def is_infinite(self) -> bool:
        return self.f is None

    @property
    def degree(self) -> int:
        return 0 if self.f is None else len(self.f) - 1

    @property
    def root(self) -> Fraction | None:
        if self.degree == 1:
            return -self.f[0]
        return None

    def sort_key(self):
        if self.f is None:
            return (2, 0, "")
        if self.degree == 1:
            return (0, self.root, "")
        return (1, self.degree, str(self))

    def __str__(self):
        if self.f is None:
            return "inf"
        return t_text(self.f)


@dataclass(frozen=True)
class ResidueClass:
    """The residue of a pair at one place.  `value` is a unit of
    Q[t]/(f) (f = t at infinity) as its coefficient tuple, low degree
    first, of length below deg f: one rational number at infinity and
    at linear places."""
    place: Place
    value: tuple
    v_a: int
    v_b: int

    @property
    def is_rational(self) -> bool:
        """The residue field is Q."""
        return self.place.degree <= 1

    def normalized(self) -> tuple:
        """Representative with square factors stripped from the rational
        content: the value times sf(num c) / (sf(den c) c) for its
        positive content c, sf the square-free part."""
        return self._representative

    @cached_property
    def _representative(self) -> tuple:
        # kept per residue: the table, the certificate line and the
        # payload all print it, and stripping squares factors integers
        c = Fraction(gcd(*(x.numerator for x in self.value)),
                     lcm(*(x.denominator for x in self.value)))
        scale = Fraction(squarefree_part_int(c.numerator),
                         squarefree_part_int(c.denominator)) / c
        return tuple(x * scale for x in self.value)

    def provably_trivial(self) -> bool:
        """True when the value is a rational square (squares stay
        squares in every residue field); False means unknown."""
        return len(self.value) == 1 and is_square_rat(self.value[0])

    def same_rational_class(self, x) -> bool:
        x = Fraction(x)
        return (self.is_rational and bool(x)
                and is_square_rat(self.value[0] * x))


@dataclass(frozen=True)
class NoSectionCertificate:
    place: Place
    residue: ResidueClass
    witness: PrimeWitness
    warnings: tuple = ()

    def serialize(self) -> str:
        root = self.witness.root if self.witness.root is not None else "-"
        return "place=%s residue=%s prime=%d root=%s" % (
            str(self.place).replace(" ", ""),
            t_text(self.residue.normalized()).replace(" ", ""),
            self.witness.p, root)


# -- places -------------------------------------------------------------

def _strip_all(p, f):
    """(multiplicity of f in p, cofactor), by exact division of the
    primitive parts in Z[t], whose quotients stay primitive (Gauss's
    lemma); the cofactor is rescaled once at the end."""
    P, F = uprimitive(p), uprimitive(f)
    count = 0
    while len(P) >= len(F):
        q = _divides(F, P)
        if q is None:
            break
        P = q
        count += 1
    if not count:
        return 0, p
    # p / f^count has the leading coefficient p[-1] / f[-1]^count
    scale = Fraction(p[-1], P[-1] * f[-1] ** count)
    return count, P if scale == 1 else uscale(P, scale)


def _coprime_basis(polys):
    """Pairwise-coprime monic basis generating the same set of roots;
    inputs are square-free."""
    basis: list = []
    queue = [umonic(p) for p in polys if len(p) > 1]
    while queue:
        f = queue.pop()
        if len(f) <= 1:
            continue
        placed = False
        for i, b in enumerate(basis):
            g = ugcd_monic(f, b)
            if len(g) <= 1:
                continue
            basis.pop(i)
            _, b1 = _strip_all(b, g)
            _, f1 = _strip_all(f, g)
            queue.extend(x for x in (g, umonic(b1), umonic(f1)) if len(x) > 1)
            placed = True
            break
        if not placed:
            basis.append(f)
    return basis


def _ratfunc_parts(r: RatFunc):
    _, num = as_univariate(r.num, "t")
    _, den = as_univariate(r.den, "t")
    return num, den


def places_of_pair(pair: BrauerPair,
                   prime_bound: int = DEFAULT_PRIME_BOUND,
                   keep=lambda f: True):
    """Finite places supporting div(a) or div(b) (square-free
    decomposition, coprime refinement, rational-root splitting), in
    canonical order, followed by the infinite place.  A finite place
    whose monic coefficient tuple f fails `keep(f)` is dropped before
    its irreducibility is certified."""
    pool = []
    for r in (pair.a, pair.b):
        for part in _ratfunc_parts(r):
            for fac, _ in yun_squarefree(part):
                pool.append(fac)
    places = []
    for f in _coprime_basis(pool):
        cof = f
        for r in urational_roots(f):
            lin = (-r, 1)
            cof = uexact_div(cof, list(lin))
            if keep(lin):
                places.append(Place(f=lin))
        cof = tuple(umonic(cof))
        if len(cof) - 1 >= 2 and keep(cof):
            w = modp_irreducible_witness(cof, bound=prime_bound)
            places.append(Place(
                f=cof,
                irreducibility="certified" if w else "assumed",
                witness=w))
    places.sort(key=lambda p: p.sort_key())
    places.append(Place(f=None, irreducibility="infinite"))
    return places


# -- valuations and residues --------------------------------------------

def valuation(r: RatFunc, place: Place) -> int:
    if r.is_zero():
        raise ValueError("valuation of the zero function")
    num, den = _ratfunc_parts(r)
    if place.is_infinite:
        return (len(den) - 1) - (len(num) - 1)
    f = list(place.f)
    vn, _ = _strip_all(num, f)
    vd, _ = _strip_all(den, f)
    return vn - vd


def _residue_value(a_pair, b_pair, f):
    """Unit part of (-1)^(va vb) a^vb / b^va reduced modulo f, as a
    coefficient list of degree < deg f."""
    na, da = a_pair
    nb, db = b_pair
    va_n, na = _strip_all(na, f)
    va_d, da = _strip_all(da, f)
    vb_n, nb = _strip_all(nb, f)
    vb_d, db = _strip_all(db, f)
    va = va_n - va_d
    vb = vb_n - vb_d
    num_acc = [1]
    den_acc = [1]
    for poly, e in ((na, vb), (da, -vb), (db, va), (nb, -va)):
        if e > 0:
            num_acc = umod(umul(num_acc, upowmod(poly, e, f)), f)
        elif e < 0:
            den_acc = umod(umul(den_acc, upowmod(poly, -e, f)), f)
    if not den_acc or not num_acc:
        raise RuntimeError("place divides a unit part: inputs not reduced")
    value = umod(umul(num_acc, uinvmod(den_acc, f)), f)
    if (va * vb) % 2:
        value = [-c for c in value]
    return va, vb, value


def _reverse_pair(num, den):
    """Coefficient lists of r(1/s) as a fraction in s."""
    dn, dd = len(num) - 1, len(den) - 1
    rn = list(reversed(num))
    rd = list(reversed(den))
    if dd > dn:
        rn = [0] * (dd - dn) + rn
    elif dn > dd:
        rd = [0] * (dn - dd) + rd
    return utrim(rn), utrim(rd)


def residue2(pair: BrauerPair, place: Place) -> ResidueClass:
    """The residue class of the pair at one place; trivial pairs
    (both valuations zero) give the class of 1."""
    a_parts = _ratfunc_parts(pair.a)
    b_parts = _ratfunc_parts(pair.b)
    if not a_parts[0] or not b_parts[0]:
        raise BrauerError("residues need nonzero a and b")
    f = place.f
    if place.is_infinite:
        a_parts = _reverse_pair(*a_parts)
        b_parts = _reverse_pair(*b_parts)
        f = (0, 1)
    va, vb, value = _residue_value(a_parts, b_parts, list(f))
    return ResidueClass(place=place, value=tuple(value), v_a=va, v_b=vb)


def residues_all(pair: BrauerPair,
                 prime_bound: int = DEFAULT_PRIME_BOUND):
    return [residue2(pair, pl) for pl in places_of_pair(pair, prime_bound)]


# -- non-squareness witnesses -------------------------------------------

def _rational_witness(q: Fraction, bound: int):
    if is_square_rat(q):
        return None
    m = q.numerator * q.denominator
    for p in primes_from(3):
        if p > bound:
            return None
        if m % p == 0:
            continue
        if legendre(m, p) == -1:
            return PrimeWitness(p=p)
    return None


def nonsquare_witness(rc: ResidueClass,
                      bound: int = DEFAULT_PRIME_BOUND):
    """Sound one-sided non-squareness proof for a residue value.
    Rational values: decided exactly, witness prime for the record.
    Values in Q[t]/(f): search primes where f has a root r and the
    value at r is a non-residue; returning None proves nothing."""
    if rc.is_rational:
        return _rational_witness(rc.value[0], bound)
    # deg f >= 2: the residue field is bigger than Q, so rational
    # non-squareness of a constant value proves nothing there; always
    # argue through a simple root of f mod p (a degree-one prime of the
    # field) at primes that divide no denominator and no discriminant
    fint = uprimitive(rc.place.f)
    bad = fint[-1]
    for c in rc.value + rc.place.f:
        bad *= c.denominator
    for p in primes_from(3):
        if p > bound:
            return None
        if bad % p == 0 or not squarefree_mod_p(fint, p):
            continue
        roots = roots_mod_p(fint, p)
        if not roots:
            continue
        vint = pmod_reduce_coeffs(rc.value, p)
        for r in roots:
            val = pmod_eval(vint, r, p)
            if val and legendre(val, p) == -1:
                return PrimeWitness(p=p, root=r)
    return None


def verify_certificate(cert: NoSectionCertificate) -> bool:
    """Recheck the Euler criterion and the good-reduction conditions
    without the search's code.  At a place of degree >= 2 the root r
    must be a simple root of f mod p: by Dedekind's criterion (p, t - r)
    is then a regular degree-one prime of Z[t]/(f)."""
    rc = cert.residue
    w = cert.witness
    p = w.p
    if not is_probable_prime(p):
        return False
    if rc.is_rational:
        q = rc.value[0]
        m = q.numerator * q.denominator
        return m % p != 0 and legendre(m, p) == -1
    # non-rational residue field: only a root of f mod p is probative
    if w.root is None:
        return False
    try:
        fbar = pmod_reduce_coeffs(rc.place.f, p)
        vint = pmod_reduce_coeffs(rc.value, p)
    except ZeroDivisionError:
        return False
    if (pmod_eval(fbar, w.root, p) != 0
            or pmod_eval(pmod_deriv(fbar, p), w.root, p) == 0):
        return False
    return legendre(pmod_eval(vint, w.root, p), p) == -1


# -- certificates -------------------------------------------------------

def no_section_certificate(cb: ConicBundle,
                           prime_bound: int = DEFAULT_PRIME_BOUND):
    """First residue of the bundle's diagonal model with a proven
    non-square value, scanning places in canonical order; None means
    inconclusive.  Only the places that `_meets_delta` keeps are
    certified irreducible and given a residue, and the scan stops at
    the first witness; the answer is that of `certificate_from_residues`
    on the full table."""
    if cb.has_flag("rational-by-section"):
        raise BrauerError(
            "bundle is flagged rational-by-section: it has a section")
    if cb.has_flag("degenerate-discriminant"):
        raise BundleError("discriminant vanishes identically")
    pair = brauer_model(cb)
    places = places_of_pair(pair, prime_bound, keep=_meets_delta(cb))
    return _first_certificate((residue2(pair, pl) for pl in places),
                              prime_bound)


def certificate_from_residues(cb: ConicBundle, rcs,
                              prime_bound: int = DEFAULT_PRIME_BOUND):
    """First of the residues `rcs` of brauer_model(cb), in their order,
    at a place that `_meets_delta` keeps, with a proven non-square
    value; None means inconclusive."""
    meets = _meets_delta(cb)
    return _first_certificate(
        (rc for rc in rcs if rc.place.is_infinite or meets(rc.place.f)),
        prime_bound)


def _meets_delta(cb: ConicBundle):
    """The test a finite place f must pass to be searched (infinity is
    always searched): f shares a factor with the affine discriminant
    Delta; for an irreducible place that means it divides Delta.

    At every irreducible factor of any other place the fiber form stays
    nondegenerate modulo the factor, so the conic has good reduction
    there and the residue of its Brauer class is trivial
    (Colliot-Thelene & Skorobogatov, The Brauer-Grothendieck Group,
    2021).  The value is then a square in the residue ring, the sound
    witness search could never succeed there, and skipping the place
    changes no certificate."""
    _, delta = as_univariate(discriminant(cb).delta_affine, "t")
    return lambda f: len(ugcd_monic(delta, list(f))) > 1


def _first_certificate(rcs, prime_bound: int):
    """Certificate from the first residue in `rcs` with a proven
    non-square value, or None.  The certificate is re-checked by
    `verify_certificate` before it is returned."""
    for rc in rcs:
        if rc.provably_trivial():
            continue
        w = nonsquare_witness(rc, prime_bound)
        if w is None:
            continue
        warnings = ()
        if rc.place.irreducibility == "assumed":
            warnings = (
                "place %s has no irreducibility certificate below the "
                "prime bound; the witness still refutes squareness at "
                "one of its irreducible factors" % rc.place,)
        cert = NoSectionCertificate(place=rc.place, residue=rc,
                                    witness=w, warnings=warnings)
        if not verify_certificate(cert):
            raise AssertionError("certificate failed its re-check: %s"
                                 % cert.serialize())
        return cert
    return None
