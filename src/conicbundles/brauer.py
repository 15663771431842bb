"""Residue maps for 2-torsion classes over Q(t) and machine-checkable
no-section certificates.

A class is given by a pair (a, b) of nonzero rational functions,
standing for the conic a x^2 + b y^2 = z^2.  At a finite place given
by a monic square-free polynomial f, the residue is the class of

    (-1)^(v(a) v(b)) * a^v(b) / b^v(a)

in the residue ring Q[t]/(f); at infinity the same recipe runs after
the substitution t -> 1/s at the place s = 0.  A nontrivial residue at
any place proves the conic has no section over Q(t); triviality of
every residue proves nothing (one-sided test by design).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import BundleError, ConicBundle, discriminant
from .exactmath import MultiPoly, RatFunc, is_square_rat, legendre
from .exactmath.modular import (
    PrimeWitness,
    pmod_eval,
    pmod_reduce_coeffs,
    primes_from,
    roots_mod_p,
)
from .exactmath.univariate import (
    as_univariate,
    is_square_rat as _sq,
    squarefree_part_int,
    udiscriminant,
    uexact_div,
    ugcd_monic,
    umod,
    umul,
    uprimitive,
    urational_roots,
    utrim,
    yun_squarefree,
)
from .quadforms import BrauerPair, brauer_model

DEFAULT_PRIME_BOUND = 10**4


class BrauerError(ValueError):
    pass


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

    def poly(self) -> MultiPoly | None:
        if self.f is None:
            return None
        return MultiPoly.from_univariate(("t",), "t", self.f)

    def sort_key(self):
        if self.f is None:
            return (2, 0, "")
        if self.degree == 1:
            return (0, self.root, "")
        return (1, self.degree, str(self.poly()))

    def __str__(self):
        if self.f is None:
            return "inf"
        return str(self.poly())


@dataclass(frozen=True)
class ResidueClass:
    place: Place
    value: object  # Fraction, or MultiPoly in t for places of degree >= 2
    v_a: int
    v_b: int

    @property
    def is_rational(self) -> bool:
        return isinstance(self.value, Fraction)

    def normalized(self):
        """Representative with square factors stripped: for rational
        values sign * sf(|num|) / sf(|den|); for polynomial values the
        rational content is normalized the same way."""
        if self.is_rational:
            q = self.value
            if not q:
                return q
            sign = -1 if q < 0 else 1
            return Fraction(sign * squarefree_part_int(abs(q.numerator)),
                            squarefree_part_int(q.denominator))
        c = self.value.content()
        if not c:
            return self.value
        cn = Fraction(squarefree_part_int(c.numerator),
                      squarefree_part_int(c.denominator))
        return self.value * (cn / c)

    def provably_trivial(self) -> bool:
        """True when the value is a rational square (squares stay
        squares in every residue field); False means unknown."""
        if self.is_rational:
            return is_square_rat(self.value)
        if self.value.is_constant():
            return is_square_rat(self.value.constant_value())
        return False

    def same_rational_class(self, x) -> bool:
        if not self.is_rational:
            return False
        a, b = self.value, Fraction(x)
        if not a or not b:
            return a == b
        return _sq(a * b)


@dataclass(frozen=True)
class NoSectionCertificate:
    place: Place
    residue: ResidueClass
    witness: PrimeWitness
    warnings: tuple = ()

    def serialize(self) -> str:
        res = self.residue.normalized()
        root = self.witness.root if self.witness.root is not None else "-"
        return "place=%s residue=%s prime=%d root=%s" % (
            _compact(self.place), _compact_value(res), self.witness.p, root)


def _compact(place: Place) -> str:
    return str(place).replace(" ", "")


def _compact_value(v) -> str:
    return str(v).replace(" ", "")


# -- places -------------------------------------------------------------

def _monic(c):
    c = utrim([Fraction(x) for x in c])
    if not c:
        return c
    inv = 1 / c[-1]
    return [x * inv for x in c]


def _strip_all(p, f):
    """(multiplicity of f in p, cofactor)."""
    count = 0
    while len(p) >= len(f):
        q, r = _udivmod_pair(p, f)
        if r:
            break
        p = q
        count += 1
    return count, p


def _udivmod_pair(a, b):
    from .exactmath.univariate import udivmod
    return udivmod(a, b)


def _coprime_basis(polys):
    """Pairwise-coprime monic basis generating the same set of roots;
    inputs are square-free."""
    basis: list = []
    queue = [_monic(p) for p in polys if len(p) > 1]
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
            queue.extend(x for x in (g, _monic(b1), _monic(f1)) if len(x) > 1)
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
                   prime_bound: int = DEFAULT_PRIME_BOUND):
    """Finite places supporting div(a) or div(b) (square-free
    decomposition, coprime refinement, rational-root splitting), in
    canonical order, followed by the infinite place."""
    pool = []
    for r in (pair.a, pair.b):
        for part in _ratfunc_parts(r):
            for fac, _ in yun_squarefree(part):
                pool.append(fac)
    places = []
    for f in _coprime_basis(pool):
        roots = urational_roots(f)
        cof = f
        for r in roots:
            cof = uexact_div(cof, [-r, Fraction(1)])
            places.append(Place(f=(-r, Fraction(1)), irreducibility="linear"))
        cof = _monic(cof)
        if len(cof) - 1 >= 2:
            fpoly = MultiPoly.from_univariate(("t",), "t", cof)
            from .exactmath import modp_irreducible_witness
            w = modp_irreducible_witness(fpoly, bound=prime_bound)
            places.append(Place(
                f=tuple(cof),
                irreducibility="certified" if w else "assumed",
                witness=w))
    places = [Place(f=tuple(p.f) if p.f else None,
                    irreducibility=p.irreducibility, witness=p.witness)
              for p in places]
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


def _uinv_mod(a, f):
    """Inverse of a modulo f over Q (extended Euclid)."""
    r0, r1 = list(f), umod(a, f)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r2 = _udivmod_pair(r0, r1)
        r0, r1 = r1, r2
        s2 = _usub(s0, umul(q, s1))
        s0, s1 = s1, s2
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo the place")
    inv = 1 / r0[0]
    return umod([c * inv for c in s0], f)


def _usub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else Fraction(0))
           - (b[i] if i < len(b) else Fraction(0)) for i in range(n)]
    return utrim(out)


def _upow_mod(a, e, f):
    out = [Fraction(1)]
    a = umod(a, f)
    while e:
        if e & 1:
            out = umod(umul(out, a), f)
        a = umod(umul(a, a), f)
        e >>= 1
    return out


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
    num_acc = [Fraction(1)]
    den_acc = [Fraction(1)]
    for poly, e in ((na, vb), (da, -vb), (db, va), (nb, -va)):
        if e > 0:
            num_acc = umod(umul(num_acc, _upow_mod(poly, e, f)), f)
        elif e < 0:
            den_acc = umod(umul(den_acc, _upow_mod(poly, -e, f)), f)
    if not den_acc or not num_acc:
        raise RuntimeError("place divides a unit part: inputs not reduced")
    value = umod(umul(num_acc, _uinv_mod(den_acc, f)), f)
    if (va * vb) % 2:
        value = [-c for c in value]
    return va, vb, value


def _reverse_pair(num, den):
    """Coefficient lists of r(1/s) as a fraction in s."""
    dn, dd = len(num) - 1, len(den) - 1
    rn = list(reversed(num))
    rd = list(reversed(den))
    if dd > dn:
        rn = [Fraction(0)] * (dd - dn) + rn
    elif dn > dd:
        rd = [Fraction(0)] * (dn - dd) + rd
    return utrim(rn), utrim(rd)


def residue2(pair: BrauerPair, place: Place) -> ResidueClass:
    """The residue class of the pair at one place; trivial pairs
    (both valuations zero) give the class of 1."""
    a_parts = _ratfunc_parts(pair.a)
    b_parts = _ratfunc_parts(pair.b)
    if not a_parts[0] or not b_parts[0]:
        raise BrauerError("residues need nonzero a and b")
    if place.is_infinite:
        a_parts = _reverse_pair(*a_parts)
        b_parts = _reverse_pair(*b_parts)
        f = [Fraction(0), Fraction(1)]
        va, vb, value = _residue_value(a_parts, b_parts, f)
        val = value[0] if value else Fraction(0)
        return ResidueClass(place=place, value=val, v_a=va, v_b=vb)
    f = list(place.f)
    va, vb, value = _residue_value(a_parts, b_parts, f)
    if place.degree == 1:
        val = value[0] if value else Fraction(0)
        return ResidueClass(place=place, value=val, v_a=va, v_b=vb)
    poly = MultiPoly.from_univariate(("t",), "t", value)
    return ResidueClass(place=place, value=poly, v_a=va, v_b=vb)


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
            return PrimeWitness(p=p, root=None,
                                note="Legendre(%d, %d) = -1" % (m, p))
    return None


def nonsquare_witness(rc: ResidueClass,
                      bound: int = DEFAULT_PRIME_BOUND):
    """Sound one-sided non-squareness proof for a residue value.
    Rational values: decided exactly, witness prime for the record.
    Values in Q[t]/(f): search primes where f has a root r and the
    value at r is a non-residue; returning None proves nothing."""
    if rc.is_rational:
        if not rc.value:
            return None
        return _rational_witness(rc.value, bound)
    # deg f >= 2: the residue field is bigger than Q, so rational
    # non-squareness of a constant value proves nothing there; always
    # argue through a root of f mod p (a degree-one prime of the field)
    f = list(rc.place.f)
    fprim = uprimitive(f)
    disc = udiscriminant(f)
    _, vcoeffs = as_univariate(rc.value, "t")
    bad = abs(disc.numerator * disc.denominator) * int(fprim[-1])
    for c in vcoeffs + f:
        bad *= c.denominator
    fint = [int(c) for c in fprim]
    for p in primes_from(3):
        if p > bound:
            return None
        if bad % p == 0:
            continue
        roots = roots_mod_p([c % p for c in fint], p)
        if not roots:
            continue
        vint = pmod_reduce_coeffs(vcoeffs, p)
        for r in roots:
            val = pmod_eval(vint, r, p)
            if val == 0:
                continue
            if legendre(val, p) == -1:
                return PrimeWitness(p=p, root=r,
                                    note="value is a non-residue mod %d" % p)
    return None


def verify_certificate(cert: NoSectionCertificate) -> bool:
    """Recheck the Euler criterion and the good-reduction conditions."""
    rc = cert.residue
    w = cert.witness
    p = w.p
    if rc.is_rational:
        q = rc.value
        m = q.numerator * q.denominator
        return m % p != 0 and legendre(m, p) == -1
    # non-rational residue field: only a root of f mod p is probative
    if w.root is None:
        return False
    f = list(rc.place.f)
    disc = udiscriminant(f)
    if (disc.numerator * disc.denominator) % p == 0:
        return False
    try:
        fint = pmod_reduce_coeffs(f, p)
        _, vcoeffs = as_univariate(rc.value, "t")
        vint = pmod_reduce_coeffs(vcoeffs, p)
    except ZeroDivisionError:
        return False
    if pmod_eval(fint, w.root, p) != 0:
        return False
    val = pmod_eval(vint, w.root, p)
    return val != 0 and legendre(val, p) == -1


# -- certificates -------------------------------------------------------

def no_section_certificate(cb: ConicBundle,
                           prime_bound: int = DEFAULT_PRIME_BOUND):
    """First residue of the bundle's diagonal model with a proven
    non-square value, scanning places in canonical order; None means
    inconclusive.  See `certificate_from_residues` for the places
    searched."""
    if cb.has_flag("rational-by-section"):
        raise BrauerError(
            "bundle is flagged rational-by-section: it has a section")
    if cb.has_flag("degenerate-discriminant"):
        raise BundleError("discriminant vanishes identically")
    pair = brauer_model(cb)
    return certificate_from_residues(cb, residues_all(pair, prime_bound),
                                     prime_bound)


def certificate_from_residues(cb: ConicBundle, rcs,
                              prime_bound: int = DEFAULT_PRIME_BOUND):
    """First of the residues `rcs` of brauer_model(cb), in their order,
    with a proven non-square value; None means inconclusive.

    Only infinity and the finite places whose polynomial shares a
    factor with the affine discriminant Delta are searched; for an
    irreducible place that means it divides Delta.  At every
    irreducible factor of any other place the fiber form stays
    nondegenerate modulo the factor, so the conic has good reduction
    there and the residue of its Brauer class is trivial
    (Colliot-Thelene & Skorobogatov, The Brauer-Grothendieck Group,
    2021).  The value is then a square in the residue ring, the sound
    witness search could never succeed there, and skipping the place
    changes no certificate."""
    _, delta = as_univariate(discriminant(cb).delta_affine, "t")
    for rc in rcs:
        if not rc.place.is_infinite and \
                len(ugcd_monic(delta, list(rc.place.f))) <= 1:
            continue
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
        return NoSectionCertificate(place=rc.place, residue=rc,
                                    witness=w, warnings=warnings)
    return None
