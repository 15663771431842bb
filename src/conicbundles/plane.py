"""Projective plane and scroll geometry: hypersurface images of the
bundle total spaces, quadratic Cremona transformations with exact
strict transforms, the degree 8 -> 6 -> 4 -> 2 reduction chain, the
tangent-plane two-section construction for weights (2,1,1), and
rational point search on conics over Q with local obstruction
reporting.  A conic is diagonalized by `quadforms.diagonalize_pivoted`,
the routine the residue path uses for the generic fiber.  A Cremona
map lists the lines it contracts, the factors of its Jacobian
determinant, so strict transforms need no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .bundles import ConicBundle, instantiate
from .exactmath import (
    MultiPoly,
    NotDivisible,
    factorize,
    is_square_rat,
    legendre,
    mat_rank,
    nullspace,
    sqrt_rat,
)
from .families import LOCI, bundle_coefficients, first_violation
from .quadforms import QuadraticForm3, diagonalize_pivoted

W3 = ("w0", "w1", "w2")
Z4 = ("z0", "z1", "z2", "z3")


class PlaneError(ValueError):
    pass


class ContractedCurveError(PlaneError):
    pass


class UnsupportedWeights(PlaneError):
    pass


# -- curves and multiplicities ------------------------------------------

@dataclass(frozen=True)
class PlaneCurve:
    poly: MultiPoly
    degree: int

    @classmethod
    def make(cls, poly: MultiPoly) -> "PlaneCurve":
        poly = poly.align(W3) if poly.vars != W3 else poly
        if poly.is_zero():
            raise PlaneError("the zero polynomial is not a curve")
        if not poly.is_homogeneous():
            raise PlaneError("curve equation must be homogeneous")
        poly = poly.primitive_normalized()
        return cls(poly=poly, degree=poly.total_degree())


def multiplicity_at(poly: MultiPoly, point, variables=None):
    """Multiplicity of a projective hypersurface at a point, with the
    tangent cone: translate the point to the origin of an affine chart
    and read the lowest total degree part."""
    variables = variables or poly.vars
    pt = [Fraction(x) for x in point]
    chart = next(i for i, x in enumerate(pt) if x)
    pt = [x / pt[chart] for x in pt]
    mapping = {}
    for i, v in enumerate(variables):
        if i == chart:
            mapping[v] = MultiPoly.const(variables, 1)
        else:
            mapping[v] = MultiPoly.variable(variables, v) + pt[i]
    local = poly.substitute(mapping)
    m = local.min_total_degree()
    cone_terms = {e: c for e, c in local.terms.items() if sum(e) == m}
    cone = MultiPoly(local.vars, cone_terms)
    return m, cone


# -- scroll images -------------------------------------------------------

@dataclass(frozen=True)
class SurfaceModel:
    poly: MultiPoly
    degree: int
    multiple_lines: tuple  # ((var_a, var_b), multiplicity) pairs
    chart_map: str


_SCROLL_SLOTS = {
    # weights -> (hom pair, slot variables for (y0,y1,y2), model degree,
    #             chart text)
    (2, 1, 1): (("z0", "z1"), (None, "z2", "z3"), 4,
                "[x0*y0 : x1*y0 : y1 : y2]"),
    (2, 2, 0): (("z0", "z3"), (None, "z1", "z2"), 6,
                "[x0 : y1 : y2 : 1] rehomogenized by z3"),
    (4, 0, 0): (("z0", "z3"), (None, "z1", "z2"), 8,
                "[x0 : y1 : y2 : 1] rehomogenized by z3"),
}

_SCROLL_LINES = {
    (2, 1, 1): ((("z0", "z1"), 2),),
    (2, 2, 0): ((("z0", "z3"), 4), (("z1", "z3"), 2)),
    (4, 0, 0): ((("z0", "z3"), 6),),
}


def scroll_image(cb: ConicBundle) -> SurfaceModel:
    """Hypersurface model in P^3 swept by the images of the fibers.
    Weights (3,1,0) have no such model here: that case is handled by
    a tangent hyperplane section, not a scroll projection."""
    w = cb.weights.tuple
    if w not in _SCROLL_SLOTS:
        raise UnsupportedWeights(
            "no scroll model for weights %s; supported: (2,1,1), (2,2,0), "
            "(4,0,0)" % (w,))
    (va, vb), slots, total, chart = _SCROLL_SLOTS[w]
    variables = Z4 + cb.params
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    md = cb.multidegree()
    dij = dict(zip(pairs, md.tuple))
    acc = MultiPoly.zero(variables)
    pad = MultiPoly.variable(variables, vb)
    hom = {"x0": MultiPoly.variable(variables, va), "x1": pad}
    for (i, j) in pairs:
        s = cb.s(i, j)
        if s.is_zero():
            continue
        term = s.substitute(hom)
        for k in (i, j):
            if slots[k] is not None:
                term = term * MultiPoly.variable(variables, slots[k])
        e = total - dij[(i, j)] - sum(1 for k in (i, j) if slots[k])
        if e < 0:
            raise PlaneError("inconsistent padding exponent")
        if e:
            term = term * pad ** e
        acc = acc + term
    if acc.is_zero():
        raise PlaneError("all coefficient forms vanish")
    lines = []
    for (la, lb), expected in _SCROLL_LINES[w]:
        ia, ib = variables.index(la), variables.index(lb)
        mult = min(e[ia] + e[ib] for e in acc.terms)
        lines.append(((la, lb), mult))
    return SurfaceModel(poly=acc, degree=total, multiple_lines=tuple(lines),
                        chart_map=chart)


# -- Cremona transformations ----------------------------------------------

def _jac_det3(slots) -> MultiPoly:
    cols = [[q.derivative(v) for v in W3] for q in slots]
    det = MultiPoly.zero(W3)
    for sign, perm in ((1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
                       (-1, (0, 2, 1)), (-1, (1, 0, 2)), (-1, (2, 1, 0))):
        term = cols[0][perm[0]] * cols[1][perm[1]] * cols[2][perm[2]]
        det = det + term * sign
    return det


def _peel(g: MultiPoly, lines) -> MultiPoly:
    """g with every power of each of the linear forms divided out."""
    for ln in lines:
        try:
            while g:
                g = g.exact_div(ln)
        except NotDivisible:
            pass
    return g


@dataclass(frozen=True)
class CremonaMap:
    """Birational quadratic self-map of the plane.  slots push points
    forward; inverse_slots pull equations back, which is how curve
    images are computed.  Their Jacobian determinants are nonzero
    constants times powers of the lines (inverse_lines) they contract."""
    slots: tuple  # three quadrics in w0, w1, w2
    inverse_slots: tuple
    lines: tuple = ()
    inverse_lines: tuple = ()

    def __post_init__(self):
        for triple in (self.slots, self.inverse_slots):
            rows = []
            for q in triple:
                if q.total_degree() != 2 or not q.is_homogeneous():
                    raise PlaneError("Cremona slots must be quadrics")
                rows.append([q.coeff(e) for e in _QUADRIC_EXPS])
            if mat_rank(rows) != 3:
                raise PlaneError("Cremona slots are linearly dependent")
        # round trip must be the identity up to a common factor
        comp = [s.substitute(dict(zip(W3, self.inverse_slots)))
                for s in self.slots]
        wv = [MultiPoly.variable(W3, v) for v in W3]
        for i in range(3):
            for j in range(i + 1, 3):
                if not (comp[i] * wv[j] - comp[j] * wv[i]).is_zero():
                    raise PlaneError("inverse slots do not invert the map")
        for triple, lines in ((self.slots, self.lines),
                              (self.inverse_slots, self.inverse_lines)):
            jac = _jac_det3(triple)
            # total degree 0: a nonzero constant is all that is left
            if not all(ln.total_degree() == 1 and ln.divides(jac)
                       for ln in lines) or _peel(jac, lines).total_degree():
                raise PlaneError("the Jacobian %s is not a constant times "
                                 "powers of %s" % (jac, list(map(str, lines))))

    def inverse(self) -> "CremonaMap":
        return CremonaMap(slots=self.inverse_slots,
                          inverse_slots=self.slots,
                          lines=self.inverse_lines,
                          inverse_lines=self.lines)

    def apply_point(self, point):
        pt = dict(zip(W3, (Fraction(x) for x in point)))
        img = [q.evaluate(pt) for q in self.slots]
        if not any(img):
            raise PlaneError("point lies in the base locus")
        return _primitive_point(img)


_QUADRIC_EXPS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                 (0, 0, 2))


def _primitive_point(coords):
    fr = [Fraction(x) for x in coords]
    den = 1
    for c in fr:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fr]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g:
        ints = [c // g for c in ints]
    for c in ints:
        if c:
            if c < 0:
                ints = [-x for x in ints]
            break
    return tuple(ints)


def line_through(p, q) -> MultiPoly:
    a = [Fraction(x) for x in p]
    b = [Fraction(x) for x in q]
    cr = (a[1] * b[2] - a[2] * b[1],
          a[2] * b[0] - a[0] * b[2],
          a[0] * b[1] - a[1] * b[0])
    if not any(cr):
        raise PlaneError("coincident points span no line")
    poly = MultiPoly.zero(W3)
    for c, v in zip(cr, W3):
        poly = poly + MultiPoly.variable(W3, v) * c
    return poly.primitive_normalized()


def _std_slots():
    w0, w1, w2 = (MultiPoly.variable(W3, v) for v in W3)
    return (w1 * w2, w0 * w2, w0 * w1)


def standard_cremona() -> CremonaMap:
    slots = _std_slots()
    lines = tuple(MultiPoly.variable(W3, v) for v in W3)
    return CremonaMap(
        slots=slots, inverse_slots=slots, lines=lines, inverse_lines=lines)


def _mat_inverse3(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not det:
        raise PlaneError("singular linear part")
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


def _linear_slot(row):
    acc = MultiPoly.zero(W3)
    for c, v in zip(row, W3):
        if c:
            acc = acc + MultiPoly.variable(W3, v) * c
    return acc


def cremona_from_points(p0, p1, p2, recombine=None) -> CremonaMap:
    """Quadratic map whose slot i is the product of the two lines
    through base point i; reproduces the coordinate-triangle map for
    the standard base points.  An optional invertible 3x3 matrix
    recombines the target coordinates (a different basis of the same
    net of conics)."""
    l01 = line_through(p0, p1)
    l02 = line_through(p0, p2)
    l12 = line_through(p1, p2)
    for ln, pt in ((l01, p2), (l02, p1), (l12, p0)):
        if not ln.evaluate(dict(zip(W3, (Fraction(x) for x in pt)))):
            raise PlaneError("base points are collinear")
    # the map factors as std o L with L = (l12, l02, l01), so the
    # inverse is L^-1 o std
    slots = (l01 * l02, l01 * l12, l02 * l12)
    lmat = tuple(tuple(ln.coeff(e) for e in ((1, 0, 0), (0, 1, 0),
                                             (0, 0, 1)))
                 for ln in (l12, l02, l01))
    minv = _mat_inverse3(lmat)
    std = _std_slots()
    std_lines = tuple(MultiPoly.variable(W3, v) for v in W3)
    inverse = tuple(
        sum((std[j] * minv[i][j] for j in range(3)), MultiPoly.zero(W3))
        for i in range(3))
    cmap = CremonaMap(slots=slots, inverse_slots=inverse,
                      lines=(l01, l02, l12), inverse_lines=std_lines)
    if recombine is not None:
        cmap = recombine_target(cmap, recombine)
    return cmap


def recombine_target(cmap: CremonaMap, t) -> CremonaMap:
    """Compose with the linear target change w -> T w: slots become
    T * slots and the inverse, with the lines it contracts, picks up
    T^-1 on the way in."""
    t = tuple(tuple(Fraction(x) for x in row) for row in t)
    slots = tuple(
        sum((cmap.slots[j] * t[i][j] for j in range(3)),
            MultiPoly.zero(W3))
        for i in range(3))
    tinv = _mat_inverse3(t)
    pre = {v: _linear_slot(row) for v, row in zip(W3, tinv)}
    inverse = tuple(q.substitute(pre) for q in cmap.inverse_slots)
    return CremonaMap(slots=slots, inverse_slots=inverse,
                      lines=cmap.lines,
                      inverse_lines=tuple(ln.substitute(pre)
                                          for ln in cmap.inverse_lines))


def cremona_apply(cmap: CremonaMap, curve: PlaneCurve) -> PlaneCurve:
    """Image of a curve: pull the equation back along the inverse
    slots, divide out every power of the lines the inverse contracts
    (the irreducible factors of its Jacobian determinant), which
    leaves the strict transform, and normalize the content."""
    mapping = dict(zip(W3, cmap.inverse_slots))
    g = curve.poly.substitute(mapping)
    if g.is_zero():
        raise ContractedCurveError("contracted: curve maps into the base locus")
    g = _peel(g, cmap.inverse_lines)
    if g.is_constant():
        raise ContractedCurveError("contracted: image is a point")
    return PlaneCurve.make(g)


# -- the degree 8 -> 6 -> 4 -> 2 chain ------------------------------------

def u12_coefficients(cb: ConicBundle) -> dict:
    """Named coefficients of a numeric (4,0,0) bundle: index 0 is the
    leading (t-degree) coefficient of each form."""
    if cb.weights.tuple != (4, 0, 0):
        raise PlaneError("chain needs weights (4,0,0), got %s" % cb.weights)
    if cb.params:
        raise PlaneError("chain needs a numeric bundle; instantiate first")
    return bundle_coefficients(cb)


def u12_delta(coeffs: dict) -> Fraction:
    return (coeffs["a4"] + 2 * coeffs["a6"]
            + Fraction(coeffs["b2"] + coeffs["c2"], 2)
            + Fraction(coeffs["d0"] + coeffs["g0"] + coeffs["h0"], 4))


@dataclass(frozen=True)
class ChainU12:
    C: PlaneCurve
    C1: PlaneCurve
    C2: PlaneCurve
    C3: PlaneCurve
    maps: tuple
    q_multiplicity: int
    q_tangent_cone: MultiPoly
    double_points: tuple
    delta: Fraction
    coefficients: dict

    @property
    def degrees(self):
        return (self.C.degree, self.C1.degree, self.C2.degree,
                self.C3.degree)


# base points: the 6-fold point and two of the three double points for
# the first map; the special triangle for the second; the third map is
# fixed explicitly.  The target recombinations are forced by matching
# the normal-form equations of the three image curves: a net of conics
# through three points only fixes the map up to a linear change of the
# target, and the stated equations single one choice out.
CHAIN_Q = (0, 1, 0)
CHAIN_DOUBLE_POINTS = ((0, 0, 1), (1, 0, -1), (1, 1, 1))
CHAIN_B2 = ((2, 1, 1), (0, 1, 0), (1, 0, 0))
_CHAIN_T1 = ((1, 0, 0), (0, 1, 0), (0, -1, 1))
_CHAIN_T2 = ((1, 1, 2), (0, 1, 0), (0, 0, 1))


# constants, built on first use rather than at import
@cache
def chain_phi3() -> CremonaMap:
    # base points (0, 0, 1) and (2, 0, 1), one of them with an
    # infinitely near base condition
    w0, w1, w2 = (MultiPoly.variable(W3, v) for v in W3)
    return CremonaMap(
        slots=(w0 * w0 - (w0 - w1) * w2 * 2, w1 * w1, w0 * w1),
        inverse_slots=((w2 - w1) * w2 * 2, (w2 - w1) * w1 * 2,
                       w2 * w2 - w0 * w1),
        lines=(w1, w0 - w1), inverse_lines=(w1, w1 - w2))


@cache
def chain_phi1() -> CremonaMap:
    return cremona_from_points(CHAIN_Q, CHAIN_DOUBLE_POINTS[0],
                               CHAIN_DOUBLE_POINTS[1],
                               recombine=_CHAIN_T1)


@cache
def chain_phi2() -> CremonaMap:
    return cremona_from_points(*CHAIN_B2, recombine=_CHAIN_T2)


def hyperplane_section_octic(cb: ConicBundle) -> PlaneCurve:
    """The degree-8 plane curve cut on the scroll image of a (4,0,0)
    bundle by the hyperplane identifying the two middle coordinates."""
    model = scroll_image(cb)
    w0, w1, w2 = (MultiPoly.variable(W3, v) for v in W3)
    c = model.poly.substitute({"z0": w0, "z1": w1, "z2": w1, "z3": w2})
    return PlaneCurve.make(c)


def chain_U12(cb: ConicBundle, instantiation=None) -> ChainU12:
    """Run the full reduction: octic section of the degree-8 scroll
    image, then three quadratic Cremona maps; verifies the locus
    relations, the 6-fold point, and the double points."""
    if instantiation:
        cb = instantiate(cb, instantiation)
    coeffs = u12_coefficients(cb)
    bad = first_violation(LOCI["U12"], coeffs)
    if bad:
        raise PlaneError("chain locus relation violated: %s = %s but the "
                         "relations force %s" % bad)
    delta = u12_delta(coeffs)
    if not delta:
        raise PlaneError("chain degenerates: Delta = 0")
    tc_scalar = coeffs["d0"] + coeffs["g0"] + coeffs["h0"]
    if not tc_scalar:
        raise PlaneError("chain degenerates: the 6-fold point sharpens "
                         "(d0 + g0 + h0 = 0)")
    if coeffs["b3"] + coeffs["c3"]:
        # off this slice the deep point carries a different
        # infinitely-near structure and the degree sequence breaks
        raise PlaneError("chain normal form needs b3 + c3 = 0")
    c_curve = hyperplane_section_octic(cb)
    mq, cone = multiplicity_at(c_curve.poly, CHAIN_Q)
    if mq != 6:
        raise PlaneError("expected multiplicity 6 at the deep point, got %d"
                         % mq)
    for pt in CHAIN_DOUBLE_POINTS:
        m, _ = multiplicity_at(c_curve.poly, pt)
        if m != 2:
            raise PlaneError("expected a double point at %s, got "
                             "multiplicity %d" % (pt, m))
    phi1, phi2, phi3 = chain_phi1(), chain_phi2(), chain_phi3()
    c1 = cremona_apply(phi1, c_curve)
    c2 = cremona_apply(phi2, c1)
    c3 = cremona_apply(phi3, c2)
    return ChainU12(C=c_curve, C1=c1, C2=c2, C3=c3,
                    maps=(phi1, phi2, phi3),
                    q_multiplicity=mq, q_tangent_cone=cone,
                    double_points=CHAIN_DOUBLE_POINTS,
                    delta=delta, coefficients=coeffs)


# -- conics ----------------------------------------------------------------

@dataclass(frozen=True)
class ConicQ:
    """Ternary conic with rational coefficients in the order
    (w0^2, w0w1, w1^2, w0w2, w1w2, w2^2)."""
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 6:
            raise ValueError("a conic needs six coefficients")
        if not any(self.coeffs):
            raise ValueError("the zero conic is not a conic")

    @classmethod
    def from_curve(cls, curve: PlaneCurve) -> "ConicQ":
        if curve.degree != 2:
            raise PlaneError("curve of degree %d is not a conic"
                             % curve.degree)
        return cls(tuple(curve.poly.coeff(e) for e in _QUADRIC_EXPS))

    def form(self) -> QuadraticForm3:
        # QuadraticForm3 wants (w0^2, w0w1, w0w2, w1^2, w1w2, w2^2)
        c0, c1, c2, c3, c4, c5 = (Fraction(c) for c in self.coeffs)
        return QuadraticForm3((c0, c1, c3, c2, c4, c5))

    def poly(self) -> MultiPoly:
        return MultiPoly(W3, {e: Fraction(c)
                              for e, c in zip(_QUADRIC_EXPS, self.coeffs)
                              if c})

    def value(self, point):
        return self.form().value(tuple(Fraction(x) for x in point))


# -- Hilbert symbols and local solvability --------------------------------

def _vp(q: Fraction, p: int) -> int:
    v = 0
    n = q.numerator
    d = q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _unit_part(q: Fraction, p: int) -> int:
    """q / p^v(q) as an integer mod squares proxy: numerator times
    denominator with the p-part removed."""
    m = q.numerator * q.denominator
    while m % p == 0:
        m //= p
    return m


def hilbert_symbol(a, b, place) -> int:
    """Classical Hilbert symbol (a, b)_v over Q; place is a prime or
    the string "inf"."""
    a, b = Fraction(a), Fraction(b)
    if not a or not b:
        raise ValueError("Hilbert symbol needs nonzero entries")
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    if p == 2:
        alpha, beta = _vp(a, 2), _vp(b, 2)
        u, v = _unit_part(a, 2), _unit_part(b, 2)
        eps_u = (u - 1) // 2
        eps_v = (v - 1) // 2
        omega_u = (u * u - 1) // 8
        omega_v = (v * v - 1) // 8
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    alpha, beta = _vp(a, p), _vp(b, p)
    u, v = _unit_part(a, p), _unit_part(b, p)
    s = 1
    if (alpha * beta * (p - 1) // 2) % 2:
        s = -s
    if beta % 2:
        s *= legendre(u, p)
    if alpha % 2:
        s *= legendre(v, p)
    return s


def _relevant_places(values):
    primes = {2}
    for q in values:
        primes.update(factorize(q.numerator * q.denominator))
    return ["inf"] + sorted(primes)


# largest coordinate tried in point searches
DEFAULT_HEIGHT_BOUND = 10**4


@dataclass(frozen=True)
class ConicPointResult:
    status: str  # "point" | "obstructed" | "undecided"
    point: tuple | None = None
    obstructions: tuple = ()
    height_bound: int = 0
    note: str = ""


def _coord_sequence(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def _conic_point_search(c: ConicQ, height: int):
    a0, a1, a2, a3, a4, a5 = (Fraction(x) for x in c.coeffs)
    for h in range(0, height + 1):
        for x in _coord_sequence(h):
            for y in _coord_sequence(h):
                if max(abs(x), abs(y)) != h:
                    continue
                if not x and not y:
                    continue
                qa = a5
                qb = a3 * x + a4 * y
                qc = a0 * x * x + a1 * x * y + a2 * y * y
                if not qa:
                    if qb:
                        z = Fraction(-qc, qb)
                        return _primitive_point((x, y, z))
                    if not qc:
                        return _primitive_point((x, y, 0))
                    continue
                disc = qb * qb - 4 * qa * qc
                if disc < 0 or not is_square_rat(disc):
                    continue
                r = sqrt_rat(disc)
                for z in (Fraction(-qb + r, 2 * qa),
                          Fraction(-qb - r, 2 * qa)):
                    return _primitive_point((x, y, z))
    return None


def conic_has_point(c: ConicQ,
                    height: int = DEFAULT_HEIGHT_BOUND) -> ConicPointResult:
    """Decide solvability of a rational conic: degenerate conics give
    a point on their singular locus, nondegenerate ones go through
    local Hilbert-symbol tests and then a height-bounded search."""
    form = c.form()
    gram = form.gram()
    rank = mat_rank(gram)
    if rank <= 2:
        kern = nullspace(gram)
        vertex = _primitive_point(kern[0])
        note = "degenerate conic (rank %d): vertex returned" % rank
        if rank == 2:
            # splits into two lines over Q iff -det of the regular
            # 2x2 block is a square; the vertex is rational either way
            note += "; splits over Q iff the block discriminant is a square"
        return ConicPointResult(status="point", point=vertex, note=note)
    for i, e in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        if not form.value(e):
            return ConicPointResult(status="point",
                                    point=_primitive_point(e))
    d0, d1, d2 = diagonalize_pivoted(form).entries
    a = -Fraction(d0, d2)
    b = -Fraction(d1, d2)
    obstructed = []
    for place in _relevant_places([a, b]):
        if hilbert_symbol(a, b, place) == -1:
            obstructed.append(str(place))
    if obstructed:
        return ConicPointResult(status="obstructed",
                                obstructions=tuple(obstructed))
    pt = _conic_point_search(c, height)
    if pt is not None:
        if c.value(pt):
            raise AssertionError("search returned a non-point")
        return ConicPointResult(status="point", point=pt,
                                height_bound=height)
    return ConicPointResult(status="undecided", height_bound=height,
                            note="locally solvable everywhere; no point "
                                 "of height <= %d" % height)


# -- tangent-plane two-section for weights (2,1,1) --------------------------

@dataclass(frozen=True)
class TangentSectionData:
    X4: SurfaceModel
    tangent_plane: MultiPoly
    C4: PlaneCurve
    cremona_image: ConicQ | None
    multiplicities: tuple
    note: str = ""


def tangent_2section_433222(cb: ConicBundle) -> TangentSectionData:
    """Common tangent plane section of the quartic scroll image of a
    (2,1,1) bundle through the two marked points, reduced to a conic
    by the standard Cremona map."""
    if cb.weights.tuple != (2, 1, 1):
        raise PlaneError("tangent section needs weights (2,1,1)")
    if cb.params:
        raise PlaneError("tangent section needs a numeric bundle")
    v = bundle_coefficients(cb)
    for name in ("a0", "a1", "a3", "a4"):
        if v[name]:
            raise PlaneError(
                "tangency precondition failed: coefficient %s of sigma00 "
                "must vanish" % name)
    if not v["b0"]:
        raise PlaneError("tangency precondition failed: leading sigma01 "
                         "coefficient b0 = 0")
    if v["b0"] * v["c3"] - v["c0"] * v["b3"]:
        raise PlaneError(
            "tangency precondition failed: the two tangent planes differ "
            "(b0*c3 - c0*b3 != 0)")
    model = scroll_image(cb)
    zvars = model.poly.vars
    b0, c0 = v["b0"], v["c0"]
    plane = (MultiPoly.variable(zvars, "z2") * b0
             + MultiPoly.variable(zvars, "z3") * c0).primitive_normalized()
    # parametrize the plane so the three expected double points land on
    # the coordinate triangle: e0 -> [0:0:c0:-b0], e1 -> [0:1:0:0],
    # e2 -> [1:0:0:0]
    w0, w1, w2 = (MultiPoly.variable(W3, x) for x in W3)
    c4_poly = model.poly.substitute(
        {"z0": w2, "z1": w1, "z2": w0 * c0, "z3": w0 * (-b0)})
    if c4_poly.is_zero():
        raise PlaneError("tangent plane section is identically zero")
    c4 = PlaneCurve.make(c4_poly)
    mults = []
    for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        m, _ = multiplicity_at(c4.poly, pt)
        mults.append(m)
    note = ""
    image = None
    if any(m >= 3 for m in mults):
        note = ("a triple point: the section splits into two sections "
                "and the bundle is rational")
    else:
        if any(m != 2 for m in mults):
            raise PlaneError(
                "expected double points on the coordinate triangle, got "
                "multiplicities %s" % (tuple(mults),))
        image_curve = cremona_apply(standard_cremona(), c4)
        image = ConicQ.from_curve(image_curve)
    return TangentSectionData(X4=model, tangent_plane=plane, C4=c4,
                              cremona_image=image,
                              multiplicities=tuple(mults), note=note)
