"""Ternary quadratic forms over Q and over Q[t]: exact
diagonalization with a verified congruence certificate, the diagonal
conic model of a bundle's generic fiber, and the degree-8 normal form
that feeds the two-section construction for weights (4,0,0).  The
generic fiber form and its diagonalization live in Q[t]; only the
model's a = -d0/d2 and b = -d1/d2 live in Q(t).

`diagonalize_pivoted` is the one place that picks a variable ordering,
and a shear when no ordering works, for conics over Q and fibers over
Q[t] alike; it returns the basis in the caller's variables.

Coefficient ordering throughout:
alpha0*y0^2 + alpha1*y0*y1 + alpha2*y0*y2 + alpha3*y1^2
+ alpha4*y1*y2 + alpha5*y2^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add

from .bundles import (
    PAIR_INDEX,
    PAIRS,
    BundleError,
    ConicBundle,
    dehomogenize,
    discriminant_form,
    half_gram_det,
)
from .exactmath import MultiPoly, RatFunc, is_square_rat, sqrt_rat

HALF = Fraction(1, 2)


class DegeneratePivot(ValueError):
    pass


class MestreError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticForm3:
    alpha: tuple

    def __post_init__(self):
        if len(self.alpha) != 6:
            raise ValueError("a ternary quadratic form has six coefficients")
        if not any(bool(a) for a in self.alpha):
            raise ValueError("the zero form is not a quadratic form")

    def gram(self):
        """Symmetric matrix G with form(v) = v^T G v; off-diagonal
        entries carry the 1/2."""
        a0, a1, a2, a3, a4, a5 = self.alpha
        h1, h2, h4 = a1 * HALF, a2 * HALF, a4 * HALF
        return [[a0, h1, h2], [h1, a3, h4], [h2, h4, a5]]

    def double_gram(self):
        """2G, integral for integral coefficients."""
        a0, a1, a2, a3, a4, a5 = self.alpha
        return [
            [a0 * 2, a1, a2],
            [a1, a3 * 2, a4],
            [a2, a4, a5 * 2],
        ]

    def value(self, v):
        a0, a1, a2, a3, a4, a5 = self.alpha
        y0, y1, y2 = v
        return (a0 * y0 * y0 + a1 * y0 * y1 + a2 * y0 * y2
                + a3 * y1 * y1 + a4 * y1 * y2 + a5 * y2 * y2)

    def bilinear(self, u, v):
        g = self.gram()
        acc = None
        for r in range(3):
            for s in range(3):
                term = u[r] * g[r][s] * v[s]
                acc = term if acc is None else acc + term
        return acc

    def discriminant(self):
        """Half-Gram determinant; for diagonal forms the product of
        the diagonal entries."""
        return half_gram_det(*self.alpha)

    def congruent(self, cols) -> "QuadraticForm3":
        """The form in new variables z with y = M z, where column k of
        M has ones at the indices cols[k] and zeros elsewhere: one index
        per column is a permutation, cols[j] = (i, j) the shear
        y_i -> y_i + y_j.  Coefficients are only added, so a
        permutation costs no ring arithmetic."""
        a = self.alpha

        def coeff(r, s):
            return a[PAIR_INDEX[min(r, s), max(r, s)]]

        out = []
        for k, l in PAIRS:
            terms = [coeff(r, s) for r in cols[k] for s in cols[l]
                     if k != l or r <= s]
            if k != l:
                # y_r^2 meets both columns: it counts twice in z_k*z_l
                terms += [coeff(r, r) for r in cols[k] if r in cols[l]]
            out.append(reduce(add, terms))
        return QuadraticForm3(tuple(out))


@dataclass(frozen=True)
class DiagonalForm:
    """B^T G B = diag(entries) for the basis B of three columns.  pivot
    is the variable ordering used and shear the (i, j) of a substitution
    y_i -> y_i + y_j made before it, or None."""
    entries: tuple
    basis: tuple
    pivot: tuple
    shear: tuple | None


def diagonalize(q: QuadraticForm3) -> DiagonalForm:
    """Exact orthogonal basis for a form with invertible upper-left
    2x2 block.  The entries are (a0, a0*n, 4*n*disc) with
    n = 4*a0*a3 - a1^2; the congruence B^T G B = diag is re-verified
    before returning, as B^T (2G) B = 2 diag, which stays integral."""
    a0, a1, a2, a3, a4, a5 = q.alpha
    if not a0:
        raise DegeneratePivot("degenerate pivot: the y0^2 coefficient is zero")
    n = a0 * a3 * 4 - a1 * a1
    if not n:
        raise DegeneratePivot(
            "degenerate pivot: the upper-left 2x2 block is singular "
            "(alpha1^2 - 4*alpha0*alpha3 = 0)")
    disc = q.discriminant()
    d0 = a0
    d1 = a0 * n
    d2 = n * disc * 4
    e1 = (a0 - a0 + 1, a0 - a0, a0 - a0)  # (1, 0, 0) in the right ring
    # first entry carries a minus sign: forced by orthogonality to e1
    e2 = (-a1, a0 * 2, a0 - a0)
    e3 = (a1 * a4 - a2 * a3 * 2, a1 * a2 - a0 * a4 * 2, n)
    basis = (e1, e2, e3)
    entries = (d0, d1, d2)
    # B^T (2G) B is symmetric because G is: form 2G*B once, then check
    # the entries on and above the diagonal
    g = q.double_gram()
    gb = [[g[r][0] * col[0] + g[r][1] * col[1] + g[r][2] * col[2]
           for r in range(3)] for col in basis]
    for i in range(3):
        for j in range(i, 3):
            got = (basis[i][0] * gb[j][0] + basis[i][1] * gb[j][1]
                   + basis[i][2] * gb[j][2])
            if i == j:
                if got != entries[i] * 2:
                    raise AssertionError(
                        "congruence check failed on diagonal entry %d" % i)
            elif bool(got):
                raise AssertionError(
                    "congruence check failed: basis not orthogonal (%d,%d)"
                    % (i, j))
    return DiagonalForm(entries, basis, (0, 1, 2), None)


# -- the diagonal conic model of the generic fiber ---------------------

PIVOT_ORDER = tuple(permutations((0, 1, 2)))


def diagonalize_pivoted(q: QuadraticForm3) -> DiagonalForm:
    """q diagonalized with its basis in q's own variables y0, y1, y2.
    The first ordering in PIVOT_ORDER whose pivots are invertible and
    whose third entry is nonzero is used.  When all six fail, the form
    is sheared once, y_i -> y_i + y_j at its first nonzero cross term,
    and the six are tried again.  One shear suffices for a
    nondegenerate form, so DegeneratePivot means rank <= 2: all six
    fail only if every principal 2x2 minor vanishes with the diagonal
    nonzero, and then the sheared (j, k) minor is 4*G_kk*G_ij, or if
    G_ii = G_jj = 0, and then the shear gives G_jj = 2*G_ij and the
    (j, i) minor -G_ij^2."""
    # the cross terms y_i*y_j that are nonzero, as (i, j)
    cross = [(i, j) for k, i, j in ((1, 0, 1), (2, 0, 2), (4, 1, 2))
             if q.alpha[k]]
    for shear in [None] + cross[:1]:
        cols = [(0,), (1,), (2,)]
        if shear is not None:
            cols[shear[1]] = shear
        for perm in PIVOT_ORDER:
            m = tuple(cols[p] for p in perm)
            try:
                diag = diagonalize(q.congruent(m))
                if not bool(diag.entries[2]):
                    raise DegeneratePivot(
                        "degenerate pivot: third diagonal entry vanishes")
            except DegeneratePivot as exc:
                # a failure reports the last reason without the shear
                last_err = exc if shear is None else last_err
                continue
            # y = M z: row r of M has ones at the k with r in m[k]
            basis = tuple(
                tuple(reduce(add, [col[k] for k in range(3) if r in m[k]])
                      for r in range(3))
                for col in diag.basis)
            return DiagonalForm(diag.entries, basis, perm, shear)
    raise DegeneratePivot(
        "every variable ordering hits a degenerate pivot (%s)" % last_err)


@dataclass(frozen=True)
class BrauerPair:
    a: RatFunc
    b: RatFunc
    pivot: tuple = (0, 1, 2)
    shear: tuple | None = None


def generic_fiber_form(cb: ConicBundle) -> QuadraticForm3:
    """Fiber form over the base: coefficients are the dehomogenized
    sigma forms, polynomials in t (MultiPolys).  The form and its
    diagonalization live in Q[t]; only the ratios a, b of brauer_model
    need Q(t)."""
    return QuadraticForm3(tuple(dehomogenize(s, cb.params)
                                for s in cb.sigma))


def brauer_model(cb: ConicBundle) -> BrauerPair:
    """Diagonal conic a*x^2 + b*y^2 - z^2 = 0 isomorphic over Q(t) to
    the generic fiber of a numeric bundle: a = -d0/d2, b = -d1/d2 from
    the diagonalized fiber form, reduced fractions in t.  The pivot
    ordering and shear of `diagonalize_pivoted` are recorded in the
    result.  A parametric bundle raises BundleError."""
    if cb.params:
        raise BundleError("the diagonal model needs a numeric bundle; "
                          "fix the parameters first")
    if cb.has_flag("degenerate-discriminant"):
        raise BundleError("generic fiber is degenerate (discriminant is zero)")
    q = generic_fiber_form(cb)
    al = q.alpha
    if not any(al[k] for k in (1, 2, 4)) and all(al[k] for k in (0, 3, 5)):
        # already diagonal: use the entries as they stand
        pivot, shear, (d0, d1, d2) = (0, 1, 2), None, (al[0], al[3], al[5])
    else:
        diag = diagonalize_pivoted(q)
        pivot, shear, (d0, d1, d2) = diag.pivot, diag.shear, diag.entries
    return BrauerPair(a=-RatFunc(d0, d2), b=-RatFunc(d1, d2),
                      pivot=pivot, shear=shear)


# -- degree-8 normal form for weights (4, 0, 0) -------------------------

@dataclass(frozen=True)
class MestreModel:
    T: MultiPoly
    c: Fraction
    shift: Fraction
    xi: Fraction
    B: Fraction
    A: Fraction
    P: MultiPoly


@dataclass(frozen=True)
class MestreFailure:
    reason: str
    B: Fraction


def mestre_normal_form(cb: ConicBundle):
    """The monic degree-8 model T(u) = P(shift - u)/B with no u^7 term,
    where P = -4*delta/sigma22 has leading coefficient B and next
    coefficient A and shift = -A/(8B), plus the conic scalar
    c = 1/((sigma12^2 - 4*sigma11*sigma22) * B).  Needs 1/B to be a
    rational square; otherwise reports the failure."""
    if cb.params:
        raise MestreError("normal form needs a numeric bundle; "
                          "fix the parameters first")
    if cb.weights.tuple != (4, 0, 0):
        raise MestreError("normal form needs weights (4,0,0), got %s"
                          % cb.weights)
    # sigma11, sigma12 and sigma22 are constants for weights (4,0,0)
    c0, c1, c2 = (cb.s(i, j).constant_value()
                  for i, j in ((1, 1), (1, 2), (2, 2)))
    if not c2:
        raise MestreError("degenerate pivot: sigma22 = 0")
    disc0 = c1 * c1 - c0 * c2 * 4
    if not disc0:
        raise MestreError(
            "degenerate pivot: sigma12^2 - 4*sigma11*sigma22 = 0")
    P = dehomogenize(discriminant_form(cb)) * Fraction(-4, c2)
    B, A = P.coeff((8,)), P.coeff((7,))
    if not B:
        raise MestreError("precondition failed: deg P < 8 "
                          "(leading coefficient vanishes)")
    shift = -Fraction(A, B * 8)
    u = MultiPoly.variable(("u",), "u")
    T = P.substitute({"t": shift - u}) * Fraction(1, B)
    if T.coeff((8,)) != 1:
        raise AssertionError("T failed to come out monic")
    if T.coeff((7,)):
        raise AssertionError("u^7 coefficient failed to vanish")
    inv_b = Fraction(1, B)
    if not is_square_rat(inv_b):
        return MestreFailure(
            reason="hypotheses fail: leading coefficient not a square "
                   "(1/B = %s)" % inv_b, B=B)
    return MestreModel(T=T, c=Fraction(1, disc0 * B), shift=shift,
                       xi=sqrt_rat(inv_b), B=B, A=A, P=P)
