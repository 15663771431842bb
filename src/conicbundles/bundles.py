"""Conic bundles over the projective line.

A bundle is given by three line-bundle twists (a0, a1, a2) and six
binary forms sigma_ij; the total space is the zero locus of
sum sigma_ij(x0, x1) * yi * yj inside the ambient projectivized
split bundle.  The form sigma_ij must be homogeneous of degree
a_i + a_j + m for one common shift m; the normalized models used
everywhere downstream have m = 0 (even diagonal degrees) or m = 1
(odd diagonal degrees).

Affine convention, used by every residue computation: coefficient k of
sigma_ij multiplies x0^(d-k) x1^k, the affine chart sets x1 = 1 with
parameter t = x0, and the point at infinity is [1:0].
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor

from .exactmath import MultiPoly, is_squarefree, parse_poly
from .exactmath.univariate import as_univariate

PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}
SIGMA_NAMES = tuple("sigma%d%d" % p for p in PAIRS)


class BundleError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Weights:
    a0: int
    a1: int
    a2: int

    def __post_init__(self):
        if not (self.a0 >= self.a1 >= self.a2 >= 0):
            raise BundleError(
                "weights must be non-negative and non-increasing, got %s"
                % (self.tuple,))

    @property
    def tuple(self):
        return (self.a0, self.a1, self.a2)

    def __getitem__(self, i: int) -> int:
        return self.tuple[i]

    def shifted(self, c: int) -> "Weights":
        return Weights(self.a0 + c, self.a1 + c, self.a2 + c)

    def __str__(self):
        return "(%d,%d,%d)" % self.tuple


@dataclass(frozen=True)
class Multidegree:
    d00: int
    d01: int
    d02: int
    d11: int
    d12: int
    d22: int

    @classmethod
    def from_weights(cls, w: Weights, m: int = 0) -> "Multidegree":
        a = w.tuple
        return cls(*(a[i] + a[j] + m for i, j in PAIRS))

    @property
    def tuple(self):
        return (self.d00, self.d01, self.d02, self.d11, self.d12, self.d22)

    @property
    def diagonal(self):
        return (self.d00, self.d11, self.d22)

    @property
    def total(self) -> int:
        return self.d00 + self.d11 + self.d22

    def __str__(self):
        return "(%s)" % ",".join(str(d) for d in self.tuple)


@dataclass(frozen=True)
class ConicBundle:
    weights: Weights
    sigma: tuple
    params: tuple = ()
    flags: tuple = ()

    def s(self, i: int, j: int) -> MultiPoly:
        if i > j:
            i, j = j, i
        return self.sigma[PAIR_INDEX[(i, j)]]

    @property
    def variables(self):
        return ("x0", "x1") + self.params

    def multidegree(self) -> Multidegree:
        m = self.shift()
        return Multidegree.from_weights(self.weights, m)

    def shift(self) -> int:
        """The common value of deg sigma_ij - a_i - a_j (0 for all-zero
        input)."""
        a = self.weights.tuple
        votes = {}
        for (i, j), s in zip(PAIRS, self.sigma):
            d = xpart_degree(s)
            if d is None:
                continue
            votes[d - a[i] - a[j]] = votes.get(d - a[i] - a[j], 0) + 1
        if not votes:
            return 0
        best = max(votes.values())
        return min(m for m, v in votes.items() if v == best)

    def has_flag(self, name: str) -> bool:
        return name in self.flags


def xpart_degree(p: MultiPoly):
    """Degree of a form in the x0, x1 part only; None for the zero
    polynomial and for one that is not x-homogeneous."""
    if p.is_zero():
        return None
    i0 = p.vars.index("x0")
    i1 = p.vars.index("x1")
    degs = {e[i0] + e[i1] for e in p.terms}
    return degs.pop() if len(degs) == 1 else None


def make_bundle(weights, sigma_texts, params=()) -> ConicBundle:
    """Build an unvalidated bundle from polynomial sources (strings or
    MultiPoly) in canonical order sigma00, sigma01, sigma02, sigma11,
    sigma12, sigma22."""
    w = weights if isinstance(weights, Weights) else Weights(*weights)
    params = tuple(params)
    variables = ("x0", "x1") + params
    polys = []
    for src in sigma_texts:
        if isinstance(src, MultiPoly):
            polys.append(src.align(variables))
        else:
            polys.append(parse_poly(src, variables))
    if len(polys) != 6:
        raise BundleError("expected six coefficient forms, got %d" % len(polys))
    return ConicBundle(weights=w, sigma=tuple(polys), params=params)


def validate_bundle(cb: ConicBundle) -> ConicBundle:
    """Check x-homogeneity and the degree chain deg sigma_ij =
    a_i + a_j + m; re-twist so m becomes 0 (even case) or 1 (odd),
    shifting the weights; flag zero diagonal entries
    (rational-by-section) and an identically zero discriminant."""
    for name, s in zip(SIGMA_NAMES, cb.sigma):
        if not s.is_zero() and xpart_degree(s) is None:
            raise BundleError("%s is not homogeneous in x0, x1" % name)
    a = cb.weights.tuple
    m = cb.shift()
    for name, (i, j), s in zip(SIGMA_NAMES, PAIRS, cb.sigma):
        d = xpart_degree(s)
        if d is not None and d != a[i] + a[j] + m:
            raise BundleError(
                "degree mismatch in %s: degree %d, expected %d + m with m = %d"
                % (name, d, a[i] + a[j], m))
    c = m // 2 if m % 2 == 0 else (m - 1) // 2
    try:
        w = cb.weights.shifted(c)
    except BundleError:
        raise BundleError(
            "normalizing the degree shift m = %d makes a weight negative" % m)
    flags = set(cb.flags)
    for (i, j), s in zip(PAIRS, cb.sigma):
        if i == j and s.is_zero():
            flags.add("rational-by-section")
    if discriminant_form(cb).is_zero():
        flags.add("degenerate-discriminant")
    return replace(cb, weights=w, flags=tuple(sorted(flags)))


def half_gram_det(a0, a1, a2, a3, a4, a5):
    """Determinant of the Gram matrix of a0*y0^2 + a1*y0*y1 + a2*y0*y2
    + a3*y1^2 + a4*y1*y2 + a5*y2^2 (cross terms halved): a0*a3*a5 for
    a diagonal form.  It is computed as 4 * det, integral for integral
    coefficients, and scaled by 1/4 once."""
    det4 = (a0 * (a3 * a5 * 4 - a4 * a4) - a1 * (a1 * a5 - a2 * a4)
            - a2 * a2 * a3)
    return det4 * Fraction(1, 4)


def discriminant_form(cb: ConicBundle) -> MultiPoly:
    """Half-Gram determinant of the fiber form: for a diagonal bundle
    this is sigma00*sigma11*sigma22."""
    return half_gram_det(*cb.sigma)


@dataclass(frozen=True)
class DiscriminantData:
    delta_homogeneous: MultiPoly
    delta_affine: MultiPoly
    degree: int
    expected_degree: int
    degenerate: bool


def discriminant(cb: ConicBundle) -> DiscriminantData:
    md = cb.multidegree()
    hom = discriminant_form(cb)
    aff = dehomogenize(hom, cb.params)
    deg = xpart_degree(hom)
    return DiscriminantData(
        delta_homogeneous=hom,
        delta_affine=aff,
        degree=-1 if deg is None else deg,
        expected_degree=md.total,
        degenerate=hom.is_zero(),
    )


def dehomogenize(p: MultiPoly, params=()) -> MultiPoly:
    """Substitute x0 = t, x1 = 1."""
    target = ("t",) + tuple(params)
    out = MultiPoly.zero(target)
    if p.is_zero():
        return out
    i0 = p.vars.index("x0")
    i1 = p.vars.index("x1")
    rest = [k for k, v in enumerate(p.vars) if v not in ("x0", "x1")]
    names = [p.vars[k] for k in rest]
    terms = {}
    for e, c in p.terms.items():
        key = [0] * len(target)
        key[0] = e[i0]
        for k, nm in zip(rest, names):
            key[target.index(nm)] = e[k]
        key = tuple(key)
        terms[key] = terms.get(key, 0) + c
    return MultiPoly(target, terms)


def instantiate(cb: ConicBundle, values: dict) -> ConicBundle:
    """Fix every symbolic parameter to a rational value and revalidate."""
    missing = [p for p in cb.params if p not in values]
    if missing:
        raise BundleError("no value given for parameter(s) %s"
                          % ", ".join(missing))
    sigma = []
    mapping = {p: Fraction(values[p]) for p in cb.params}
    for s in cb.sigma:
        t = s.substitute(mapping) if cb.params else s
        sigma.append(t.drop_unused(("x0", "x1")).align(("x0", "x1")))
    return validate_bundle(ConicBundle(weights=cb.weights,
                                       sigma=tuple(sigma)))


def bundle_equation(cb: ConicBundle) -> MultiPoly:
    """sum sigma_ij yi yj as one polynomial in x0, x1, y0, y1, y2 and
    any parameters."""
    variables = ("x0", "x1", "y0", "y1", "y2") + cb.params
    acc = MultiPoly.zero(variables)
    for (i, j), s in zip(PAIRS, cb.sigma):
        yi = MultiPoly.variable(variables, "y%d" % i)
        yj = MultiPoly.variable(variables, "y%d" % j)
        acc = acc + s.align(variables) * yi * yj
    return acc


# -- enumeration of multidegrees --------------------------------------

def alcuin_count(n: int) -> int:
    """Number of solutions of 2a + 3b + 4c = n in non-negative
    integers, by exact series expansion of the generating product."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for step in (2, 3, 4):
        for k in range(step, n + 1):
            coeffs[k] += coeffs[k - step]
    return coeffs[n]


def alcuin_count_closed(n: int) -> int:
    """Rounded closed form; the round-to-nearest argument applies to
    the triangle count with perimeter n + 3."""
    if n < 0:
        raise ValueError("n must be non-negative")
    p = n + 3
    nearest = floor(Fraction(p * p, 12) + Fraction(1, 2))
    return nearest - (p // 4) * ((p + 2) // 4)


def multidegrees_for_discriminant(n: int):
    """All normalized (weights, multidegree) pairs whose discriminant
    degree d00 + d11 + d22 equals n, diagonal lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = []
    for d00 in range(n + 1):
        for d11 in range(d00 + 1):
            d22 = n - d00 - d11
            if d22 < 0 or d22 > d11:
                continue
            par = {d00 % 2, d11 % 2, d22 % 2}
            if len(par) != 1:
                continue
            m = d00 % 2
            w = Weights((d00 - m) // 2, (d11 - m) // 2, (d22 - m) // 2)
            out.append((w, Multidegree.from_weights(w, m)))
    out.sort(key=lambda wm: wm[1].diagonal)
    return out


# -- bundle files ------------------------------------------------------

def parse_bundle_text(text: str) -> ConicBundle:
    """Line-oriented source: 'weights = a0 a1 a2', six 'sigmaIJ = ...'
    lines, '#' comments, optional 'params = n1 n2 ...'."""
    weights = None
    params: tuple = ()
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BundleError("line %d: expected 'name = value'" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "weights":
            parts = value.split()
            if len(parts) != 3 or not all(re.fullmatch(r"-?\d+", p) for p in parts):
                raise BundleError("line %d: weights need three integers" % lineno)
            weights = Weights(*(int(p) for p in parts))
        elif key == "params":
            params = tuple(value.split())
            for p in params:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", p):
                    raise BundleError("line %d: bad parameter name %r" % (lineno, p))
        elif key in SIGMA_NAMES:
            if key in raw:
                raise BundleError("line %d: duplicate %s" % (lineno, key))
            raw[key] = (lineno, value)
        else:
            raise BundleError("line %d: unknown key %r" % (lineno, key))
    if weights is None:
        raise BundleError("missing 'weights =' line")
    missing = [n for n in SIGMA_NAMES if n not in raw]
    if missing:
        raise BundleError("missing lines: %s" % ", ".join(missing))
    variables = ("x0", "x1") + params
    polys = []
    for name in SIGMA_NAMES:
        lineno, src = raw[name]
        try:
            polys.append(parse_poly(src, variables))
        except Exception as exc:
            raise BundleError("line %d (%s): %s" % (lineno, name, exc))
    return ConicBundle(weights=weights, sigma=tuple(polys), params=params)


def load_bundle(path) -> ConicBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bundle_text(fh.read())


def bundle_to_text(cb: ConicBundle) -> str:
    lines = ["weights = %d %d %d" % cb.weights.tuple]
    if cb.params:
        lines.append("params = %s" % " ".join(cb.params))
    for name, s in zip(SIGMA_NAMES, cb.sigma):
        lines.append("%s = %s" % (name, s))
    return "\n".join(lines) + "\n"


# -- random members ----------------------------------------------------

# draws a seeded sampler makes before it gives up
MAX_DRAWS = 400


def seeded_draw(key, draw, what: str, exception=BundleError):
    """The first value other than None that draw(rng) returns, with one
    random.Random(key) feeding at most MAX_DRAWS draws."""
    rng = random.Random(key)
    for _ in range(MAX_DRAWS):
        out = draw(rng)
        if out is not None:
            return out
    raise exception("no admissible %s after %d draws" % (what, MAX_DRAWS))


def admissible(cb: ConicBundle) -> bool:
    """Whether the affine discriminant has full degree 2*(a0 + a1 + a2)
    and is square-free: the test every seeded member passes."""
    _, cs = as_univariate(dehomogenize(discriminant_form(cb)), "t")
    return len(cs) - 1 == 2 * sum(cb.weights.tuple) and is_squarefree(cs)


def random_bundle(weights, seed: int, lo: int = -9,
                  hi: int = 9) -> ConicBundle:
    """Seeded integer-coefficient member of the family of the given
    weights (m = 0), rejection-sampled until it is admissible."""
    w = weights if isinstance(weights, Weights) else Weights(*weights)
    a = w.tuple
    variables = ("x0", "x1")

    def draw(rng):
        sigma = []
        for (i, j) in PAIRS:
            d = a[i] + a[j]
            coeffs = {}
            for k in range(d + 1):
                c = rng.randint(lo, hi)
                if c:
                    coeffs[(d - k, k)] = Fraction(c)
            sigma.append(MultiPoly(variables, coeffs))
        cb = ConicBundle(weights=w, sigma=tuple(sigma))
        return validate_bundle(cb) if admissible(cb) else None

    return seeded_draw(seed, draw, "member of %s (seed %d)" % (w, seed))
