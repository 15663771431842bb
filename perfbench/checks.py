"""Independent checks of the program's outputs.

Everything here is computed with sympy from the input text or from how
the input was built, never from the program's own code or from stored
output.  Each check returns a list of error strings; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import re
from itertools import permutations
from math import gcd

import sympy

T, S = sympy.symbols("t s")
X0, X1 = sympy.symbols("x0 x1")
W = sympy.symbols("w0 w1 w2")
PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
CERT_RE = re.compile(
    r"^place=(\S+) residue=(\S+) prime=(\d+) root=(\S+)$")


def sym(text: str, names=()):
    """Parse the program's polynomial grammar ('^' for powers)."""
    local = {n: sympy.Symbol(n) for n in names}
    return sympy.sympify(text.replace("^", "**"), locals=local,
                         rational=True)


# -- bundles -------------------------------------------------------------------

class Bundle:
    """A numeric bundle read from `.cb` text with sympy: weights, the
    affine fiber form alpha (t = x0, x1 = 1) and its half-Gram
    determinant."""

    def __init__(self, text: str):
        sigma = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "weights":
                self.weights = tuple(int(x) for x in value.split())
            elif key.startswith("sigma"):
                sigma[(int(key[5]), int(key[6]))] = sym(value, ("x0", "x1"))
        self.alpha = [sympy.expand(sigma[p].subs({X0: T, X1: 1}))
                      for p in PAIRS]
        self.gram = self._gram(self.alpha)
        self.delta = sympy.expand(self.gram.det())

    @staticmethod
    def _gram(alpha):
        a0, a1, a2, a3, a4, a5 = alpha
        h = sympy.Rational(1, 2)
        return sympy.Matrix([[a0, h * a1, h * a2],
                             [h * a1, a3, h * a4],
                             [h * a2, h * a4, a5]])

    def pivoted(self, perm):
        """alpha0, alpha1, alpha3 of the form in the variables
        y_perm[0], y_perm[1], y_perm[2]."""
        g = self.gram
        return (g[perm[0], perm[0]], 2 * g[perm[0], perm[1]],
                g[perm[1], perm[1]])

    def square_pair(self, perm):
        """(-alpha0 n Delta, -alpha0 Delta), n = 4 alpha0 alpha3 - alpha1^2:
        the square classes of the diagonal model after pivot perm."""
        a0, a1, a3 = self.pivoted(perm)
        n = sympy.expand(4 * a0 * a3 - a1 ** 2)
        return (sympy.expand(-a0 * n * self.delta),
                sympy.expand(-a0 * self.delta))

    def first_pivot(self):
        for perm in permutations((0, 1, 2)):
            a0, a1, a3 = self.pivoted(perm)
            if a0 != 0 and sympy.expand(4 * a0 * a3 - a1 ** 2) != 0:
                return perm
        raise ValueError("no pivot with an invertible 2x2 block")

    def split_data(self):
        """(roots, -sigma11/sigma22) when the form is diagonal, sigma11
        and sigma22 are constants and sigma00 splits into rational
        linear factors; otherwise None."""
        a = self.alpha
        if any(a[k] != 0 for k in (1, 2, 4)):
            return None
        if not (a[3].is_Number and a[5].is_Number):
            return None
        _, factors = sympy.factor_list(a[0], T)
        if any(sympy.degree(f, T) != 1 or e != 1 for f, e in factors):
            return None
        roots = [sympy.solve(f, T)[0] for f, _ in factors]
        return roots, -a[3] / a[5]


# -- residues with sympy ---------------------------------------------------------

def _qpoly(expr, var=T):
    return sympy.Poly(expr, var, domain="QQ")


def _strip(poly, f):
    v = 0
    while True:
        q, r = poly.div(f)
        if not r.is_zero:
            return v, poly
        poly, v = q, v + 1


def residue(a, b, place):
    """Residue of the class (a, b) of rational functions in t at a place
    (a sympy expression f(t), or the string 'inf'), as an element of
    Q[t]/(f) given by a polynomial of degree < deg f (a rational at a
    linear place or at infinity)."""
    var = T
    if place == "inf":
        a = sympy.cancel(a.subs(T, 1 / S))
        b = sympy.cancel(b.subs(T, 1 / S))
        var, f = S, _qpoly(S, S)
    else:
        f = _qpoly(place).monic()
    parts = []
    for x in (a, b):
        num, den = sympy.fraction(sympy.cancel(sympy.together(x)))
        vn, un = _strip(_qpoly(num, var), f)
        vd, ud = _strip(_qpoly(den, var), f)
        parts.append((vn - vd, un, ud))
    (va, na, da), (vb, nb, db) = parts
    top, bottom = _qpoly(1, var), _qpoly(1, var)
    for poly, e in ((na, vb), (da, -vb), (db, va), (nb, -va)):
        if e > 0:
            top = top * poly ** e
        elif e < 0:
            bottom = bottom * poly ** (-e)
    value = (top * bottom.invert(f)).rem(f)
    if (va * vb) % 2:
        value = -value
    return value


def _mod_p(c, p):
    c = sympy.Rational(c)
    if c.q % p == 0:
        return None
    return int(c.p) * pow(int(c.q), -1, p) % p


def value_at(poly, root, p):
    """poly(root) mod p, or None when a coefficient is not p-integral."""
    acc = 0
    for c in poly.all_coeffs():
        cp = _mod_p(c, p)
        if cp is None:
            return None
        acc = (acc * root + cp) % p
    return acc


def euler(value: int, p: int) -> int:
    return pow(value % p, (p - 1) // 2, p)


def _is_rational_square(q) -> bool:
    q = sympy.Rational(q)
    return q > 0 and sympy.sqrt(q).is_Rational


def is_square_rf(expr) -> bool:
    """True when a nonzero rational function in t is a square in Q(t)."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    lead = sympy.Rational(1)
    for part, sign in ((num, 1), (den, -1)):
        c, factors = sympy.sqf_list(sympy.Poly(part, T, domain="QQ"))
        if any(e % 2 for _, e in factors):
            return False
        lead *= sympy.Rational(c) ** sign
    return _is_rational_square(lead)


# -- certificate checks ----------------------------------------------------------

def parse_certificate(line: str):
    m = CERT_RE.match(line or "")
    if not m:
        return None
    place, value, prime, root = m.groups()
    return {"place": place, "residue": value, "prime": int(prime),
            "root": None if root == "-" else int(root)}


def check_certificate(bundle: Bundle, cert: dict, pair=None) -> list:
    """The certificate's place divides Delta (or is infinity); its
    witness holds; its residue has the class computed again here from
    the model pair (a, b), or from (-alpha0 n Delta, -alpha0 Delta) at
    the first pivot when no pair was printed."""
    errors = []
    p = cert["prime"]
    place = cert["place"]
    if not sympy.isprime(p):
        errors.append("witness %d is not prime" % p)
        return errors
    if place == "inf":
        f = None
    else:
        f = _qpoly(sym(place, ("t",)))
        if f.degree() < 1:
            return errors + ["place %s is not a polynomial in t" % place]
        if not _qpoly(bundle.delta).rem(f).is_zero:
            errors.append("place %s does not divide Delta" % place)
    value = _qpoly(sym(cert["residue"], ("t",)))
    rational = f is None or f.degree() == 1
    if rational:
        if value.degree() > 0:
            return errors + ["residue at a rational place is not rational"]
        q = sympy.Rational(value.LC())
        m = int(q.p) * int(q.q)
        if m % p == 0 or euler(m, p) != p - 1:
            errors.append("Euler's criterion fails for %s mod %d" % (q, p))
        root = None
    else:
        root = cert["root"]
        _, fint = f.clear_denoms(convert=True)
        fint = fint.primitive()[1]
        lc = int(fint.LC())
        disc = int(sympy.discriminant(fint.as_expr(), T))
        if root is None or not 0 <= root < p:
            errors.append("no root mod %d for place %s" % (p, place))
            return errors
        if lc % p == 0 or disc % p == 0:
            errors.append("%d divides the leading coefficient or the "
                          "discriminant of the place" % p)
        if value_at(fint, root, p) != 0:
            errors.append("%d is not a root of the place mod %d" % (root, p))
        v = value_at(value, root, p)
        if v is None or v == 0 or euler(v, p) != p - 1:
            errors.append("residue at %d mod %d is not a non-residue"
                          % (root, p))
    if errors:
        return errors
    if pair is None:
        pair = bundle.square_pair(bundle.first_pivot())
    mine = residue(pair[0], pair[1], place if f is None else f.as_expr())
    if rational:
        r = sympy.Rational(mine.LC()) if not mine.is_zero else 0
        if not r or not _is_rational_square(r * sympy.Rational(value.LC())):
            errors.append("residue %s is not in the class %s computed "
                          "from (a, b)" % (cert["residue"], r))
    else:
        v = _unit_at(mine, root, p)
        if v is None or euler(v, p) != p - 1:
            errors.append("residue from (a, b) is not a non-residue at "
                          "%d mod %d" % (root, p))
    return errors


def _unit_at(poly, root, p):
    """poly(root) mod p after dividing the rational content by the even
    part of its power of p (a square), or None if that is not a unit."""
    if poly.is_zero:
        return None
    content = sympy.Rational(poly.content())
    v = sympy.multiplicity(p, content.p) - sympy.multiplicity(p, content.q)
    return value_at(poly * sympy.Rational(p) ** (-2 * (v // 2)), root, p) \
        or None


def check_split(bundle: Bundle, place: str, value: str) -> list:
    """On a split diagonal bundle the residue at each root r is the
    class of -sigma11/sigma22."""
    data = bundle.split_data()
    if data is None:
        return []
    roots, cls = data
    f = sym(place, ("t",)) if place != "inf" else None
    if f is None or sympy.degree(f, T) != 1:
        return ["split bundle: place %s is not a root" % place]
    r = sympy.solve(f, T)[0]
    if r not in roots:
        return ["split bundle: %s is not one of the roots" % r]
    q = sym(value)
    if not _is_rational_square(q * cls):
        return ["split bundle: residue %s at %s is not in the class of %s"
                % (value, r, cls)]
    return []


def check_cert_op(inp: dict, line) -> list:
    bundle = Bundle(inp["text"])
    cert = parse_certificate(line)
    if cert is None:
        return ["no certificate: %r" % (line,)]
    errors = check_certificate(bundle, cert)
    if inp["kind"] == "split":
        errors += check_split(bundle, cert["place"], cert["residue"])
        if sorted(bundle.split_data()[0]) != sorted(inp["roots"]):
            errors.append("split bundle does not have its drawn roots")
    return errors


def check_inconclusive(inp: dict, prime_bound: int = 300) -> list:
    """No certificate was printed.  That is wrong on a split bundle, and
    wrong when a witness shows up here: a prime p <= prime_bound and a
    root r of an irreducible factor f of Delta mod p at which the residue
    of (-alpha0 n Delta, -alpha0 Delta) is a unit non-residue."""
    if inp["kind"] == "split":
        return ["no certificate on a split bundle"]
    bundle = Bundle(inp["text"])
    pair = bundle.square_pair(bundle.first_pivot())
    _, factors = sympy.factor_list(bundle.delta, T)
    for f, _ in factors:
        if sympy.degree(f, T) < 1:
            continue
        value = residue(pair[0], pair[1], f)
        fint = sympy.Poly(f, T).primitive()[1]
        bad = int(fint.LC()) * int(sympy.discriminant(fint.as_expr(), T))
        for p in sympy.primerange(3, prime_bound + 1):
            if bad % p == 0:
                continue
            for r in range(p):
                if value_at(fint, r, p) != 0:
                    continue
                v = _unit_at(value, r, p)
                if v is not None and euler(v, p) == p - 1:
                    return ["no certificate, but the residue at %s is a "
                            "non-residue at %d mod %d" % (f, r, p)]
    return []


def check_residues_op(text: str, code: int, out: str) -> list:
    """A residues payload: exit 0 with a certificate that passes
    check_certificate against the printed (a, b); (a, b) in the square
    classes of (-alpha0 n Delta, -alpha0 Delta) after the printed pivot;
    on split bundles every root has the class of -sigma11/sigma22."""
    if code != 0:
        return ["residues exited with %s" % code]
    payload = json.loads(out)
    bundle = Bundle(text)
    a, b = sym(payload["a"], ("t",)), sym(payload["b"], ("t",))
    perm = tuple(payload["pivot"])
    errors = []
    for x, y, name in zip((a, b), bundle.square_pair(perm), "ab"):
        if not is_square_rf(x / y):
            errors.append("%s is not in the square class of the model" % name)
    c = payload["certificate"]
    if c is None:
        return errors + ["no certificate"]
    cert = {"place": c["place"].replace(" ", ""),
            "residue": c["residue"].replace(" ", ""),
            "prime": c["prime"], "root": c["root"]}
    errors += check_certificate(bundle, cert, pair=(a, b))
    if bundle.split_data() is not None:
        for row in payload["residues"]:
            if row["place_degree"] == 1:
                errors += check_split(bundle, row["place"].replace(" ", ""),
                                      row["residue"])
    return errors


# -- conics ----------------------------------------------------------------------

def check_conic_op(inp: dict, code: int, out: str) -> list:
    payload = json.loads(out)
    errors = []
    if payload.get("status") != inp["status"] or code != 0:
        return ["status %s (exit %s), built as %s" % (
            payload.get("status"), code, inp["status"])]
    if inp["status"] == "point":
        try:
            pt = [sympy.Rational(x) for x in payload["point"]]
        except (TypeError, ValueError):
            return ["unreadable point %r" % (payload.get("point"),)]
        if any(x.q != 1 for x in pt) or not any(pt):
            errors.append("point %s is not a nonzero integer vector" % pt)
        elif gcd(*(int(x) for x in pt)) != 1:
            errors.append("point %s is not primitive" % pt)
        x, y, z = pt
        c = [sympy.Rational(v) for v in inp["coeffs"]]
        value = (c[0] * x * x + c[1] * x * y + c[2] * y * y + c[3] * x * z
                 + c[4] * y * z + c[5] * z * z)
        if value != 0:
            errors.append("point %s is off the conic (value %s)"
                          % (pt, value))
    elif sorted(payload.get("obstructions", []), key=int) != sorted(
            inp["obstructions"], key=int):
        errors.append("obstructed at %s, built to fail exactly at %s" % (
            payload.get("obstructions"), inp["obstructions"]))
    return errors


# -- families --------------------------------------------------------------------

def coefficient_count(weights) -> int:
    """Coefficients of the degree-8 multidegree a_i + a_j (m = 0)."""
    return sum(weights[i] + weights[j] + 1 for i, j in PAIRS)


def check_dominance_op(code: int, out: str) -> list:
    payload = json.loads(out)
    want = coefficient_count(payload["weights"]) - 1
    errors = [] if code == 0 else ["dominance exited with %s" % code]
    if not payload.get("reports"):
        errors.append("no rank reports")
    for rep in payload.get("reports", []):
        if rep["rank"] != want:
            errors.append("rank %d at seed %d, expected %d"
                          % (rep["rank"], rep["seed"], want))
    return errors


def multiplicity(poly, point) -> int:
    """Order of vanishing of a plane curve at a projective point."""
    k = next(i for i, c in enumerate(point) if c)
    scale = sympy.Rational(1, point[k])
    u = sympy.symbols("u0 u1 u2")
    sub = {}
    for i in range(3):
        sub[W[i]] = 1 if i == k else u[i] + point[i] * scale
    affine = sympy.Poly(sympy.expand(poly.subs(sub)),
                        *[u[i] for i in range(3) if i != k])
    return min(sum(m) for m in affine.monoms())


def check_chain_op(code: int, out: str) -> list:
    payload = json.loads(out)
    errors = [] if code == 0 else ["cremona-chain exited with %s" % code]
    if payload.get("degrees") != [8, 6, 4, 2]:
        errors.append("chain degrees %s" % payload.get("degrees"))
    c = sym(payload["curves"]["C"], ("w0", "w1", "w2"))
    if sympy.Poly(c, *W).total_degree() != 8:
        errors.append("C does not have degree 8")
    if multiplicity(c, (0, 1, 0)) != 6:
        errors.append("C does not have multiplicity 6 at (0:1:0)")
    pts = [tuple(p) for p in payload.get("double_points", [])]
    if len(set(pts)) != 3:
        errors.append("expected three double points, got %s" % pts)
    for pt in pts:
        if multiplicity(c, pt) != 2:
            errors.append("C does not have multiplicity 2 at %s" % (pt,))
    return errors


def places_off_delta(text: str, places) -> int:
    """Finite places (monic coefficient tuples, low degree first) whose
    polynomial does not divide the affine Delta of the bundle."""
    delta = _qpoly(Bundle(text).delta)
    off = 0
    for f in places:
        if f is None:
            continue
        poly = _qpoly(sum(sympy.Rational(c.numerator, c.denominator) * T ** k
                          for k, c in enumerate(f)))
        if not delta.rem(poly).is_zero:
            off += 1
    return off
