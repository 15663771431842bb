"""Parameter-space machinery for the degree-8 discriminant families:
total-space automorphisms acting on coefficient vectors, exact
first-order dominance checks for the induced orbit maps (the group
columns come from the infinitesimal action at the identity, the
derivatives of the bundle equation; the locus columns span the kernel
of the relations' Jacobian), the special coefficient loci, each stated
once as a table of relations that drives sampling, membership and the
tangent space, deformation dimension counts, and fully symbolic
verification of the splitting-type degeneration families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .bundles import (
    MAX_DRAWS,
    PAIRS,
    ConicBundle,
    Weights,
    bundle_equation,
    dehomogenize,
    discriminant_form,
    validate_bundle,
    xpart_degree,
)
from .exactmath import (
    Jet,
    MultiPoly,
    as_univariate,
    is_square_rat,
    is_squarefree,
    mat_rank,
    nullspace,
    parse_poly,
)

X2 = ("x0", "x1")
V5 = ("x0", "x1", "y0", "y1", "y2")


class FamiliesError(ValueError):
    pass


# -- coefficient namings ------------------------------------------------

def _span(prefix: str, n: int):
    return tuple("%s%d" % (prefix, k) for k in range(n))


# Per-block coefficient names in canonical block order (sigma00, sigma01,
# sigma02, sigma11, sigma12, sigma22); the index inside a name is the
# power of x1, so index 0 always tags the leading (x0-power) coefficient.
_SECTION_NAMES = {
    (2, 1, 1): (_span("a", 5), _span("b", 4), _span("c", 4),
                _span("d", 3), _span("g", 3), _span("h", 3)),
    (2, 2, 0): (_span("a", 5), _span("b", 5), _span("c", 3),
                _span("d", 5), _span("g", 3), ("h0",)),
    (3, 1, 0): (_span("a", 7), _span("b", 5), _span("c", 4),
                _span("d", 3), ("g0", "g1"), ("h0",)),
    (4, 0, 0): (_span("a", 9), _span("b", 5), _span("c", 5),
                ("d0",), ("g0",), ("h0",)),
}

# Alternative labelling for weights (4,0,0), used by the constructions
# that diagonalize the fiber form: the off-diagonal sigma02 block takes
# the d names and the three constant blocks take c0, c1, c2.
_DIAGONAL_NAMES_400 = (_span("a", 9), _span("b", 5), _span("d", 5),
                       ("c0",), ("c1",), ("c2",))


def coefficient_names(weights, diagonal: bool = False):
    """The six per-block name tuples for the given weights."""
    w = weights.tuple if isinstance(weights, Weights) else tuple(weights)
    if diagonal:
        if w != (4, 0, 0):
            raise FamiliesError(
                "the diagonal labelling only exists for weights (4,0,0)")
        return _DIAGONAL_NAMES_400
    try:
        return _SECTION_NAMES[w]
    except KeyError:
        raise FamiliesError("no coefficient naming for weights %s" % (w,))


def _flat(names6) -> tuple:
    return tuple(n for blk in names6 for n in blk)


def generic_bundle(weights, diagonal: bool = False) -> ConicBundle:
    """Fully symbolic member of the family: every coefficient is its
    own parameter, 22 in total for the degree-8 types."""
    w = weights if isinstance(weights, Weights) else Weights(*weights)
    names = coefficient_names(w, diagonal)
    params = _flat(names)
    variables = X2 + params
    idx = {v: k for k, v in enumerate(variables)}
    sigma = []
    for (i, j), blk in zip(PAIRS, names):
        d = w[i] + w[j]
        terms = {}
        for k, nm in enumerate(blk):
            e = [0] * len(variables)
            e[0], e[1] = d - k, k
            e[idx[nm]] = 1
            terms[tuple(e)] = Fraction(1)
        sigma.append(MultiPoly(variables, terms))
    return ConicBundle(weights=w, sigma=tuple(sigma), params=params)


def bundle_from_coefficients(weights, values, diagonal: bool = False) -> ConicBundle:
    """Numeric bundle from a {name: value} mapping; missing names count
    as zero, extra keys (sampler auxiliaries) are ignored."""
    w = weights if isinstance(weights, Weights) else Weights(*weights)
    names = coefficient_names(w, diagonal)
    sigma = []
    for (i, j), blk in zip(PAIRS, names):
        d = w[i] + w[j]
        terms = {}
        for k, nm in enumerate(blk):
            c = values.get(nm, 0)
            if c:
                terms[(d - k, k)] = c
        sigma.append(MultiPoly(X2, terms))
    return ConicBundle(weights=w, sigma=tuple(sigma))


def bundle_coefficients(cb: ConicBundle, diagonal: bool = False) -> dict:
    """Named coefficients of a numeric bundle (inverse of
    bundle_from_coefficients on its image)."""
    if cb.params:
        raise FamiliesError("coefficient naming needs a numeric bundle; "
                            "instantiate first")
    names = coefficient_names(cb.weights, diagonal)
    a = cb.weights.tuple
    out = {}
    for (i, j), blk, s in zip(PAIRS, names, cb.sigma):
        d = a[i] + a[j]
        s = s.align(X2)
        seen = set()
        for k, nm in enumerate(blk):
            out[nm] = s.coeff((d - k, k))
            seen.add((d - k, k))
        stray = [e for e in s.terms if e not in seen]
        if stray:
            raise FamiliesError(
                "sigma%d%d has a term of x-degree %d outside the naming "
                "table" % (i, j, sum(stray[0])))
    return out


def coefficient_vector(cb: ConicBundle) -> tuple:
    """The coefficients flattened in canonical order: blocks sigma00,
    sigma01, sigma02, sigma11, sigma12, sigma22, each by increasing
    x1-power (22 entries for the degree-8 types)."""
    a = cb.weights.tuple
    out = []
    for (i, j), s in zip(PAIRS, cb.sigma):
        d = a[i] + a[j]
        s = s.align(X2)
        if any(e[0] + e[1] != d for e in s.terms):
            raise FamiliesError("sigma%d%d is not a form of degree %d"
                                % (i, j, d))
        out.extend(s.coeff((d - k, k)) for k in range(d + 1))
    return tuple(out)


# -- automorphisms of the total spaces -----------------------------------

_LIN = ((1, 0), (0, 1))
_QUAD = ((2, 0), (1, 1), (0, 2))
_QUART = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))

# The fiber part of an automorphism is y_i -> sum_j B[i][j](x) y_j with
# the x-degree of B[i][j] equal to a_j - a_i; entries not listed here
# are structurally zero.
_B_SHAPES = {
    (2, 1, 1): {
        (0, 0): ((( 0, 0), "beta00"),),
        (1, 0): tuple(zip(_LIN, ("delta11", "delta12"))),
        (1, 1): (((0, 0), "gamma11"),),
        (1, 2): (((0, 0), "gamma12"),),
        (2, 0): tuple(zip(_LIN, ("delta21", "delta22"))),
        (2, 1): (((0, 0), "gamma21"),),
        (2, 2): (((0, 0), "gamma22"),),
    },
    (2, 2, 0): {
        (0, 0): (((0, 0), "beta00"),),
        (0, 1): (((0, 0), "beta01"),),
        (1, 0): (((0, 0), "beta10"),),
        (1, 1): (((0, 0), "beta11"),),
        (2, 0): tuple(zip(_QUAD, ("delta11", "delta12", "delta13"))),
        (2, 1): tuple(zip(_QUAD, ("theta11", "theta12", "theta13"))),
        (2, 2): (((0, 0), "gamma22"),),
    },
    (4, 0, 0): {
        (0, 0): (((0, 0), "beta00"),),
        (1, 0): tuple(zip(_QUART, _span("delta1", 6)[1:])),
        (1, 1): (((0, 0), "gamma11"),),
        (1, 2): (((0, 0), "gamma12"),),
        (2, 0): tuple(zip(_QUART, _span("delta2", 6)[1:])),
        (2, 1): (((0, 0), "gamma21"),),
        (2, 2): (((0, 0), "gamma22"),),
    },
}

_ALPHA = ("alpha00", "alpha01", "alpha10", "alpha11")
_ONES = frozenset(("alpha00", "alpha11", "beta00", "beta11",
                   "gamma11", "gamma22"))

def _aut_entry_names(w) -> tuple:
    shape = _B_SHAPES[w]
    names = list(_ALPHA)
    for key in sorted(shape):
        names.extend(nm for _, nm in shape[key])
    return tuple(names)


def _aut_identity_values(w) -> dict:
    return {nm: Fraction(1 if nm in _ONES else 0)
            for nm in _aut_entry_names(w)}


def chart_coordinates(weights) -> tuple:
    """Names of the affine chart coordinates of the automorphism group
    (the full entry list minus the two entries normalized to 1)."""
    w = weights.tuple if isinstance(weights, Weights) else tuple(weights)
    if w not in _B_SHAPES:
        raise FamiliesError("no automorphism chart for weights %s" % (w,))
    return tuple(nm for nm in _aut_entry_names(w)
                 if nm not in ("alpha00", "beta00"))


@dataclass(frozen=True)
class AutParams:
    """One automorphism of a total space, stored as its named entries:
    the 2x2 x-part alpha and the structured fiber part (beta, gamma,
    delta, theta blocks as the weights dictate)."""
    weights: tuple
    entries: dict

    @classmethod
    def create(cls, weights, values=None) -> "AutParams":
        w = weights.tuple if isinstance(weights, Weights) else tuple(weights)
        if w not in _B_SHAPES:
            raise FamiliesError("no automorphism model for weights %s" % (w,))
        entries = _aut_identity_values(w)
        for nm, v in (values or {}).items():
            if nm not in entries:
                raise FamiliesError(
                    "unknown entry %r for weights %s (valid: %s)"
                    % (nm, w, ", ".join(_aut_entry_names(w))))
            entries[nm] = v if isinstance(v, Jet) else Fraction(v)
        return cls(weights=w, entries=entries)

    @classmethod
    def identity(cls, weights) -> "AutParams":
        return cls.create(weights)

    def entry(self, name: str):
        return self.entries[name]


def _unit(v) -> bool:
    # invertibility test that also works along a first-order deformation
    if isinstance(v, Jet):
        return bool(v.val)
    return bool(v)


def _check_invertible(aut: AutParams):
    e = aut.entries
    det_a = e["alpha00"] * e["alpha11"] - e["alpha01"] * e["alpha10"]
    if not _unit(det_a):
        raise FamiliesError("non-invertible linear part: det alpha = 0")
    if aut.weights == (2, 2, 0):
        det_b = e["beta00"] * e["beta11"] - e["beta01"] * e["beta10"]
        ok = _unit(det_b) and _unit(e["gamma22"])
    else:
        det_g = e["gamma11"] * e["gamma22"] - e["gamma12"] * e["gamma21"]
        ok = _unit(e["beta00"]) and _unit(det_g)
    if not ok:
        raise FamiliesError("non-invertible linear part in the fiber block")


def _b_matrix(aut: AutParams):
    """The 3x3 fiber substitution matrix as x-polynomials."""
    shape = _B_SHAPES[aut.weights]
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            spec = shape.get((i, j))
            if spec is None:
                row.append(MultiPoly.zero(X2))
            else:
                row.append(MultiPoly(
                    X2, {e: aut.entries[nm] for e, nm in spec
                         if aut.entries[nm]}))
        rows.append(row)
    return rows


def _x_images(aut: AutParams, variables):
    e = aut.entries
    x0 = MultiPoly.variable(variables, "x0")
    x1 = MultiPoly.variable(variables, "x1")
    return (x0 * e["alpha00"] + x1 * e["alpha01"],
            x0 * e["alpha10"] + x1 * e["alpha11"])


_Y_PAIR = {(2, 0, 0): (0, 0), (1, 1, 0): (0, 1), (1, 0, 1): (0, 2),
           (0, 2, 0): (1, 1), (0, 1, 1): (1, 2), (0, 0, 2): (2, 2)}


def _split_fiber_quadric(q: MultiPoly):
    """Split a y-quadratic polynomial into its six coefficient forms,
    over the ring with the y variables removed."""
    ys = tuple(q.vars.index(n) for n in ("y0", "y1", "y2"))
    keep = [k for k in range(len(q.vars)) if k not in ys]
    out_vars = tuple(q.vars[k] for k in keep)
    buckets = {p: {} for p in PAIRS}
    for e, c in q.terms.items():
        pair = _Y_PAIR.get((e[ys[0]], e[ys[1]], e[ys[2]]))
        if pair is None:
            raise FamiliesError("polynomial is not quadratic in y0, y1, y2")
        buckets[pair][tuple(e[k] for k in keep)] = c
    return tuple(MultiPoly(out_vars, buckets[p]) for p in PAIRS)


def pullback(aut: AutParams, cb: ConicBundle) -> ConicBundle:
    """Substitute the automorphism into the bundle equation and re-read
    the six coefficient forms.  Identity parameters return an equal
    bundle; the x-part acts by reversing/mixing coefficients inside
    every block, the unipotent part mixes blocks."""
    if cb.params:
        raise FamiliesError("pullback needs a numeric bundle; "
                            "instantiate first")
    if aut.weights != cb.weights.tuple:
        raise FamiliesError(
            "automorphism for weights %s cannot act on a %s bundle"
            % (aut.weights, cb.weights))
    _check_invertible(aut)
    eq = bundle_equation(cb)
    u0, u1 = _x_images(aut, V5)
    b = _b_matrix(aut)
    mapping = {"x0": u0, "x1": u1}
    for i in range(3):
        acc = MultiPoly.zero(V5)
        for j in range(3):
            if not b[i][j].is_zero():
                acc = acc + b[i][j].align(V5) * MultiPoly.variable(
                    V5, "y%d" % j)
        mapping["y%d" % i] = acc
    sigma = _split_fiber_quadric(eq.substitute(mapping))
    return replace(cb, sigma=tuple(s.align(X2) for s in sigma))


def group_columns(cb: ConicBundle, chart) -> list:
    """The derivative at the identity of the group action on the
    coefficient vector of a numeric bundle, one column per named chart
    coordinate.  With F the bundle equation, alpha_kl (x_k -> x_k +
    eps*x_l) moves F by x_l*dF/dx_k, and a fiber entry of B[i][j] with
    x-exponent e (y_i -> y_i + eps*x^e*y_j) moves it by x^e*y_j*dF/dy_i.
    These are the eps-parts of `pullback` along the same entries."""
    eq = bundle_equation(cb)
    grad = {v: eq.derivative(v) for v in V5}
    moves = {}
    for k in range(2):
        for l in range(2):
            moves["alpha%d%d" % (k, l)] = ("x%d" % k, _LIN[l] + (0, 0, 0))
    for (i, j), spec in _B_SHAPES[cb.weights.tuple].items():
        for e, nm in spec:
            moves[nm] = ("y%d" % i, e + tuple(int(j == k) for k in range(3)))
    cols = []
    for nm in chart:
        var, m = moves[nm]
        col = grad[var] * MultiPoly.monomial(V5, m)
        cols.append(coefficient_vector(
            replace(cb, sigma=_split_fiber_quadric(col))))
    return cols


# -- the special coefficient loci ----------------------------------------

@dataclass(frozen=True)
class LocusSpec:
    """A coefficient locus as an ordered table of (dependent, relation)
    pairs: every relation vanishes on the locus, is linear in its
    dependent and mentions only free names and earlier dependents.  The
    free names are the canonical names minus the dependents, so solving
    the table top to bottom parametrizes the locus by them, and the
    same parsed relations decide membership and span the tangent
    space."""
    name: str
    weights: tuple
    diagonal: bool
    relations: tuple

    @property
    def names(self) -> tuple:
        return _flat(coefficient_names(self.weights, self.diagonal))

    @property
    def free(self) -> tuple:
        deps = {dep for dep, _ in self.relations}
        return tuple(nm for nm in self.names if nm not in deps)

    @property
    def dimension(self) -> int:
        return len(self.free)

    @cached_property
    def parts(self) -> tuple:
        """(dependent, relation, coefficient of the dependent, the
        rest) per row, parsed over the canonical names."""
        out = []
        for dep, text in self.relations:
            rel = parse_poly(text, self.names)
            out.append((dep, rel, rel.coefficient_of_power(dep, 1),
                        rel.coefficient_of_power(dep, 0)))
        return tuple(out)

    def solve(self, draw: dict) -> dict:
        """Extend values of the free names by the dependents, row by
        row: dependent = -rest / coefficient."""
        out = dict(draw)
        for dep, _, lin, rest in self.parts:
            den = lin.evaluate(out)
            if not den:
                raise FamiliesError("%s must not vanish on %s"
                                    % (lin, self.name))
            out[dep] = Fraction(-rest.evaluate(out), den)
        return out


LOCI = {
    "U_433222": LocusSpec(
        name="U_433222", weights=(2, 1, 1), diagonal=False,
        relations=(("a0", "a0"), ("a1", "a1"), ("a3", "a3"), ("a4", "a4"),
                   ("c3", "b0*c3 - c0*b3"))),
    "U_442420": LocusSpec(
        name="U_442420", weights=(2, 2, 0), diagonal=False,
        relations=(("a3", "a3"), ("a4", "a4"), ("c2", "c2"))),
    "U_c2zero": LocusSpec(
        name="U_c2zero", weights=(4, 0, 0), diagonal=True,
        relations=(("c2", "c2"),)),
    "U12": LocusSpec(
        name="U12", weights=(4, 0, 0), diagonal=False,
        relations=(
            ("a7", "a7"),
            ("a8", "a8"),
            ("a1", "a1 - a5 - 1/2*b2 - 1/2*c2 - 1/2*d0 - 1/2*g0 - 1/2*h0"),
            ("a2", "a2 + 2*a4 + 3*a6 + 1/2*b2 + 1/2*c2 - 1/4*d0 - 1/4*g0 "
                   "- 1/4*h0"),
            ("a3", "a3 + 2*a5 + 1/2*b2 + 1/2*c2"),
            ("a0", "a0 - a1 + a2 - a3 + a4 - a5 + a6 - a7"),
            ("b1", "b1 + b3 + c1 + c3 + d0 + g0 + h0"),
            ("b4", "b4 + c4"),
            ("b0", "b0 + g0 + 2*a1 + b1 + b2 + c1 + c0 + c4 + b4 + 2*a7 "
                   "+ h0 + d0 + 2*a5 + c3 + b3 + 2*a3 + c2"),
        )),
}

# The four dominance statements: which locus feeds which weights.
DOMINANCE_PAIRS = ("U_433222", "U_442420", "U_c2zero", "U12")


def locus(name: str) -> LocusSpec:
    try:
        return LOCI[name]
    except KeyError:
        raise FamiliesError("unknown locus %r (choose from %s)"
                            % (name, ", ".join(sorted(LOCI))))


def first_violation(spec: LocusSpec, values: dict):
    """The first row of the table whose relation fails at the named
    values, as (dependent, its value, the value the row forces on it,
    None when its coefficient vanishes there); None on the locus."""
    for dep, rel, lin, rest in spec.parts:
        if rel.evaluate(values):
            den = lin.evaluate(values)
            return (dep, values[dep],
                    Fraction(-rest.evaluate(values), den) if den else None)
    return None


def locus_member(spec: LocusSpec, seed, lo: int = -9,
                 hi: int = 9) -> ConicBundle:
    """Seeded integer member satisfying the relations exactly,
    rejection-sampled for a square-free affine discriminant of full
    degree 8."""
    rng = random.Random("%s#%s" % (spec.name, seed))
    for _ in range(MAX_DRAWS):
        draw = {nm: rng.randint(lo, hi) for nm in spec.free}
        try:
            values = spec.solve(draw)
        except FamiliesError:
            continue
        cb = bundle_from_coefficients(spec.weights, values, spec.diagonal)
        aff = dehomogenize(discriminant_form(cb))
        _, cs = as_univariate(aff, "t")
        if len(cs) - 1 != 8 or not is_squarefree(cs):
            continue
        return validate_bundle(cb)
    raise FamiliesError(
        "no admissible member of %s after %d attempts (seed %s)"
        % (spec.name, MAX_DRAWS, seed))


# -- first-order dominance ------------------------------------------------

@dataclass(frozen=True)
class DominanceReport:
    chart_size: int
    locus_dims: int
    normal_index: int
    fallback: bool
    rank: int
    expected: int

    @property
    def columns(self) -> int:
        return self.chart_size + self.locus_dims

    @property
    def ok(self) -> bool:
        return self.rank == self.expected


def jacobian_rank_at_identity(spec: LocusSpec,
                              cb: ConicBundle) -> DominanceReport:
    """Exact rank of the orbit-map differential at the identity over a
    fixed locus member.  The group columns are the infinitesimal action
    of the chart coordinates on the coefficient vector (`group_columns`);
    the locus columns are a basis of the kernel of the relations'
    Jacobian at the member, its tangent space (the rank does not depend
    on the basis).  The columns are de-projectivized against the last
    flattened coefficient (index 21; when it vanishes at the sample the
    largest nonzero index takes over, recorded)."""
    if cb.params:
        raise FamiliesError("rank check needs a numeric bundle")
    if cb.weights.tuple != spec.weights:
        raise FamiliesError("bundle weights %s do not match locus %s"
                            % (cb.weights, spec.name))
    values = bundle_coefficients(cb, spec.diagonal)
    if first_violation(spec, values) is not None:
        raise FamiliesError("bundle is not on locus %s" % spec.name)
    f0 = coefficient_vector(cb)
    n = len(f0) - 1
    fallback = False
    while n >= 0 and not f0[n]:
        n -= 1
        fallback = True
    if n < 0:
        raise FamiliesError("zero bundle has no orbit map")

    chart = chart_coordinates(spec.weights)
    cols = group_columns(cb, chart)

    # the canonical names run in coefficient-vector order, so a kernel
    # vector is already a column
    jac = [[rel.derivative(nm).evaluate(values) for nm in spec.names]
           for _, rel, _, _ in spec.parts]
    tangent = nullspace(jac)
    if len(tangent) != spec.dimension:
        raise FamiliesError("locus %s is singular at the member: tangent "
                            "space of dimension %d, expected %d"
                            % (spec.name, len(tangent), spec.dimension))
    cols.extend(tangent)

    fn = f0[n]
    rows = [[col[i] * fn - f0[i] * col[n] for col in cols]
            for i in range(len(f0)) if i != n]
    rank = mat_rank(rows)
    return DominanceReport(
        chart_size=len(chart),
        locus_dims=spec.dimension, normal_index=n, fallback=fallback,
        rank=rank, expected=len(f0) - 1)


def dominance_report(locus_name: str, seed) -> DominanceReport:
    """Sample a locus member at the given seed and run the rank check."""
    spec = locus(locus_name)
    return jacobian_rank_at_identity(spec, locus_member(spec, seed))


# -- deformation dimension counts ----------------------------------------

@dataclass(frozen=True)
class DeformationTable:
    weights: tuple
    h1_end: int
    h0_normal: int
    h1_normal: int


def deformation_table(weights) -> DeformationTable:
    """First-order deformation counts for a projectivized splitting
    bundle over the line: h1_end counts the endomorphism obstructions
    (sum of h^1 of the twists a_j - a_i), the normal counts come from
    the relative degree-2 linear system; h1_end vanishes exactly when
    the splitting is balanced (a0 - a2 <= 1)."""
    w = weights if isinstance(weights, Weights) else Weights(*weights)
    a = w.tuple
    h1e = 0
    for i in range(3):
        for j in range(3):
            d = a[j] - a[i]
            if d <= -2:
                h1e += -d - 1
    h0n = -1
    h1n = 0
    for i in range(3):
        for j in range(i, 3):
            d = a[i] + a[j]
            h0n += max(0, d + 1)
            h1n += max(0, -d - 1)
    return DeformationTable(weights=a, h1_end=h1e, h0_normal=h0n,
                            h1_normal=h1n)


# -- splitting-type degenerations ------------------------------------------

@dataclass(frozen=True)
class DegenerationCheck:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class DegenerationReport:
    pair: str
    source: tuple
    target: tuple
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.ok)


# Every piece of display data below is hard-coded: parametrizations as
# monomial lists, determinantal matrices as index rows (an entry is the
# coordinate of that index), ambient quadrics as (name, i, j) couplings,
# and the expected specialized coefficient forms as polynomial strings.

_F211_P9 = ("x0^3*y0", "x0^2*x1*y0", "x0*x1^2*y0", "x1^3*y0",
            "x0^2*y1", "x0*x1*y1", "x1^2*y1",
            "x0^2*y2", "x0*x1*y2", "x1^2*y2")
_G220_P9 = ("x0^3*y0", "x0^2*x1*y0", "x0*x1^2*y0", "x1^3*y0",
            "x0^3*y1", "x0^2*x1*y1", "x0*x1^2*y1", "x1^3*y1",
            "x0*y2", "x1*y2")
# The P^6 map of each weight type, with the two index rows whose 2x2
# minors vanish on its image.
_P6_MAPS = {
    (2, 1, 1): (("x0^2*y0", "x0*x1*y0", "x1^2*y0",
                 "x0*y1", "x1*y1", "x0*y2", "x1*y2"),
                ((0, 1, 3, 5), (1, 2, 4, 6))),
    (2, 2, 0): (("x0^2*y0", "x0*x1*y0", "x1^2*y0",
                 "x0^2*y1", "x0*x1*y1", "x1^2*y1", "y2"),
                ((0, 1, 3, 4), (1, 2, 4, 5))),
    (3, 1, 0): (("x0^3*y0", "x0^2*x1*y0", "x0*x1^2*y0", "x1^3*y0",
                 "x0*y1", "x1*y1", "y2"),
                ((0, 1, 2, 4), (1, 2, 3, 5))),
    (4, 0, 0): (("x0^4*y0", "x0^3*x1*y0", "x0^2*x1^2*y0", "x0*x1^3*y0",
                 "x1^4*y0", "y1", "y2"),
                ((0, 1, 2, 3), (1, 2, 3, 4))),
}

_Q_TERMS_211 = (
    ("a0", 0, 0), ("a1", 0, 1), ("a2", 1, 1), ("a3", 1, 2), ("a4", 2, 2),
    ("b0", 0, 3), ("b1", 1, 3), ("b2", 2, 3), ("d0", 3, 3),
    ("b3", 2, 4), ("d1", 3, 4), ("d2", 4, 4),
    ("c0", 0, 5), ("c1", 1, 5), ("c2", 2, 5), ("g0", 3, 5), ("g1", 4, 5),
    ("h0", 5, 5),
    ("c3", 2, 6), ("g2", 4, 6), ("h1", 5, 6), ("h2", 6, 6),
)
_Q_TERMS_220 = (
    ("a0", 0, 0), ("a1", 0, 1), ("a2", 1, 1), ("a3", 1, 2), ("a4", 2, 2),
    ("b0", 0, 3), ("b1", 1, 3), ("b2", 2, 3), ("b3", 2, 4), ("b4", 2, 5),
    ("c0", 0, 6), ("c1", 1, 6), ("c2", 2, 6),
    ("d0", 3, 3), ("d1", 3, 4), ("d2", 4, 4), ("d3", 4, 5), ("d4", 5, 5),
    ("g0", 3, 6), ("g1", 4, 6), ("g2", 5, 6), ("h0", 6, 6),
)
_Q_TERMS_310 = (
    ("a0", 0, 0), ("a1", 0, 1), ("a2", 1, 1), ("a3", 1, 2), ("a4", 2, 2),
    ("a5", 2, 3), ("a6", 3, 3),
    ("b0", 0, 4), ("b1", 1, 4), ("b2", 2, 4), ("b3", 3, 4), ("b4", 3, 5),
    ("c0", 0, 6), ("c1", 1, 6), ("c2", 2, 6), ("c3", 3, 6),
    ("d0", 4, 4), ("d1", 4, 5), ("d2", 5, 5),
    ("g0", 4, 6), ("g1", 5, 6), ("h0", 6, 6),
)

_DICT_211_220 = (
    "a0*x0^4 + a1*x0^3*x1 + a2*x0^2*x1^2 + a3*x0*x1^3 + a4*x1^4",
    "b0*x0^4 + b1*x0^3*x1 + b2*x0^2*x1^2 + c0*x0^2*x1^2 + b3*x0*x1^3 "
    "+ c1*x0*x1^3 + c2*x1^4",
    "c3*x1^2",
    "d0*x0^4 + d1*x0^3*x1 + d2*x0^2*x1^2 + g0*x0^2*x1^2 + g1*x0*x1^3 "
    "+ h0*x1^4",
    "g2*x0*x1 + h1*x1^2",
    "h2",
)
_DICT_220_310 = (
    "a0*x0^6 + a1*x0^5*x1 + a2*x0^4*x1^2 + a3*x0^3*x1^3 + b0*x0^3*x1^3 "
    "+ a4*x0^2*x1^4 + b1*x0^2*x1^4 + b2*x0*x1^5 + d0*x1^6",
    "b3*x0^2*x1^2 + b4*x0*x1^3 + d1*x0*x1^3",
    "c0*x0^3 + c1*x0^2*x1 + c2*x0*x1^2 + g0*x1^3",
    "d2*x0^2 + d3*x0*x1 + d4*x1^2",
    "g1*x0 + g2*x1",
    "h0",
)
_DICT_310_400 = (
    "a0*x0^8 + a1*x0^7*x1 + a2*x0^6*x1^2 + a3*x0^5*x1^3 + a4*x0^4*x1^4 "
    "+ b0*x0^4*x1^4 + a5*x0^3*x1^5 + b1*x0^3*x1^5 + a6*x0^2*x1^6 "
    "+ b2*x0^2*x1^6 + b3*x0*x1^7 + d0*x1^8",
    "b4*x0*x1^3 + d1*x1^4",
    "c0*x0^4 + c1*x0^3*x1 + c2*x0^2*x1^2 + c3*x0*x1^3 + g0*x1^4",
    "d2",
    "g1",
    "h0",
)


def _quadric_pullback(terms, comps, ring):
    acc = MultiPoly.zero(ring)
    for nm, i, j in terms:
        acc = acc + parse_poly(nm, ring) * comps[i] * comps[j]
    return acc


def _first_minor_failure(row1, row2):
    m = len(row1)
    for i in range(m):
        for j in range(i + 1, m):
            if not (row1[i] * row2[j] - row1[j] * row2[i]).is_zero():
                return (i, j)
    return None


def _minor_check(checks, label, comps, rows):
    r1 = [comps[k] for k in rows[0]]
    r2 = [comps[k] for k in rows[1]]
    bad = _first_minor_failure(r1, r2)
    checks.append(DegenerationCheck(
        label, bad is None,
        "" if bad is None else "minor at columns %d, %d is nonzero" % bad))


def _dictionary_checks(checks, q_pull, expected, target_w):
    got = _split_fiber_quadric(q_pull)
    out_ring = got[0].vars
    a = target_w
    for (i, j), g, want_text in zip(PAIRS, got, expected):
        want = parse_poly(want_text, out_ring)
        diff = g - want
        checks.append(DegenerationCheck(
            "dictionary sigma%d%d" % (i, j), diff.is_zero(),
            "" if diff.is_zero() else "difference %s" % diff))
        d = xpart_degree(g)
        checks.append(DegenerationCheck(
            "specialized degree sigma%d%d = %d" % (i, j, a[i] + a[j]),
            d == a[i] + a[j],
            "" if d == a[i] + a[j] else "got degree %s" % d))


def _source_family_check(checks, q_pull, source_weights):
    want = bundle_equation(generic_bundle(source_weights))
    diff = q_pull - want.align(q_pull.vars)
    checks.append(DegenerationCheck(
        "pullback along the source map is the generic source family",
        diff.is_zero(), "" if diff.is_zero() else "difference %s" % diff))


def _composition_check(checks, label, lhs, rhs, factor):
    # lhs == factor * rhs, componentwise
    ok_all = True
    detail = ""
    for k, (p, q) in enumerate(zip(lhs, rhs)):
        if not (p - factor * q).is_zero():
            ok_all = False
            detail = "component %d differs" % k
            break
    checks.append(DegenerationCheck(label, ok_all, detail))


# pair: (source weights, target weights, the ambient quadric in the
# coordinates of the source's P^6, the expected specialized dictionary)
DEGENERATIONS = {
    "211->220": ((2, 1, 1), (2, 2, 0), _Q_TERMS_211, _DICT_211_220),
    "220->310": ((2, 2, 0), (3, 1, 0), _Q_TERMS_220, _DICT_220_310),
    "310->400": ((3, 1, 0), (4, 0, 0), _Q_TERMS_310, _DICT_310_400),
}
DEGENERATION_PAIRS = tuple(DEGENERATIONS)


def verify_degeneration(pair: str) -> DegenerationReport:
    """Symbolic verification of one splitting-type degeneration: the
    relative-projection compositions (first pair only), the rank-one
    determinantal conditions on both parametrizations, the specialized
    coefficient dictionary, and the specialized multidegree.  Every
    check is an exact polynomial identity."""
    key = pair.replace(" ", "").replace("→", "->")
    if key not in DEGENERATIONS:
        raise FamiliesError("unknown degeneration %r (choose from %s)"
                            % (pair, ", ".join(DEGENERATIONS)))
    source, target, quadric, expected = DEGENERATIONS[key]
    ring = V5 + _flat(_SECTION_NAMES[source])
    (f_text, f_rows), (g_text, g_rows) = _P6_MAPS[source], _P6_MAPS[target]
    f = [parse_poly(m, ring) for m in f_text]
    g = [parse_poly(m, ring) for m in g_text]
    checks = []
    if key == "211->220":
        _big_embedding_checks(checks, ring, f, g)
    _minor_check(checks, "rank-one rows on the source map", f, f_rows)
    _minor_check(checks, "rank-one rows on the target map", g, g_rows)
    _source_family_check(checks, _quadric_pullback(quadric, f, ring), source)
    _dictionary_checks(checks, _quadric_pullback(quadric, g, ring),
                       expected, target)
    return DegenerationReport(pair=key, source=source, target=target,
                              checks=tuple(checks))


def _big_embedding_checks(checks, ring, f, g):
    """211->220 only: both P^6 maps are relative projections of P^9
    embeddings, which are rank-one determinantal too."""
    F = [parse_poly(m, ring) for m in _F211_P9]
    G = [parse_poly(m, ring) for m in _G220_P9]
    x1 = MultiPoly.variable(ring, "x1")
    _composition_check(checks,
                       "projection of the big source embedding recovers "
                       "the source map (factor x1)",
                       [F[k] for k in (1, 2, 3, 5, 6, 8, 9)], f, x1)
    _composition_check(checks,
                       "projection of the big target embedding recovers "
                       "the target map (factor x1)",
                       [G[k] for k in (1, 2, 3, 5, 6, 7, 9)], g, x1)
    _minor_check(checks, "rank-one rows on the source embedding (big)",
                 F, ((0, 1, 2, 4, 5, 7, 8), (1, 2, 3, 5, 6, 8, 9)))
    _minor_check(checks, "rank-one rows on the target embedding (big)",
                 G, ((0, 1, 2, 4, 5, 6, 8), (1, 2, 3, 5, 6, 7, 9)))


# -- hypotheses of the final specialization step ---------------------------

@dataclass(frozen=True)
class SpecializationHypotheses:
    s_condition: bool
    square_value: Fraction
    square_condition: bool

    @property
    def satisfied(self) -> bool:
        return self.s_condition and self.square_condition


def theorem_310_400_hypotheses(cb: ConicBundle) -> SpecializationHypotheses:
    """The two hypotheses guarding the specialization from weights
    (3,1,0) to (4,0,0): sigma12^2 - sigma11*sigma22 must not vanish
    identically, and (a0*h0 - c0^2)*d0 - g0^2*a0 must be a nonzero
    rational square."""
    if cb.weights.tuple != (3, 1, 0):
        raise FamiliesError("hypotheses are stated for weights (3,1,0), "
                            "got %s" % cb.weights)
    v = bundle_coefficients(cb)
    s_cond = not (cb.s(1, 2) * cb.s(1, 2)
                  - cb.s(1, 1) * cb.s(2, 2)).is_zero()
    val = (v["a0"] * v["h0"] - v["c0"] ** 2) * v["d0"] \
        - v["g0"] ** 2 * v["a0"]
    return SpecializationHypotheses(
        s_condition=s_cond, square_value=val,
        square_condition=bool(val) and is_square_rat(val))
