"""Plane geometry layer: scroll images, Cremona maps, the octic
reduction chain, rational conics and their local-global point search."""

import random
from fractions import Fraction
from importlib.resources import files

import pytest

from conicbundles.bundles import (
    make_bundle,
    parse_bundle_text,
    random_bundle,
    validate_bundle,
)
from conicbundles.exactmath import MultiPoly, parse_poly
from conicbundles.families import bundle_from_coefficients
from conicbundles.plane import (
    CHAIN_DOUBLE_POINTS,
    CHAIN_Q,
    ConicQ,
    ContractedCurveError,
    CremonaMap,
    PlaneCurve,
    PlaneError,
    UnsupportedWeights,
    chain_U12,
    conic_has_point,
    cremona_apply,
    cremona_from_points,
    hilbert_symbol,
    line_through,
    multiplicity_at,
    recombine_target,
    scroll_image,
    standard_cremona,
    tangent_2section_433222,
    u12_coefficients,
    u12_delta,
)

W3 = ("w0", "w1", "w2")


def wpoly(text):
    return parse_poly(text, W3)


def curve(text):
    return PlaneCurve.make(wpoly(text))


def load_fixture(name):
    text = (files("conicbundles") / "fixtures" / name).read_text()
    return validate_bundle(parse_bundle_text(text))


CHAIN_FREES = {"a4": 1, "a5": 0, "a6": 0, "b2": 0, "b3": 0, "c0": 0,
               "c1": 0, "c2": 0, "c3": 0, "c4": 0, "d0": 4, "g0": 0,
               "h0": 0}


# -- multiplicities --------------------------------------------------------


def test_multiplicity_smooth_point():
    m, cone = multiplicity_at(wpoly("w0 + w1"), (1, -1, 0))
    assert m == 1


def test_multiplicity_node_and_cone():
    m, cone = multiplicity_at(wpoly("w0*w1"), (0, 0, 1))
    assert m == 2
    assert cone == wpoly("w0*w1")


def test_multiplicity_cusp():
    m, cone = multiplicity_at(wpoly("w1^2*w2 - w0^3"), (0, 0, 1))
    assert m == 2
    assert cone == wpoly("w1^2")


def test_multiplicity_translated():
    # triple point moved to (1, 1, 1)
    p = wpoly("w0 - w2") * wpoly("w1 - w2") * wpoly("w0 - w1")
    m, _ = multiplicity_at(p, (1, 1, 1))
    assert m == 3


# -- Cremona maps ----------------------------------------------------------


def test_line_through():
    assert line_through((1, 0, 0), (0, 1, 0)) == wpoly("w2")
    with pytest.raises(PlaneError, match="coincident"):
        line_through((1, 2, 3), (2, 4, 6))


def test_standard_cremona():
    cm = standard_cremona()
    assert cm.slots == (wpoly("w1*w2"), wpoly("w0*w2"), wpoly("w0*w1"))
    assert cm.apply_point((1, 2, 3)) == (6, 3, 2)
    assert cm.apply_point((1, 1, 1)) == (1, 1, 1)
    with pytest.raises(PlaneError, match="base locus"):
        cm.apply_point((1, 0, 0))


def test_from_points_reproduces_standard():
    cm = cremona_from_points((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert cm.slots == standard_cremona().slots


def test_from_points_rejects_collinear():
    with pytest.raises(PlaneError, match="collinear"):
        cremona_from_points((1, 0, 0), (0, 1, 0), (1, 1, 0))


def test_cremona_round_trip_on_points():
    rng = random.Random(31)
    done = 0
    while done < 20:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        try:
            cm = cremona_from_points(*pts)
        except PlaneError:
            continue
        q = (rng.randint(1, 5), rng.randint(-5, -1), rng.randint(1, 7))
        try:
            img = cm.apply_point(q)
            back = cm.inverse().apply_point(img)
        except PlaneError:
            continue
        # projective equality: cross products with q all vanish
        for i in range(3):
            for j in range(i + 1, 3):
                assert back[i] * q[j] == back[j] * q[i], (pts, q, back)
        done += 1


def test_cremona_degree_law_strict_transforms():
    # quadratic map: deg(image) = 2*deg - sum of multiplicities at the
    # base points
    cm = standard_cremona()
    conic_thru_all = curve("w0*w1 + w1*w2 + w0*w2")
    assert cremona_apply(cm, conic_thru_all).degree == 1
    conic_thru_none = curve("w0^2 + w1^2 + 17*w2^2 + w0*w1")
    assert cremona_apply(cm, conic_thru_none).degree == 4
    line_thru_one = curve("w0 - w1")  # passes through (0,0,1) only
    assert cremona_apply(cm, line_thru_one).degree == 1
    with pytest.raises(ContractedCurveError):
        cremona_apply(cm, curve("w2"))  # joins two base points


def test_cremona_apply_round_trip_curve():
    cm = cremona_from_points((1, 1, 1), (0, 1, 0), (1, 0, -1))
    c = curve("w0^3 + 2*w1^3 - w2^3 + w0*w1*w2")
    img = cremona_apply(cm, c)
    back = cremona_apply(cm.inverse(), img)
    assert back.poly == c.poly.primitive_normalized()


def test_cremona_validation():
    w0, w1, w2 = (MultiPoly.variable(W3, v) for v in W3)
    with pytest.raises(PlaneError, match="quadrics"):
        CremonaMap(slots=(w0, w1, w2), inverse_slots=(w0, w1, w2))
    with pytest.raises(PlaneError, match="dependent"):
        CremonaMap(slots=(w0 * w1, w0 * w1, w2 * w2),
                   inverse_slots=(w1 * w2, w0 * w2, w0 * w1))
    with pytest.raises(PlaneError, match="invert"):
        CremonaMap(slots=(w1 * w2, w0 * w2, w0 * w1),
                   inverse_slots=(w0 * w0, w1 * w1, w2 * w2))
    with pytest.raises(PlaneError, match="singular"):
        recombine_target(standard_cremona(),
                         ((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_cremona_validation_lines():
    std = standard_cremona()
    w0, w1, w2 = (MultiPoly.variable(W3, v) for v in W3)
    for wrong in ((w0, w1), (w0, w1, w0 + w2), (w0, w1, w2, w0 + w1),
                  (w0, w1, w2 * 2 + 1), ()):
        with pytest.raises(PlaneError, match="Jacobian"):
            CremonaMap(slots=std.slots, inverse_slots=std.inverse_slots,
                       lines=std.lines, inverse_lines=wrong)
    cm = cremona_from_points((1, 1, 1), (0, 1, 0), (1, 0, -1))
    with pytest.raises(PlaneError, match="Jacobian"):
        CremonaMap(slots=cm.slots, inverse_slots=cm.inverse_slots,
                   lines=cm.lines, inverse_lines=cm.lines)
    inv = cm.inverse()
    assert (inv.lines, inv.inverse_lines) == (cm.inverse_lines, cm.lines)


def _sympy_poly(p: MultiPoly):
    import sympy
    syms = sympy.symbols(W3)
    return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                           for e, c in p.terms.items()), sympy.S.Zero),
                      *syms, domain="QQ")


def _random_form(rng, degree):
    return MultiPoly(W3, {(i, j, degree - i - j): Fraction(rng.randint(-5, 5))
                          for i in range(degree + 1)
                          for j in range(degree + 1 - i)})


def _oracle_image(cmap, f: MultiPoly):
    """f o inverse_slots with every factor of the inverse's Jacobian
    removed, all in sympy."""
    import sympy
    syms = sympy.symbols(W3)
    psi = [_sympy_poly(q) for q in cmap.inverse_slots]
    one = sympy.Poly(1, *syms, domain="QQ")
    g = sum((one * sympy.Rational(c.numerator, c.denominator)
             * psi[0] ** e[0] * psi[1] ** e[1] * psi[2] ** e[2]
             for e, c in f.terms.items()), one * 0)
    r0, r1, r2 = ([q.diff(s) for s in syms] for q in psi)
    jac = (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
           - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
           + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))
    factors = [sympy.Poly(fac, *syms, domain="QQ")
               for fac, _ in sympy.factor_list(jac.as_expr())[1]]
    for fac in factors:
        q, r = g.div(fac)
        while r.is_zero:
            g = q
            q, r = g.div(fac)
    return g, factors


def _random_maps(rng, count):
    maps = []
    while len(maps) < count:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        mat = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        try:
            cm = cremona_from_points(*pts)
            maps += [cm, recombine_target(cm, mat)]
        except PlaneError:  # collinear points or a singular matrix
            continue
    return maps + [cm.inverse() for cm in maps]


def test_cremona_apply_matches_sympy_strict_transform():
    pytest.importorskip("sympy")
    rng = random.Random(47)
    for cm in _random_maps(rng, 4):
        # the listed lines are exactly the Jacobian's irreducible factors
        _, factors = _oracle_image(cm, _random_form(rng, 1))
        ours = [_sympy_poly(ln).monic() for ln in cm.inverse_lines]
        assert sorted(map(str, ours)) == sorted(
            str(fac.monic()) for fac in factors)
        # a general cubic, and curves h(slots) through every base point,
        # whose image is h itself once the contracted lines are peeled
        for f in (_random_form(rng, 3),
                  _random_form(rng, 1).substitute(dict(zip(W3, cm.slots))),
                  _random_form(rng, 2).substitute(dict(zip(W3, cm.slots)))):
            want, _ = _oracle_image(cm, f)
            got = _sympy_poly(cremona_apply(cm, PlaneCurve.make(f)).poly)
            assert (got * want.LC() - want * got.LC()).is_zero, (cm, f)


def test_chain_curves_pinned():
    from conicbundles.cli import sample_chain_instantiation
    tpl = load_fixture("u12_template.cb")
    pinned = {
        0: ("10*w0^2*w1^4 - 21*w0^2*w1^3*w2 + 28*w0^2*w1^2*w2^2"
            " - 16*w0^2*w1*w2^3 + 2*w0^2*w2^4 - 22*w0*w1^2*w2^3"
            " + 10*w0*w1*w2^4 + 12*w2^6",
            "10*w0^4 - 21*w0^3*w1 - 40*w0^3*w2 + 28*w0^2*w1^2"
            " + 82*w0^2*w1*w2 + 40*w0^2*w2^2 - 16*w0*w1^3 - 66*w0*w1^2*w2"
            " - 80*w0*w1*w2^2 + 2*w1^4 + 24*w1^3*w2 + 40*w1^2*w2^2",
            "10*w0^2 + 12*w0*w1 - 21*w0*w2 + 2*w1^2 - 16*w1*w2 + 16*w2^2"),
        3: ("19*w0^2*w1^4 - 82*w0^2*w1^3*w2 + 92*w0^2*w1^2*w2^2"
            " - 60*w0^2*w1*w2^3 + 20*w0^2*w2^4 + 48*w0*w1^2*w2^3"
            " - 4*w0*w1*w2^4 - 44*w2^6",
            "19*w0^4 - 82*w0^3*w1 - 76*w0^3*w2 + 92*w0^2*w1^2"
            " + 240*w0^2*w1*w2 + 76*w0^2*w2^2 - 60*w0*w1^3"
            " - 204*w0*w1^2*w2 - 152*w0*w1*w2^2 + 20*w1^4 + 40*w1^3*w2"
            " + 76*w1^2*w2^2",
            "19*w0^2 + 20*w0*w1 - 82*w0*w2 + 20*w1^2 - 60*w1*w2 + 72*w2^2"),
    }
    for seed, curves in pinned.items():
        ch = chain_U12(tpl, sample_chain_instantiation(tpl, seed))
        assert tuple(str(c.poly) for c in (ch.C1, ch.C2, ch.C3)) == curves


# -- scroll images ----------------------------------------------------------


def test_scroll_image_433222():
    model = scroll_image(load_fixture("remark433222.cb"))
    assert model.degree == 4
    assert model.poly.is_homogeneous()
    assert model.poly.total_degree() == 4
    assert model.multiple_lines == ((("z0", "z1"), 2),)
    assert model.chart_map == "[x0*y0 : x1*y0 : y1 : y2]"


def test_scroll_image_other_types():
    m6 = scroll_image(validate_bundle(random_bundle((2, 2, 0), 3)))
    assert m6.degree == 6 and m6.poly.total_degree() == 6
    assert m6.multiple_lines == ((("z0", "z3"), 4), (("z1", "z3"), 2))
    m8 = scroll_image(validate_bundle(random_bundle((4, 0, 0), 3)))
    assert m8.degree == 8 and m8.poly.total_degree() == 8
    assert m8.multiple_lines == ((("z0", "z3"), 6),)


def test_scroll_unsupported_weights():
    cb = validate_bundle(random_bundle((3, 1, 0), 0))
    with pytest.raises(UnsupportedWeights, match="scroll"):
        scroll_image(cb)


# -- the reduction chain -----------------------------------------------------


def test_chain_hand_instance():
    tpl = load_fixture("u12_template.cb")
    ch = chain_U12(tpl, CHAIN_FREES)
    assert ch.degrees == (8, 6, 4, 2)
    assert ch.delta == 2
    assert ch.q_multiplicity == 6
    # tangent cone at the deep point is a scalar times w2^6
    assert list(ch.q_tangent_cone.terms) == [(0, 0, 6)]
    assert ch.double_points == CHAIN_DOUBLE_POINTS
    # dependent coefficients fixed by the locus relations
    assert ch.coefficients["a0"] == 2
    assert ch.coefficients["a1"] == 2
    assert ch.coefficients["a2"] == -1
    assert ch.coefficients["b0"] == -4
    assert ch.coefficients["b1"] == -4
    # final conic against the closed-form coefficient display
    v = ch.coefficients
    D = ch.delta
    shown = (Fraction(1), -v["a5"] / D, v["a6"] / D,
             (-2 * v["a4"] + v["a5"] - 4 * v["a6"]
              - v["b2"] / 2 - v["c2"] / 2) / D,
             (v["a5"] - 2 * v["a6"]) / D,
             (v["a4"] - v["a5"] + 3 * v["a6"]) / D)
    got = ConicQ.from_curve(ch.C3).coeffs
    assert tuple(c / got[0] for c in got) == shown


def test_chain_multiplicity_drop_along_maps():
    tpl = load_fixture("u12_template.cb")
    ch = chain_U12(tpl, CHAIN_FREES)
    m1, _ = multiplicity_at(ch.C.poly, CHAIN_Q)
    assert m1 == 6
    for pt in CHAIN_DOUBLE_POINTS:
        m, _ = multiplicity_at(ch.C.poly, pt)
        assert m == 2


def test_chain_degenerations():
    tpl = load_fixture("u12_template.cb")
    off_slice = dict(CHAIN_FREES, b3=1, c3=0)
    with pytest.raises(PlaneError, match="b3 \\+ c3"):
        chain_U12(tpl, off_slice)
    no_delta = dict(CHAIN_FREES, a4=-1)
    with pytest.raises(PlaneError, match="Delta = 0"):
        chain_U12(tpl, no_delta)
    sharp = dict(CHAIN_FREES, d0=0)
    with pytest.raises(PlaneError, match="d0 \\+ g0 \\+ h0"):
        chain_U12(tpl, sharp)


def test_chain_input_checks():
    with pytest.raises(PlaneError, match="weights"):
        chain_U12(load_fixture("remark433222.cb"))
    with pytest.raises(PlaneError, match="instantiate"):
        chain_U12(load_fixture("u12_template.cb"))


def test_u12_relations_checker():
    tpl = load_fixture("u12_template.cb")
    from conicbundles.bundles import instantiate
    cb = instantiate(tpl, CHAIN_FREES)
    coeffs = u12_coefficients(cb)
    assert u12_delta(coeffs) == 2
    chain_U12(cb)  # the relations hold
    broken = dict(coeffs)
    broken["a0"] += 1
    with pytest.raises(PlaneError, match="relation violated: a0 = 3 but "
                                         "the relations force 2$"):
        chain_U12(bundle_from_coefficients((4, 0, 0), broken))


# -- conics over Q -----------------------------------------------------------


def test_conicq_order_and_value():
    c = ConicQ((1, 2, 3, 4, 5, 6))
    assert c.form().alpha == (1, 2, 4, 3, 5, 6)
    pt = (Fraction(1), Fraction(-1), Fraction(2))
    assert c.value(pt) == c.poly().evaluate(dict(zip(W3, pt)))
    with pytest.raises(PlaneError, match="not a conic"):
        ConicQ.from_curve(curve("w0 + w1"))
    with pytest.raises(ValueError):
        ConicQ((0, 0, 0, 0, 0, 0))
    assert ConicQ((1, 0, 1, 0, 0, 1)).form().discriminant() == 1


def test_hilbert_symbol_values():
    assert hilbert_symbol(1, 1, 7) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(2, 2, 2) == 1  # 2x^2 + 2y^2 = z^2 at (1,1,2)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)


def test_hilbert_product_formula():
    rng = random.Random(41)
    for _ in range(60):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12))
        places = {"inf", 2}
        for q in (a, b):
            m = abs(q.numerator * q.denominator)
            d = 2
            while d * d <= m:
                while m % d == 0:
                    places.add(d)
                    m //= d
                d += 1
            if m > 1:
                places.add(m)
        prod = 1
        for pl in places:
            prod *= hilbert_symbol(a, b, pl)
        assert prod == 1, (a, b)


def test_conic_point_obstructed():
    res = conic_has_point(ConicQ((1, 0, 1, 0, 0, 1)))
    assert res.status == "obstructed"
    assert res.obstructions == ("inf", "2")


def test_conic_point_found():
    res = conic_has_point(ConicQ((1, 0, 1, 0, 0, -1)))
    assert res.status == "point" and res.point == (0, 1, -1)
    res2 = conic_has_point(ConicQ((1, -2, 3, -2, 1, 1)))
    assert res2.status == "point" and res2.point == (1, 0, 1)
    res3 = conic_has_point(ConicQ((1, -2, 3, 2, 1, 1)))
    assert res3.status == "point" and res3.point == (1, 0, -1)
    for r, c in ((res, (1, 0, 1, 0, 0, -1)), (res2, (1, -2, 3, -2, 1, 1)),
                 (res3, (1, -2, 3, 2, 1, 1))):
        assert ConicQ(c).value(r.point) == 0


def test_conic_point_degenerate_and_coordinate():
    res = conic_has_point(ConicQ((1, 0, 1, 0, 0, 0)))
    assert res.status == "point" and res.point == (0, 0, 1)
    assert "degenerate" in res.note
    res2 = conic_has_point(ConicQ((0, 1, 1, 0, 0, 1)))
    assert res2.status == "point" and res2.point == (1, 0, 0)


# -- tangent plane sections ---------------------------------------------------


def test_tangent_section_remark_instance():
    data = tangent_2section_433222(load_fixture("remark433222.cb"))
    zv = data.X4.poly.vars
    want = (MultiPoly.variable(zv, "z2")
            + MultiPoly.variable(zv, "z3")).primitive_normalized()
    assert data.tangent_plane == want
    assert data.multiplicities == (2, 2, 2)
    assert data.note == ""
    assert data.C4.degree == 4
    assert data.cremona_image.coeffs == (1, -2, 3, 2, 1, 1)
    res = conic_has_point(data.cremona_image)
    assert res.status == "point" and res.point == (1, 0, -1)


def test_tangent_section_second_instance():
    cb = validate_bundle(make_bundle(
        (2, 1, 1),
        ("x0^2*x1^2", "x0^3 - x1^3", "x0^3 - x1^3",
         "-2*x0^2 - 2*x0*x1 + 2*x1^2", "-2*x0^2 + 2*x1^2",
         "-2*x0^2 + 2*x0*x1 - x1^2")))
    data = tangent_2section_433222(cb)
    assert data.multiplicities == (2, 2, 2)
    assert data.cremona_image.coeffs == (1, 0, -2, 0, 0, -1)
    assert conic_has_point(data.cremona_image).status == "point"


def test_tangent_section_split_note():
    cb = validate_bundle(make_bundle(
        (2, 1, 1),
        ("-x0^2*x1^2", "x0^3 + 2*x1^3", "-x0^3 - 2*x1^3",
         "0", "-x0^2 - 2*x0*x1 + 2*x1^2", "x0^2 + 2*x0*x1 - 2*x1^2")))
    data = tangent_2section_433222(cb)
    assert max(data.multiplicities) >= 3
    assert data.cremona_image is None
    assert "splits into two sections" in data.note


def test_tangent_section_preconditions():
    with pytest.raises(PlaneError, match="weights"):
        tangent_2section_433222(validate_bundle(random_bundle((4, 0, 0), 1)))
    with pytest.raises(PlaneError, match="must vanish"):
        tangent_2section_433222(validate_bundle(make_bundle(
            (2, 1, 1), ("x0^4", "x0^3", "x0^3", "x1^2", "0", "x1^2"))))
    with pytest.raises(PlaneError, match="b0 = 0"):
        tangent_2section_433222(validate_bundle(make_bundle(
            (2, 1, 1), ("x0^2*x1^2", "x1^3", "x0^3", "x1^2", "0", "x1^2"))))
    with pytest.raises(PlaneError, match="tangent planes differ"):
        tangent_2section_433222(validate_bundle(make_bundle(
            (2, 1, 1), ("x0^2*x1^2", "x0^3", "x1^3", "x1^2", "0", "x1^2"))))
