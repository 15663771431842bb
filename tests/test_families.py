"""Coefficient families: namings, total-space automorphisms and their
orbit maps, the special loci with their dominance ranks, deformation
counts, splitting-type degenerations."""

import random
from fractions import Fraction
from importlib.resources import files

import pytest

from conicbundles.bundles import (
    dehomogenize,
    discriminant_form,
    instantiate,
    make_bundle,
    parse_bundle_text,
    random_bundle,
    validate_bundle,
)
from conicbundles import families
from conicbundles.exactmath import Jet, is_squarefree, parse_poly
from conicbundles.exactmath.univariate import as_univariate
from conicbundles.families import (
    DEGENERATION_PAIRS,
    LOCI,
    AutParams,
    FamiliesError,
    bundle_coefficients,
    bundle_from_coefficients,
    chart_coordinates,
    coefficient_names,
    coefficient_vector,
    deformation_table,
    dominance_report,
    first_violation,
    generic_bundle,
    group_columns,
    jacobian_rank_at_identity,
    locus,
    locus_member,
    pullback,
    theorem_310_400_hypotheses,
    verify_degeneration,
)

ALL_WEIGHTS = ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))


def flat_names(w):
    return tuple(n for blk in coefficient_names(w) for n in blk)


def on_locus(spec, cb):
    """Exact membership of a numeric bundle: the weights, then every
    relation of the table."""
    return cb.weights.tuple == spec.weights and first_violation(
        spec, bundle_coefficients(cb)) is None


# -- namings ---------------------------------------------------------------


def test_coefficient_names_shapes():
    sizes = {(2, 1, 1): (5, 4, 4, 3, 3, 3),
             (2, 2, 0): (5, 5, 3, 5, 3, 1),
             (3, 1, 0): (7, 5, 4, 3, 2, 1),
             (4, 0, 0): (9, 5, 5, 1, 1, 1)}
    for w, sz in sizes.items():
        names = coefficient_names(w)
        assert tuple(len(b) for b in names) == sz
        assert len(flat_names(w)) == 22
        assert names[0][0] == "a0"


def test_coefficient_names_errors():
    with pytest.raises(FamiliesError, match="naming"):
        coefficient_names((1, 1, 1))


def test_generic_bundle_round_trip():
    rng = random.Random(51)
    for w in ALL_WEIGHTS:
        gen = generic_bundle(w)
        assert gen.params == flat_names(w)
        validate_bundle(gen)
        values = {nm: Fraction(rng.randint(-9, 9)) for nm in gen.params}
        cb = instantiate(gen, values)
        assert bundle_coefficients(cb) == values
        assert coefficient_vector(cb) == tuple(values[nm]
                                               for nm in gen.params)
        rebuilt = bundle_from_coefficients(w, values)
        assert rebuilt.sigma == cb.sigma


def test_bundle_coefficients_guards():
    with pytest.raises(FamiliesError, match="numeric"):
        bundle_coefficients(generic_bundle((2, 1, 1)))
    lopsided = make_bundle((2, 1, 1), ("x0^3", "0", "0", "0", "0", "0"))
    with pytest.raises(FamiliesError, match="not a form of degree 4"):
        bundle_coefficients(lopsided)


# -- automorphism parameters -------------------------------------------------


def test_chart_sizes():
    assert len(chart_coordinates((2, 1, 1))) == 11
    assert len(chart_coordinates((2, 2, 0))) == 13
    assert len(chart_coordinates((4, 0, 0))) == 17
    for w in ((2, 1, 1), (2, 2, 0), (4, 0, 0)):
        assert "alpha00" not in chart_coordinates(w)
        assert "beta00" not in chart_coordinates(w)
    with pytest.raises(FamiliesError, match="chart"):
        chart_coordinates((3, 1, 0))


def test_aut_create_and_identity():
    ident = AutParams.identity((2, 1, 1))
    assert ident.entry("gamma11") == 1 and ident.entry("delta11") == 0
    g = AutParams.create((2, 1, 1), {"alpha01": 2})
    assert g.entry("alpha01") == 2 and g.entry("alpha00") == 1
    with pytest.raises(FamiliesError, match="unknown entry"):
        AutParams.create((2, 1, 1), {"zeta": 1})


def test_pullback_identity_fixes_bundle():
    for w in ((2, 1, 1), (2, 2, 0), (4, 0, 0)):
        cb = validate_bundle(random_bundle(w, 5))
        out = pullback(AutParams.identity(w), cb)
        assert out.sigma == cb.sigma


def test_pullback_x_swap_reverses_blocks():
    cb = validate_bundle(random_bundle((2, 1, 1), 6))
    swap = AutParams.create((2, 1, 1), {"alpha00": 0, "alpha01": 1,
                                        "alpha10": 1, "alpha11": 0})
    got = bundle_coefficients(pullback(swap, cb))
    v = bundle_coefficients(cb)
    degs = {"a": 4, "b": 3, "c": 3, "d": 2, "g": 2, "h": 2}
    for prefix, d in degs.items():
        for k in range(d + 1):
            assert got["%s%d" % (prefix, k)] == v["%s%d" % (prefix, d - k)]


def test_pullback_y0_scaling():
    cb = validate_bundle(random_bundle((2, 1, 1), 7))
    scale = AutParams.create((2, 1, 1), {"beta00": 3})
    got = bundle_coefficients(pullback(scale, cb))
    v = bundle_coefficients(cb)
    for nm, val in v.items():
        factor = 9 if nm.startswith("a") else \
            3 if nm[0] in ("b", "c") else 1
        assert got[nm] == factor * val, nm


def test_pullback_weight_mismatch():
    cb = validate_bundle(random_bundle((2, 2, 0), 1))
    with pytest.raises(FamiliesError, match="cannot act"):
        pullback(AutParams.identity((2, 1, 1)), cb)
    with pytest.raises(FamiliesError, match="det alpha"):
        pullback(AutParams.create((2, 2, 0), {"alpha11": 0}), cb)


# -- loci ---------------------------------------------------------------------


def test_locus_lookup():
    assert locus("U12").dimension == 13
    assert locus("U12").weights == (4, 0, 0)
    assert locus("U_433222").dimension == 17
    # the loci are listed in table order, as the CLI lists them
    with pytest.raises(FamiliesError, match=r"unknown locus 'U_nope' "
                       r"\(choose from U_433222, U_442420, U_c2zero, U12\)"):
        locus("U_nope")


def test_locus_members_deterministic_and_admissible():
    for name, spec in sorted(LOCI.items()):
        cb1 = locus_member(spec, 0)
        cb2 = locus_member(spec, 0)
        assert cb1.sigma == cb2.sigma
        assert cb1.weights.tuple == spec.weights
        assert on_locus(spec, cb1)
        # admissibility oracle: affine discriminant square-free of
        # degree 8
        _, cs = as_univariate(dehomogenize(discriminant_form(cb1)), "t")
        assert len(cs) - 1 == 8 and is_squarefree(cs)


def test_locus_contains_rejects():
    spec = locus("U_433222")
    off = dict.fromkeys(flat_names((2, 1, 1)), Fraction(0))
    off.update(a1=Fraction(1), b0=Fraction(1), h0=Fraction(1))
    assert not on_locus(spec, bundle_from_coefficients((2, 1, 1), off))
    wrong_type = validate_bundle(random_bundle((2, 2, 0), 2))
    assert not on_locus(spec, wrong_type)


def test_locus_tables_are_triangular():
    # each row is linear in its dependent and mentions only free names
    # and earlier dependents, so the table solves top to bottom
    for spec in LOCI.values():
        names = flat_names(spec.weights)
        known = set(spec.free)
        for dep, text in spec.relations:
            rel = parse_poly(text, names)
            assert dep not in known, (spec.name, dep)
            assert rel.degree_in(dep) == 1, (spec.name, dep)
            assert rel.used_vars() <= known | {dep}, (spec.name, dep)
            known.add(dep)
        assert known == set(names)
        assert spec.dimension == len(names) - len(spec.relations)


def test_u12_template_is_the_u12_table():
    text = (files("conicbundles") / "fixtures" / "u12_template.cb").read_text()
    tpl = validate_bundle(parse_bundle_text(text))
    spec = locus("U12")
    assert tpl.params == spec.free
    rng = random.Random(12)
    for _ in range(10):
        draw = {p: Fraction(rng.randint(-9, 9)) for p in tpl.params}
        assert instantiate(tpl, draw).sigma == bundle_from_coefficients(
            (4, 0, 0), spec.solve(draw)).sigma


# -- dominance -----------------------------------------------------------------


def test_dominance_full_rank_per_locus():
    expected_cols = {"U_433222": (11, 17), "U_442420": (13, 19),
                     "U_c2zero": (17, 21), "U12": (17, 13)}
    for name in LOCI:
        rep = dominance_report(name, 0)
        chart, locdim = expected_cols[name]
        assert rep.chart_size == chart
        assert rep.locus_dims == locdim
        assert rep.columns == chart + locdim
        assert rep.expected == 21
        assert rep.rank == 21
        assert rep.ok


def pullback_group_columns(cb, chart):
    """The group columns by substitution: the eps-parts of the
    coefficient vector pulled back along each chart coordinate moved
    off the identity by a dual number."""
    w = cb.weights.tuple
    ident = AutParams.identity(w).entries
    f0 = coefficient_vector(cb)
    cols = []
    for nm in chart:
        aut = AutParams.create(w, {nm: Jet(ident[nm], 1)})
        jets = [Jet.lift(c) for c in coefficient_vector(pullback(aut, cb))]
        assert tuple(j.val for j in jets) == f0
        cols.append(tuple(j.eps for j in jets))
    return cols


# seeds 3044 and 8041 (U_442420) and 14020 (U_433222) sample members
# of rank 20
ORACLE_SEEDS = tuple(range(10)) + (3044, 8041, 14020)


def test_group_columns_equal_pullback_eps_parts():
    for name in LOCI:
        spec = locus(name)
        chart = chart_coordinates(spec.weights)
        for seed in ORACLE_SEEDS:
            cb = locus_member(spec, seed)
            assert group_columns(cb, chart) == \
                pullback_group_columns(cb, chart), (name, seed)


def test_dominance_runs_without_pullback(monkeypatch):
    def refuse(*args):
        raise AssertionError("pullback reached")
    monkeypatch.setattr(families, "pullback", refuse)
    rep = dominance_report("U12", 0)
    assert rep.rank == 21 and rep.ok


def test_dominance_rejects_singular_locus_point():
    # b0 = c0 = b3 = c3 = 0 lies on b0*c3 - c0*b3 = 0, where the
    # relation's gradient vanishes: the kernel outgrows the free names
    vals = dict.fromkeys(flat_names((2, 1, 1)), Fraction(0))
    vals.update(a2=Fraction(1), d0=Fraction(1), g1=Fraction(2),
                h2=Fraction(3))
    cb = bundle_from_coefficients((2, 1, 1), vals)
    with pytest.raises(FamiliesError, match="tangent space of dimension "
                                            "18, expected 17"):
        jacobian_rank_at_identity(locus("U_433222"), cb)


def test_rank_deficit_at_special_members(monkeypatch):
    # both column constructions see the deficit, so the rank is right
    # and the sampled member is special
    for name, seed in (("U_442420", 3044), ("U_433222", 14020)):
        assert dominance_report(name, seed).rank == 20
        with monkeypatch.context() as m:
            m.setattr(families, "group_columns", pullback_group_columns)
            assert dominance_report(name, seed).rank == 20


def test_dominance_c2zero_always_falls_back():
    rep = dominance_report("U_c2zero", 1)
    assert rep.fallback and rep.normal_index == 20


def test_rank_check_guards():
    spec = locus("U_433222")
    with pytest.raises(FamiliesError, match="not on locus"):
        jacobian_rank_at_identity(spec, validate_bundle(
            random_bundle((2, 1, 1), 3)))
    with pytest.raises(FamiliesError, match="numeric"):
        jacobian_rank_at_identity(spec, generic_bundle((2, 1, 1)))
    with pytest.raises(FamiliesError, match="weights"):
        jacobian_rank_at_identity(spec, validate_bundle(
            random_bundle((2, 2, 0), 3)))


# -- deformation counts ---------------------------------------------------------


def test_deformation_rows():
    rows = {(2, 1, 1): (0, 21, 0), (2, 2, 0): (2, 21, 0),
            (3, 1, 0): (3, 21, 0), (4, 0, 0): (6, 21, 0)}
    for w, (h1e, h0n, h1n) in rows.items():
        t = deformation_table(w)
        assert (t.h1_end, t.h0_normal, t.h1_normal) == (h1e, h0n, h1n)


def test_deformation_balanced_iff_unobstructed():
    for a0 in range(5):
        for a1 in range(a0 + 1):
            for a2 in range(a1 + 1):
                t = deformation_table((a0, a1, a2))
                assert (t.h1_end == 0) == (a0 - a2 <= 1)


# -- degenerations ----------------------------------------------------------------


# captured before the degenerations became one table
_MAP_LABELS = [
    "rank-one rows on the source map",
    "rank-one rows on the target map",
    "pullback along the source map is the generic source family",
]
DEGENERATION_LABELS = {
    "211->220": [
        "projection of the big source embedding recovers the source map "
        "(factor x1)",
        "projection of the big target embedding recovers the target map "
        "(factor x1)",
        "rank-one rows on the source embedding (big)",
        "rank-one rows on the target embedding (big)",
    ] + _MAP_LABELS + [
        "dictionary sigma00", "specialized degree sigma00 = 4",
        "dictionary sigma01", "specialized degree sigma01 = 4",
        "dictionary sigma02", "specialized degree sigma02 = 2",
        "dictionary sigma11", "specialized degree sigma11 = 4",
        "dictionary sigma12", "specialized degree sigma12 = 2",
        "dictionary sigma22", "specialized degree sigma22 = 0",
    ],
    "220->310": _MAP_LABELS + [
        "dictionary sigma00", "specialized degree sigma00 = 6",
        "dictionary sigma01", "specialized degree sigma01 = 4",
        "dictionary sigma02", "specialized degree sigma02 = 3",
        "dictionary sigma11", "specialized degree sigma11 = 2",
        "dictionary sigma12", "specialized degree sigma12 = 1",
        "dictionary sigma22", "specialized degree sigma22 = 0",
    ],
    "310->400": _MAP_LABELS + [
        "dictionary sigma00", "specialized degree sigma00 = 8",
        "dictionary sigma01", "specialized degree sigma01 = 4",
        "dictionary sigma02", "specialized degree sigma02 = 4",
        "dictionary sigma11", "specialized degree sigma11 = 0",
        "dictionary sigma12", "specialized degree sigma12 = 0",
        "dictionary sigma22", "specialized degree sigma22 = 0",
    ],
}


def test_degeneration_reports_all_ok():
    assert DEGENERATION_PAIRS == tuple(DEGENERATION_LABELS)
    for pair in DEGENERATION_PAIRS:
        rep = verify_degeneration(pair)
        assert rep.ok, rep.failures()
        assert [c.label for c in rep.checks] == DEGENERATION_LABELS[pair]
        assert rep.pair == pair


def test_degeneration_name_normalization():
    rep = verify_degeneration("211 -> 220")
    assert rep.pair == "211->220"
    rep2 = verify_degeneration("220→310")
    assert rep2.pair == "220->310"
    with pytest.raises(FamiliesError, match="unknown degeneration"):
        verify_degeneration("400->211")


def test_degeneration_endpoint_weights():
    rep = verify_degeneration("310->400")
    assert rep.source == (3, 1, 0) and rep.target == (4, 0, 0)


# -- specialization hypotheses ------------------------------------------------------


def test_theorem_310_400_hypotheses():
    vals = dict.fromkeys(flat_names((3, 1, 0)), Fraction(0))
    vals.update(a0=Fraction(1), h0=Fraction(2), c0=Fraction(1),
                d0=Fraction(1))
    cb = bundle_from_coefficients((3, 1, 0), vals)
    hyp = theorem_310_400_hypotheses(cb)
    assert hyp.s_condition
    assert hyp.square_value == 1 and hyp.square_condition
    assert hyp.satisfied
    vals2 = dict(vals, d0=Fraction(0), g0=Fraction(1))
    hyp2 = theorem_310_400_hypotheses(
        bundle_from_coefficients((3, 1, 0), vals2))
    assert hyp2.square_value == -1 and not hyp2.satisfied
    with pytest.raises(FamiliesError, match="weights"):
        theorem_310_400_hypotheses(validate_bundle(random_bundle((4, 0, 0),
                                                                 2)))
