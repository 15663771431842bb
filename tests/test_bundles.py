"""Bundle container: weights, degree compatibilities, discriminants,
enumeration, file round-trip, seeded sampling."""

import random
from fractions import Fraction

import pytest

from conicbundles.bundles import (
    BundleError,
    ConicBundle,
    Multidegree,
    Weights,
    alcuin_count,
    alcuin_count_closed,
    bundle_equation,
    bundle_to_text,
    dehomogenize,
    discriminant,
    discriminant_form,
    instantiate,
    load_bundle,
    make_bundle,
    multidegrees_for_discriminant,
    parse_bundle_text,
    random_bundle,
    validate_bundle,
)
from conicbundles.exactmath import MultiPoly, mat_det

TYPES = ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))


def test_weights_ordering_enforced():
    assert Weights(2, 1, 1).tuple == (2, 1, 1)
    with pytest.raises(BundleError):
        Weights(1, 2, 1)
    with pytest.raises(BundleError):
        Weights(2, 1, -1)


def test_multidegree_from_weights():
    md = Multidegree.from_weights(Weights(2, 1, 1), 0)
    assert md.tuple == (4, 3, 3, 2, 2, 2)
    assert md.diagonal == (4, 2, 2)
    assert md.total == 8


def test_validate_rejects_degree_mismatch():
    cb = make_bundle((2, 1, 1), ("x0^4", "0", "0", "x0^3", "0", "x1^2"))
    with pytest.raises(BundleError, match="sigma11"):
        validate_bundle(cb)


def test_validate_normalizes_even_shift():
    # every form two degrees above the m = 0 profile: weights go up one
    cb = validate_bundle(make_bundle((2, 1, 1),
                                     ("x0^6", "x0^5", "x0^5", "x0^4",
                                      "x0^4", "x0^4")))
    assert cb.weights.tuple == (3, 2, 2)
    assert cb.shift() == 0


def test_validate_keeps_odd_shift():
    cb = validate_bundle(make_bundle((2, 1, 1),
                                     ("x0^5", "x0^4", "x0^4", "x0^3",
                                      "x0^3", "x0^3")))
    assert cb.weights.tuple == (2, 1, 1)
    assert cb.shift() == 1


def test_zero_diagonal_flags_section():
    cb = validate_bundle(make_bundle((4, 0, 0),
                                     ("0", "x0^4", "0", "1", "0", "-1")))
    assert cb.has_flag("rational-by-section")


def test_identically_zero_discriminant_flagged():
    cb = validate_bundle(make_bundle((4, 0, 0),
                                     ("x0^8", "0", "0", "0", "0", "0")))
    assert cb.has_flag("degenerate-discriminant")
    assert discriminant(cb).degenerate


def test_discriminant_of_diagonal_bundle():
    cb = make_bundle((4, 0, 0), ("x0^8 + x1^8", "0", "0", "2", "0", "-1"))
    dd = discriminant(cb)
    s00 = cb.s(0, 0)
    assert dd.delta_homogeneous == s00 * (-2)
    assert dd.degree == 8 == dd.expected_degree


def test_discriminant_is_half_gram_determinant():
    # oracle: 3x3 determinant of the symmetric matrix with halved
    # off-diagonal entries, computed by mat_det over polynomials
    rng = random.Random(5)
    half = Fraction(1, 2)
    for wt in TYPES:
        for trial in range(5):
            cb = random_bundle(wt, seed=100 * trial + 7)
            s00, s01, s02, s11, s12, s22 = cb.sigma
            gram = [[s00, s01 * half, s02 * half],
                    [s01 * half, s11, s12 * half],
                    [s02 * half, s12 * half, s22]]
            zero = MultiPoly.zero(("x0", "x1"))
            det = zero
            for (i, j, k), sgn in ((((0, 1, 2)), 1), ((1, 2, 0), 1),
                                   ((2, 0, 1), 1), ((2, 1, 0), -1),
                                   ((1, 0, 2), -1), ((0, 2, 1), -1)):
                term = gram[0][i] * gram[1][j] * gram[2][k]
                det = det + (term if sgn > 0 else -term)
            assert discriminant_form(cb) == det


def test_instantiate_requires_all_params():
    cb = make_bundle((4, 0, 0), ("u*x0^8", "0", "0", "1", "0", "v"),
                     params=("u", "v"))
    with pytest.raises(BundleError, match="v"):
        instantiate(cb, {"u": 1})
    num = instantiate(cb, {"u": 2, "v": -1})
    assert not num.params
    assert num.s(0, 0).coeff((8, 0)) == 2


def test_bundle_equation_recovers_sigma():
    cb = make_bundle((2, 1, 1), ("x0^4", "x0^3", "x1^3", "x0^2", "x1^2",
                                 "x0*x1"))
    eq = bundle_equation(cb)
    at_y0 = eq.substitute({"y0": MultiPoly.const(eq.vars, 1),
                           "y1": MultiPoly.zero(eq.vars),
                           "y2": MultiPoly.zero(eq.vars)})
    assert at_y0.drop_unused(("x0", "x1")) == cb.s(0, 0)


def test_dehomogenize_sends_x0_power_to_t_power():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randint(1, 6)
        terms = {(k, d - k): Fraction(rng.randint(-5, 5))
                 for k in range(d + 1)}
        p = MultiPoly(("x0", "x1"), {e: c for e, c in terms.items() if c})
        if p.is_zero():
            continue
        aff = dehomogenize(p)
        assert aff.vars == ("t",)
        assert aff.terms == {(k,): c for (k, _), c in terms.items() if c}


# -- enumeration --------------------------------------------------------

def brute_alcuin(n):
    return sum(1 for a in range(n + 1) for b in range(n + 1)
               if (n - 2 * a - 3 * b) >= 0 and (n - 2 * a - 3 * b) % 4 == 0)


def test_alcuin_count_small_values():
    # series coefficients of 1/((1-q^2)(1-q^3)(1-q^4))
    assert [alcuin_count(n) for n in range(9)] == [1, 0, 1, 1, 2, 1, 3, 2, 4]


def test_alcuin_count_matches_bruteforce():
    for n in range(41):
        assert alcuin_count(n) == brute_alcuin(n)
        assert alcuin_count_closed(n) == alcuin_count(n)


def test_multidegree_enumeration_degree_eight():
    rows = multidegrees_for_discriminant(8)
    assert [w.tuple for w, _ in rows] == [(2, 1, 1), (2, 2, 0), (3, 1, 0),
                                          (4, 0, 0)]
    assert [md.tuple for _, md in rows] == [
        (4, 3, 3, 2, 2, 2), (4, 4, 2, 4, 2, 0), (6, 4, 3, 2, 1, 0),
        (8, 4, 4, 0, 0, 0)]


def test_multidegree_enumeration_counts():
    for n in range(26):
        rows = multidegrees_for_discriminant(n)
        assert len(rows) == alcuin_count(n)
        for w, md in rows:
            assert md.total == n
            assert Multidegree.from_weights(w, md.d00 % 2) == md


# -- files and sampling --------------------------------------------------

def test_text_round_trip_random():
    for wt in TYPES:
        cb = random_bundle(wt, seed=3)
        back = parse_bundle_text(bundle_to_text(cb))
        assert validate_bundle(back).sigma == cb.sigma


def test_parse_errors():
    with pytest.raises(BundleError, match="weights"):
        parse_bundle_text("sigma00 = x0^2\n")
    with pytest.raises(BundleError, match="duplicate"):
        parse_bundle_text("weights = 2 1 1\n" + "sigma00 = x0^4\n" * 2
                          + "sigma01 = 0\nsigma02 = 0\nsigma11 = 0\n"
                          + "sigma12 = 0\nsigma22 = 0\n")
    with pytest.raises(BundleError, match="missing"):
        parse_bundle_text("weights = 2 1 1\nsigma00 = x0^4\n")


def test_parse_comments_and_params(tmp_path):
    text = ("# header\nweights = 4 0 0\nparams = u\n"
            "sigma00 = u*x0^8  # trailing\nsigma01 = 0\nsigma02 = 0\n"
            "sigma11 = 1\nsigma12 = 0\nsigma22 = -1\n")
    path = tmp_path / "b.cb"
    path.write_text(text)
    cb = load_bundle(path)
    assert cb.params == ("u",)
    assert cb.s(0, 0).coeff((8, 0, 1)) == 1


def test_random_bundle_deterministic_and_squarefree():
    for wt in TYPES:
        a = random_bundle(wt, seed=11)
        b = random_bundle(wt, seed=11)
        assert a.sigma == b.sigma
        c = random_bundle(wt, seed=12)
        assert c.sigma != a.sigma
        dd = discriminant(a)
        assert dd.degree == dd.expected_degree == 8
