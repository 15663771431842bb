"""Command-line contracts of all eleven commands (validate,
discriminant, diagonalization, residues, enumerate, cohomology,
dominance, Cremona chain, degenerate, conic-point and Mestre normal
form), and of the flags each command accepts."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from conicbundles.brauer import no_section_certificate, t_text
from conicbundles.bundles import (
    BundleError,
    bundle_to_text,
    parse_bundle_text,
    random_bundle,
    validate_bundle,
)
from conicbundles.cli import (
    EXIT_DEGENERATE,
    EXIT_INVALID,
    EXIT_NO_CERTIFICATE,
    EXIT_OK,
    main,
)
from conicbundles.families import DEGENERATION_PAIRS, LOCI
from conicbundles.plane import ConicQ
from conicbundles.quadforms import brauer_model


def fixture_path(name):
    return str(files("conicbundles") / "fixtures" / name)


def run_json(capsys, argv):
    code = main(argv + ["--output", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_parametric_bundle_rejected_at_once(capsys):
    path = fixture_path("u12_template.cb")
    for cmd in ("residues", "diagonalize", "mestre"):
        code, payload = run_json(capsys, [cmd, path])
        assert code == EXIT_INVALID
        assert payload["exit_code"] == EXIT_INVALID
        assert payload["error"].endswith("needs a numeric bundle")


def assert_reruns_identical(capsys, argv, code):
    """The command exits with `code` and prints the same bytes twice,
    as JSON and as text."""
    for run in (argv + ["--output", "json"], argv):
        outs = []
        for _ in range(2):
            assert main(run) == code
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]


def test_parametric_bundle_rejected_by_the_library(monkeypatch):
    # the model needs a numeric bundle: BundleError before any gcd runs
    import conicbundles.exactmath.ratfunc as ratfunc

    def no_gcd(a, b):
        raise AssertionError("a gcd ran on a parametric bundle")

    monkeypatch.setattr(ratfunc, "poly_gcd", no_gcd)
    cb = validate_bundle(parse_bundle_text(
        (files("conicbundles") / "fixtures" / "u12_template.cb").read_text()))
    for fn in (brauer_model, no_section_certificate):
        with pytest.raises(BundleError, match="numeric"):
            fn(cb)


def test_residues_certificate_matches_search(capsys):
    for name in ("min844.cb", "remark433222.cb"):
        path = fixture_path(name)
        code, payload = run_json(capsys, ["residues", path])
        assert code == EXIT_OK
        text = (files("conicbundles") / "fixtures" / name).read_text()
        cert = no_section_certificate(validate_bundle(parse_bundle_text(text)))
        assert payload["certificate"] == {
            "place": str(cert.place),
            "residue": t_text(cert.residue.normalized()),
            "prime": cert.witness.p,
            "root": cert.witness.root,
            "warnings": list(cert.warnings),
        }
        # the table still lists every place, the certificate's among them
        places = [row["place"] for row in payload["residues"]]
        assert places[-1] == "inf"
        assert str(cert.place) in places
        assert main(["residues", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "certificate: %s" % cert.serialize()


# captured before residues became coefficient tuples: linear places,
# places of degree 5 and 8, and infinity
RESIDUES_TEXT = {
    "min844.cb": [
        "a = t^8 - 28*t^7 + 322*t^6 - 1960*t^5 + 6769*t^4 - 13132*t^3"
        " + 13068*t^2 - 5040*t",
        "b = 2",
        "pivot: (0, 1, 2)",
    ] + ["place %s: v(a) = 1, v(b) = 0, residue 1/2" % p
         for p in ("t", "t - 1", "t - 2", "t - 3", "t - 4", "t - 5",
                   "t - 6", "t - 7")] + [
        "place inf: v(a) = -8, v(b) = 0, residue 1 (trivial)",
        "certificate: place=t residue=1/2 prime=3 root=-",
    ],
    "remark433222.cb": [
        "a = -t^2/(3*t^14 - 5*t^13 - 6*t^12 - 10*t^11 - 29*t^10 + 27*t^9"
        " + 16*t^8 + 22*t^6 - 85*t^5 - 43*t^4 + 38*t^3 - t + 1)",
        "b = t^2/(3*t^8 + t^7 - t^6 + t^5 - 9*t^4 + 5*t^3 + 11*t^2 - 3*t"
        " + 1)",
        "pivot: (0, 1, 2)",
        "place t + 1: v(a) = -1, v(b) = 0, residue 1 (trivial)",
        "place t: v(a) = 2, v(b) = 2, residue 1 (trivial)",
        "place t^5 - 3*t^4 + 2*t^3 - 6*t^2 + t + 1: v(a) = -1, v(b) = 0,"
        " residue -454290*t^4 + 1144434*t^3 + 190555*t^2 + 918082*t"
        " + 781684",
        "place t^8 + 1/3*t^7 - 1/3*t^6 + 1/3*t^5 - 3*t^4 + 5/3*t^3"
        " + 11/3*t^2 - t + 1/3: v(a) = -1, v(b) = -1, residue t^6"
        " - 2*t^5 - t^4 - 4*t^3 - 5*t^2 + 2*t + 1",
        "place inf: v(a) = 12, v(b) = 6, residue 1 (trivial)",
        "certificate: place=t^8+1/3*t^7-1/3*t^6+1/3*t^5-3*t^4+5/3*t^3"
        "+11/3*t^2-t+1/3 residue=t^6-2*t^5-t^4-4*t^3-5*t^2+2*t+1"
        " prime=17 root=2",
    ],
}


def test_residues_text_pinned(capsys):
    for name, want in RESIDUES_TEXT.items():
        assert main(["residues", fixture_path(name)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == want


# sha256 of the `residues` text of random_bundle((3, 1, 0), 1, -99, 99)
# as printed when the contents were stripped by factoring, in about 20 s
RESIDUES_99_SHA256 = (
    "6b287342752681ceb1465c465976b2c441644d84b4d1d9341f8b2b611385f22f")


def test_residues_on_a_99_bundle_in_bounded_time(capsys, tmp_path):
    # its residue contents are s*r^2 with r of dozens of digits
    path = tmp_path / "b310.cb"
    path.write_text(bundle_to_text(random_bundle((3, 1, 0), 1, -99, 99)))

    def too_slow(signum, frame):
        raise TimeoutError("residues took more than 5 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        code = main(["residues", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[-1] == (
        "certificate: place=t^8+168902/1072995*t^7-57898/153285*t^6"
        "-3217678/1072995*t^5-2656424/1072995*t^4+472534/153285*t^3"
        "+296530/214599*t^2+31765/30657*t-261707/214599"
        " residue=961265990/214599*t^7+618991664/30657*t^6"
        "+5566270316/214599*t^5+1437014767/214599*t^4-152779304/30657*t^3"
        "+555033893/214599*t^2+142518875/30657*t+1064869319/214599"
        " prime=23 root=11")
    assert hashlib.sha256(out.encode()).hexdigest() == RESIDUES_99_SHA256


# exit code and sha256 of the stdout of `residues` in text and in JSON,
# run on a file of that name in the working directory
RESIDUES_SHA256 = {
    "min844.cb": (
        0,
        "1295ed1ce53d8ab940e841de283373230a1e1c398979f7435fcb0f803efa6046",
        "71854ee8d7409499bd7934e4552749ca8989a1c1e13a5ac31ee4c075c049f6e3"),
    "remark433222.cb": (
        0,
        "dc6963903e691b698b909b218b7de90a2e7f10fc60a4ff0514cc2ff38cea75db",
        "22adb4d4d3f789bcefa406fc5c204f405f05003b62551aa121f9273e3797cee9"),
    "b211_9.cb": (
        0,
        "7ef1e3b105e22fac449858e0e5e8e709d466fca7033ea0a108a400dec2f827e4",
        "acb7969c2d24e067656dbb03e64c28c9ab20ecba2974d20e363e85f7a9ad7abc"),
    "b211_99.cb": (
        0,
        "6cbfaae48a7b4a191e3c13ce87b398d8083fad53e287369a43e022524cbad50b",
        "4e8cb8c69d81b81a5b931a89cb28d4bff4e1bc411c883565ebbe60a756eec435"),
    "b220_9.cb": (
        0,
        "9357efdd8f2ba66486814fe1059c26f78f332e469d5a5188017325bfe6a57816",
        "8a8e1acd39e1cfc2e1fe23ff23c3e27e4e0f912baab7e995eb2d72c8658ee283"),
    "b220_99.cb": (
        0,
        "9c3b4d4f9cbf9d2ef308dc3034ead7d9af9e07fc0a46bbceec7146b0191f84ce",
        "b6d23dddd3cf1b8cf83d973020f40a21e9c67dfcfef2a8c4ebe06a7f49aadfe6"),
    "b310_9.cb": (
        0,
        "e7e19c1d6691481b6708cebb2e7d3793ffbb1f3e2c70e5fe98af32e3011ba153",
        "6e587aa11f8fd8739e5270e458e4e0eed7a9807c421df8e71c6f74188376e474"),
    "b310_99.cb": (
        0,
        RESIDUES_99_SHA256,
        "6378e82e6c931dcfd2bd5ee130542eb2cbfc31e8f77f25d40811c06ac091dfa3"),
    "b400_9.cb": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "56a3b2beb84f697119a9191da1364e959dc775834084118a53ad6297f048d2bf"),
    "b400_99.cb": (
        0,
        "7043811e54dd664884ffd8722b267e6f897ca38b15a280df3438ea7231796b99",
        "457a984ed97d13669a2269f141d56baae1cd89dca4450586113b4fae261c1ef9"),
}


def test_residues_text_and_json_pinned_by_sha256(capsys, tmp_path,
                                                 monkeypatch):
    # the two fixtures and random_bundle(w, 1, -r, r) for the four
    # degree-8 types at r = 9 and 99; a change in how a coefficient is
    # held (3/1 printed for 3) changes the hash
    monkeypatch.chdir(tmp_path)
    for name in ("min844.cb", "remark433222.cb"):
        (tmp_path / name).write_text(Path(fixture_path(name)).read_text())
    for w in ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0)):
        for r in (9, 99):
            (tmp_path / ("b%d%d%d_%d.cb" % (w + (r,)))).write_text(
                bundle_to_text(random_bundle(w, 1, -r, r)))
    for name, want in RESIDUES_SHA256.items():
        code, *hashes = want
        for output, sha in zip(("text", "json"), hashes):
            assert main(["residues", name, "--output", output]) == code
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == sha, (
                name, output)


def test_residues_strips_each_residue_once(capsys, monkeypatch):
    # stripping squares factors integers; the table row, the certificate
    # line and the payload share one representative per place, so each
    # place's content has its numerator and denominator stripped once
    import conicbundles.brauer as brauer_mod
    calls = []
    real = brauer_mod.squarefree_part_int

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(brauer_mod, "squarefree_part_int", counting)
    for name in RESIDUES_TEXT:
        calls.clear()
        code, payload = run_json(capsys, ["residues", fixture_path(name)])
        assert code == EXIT_OK
        assert len(calls) == 2 * len(payload["residues"])


def test_diagonalize_contract(capsys):
    for name in ("min844.cb", "remark433222.cb"):
        path = fixture_path(name)
        code, payload = run_json(capsys, ["diagonalize", path])
        assert code == EXIT_OK
        assert payload["exit_code"] == EXIT_OK
        assert len(payload["entries"]) == 3
        assert [len(col) for col in payload["basis"]] == [3, 3, 3]
        # byte-identical reruns, JSON and text
        for argv in (["diagonalize", path, "--output", "json"],
                     ["diagonalize", path]):
            outs = []
            for _ in range(2):
                assert main(argv) == EXIT_OK
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert lines[:3] == ["d%d = %s" % (k, e)
                             for k, e in enumerate(payload["entries"])]
    # the y0^2 coefficient of min844 is the dehomogenized sigma00
    code, payload = run_json(capsys, ["diagonalize",
                                      fixture_path("min844.cb")])
    assert payload["entries"][0] == (
        "t^8 - 28*t^7 + 322*t^6 - 1960*t^5 + 6769*t^4 - 13132*t^3"
        " + 13068*t^2 - 5040*t")
    assert payload["basis"][0] == ["1", "0", "0"]
    code, payload = run_json(capsys, ["diagonalize",
                                      fixture_path("u12_template.cb")])
    assert code == EXIT_INVALID
    assert payload["exit_code"] == EXIT_INVALID


def write_bundle(tmp_path, name, weights, sigma):
    path = tmp_path / name
    path.write_text("weights = %s\n" % weights + "".join(
        "sigma%s = %s\n" % (ij, s)
        for ij, s in zip(("00", "01", "02", "11", "12", "22"), sigma)))
    return str(path)


def assert_basis_diagonalizes(sigma, payload):
    """B^T G B = diag(d) in sympy, with G the Gram matrix of the fiber
    form in the file's own variables (t = x0, x1 = 1)."""
    sympy = pytest.importorskip("sympy")
    t, x0, x1 = sympy.symbols("t x0 x1")
    s00, s01, s02, s11, s12, s22 = (
        sympy.sympify(s.replace("^", "**")).subs({x0: t, x1: 1})
        for s in sigma)
    gram = sympy.Matrix([[s00, s01 / 2, s02 / 2],
                         [s01 / 2, s11, s12 / 2],
                         [s02 / 2, s12 / 2, s22]])
    basis = sympy.Matrix([[sympy.sympify(c.replace("^", "**"),
                                         locals={"t": t}) for c in col]
                          for col in payload["basis"]]).T
    diag = sympy.diag(*[sympy.sympify(e.replace("^", "**"), locals={"t": t})
                        for e in payload["entries"]])
    assert sympy.expand(basis.T * gram * basis - diag) == sympy.zeros(3, 3)


def test_diagonalize_pivots_back_to_the_original_coordinates(capsys,
                                                             tmp_path):
    # the upper-left 2x2 block is singular, so the pivot is not (0, 1, 2)
    sigma = ("x0^4", "2*x0^4", "x1^2", "x0^4", "x0^2", "1")
    path = write_bundle(tmp_path, "b220.cb", "2 2 0", sigma)
    code, payload = run_json(capsys, ["diagonalize", path])
    assert code == EXIT_OK
    assert payload["pivot"] == [0, 2, 1] and "shear" not in payload
    assert_basis_diagonalizes(sigma, payload)
    assert main(["diagonalize", path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "pivot: (0, 2, 1)"


# every principal 2x2 minor of this fiber form vanishes identically, so
# no variable ordering works until a shear y0 -> y0 + y1
SHEAR_SIGMA = ("x0^8 + 2*x0^4*x1^4 + x1^8", "2*x0^4 + 2*x1^4",
               "-2*x0^4 - 2*x1^4", "1", "2", "1")


def test_diagonalize_and_residues_shear_when_no_ordering_works(capsys,
                                                               tmp_path):
    path = write_bundle(tmp_path, "shear.cb", "4 0 0", SHEAR_SIGMA)
    code, payload = run_json(capsys, ["discriminant", path])
    assert code == EXIT_OK and payload["delta_affine"] == "-4*t^8 - 8*t^4 - 4"
    code, payload = run_json(capsys, ["diagonalize", path])
    assert code == EXIT_OK
    assert payload["shear"] == [0, 1]
    assert_basis_diagonalizes(SHEAR_SIGMA, payload)
    assert_reruns_identical(capsys, ["diagonalize", path], EXIT_OK)
    main(["diagonalize", path])
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "pivot: (%d, %d, %d)" % tuple(payload["pivot"]), "shear: (0, 1)"]
    # every residue is trivial: inconclusive, not degenerate
    code, payload = run_json(capsys, ["residues", path])
    assert code == EXIT_NO_CERTIFICATE
    assert payload["shear"] == [0, 1]
    assert payload["residues"] and all(r["trivial"]
                                       for r in payload["residues"])
    assert_reruns_identical(capsys, ["residues", path], EXIT_NO_CERTIFICATE)


def test_conic_point_on_a_form_with_no_working_ordering(capsys):
    # w0^2 + w1^2 + w2^2 + 2*w0*w1 - 2*w0*w2 + 2*w1*w2: nondegenerate,
    # every principal 2x2 minor zero
    coeffs = "1,2,1,-2,2,1"
    code, payload = run_json(capsys, ["conic-point", coeffs])
    assert code == EXIT_OK and payload["status"] == "point"
    conic = ConicQ(tuple(Fraction(c) for c in coeffs.split(",")))
    assert conic.value([Fraction(x) for x in payload["point"]]) == 0


CHAIN_KEYS = {"command", "seed", "instantiation", "degrees", "deep_point",
              "q_multiplicity", "tangent_cone", "double_points", "delta",
              "curves", "exit_code"}


def test_cremona_chain_contract(capsys):
    for seed in range(10):
        argv = ["cremona-chain", "--seed", str(seed)]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_OK
        assert set(payload) == CHAIN_KEYS
        assert payload["degrees"] == [8, 6, 4, 2]
        assert payload["seed"] == seed
        assert set(payload["curves"]) == {"C", "C1", "C2", "C3"}
        # byte-identical reruns, JSON and text
        for run in (argv + ["--output", "json"], argv):
            outs = []
            for _ in range(2):
                assert main(run) == EXIT_OK
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]
        assert outs[0].splitlines()[1] == "degrees: (8, 6, 4, 2)"


# (instantiation, tangent cone, delta, C, C1, C2, C3) per seed, as the
# command printed them when it still instantiated u12_template.cb; the
# draws of seed 99 fail the chain conditions twice before one passes
CHAIN_PINNED = {
    0: ("a4=1 a5=6 a6=-1 b2=-3 b3=-3 c0=-5 c1=0 c2=-2 c3=3 c4=9 d0=2 "
        "g0=-1 h0=-7", "12*w2^6", "-5",
        "10*w0^8 - w0^7*w2 - 4*w0^6*w2^2 + 19*w0^5*w2^3 - 22*w0^4*w1*w2^3"
        " - 2*w0^4*w2^4 - 12*w0^3*w1*w2^4 - 12*w0^3*w2^5"
        " + 10*w0^2*w1*w2^5 + 2*w0^2*w2^6 + 12*w1^2*w2^6",
        "10*w0^2*w1^4 - 21*w0^2*w1^3*w2 + 28*w0^2*w1^2*w2^2"
        " - 16*w0^2*w1*w2^3 + 2*w0^2*w2^4 - 22*w0*w1^2*w2^3"
        " + 10*w0*w1*w2^4 + 12*w2^6",
        "10*w0^4 - 21*w0^3*w1 - 40*w0^3*w2 + 28*w0^2*w1^2 + 82*w0^2*w1*w2"
        " + 40*w0^2*w2^2 - 16*w0*w1^3 - 66*w0*w1^2*w2 - 80*w0*w1*w2^2"
        " + 2*w1^4 + 24*w1^3*w2 + 40*w1^2*w2^2",
        "10*w0^2 + 12*w0*w1 - 21*w0*w2 + 2*w1^2 - 16*w1*w2 + 16*w2^2"),
    99: ("a4=-2 a5=-6 a6=5 b2=4 b3=-2 c0=-7 c1=-6 c2=5 c3=2 c4=9 d0=-4 "
         "g0=-4 h0=5", "-12*w2^6", "47/4",
         "47*w0^8 - 12*w0^7*w2 - 65*w0^6*w2^2 + 30*w0^5*w2^3"
         " - 24*w0^4*w1*w2^3 - 8*w0^4*w2^4 + 12*w0^3*w1*w2^4"
         " - 24*w0^3*w2^5 + 36*w0^2*w1*w2^5 + 20*w0^2*w2^6"
         " - 12*w1^2*w2^6",
         "47*w0^2*w1^4 - 106*w0^2*w1^3*w2 + 100*w0^2*w1^2*w2^2"
         " - 64*w0^2*w1*w2^3 + 20*w0^2*w2^4 - 24*w0*w1^2*w2^3"
         " + 36*w0*w1*w2^4 - 12*w2^6",
         "47*w0^4 - 106*w0^3*w1 - 188*w0^3*w2 + 100*w0^2*w1^2"
         " + 400*w0^2*w1*w2 + 188*w0^2*w2^2 - 64*w0*w1^3"
         " - 260*w0*w1^2*w2 - 376*w0*w1*w2^2 + 20*w1^4 + 48*w1^3*w2"
         " + 188*w1^2*w2^2",
         "47*w0^2 + 24*w0*w1 - 106*w0*w2 + 20*w1^2 - 64*w1*w2 + 76*w2^2"),
}


def test_cremona_chain_payload_pinned(capsys):
    for seed, (inst, cone, delta, *curves) in CHAIN_PINNED.items():
        code, payload = run_json(capsys, ["cremona-chain", "--seed",
                                          str(seed)])
        assert code == EXIT_OK
        assert payload == {
            "command": "cremona-chain", "seed": seed,
            "instantiation": dict(kv.split("=") for kv in inst.split()),
            "degrees": [8, 6, 4, 2], "deep_point": [0, 1, 0],
            "q_multiplicity": 6, "tangent_cone": cone,
            "double_points": [[0, 0, 1], [1, 0, -1], [1, 1, 1]],
            "delta": delta,
            "curves": dict(zip(("C", "C1", "C2", "C3"), curves)),
            "exit_code": EXIT_OK}


def test_cremona_chain_reads_no_file(capsys, tmp_path):
    # the member comes from the U12 table; a file argument, numeric or
    # parametric, is a usage error, reported without a traceback
    parametric = tmp_path / "pq.cb"
    parametric.write_text("weights = 4 0 0\nparams = p q\n"
                          "sigma00 = p*x0^8\nsigma01 = q*x0^4\n"
                          "sigma02 = x1^4\nsigma11 = 1\nsigma12 = 0\n"
                          "sigma22 = 1\n")
    for path in (fixture_path("min844.cb"), str(parametric)):
        argv = ["cremona-chain", path, "--seed", "3"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_INVALID
        assert payload == {"command": "cremona-chain",
                           "error": "unrecognized arguments: %s" % path,
                           "exit_code": EXIT_INVALID}
        assert main(argv) == EXIT_INVALID
        out = capsys.readouterr()
        assert not out.out and "Traceback" not in out.err
        assert out.err == "conicbundles: error: %s\n" % payload["error"]


DOMINANCE_KEYS = {"command", "locus", "weights", "reports", "ok", "exit_code"}
REPORT_KEYS = {"seed", "chart", "locus_dims", "columns", "normal_index",
               "fallback", "rank", "expected", "ok"}


def test_dominance_contract(capsys):
    for name, weights in (("U_c2zero", [4, 0, 0]), ("U12", [4, 0, 0])):
        argv = ["dominance", "--locus", name, "--seeds", "3", "--seed", "5"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_OK and payload["exit_code"] == EXIT_OK
        assert set(payload) == DOMINANCE_KEYS
        assert payload["weights"] == weights and payload["ok"]
        assert [r["seed"] for r in payload["reports"]] == [5, 6, 7]
        for rep in payload["reports"]:
            assert set(rep) == REPORT_KEYS
            assert rep["rank"] == rep["expected"] == 21 and rep["ok"]
        # byte-identical reruns, JSON and text
        for run in (argv + ["--output", "json"], argv):
            outs = []
            for _ in range(2):
                assert main(run) == EXIT_OK
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]
        assert outs[0].splitlines()[-1] == "full rank at every seed"
    for bad in (["--locus", "U_nope"], ["--locus", "U12", "--seeds", "0"]):
        code, payload = run_json(capsys, ["dominance"] + bad)
        assert code == EXIT_INVALID and payload["exit_code"] == EXIT_INVALID
        assert "error" in payload
    # special members of their loci: rank 20 of 21
    for name, seed in (("U_442420", "3044"), ("U_433222", "14020")):
        code, payload = run_json(capsys, ["dominance", "--locus", name,
                                          "--seeds", "1", "--seed", seed])
        assert code == EXIT_DEGENERATE and not payload["ok"]
        assert payload["reports"][0]["rank"] == 20


MESTRE_KEYS = {"command", "file", "ok", "T", "c", "shift", "xi", "B", "A",
               "exit_code"}


def test_mestre_contract(capsys, tmp_path):
    # min844 has B = -8: no normal form over Q
    code, payload = run_json(capsys, ["mestre", fixture_path("min844.cb")])
    assert code == EXIT_NO_CERTIFICATE and not payload["ok"]
    assert payload["B"] == "-8" and "not a square" in payload["reason"]
    for name, why in (("remark433222.cb", "weights"),
                      ("u12_template.cb", "numeric")):
        code, payload = run_json(capsys, ["mestre", fixture_path(name)])
        assert code == EXIT_INVALID and payload["exit_code"] == EXIT_INVALID
        assert why in payload["error"]
    # a diagonal bundle with B = 4, so xi = 1/2
    path = tmp_path / "b4.cb"
    path.write_text("weights = 4 0 0\nsigma00 = x0^8\nsigma01 = x0^4\n"
                    "sigma02 = x0^4\nsigma11 = -1\nsigma12 = 1\n"
                    "sigma22 = 1\n")
    code, payload = run_json(capsys, ["mestre", str(path)])
    assert code == EXIT_OK and payload["ok"]
    assert set(payload) == MESTRE_KEYS
    assert payload["B"] == "4" and payload["xi"] == "1/2"
    # byte-identical reruns, JSON and text
    for argv in (["mestre", str(path), "--output", "json"],
                 ["mestre", str(path)],
                 ["mestre", fixture_path("min844.cb")]):
        outs = []
        for _ in range(2):
            main(argv)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


VALIDATE_KEYS = {"command", "file", "weights", "multidegree", "shift",
                 "params", "flags", "valid", "exit_code"}


def test_validate_contract(capsys, tmp_path):
    for name in ("min844.cb", "remark433222.cb", "u12_template.cb"):
        path = fixture_path(name)
        code, payload = run_json(capsys, ["validate", path])
        assert code == EXIT_OK and payload["exit_code"] == EXIT_OK
        assert set(payload) == VALIDATE_KEYS and payload["valid"]
        assert_reruns_identical(capsys, ["validate", path], EXIT_OK)
    assert payload["params"]  # the template is parametric
    bad = tmp_path / "bad.cb"
    bad.write_text("weights = 4 0 0\nsigma00 = x0^7\n")
    code, payload = run_json(capsys, ["validate", str(bad)])
    assert code == EXIT_INVALID and payload["exit_code"] == EXIT_INVALID
    assert set(payload) == {"command", "error", "exit_code"}
    assert_reruns_identical(capsys, ["validate", str(bad)], EXIT_INVALID)


DISCRIMINANT_KEYS = {"command", "file", "degree", "expected_degree",
                     "degree_drop", "delta", "delta_affine", "exit_code"}


def test_discriminant_contract(capsys, tmp_path):
    path = fixture_path("min844.cb")
    code, payload = run_json(capsys, ["discriminant", path])
    assert code == EXIT_OK and payload["exit_code"] == EXIT_OK
    assert set(payload) == DISCRIMINANT_KEYS
    assert payload["degree"] == payload["expected_degree"] == 8
    assert not payload["degree_drop"]
    assert_reruns_identical(capsys, ["discriminant", path], EXIT_OK)
    zero = tmp_path / "zero.cb"
    zero.write_text("weights = 4 0 0\nsigma00 = x0^8\nsigma01 = 0\n"
                    "sigma02 = 0\nsigma11 = 0\nsigma12 = 0\nsigma22 = 0\n")
    code, payload = run_json(capsys, ["discriminant", str(zero)])
    assert code == EXIT_DEGENERATE and payload["exit_code"] == EXIT_DEGENERATE
    assert "vanishes identically" in payload["error"]
    assert_reruns_identical(capsys, ["discriminant", str(zero)],
                            EXIT_DEGENERATE)


CONIC_KEYS = {"command", "coeffs", "status", "point", "obstructions",
              "height_bound", "note", "exit_code"}


def test_conic_point_contract(capsys):
    coeffs = "1,0,1,0,0,-1"
    code, payload = run_json(capsys, ["conic-point", coeffs])
    assert code == EXIT_OK and set(payload) == CONIC_KEYS
    assert payload["status"] == "point"
    conic = ConicQ(tuple(Fraction(c) for c in coeffs.split(",")))
    assert conic.value([Fraction(x) for x in payload["point"]]) == 0
    assert_reruns_identical(capsys, ["conic-point", coeffs], EXIT_OK)
    # w0^2 + w1^2 + w2^2 has no real point, nor a 2-adic one
    code, payload = run_json(capsys, ["conic-point", "1,0,1,0,0,1"])
    assert code == EXIT_OK and payload["status"] == "obstructed"
    assert payload["obstructions"] == ["inf", "2"]
    assert payload["point"] is None
    code, payload = run_json(capsys, ["conic-point", "1,0,1,0,0"])
    assert code == EXIT_INVALID and "six" in payload["error"]
    argv = ["conic-point", "--height-bound", "1", "1,0,1,0,0,-1000033"]
    code, payload = run_json(capsys, argv)
    assert code == EXIT_NO_CERTIFICATE and payload["status"] == "undecided"
    assert payload["height_bound"] == 1
    assert_reruns_identical(capsys, argv, EXIT_NO_CERTIFICATE)


def test_each_flag_only_where_it_is_read(capsys):
    min844 = fixture_path("min844.cb")
    refused = (["validate", min844, "--seed", "1"],
               ["residues", min844, "--seed", "1"],
               ["residues", min844, "--height-bound", "9"],
               ["conic-point", "--prime-bound", "9", "1,0,1,0,0,-1"],
               ["dominance", "--locus", "U12", "--prime-bound", "9"],
               ["dominance", "--locus", "U12", "--type", "4,0,0"],
               ["cremona-chain", "--height-bound", "9"],
               ["residues", min844, "--prime-bound", "0"],
               ["conic-point", "--height-bound", "-1", "1,0,1,0,0,-1"])
    for argv in refused:
        # a rejected command line returns 1 instead of raising
        assert main(argv) == EXIT_INVALID, argv
        text = capsys.readouterr()
        assert not text.out and text.err.startswith("conicbundles"), argv
        for flag in (["--output", "json"], ["--output=json"]):
            assert main(argv + flag) == EXIT_INVALID, argv
            out = capsys.readouterr()
            assert not out.err
            payload = json.loads(out.out)
            assert payload == {"command": argv[0], "error": payload["error"],
                               "exit_code": EXIT_INVALID}
            assert text.err.endswith(": error: %s\n" % payload["error"])
    with pytest.raises(SystemExit) as exc:
        main(["residues", "--help"])
    assert exc.value.code == EXIT_OK and "--prime-bound" in \
        capsys.readouterr().out
    assert main(["residues", min844, "--prime-bound", "7"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].endswith("prime=3 root=-")


ERROR_KEYS = {"command", "error", "exit_code"}
ENUMERATE_KEYS = {"command", "d", "rows", "count", "series_count",
                  "closed_form_count", "exit_code"}


def test_enumerate_contract(capsys):
    code, payload = run_json(capsys, ["enumerate", "--d", "8"])
    assert code == EXIT_OK and set(payload) == ENUMERATE_KEYS
    assert [r["weights"] for r in payload["rows"]] == [
        [2, 1, 1], [2, 2, 0], [3, 1, 0], [4, 0, 0]]
    assert payload["count"] == payload["series_count"] \
        == payload["closed_form_count"] == 4
    assert_reruns_identical(capsys, ["enumerate", "--d", "8"], EXIT_OK)
    code, payload = run_json(capsys, ["enumerate", "--d", "-1"])
    assert code == EXIT_INVALID and set(payload) == ERROR_KEYS
    assert_reruns_identical(capsys, ["enumerate", "--d", "-1"], EXIT_INVALID)


COHOMOLOGY_KEYS = {"command", "weights", "h1_end", "h0_normal",
                   "h1_normal", "exit_code"}


def test_cohomology_contract(capsys):
    code, payload = run_json(capsys, ["cohomology", "--type", "2,1,1"])
    assert code == EXIT_OK and set(payload) == COHOMOLOGY_KEYS
    assert payload["weights"] == [2, 1, 1]
    assert (payload["h1_end"], payload["h0_normal"],
            payload["h1_normal"]) == (0, 21, 0)
    assert_reruns_identical(capsys, ["cohomology", "--type", "2,1,1"],
                            EXIT_OK)
    code, payload = run_json(capsys, ["cohomology", "--type", "1,2"])
    assert code == EXIT_INVALID and set(payload) == ERROR_KEYS
    assert "three integers" in payload["error"]
    assert_reruns_identical(capsys, ["cohomology", "--type", "1,2"],
                            EXIT_INVALID)


DEGENERATE_KEYS = {"command", "pair", "source", "target", "checks", "ok",
                   "exit_code"}


def test_degenerate_contract(capsys):
    for pair in ("211->220", "220->310", "310->400"):
        code, payload = run_json(capsys, ["degenerate", "--pair", pair])
        assert code == EXIT_OK and set(payload) == DEGENERATE_KEYS
        assert payload["pair"] == pair and payload["ok"]
        assert all(set(c) == {"label", "ok", "detail"} and c["ok"]
                   for c in payload["checks"])
        assert_reruns_identical(capsys, ["degenerate", "--pair", pair],
                                EXIT_OK)
    argv = ["degenerate", "--pair", "400->211"]
    code, payload = run_json(capsys, argv)
    assert code == EXIT_INVALID and set(payload) == ERROR_KEYS
    assert "unknown degeneration" in payload["error"]
    assert_reruns_identical(capsys, argv, EXIT_INVALID)


# (command line, exit code, sha256 of stdout as text, of stdout as JSON).
# The mestre files are read by relative path, from a directory that holds
# min844.cb and the B = 4 bundle of test_mestre_contract, so the "file"
# field of the JSON payload is the same wherever the tests run.
PINNED_OUTPUTS = (
    ("dominance --locus U_433222 --seeds 1 --seed 0", 0,
     "a1ff5a992f2531a6d5459f32d158ccc0b2c6cfa3ba16d6f18abf3df9d04e5380",
     "504df39583f28d6b6b33f0f41177daa40695082f4840d3d53adac44f7e65b352"),
    ("dominance --locus U_433222 --seeds 1 --seed 1", 0,
     "cafe827c63616de6c28061566a52f85adfed26fd820c456067270fc37b8da5d9",
     "464e315668336ce6c06b3486a219865fcd6ce946b34ceadcb88ef4e4809a065d"),
    ("dominance --locus U_433222 --seeds 1 --seed 2", 0,
     "10c7c5ff509cf828eaadef2fd2cc8a26f53b3a37a2b5289c8c5908f9c954beff",
     "cefacfcdefa860618f2c2be2b4b3b93557d2d6dd5dd77926a44a04261920b5cb"),
    ("dominance --locus U_442420 --seeds 1 --seed 0", 0,
     "4149f4b89e5d52cd751c6578d095cc9cfebd9f4963041372176cf9fe56ef3e10",
     "d2a7ab8a786249f5fd78030ef864b6654b595a35d26f6f010be049dc83b9add2"),
    ("dominance --locus U_442420 --seeds 1 --seed 1", 0,
     "c106f637ae2aa6aa3d8607fc7bbcb1b8ac749543f978b87a908e74d832fed4ae",
     "f40dd4cac9f8b2724bbdfbbeba8e0b0418a7eafa25c1d4c52ae9eaba8d024612"),
    ("dominance --locus U_442420 --seeds 1 --seed 2", 0,
     "2c143e71d00b8902b102fe1c9ab3a1dce11e8e7ac241bb51b343e0552ea92183",
     "0832c1def8c66c8d8eff3f0ba1c4e3bae66668a771665ecbab585bce93406126"),
    ("dominance --locus U_c2zero --seeds 1 --seed 0", 0,
     "d44d760fbdd874dce14e61b013494bb59d9735a0ef9e084c08597b091620bd60",
     "eb9f0579735d20fec7548cb71f2edf1cc25110294184071108c43e91cb5935dd"),
    ("dominance --locus U_c2zero --seeds 1 --seed 1", 0,
     "381fac8e363dbb0616f8597b884f646e7fc587573b7a71b52bfa89f7603b2a82",
     "b0ff34abdc4be6b8b1baa576e399427814f3d90e3b90d6da56b6d4cf0d7bc4f7"),
    ("dominance --locus U_c2zero --seeds 1 --seed 2", 0,
     "bc61e57ae2f4f4256ea765877c8772e72f6c714893c497d0300d3bdcdeeaf1c5",
     "dd38a4047f805499086f4eda80562700d3de0b41efcfb55a9f264122b124573f"),
    ("dominance --locus U12 --seeds 1 --seed 0", 0,
     "f84f5799c3cabba7b11e35677834458a2a41bcd4c2ba65c42e71f0280ff4a31d",
     "15bcbe69f0e01b29b1828bd1798a60b53d5ce03ffe986b243d33606ec176a72d"),
    ("dominance --locus U12 --seeds 1 --seed 1", 0,
     "85ca31b8ee7b0304cbb435040c5766fd1875d968333bbbf03855afa7dd33f096",
     "698722beeaaaf8919b9a3d72b90ccf40891041a33633530b61d4a657da1fd221"),
    ("dominance --locus U12 --seeds 1 --seed 2", 0,
     "4488300ad6406ad800a4cb8cac1ba217a51785804e7082e110c4689a0d5230f5",
     "af257beca973ef2ad08c0eaff158f818250fd0ba98c8ebc3cc10d5bda7c5f1f3"),
    ("dominance --locus U_442420 --seeds 1 --seed 3044", 2,
     "2b833f7737dcacfd01dc4c249b02dd831e4bff78971f322bd2dda6516daec79d",
     "913b5bff2c0ef2f01d57cef58d81a380877426794984713aac20253194c98e7f"),
    ("dominance --locus U_433222 --seeds 1 --seed 14020", 2,
     "8a340940edc69b6063a15952c7fd6ed5a5f8876374f6671c138a08435622c711",
     "fcd483cb37ddc8ae0747e917393c006f087913fc24cafdb5ae364ebe3c854d31"),
    ("degenerate --pair 211->220", 0,
     "33b85d70ced4fa5a10573d823563567cfc5b5978e18ccb102d7703e89558ffc5",
     "0cc337e5fe47b74a9796b723a969b9e7f7ad251af27aead71db6d15e223d1e3e"),
    ("degenerate --pair 220->310", 0,
     "68c6e8806b14d94bfafc3896a7d7e31bda3654b980509b02f48243d7ad699043",
     "d606a86eb4a8b724316a90be056fed2db2a15df00bfa2ca4b58a43c66b970aa8"),
    ("degenerate --pair 310->400", 0,
     "0cf7d157d714500c863fa0380b9820565a3e71664bea021dd25eb8c8b0d50247",
     "3174789505393300798b04f33403b471c04fe04ed4f2a70e10322696e95f0e27"),
    ("mestre min844.cb", 3,
     "797b45c035e872f7710c0e8d1ab2dcc3f8c9b6834b77f2c88db0f90144c41461",
     "824988a1e8f3ff1884097f613c3bbd338fb3a13bd2c17cd69d7d583b880b0fb4"),
    ("mestre b4.cb", 0,
     "c2b49df2b2968ed36aa604a03b4af784996d8e13d461b58ee54a74afc020b021",
     "6e0519306ee74f84298a0a5539eba633574bb272f083650326e53f867e501ef5"),
)


def test_outputs_pinned_by_hash(capsys, tmp_path, monkeypatch):
    (tmp_path / "min844.cb").write_text(
        (files("conicbundles") / "fixtures" / "min844.cb").read_text())
    (tmp_path / "b4.cb").write_text(
        "weights = 4 0 0\nsigma00 = x0^8\nsigma01 = x0^4\n"
        "sigma02 = x0^4\nsigma11 = -1\nsigma12 = 1\nsigma22 = 1\n")
    monkeypatch.chdir(tmp_path)
    for line, code, text_hash, json_hash in PINNED_OUTPUTS:
        for fmt, want in (([], text_hash), (["--output", "json"], json_hash)):
            argv = line.split() + fmt
            assert main(argv) == code, argv
            out = capsys.readouterr()
            assert out.err == "", argv
            assert hashlib.sha256(out.out.encode()).hexdigest() == want, argv


def _fresh_process(argv):
    """(exit code, stdout, stderr) of the command in a new interpreter."""
    root = Path(files("conicbundles")).parent
    env = dict(os.environ, PYTHONPATH=str(root))
    proc = subprocess.run([sys.executable, "-m", "conicbundles.cli"] + argv,
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_cached_parser_holds_no_state(capsys):
    # the parser is built once per process; runs through it in sequence
    # (rejected, valid, another command, a default after a set flag)
    # print what each prints in a process of its own
    min844 = fixture_path("min844.cb")
    sequence = (["residues", min844, "--prime-bound", "0"],
                ["residues", min844, "--prime-bound", "0", "--output",
                 "json"],
                ["residues", min844, "--output", "json"],
                ["conic-point", "--height-bound", "1", "1,0,1,0,0,-5"],
                ["conic-point", "1,0,1,0,0,-5"],
                ["validate", min844, "--output", "json"])
    for argv in sequence:
        code = main(argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == _fresh_process(argv), argv


def _every_command_on_the_fixtures():
    """Each of the 11 commands, on the shipped fixtures where it reads
    a file."""
    fixtures = [fixture_path(n) for n in ("min844.cb", "remark433222.cb",
                                          "u12_template.cb")]
    for cmd in ("validate", "discriminant", "diagonalize", "residues",
                "mestre"):
        for path in fixtures:
            yield [cmd, path]
    yield ["enumerate", "--d", "8"]
    for weights in ("2,1,1", "2,2,0", "3,1,0", "4,0,0"):
        yield ["cohomology", "--type", weights]
    for name in LOCI:
        yield ["dominance", "--locus", name, "--seeds", "1"]
    yield ["cremona-chain"]
    yield ["cremona-chain", "--seed", "3"]
    for pair in DEGENERATION_PAIRS:
        yield ["degenerate", "--pair", pair]
    for coeffs in ("1,0,1,0,0,-5", "1,0,1,0,0,-3", "1/2,1,1/3,0,0,-5",
                   "3,0,0,0,0,0"):
        yield ["conic-point", coeffs]


def test_no_output_has_a_decimal_number(capsys):
    # every number the package prints is an integer or a fraction a/b;
    # a quotient taken with / of two ints would print as a decimal
    decimal = re.compile(r"\d\.\d")
    commands = set()
    for argv in _every_command_on_the_fixtures():
        commands.add(argv[0])
        for run in (argv, argv + ["--output", "json"]):
            main(run)
            out = capsys.readouterr()
            assert not decimal.search(out.out + out.err), run
    assert len(commands) == 11
