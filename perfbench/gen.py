"""Seeded input generators for the benchmark.

Every input is drawn here, from the benchmark's own seed, and handed to
the program only as text: bundle files in the `.cb` grammar and the six
comma-separated conic coefficients that `conic-point` takes.  Draws are
rejected with sympy, never with the program's own sampler, and every
input carries the facts its answer is known from (roots, primes, the
point it was built around), so the checks need no stored output.

Run as a script it prints the inputs of one workload as JSON:

    python3 perfbench/gen.py --workload certify --seed 1 --rounds 40
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import sympy

PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
SIGMA_NAMES = tuple("sigma%d%d" % p for p in PAIRS)
GENERAL_TYPES = ((2, 1, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0))
COEFF_RANGES = (9, 99)
T = sympy.Symbol("t")


# -- bundle text -----------------------------------------------------------

def form_text(coeffs) -> str:
    """Binary form sum c_k x0^(d-k) x1^k in the program's grammar;
    coefficient k multiplies x0^(d-k) x1^k as in the affine convention
    t = x0, x1 = 1."""
    d = len(coeffs) - 1
    terms = []
    for k, c in enumerate(coeffs):
        c = int(c)
        if not c:
            continue
        mono = "*".join(
            "%s^%d" % (v, e) if e > 1 else v
            for v, e in (("x0", d - k), ("x1", k)) if e)
        body = str(abs(c)) if not mono else (
            mono if abs(c) == 1 else "%d*%s" % (abs(c), mono))
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += " %s %s" % (sign, body)
    return out


def bundle_text(weights, forms) -> str:
    lines = ["weights = %d %d %d" % tuple(weights)]
    for name, coeffs in zip(SIGMA_NAMES, forms):
        lines.append("%s = %s" % (name, form_text(coeffs)))
    return "\n".join(lines) + "\n"


def affine_poly(coeffs):
    """sympy polynomial in t of the form whose coefficient k multiplies
    x0^(d-k) x1^k."""
    d = len(coeffs) - 1
    return sum(sympy.Integer(int(c)) * T ** (d - k)
               for k, c in enumerate(coeffs))


def half_gram_delta(forms):
    """Affine half-Gram determinant of the fiber form, from sympy."""
    s00, s01, s02, s11, s12, s22 = (affine_poly(f) for f in forms)
    q = sympy.Rational(1, 4)
    return sympy.expand(s00 * s11 * s22 - q * s00 * s12 ** 2
                        - q * s01 ** 2 * s22 + q * s01 * s02 * s12
                        - q * s02 ** 2 * s11)


def admissible(forms) -> bool:
    """Affine delta square-free of degree 8 and no zero diagonal form."""
    if any(not any(forms[k]) for k in (0, 3, 5)):
        return False
    poly = sympy.Poly(half_gram_delta(forms), T)
    if poly.degree() != 8:
        return False
    return sympy.gcd(poly, poly.diff(T)).degree() == 0


def general_bundle(rng: random.Random, weights, bound: int) -> dict:
    """Integer coefficients uniform in [-bound, bound], rejected until
    admissible."""
    while True:
        forms = [[rng.randint(-bound, bound)
                  for _ in range(weights[i] + weights[j] + 1)]
                 for i, j in PAIRS]
        if admissible(forms):
            return {"kind": "general", "weights": list(weights),
                    "bound": bound, "forms": forms,
                    "text": bundle_text(weights, forms)}


def split_bundle(rng: random.Random, lo: int = 30, hi: int = 50) -> dict:
    """Diagonal (4,0,0) bundle with sigma00 = prod (x0 - r_i x1) over
    eight distinct integer roots r_i of height |r_i| in [lo, hi], and
    constant sigma11, sigma22 with -sigma11/sigma22 not a rational
    square, so the residue at every root is the nontrivial class of
    -sigma11/sigma22."""
    mags = rng.sample(range(lo, hi + 1), 8)
    roots = sorted(m * rng.choice((-1, 1)) for m in mags)
    poly = sympy.Poly(sympy.prod([T - r for r in roots]), T)
    s00 = [int(c) for c in poly.all_coeffs()]  # high to low = x0^8 first
    while True:
        s11 = rng.choice([c for c in range(-9, 10) if c])
        s22 = rng.choice([c for c in range(-9, 10) if c])
        if not sympy.sqrt(sympy.Rational(-s11, s22)).is_Rational:
            break
    forms = [s00, [0] * 5, [0] * 5, [s11], [0], [s22]]
    assert admissible(forms)
    return {"kind": "split", "weights": [4, 0, 0], "forms": forms,
            "roots": roots, "s11": s11, "s22": s22,
            "text": bundle_text((4, 0, 0), forms)}


# -- conics ------------------------------------------------------------------

def _prime_sum_of_squares(rng: random.Random, lo: int, hi: int):
    """Prime p = a^2 + b^2 with a > b > 0 and a in [lo, hi]; then the
    smallest point of x^2 + y^2 = p z^2 is (a, b, 1) up to order and
    sign, of height a (any point with z >= 2 has height >= sqrt(2p))."""
    while True:
        a = rng.randint(lo, hi)
        b = rng.randint(1, a - 1)
        p = a * a + b * b
        if sympy.isprime(p):
            return p, a, b


def diagonal_conic(rng: random.Random, lo: int, hi: int) -> dict:
    p, a, b = _prime_sum_of_squares(rng, lo, hi)
    return {"kind": "diagonal", "status": "point", "prime": p,
            "height": a, "coeffs": [1, 0, 1, 0, 0, -p]}


ROTATIONS = (((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)),
             ((0, 1), (-1, 0)))
QUADRIC_EXPS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                (0, 0, 2))


def image_conic(rng: random.Random, lo: int, hi: int) -> dict:
    """x^2 + y^2 - p z^2 in the variables w = M^-1 v for a unimodular
    M = [[R, 0], [c0, c1, 1]], R a rotation by a multiple of 90 degrees
    and (c0, c1) != (0, 0): the form is non-diagonal, and since M keeps
    max(|w0|, |w1|) its smallest point (M^-1 (a, b, 1)) has the same
    height a as the diagonal conic, so the point search costs the same."""
    p, a, b = _prime_sum_of_squares(rng, lo, hi)
    rot = rng.choice(ROTATIONS)
    c0, c1 = 0, 0
    while not (c0 or c1):
        c0, c1 = rng.randint(-3, 3), rng.randint(-3, 3)
    m = sympy.Matrix([[rot[0][0], rot[0][1], 0],
                      [rot[1][0], rot[1][1], 0],
                      [c0, c1, 1]])
    w = sympy.symbols("w0 w1 w2")
    v = m * sympy.Matrix(w)
    q = sympy.Poly(sympy.expand(v[0] ** 2 + v[1] ** 2 - p * v[2] ** 2), *w)
    known = m.inv() * sympy.Matrix([a, b, 1])
    return {"kind": "image", "status": "point", "prime": p, "height": a,
            "matrix": [[int(x) for x in m.row(r)] for r in range(3)],
            "known_point": [int(x) for x in known],
            "coeffs": [int(q.coeff_monomial(e)) for e in QUADRIC_EXPS]}


def obstructed_conic(rng: random.Random, lo: int, hi: int) -> dict:
    """x^2 + y^2 - p q z^2 with p = 1 and q = 3 (mod 4) primes, the
    smaller of the two in [lo, hi]: (-1, pq) is -1 exactly at q and 2."""
    small = rng.randint(lo, hi)
    if rng.random() < 0.5:
        p = sympy.nextprime(small)
        while p % 4 != 1:
            p = sympy.nextprime(p)
        q = sympy.nextprime(rng.randint(p, 2 * p))
        while q % 4 != 3:
            q = sympy.nextprime(q)
    else:
        q = sympy.nextprime(small)
        while q % 4 != 3:
            q = sympy.nextprime(q)
        p = sympy.nextprime(rng.randint(q, 2 * q))
        while p % 4 != 1:
            p = sympy.nextprime(p)
    return {"kind": "obstructed", "status": "obstructed",
            "p": int(p), "q": int(q), "obstructions": ["2", str(q)],
            "coeffs": [1, 0, 1, 0, 0, -int(p) * int(q)]}


# -- workloads -------------------------------------------------------------------

# Every round holds one input per stratum, so rounds cost about the same
# whatever the seed; the strata cover the ranges the workloads name.
HEIGHT_BANDS = ((20, 22), (40, 42), (70, 72), (98, 100))
# (low, high, conics per round): five in the middle band put the median
# operation of a conic-points run inside a group of equal-cost ones
SMALL_PRIME_BANDS = ((1_000_000, 1_050_000, 1), (3_000_000, 3_150_000, 5),
                     (9_000_000, 9_450_000, 1))
SPLIT_PER_ROUND = 4
# residues runs on generated bundles: fixed draws, independent of --seed.
# residues#5 finishes in under a second; the residue table of
# residues#1 trial-divides a content whose trial division ends near
# 3e11, so that run always reaches its cap (see README.md).
RESIDUE_DRAWS = (("residues#5", (2, 2, 0)), ("residues#1", (2, 2, 0)))
# U_433222 and U_442420 are left out: their sampled members show rank 20
# at some program seeds (see CHANGES.md), so those operations would
# fail on some benchmark seeds and not on others.
LOCI = ("U_c2zero", "U12")


def certify_round(rng: random.Random) -> list:
    out = [general_bundle(rng, w, bound)
           for w in GENERAL_TYPES for bound in COEFF_RANGES]
    return out + [split_bundle(rng) for _ in range(SPLIT_PER_ROUND)]


def residue_bundles() -> list:
    return [dict(general_bundle(random.Random(tag), w, 9), tag=tag)
            for tag, w in RESIDUE_DRAWS]


def conic_round(rng: random.Random) -> list:
    out = [diagonal_conic(rng, lo, hi) for lo, hi in HEIGHT_BANDS]
    out += [image_conic(rng, lo, hi) for lo, hi in HEIGHT_BANDS]
    return out + [obstructed_conic(rng, lo, hi)
                  for lo, hi, count in SMALL_PRIME_BANDS
                  for _ in range(count)]


def families_round(seed: int, k: int) -> list:
    """Consecutive program seeds, starting from a base set by the
    benchmark seed."""
    s = 1000 * seed + k
    return [{"kind": "dominance", "locus": name, "seed": s}
            for name in LOCI] + [{"kind": "chain", "seed": s}]


def workload_inputs(workload: str, seed: int, rounds: int) -> dict:
    rng = random.Random("%s#%d" % (workload, seed))
    if workload == "certify":
        return {"rounds": [certify_round(rng) for _ in range(rounds)],
                "residues": residue_bundles()}
    if workload == "conic-points":
        return {"rounds": [conic_round(rng) for _ in range(rounds)]}
    if workload == "families":
        return {"rounds": [families_round(seed, k) for k in range(rounds)]}
    raise ValueError("unknown workload %r" % workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    json.dump(workload_inputs(args.workload, args.seed, args.rounds),
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
