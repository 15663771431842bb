"""Command-line frontend: every library check as a deterministic,
scriptable command.

Output goes to stdout as plain text or, with --output json, as a
single JSON object per run.  Exit codes partition the outcomes:

    0   success / property verified
    1   invalid input (bad file, bad flag value, malformed bundle)
    2   degenerate computation (pivot failure, vanishing discriminant,
        collapsed chain, rank deficit)
    3   no certificate found (inconclusive one-sided test)

All randomness flows through the --seed flag of `dominance` and
`cremona-chain`; reruns with the same inputs produce byte-identical
output.  Each flag is accepted only by the commands that read it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import cache
from importlib import resources

from .brauer import (
    DEFAULT_PRIME_BOUND,
    certificate_from_residues,
    residues_all,
    t_text,
)
from .bundles import (
    BundleError,
    Weights,
    alcuin_count,
    alcuin_count_closed,
    discriminant,
    load_bundle,
    multidegrees_for_discriminant,
    parse_bundle_text,
    validate_bundle,
)
from .families import (
    DEGENERATION_PAIRS,
    DOMINANCE_PAIRS,
    FamiliesError,
    deformation_table,
    dominance_report,
    locus,
    verify_degeneration,
)
from .plane import (
    CHAIN_Q,
    DEFAULT_HEIGHT_BOUND,
    ConicQ,
    PlaneError,
    chain_U12,
    conic_has_point,
    u12_delta,
)
from .quadforms import (
    DegeneratePivot,
    MestreError,
    MestreFailure,
    brauer_model,
    diagonalize_pivoted,
    generic_fiber_form,
    mestre_normal_form,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGENERATE = 2
EXIT_NO_CERTIFICATE = 3


class CommandFailure(Exception):
    """Terminates a command with a specific exit code and message;
    `prog` names the parser when the command line itself was rejected."""

    def __init__(self, code: int, message: str, prog: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message
        self.prog = prog


def fixture_text(name: str) -> str:
    return resources.files("conicbundles").joinpath(
        "fixtures", name).read_text(encoding="utf-8")


def _load(path):
    try:
        cb = load_bundle(path)
    except OSError as exc:
        raise CommandFailure(EXIT_INVALID, "cannot read %s: %s" % (path, exc))
    except BundleError as exc:
        raise CommandFailure(EXIT_INVALID, "%s: %s" % (path, exc))
    try:
        return validate_bundle(cb)
    except BundleError as exc:
        raise CommandFailure(EXIT_INVALID, "%s: %s" % (path, exc))


def _triple(text: str) -> Weights:
    parts = text.replace("(", " ").replace(")", " ").replace(",", " ").split()
    if len(parts) != 3:
        raise CommandFailure(EXIT_INVALID,
                             "expected three integers, got %r" % text)
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise CommandFailure(EXIT_INVALID,
                             "expected three integers, got %r" % text)
    try:
        return Weights(*nums)
    except BundleError as exc:
        raise CommandFailure(EXIT_INVALID, str(exc))


# -- command bodies -----------------------------------------------------
# Each returns (exit_code, payload, lines); payload is the JSON object,
# lines the text rendering of the same facts.

def cmd_validate(args):
    cb = _load(args.file)
    lines = [
        "weights: (%d, %d, %d)" % cb.weights.tuple,
        "multidegree: (%s)" % ", ".join(str(d)
                                        for d in cb.multidegree().tuple),
        "shift: %d" % cb.shift(),
    ]
    if cb.params:
        lines.append("params: %s" % " ".join(cb.params))
    for flag in cb.flags:
        lines.append("note: %s" % flag)
    lines.append("valid")
    payload = {
        "command": "validate",
        "file": str(args.file),
        "weights": list(cb.weights.tuple),
        "multidegree": list(cb.multidegree().tuple),
        "shift": cb.shift(),
        "params": list(cb.params),
        "flags": list(cb.flags),
        "valid": True,
    }
    return EXIT_OK, payload, lines


def cmd_discriminant(args):
    cb = _load(args.file)
    data = discriminant(cb)
    if data.degenerate:
        raise CommandFailure(EXIT_DEGENERATE,
                             "discriminant vanishes identically")
    code = EXIT_OK if data.degree == data.expected_degree else EXIT_DEGENERATE
    lines = [
        "degree: %d (expected %d)" % (data.degree, data.expected_degree),
        "delta = %s" % data.delta_homogeneous,
        "delta(t) = %s" % data.delta_affine,
    ]
    if code != EXIT_OK:
        lines.append("degenerate: degree dropped")
    payload = {
        "command": "discriminant",
        "file": str(args.file),
        "degree": data.degree,
        "expected_degree": data.expected_degree,
        "degree_drop": data.degree != data.expected_degree,
        "delta": str(data.delta_homogeneous),
        "delta_affine": str(data.delta_affine),
    }
    return code, payload, lines


def _require_numeric(cb, what: str):
    if cb.params:
        raise CommandFailure(EXIT_INVALID, "%s needs a numeric bundle" % what)


def _pivot_report(diag, lines, payload):
    """The pivot ordering as a text line and a JSON key, and the shear
    the same way when one was made."""
    lines.append("pivot: (%d, %d, %d)" % diag.pivot)
    payload["pivot"] = list(diag.pivot)
    if diag.shear is not None:
        lines.append("shear: (%d, %d)" % diag.shear)
        payload["shear"] = list(diag.shear)


def cmd_diagonalize(args):
    cb = _load(args.file)
    _require_numeric(cb, "diagonalization")
    try:
        diag = diagonalize_pivoted(generic_fiber_form(cb))
    except DegeneratePivot as exc:
        raise CommandFailure(EXIT_DEGENERATE, str(exc))
    lines = ["d%d = %s" % (k, entry) for k, entry in enumerate(diag.entries)]
    lines += ["basis[%d] = (%s)" % (k, ", ".join(str(c) for c in col))
              for k, col in enumerate(diag.basis)]
    payload = {"command": "diagonalize", "file": str(args.file)}
    _pivot_report(diag, lines, payload)
    payload["entries"] = [str(e) for e in diag.entries]
    payload["basis"] = [[str(c) for c in col] for col in diag.basis]
    return EXIT_OK, payload, lines


def cmd_residues(args):
    cb = _load(args.file)
    _require_numeric(cb, "the residue table")
    if cb.has_flag("degenerate-discriminant"):
        raise CommandFailure(EXIT_DEGENERATE,
                             "discriminant vanishes identically")
    if cb.has_flag("rational-by-section"):
        raise CommandFailure(
            EXIT_NO_CERTIFICATE,
            "bundle has a section (zero diagonal coefficient); "
            "no certificate can exist")
    pair = brauer_model(cb)
    rcs = residues_all(pair, args.prime_bound)
    cert = certificate_from_residues(cb, rcs, args.prime_bound)
    lines = ["a = %s" % pair.a, "b = %s" % pair.b]
    payload = {"command": "residues", "file": str(args.file),
               "a": str(pair.a), "b": str(pair.b)}
    _pivot_report(pair, lines, payload)
    rows = []
    for rc in rcs:
        value = t_text(rc.normalized())
        lines.append("place %s: v(a) = %d, v(b) = %d, residue %s%s" % (
            rc.place, rc.v_a, rc.v_b, value,
            " (trivial)" if rc.provably_trivial() else ""))
        rows.append({
            "place": str(rc.place),
            "place_degree": rc.place.degree,
            "irreducibility": rc.place.irreducibility,
            "v_a": rc.v_a,
            "v_b": rc.v_b,
            "residue": value,
            "trivial": rc.provably_trivial(),
        })
    payload["residues"] = rows
    payload["certificate"] = None
    if cert is None:
        lines.append("no certificate found (inconclusive)")
        return EXIT_NO_CERTIFICATE, payload, lines
    lines.append("certificate: %s" % cert.serialize())
    for w in cert.warnings:
        lines.append("warning: %s" % w)
    payload["certificate"] = {
        "place": str(cert.place),
        "residue": t_text(cert.residue.normalized()),
        "prime": cert.witness.p,
        "root": cert.witness.root,
        "warnings": list(cert.warnings),
    }
    return EXIT_OK, payload, lines


def cmd_enumerate(args):
    if args.d < 0:
        raise CommandFailure(EXIT_INVALID, "--d must be non-negative")
    rows = multidegrees_for_discriminant(args.d)
    count = alcuin_count(args.d)
    closed = alcuin_count_closed(args.d)
    lines = []
    for w, md in rows:
        lines.append("weights (%d, %d, %d)  multidegree (%s)" % (
            w.tuple + (", ".join(str(x) for x in md.tuple),)))
    lines.append("count: %d (series %d, closed form %d)" % (
        len(rows), count, closed))
    payload = {
        "command": "enumerate",
        "d": args.d,
        "rows": [{"weights": list(w.tuple), "multidegree": list(md.tuple)}
                 for w, md in rows],
        "count": len(rows),
        "series_count": count,
        "closed_form_count": closed,
    }
    code = EXIT_OK if len(rows) == count == closed else EXIT_DEGENERATE
    return code, payload, lines


def cmd_cohomology(args):
    w = _triple(args.type)
    table = deformation_table(w)
    lines = [
        "weights: (%d, %d, %d)" % w.tuple,
        "h1_end: %d" % table.h1_end,
        "h0_normal: %d" % table.h0_normal,
        "h1_normal: %d" % table.h1_normal,
    ]
    payload = {
        "command": "cohomology",
        "weights": list(w.tuple),
        "h1_end": table.h1_end,
        "h0_normal": table.h0_normal,
        "h1_normal": table.h1_normal,
    }
    return EXIT_OK, payload, lines


def cmd_dominance(args):
    if args.locus not in DOMINANCE_PAIRS:
        raise CommandFailure(
            EXIT_INVALID, "unknown locus %r (choose from %s)" % (
                args.locus, ", ".join(DOMINANCE_PAIRS)))
    spec = locus(args.locus)
    lines = ["locus %s  weights (%d, %d, %d)  dimension %d" % (
        (args.locus,) + spec.weights + (spec.dimension,))]
    reports = []
    all_ok = True
    for k in range(args.seeds):
        seed = args.seed + k
        try:
            rep = dominance_report(args.locus, seed)
        except FamiliesError as exc:
            raise CommandFailure(EXIT_DEGENERATE,
                                 "seed %d: %s" % (seed, exc))
        all_ok = all_ok and rep.ok
        lines.append(
            "seed %d: columns %d (chart %d + locus %d), rank %d / %d%s" % (
                seed, rep.columns, rep.chart_size, rep.locus_dims,
                rep.rank, rep.expected, "" if rep.ok else "  RANK DEFICIT"))
        reports.append({
            "seed": seed,
            "chart": rep.chart_size,
            "locus_dims": rep.locus_dims,
            "columns": rep.columns,
            "normal_index": rep.normal_index,
            "fallback": rep.fallback,
            "rank": rep.rank,
            "expected": rep.expected,
            "ok": rep.ok,
        })
    lines.append("full rank at every seed" if all_ok
                 else "rank deficit at some seed")
    payload = {
        "command": "dominance",
        "locus": args.locus,
        "weights": list(spec.weights),
        "reports": reports,
        "ok": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_DEGENERATE), payload, lines


# chain sampling: draw the thirteen template parameters from
# [-CHAIN_RANGE, CHAIN_RANGE], force the normal-form slice (c3 = -b3),
# and reject draws that collapse the chain before it starts.
CHAIN_RANGE = 9
CHAIN_DRAWS = 200


def sample_chain_instantiation(template, seed) -> dict:
    rng = random.Random("chain#%s" % seed)
    for _ in range(CHAIN_DRAWS):
        values = {p: Fraction(rng.randint(-CHAIN_RANGE, CHAIN_RANGE))
                  for p in template.params}
        if "c3" in values and "b3" in values:
            values["c3"] = -values["b3"]
        delta = u12_delta(values)
        if not delta:
            continue
        if not (values["d0"] + values["g0"] + values["h0"]):
            continue
        return values
    raise CommandFailure(EXIT_DEGENERATE,
                         "no admissible instantiation after %d draws"
                         % CHAIN_DRAWS)


def cmd_cremona_chain(args):
    if args.file:
        template = _load(args.file)
    else:
        try:
            template = validate_bundle(
                parse_bundle_text(fixture_text("u12_template.cb")))
        except BundleError as exc:
            raise CommandFailure(EXIT_INVALID, "shipped template: %s" % exc)
    if not template.params:
        raise CommandFailure(
            EXIT_INVALID,
            "the chain template needs free parameters to instantiate")
    values = sample_chain_instantiation(template, args.seed)
    try:
        chain = chain_U12(template, instantiation=values)
    except (PlaneError, BundleError) as exc:
        raise CommandFailure(EXIT_DEGENERATE, str(exc))
    lines = ["instantiation (seed %d): %s" % (
        args.seed, ", ".join("%s = %s" % (p, values[p])
                             for p in template.params))]
    lines.append("degrees: (%s)" % ", ".join(str(d) for d in chain.degrees))
    lines.append("multiplicity %d at (%d, %d, %d)" % (
        (chain.q_multiplicity,) + CHAIN_Q))
    lines.append("tangent cone: %s" % chain.q_tangent_cone)
    lines.append("double points: %s" % "; ".join(
        "(%d, %d, %d)" % pt for pt in chain.double_points))
    lines.append("delta = %s" % chain.delta)
    for label, curve in zip(("C", "C1", "C2", "C3"),
                            (chain.C, chain.C1, chain.C2, chain.C3)):
        lines.append("%s (degree %d) = %s" % (label, curve.degree,
                                              curve.poly))
    payload = {
        "command": "cremona-chain",
        "seed": args.seed,
        "instantiation": {p: str(values[p]) for p in template.params},
        "degrees": list(chain.degrees),
        "deep_point": list(CHAIN_Q),
        "q_multiplicity": chain.q_multiplicity,
        "tangent_cone": str(chain.q_tangent_cone),
        "double_points": [list(pt) for pt in chain.double_points],
        "delta": str(chain.delta),
        "curves": {label: str(curve.poly) for label, curve in
                   zip(("C", "C1", "C2", "C3"),
                       (chain.C, chain.C1, chain.C2, chain.C3))},
    }
    return EXIT_OK, payload, lines


def cmd_degenerate(args):
    key = args.pair.replace(" ", "").replace("_", "-")
    if "->" not in key and key.count("-") == 1:
        key = key.replace("-", "->")
    try:
        report = verify_degeneration(key)
    except FamiliesError as exc:
        raise CommandFailure(EXIT_INVALID, str(exc))
    lines = ["pair %s: source (%d, %d, %d) -> target (%d, %d, %d)" % (
        (report.pair,) + report.source + report.target)]
    for check in report.checks:
        lines.append("%s  %s%s" % (
            "ok  " if check.ok else "FAIL",
            check.label,
            "" if check.ok or not check.detail else " [%s]" % check.detail))
    lines.append("%d checks, %d failures" % (len(report.checks),
                                             len(report.failures())))
    payload = {
        "command": "degenerate",
        "pair": report.pair,
        "source": list(report.source),
        "target": list(report.target),
        "checks": [{"label": c.label, "ok": c.ok, "detail": c.detail}
                   for c in report.checks],
        "ok": report.ok,
    }
    return (EXIT_OK if report.ok else EXIT_DEGENERATE), payload, lines


def cmd_conic_point(args):
    parts = args.coeffs.replace("(", " ").replace(")", " ").split(",")
    if len(parts) != 6:
        raise CommandFailure(
            EXIT_INVALID,
            "expected six comma-separated coefficients "
            "(w0^2, w0*w1, w1^2, w0*w2, w1*w2, w2^2)")
    try:
        coeffs = tuple(Fraction(p.strip()) for p in parts)
        conic = ConicQ(coeffs)
    except (ValueError, ZeroDivisionError) as exc:
        raise CommandFailure(EXIT_INVALID, str(exc))
    result = conic_has_point(conic, height=args.height_bound)
    lines = ["conic: %s" % conic.poly(), "status: %s" % result.status]
    if result.note:
        lines.append("note: %s" % result.note)
    payload = {
        "command": "conic-point",
        "coeffs": [str(c) for c in coeffs],
        "status": result.status,
        "point": None,
        "obstructions": list(result.obstructions),
        "height_bound": result.height_bound,
        "note": result.note,
    }
    if result.status == "point":
        lines.append("point: [%s : %s : %s]" % result.point)
        payload["point"] = [str(x) for x in result.point]
        return EXIT_OK, payload, lines
    if result.status == "obstructed":
        lines.append("obstructed at: %s" % ", ".join(result.obstructions))
        return EXIT_OK, payload, lines
    lines.append("undecided below height %d" % result.height_bound)
    return EXIT_NO_CERTIFICATE, payload, lines


def cmd_mestre(args):
    cb = _load(args.file)
    if cb.weights.tuple != (4, 0, 0):
        raise CommandFailure(EXIT_INVALID,
                             "normal form needs weights (4, 0, 0)")
    _require_numeric(cb, "normal form")
    try:
        result = mestre_normal_form(cb)
    except MestreError as exc:
        raise CommandFailure(EXIT_DEGENERATE, str(exc))
    if isinstance(result, MestreFailure):
        payload = {
            "command": "mestre",
            "file": str(args.file),
            "ok": False,
            "reason": result.reason,
            "B": str(result.B),
        }
        lines = ["failure: %s" % result.reason, "B = %s" % result.B]
        return EXIT_NO_CERTIFICATE, payload, lines
    lines = [
        "T(u) = %s" % result.T,
        "c = %s" % result.c,
        "shift = %s" % result.shift,
        "xi = %s" % result.xi,
        "B = %s" % result.B,
        "A = %s" % result.A,
    ]
    payload = {
        "command": "mestre",
        "file": str(args.file),
        "ok": True,
        "T": str(result.T),
        "c": str(result.c),
        "shift": str(result.shift),
        "xi": str(result.xi),
        "B": str(result.B),
        "A": str(result.A),
    }
    return EXIT_OK, payload, lines


# -- argument plumbing --------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; that slot is reserved for
    # degenerate computations, so `main` reports usage errors with 1
    def error(self, message):
        raise CommandFailure(EXIT_INVALID, message, self.prog)


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be positive, got %d" % n)
    return n


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it
    costs about a millisecond, and parsing leaves no state on it."""
    common = _Parser(add_help=False)
    common.add_argument("--output", choices=("text", "json"),
                        default="text", help="report format")

    parser = _Parser(
        prog="conicbundles",
        description="exact-arithmetic checks for conic bundles over "
                    "the projective line")
    sub = parser.add_subparsers(dest="cmd", metavar="command")
    sub.required = True

    def add(name, fn, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate,
            "check a bundle file's degree compatibilities")
    p.add_argument("file")

    p = add("discriminant", cmd_discriminant,
            "discriminant of a bundle file")
    p.add_argument("file")

    p = add("diagonalize", cmd_diagonalize,
            "orthogonal diagonalization of the generic fiber form")
    p.add_argument("file")

    p = add("residues", cmd_residues,
            "residue report and no-section certificate search")
    p.add_argument("file")
    p.add_argument("--prime-bound", type=_positive,
                   default=DEFAULT_PRIME_BOUND, metavar="N",
                   help="largest prime tried for witnesses")

    p = add("enumerate", cmd_enumerate,
            "weight types with a given discriminant degree")
    p.add_argument("--d", type=int, required=True,
                   help="discriminant degree")

    p = add("cohomology", cmd_cohomology,
            "deformation dimension counts for one weight type")
    p.add_argument("--type", required=True, metavar="a0,a1,a2",
                   help="weight triple")

    p = add("dominance", cmd_dominance,
            "rank of the orbit-plus-locus differential at seeded points")
    p.add_argument("--locus", required=True,
                   help="one of %s" % ", ".join(DOMINANCE_PAIRS))
    p.add_argument("--seeds", type=_positive, default=5,
                   help="number of consecutive seeds (default 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for sampling (default 0)")

    p = add("cremona-chain", cmd_cremona_chain,
            "run the plane reduction on a seeded chain member")
    p.add_argument("file", nargs="?", default=None,
                   help="template file (default: shipped template)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for sampling (default 0)")

    p = add("degenerate", cmd_degenerate,
            "verify one splitting-type degeneration symbolically")
    p.add_argument("--pair", required=True,
                   help="one of %s" % ", ".join(DEGENERATION_PAIRS))

    p = add("conic-point", cmd_conic_point,
            "rational point or local obstruction for a plane conic")
    p.add_argument("coeffs",
                   help="six comma-separated rationals "
                        "(w0^2, w0*w1, w1^2, w0*w2, w1*w2, w2^2)")
    p.add_argument("--height-bound", type=_positive,
                   default=DEFAULT_HEIGHT_BOUND, metavar="N",
                   help="largest coordinate tried in point searches")

    p = add("mestre", cmd_mestre,
            "degree-8 normal form of a numeric (4,0,0) bundle")
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a rejected command line has no parsed --output: read it off argv
    as_json = ("--output=json" in argv
               or ("--output", "json") in set(zip(argv, argv[1:])))
    command = argv[0] if argv and argv[0][:1] != "-" else None
    try:
        args = build_parser().parse_args(argv)
        as_json, command = args.output == "json", args.cmd
        code, payload, lines = args.fn(args)
    except CommandFailure as fail:
        if as_json:
            print(json.dumps({"command": command, "error": fail.message,
                              "exit_code": fail.code}, indent=2))
        else:
            print("%serror: %s" % (fail.prog and fail.prog + ": ",
                                   fail.message), file=sys.stderr)
        return fail.code
    payload["exit_code"] = code
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
