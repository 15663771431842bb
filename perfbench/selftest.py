"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs the program on a few small inputs, shows that checks.py accepts
each real output, and that it rejects each output after one corruption:
a wrong prime or root, a place not dividing Delta, a model pair outside
its square class, no certificate where a witness exists, a point off
the conic, a missing obstruction, rank
20, and a chain with the wrong degrees.  Exits 1 if any check accepts a
corrupted payload or rejects a real one.
"""

from __future__ import annotations

import json
import sys

import checks
import run

FIXTURES = run.FIXTURES


def cert_line(line: str, **change) -> str:
    cert = checks.parse_certificate(line)
    cert.update(change)
    return "place=%s residue=%s prime=%d root=%s" % (
        cert["place"], cert["residue"], cert["prime"],
        "-" if cert["root"] is None else cert["root"])


def with_json(out, edit):
    code, text = out
    payload = json.loads(text)
    edit(payload)
    return code, json.dumps(payload)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    runner = run.Runner()
    cases = []

    # certificates: a rational place (min844) and a degree-8 place
    for name in ("min844.cb", "remark433222.cb"):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        inp = {"kind": "general", "text": text}
        line = runner.certificate(text)
        cert = checks.parse_certificate(line)
        cases.append(("%s certificate" % name, True,
                      lambda i=inp, l=line: checks.check_cert_op(i, l)))
        wrong_p = 7 if cert["root"] is None else cert["prime"] + 2
        cases.append(("%s wrong prime" % name, False,
                      lambda i=inp, l=cert_line(line, prime=wrong_p):
                      checks.check_cert_op(i, l)))
        if cert["root"] is not None:
            cases.append(("%s wrong root" % name, False,
                          lambda i=inp, l=cert_line(
                              line, root=(cert["root"] + 1) % cert["prime"]):
                          checks.check_cert_op(i, l)))
        cases.append(("%s place off Delta" % name, False,
                      lambda i=inp, l=cert_line(line, place="t-100"):
                      checks.check_cert_op(i, l)))
        out = runner.command(["residues", str(FIXTURES / name),
                              "--output", "json"])
        cases.append(("%s residues" % name, True,
                      lambda t=text, o=out: checks.check_residues_op(t, *o)))

        def times_t(p):
            p["a"] = "t*(%s)" % p["a"]
        cases.append(("%s residues, a outside its class" % name, False,
                      lambda t=text, o=with_json(out, times_t):
                      checks.check_residues_op(t, *o)))

    remark = {"kind": "general",
              "text": (FIXTURES / "remark433222.cb").read_text(
                  encoding="utf-8")}
    cases.append(("inconclusive where a witness exists", False,
                  lambda: checks.check_inconclusive(remark)))

    # a split bundle: the residue must be the class of -sigma11/sigma22
    split = {"kind": "split", "roots": list(range(8)),
             "text": (FIXTURES / "min844.cb").read_text(encoding="utf-8")}
    line = runner.certificate(split["text"])
    cases.append(("split certificate", True,
                  lambda l=line: checks.check_cert_op(split, l)))
    cases.append(("split certificate, wrong class", False,
                  lambda l=cert_line(line, residue="-1"):
                  checks.check_cert_op(split, l)))

    # conics
    point = {"status": "point", "coeffs": [1, 0, 1, 0, 0, -13]}
    out = runner.command(["conic-point", "--output", "json", "--",
                          "1,0,1,0,0,-13"])
    cases.append(("conic point", True,
                  lambda o=out: checks.check_conic_op(point, *o)))

    def off(p):
        p["point"] = [str(int(p["point"][0]) + 1)] + p["point"][1:]
    cases.append(("conic point off the conic", False,
                  lambda o=with_json(out, off):
                  checks.check_conic_op(point, *o)))
    obstructed = {"status": "obstructed", "obstructions": ["2", "3"],
                  "coeffs": [1, 0, 1, 0, 0, -39]}
    out = runner.command(["conic-point", "--output", "json", "--",
                          "1,0,1,0,0,-39"])
    cases.append(("obstructed conic", True,
                  lambda o=out: checks.check_conic_op(obstructed, *o)))

    def drop(p):
        p["obstructions"] = p["obstructions"][:1]
    cases.append(("obstruction missing", False,
                  lambda o=with_json(out, drop):
                  checks.check_conic_op(obstructed, *o)))

    # families
    out = runner.command(["dominance", "--locus", "U12", "--seeds", "1",
                          "--output", "json"])
    cases.append(("dominance", True,
                  lambda o=out: checks.check_dominance_op(*o)))

    def rank20(p):
        p["reports"][0]["rank"] = 20
    cases.append(("dominance rank 20", False,
                  lambda o=with_json(out, rank20):
                  checks.check_dominance_op(*o)))
    out = runner.command(["cremona-chain", "--output", "json"])
    cases.append(("cremona chain", True,
                  lambda o=out: checks.check_chain_op(*o)))

    def degrees(p):
        p["degrees"] = [8, 6, 4, 4]
    cases.append(("chain degrees", False,
                  lambda o=with_json(out, degrees): checks.check_chain_op(*o)))

    def swap(p):
        p["curves"]["C"] = p["curves"]["C1"]
    cases.append(("chain curve C replaced", False,
                  lambda o=with_json(out, swap): checks.check_chain_op(*o)))

    bad = 0
    for label, should_pass, check in cases:
        errors = check()
        ok = (not errors) == should_pass
        bad += not ok
        print("%-4s %-45s %s" % ("ok" if ok else "FAIL", label,
                                 errors[0] if errors else "accepted"))
    print("%d cases, %d wrong" % (len(cases), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
