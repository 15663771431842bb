"""Benchmark of the conicbundles package: three workloads, one process,
one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The inputs are drawn by gen.py from
--seed in a child process (gen.py needs sympy, which must not count in
this process's memory), the package is imported from ./src, and every
operation is a call into the package's public functions, timed from
here.  The run repeats whole rounds of operations until --seconds have
passed, then checks every output with checks.py and prints one JSON
line with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed
number of rounds untraced, then the same rounds again with span
wrappers installed from spans.py, and reports the per-layer metrics and
the tracing overhead; its spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
FIXTURES = SRC / "conicbundles" / "fixtures"
WORKLOADS = ("certify", "conic-points", "families")

# rounds drawn per run; a run that needs more cycles through them
POOL_ROUNDS = {"certify": 3, "conic-points": 4, "families": 200}
# rounds replayed untraced and then traced by --trace 1
TRACE_ROUNDS = {"certify": 1, "conic-points": 1, "families": 10}
SETUP_SAMPLES = 5
SETUP_INTERVAL = 4.0
# per-operation caps (seconds); the residue-table runs are the ones
# expected to reach theirs
RESIDUES_CAP = 3.0
OP_CAP = 60.0
TRACE_CAP_FACTOR = 2

SETUP_CODE = r"""
import json, sys
from fractions import Fraction
import conicbundles.cli as cli
from conicbundles.bundles import parse_bundle_text, validate_bundle
from conicbundles.plane import ConicQ
job = json.loads(sys.stdin.read())
for text in job["bundles"]:
    validate_bundle(parse_bundle_text(text))
for coeffs in job["conics"]:
    ConicQ(tuple(Fraction(c) for c in coeffs.split(",")))
"""


# what a certificate operation returns when the search is inconclusive
NO_CERTIFICATE = "inconclusive"


class OpTimeout(BaseException):
    """Raised inside an operation that ran past its cap.  A
    BaseException, so the program's own handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# -- operations ------------------------------------------------------------------

class Op:
    """One call into the package: `key` names its input, `kind` selects
    the check, `cap` bounds its wall time."""

    __slots__ = ("key", "kind", "inp", "argv", "cap")

    def __init__(self, key, kind, inp, argv=None, cap=OP_CAP):
        self.key, self.kind, self.inp, self.argv, self.cap = (
            key, kind, inp, argv, cap)


def build_rounds(workload: str, inputs: dict) -> list:
    rounds = []
    if workload == "certify":
        res_ops = []
        for name in ("min844.cb", "remark433222.cb"):
            path = FIXTURES / name
            res_ops.append(Op("residues:" + name, "residues",
                              {"text": path.read_text(encoding="utf-8")},
                              ["residues", str(path), "--output", "json"],
                              RESIDUES_CAP))
        OUT.mkdir(exist_ok=True)
        for inp in inputs["residues"]:
            path = OUT / ("%s.cb" % inp["tag"].replace("#", "-"))
            path.write_text(inp["text"], encoding="utf-8")
            res_ops.append(Op("residues:" + inp["tag"], "residues", inp,
                              ["residues", str(path), "--output", "json"],
                              RESIDUES_CAP))
        for r, bundles in enumerate(inputs["rounds"]):
            ops = [Op("cert:%d:%d" % (r, k), "cert", inp)
                   for k, inp in enumerate(bundles)]
            rounds.append(ops + res_ops)
    elif workload == "conic-points":
        for r, conics in enumerate(inputs["rounds"]):
            rounds.append([Op("conic:%d:%d" % (r, k), "conic", inp,
                              ["conic-point", "--output", "json", "--",
                               ",".join(str(c) for c in inp["coeffs"])])
                           for k, inp in enumerate(conics)])
    else:
        for items in inputs["rounds"]:
            ops = []
            for inp in items:
                if inp["kind"] == "dominance":
                    argv = ["dominance", "--locus", inp["locus"], "--seeds",
                            "1", "--seed", str(inp["seed"]),
                            "--output", "json"]
                else:
                    argv = ["cremona-chain", "--seed", str(inp["seed"]),
                            "--output", "json"]
                ops.append(Op("%s:%s:%d" % (inp["kind"], inp.get("locus", ""),
                                            inp["seed"]),
                              inp["kind"], inp, argv))
            rounds.append(ops)
    return rounds


def setup_job(workload: str, inputs: dict) -> dict:
    """The inputs the set-up measurement parses and validates."""
    if workload == "certify":
        texts = [inp["text"] for rnd in inputs["rounds"] for inp in rnd]
        texts += [inp["text"] for inp in inputs["residues"]]
        texts += [(FIXTURES / n).read_text(encoding="utf-8")
                  for n in ("min844.cb", "remark433222.cb")]
        return {"bundles": texts, "conics": []}
    if workload == "conic-points":
        return {"bundles": [], "conics": [
            ",".join(str(c) for c in inp["coeffs"])
            for rnd in inputs["rounds"] for inp in rnd]}
    return {"bundles": [(FIXTURES / "u12_template.cb").read_text(
        encoding="utf-8")], "conics": []}


def _program_frames(exc) -> str:
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)
              if "conicbundles" in f.filename]
    return " <- ".join(reversed(frames[-3:]))


class Runner:
    """Runs operations in this process and times each call."""

    def __init__(self, cap_factor=1):
        # functions are looked up on their modules at each call, so the
        # span wrappers of a traced run are the ones called
        from conicbundles import brauer, bundles, cli
        self.brauer, self.bundles, self.cli = brauer, bundles, cli
        self.cap_factor = cap_factor
        self.where = {}

    def certificate(self, text):
        cb = self.bundles.validate_bundle(self.bundles.parse_bundle_text(text))
        cert = self.brauer.no_section_certificate(cb)
        return NO_CERTIFICATE if cert is None else cert.serialize()

    def command(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def run(self, op: Op):
        """(seconds, output); when the operation hit its cap or raised,
        the output is None and `where` says where it stopped."""
        signal.setitimer(signal.ITIMER_REAL, op.cap * self.cap_factor)
        t0 = time.perf_counter()
        try:
            try:
                if op.kind == "cert":
                    out = self.certificate(op.inp["text"])
                else:
                    out = self.command(op.argv)
                dt = time.perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout as exc:
            self.where[op.key] = "cap reached in " + _program_frames(exc)
            return time.perf_counter() - t0, None
        except Exception as exc:  # a failed operation, not a failed run
            self.where[op.key] = "%r raised in %s" % (exc, _program_frames(exc))
            return time.perf_counter() - t0, None
        return dt, out


def measure(runner: Runner, rounds: list, seconds=None, count=None,
            tracer=None, between_rounds=None):
    """Whole rounds, cycling through the pool, until `seconds` have
    passed or `count` rounds are done.  Returns the list of
    (op, seconds, output) in run order."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        if count is not None and r >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if between_rounds is not None:
            between_rounds()
        for op in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.op_id = len(records)
            dt, out = runner.run(op)
            records.append((op, dt, out))
        r += 1
    return records


# -- set-up ----------------------------------------------------------------------

class SetupTimer:
    """Times fresh interpreters that import the CLI and parse and
    validate the workload's inputs.  The samples are spread over the run
    (one between rounds every SETUP_INTERVAL seconds, topped up to
    SETUP_SAMPLES at the end), so that their median does not rest on one
    moment of a machine whose speed drifts."""

    def __init__(self, job: dict):
        self.data = json.dumps(job).encode()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONSTARTUP", None)
        self.times = []
        self.last = None

    def sample(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], input=self.data,
                       env=self.env, check=True, cwd=str(ROOT))
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def between_rounds(self):
        if self.last is None or time.perf_counter() - self.last >= \
                SETUP_INTERVAL:
            self.sample()

    def median(self) -> float:
        self.sample()
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.times)


# Per-layer metrics of a traced run: "<span>.calls" counts calls,
# "<span>.s" is inclusive seconds, "<span>.self_s" self seconds; the
# rest are counters kept by the tracer.
PER_LAYER = (
    "cli.main.self_s",
    "bundles.validate_bundle.s", "parser.parse_poly.s",
    "quadforms.brauer_model.calls", "quadforms.brauer_model.s",
    "quadforms.diagonalize.s",
    "brauer.no_section_certificate.s", "brauer.places_of_pair.s",
    "brauer.residue2.s", "brauer.nonsquare_witness.calls",
    "brauer.nonsquare_witness.s", "brauer.normalized.s",
    "ratfunc.RatFunc.calls", "ratfunc.RatFunc.s",
    "multipoly.mul.calls", "multipoly.mul.s",
    "multipoly.substitute.calls", "multipoly.substitute.s",
    "multipoly.poly_gcd.calls", "multipoly.poly_gcd.s",
    "univariate.yun_squarefree.s", "univariate.urational_roots.s",
    "univariate.udiscriminant.calls", "univariate.squarefree_part_int.s",
    "modular.roots_mod_p.calls", "modular.roots_mod_p.s",
    "modular.pmod_pow.calls", "modular.pmod_pow.s",
    "modular.modp_irreducible_witness.s", "modular.legendre.calls",
    "plane.conic_has_point.s", "plane.hilbert_symbol.calls",
    "plane.chain_U12.s", "plane.cremona_apply.s", "plane.multiplicity_at.s",
    "families.dominance_report.s", "families.locus_member.s",
    "families.pullback.calls", "families.pullback.s", "linalg.mat_rank.s",
)


# -- checking --------------------------------------------------------------------

def check_records(records, checks) -> list:
    """Checks each distinct (input, output) once; an input must give the
    same output every time it runs."""
    errors = []
    seen = {}
    for op, _, out in records:
        if out is None:
            continue
        if op.key in seen:
            if seen[op.key] != out:
                errors.append("%s: output changed between runs" % op.key)
            continue
        seen[op.key] = out
        if op.kind == "cert":
            errs = (checks.check_inconclusive(op.inp)
                    if out == NO_CERTIFICATE
                    else checks.check_cert_op(op.inp, out))
        elif op.kind == "residues":
            errs = checks.check_residues_op(op.inp["text"], *out)
        elif op.kind == "conic":
            errs = checks.check_conic_op(op.inp, *out)
        elif op.kind == "dominance":
            errs = checks.check_dominance_op(*out)
        else:
            errs = checks.check_chain_op(*out)
        errors += ["%s: %s" % (op.key, e) for e in errs]
    return errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setup_s, rss_kb) -> dict:
    done = [dt for _, dt, out in records if out is not None]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(done) / sum(done), "1/s"),
        "op_median_s": metric(statistics.median(done), "s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, records, plain, checks) -> dict:
    totals = tracer.totals()
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        calls, incl, self_s = totals.get(span, (0, 0.0, 0.0))
        if field == "calls":
            out[name] = metric(calls, "count")
        else:
            out[name] = metric(incl if field == "s" else self_s, "s")
    places = tracer.results["brauer.places_of_pair"]
    out["brauer.places"] = metric(sum(len(fs) for _, fs in places), "count")
    out["brauer.places_off_delta"] = metric(sum(
        checks.places_off_delta(records[op_id][0].inp["text"], fs)
        for op_id, fs in places), "count")
    found = [hit for _, hit in tracer.results["brauer.nonsquare_witness"]]
    out["brauer.witness_yield"] = metric(
        sum(found) / len(found) if found else 0.0, "ratio")
    bits = [b for _, b in tracer.results["quadforms.brauer_model"]]
    out["brauer.coeff_bits_max"] = metric(max(bits, default=0), "bits")
    out["plane.search_candidates"] = metric(tracer.square_tests, "count")
    traced = sum(dt for _, dt, o in records if o is not None)
    untraced = sum(dt for _, dt, o in plain if o is not None)
    out["trace.overhead_pct"] = metric(100.0 * (traced / untraced - 1.0), "%")
    out["trace.spans"] = metric(len(tracer.start), "count")
    return out


# -- main ------------------------------------------------------------------------

def generate(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--rounds", str(POOL_ROUNDS[workload])],
        stdout=subprocess.PIPE, check=True, cwd=str(ROOT))
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conicbundles" / "cli.py").is_file():
        print("run.py: no package at %s; run from the root of a checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    phases = [("start", time.perf_counter())]
    inputs = generate(args.workload, args.seed)
    phases.append(("generate", time.perf_counter()))
    rounds = build_rounds(args.workload, inputs)
    if args.trace:
        runner = Runner(cap_factor=TRACE_CAP_FACTOR)
        n = TRACE_ROUNDS[args.workload]
        plain = measure(runner, rounds, count=n)
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            records = measure(runner, rounds, count=n, tracer=tracer)
        finally:
            tracer.uninstall()
        all_records = plain + records
    else:
        setup = SetupTimer(setup_job(args.workload, inputs))
        # the first fresh interpreter also leaves the package compiled, so
        # this process's memory never includes compiling it
        setup.sample()
        runner = Runner()
        records = measure(runner, rounds, seconds=args.seconds,
                          between_rounds=setup.between_rounds)
        setup_s = setup.median()
        all_records = records
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phases.append(("measure", time.perf_counter()))

    import checks
    errors = check_records(all_records, checks)
    if args.trace:
        metrics = per_layer(tracer, records, plain, checks)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / ("trace-%s-%d.tsv.gz" % (args.workload,
                                                     args.seed)))
    else:
        metrics = end_to_end(records, setup_s, rss_kb)
    phases.append(("check", time.perf_counter()))
    print("phases: " + ", ".join(
        "%s %.1f s" % (name, t - prev)
        for (_, prev), (name, t) in zip(phases, phases[1:])),
        file=sys.stderr)
    for key, where in sorted(runner.where.items()):
        runs = [out for op, _, out in all_records if op.key == key]
        print("failed: %s, %d of %d runs, %s" % (
            key, runs.count(None), len(runs), where), file=sys.stderr)
    for e in errors[:20]:
        print("check failed: %s" % e, file=sys.stderr)
    failed = sum(1 for _, _, out in all_records if out is None)
    print(json.dumps({"correct": not errors, "attempted": len(all_records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
