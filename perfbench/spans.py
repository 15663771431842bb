"""Span tracing of the program's layers, installed from outside.

The program carries no tracing code.  `Tracer.install` replaces each
public function named in `LAYERS` by a wrapper that records a span, in
every `conicbundles` module that holds the function under some name
(`brauer` imports `roots_mod_p` by name, so patching `modular` alone
would miss those calls).  Methods are patched on their class.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, and `op` the id of the benchmark operation that
caused it.  Spans stay in memory in flat arrays and are written out by
`Tracer.write` when the run ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches a method.
LAYERS = (
    ("cli.main", "conicbundles.cli", "main"),
    ("bundles.validate_bundle", "conicbundles.bundles", "validate_bundle"),
    ("parser.parse_poly", "conicbundles.exactmath.parser", "parse_poly"),
    ("quadforms.brauer_model", "conicbundles.quadforms", "brauer_model"),
    ("quadforms.diagonalize", "conicbundles.quadforms", "diagonalize"),
    ("brauer.no_section_certificate", "conicbundles.brauer",
     "no_section_certificate"),
    ("brauer.places_of_pair", "conicbundles.brauer", "places_of_pair"),
    ("brauer.residue2", "conicbundles.brauer", "residue2"),
    ("brauer.nonsquare_witness", "conicbundles.brauer", "nonsquare_witness"),
    ("brauer.normalized", "conicbundles.brauer", "ResidueClass.normalized"),
    ("ratfunc.RatFunc", "conicbundles.exactmath.ratfunc",
     "RatFunc.__init__"),
    ("multipoly.mul", "conicbundles.exactmath.multipoly",
     "MultiPoly.__mul__"),
    ("multipoly.mul", "conicbundles.exactmath.multipoly",
     "MultiPoly.__rmul__"),
    ("multipoly.substitute", "conicbundles.exactmath.multipoly",
     "MultiPoly.substitute"),
    ("multipoly.poly_gcd", "conicbundles.exactmath.multipoly", "poly_gcd"),
    ("univariate.yun_squarefree", "conicbundles.exactmath.univariate",
     "yun_squarefree"),
    ("univariate.urational_roots", "conicbundles.exactmath.univariate",
     "urational_roots"),
    ("univariate.udiscriminant", "conicbundles.exactmath.univariate",
     "udiscriminant"),
    ("univariate.squarefree_part_int", "conicbundles.exactmath.univariate",
     "squarefree_part_int"),
    ("modular.roots_mod_p", "conicbundles.exactmath.modular", "roots_mod_p"),
    ("modular.pmod_pow", "conicbundles.exactmath.modular", "pmod_pow"),
    ("modular.modp_irreducible_witness", "conicbundles.exactmath.modular",
     "modp_irreducible_witness"),
    ("modular.legendre", "conicbundles.exactmath.modular", "legendre"),
    ("plane.conic_has_point", "conicbundles.plane", "conic_has_point"),
    ("plane.hilbert_symbol", "conicbundles.plane", "hilbert_symbol"),
    ("plane.chain_U12", "conicbundles.plane", "chain_U12"),
    ("plane.cremona_apply", "conicbundles.plane", "cremona_apply"),
    ("plane.multiplicity_at", "conicbundles.plane", "multiplicity_at"),
    ("families.dominance_report", "conicbundles.families",
     "dominance_report"),
    ("families.locus_member", "conicbundles.families", "locus_member"),
    ("families.pullback", "conicbundles.families", "pullback"),
    ("linalg.mat_rank", "conicbundles.exactmath.linalg", "mat_rank"),
)



def _pair_bits(pair) -> int:
    """Largest bit size of a numerator or denominator among the
    coefficients of the model's a and b."""
    bits = 0
    for r in (pair.a, pair.b):
        for poly in (r.num, r.den):
            for c in poly.terms.values():
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return bits


# What a traced run keeps of a layer's results, per call.
KEEP = {
    "brauer.places_of_pair": lambda places: [p.f for p in places],
    "quadforms.brauer_model": _pair_bits,
    "brauer.nonsquare_witness": lambda witness: witness is not None,
}

# Counted, not timed: the rational-square tests `plane` makes while it
# searches for a point (one per candidate that survives the sign test).
PLANE_SQUARE_TEST = ("conicbundles.plane", "is_square_rat")


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class Tracer:
    """Records spans around the program's layer entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.results: dict[str, list] = defaultdict(list)
        self.square_tests = 0
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, op, stack = self.parent, self.op, self.stack
        results = self.results[name]
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if keep is not None:
                results.append((self.op_id, keep(out)))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        for name, module, attr in LAYERS:
            owner, leaf, fn = _resolve(module, attr)
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._undo.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
                continue
            for modname, mod in list(sys.modules.items()):
                if not modname.startswith("conicbundles") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        mod = sys.modules[PLANE_SQUARE_TEST[0]]
        fn = getattr(mod, PLANE_SQUARE_TEST[1])

        def counted(q):
            self.square_tests += 1
            return fn(q)

        self._undo.append((mod, PLANE_SQUARE_TEST[1], fn))
        setattr(mod, PLANE_SQUARE_TEST[1], counted)

    def uninstall(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    # -- summaries --------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).
        Inclusive time counts only spans not nested in a span of the
        same name, so recursion is not counted twice; self time is a
        span's duration minus the durations of its direct children."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        selft = defaultdict(float)
        for i in range(n):
            nid = self.name_of[i]
            calls[nid] += 1
            selft[nid] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                incl[nid] += dur[i]
        return {self.names[k]: (calls[k], incl[k], selft[k])
                for k in range(len(self.names))}

    def write(self, path):
        """All spans as tab-separated lines: name, start, end, parent
        index, operation id (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    names[self.name_of[i]], self.start[i], self.end[i],
                    self.parent[i], self.op[i]))
