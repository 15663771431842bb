"""Repository tooling.  The benchmark's tracer patches package functions
by name; every name it lists must still exist, or `perfbench/run.py
--trace 1` breaks.  Every definition in the package, module-level
assignments included, is referenced from the package or kept on a list
that says why."""

import ast
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_on_the_package():
    spans = _load_spans()
    targets = [(module, attr) for _, module, attr in spans.LAYERS]
    targets.append(spans.PLANE_SQUARE_TEST)
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, "%s.%s is gone" % (module, attr)
        assert callable(obj), "%s.%s is not callable" % (module, attr)


SRC = Path(__file__).resolve().parents[1] / "src" / "conicbundles"

# definitions nothing in src/ refers to, each kept for a stated reason
UNREFERENCED = {
    # the benchmark calls it
    "no_section_certificate": "perfbench certify times the lazy search",
    "udiscriminant": "perfbench traces it as a layer",
    "pullback": "perfbench traces it; the tests' oracle for group "
                "columns (ROADMAP item 7)",
    # test oracles
    "valuation": "test oracle for residues",
    "bilinear": "test oracle for the congruence check",
    "same_rational_class": "test oracle for residue classes",
    "identity": "the pullback oracle's identity element (ROADMAP item 7)",
    "instantiate": "test oracle that pins u12_template.cb to the U12 "
                   "table",
    # a ROADMAP item is pending
    "tangent_2section_433222": "ROADMAP item 2 puts it on a CLI path",
    "apply_point": "ROADMAP item 2 pulls points through the chain",
    "random_bundle": "ROADMAP item 8 gives it the --seeds sweeps",
    "theorem_310_400_hypotheses": "ROADMAP item 6 routes or deletes it",
    "satisfied": "read off theorem_310_400_hypotheses (ROADMAP item 6)",
    "make_bundle": "ROADMAP item 7 moves the tests onto the parser",
    "bundle_to_text": "ROADMAP item 7 moves the tests onto the parser",
    # called by a library
    "error": "argparse calls ArgumentParser.error on a bad command line",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_or_allowlisted():
    # a definition is a function, a class or a module-level name bound by
    # assignment, so a table that a derivation leaves orphaned fails too;
    # a reference is a name read or an attribute with the definition's
    # name anywhere in src/, so a dead method that shares its name with a
    # live one goes unseen; dunders are read by Python itself
    defined, referenced = set(), set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(t.id for t in targets
                               if isinstance(t, ast.Name)
                               and not _dunder(t.id))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not _dunder(node.name):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = defined - referenced
    assert not unreferenced - set(UNREFERENCED), (
        "nothing in src/ refers to these; delete them or give a reason",
        sorted(unreferenced - set(UNREFERENCED)))
    assert not set(UNREFERENCED) - unreferenced, (
        "allowlisted but now referenced or gone",
        sorted(set(UNREFERENCED) - unreferenced))


# modules whose coefficients may be ints: there 1 / x is a float
INT_COEFFICIENT_MODULES = ("exactmath/univariate.py", "exactmath/modular.py",
                           "brauer.py", "quadforms.py")


def test_no_true_division_of_an_int_literal():
    # an inverse is Fraction(1, x): 1 / x is a float once x is an int
    found = []
    for name in INT_COEFFICIENT_MODULES:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and isinstance(node.left, ast.Constant)
                    and type(node.left.value) is int):
                found.append("%s:%d" % (name, node.lineno))
    assert not found, ("write Fraction(n, x) for n / x", found)
