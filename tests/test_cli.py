"""Command-line contracts of the residue commands."""

import json
from importlib.resources import files

from conicbundles.brauer import no_section_certificate
from conicbundles.bundles import parse_bundle_text, validate_bundle
from conicbundles.cli import EXIT_INVALID, EXIT_OK, main


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


def test_residues_certificate_matches_search(capsys):
    for name in ("min844.cb", "remark433222.cb"):
        path = fixture_path(name)
        code, payload = run_json(capsys, ["residues", path])
        assert code == EXIT_OK
        text = (files("conicbundles") / "fixtures" / name).read_text()
        cert = no_section_certificate(validate_bundle(parse_bundle_text(text)))
        assert payload["certificate"] == {
            "place": str(cert.place),
            "residue": str(cert.residue.normalized()),
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
