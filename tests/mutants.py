"""Mutants that the tests must kill, kept as one table.

Each row of ``MUTANTS`` is one deliberate fault: a file under ``src/``, an
exact text that occurs once in it, the text that replaces it, and the
tests that must each fail once it is replaced.  Tier-1 checks only that
every old text still occurs once and every named test function still
exists (``test_mutants.py``), so a refactor that moves either must update
its row.

Run ``python tests/mutants.py`` to apply the rows.  Each row gets its own
copy of the repository under a temporary directory.  There its tests run
first on the unchanged copy, where they must pass, and then one at a time
on the mutant, where each must fail.  Every run is one pytest process, and
none runs beside another.  The script never writes to ``src/``, and exits
1 if any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest ids, relative to the repository root


_FAST_PATHS = "tests/test_rdf_serialize_parse.py::TestFastPathsAgreeWithScanner::"
_ODD_BODY = _FAST_PATHS + "test_odd_iri_bodies_read_as_the_scanner_reads_them"
_REFUSED_LITERAL = _FAST_PATHS + "test_refused_literals_read_as_the_scanner_reads_them"

MUTANTS = (
    Mutant(
        "sizeX-not-required", "src/ome_rdf/ontology.py",
        '("sizeX", "Image", XSD_INTEGER, 1, 1, Decimal("0"), None),',
        '("sizeX", "Image", XSD_INTEGER, 0, 1, Decimal("0"), None),',
        ("tests/test_ome_xml.py::test_the_rows_alone_decide_what_is_required"
         "[Pixels@SizeX-absent]",
         "tests/test_ontology.py::TestRegistryToGraph::test_export_bytes_are_the_golden_file"),
    ),
    Mutant(
        "shortener-namespace-unescaped", "src/ome_rdf/rdf/serialize.py",
        're.escape(ns) + f"((?:{LOCAL_NAME_PATTERN})?)"',
        'ns + f"((?:{LOCAL_NAME_PATTERN})?)"',
        ("tests/test_rdf_serialize_parse.py::TestIriShortening::test_same_name_as_reference",
         "tests/test_rdf_serialize_parse.py::TestIriShortening::test_written_name"),
    ),
    Mutant(
        "keyword-a-not-shared", "src/ome_rdf/rdf/parse.py",
        "_A = iri_text(RDF_TYPE)",
        "_A = RDF_TYPE",
        ("tests/test_rdf_model.py::TestSharedIriObjects"
         "::test_vocabulary_is_shared_when_other_code_interned_it_first",),
    ),
    Mutant(
        "iri-miss-built-unchecked", "src/ome_rdf/rdf/parse.py",
        "iri = iri_text(value)",
        "iri = value",
        (_ODD_BODY + "[u-escape-subject]", _ODD_BODY + "[quoted-triple-subject]",
         _FAST_PATHS + "test_escaped_and_raw_iri_are_one_object[parse_ntriples-escaped-first]"),
    ),
    Mutant(
        "turtle-refusal-escapes-unplaced", "src/ome_rdf/rdf/parse.py",
        "except (KeyError, InvalidIriError, InvalidLiteralError):",
        "except KeyError:",
        (_ODD_BODY + "[x20-object-after-comma]", _REFUSED_LITERAL + "[not-an-integer-object]",
         _REFUSED_LITERAL + "[surrogate-after-semicolon]"),
    ),
    Mutant(
        "ntriples-literal-refusal-escapes-unplaced", "src/ome_rdf/rdf/parse.py",
        "except (InvalidIriError, InvalidLiteralError):",
        "except InvalidIriError:",
        (_REFUSED_LITERAL + "[byte-range-object]", _REFUSED_LITERAL + "[no-such-day-object]"),
    ),
    Mutant(
        "shared-node-keys-untagged", "src/ome_rdf/mapper.py",
        'if self._first(("Experimenter", exp)):',
        "if self._first(exp):",
        tuple(f"tests/test_mapper.py::TestUnionOfOneImageDocuments"
              f"::test_experimenter_equal_to_an_edge_key[{edge}]"
              for edge in ("containedIn", "derivedFrom")),
    ),
    Mutant(
        "iri-text-keeps-every-string", "src/ome_rdf/rdf/model.py",
        "return sys.intern(text) if _SHARED else text",
        'return globals().setdefault("_KEPT", {}).setdefault(text, text)',
        ("tests/test_rdf_model.py::TestSharedIriObjects"
         "::test_reading_fresh_iris_keeps_memory_bounded",),
    ),
    Mutant(
        "core-class-iris-as-handles", "src/ome_rdf/ontology.py",
        "OntologyClass(iri_text(ONTOLOGY_NS + label), label, cat, origin)",
        "OntologyClass(Iri(ONTOLOGY_NS + label), label, cat, origin)",
        ("tests/test_rdf_model.py::TestSharedIriObjects"
         "::test_vocabulary_and_link_iris_are_the_shared_exact_strs",),
    ),
)


def _pytest(tree: Path, *ids: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant) -> list:
    """The problems found with ``mutant``: none when it is killed."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-traces"))
        if _pytest(tree, *mutant.tests) != 0:
            return ["its tests do not pass on the unchanged copy"]
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return [f"its old text occurs {text.count(mutant.old)} times in {mutant.path}"]
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # exit status 1: tests ran and some failed; anything else is no kill
        return [f"survived {test}" for test in mutant.tests if _pytest(tree, test) != 1]


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        problems = run(mutant)
        survivors += bool(problems)
        print(f"{mutant.name}: {'; '.join(problems) if problems else 'killed'}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
