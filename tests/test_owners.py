"""Each rule has one owner.  XML text becomes an element only in
``ome_xml.read_xml``, which maps every XML fault to ``MalformedXmlError``;
the ontology rows become objects only in ``ontology.build_core_ontology``,
and labels resolve against the core only at import, where the OME-XML
reader takes from the rows' ``min_count`` alone which attributes are
required; the CURIE prefix grammar and the TSV line rule are stated only
in ``links``, and the blank node label and language tag grammars, the
characters an IRI may not hold, the surrogate range and the writer's local
name grammar only in the RDF model, whose ``iri_text`` alone interns; no
module imports another's private name; graph comparison orders terms by
the model's order, not by the writer's text; and the Turtle oracle shares
no code with the writer it checks."""

import ast
from pathlib import Path

import oracle
import pytest

ROOT = Path(__file__).resolve().parent.parent
WRITER = "ome_rdf.rdf.serialize"


def _functions_naming(tree, module: str, name: str) -> set:
    """The qualified names of the functions (the module, outside any) whose
    own code names ``name``: as an attribute, a variable or an import."""
    owners = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if name in (getattr(child, "attr", None), getattr(child, "id", None),
                        getattr(child, "name", None)):
                owners.add(owner)
            visit(child, owner)

    visit(tree, module)
    return owners


def _owners_in_src(name: str) -> set:
    """The functions and modules under ``src/`` whose own code names ``name``."""
    owners = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        owners |= _functions_naming(ast.parse(path.read_text(), str(path)), module, name)
    return owners


@pytest.mark.parametrize("rows", ["_PROPERTIES", "_TRANSLATED", "_EXTENDED"])
def test_only_the_core_build_reads_the_ontology_rows(rows):
    assert _owners_in_src(rows) == {"ome_rdf.ontology", "ome_rdf.ontology.build_core_ontology"}


@pytest.mark.parametrize("lookup", ["class_by_label", "property_by_label"])
def test_labels_resolve_against_the_core_at_import(lookup):
    # outside the ontology, only module code looks labels up, on the core it
    # imports: no call resolves a label on a registry passed in at call time
    owners = {o for o in _owners_in_src(lookup)
              if o != "ome_rdf.ontology" and not o.startswith("ome_rdf.ontology.")}
    assert owners <= {"ome_rdf.ome_xml", "ome_rdf.mapper"}


def test_only_the_rows_make_an_attribute_required():
    # _require reads ids and references, which map to no property: every
    # other attribute is required only by its row's min_count
    tree = ast.parse((ROOT / "src" / "ome_rdf" / "ome_xml.py").read_text())
    attrs = [ast.unparse(node.args[1]) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require"]
    assert attrs and set(attrs) == {"'ID'"}


def test_curie_prefix_grammar_has_one_owner():
    grammar = "[a-z][a-z0-9_]*"
    holders = [p.name for p in sorted((ROOT / "src").rglob("*.py")) if grammar in p.read_text()]
    assert holders == ["links.py"]


@pytest.mark.parametrize("grammar", [
    "[A-Za-z][A-Za-z0-9]*",  # blank node label
    "[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*",  # language tag
    r'<>"{}|^`\\\x00-\x20',  # the ASCII characters an IRI may not hold
    r"\ud800-\udfff",  # lone surrogates
    "[A-Za-z_][A-Za-z0-9_-]*",  # the local name of a prefixed name the writer writes
])
def test_term_grammars_have_one_owner(grammar):
    holders = [p.name for p in sorted((ROOT / "src").rglob("*.py")) if grammar in p.read_text()]
    assert holders == ["model.py"]


def test_tsv_line_rule_has_one_owner():
    # the sidecar and link registry readers split lines by links.tsv_lines
    rule = r'.replace("\r\n", "\n").replace("\r", "\n")'
    holders = [p.name for p in sorted((ROOT / "src").rglob("*.py")) if rule in p.read_text()]
    assert holders == ["links.py"]
    assert _owners_in_src("tsv_lines") >= {"ome_rdf.ome_xml.parse_sidecar",
                                           "ome_rdf.links.LinkRegistry.loads"}


@pytest.mark.parametrize("message, owner", [
    ("appears more than once", "ome_xml.py"),  # an <Image>'s repeated child
    ("bad blank node label", "parse.py"),  # a parser's blank node token
    ("not an RDF term: ", "model.py"),  # the one term check
])
def test_message_is_raised_in_one_place(message, owner):
    holders = [p.name for p in sorted((ROOT / "src").rglob("*.py"))
               for node in ast.walk(ast.parse(p.read_text(), str(p)))
               if isinstance(node, ast.Constant) and node.value == message]
    assert holders == [owner]


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                private += [(path.name, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_graph_comparison_names_nothing_of_the_writer():
    writer = ast.parse((ROOT / "src" / "ome_rdf" / "rdf" / "serialize.py").read_text())
    defined = {"serialize"}
    for node in writer.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert "term_to_ntriples" in defined
    tree = ast.parse((ROOT / "src" / "ome_rdf" / "rdf" / "isomorphism.py").read_text())
    assert not {name for name in defined
                if _functions_naming(tree, "ome_rdf.rdf.isomorphism", name)}


def test_each_rule_has_one_owner():
    assert _owners_in_src("fromstring") == {"ome_rdf.ome_xml.read_xml"}
    # one table of shared IRI objects: only iri_text interns, once the model
    # has probed whether the runtime frees interned strings
    assert _owners_in_src("intern") == {"ome_rdf.rdf.model.iri_text",
                                        "ome_rdf.rdf.model._frees_interned_strings"}

    tree = ast.parse((ROOT / "tests" / "oracle.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {m for m in imported if m == WRITER or m.startswith(WRITER + ".")}
    # nor any of the writer's names through a package that re-exports them
    assert not [name for name, value in vars(oracle).items()
                if WRITER in (getattr(value, "__module__", None),
                              getattr(value, "__name__", None))]
