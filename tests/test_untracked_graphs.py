"""Graphs hold exact built-ins, which CPython's cyclic collector stops
tracking: a finished graph adds nothing to a collection."""

import gc
from pathlib import Path

import pytest

from ome_rdf.links import LinkRegistry
from ome_rdf.mapper import MintingPolicy, map_document
from ome_rdf.namespaces import XSD_NS
from ome_rdf.ome_xml import parse_ome_document, parse_sidecar
from ome_rdf.ontology import build_core_ontology, registry_to_graph
from ome_rdf.rdf import BlankNode, Graph, Iri, Literal, Triple, parse_ntriples, parse_turtle

DATA = Path(__file__).parent / "data"
EX = "http://ex.org/"


class _Text(str):
    __slots__ = ()


# blank subjects and objects beside IRIs and literals; both parsers read
# every blank node with the scanner
_BLANK_NT = (f'_:b1 <{EX}p> _:b2 .\n_:b1 <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> _:b1 .\n'
             f'_:b2 <{EX}q> "x" .\n_:b2 <{EX}q> "tab\\there"@en .\n<{EX}s> <{EX}q> "y" .\n')
_BLANK_TTL = (f"@prefix ex: <{EX}> .\n_:b1 ex:p _:b2, ex:o .\nex:s ex:p _:b1 ; ex:q \"y\" .\n"
              '_:b2 ex:q "x", "tab\\there"@en .\n')


def _mapped():
    doc = parse_ome_document((DATA / "golden.ome.xml").read_text(encoding="utf-8"))
    anns = parse_sidecar((DATA / "golden.ann.tsv").read_text(encoding="utf-8"))
    result = map_document(doc, anns, build_core_ontology(), MintingPolicy(),
                          LinkRegistry.default())
    return [result.graph] + [r.graph for r in result.records]


GRAPHS = {
    "map_document": _mapped,
    "parse_ntriples": lambda: [parse_ntriples((DATA / "golden.nt").read_text(encoding="utf-8"))],
    "parse_turtle": lambda: [parse_turtle((DATA / "golden.ttl").read_text(encoding="utf-8"))],
    "registry_to_graph": lambda: [registry_to_graph(build_core_ontology())],
    "parse_ntriples_blanks": lambda: [parse_ntriples(_BLANK_NT)],
    "parse_turtle_blanks": lambda: [parse_turtle(_BLANK_TTL)],
    "Graph_blanks": lambda: [Graph([
        Triple(BlankNode("b1"), EX + "p", BlankNode("b2")),
        Triple(BlankNode("b1"), EX + "p", EX + "o"),
        Triple(EX + "s", EX + "p", BlankNode("b1")),
        Triple(BlankNode("b2"), EX + "q", Literal("x")),
    ])],
    # str subclasses given for a literal's lexical form and language
    "Literal_subclass_parts": lambda: [Graph([
        Triple(EX + "s", EX + "p", Literal(Iri(EX + "x"), XSD_NS + "anyURI")),
        Triple(EX + "s", EX + "q", Literal("x", language=_Text("en"))),
    ])],
}


@pytest.mark.parametrize("source", sorted(GRAPHS))
def test_graph_terms_are_exact_builtins(source):
    for g in GRAPHS[source]():
        assert len(g) > 0
        for triple in g:
            assert type(triple) is tuple and len(triple) == 3
            s, p, o = triple
            assert type(s) in (str, tuple) and type(p) is str and type(o) in (str, tuple)
            # a blank node is the 1-tuple of its label, a literal a 3-tuple
            if type(s) is tuple:
                assert len(s) == 1 and type(s[0]) is str
            if type(o) is tuple and len(o) == 1:
                assert type(o[0]) is str
            elif type(o) is tuple:
                lexical, datatype, language = o
                assert type(lexical) is str and type(datatype) is str
                assert language is None or type(language) is str


@pytest.mark.parametrize("source", sorted(GRAPHS))
def test_graph_is_never_walked(source):
    graphs = GRAPHS[source]()
    # a collection untracks a tuple whose items it has already untracked, so
    # a triple first met beside its literal may take a second collection
    gc.collect()
    gc.collect()
    for g in graphs:
        for triple in g:
            assert not gc.is_tracked(triple), triple
            assert not gc.is_tracked(triple[0]), triple
            assert not gc.is_tracked(triple[2]), triple
        # nor is the container that holds them, once a full collection met it
        held = [r for r in gc.get_referents(g) if r is not Graph]
        assert held and not [type(r) for r in held if gc.is_tracked(r)]
