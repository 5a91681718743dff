"""Graphs hold exact built-ins, which CPython's cyclic collector stops
tracking: a finished graph adds nothing to a collection."""

import gc
from pathlib import Path

import pytest

from ome_rdf.links import LinkRegistry
from ome_rdf.mapper import MintingPolicy, map_document
from ome_rdf.ome_xml import parse_ome_document, parse_sidecar
from ome_rdf.ontology import build_core_ontology, registry_to_graph
from ome_rdf.rdf import BlankNode, Graph, parse_ntriples, parse_turtle

DATA = Path(__file__).parent / "data"


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
}


@pytest.mark.parametrize("source", sorted(GRAPHS))
def test_graph_terms_are_exact_builtins(source):
    for g in GRAPHS[source]():
        assert len(g) > 0
        for triple in g:
            assert type(triple) is tuple and len(triple) == 3
            s, p, o = triple
            assert type(s) in (str, BlankNode) and type(p) is str
            assert type(o) in (str, BlankNode, tuple)
            if type(o) is tuple:
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
            assert not gc.is_tracked(triple[2]), triple
        # nor is the container that holds them, once a full collection met it
        held = [r for r in gc.get_referents(g) if r is not Graph]
        assert held and not [type(r) for r in held if gc.is_tracked(r)]
