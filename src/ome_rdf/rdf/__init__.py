"""Deterministic RDF core: terms, graphs, canonical Turtle/N-Triples."""

from .model import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    term_sort_key,
)
from .isomorphism import graph_isomorphic
from .parse import parse, parse_ntriples, parse_turtle
from .serialize import serialize, serialize_ntriples, serialize_turtle, term_to_ntriples

__all__ = [
    "BlankNode",
    "Graph",
    "Iri",
    "Literal",
    "Term",
    "Triple",
    "graph_isomorphic",
    "parse",
    "parse_ntriples",
    "parse_turtle",
    "serialize",
    "serialize_ntriples",
    "serialize_turtle",
    "term_sort_key",
    "term_to_ntriples",
]
