"""Deterministic RDF core: terms, graphs, canonical Turtle/N-Triples.

A graph holds exact built-ins only: a ``str`` is an IRI, the 1-tuple
``(label,)`` a blank node, the 3-tuple ``(lexical, datatype, language)`` a
literal and ``(subject, predicate, object)`` a triple.  :func:`BlankNode`,
:func:`Literal` and :func:`Triple` check their items and return them;
:class:`Iri` is the typed handle for an IRI outside a graph.

:func:`graph_isomorphic` compares graphs read back in; a conversion never
calls it, so its module is imported on first use.
"""

from importlib import import_module

from .model import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    term_sort_key,
)
from .parse import parse, parse_ntriples, parse_turtle
from .serialize import serialize, serialize_ntriples, serialize_turtle, term_to_ntriples


def __getattr__(name):
    if name != "graph_isomorphic":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(".isomorphism", __name__).graph_isomorphic


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
