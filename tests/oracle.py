"""Brute-force graph isomorphism: an independent oracle for the library's
refined search.  It shares no code with :mod:`ome_rdf.rdf.isomorphism`."""

from itertools import permutations

from ome_rdf.errors import TooLargeForExactCheckError
from ome_rdf.rdf import BlankNode, Graph, Triple


def _split(g: Graph):
    """(ground triples, triples touching a blank node)."""
    ground, blankful = set(), []
    for t in g:
        if isinstance(t.subject, BlankNode) or isinstance(t.object, BlankNode):
            blankful.append(t)
        else:
            ground.add(t)
    return ground, blankful


def _substitute(blankful, mapping):
    def sub(term):
        return BlankNode(mapping[term.label]) if isinstance(term, BlankNode) else term

    return {Triple(sub(t.subject), t.predicate, sub(t.object)) for t in blankful}


def brute_force_isomorphic(a: Graph, b: Graph, max_blanks: int = 8) -> bool:
    """Try all blank-node bijections; factorial cost."""
    if len(a) != len(b):
        return False
    ground_a, blankful_a = _split(a)
    ground_b, blankful_b = _split(b)
    if ground_a != ground_b:
        return False
    labels_a = sorted(a.blank_labels())
    labels_b = sorted(b.blank_labels())
    if len(labels_a) != len(labels_b):
        return False
    if len(labels_a) > max_blanks:
        raise TooLargeForExactCheckError(
            f"{len(labels_a)} blank nodes exceed the oracle bound ({max_blanks})"
        )
    if not labels_a:
        return True
    target = set(blankful_b)
    return any(
        _substitute(blankful_a, dict(zip(labels_a, perm))) == target
        for perm in permutations(labels_b)
    )
