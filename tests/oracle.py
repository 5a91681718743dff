"""Reference implementations that tests compare the library against.

``is_blank`` tells a blank node from the other terms, by the model's rule
that a blank node is a 1-tuple.
``blank_labels`` lists a graph's blank node labels.
``expected_iri`` is the IRI the mapper must mint for a node, worked out
apart from the mapper's own minting code.
``brute_force_isomorphic`` is an independent oracle for the library's
refined search; it shares no code with :mod:`ome_rdf.rdf.isomorphism`.
``reference_serialize_turtle`` is the straightforward Turtle writer that
shortens an IRI every time it writes one; the library's writer must give
the same text.  It shares no code with :mod:`ome_rdf.rdf.serialize`: it
escapes strings and shortens IRIs by its own rules.
"""

import string
from itertools import permutations
from urllib.parse import quote

from ome_rdf.errors import TooLargeForExactCheckError
from ome_rdf.namespaces import RDF_TYPE, XSD_STRING
from ome_rdf.rdf import BlankNode, Graph, Triple
from ome_rdf.rdf.model import Term, term_sort_key

# the characters of a local name the writer may leave in a prefixed name:
# a letter or "_" first, then letters, digits, "_" and "-"; or none at all
_LOCAL_FIRST = set(string.ascii_letters + "_")
_LOCAL_REST = _LOCAL_FIRST | set(string.digits + "-")


def is_blank(term) -> bool:
    """Whether ``term`` is a blank node: an IRI is a ``str``, a blank node a
    1-tuple and a literal a 3-tuple."""
    return type(term) is tuple and len(term) == 1


def _split(g: Graph):
    """(ground triples, triples touching a blank node)."""
    ground, blankful = set(), []
    for t in g:
        if is_blank(t[0]) or is_blank(t[2]):
            blankful.append(t)
        else:
            ground.add(t)
    return ground, blankful


def _substitute(blankful, mapping):
    def sub(term):
        return BlankNode(mapping[term[0]]) if is_blank(term) else term

    return {Triple(sub(s), p, sub(o)) for s, p, o in blankful}


def blank_labels(g: Graph) -> frozenset:
    """The labels of the blank nodes in ``g``."""
    return frozenset(
        term[0] for s, _, o in g for term in (s, o)
        if is_blank(term)
    )


def expected_iri(instance_base: str, class_label: str, local_id: str) -> str:
    """``instance_base``, the class label in lower case, "/" and the local id
    with every character but the unreserved ones percent-encoded as UTF-8."""
    lowered = "".join(chr(ord(ch) + 32) if "A" <= ch <= "Z" else ch for ch in class_label)
    return instance_base + lowered + "/" + quote(local_id, safe="")


def brute_force_isomorphic(a: Graph, b: Graph, max_blanks: int = 8) -> bool:
    """Try all blank-node bijections; factorial cost."""
    if len(a) != len(b):
        return False
    ground_a, blankful_a = _split(a)
    ground_b, blankful_b = _split(b)
    if ground_a != ground_b:
        return False
    labels_a = sorted(blank_labels(a))
    labels_b = sorted(blank_labels(b))
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


def _escape(lexical: str) -> str:
    # the backslash first, so the escapes added after it stay as they are
    for ch, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r")):
        lexical = lexical.replace(ch, escaped)
    return lexical


def _iri_to_turtle(iri: str, prefixes: dict) -> str:
    """A prefixed name under the longest namespace that leaves a safe local
    name, the smallest prefix among equally long ones; else ``<iri>``."""
    names = []
    for prefix, ns in prefixes.items():
        local = iri[len(ns):]
        if iri.startswith(ns) and (local == "" or (
                local[0] in _LOCAL_FIRST and all(ch in _LOCAL_REST for ch in local))):
            names.append((-len(ns), prefix, f"{prefix}:{local}"))
    return min(names)[2] if names else f"<{iri}>"


def _term_to_turtle(term: Term, prefixes: dict) -> str:
    if isinstance(term, str):
        return _iri_to_turtle(term, prefixes)
    if is_blank(term):
        return f"_:{term[0]}"
    lexical, datatype, language = term
    body = f'"{_escape(lexical)}"'
    if language is not None:
        return f"{body}@{language}"
    if datatype == XSD_STRING:
        return body
    return f"{body}^^{_iri_to_turtle(datatype, prefixes)}"


def reference_serialize_turtle(g: Graph) -> str:
    prefixes = dict(g.prefixes)
    out = []
    for name in sorted(prefixes):
        out.append(f"@prefix {name}: <{prefixes[name]}> .\n")

    by_subject: dict = {}
    for s, p, o in g:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)
    if by_subject and out:
        out.append("\n")

    def pred_key(p: str):
        return "" if p == RDF_TYPE else p

    for subject in sorted(by_subject, key=term_sort_key):
        preds = by_subject[subject]
        lines = []
        for p in sorted(preds, key=pred_key):
            verb = "a" if p == RDF_TYPE else _term_to_turtle(p, prefixes)
            objs = ", ".join(
                _term_to_turtle(o, prefixes)
                for o in sorted(preds[p], key=term_sort_key)
            )
            lines.append((verb, objs))
        subj = _term_to_turtle(subject, prefixes)
        for i, (verb, objs) in enumerate(lines):
            head = subj if i == 0 else "    "
            tail = " ." if i == len(lines) - 1 else " ;"
            out.append(f"{head} {verb} {objs}{tail}\n")
    return "".join(out)
