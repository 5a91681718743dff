"""Canonical Turtle and N-Triples writers.

Output is byte-stable for a given triple set regardless of construction
order or thread schedule: N-Triples lines are sorted bytewise, Turtle
statements are grouped by subject and sorted at every level, with
``rdf:type`` written first as ``a``.  The Turtle writer writes an IRI as a
prefixed name under the longest namespace that leaves a safe local name,
and in full ``<...>`` form when none does.  The Turtle writer works out
each distinct IRI's text once per call, and the N-Triples writer each
distinct literal's.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import attrgetter

from ..errors import OmeRdfError
from ..namespaces import RDF_TYPE, XSD_STRING
from .model import BlankNode, Graph, Iri, Literal, Term, Triple, term_sort_key

_FORMATS = ("turtle", "ntriples")

# Conservative Turtle local-name subset: anything outside it is written in
# full <...> form rather than risking an unparseable prefixed name.
_SAFE_LOCAL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$|^$")
_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def _escape_string(s: str) -> str:
    return s.translate(_STRING_ESCAPES)


def _term_text(term: Term, iri) -> str:
    """Render one term; ``iri`` maps an IRI value to its text.  A literal of
    type xsd:string is written bare."""
    if isinstance(term, Iri):
        return iri(term.value)
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    body = f'"{_escape_string(term.lexical)}"'
    if term.language is not None:
        return f"{body}@{term.language}"
    if term.datatype.value == XSD_STRING:
        return body
    return f"{body}^^{iri(term.datatype.value)}"


_bracketed = "<{}>".format


def term_to_ntriples(term: Term) -> str:
    """Render one term in N-Triples syntax (bare literal means xsd:string)."""
    if not isinstance(term, (Iri, BlankNode, Literal)):
        raise TypeError(f"not an RDF term: {term!r}")
    return _term_text(term, _bracketed)


class _NTriplesText(dict):
    """Term -> N-Triples text, rendered on first lookup."""

    def __missing__(self, term: Term) -> str:
        text = self[term] = term_to_ntriples(term)
        return text


def serialize_ntriples(g: Graph) -> str:
    # each distinct literal and blank node is rendered once per call; an IRI
    # is only put in <>, which costs less than looking it up
    text = _NTriplesText()
    lines = [
        f"{'<' + t.subject.value + '>' if t.subject.__class__ is Iri else text[t.subject]}"
        f" <{t.predicate.value}> "
        f"{'<' + t.object.value + '>' if t.object.__class__ is Iri else text[t.object]} .\n"
        for t in g
    ]
    # code-point order is UTF-8 byte order, so no encoded copy is needed
    lines.sort()
    return "".join(lines)


def _shorten(iri_value: str, namespaces: list) -> str | None:
    # namespaces: (ns, prefix) sorted longest-ns-first for deterministic wins
    for ns, prefix in namespaces:
        if iri_value.startswith(ns):
            local = iri_value[len(ns):]
            if _SAFE_LOCAL_RE.match(local):
                return f"{prefix}:{local}"
    return None


def _subject_key(t: Triple) -> str:
    # term_sort_key's order on subjects: IRIs by value, then blank nodes by
    # label; an IRI value starts with a letter, and letters sort before "~"
    s = t.subject
    return s.value if s.__class__ is Iri else "~" + s.label


def _verb_order(value: str) -> str:
    return "" if value == RDF_TYPE else value


def serialize_turtle(g: Graph) -> str:
    prefixes = g.prefixes
    # longest namespace wins; prefix name breaks ties deterministically
    namespaces = sorted(
        ((ns, p) for p, ns in prefixes.items()),
        key=lambda item: (-len(item[0]), item[1]),
    )
    out = [f"@prefix {name}: <{prefixes[name]}> .\n" for name in sorted(prefixes)]

    # each distinct IRI is shortened once per call: predicates, classes and
    # datatypes recur on every subject
    iri_text: dict = {}

    def iri(value: str) -> str:
        text = iri_text.get(value)
        if text is None:
            text = iri_text[value] = _shorten(value, namespaces) or f"<{value}>"
        return text

    # sorted, not grouped into a list per subject: tens of thousands of live
    # lists would set off a full garbage collection of all the caller holds
    triples = sorted(g, key=_subject_key)
    if triples and out:
        out.append("\n")

    for subject, group in groupby(triples, key=attrgetter("subject")):
        by_predicate: dict = {}
        for t in group:
            by_predicate.setdefault(t.predicate.value, []).append(t.object)
        lines = []
        for p in sorted(by_predicate, key=_verb_order):
            objs = by_predicate[p]
            if len(objs) == 1:
                text = _term_text(objs[0], iri)
            else:
                objs.sort(key=term_sort_key)
                text = ", ".join([_term_text(o, iri) for o in objs])
            # "a" is only a verb: rdf:type elsewhere is written as an IRI
            lines.append(f"{'a' if p == RDF_TYPE else iri(p)} {text}")
        out.append(f"{_term_text(subject, iri)} " + " ;\n     ".join(lines) + " .\n")
    return "".join(out)


def serialize(g: Graph, format: str = "ntriples") -> str:
    """Serialize ``g`` canonically; ``format`` is ``turtle`` or ``ntriples``."""
    if format == "ntriples":
        return serialize_ntriples(g)
    if format == "turtle":
        return serialize_turtle(g)
    raise OmeRdfError(f"unknown format {format!r}; expected one of {_FORMATS}")
