"""Canonical Turtle and N-Triples writers.

Output is byte-stable for a given triple set regardless of construction
order or thread schedule: N-Triples lines are sorted bytewise, Turtle
statements are grouped by subject and sorted at every level.
"""

from __future__ import annotations

import re

from ..errors import OmeRdfError
from ..namespaces import RDF_TYPE, XSD_STRING
from .model import BlankNode, Graph, Iri, Literal, Term, term_sort_key

_FORMATS = ("turtle", "ntriples")

# Conservative Turtle local-name subset: anything outside it is written in
# full <...> form rather than risking an unparseable prefixed name.
_SAFE_LOCAL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$|^$")
_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def _escape_string(s: str) -> str:
    return s.translate(_STRING_ESCAPES)


def term_to_ntriples(term: Term) -> str:
    """Render one term in N-Triples syntax (bare literal means xsd:string)."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape_string(term.lexical)}"'
        if term.language is not None:
            return f"{body}@{term.language}"
        if term.datatype.value == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype.value}>"
    raise TypeError(f"not an RDF term: {term!r}")


def serialize_ntriples(g: Graph) -> str:
    lines = [
        f"{term_to_ntriples(t.subject)} {term_to_ntriples(t.predicate)} "
        f"{term_to_ntriples(t.object)} .\n"
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


def _term_to_turtle(term: Term, namespaces: list) -> str:
    if isinstance(term, Iri):
        short = _shorten(term.value, namespaces)
        return short if short is not None else f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    body = f'"{_escape_string(term.lexical)}"'
    if term.language is not None:
        return f"{body}@{term.language}"
    if term.datatype.value == XSD_STRING:
        return body
    dt = _shorten(term.datatype.value, namespaces)
    return f"{body}^^{dt}" if dt is not None else f"{body}^^<{term.datatype.value}>"


def serialize_turtle(g: Graph) -> str:
    prefixes = dict(g.prefixes)
    # longest namespace wins; prefix name breaks ties deterministically
    namespaces = sorted(
        ((ns, p) for p, ns in prefixes.items()),
        key=lambda item: (-len(item[0]), item[1]),
    )
    out = []
    for name in sorted(prefixes):
        out.append(f"@prefix {name}: <{prefixes[name]}> .\n")

    by_subject: dict = {}
    for t in g:
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
    if by_subject and out:
        out.append("\n")

    def pred_key(p: Iri):
        return "" if p.value == RDF_TYPE else p.value

    for subject in sorted(by_subject, key=term_sort_key):
        preds = by_subject[subject]
        lines = []
        for p in sorted(preds, key=pred_key):
            verb = "a" if p.value == RDF_TYPE else _term_to_turtle(p, namespaces)
            objs = ", ".join(
                _term_to_turtle(o, namespaces)
                for o in sorted(preds[p], key=term_sort_key)
            )
            lines.append((verb, objs))
        subj = _term_to_turtle(subject, namespaces)
        for i, (verb, objs) in enumerate(lines):
            head = subj if i == 0 else "    "
            tail = " ." if i == len(lines) - 1 else " ;"
            out.append(f"{head} {verb} {objs}{tail}\n")
    return "".join(out)


def serialize(g: Graph, format: str = "ntriples") -> str:
    """Serialize ``g`` canonically; ``format`` is ``turtle`` or ``ntriples``."""
    if format == "ntriples":
        return serialize_ntriples(g)
    if format == "turtle":
        return serialize_turtle(g)
    raise OmeRdfError(f"unknown format {format!r}; expected one of {_FORMATS}")
