"""Canonical Turtle and N-Triples writers.

Output is byte-stable for a given triple set regardless of construction
order or thread schedule: the writers never rely on the order in which a
graph yields its triples.  N-Triples lines are sorted bytewise, Turtle
statements are grouped by subject and sorted at every level, with
``rdf:type`` written first as ``a``.  The Turtle writer writes an IRI as a
prefixed name under the longest namespace that leaves a safe local name,
and in full ``<...>`` form when none does; one pattern, compiled per call
from the prefix map, finds that namespace in one match.  Subjects whose
triples carry the same predicates in the same order share one plan per
call: the text of each verb, in verb order, and where its objects sit
among the subject's triples.  One term table, made per call
with the writer's rendering of an IRI, renders each distinct term once for
both writers, a literal's datatype through the same table; the N-Triples
writer puts a graph's IRIs in ``<>`` itself, which costs less than a
lookup.  Both read the exact built-in terms of a graph (see
:mod:`ome_rdf.rdf.model`) and tell them apart by one rule: a ``str`` is an
IRI, a 1-tuple a blank node and a 3-tuple a literal; :func:`term_to_ntriples`
also takes an :class:`~ome_rdf.rdf.model.Iri` handle, and checks its term.
"""

from __future__ import annotations

import re
from operator import itemgetter

from ..errors import UnknownFormatError
from ..namespaces import RDF_TYPE, XSD_STRING
from .model import LOCAL_NAME_PATTERN, Graph, Term, checked_term, term_sort_key

_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


class _TermText(dict):
    """Term -> text, rendered on first lookup and kept for one call.  ``iri``
    renders an IRI: N-Triples puts it in ``<>``, Turtle shortens it.  A
    literal's datatype is an IRI of the same table, and a literal of type
    xsd:string is written bare."""

    def __init__(self, iri):
        super().__init__()
        self.iri = iri

    def __missing__(self, term: Term) -> str:
        if isinstance(term, str):
            text = self.iri(term)
        elif len(term) == 1:
            text = "_:" + term[0]
        else:
            lexical, datatype, language = term
            text = f'"{lexical.translate(_STRING_ESCAPES)}"'
            if language is not None:
                text += f"@{language}"
            elif datatype != XSD_STRING:
                text += "^^" + self[datatype]
        self[term] = text
        return text


_bracketed = "<{}>".format
_predicate = itemgetter(1)


def term_to_ntriples(term: Term) -> str:
    """Render one term in N-Triples syntax (bare literal means xsd:string),
    checked by :func:`~ome_rdf.rdf.model.checked_term`."""
    return _TermText(_bracketed)[checked_term(term)]


def serialize_ntriples(g: Graph) -> str:
    # each distinct literal and blank node is rendered once per call; an IRI
    # is only put in <>, which costs less than looking it up
    text = _TermText(_bracketed)
    lines = [
        (f"<{s}> <{p}> <{o}> .\n" if o.__class__ is str else f"<{s}> <{p}> {text[o]} .\n")
        if s.__class__ is str
        else f"{text[s]} <{p}> {text[o]} .\n"
        for s, p, o in g
    ]
    # code-point order is UTF-8 byte order, so no encoded copy is needed
    lines.sort()
    return "".join(lines)


def _subject_key(s: Term) -> str:
    # term_sort_key's order on subjects: IRIs by text, then blank nodes by
    # label; an IRI starts with a letter, and letters sort before "~".  The
    # key is an exact str, which list.sort compares fastest.
    return s if s.__class__ is str else "~" + s[0]


def _shortener(namespaces: list):
    """IRI -> Turtle text: a prefixed name under the first of ``namespaces``
    (``(ns, prefix)``, longest first) that leaves a safe local name, else
    ``<iri>``.  One alternation holds every namespace in that order, each
    followed by a group for the local name; ``fullmatch`` backtracks into
    the next alternative when a local name is not safe, so the first safe
    one wins, and ``lastindex`` names its prefix."""
    if not namespaces:
        return _bracketed
    # conservative Turtle local-name subset: anything outside it is written
    # in full <...> form rather than risking an unparseable prefixed name
    fullmatch = re.compile("|".join(
        re.escape(ns) + f"((?:{LOCAL_NAME_PATTERN})?)" for ns, _ in namespaces)).fullmatch
    heads = [None] + [prefix + ":" for _, prefix in namespaces]

    def shorten(iri: str) -> str:
        m = fullmatch(iri)
        if m is None:
            return f"<{iri}>"
        i = m.lastindex
        return heads[i] + m[i]

    return shorten


def _plan(predicates: tuple, text: _TermText) -> list:
    """How to write a subject whose triples carry ``predicates`` in this
    order: per verb, ``rdf:type`` first, then by IRI, the text before its
    objects and the position of its one object or a tuple of positions."""
    positions: dict = {}
    for i, p in enumerate(predicates):
        positions.setdefault(p, []).append(i)
    plan = []
    sep = " "
    for p in sorted(positions, key=lambda p: "" if p == RDF_TYPE else p):
        where = positions[p]
        # "a" is only a verb: rdf:type elsewhere is written as an IRI
        plan.append((sep + ("a" if p == RDF_TYPE else text[p]) + " ",
                     where[0] if len(where) == 1 else tuple(where)))
        sep = " ;\n     "
    return plan


def serialize_turtle(g: Graph) -> str:
    prefixes = g.prefixes
    # longest namespace wins; prefix name breaks ties deterministically
    namespaces = sorted(
        ((ns, p) for p, ns in prefixes.items()),
        key=lambda item: (-len(item[0]), item[1]),
    )
    out = [f"@prefix {name}: <{prefixes[name]}> .\n" for name in sorted(prefixes)]
    # each distinct term is rendered once per call: predicates, classes,
    # datatypes and shared nodes recur on many subjects
    text = _TermText(_shortener(namespaces))

    # grouped, then only the distinct subjects sorted
    groups: dict = {}
    for t in g:
        groups.setdefault(t[0], []).append(t)
    if groups and out:
        out.append("\n")

    # many subjects carry the same predicates in the same order, so each
    # distinct sequence is planned once per call; a plan holds rendered
    # text, which depends on the prefix map, so it is never kept longer.
    # Statements go into out in small pieces: a whole statement is often
    # over 512 bytes, which CPython takes from malloc, and such blocks left
    # cached between the large output buffers kept the heap from shrinking
    # (peak RSS up by about 20 MB in some runs)
    plans: dict = {}
    append = out.append
    for subject in sorted(groups, key=_subject_key):
        triples = groups[subject]
        predicates = tuple(map(_predicate, triples))
        plan = plans.get(predicates)
        if plan is None:
            plan = plans[predicates] = _plan(predicates, text)
        append(text[subject])
        for verb, where in plan:
            append(verb)
            if where.__class__ is int:
                append(text[triples[where][2]])
            else:
                objs = sorted([triples[i][2] for i in where], key=term_sort_key)
                append(", ".join([text[o] for o in objs]))
        append(" .\n")
    return "".join(out)


def serialize(g: Graph, format: str = "ntriples") -> str:
    """Serialize ``g`` canonically; ``format`` is ``turtle`` or ``ntriples``."""
    if format == "ntriples":
        return serialize_ntriples(g)
    if format == "turtle":
        return serialize_turtle(g)
    raise UnknownFormatError(format)
