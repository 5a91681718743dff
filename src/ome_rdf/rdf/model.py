"""Core RDF data model: terms, triples, and immutable graphs.

Graphs are immutable value objects, so they can be shared freely across
threads.  Iterating a graph yields each distinct triple once, in the order
it first arrived: producers build their triples in the order they emit or
read them, so a loop over a graph walks memory in allocation order.
Equality and hashing ignore that order, and the canonical writers of
:mod:`ome_rdf.rdf.serialize` still sort, so their bytes never depend on it.

Inside a graph every term is an exact built-in, told apart by one rule: a
``str`` is an IRI, a 1-tuple ``(label,)`` a blank node and a 3-tuple
``(lexical, datatype IRI text, language or None)`` a literal; a triple is
the tuple ``(subject, predicate, object)``.  CPython's cyclic garbage
collector untracks such a tuple the first time it meets it, and a full
collection then untracks the dict that a graph keeps them in, so a finished
graph adds nothing to a collection.  :func:`BlankNode`, :func:`Literal` and
:func:`Triple` check their items and return these built-ins, which hash,
compare and pickle as themselves.  One function, :func:`checked_term`,
checks a term by that rule for both :func:`Triple` and the writers'
:func:`~ome_rdf.rdf.serialize.term_to_ntriples`.

:class:`Iri` is the typed handle for an IRI outside a graph (the ontology
rows, namespaces, minted image IRIs, resolved links): a checked ``str``
subclass with ``.value``, equal to its text, which pickles through its
constructor.  Every IRI a term is built from, an ``Iri`` included, is
checked and becomes, through :func:`iri_text`, the one exact ``str`` the
process holds for its text (:func:`sys.intern`), so graphs from every
producer (the parsers, the mapper, :func:`Triple`) share their IRI objects
and compare them by pointer.  That holds only where the runtime frees an
interned string once nothing else holds it; where it keeps them all for
good (CPython 3.12), the IRIs a reader sees would stay in memory forever,
so there :func:`iri_text` interns nothing.  Sharing is never needed for a
correct result, only for a fast one.  An ``Iri`` is checked by the same
rule but not interned: it holds its own copy of its text.  Every other
``str`` a term is built from is checked and copied to an exact ``str``.
"""

from __future__ import annotations

import re
import sys
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

from ..errors import InvalidBlankNodeError, InvalidIriError, InvalidLiteralError
from ..namespaces import (
    RDF_LANGSTRING, XSD_DATETIME, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT, XSD_NS, XSD_STRING,
)

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
# The ASCII characters an IRI may never contain if it is to survive <...>
# quoting in N-Triples, as the body of a character class: angle brackets,
# quotes, braces, pipes, carets, backquotes, backslashes and anything at or
# below U+0020; the IRI check below composes it with the lone surrogates.
IRI_FORBIDDEN_ASCII = r'<>"{}|^`\\\x00-\x20'
# lone surrogates, which UTF-8 cannot encode
_SURROGATES = r"\ud800-\udfff"
_IRI_FORBIDDEN_RE = re.compile(rf"[\s{IRI_FORBIDDEN_ASCII}{_SURROGATES}]")
SURROGATE_RE = re.compile(f"[{_SURROGATES}]")

# the grammars of a blank node label, a language tag and the local name the
# Turtle writer writes (a conservative subset of Turtle's), which the parsers
# and the writer compose into their own patterns
BLANK_LABEL_PATTERN = r"[A-Za-z][A-Za-z0-9]*"
LANG_TAG_PATTERN = r"[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*"
LOCAL_NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_-]*"
_BLANK_LABEL_RE = re.compile(BLANK_LABEL_PATTERN)
_LANG_TAG_RE = re.compile(LANG_TAG_PATTERN)
_PREFIX_NAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_.-]*[A-Za-z0-9_-]|[A-Za-z])?")

_INTEGER_LEXICAL_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_LEXICAL_RE = re.compile(
    r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?INF|NaN"
)
# The parts of the xsd:date, xsd:time and xsd:dateTime lexical forms of XSD
# 1.1, except that an hour is below 24, with the timezone (at most 14:00 from
# UTC) optional; whether the day exists in its month is checked on the match.
_DATE = r"-?(0[0-9]{3}|[1-9][0-9]{3,})-(0[1-9]|1[0-2])-(0[1-9]|[12][0-9]|3[01])"
_TIME = r"(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](?:\.[0-9]+)?"
_TIMEZONE = r"(Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
DATETIME_LEXICAL_RE = re.compile(f"{_DATE}T{_TIME}{_TIMEZONE}")
_MONTH_DAYS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# every finite integer bound below has at most this many digits
_BOUND_DIGITS = 20


def _integer_value(lexical: str):
    """The value of an integer lexical form, or an infinity of its sign when
    it has more digits than any bound (which also keeps ``int()`` under its
    digit limit)."""
    digits = lexical.lstrip("+-").lstrip("0")
    value = int(digits or "0") if len(digits) <= _BOUND_DIGITS else float("inf")
    return -value if lexical[0] == "-" else value


def _within(least, greatest):
    """The value check of an integer type with these bounds."""
    return lambda m: least <= _integer_value(m.group()) <= greatest


def datetime_day_exists(m: re.Match) -> bool:
    """Whether the day a match of :data:`DATETIME_LEXICAL_RE` or of the
    xsd:date form names exists in its month (month lengths, leap years)."""
    day = m.group(3)
    if day <= "28":
        return True
    month = m.group(2)
    # the year's last four digits decide a leap year, as 10000 is 25 x 400
    year = int(m.group(1)[-4:])
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return int(day) <= _MONTH_DAYS[int(month) - 1] - (month == "02" and not leap)


# The datatypes whose literals are checked: the lexical forms each accepts
# (matched whole) and the check of the value, if any, on the match.
_LEXICAL_FORMS = {
    XSD_NS + "integer": (_INTEGER_LEXICAL_RE, None),
    XSD_NS + "long": (_INTEGER_LEXICAL_RE, _within(-2**63, 2**63 - 1)),
    XSD_NS + "int": (_INTEGER_LEXICAL_RE, _within(-2**31, 2**31 - 1)),
    XSD_NS + "short": (_INTEGER_LEXICAL_RE, _within(-2**15, 2**15 - 1)),
    XSD_NS + "byte": (_INTEGER_LEXICAL_RE, _within(-2**7, 2**7 - 1)),
    XSD_NS + "nonNegativeInteger": (_INTEGER_LEXICAL_RE, _within(0, float("inf"))),
    XSD_NS + "positiveInteger": (_INTEGER_LEXICAL_RE, _within(1, float("inf"))),
    XSD_NS + "unsignedLong": (_INTEGER_LEXICAL_RE, _within(0, 2**64 - 1)),
    XSD_NS + "unsignedInt": (_INTEGER_LEXICAL_RE, _within(0, 2**32 - 1)),
    XSD_DECIMAL: (re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)"), None),
    XSD_FLOAT: (_FLOAT_LEXICAL_RE, None),
    XSD_DOUBLE: (_FLOAT_LEXICAL_RE, None),
    XSD_DATETIME: (DATETIME_LEXICAL_RE, datetime_day_exists),
    XSD_NS + "date": (re.compile(_DATE + _TIMEZONE), datetime_day_exists),
    XSD_NS + "time": (re.compile(_TIME + _TIMEZONE), None),
    XSD_NS + "boolean": (re.compile("true|false|1|0"), None),
    XSD_NS + "hexBinary": (re.compile("(?:[0-9a-fA-F]{2})*"), None),
    XSD_NS + "base64Binary": (re.compile(
        "(?:(?:(?:[A-Za-z0-9+/] ?){4})*(?:(?:[A-Za-z0-9+/] ?){3}[A-Za-z0-9+/]"
        "|(?:[A-Za-z0-9+/] ?){2}[AEIMQUYcgkosw048] ?=|[A-Za-z0-9+/] ?[AQgw] ?= ?=))?"), None),
}
# Every XSD datatype the toolkit knows: the checked ones, and the two whose
# lexical space is any string.
XSD_DATATYPES = frozenset(_LEXICAL_FORMS) | {XSD_STRING, XSD_NS + "anyURI"}


def _checked_iri(value: str) -> str:
    """``value`` as an exact ``str``, once it passes the IRI check."""
    if not value:
        raise InvalidIriError("empty IRI")
    if not _SCHEME_RE.match(value):
        raise InvalidIriError(f"missing scheme in {value!r}")
    bad = _IRI_FORBIDDEN_RE.search(value)
    if bad:
        raise InvalidIriError(f"forbidden character {bad.group()!r} in {value!r}")
    return value if value.__class__ is str else str.__str__(value)


def _frees_interned_strings() -> bool:
    """Whether this runtime frees an interned string once nothing else
    holds it.  CPython 3.12 makes every interned string immortal, and an
    immortal object reports a reference count in the billions."""
    probe = sys.intern(f"ome_rdf interning probe {id(object())}")
    return sys.getrefcount(probe) < 1 << 20


# Whether iri_text interns: only where that cannot keep every IRI a reader
# has seen for the life of the process.
_SHARED = _frees_interned_strings()


def iri_text(value: str) -> str:
    """``value`` as an exact ``str``, once it passes the IRI check.

    Where the runtime frees interned strings, it is :func:`sys.intern` of
    that ``str``, the process's one object for its text, so that the IRIs of
    graphs from different producers are the same objects and compare by
    pointer."""
    text = _checked_iri(value)
    return sys.intern(text) if _SHARED else text


# the datatypes of a literal given none, as iri_text gives them: the namespace
# constants are not those objects if other code interned the texts first
_XSD_STRING, _RDF_LANGSTRING = iri_text(XSD_STRING), iri_text(RDF_LANGSTRING)


class Iri(str):
    """An absolute IRI, validated on construction by the rule of
    :func:`iri_text` but not interned: the typed handle for an IRI outside
    a graph.

    An ``Iri`` is the ``str`` of its text, so it hashes and compares as that
    text: ``Iri(v) == v``.  ``value`` is the text as a plain ``str``.
    """

    __slots__ = ()

    def __new__(cls, value: str):
        return str.__new__(cls, _checked_iri(value))

    value = property(str.__str__, doc="The IRI text as a plain ``str``.")

    def __repr__(self):
        return f"Iri(value={str.__repr__(self)})"


def BlankNode(label: str) -> tuple:
    """A graph-local node: the exact 1-tuple ``(label,)``, whose label
    matches ``[A-Za-z][A-Za-z0-9]*``."""
    if not _BLANK_LABEL_RE.fullmatch(label):
        raise InvalidBlankNodeError(f"bad blank node label {label!r}")
    return (str.__str__(label),)


def Literal(lexical: str, datatype: Optional[str] = None,
            language: Optional[str] = None) -> tuple:
    """An RDF literal: the exact tuple ``(lexical, datatype, language)``,
    whose datatype is the text of its IRI.

    ``Literal("x")`` is an ``xsd:string``; ``Literal("x", language="en")``
    is an ``rdf:langString``.  The datatype is an :class:`Iri`, or a
    ``str`` that is checked as one.  A language tag together with any
    other datatype is rejected, as are lexical forms that do not match
    their datatype and integers outside their datatype's range.
    """
    bad = SURROGATE_RE.search(lexical)
    if bad:
        raise InvalidLiteralError(f"lone surrogate {bad[0]!r} in lexical form {lexical!r}")
    if language is not None:
        if not _LANG_TAG_RE.fullmatch(language):
            raise InvalidLiteralError(f"bad language tag {language!r}")
        language = str.__str__(language)
    if datatype is None:
        datatype = _XSD_STRING if language is None else _RDF_LANGSTRING
    elif not isinstance(datatype, str):
        raise TypeError(f"literal datatype must be an Iri or its text, not {datatype!r}")
    else:
        datatype = iri_text(datatype)
        if language is not None:
            if datatype != RDF_LANGSTRING:
                raise InvalidLiteralError("language tag requires the rdf:langString datatype")
        elif datatype == RDF_LANGSTRING:
            raise InvalidLiteralError("rdf:langString requires a language tag")
    checked = _LEXICAL_FORMS.get(datatype)
    if checked is not None:
        lexical_re, in_value_space = checked
        m = lexical_re.fullmatch(lexical)
        if m is None:
            raise InvalidLiteralError(f"lexical form {lexical!r} does not parse as {datatype}")
        if in_value_space is not None and not in_value_space(m):
            raise InvalidLiteralError(f"{lexical!r} is outside the value space of {datatype}")
    return (str.__str__(lexical), datatype, language)


Term = Union[str, tuple]


def checked_term(term) -> Term:
    """``term`` as a graph holds it: a ``str`` through :func:`iri_text`, a
    1-tuple through :func:`BlankNode` and a 3-tuple through :func:`Literal`;
    anything else is a :class:`TypeError`."""
    if isinstance(term, str):
        return iri_text(term)
    if isinstance(term, tuple):
        if len(term) == 1:
            return BlankNode(*term)
        if len(term) == 3:
            return Literal(*term)
    raise TypeError(f"not an RDF term: {term!r}")


def term_sort_key(t: Term):
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(t, str):
        return (0, t, "", "")
    if len(t) == 1:
        return (1, t[0], "", "")
    return (2, t[0], t[1], t[2] or "")


def Triple(subject: Term, predicate: str, object: Term) -> tuple:
    """One RDF statement: the exact tuple ``(subject, predicate, object)``.

    The subject is an IRI or a blank node, never a literal; the predicate is
    an IRI; the object may also be a literal.  Subject and object go through
    :func:`checked_term`, and the predicate through :func:`iri_text`.
    """
    if isinstance(subject, tuple) and len(subject) == 3:
        raise TypeError("triple subject cannot be a literal")
    subject = checked_term(subject)
    if not isinstance(predicate, str):
        raise TypeError("triple predicate must be an IRI")
    return (subject, iri_text(predicate), checked_term(object))


class Graph:
    """An immutable set of triples plus a prefix map.

    Equality compares triple sets only; prefix maps are serialization
    hints.  Duplicate triples collapse (set semantics).  The triples are
    kept once, as the keys of a dict, so iteration follows first insertion,
    for memory locality; :attr:`triples` builds a ``frozenset`` of them.
    """

    __slots__ = ("_triples", "_prefixes")

    def __init__(
        self,
        triples: Iterable[tuple] = (),
        prefixes: Optional[Mapping[str, str]] = None,
    ):
        self._triples = dict.fromkeys(triples)
        pfx = {}
        for name, ns in (prefixes or {}).items():
            if not _PREFIX_NAME_RE.fullmatch(name):
                raise ValueError(f"bad prefix name {name!r}")
            pfx[name] = iri_text(ns)
        self._prefixes = pfx

    @property
    def triples(self) -> frozenset:
        return frozenset(self._triples)

    @property
    def prefixes(self) -> Mapping[str, str]:
        return MappingProxyType(self._prefixes)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: tuple) -> bool:
        return t in self._triples

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # every value is None, so the dicts are equal iff their key sets are
        return self._triples == other._triples

    def __hash__(self):
        return hash(frozenset(self._triples))

    def __repr__(self):
        return f"Graph({len(self._triples)} triples, {len(self._prefixes)} prefixes)"
